"""Command-line front end: generate, train, evaluate, predict, plot-data.

All commands are non-interactive, driven by a JSON run configuration plus a
few override flags, and exit nonzero with a machine-parsable "error:" line on
any failure.  A run is reproducible from its configuration and seeds alone:
dataset files match bit for bit, and model files, logs and reports do when
both runs use the same BLAS thread count.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._container import write_csv
from .dataset import (
    ON_FAILURE,
    ROLES,
    RngSeed,
    SampleSet,
    export_dataset_csv,
    failed_rows,
    generate_targets,
    load_dataset,
    sample_parameters,
    save_dataset,
)
from .dynsys import ParameterDomain, PluginResultError, SystemSpec, circuit_system, default_domain
from .evaluation import ErrorReport, error_stats, format_error_table, write_report_csv
from .integrator import TimeGrid, ToleranceSettings, solve_trajectory
from .neuralnet import (
    Normalizer,
    TransferKind,
    check_sets,
    forward,
    init_weights,
    load_model,
    loss_mse,
    save_model,
)
from .training import TrainConfig, TrainMethod, train, write_training_log


class ConfigError(RuntimeError):
    """Invalid or inconsistent run configuration."""


def _is(value, typ: type) -> bool:
    """JSON type test: a bool is no number, and an integer is also a float."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if typ is float else typ)


# rules of the last _LAYOUT column: (test of a value of the row's type, what it must be)
_TEXT = (lambda v: True, "a string")
_COUNT = (lambda v: v >= 1, "an integer >= 1")
_NONNEGATIVE = (lambda v: v >= 0, "an integer >= 0")
_POSITIVE = (lambda v: 0 < v < np.inf, "a finite positive number")
_SEED = (lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")  # the range RngSeed takes
_WIDTHS = (lambda v: all(_is(h, int) and h >= 1 for h in v), "a list of integers >= 1")
_BOUNDS = (lambda v: all(_is(x, float) and -np.inf < x < np.inf for x in v), "a list of finite numbers")


def _one_of(choices: list) -> tuple:
    return (lambda v: v in choices, f"one of {choices}")


# The layout of the run configuration, stated once: (JSON path, RunConfig
# field, JSON type, rule).  run_config.json is written in this order.  The
# domain is optional; ParameterDomain checks its two bounds together.
_LAYOUT = (
    ("system", "system", str, _TEXT),
    ("grid.m", "m", int, _COUNT),
    ("tolerances.rtol", "rtol", float, _POSITIVE),
    ("tolerances.atol", "atol", float, _POSITIVE),
    ("samples.train", "n_train", int, _COUNT),
    ("samples.validation", "n_validation", int, _COUNT),
    ("samples.test", "n_test", int, _COUNT),
    ("seed_data", "seed_data", int, _SEED),
    ("seed_weights", "seed_weights", int, _SEED),
    ("network.hidden", "hidden", list, _WIDTHS),
    ("network.transfer", "transfer", str, _one_of([k.value for k in TransferKind])),
    ("training.method", "method", str, _one_of([k.value for k in TrainMethod])),
    ("training.max_epochs", "max_epochs", int, _NONNEGATIVE),
    ("generation.on_failure", "on_failure", str, _one_of(list(ON_FAILURE))),
    ("generation.workers", "workers", int, _COUNT),
    ("out", "out", str, _TEXT),
    ("domain.lower", "lower", list, _BOUNDS),
    ("domain.upper", "upper", list, _BOUNDS),
)


def _nest(pairs: Iterable[Tuple[str, object]]) -> Dict:
    """(dotted path, value) pairs as nested JSON objects, in pair order."""
    doc: Dict = {}
    for path, value in pairs:
        section, _, key = path.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


def _check_keys(section: str, got, known: Iterable[str]) -> None:
    if not isinstance(got, dict):
        raise ConfigError(f"{section} must be a JSON object, not {type(got).__name__}")
    unknown = sorted(set(got) - set(known))
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {unknown}")


@dataclasses.dataclass
class RunConfig:
    """Everything a run needs; serializable, so runs regenerate identically.

    Construction checks every value against _LAYOUT, so a config file, a flag
    override and a config built in code all fail as one ConfigError naming the
    JSON path and the bad value."""

    system: str = "circuit"
    lower: Optional[List[float]] = None
    upper: Optional[List[float]] = None
    m: int = 200
    rtol: float = 1e-4
    atol: float = 1e-6
    n_train: int = 500
    n_validation: int = 500
    n_test: int = 500
    seed_data: int = 20250819
    seed_weights: int = 20250819
    hidden: List[int] = dataclasses.field(default_factory=lambda: [400, 400])
    transfer: str = "tansig"
    method: str = TrainConfig.method.value
    max_epochs: int = TrainConfig.max_epochs
    on_failure: str = "abort"
    workers: int = 1
    out: str = "run"

    def __post_init__(self) -> None:
        for path, field, typ, (test, must_be) in _LAYOUT:
            value = getattr(self, field)
            if value is None and path.startswith("domain."):
                continue  # no domain given
            if not (_is(value, typ) and test(value)):
                raise ConfigError(f"{path}: {value!r} is not {must_be}")
            if typ is float:
                setattr(self, field, float(value))
        if self.lower is not None or self.upper is not None:
            try:
                ParameterDomain(self.lower, self.upper)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"domain: {exc} (lower {self.lower}, upper {self.upper})") from exc

    @classmethod
    def from_dict(cls, doc: Dict) -> "RunConfig":
        known = _nest((path, None) for path, *_ in _LAYOUT)
        _check_keys("config", doc, known)
        for section, keys in known.items():
            if keys is not None and section in doc:
                _check_keys(section, doc[section], keys)
        values = {}
        for path, field, *_ in _LAYOUT:
            section, _, key = path.rpartition(".")
            node = doc.get(section, {}) if section else doc
            if key in node:
                values[field] = node[key]
        return cls(**values)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> Dict:
        values = ((path, getattr(self, field)) for path, field, *_ in _LAYOUT)
        return copy.deepcopy(_nest((path, v) for path, v in values if v is not None))

    def resolve_system(self) -> SystemSpec:
        """Built-in circuit, or a plug-in "package.module:factory" returning
        a SystemSpec when called with no arguments."""
        if self.system == "circuit":
            return circuit_system()
        if ":" not in self.system:
            raise ConfigError(
                f"unknown system {self.system!r}; use 'circuit' or 'package.module:factory'"
            )
        mod_name, _, attr = self.system.partition(":")
        try:
            factory = getattr(importlib.import_module(mod_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigError(f"cannot load system factory {self.system!r}: {exc}") from exc
        if not callable(factory):
            raise ConfigError(f"system factory {self.system!r} is not callable")
        try:
            spec = factory()
        except ValueError as exc:  # a SystemSpec refuses its values at construction
            raise ConfigError(f"system factory {self.system!r}: {exc}") from exc
        if not isinstance(spec, SystemSpec):
            raise ConfigError(f"{self.system!r} did not return a SystemSpec")
        return spec

    def resolve_domain(self) -> ParameterDomain:
        if self.lower is None:  # construction allows both bounds or neither
            if self.system == "circuit":
                return default_domain()
            raise ConfigError("plug-in systems require explicit domain bounds in the config")
        domain, q = ParameterDomain(self.lower, self.upper), default_domain().dim
        if self.system == "circuit" and domain.dim != q:
            raise ConfigError(f"domain: the circuit takes {q} parameters, not {domain.dim}")
        return domain

    def tolerance_settings(self) -> ToleranceSettings:
        return ToleranceSettings(rtol=self.rtol, atol=self.atol)

    def train_config(self) -> TrainConfig:
        return TrainConfig(self.method, self.max_epochs)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_path(data_dir: Path, role: str) -> Path:
    return data_dir / f"{role}.ds"


def _load_set(data_dir: Path, role: str) -> SampleSet:
    path = _dataset_path(data_dir, role)
    if not path.exists():
        raise ConfigError(f"missing dataset file {path}; run 'generate' first")
    sample_set = load_dataset(path)
    if sample_set.role != role:
        raise ConfigError(f"dataset file {path} holds the {sample_set.role} set, not the {role} set")
    if sample_set.k == 0:  # generation.on_failure 'skip' dropped every row
        raise ConfigError(f"dataset file {path} holds no rows: every {role} row failed in 'generate'")
    return sample_set


def _load_sets(data_dir: Path) -> Dict[str, SampleSet]:
    return {role: _load_set(data_dir, role) for role in ROLES}


def _load_model(path: Path):
    if not path.exists():
        raise ConfigError(f"missing model file {path}; run 'train' first")
    return load_model(path)


def _check_system(spec: SystemSpec, domain: ParameterDomain) -> None:
    """Read each plug-in callable once at the domain midpoint through the solver's
    accessors, so that a result it cannot read is a ConfigError before any solve."""
    p, t0 = domain.midpoint(), spec.t0
    try:
        spec.mass_matrix(p)
        x0 = spec.initial_state(p)
        spec.f(t0, x0, p)
        spec.state_jacobian(t0, x0, p)
        spec.qoi_value(x0)
    except PluginResultError as exc:
        raise ConfigError(f"system {exc}") from exc


def cmd_generate(cfg: RunConfig, csv_export: bool = False) -> None:
    spec = cfg.resolve_system()
    domain = cfg.resolve_domain()
    _check_system(spec, domain)
    grid = TimeGrid.for_system(spec, m=cfg.m)
    tol = cfg.tolerance_settings()
    out = _out_dir(cfg)

    counts = (cfg.n_train, cfg.n_validation, cfg.n_test)
    seed = RngSeed(cfg.seed_data, "sampling")
    all_params = sample_parameters(domain, sum(counts), seed)

    # every role is solved before any file is written, so a failed run leaves
    # the files of the previous one whole
    solved = []
    for role, params in zip(ROLES, np.split(all_params, np.cumsum(counts)[:-1])):
        t_start = time.perf_counter()
        targets = generate_targets(
            spec, params, grid, tol, on_failure=cfg.on_failure, workers=cfg.workers
        )
        solved.append((role, params, targets, time.perf_counter() - t_start))

    for role, params, targets, elapsed in solved:
        bad = failed_rows(targets)
        params, targets = np.delete(params, bad, axis=0), np.delete(targets, bad, axis=0)
        sample_set = SampleSet(role, params, targets, grid, seed)
        path = _dataset_path(out, role)
        save_dataset(sample_set, path)
        if csv_export:
            export_dataset_csv(sample_set, path.with_suffix(".csv"))
        print(f"{role}: k={sample_set.k} written to {path} ({elapsed:.1f} s, {bad.size} failures)")

    (out / "run_config.json").write_text(json.dumps(cfg.to_dict(), indent=2))


def cmd_train(cfg: RunConfig, data_dir: Optional[str] = None) -> None:
    out = _out_dir(cfg)
    sets = _load_sets(Path(data_dir) if data_dir else out)
    train_set = sets["train"]

    norm = Normalizer.from_training(train_set.params, train_set.targets)
    sizes = [train_set.q] + list(cfg.hidden) + [train_set.grid.m]
    kind = TransferKind(cfg.transfer)
    net = init_weights(sizes, kind, RngSeed(cfg.seed_weights, "weights"))
    tcfg = cfg.train_config()

    if kind is TransferKind.HARDLIM and cfg.hidden:
        print("note: hard-limit hidden layers have zero derivative; hidden weights stay "
              "at their random initialization and only the output layer is trained")

    t_start = time.perf_counter()
    model, record = train(net, norm, train_set, sets["validation"], sets["test"], tcfg)
    elapsed = time.perf_counter() - t_start

    final = {role: loss_mse(model, norm, s.params, s.targets) for role, s in sets.items()}
    metadata = {
        "method": tcfg.method.value,
        "transfer": kind.value,
        "stop_reason": record.stop_reason.value,
        "best_epoch": record.best_epoch,
        "elapsed_epochs": record.elapsed_epochs,
        "final_mse": final,
        "seed_weights": cfg.seed_weights,
        "seed_data": cfg.seed_data,
    }
    save_model(model, norm, out / "model.tjn", metadata)
    write_training_log(record, out / "training_log.csv")
    print(
        f"trained {tcfg.method.value}/{kind.value}: {record.elapsed_epochs} epochs in "
        f"{elapsed:.1f} s, stop {record.stop_reason.value}, best epoch {record.best_epoch}"
    )
    print(
        "final MSE: "
        + ", ".join(f"{role} {final[role]:.4g}" for role in ROLES)
    )


def cmd_evaluate(
    cfg: RunConfig, model_path: Optional[str] = None, data_dir: Optional[str] = None
) -> Dict[str, ErrorReport]:
    out = _out_dir(cfg)
    net, norm, metadata = _load_model(Path(model_path) if model_path else out / "model.tjn")
    sets = _load_sets(Path(data_dir) if data_dir else out)
    check_sets(net, *sets.values())

    label = f"{metadata.get('method', '?')}/{metadata.get('transfer', '?')}"
    # every set is scored before any file is written, so a set that fails to
    # score leaves no partial report
    reports = {role: error_stats(net, norm, sets[role]) for role in ROLES}
    for role, report in reports.items():
        write_report_csv(report, out / f"errors_{role}.csv")
    table = format_error_table({label: reports})
    (out / "report.txt").write_text(table)
    print(table, end="")
    mse_line = ", ".join(f"{role} {reports[role].mse:.4g}" for role in ROLES)
    print(f"MSE: {mse_line}")
    return reports


def _parse_list(flag: str, text: str, kind: type) -> list:
    """A comma-separated flag value as a list of `kind` values."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {text!r} is not a comma-separated list of {kind.__name__}") from exc
    if not all(-np.inf < v < np.inf for v in values):  # also false for nan
        raise ConfigError(f"{flag}: {text!r} holds a value that is not finite")
    return values


def cmd_predict(cfg: RunConfig, params: str, compare: bool = False) -> None:
    out = _out_dir(cfg)
    net, norm, _ = _load_model(out / "model.tjn")
    p = np.array(_parse_list("--params", params, float), dtype=np.float64)

    t_start = time.perf_counter()
    y = forward(net, norm, p)
    t_forward = time.perf_counter() - t_start

    spec = cfg.resolve_system()
    grid = TimeGrid.for_system(spec, m=len(y))
    write_csv(out / "prediction.csv", ["t", "y"], zip(grid.points, y))
    print(f"forward pass: {t_forward * 1e3:.3f} ms, wrote {out / 'prediction.csv'}")
    if not ParameterDomain(norm.in_min, norm.in_max).contains(p):
        print("note: --params lies outside the range of the training inputs; "
              "the prediction extrapolates")

    if compare:
        t_start = time.perf_counter()
        y_ref = solve_trajectory(spec, p, grid, cfg.tolerance_settings())
        t_solve = time.perf_counter() - t_start
        rel = np.max(np.abs(y - y_ref)) / max(1e-300, float(np.max(np.abs(y_ref))))
        print(
            f"integration: {t_solve * 1e3:.1f} ms "
            f"(speedup x{t_solve / max(t_forward, 1e-12):.0f}, max rel deviation {rel:.3g})"
        )


def cmd_plot_data(cfg: RunConfig, indices: str, role: str = "test") -> None:
    out = _out_dir(cfg)
    net, norm, _ = _load_model(out / "model.tjn")
    if role not in ROLES:
        raise ConfigError(f"role must be one of {ROLES}")
    sample_set = _load_set(out, role)
    check_sets(net, sample_set)
    idx_list = _parse_list("--indices", indices, int)
    for idx in idx_list:
        if not 0 <= idx < sample_set.k:
            raise ConfigError(f"--indices: sample index {idx} out of range [0, {sample_set.k})")
    t = sample_set.grid.points
    for idx in idx_list:
        pred = forward(net, norm, sample_set.params[idx])
        path = out / f"sample_{idx}.csv"
        write_csv(path, ["t", "y_true", "y_predicted"], zip(t, sample_set.targets[idx], pred))
        print(f"wrote {path}")


class _Parser(argparse.ArgumentParser):
    """A parse failure is a ConfigError, reported like any other by `main`."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trajsurrogate",
        description="Train and evaluate neural-network surrogates of "
        "parameter-to-trajectory maps defined by DAE/ODE initial value problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration file")
    common.add_argument("--out", help="output directory (overrides config)")
    # seeds, method and transfer are read by generate (into run_config.json) and train only
    fit = argparse.ArgumentParser(add_help=False, parents=[common])
    fit.add_argument("--seed-data", type=int, help="sampling seed (overrides config)")
    fit.add_argument("--seed-weights", type=int, help="weight-init seed (overrides config)")
    fit.add_argument("--method",
                     help=f"training method, one of {[m.value for m in TrainMethod]} (overrides config)")
    fit.add_argument("--transfer",
                     help=f"hidden transfer, one of {[k.value for k in TransferKind]} (overrides config)")

    sp = sub.add_parser("generate", parents=[fit], help="sample parameters and solve target trajectories")
    sp.add_argument("--csv", action="store_true", help="also export datasets as CSV")

    sp = sub.add_parser("train", parents=[fit], help="train a surrogate on generated datasets")
    sp.add_argument("--data", help="directory with train/validation/test .ds files")

    sp = sub.add_parser("evaluate", parents=[common], help="error statistics of a trained model")
    sp.add_argument("--model", help="model file (default <out>/model.tjn)")
    sp.add_argument("--data", help="directory with dataset files")

    sp = sub.add_parser("predict", parents=[common], help="evaluate the surrogate at one parameter vector")
    sp.add_argument("--params", required=True, help="comma-separated parameter values")
    sp.add_argument("--compare", action="store_true",
                    help="also integrate the system and report both timings")

    sp = sub.add_parser("plot-data", parents=[common], help="emit per-sample overlay CSVs for plotting")
    sp.add_argument("--indices", required=True, help="comma-separated sample indices")
    sp.add_argument("--role", default="test", help="which sample set (default test)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    # a flag named after a RunConfig field overrides it
    changes = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)
               if getattr(args, f.name, None) is not None}
    return dataclasses.replace(cfg, **changes)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "generate":
            cmd_generate(cfg, csv_export=args.csv)
        elif args.command == "train":
            cmd_train(cfg, data_dir=args.data)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, model_path=args.model, data_dir=args.data)
        elif args.command == "predict":
            cmd_predict(cfg, params=args.params, compare=args.compare)
        elif args.command == "plot-data":
            cmd_plot_data(cfg, indices=args.indices, role=args.role)
        return 0
    except Exception as exc:  # noqa: BLE001 - single exit point for the CLI
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
