"""The program's pipeline as the benchmark drives it: set-up, then rounds of
the generate, train and surrogate stages, each followed by its checks.

Every stage calls the program through module attributes looked up at call
time, so that a traced run sees the wrapped names.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks
import fixture
from calibration import Clock
from reference import reference_trajectory

GEN_ROWS = {"train": 1, "validation": 1, "test": 1}   # rows per generate command
REFERENCE_ROWS = 5          # first generated rows solved again by the reference
HIDDEN = [400, 400]
WEIGHT_SEED = 20250819      # the program's default weight seed
OSS_CAP = 20                # oss/tansig runs all 10000 epochs without a cap
FITS = (                    # name, method, hidden transfer, epoch cap
    ("cg-purelin", "cg", "purelin", None),
    ("gdx-hardlim", "gdx", "hardlim", None),
    ("oss-tansig", "oss", "tansig", OSS_CAP),
)
SINGLE_CALLS = 200          # one-row forward calls per surrogate round
BATCHES = 10                # 500-row forward calls per surrogate round
BATCH_ROWS = 500
# the calibration kernel that tracks each kind of timed call best
SPEED = {"setup": "interp", "gen": "interp", "solve": "interp",
         "one": "mix", "fit": "blas", "batch": "blas"}


class Pipeline:
    def __init__(self, seed: int, work: Path, tracer=None):
        from trajsurrogate import cli, dataset, dynsys, evaluation, integrator, neuralnet

        self.cli, self.ds, self.dynsys = cli, dataset, dynsys
        self.ev, self.integ, self.nn = evaluation, integrator, neuralnet
        self.seed, self.work, self.tracer = seed, work, tracer
        self.domain = dynsys.default_domain()
        self.problems = []
        self.attempted = self.failed = 0
        self.clock = Clock()
        # raw seconds per kind of call, each with the id of its operation
        self.samples = {k: [] for k in ("setup", "gen", "fit", "one", "batch", "solve")}
        self.gen_rows, self.test_err, self.pred_err = [], {}, []
        self.gen_err_max = float("nan")

    # --- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Write the fixture as .ds files and read them back.

        The seed permutes the rows of each set.  Training and its oracles do not
        depend on row order, so every seed must give the same fits.
        """
        start = perf_counter()
        fx = fixture.load_fixture()
        grid = self.integ.TimeGrid(*fx["span"], fx["train"][1].shape[1])
        rng = np.random.default_rng(self.seed)
        data = self.work / "data"
        data.mkdir(parents=True, exist_ok=True)
        self.arrays, self.sets = {}, {}
        for role in fixture.ROLES:
            params, targets = fx[role]
            order = rng.permutation(params.shape[0])
            self.arrays[role] = (params[order], targets[order])
            sample_set = self.ds.SampleSet(role, *self.arrays[role], grid,
                                           self.ds.RngSeed(fixture.SEED))
            self.ds.save_dataset(sample_set, data / f"{role}.ds")
            self.sets[role] = self.ds.load_dataset(data / f"{role}.ds")
        elapsed = perf_counter() - start
        self.samples["setup"].append((self.clock.tick(), elapsed))
        for role, (params, targets) in self.arrays.items():
            loaded = self.sets[role]
            if loaded.params.tobytes() != params.tobytes() or loaded.targets.tobytes() != targets.tobytes():
                self.problems.append(f"{role}: dataset changed in a save/load round trip")
        self.span = fx["span"]
        self.m = grid.m

    # --- helpers ----------------------------------------------------------------

    def _command(self, argv, config: dict) -> float:
        """One CLI command in-process; returns its wall time."""
        path = self.work / f"{argv[0]}.json"
        path.write_text(json.dumps(config))
        log = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = perf_counter()
            code = self.cli.main([*argv, "--config", str(path)])
            elapsed = perf_counter() - start
        if code != 0:
            self.failed += 1
            self.problems.append(f"{' '.join(argv)} exited with {code}: {log.getvalue().strip()}")
        return elapsed

    def _fit_span(self, fit):
        return self.tracer.span("bench.fit", fit=fit) if self.tracer else contextlib.nullcontext()

    def _spec(self):
        spec = self.dynsys.circuit_system()
        if self.tracer is not None and self.tracer.active:
            spec = self.tracer.wrap_spec(spec)
        return spec

    def _points(self, *shape, stream: int, r: int):
        rng = np.random.default_rng([self.seed, stream, r])
        lo, hi = self.domain.lower, self.domain.upper
        return lo + rng.random((*shape, lo.size)) * (hi - lo)

    # --- generate ---------------------------------------------------------------

    def generate(self, r: int) -> float:
        out = self.work / "gen"
        seed_data = int(np.random.SeedSequence([self.seed, r]).generate_state(1)[0])
        elapsed = self._command(["generate"], {
            "samples": GEN_ROWS, "seed_data": seed_data, "out": str(out)})
        rows = []
        for role in fixture.ROLES:
            s = self.ds.load_dataset(out / f"{role}.ds")
            self.problems += checks.check_generated(
                s.params, s.targets, self.domain.lower, self.domain.upper, self.m)
            rows += list(zip(s.params, s.targets))
        self.gen_rows += rows[:REFERENCE_ROWS - len(self.gen_rows)]
        self.samples["gen"].append((self.clock.tick(), elapsed / len(rows)))
        return elapsed

    def finish_generate(self) -> None:
        refs = [reference_trajectory(p, self.m) for p, _ in self.gen_rows]
        rows = [y for _, y in self.gen_rows]
        self.problems += checks.check_against_reference(rows, refs)
        self.gen_err_max = float(np.max(checks.peak_deviations(rows, refs)))

    # --- train ------------------------------------------------------------------

    def fit_dir(self, fit: str) -> Path:
        return self.work / "fits" / fit

    def fit(self, i: int) -> float:
        """Fit i of the run: FITS[i % 3] in round i // 3, then its checks."""
        fit, method, transfer, cap = FITS[i % len(FITS)]
        training = {"method": method} if cap is None else {"method": method, "max_epochs": cap}
        with self._fit_span(fit):
            elapsed = self._command(["train", "--data", str(self.work / "data")], {
                "network": {"hidden": HIDDEN, "transfer": transfer},
                "training": training,
                "seed_weights": WEIGHT_SEED,
                "out": str(self.fit_dir(fit))})
        net, norm, meta = self.nn.load_model(self.fit_dir(fit) / "model.tjn")
        log = checks.read_training_log(self.fit_dir(fit) / "training_log.csv")
        # the weights the train command starts from
        initial = self.nn.init_weights([self.domain.lower.size, *HIDDEN, self.m],
                                       self.nn.TransferKind(transfer),
                                       self.ds.RngSeed(WEIGHT_SEED, "weights"))
        self.problems += checks.check_fit(
            fit, net, norm, meta["final_mse"]["train"], log, self.arrays, initial)
        report = self.ev.error_stats(net, norm, self.sets["test"])
        self.problems += checks.check_error_report(
            fit, net, norm, report, self.arrays["test"], self.span)
        self.test_err[fit] = report.mean
        self.samples["fit"].append((self.clock.tick(), elapsed))
        return elapsed

    # --- surrogate --------------------------------------------------------------

    def _model(self):
        if not hasattr(self, "model"):
            path = self.fit_dir("cg-purelin") / "model.tjn"
            net, norm, meta = self.nn.load_model(path)
            copy = self.work / "roundtrip.tjn"
            self.nn.save_model(net, norm, copy, meta)
            self.problems += checks.check_round_trip(net, norm, copy, self.nn.load_model)
            self.model = (net, norm)
        return self.model

    def surrogate(self, r: int) -> float:
        net, norm = self._model()
        singles = self._points(SINGLE_CALLS, stream=0, r=r)
        batches = self._points(BATCHES, BATCH_ROWS, stream=1, r=r)
        probe = self._points(stream=2, r=r)
        spec, grid = self._spec(), self.integ.TimeGrid(*self.span, self.m)
        forward = self.nn.forward
        times = {"one": [], "batch": []}
        start = perf_counter()
        outs = []
        for p in singles:
            t = perf_counter()
            outs.append(forward(net, norm, p))
            times["one"].append(perf_counter() - t)
        for b in batches:
            t = perf_counter()
            y = forward(net, norm, b)
            times["batch"].append(perf_counter() - t)
        t = perf_counter()
        traj = self.integ.solve_trajectory(spec, probe, grid)
        times["solve"] = [perf_counter() - t]
        elapsed = perf_counter() - start
        self.attempted += 1

        self.problems += checks.check_forward(net, norm, b, y)
        self.problems += checks.check_forward(net, norm, singles, forward(net, norm, singles), outs)
        if traj.shape != (self.m,) or not np.all(np.isfinite(traj)):
            self.problems.append("solve_trajectory returned a malformed trajectory")
        else:
            pred = forward(net, norm, probe)
            self.pred_err.append(float(checks.l1_errors(pred[None], traj[None], *self.span)[0]))
        op = self.clock.tick()
        for kind, values in times.items():
            self.samples[kind] += [(op, v) for v in values]
        return elapsed

    def finish_surrogate(self) -> None:
        mean_err = float(np.mean(self.pred_err))
        if not mean_err <= checks.MEAN_ERR_MAX:
            self.problems.append(f"surrogate error at the probe solves averages {mean_err:.3g}")

    # --- results ------------------------------------------------------------------

    def seconds(self, kind: str) -> list:
        """The samples of one kind in reference-host seconds (see calibration)."""
        return [self.clock.seconds(op, raw, SPEED[kind]) for op, raw in self.samples[kind]]

    def end_to_end(self) -> dict:
        fits = self.seconds("fit")
        n = len(FITS)
        out = {
            "setup_s": median(self.seconds("setup")),
            "gen_solves_per_s": 1.0 / median(self.seconds("gen")),
            "gen_err_max": self.gen_err_max,
            "train_s": median(sum(fits[i:i + n]) for i in range(0, len(fits) - n + 1, n)),
            "predict_one_us": median(self.seconds("one")) * 1e6,
            "predict_batch_per_s": BATCH_ROWS / median(self.seconds("batch")),
            "solve_one_ms": median(self.seconds("solve")) * 1e3,
        }
        for fit, *_ in FITS:
            out[f"test_err.{fit}"] = self.test_err[fit]
        return out
