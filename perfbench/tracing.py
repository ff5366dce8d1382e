"""In-memory spans around the program's layer boundaries, and the per-layer
metrics derived from them.

The tracer wraps, for the length of a traced run, the public functions the
benchmark calls and the module-level names those functions call through
(for example ``trajsurrogate.training.gradient``, which ``train`` looks up
at each call).  Each wrapped call records a span: name, start, end and the
enclosing span.  The ``rhs`` and ``jac`` callables of a ``SystemSpec`` run
thousands of times per solve, so they are counted and timed into the
enclosing span instead of getting spans of their own.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("idx", "name", "parent", "start", "end", "children", "leaves", "info")

    def __init__(self, idx, name, parent, info):
        self.idx, self.name, self.parent, self.info = idx, name, parent, info
        self.children = []
        self.leaves = {}  # name -> [calls, seconds]
        self.start = perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration less the time covered by child spans and counted leaf calls."""
        return (self.duration - sum(c.duration for c in self.children)
                - sum(t for _, t in self.leaves.values()))

    def descendants(self, name):
        todo = list(self.children)
        while todo:
            span = todo.pop()
            if span.name == name:
                yield span
            todo.extend(span.children)


def _rows(args, _result):
    p = np.asarray(args[2])
    return {"rows": 1 if p.ndim == 1 else p.shape[0]}


def _patch_table():
    """(module, attribute, span name, info from (args, result))."""
    from trajsurrogate import cli, dataset, evaluation, integrator, neuralnet, training

    table = [
        (cli, "main", "cli.main", lambda a, r: {"command": a[0][0]}),
        (cli, "generate_targets", "dataset.generate_targets", None),
        (integrator, "integrate", "integrator.integrate",
         lambda a, r: {"steps": len(r.times) - 1}),
        (integrator, "resample", "integrator.resample", None),
        (cli, "train", "training.train", lambda a, r: {"epochs": r[1].elapsed_epochs}),
        (training, "loss_mse", "neuralnet.loss_mse", None),
        (training, "gradient", "neuralnet.gradient", None),
        (training, "hidden_features", "neuralnet.hidden_features", None),
        (evaluation, "error_stats", "evaluation.error_stats", None),
        (evaluation, "forward", "neuralnet.forward", _rows),
    ]
    # names the benchmark itself calls and the same functions imported into cli
    for module in (dataset, cli):
        table += [(module, "save_dataset", "dataset.save", None),
                  (module, "load_dataset", "dataset.load", lambda a, r: {"rows": r.k})]
    for module in (neuralnet, cli):
        table += [(module, "forward", "neuralnet.forward", _rows),
                  (module, "save_model", "neuralnet.save_model", None),
                  (module, "load_model", "neuralnet.load_model", None)]
    for module in (integrator, dataset):
        table.append((module, "solve_trajectory", "integrator.solve_trajectory", None))
    return table


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self._saved = []
        self.root = self.open("run")

    def open(self, name, **info) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent, info)
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name, **info):
        span = self.open(name, **info)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name, info=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info.update(info(args, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def leaf(self, fn, name):
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self.stack[-1].leaves.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += perf_counter() - start
        return counted

    def wrap_spec(self, spec):
        """The same system with counted rhs and jac callables."""
        return dataclasses.replace(spec, rhs=self.leaf(spec.rhs, "dynsys.rhs"),
                                   jac=self.leaf(spec.jac, "dynsys.jac"))

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        from trajsurrogate import cli

        for module, attr, name, info in _patch_table():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, info))
        make_circuit = cli.circuit_system
        self._saved.append((cli, "circuit_system", make_circuit))
        cli.circuit_system = lambda *a, **k: self.wrap_spec(make_circuit(*a, **k))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def find(self, name):
        return [s for s in self.spans if s.name == name and s.end is not None]

    def write(self, path: Path) -> None:
        doc = [{"name": s.name, "parent": s.parent.idx if s.parent else None,
                "start": s.start, "end": s.end, "info": s.info, "leaves": s.leaves}
               for s in self.spans]
        Path(path).write_text(json.dumps({"spans": doc}))


def _median_or_nan(values):
    values = list(values)
    return median(values) if values else float("nan")


def layer_metrics(tracer: Tracer, fits) -> dict:
    """Per-layer metric values by name, from the finished spans."""
    out = {}
    solves = tracer.find("integrator.integrate")
    steps = np.array([s.info["steps"] for s in solves], dtype=float)
    dur = np.array([s.duration for s in solves])
    calls = {leaf: np.array([s.leaves.get(leaf, (0, 0.0))[0] for s in solves], dtype=float)
             for leaf in ("dynsys.rhs", "dynsys.jac")}
    secs = {leaf: sum(s.leaves.get(leaf, (0, 0.0))[1] for s in solves)
            for leaf in ("dynsys.rhs", "dynsys.jac")}
    out["integrator.integrate_ms"] = float(np.median(dur)) * 1e3
    out["integrator.us_per_step"] = float(np.median(dur / steps)) * 1e6
    out["integrator.steps_per_solve"] = float(np.median(steps))
    out["integrator.rhs_per_step"] = float(calls["dynsys.rhs"].sum() / steps.sum())
    out["integrator.self_share"] = sum(s.self_time() for s in solves) / float(dur.sum())
    out["integrator.resample_ms"] = _median_or_nan(
        s.duration for s in tracer.find("integrator.resample")) * 1e3
    out["dynsys.rhs_calls_per_solve"] = float(np.median(calls["dynsys.rhs"]))
    out["dynsys.jac_calls_per_solve"] = float(np.median(calls["dynsys.jac"]))
    out["dynsys.rhs_us"] = secs["dynsys.rhs"] / calls["dynsys.rhs"].sum() * 1e6
    out["dynsys.jac_us"] = secs["dynsys.jac"] / calls["dynsys.jac"].sum() * 1e6
    out["dynsys.share"] = (secs["dynsys.rhs"] + secs["dynsys.jac"]) / float(dur.sum())

    commands = tracer.find("cli.main")
    gen = [c for c in commands if c.info["command"] == "generate"]
    targets = [sum(t.duration for t in c.descendants("dataset.generate_targets")) for c in gen]
    out["dataset.generate_targets_s"] = _median_or_nan(targets)
    out["cli.generate_overhead_s"] = _median_or_nan(
        c.duration - t for c, t in zip(gen, targets))
    # saves inside generate commands; loads of the reference-size sets (set-up, train)
    out["dataset.save_ms"] = _median_or_nan(
        s.duration for c in gen for s in c.descendants("dataset.save")) * 1e3
    out["dataset.load_ms"] = _median_or_nan(
        s.duration for s in tracer.find("dataset.load") if s.info["rows"] >= 500) * 1e3
    fit_cmds = [c for c in commands if c.info["command"] == "train"]
    out["cli.train_overhead_s"] = _median_or_nan(
        c.duration - sum(t.duration for t in c.descendants("training.train")) for c in fit_cmds)

    for fit in fits:
        per_round = []
        for bench_span in tracer.find("bench.fit"):
            if bench_span.info["fit"] != fit:
                continue
            for run in bench_span.descendants("training.train"):
                loss = [s.duration for s in run.children if s.name == "neuralnet.loss_mse"]
                grad = [s.duration for s in run.children if s.name == "neuralnet.gradient"]
                epochs = run.info["epochs"]
                per_round.append({
                    f"training.{fit}.s": run.duration,
                    f"training.{fit}.epochs": epochs,
                    f"training.{fit}.loss_evals": len(loss),
                    f"training.{fit}.grad_evals": len(grad),
                    f"training.{fit}.loss_evals_per_epoch": len(loss) / max(epochs, 1),
                    f"training.{fit}.loss_share": sum(loss) / run.duration,
                    f"training.{fit}.grad_share": sum(grad) / run.duration,
                    f"training.{fit}.self_share": run.self_time() / run.duration,
                    f"neuralnet.loss_ms.{fit}": np.mean(loss) * 1e3 if loss else 0.0,
                    f"neuralnet.gradient_ms.{fit}": np.mean(grad) * 1e3 if grad else 0.0,
                })
        for key in (per_round[0] if per_round else ()):
            out[key] = float(median(r[key] for r in per_round))

    # the benchmark's own predictions only: forwards inside loss evaluations
    # and error_stats belong to their fits and run on other net shapes
    forwards = [s for s in tracer.find("neuralnet.forward") if s.parent is tracer.root]
    one = np.array([s.duration for s in forwards if s.info["rows"] == 1]) * 1e6
    out["neuralnet.forward_one_us_p50"] = float(np.percentile(one, 50)) if one.size else float("nan")
    out["neuralnet.forward_one_us_p99"] = float(np.percentile(one, 99)) if one.size else float("nan")
    out["neuralnet.forward_batch_ms"] = _median_or_nan(
        s.duration for s in forwards if s.info["rows"] == 500) * 1e3
    out["neuralnet.save_model_ms"] = _median_or_nan(
        s.duration for s in tracer.find("neuralnet.save_model")) * 1e3
    out["neuralnet.load_model_ms"] = _median_or_nan(
        s.duration for s in tracer.find("neuralnet.load_model")) * 1e3
    out["evaluation.error_stats_ms"] = _median_or_nan(
        s.duration for s in tracer.find("evaluation.error_stats")) * 1e3
    return out
