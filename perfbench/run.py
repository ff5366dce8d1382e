"""Benchmark of the trajsurrogate pipeline: one workload, one seed, one result line.

    python3 perfbench/run.py --workload generate|train|surrogate --seed N --seconds S --trace 0|1

Every run sets up the data, then runs the three stages of the pipeline in
order - generate, train, surrogate - and checks each stage's outputs.  The
stage named by the workload repeats in whole rounds for --seconds; the other
two run a fixed number of rounds.  The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
See perfbench/README.md.
"""

import os

# fixed before NumPy loads its BLAS, so that every run uses the same count
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# pipeline method per stage and how many of its calls make one whole round;
# train comes first, as the surrogate stage uses its first model
STEPS = {"train": ("fit", 3), "generate": ("generate", 1), "surrogate": ("surrogate", 1)}
STAGES = tuple(STEPS)
FIXED_ROUNDS = {"generate": 8, "train": 1, "surrogate": 25}
SETUP_REPEATS = 21


def import_program():
    """The checkout's own trajsurrogate, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import trajsurrogate

    if Path(trajsurrogate.__file__).resolve().parent != ROOT / "src" / "trajsurrogate":
        raise ImportError(f"trajsurrogate loaded from {trajsurrogate.__file__}, not from {ROOT / 'src'}")
    return trajsurrogate


def declared_metrics() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


class Stream:
    """Whole rounds of one stage: a fixed number, or as many as fit in `seconds`
    of the stage's own time."""

    def __init__(self, step, per_round: int, rounds: int = 0, seconds=None):
        self.step, self.per_round, self.rounds, self.seconds = step, per_round, rounds, seconds
        self.calls, self.spent = 0, 0.0

    def progress(self) -> float:
        if self.seconds is None:
            return self.calls / (self.rounds * self.per_round)
        return self.spent / max(self.seconds, 1e-9)

    def done(self) -> bool:
        if self.seconds is None:
            return self.calls >= self.rounds * self.per_round
        return self.calls > 0 and self.calls % self.per_round == 0 and self.spent >= self.seconds

    def run_one(self, tracer=None) -> None:
        if tracer is not None and self.calls == 0:
            # the first call untraced, then traced, gives the tracing overhead
            tracer.uninstall()
            plain = self.step(0)
            tracer.install()
            tracer.overhead = self.step(0) / plain - 1.0
            self.spent += plain
        else:
            self.spent += self.step(self.calls)
        self.calls += 1


def run_stages(pipe, workload: str, seconds: float, tracer) -> dict:
    """Interleave the stages' rounds, least progress first, so that each
    stage's samples spread over the whole run and a slow spell of a shared
    host touches few of them.  Returns the wall time of each stage, checks
    included, and of the reference solves."""
    streams, wall = {}, {}
    for stage, (method, per_round) in STEPS.items():
        limit = {"seconds": seconds} if stage == workload else {"rounds": FIXED_ROUNDS[stage]}
        streams[stage] = Stream(getattr(pipe, method), per_round, **limit)
    while pending := [stage for stage, s in streams.items() if not s.done()]:
        stage = min(pending, key=lambda st: streams[st].progress())
        start = perf_counter()
        streams[stage].run_one(tracer if stage == workload else None)
        wall[stage] = wall.get(stage, 0.0) + perf_counter() - start
    start = perf_counter()
    pipe.finish_generate()
    pipe.finish_surrogate()
    wall["reference"] = perf_counter() - start
    return wall


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from pipeline import FITS, Pipeline
    from tracing import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    pipe = Pipeline(seed, work, tracer)
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        for _ in range(SETUP_REPEATS):
            pipe.setup()
        wall = run_stages(pipe, workload, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is not None:
        values = layer_metrics(tracer, [f[0] for f in FITS])
        values["trace.overhead"] = tracer.overhead
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(HERE / "out" / f"trace-{workload}-{seed}.json")
    else:
        values = pipe.end_to_end()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock = pipe.clock
    total = perf_counter() - start
    return {"values": values, "problems": pipe.problems,
            "share": {stage: t / total for stage, t in wall.items()},
            "attempted": pipe.attempted, "failed": pipe.failed,
            "host_scale": {kind: median(clock.scale(op, kind) for op in range(len(clock.samples) - 1))
                           for kind in ("interp", "blas")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=STAGES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    import_program()
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as work:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(work))

    values = result["values"]
    if set(values) != set(declared):
        raise RuntimeError(f"measured metrics {sorted(set(values) ^ set(declared))} "
                           "do not match BENCHMARK.json")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} "
          + " ".join(f"host_scale.{k}={v:.4f}" for k, v in result["host_scale"].items()) + " "
          + " ".join(f"share.{k}={v:.3f}" for k, v in result["share"].items()))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
