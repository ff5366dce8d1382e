"""The benchmark's own copy of the reference dataset.

The copy is stored in NumPy's ``.npz`` format, not in the program's ``.ds``
container, so that a later change of the container format cannot break it;
set-up writes it out with the program's ``save_dataset``.

    python3 perfbench/fixture.py --check   # regenerate and compare
    python3 perfbench/fixture.py --write   # regenerate and store

Both run the program's ``generate`` command with its defaults (500/500/500
rows, m = 200, reference tolerances) at seed 20250819, with one worker process
per usable core; the program's parallel output matches its serial run bit for
bit.  Generation takes a few minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "data" / "reference_dataset.npz"
OUT = HERE / "out"
SEED = 20250819
ROLES = ("train", "validation", "test")


def load_fixture(path: Path = FIXTURE) -> dict:
    """{role: (params, targets)} plus the grid span, as plain arrays."""
    with np.load(path) as npz:
        sets = {role: (npz[f"{role}_params"], npz[f"{role}_targets"]) for role in ROLES}
        sets["span"] = (float(npz["t0"]), float(npz["tf"]))
    return sets


def _regenerate() -> dict:
    from trajsurrogate import cli, dataset

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({
            "out": str(Path(tmp) / "run"),
            "seed_data": SEED,
            "generation": {"workers": len(os.sched_getaffinity(0))},
        }))
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            code = cli.main(["generate", "--config", str(config)])
        if code != 0:
            raise RuntimeError(f"generate exited with {code}: {log.getvalue()}")
        loaded = {role: dataset.load_dataset(Path(tmp) / "run" / f"{role}.ds") for role in ROLES}
    arrays = {}
    for role, s in loaded.items():
        arrays[f"{role}_params"] = s.params
        arrays[f"{role}_targets"] = s.targets
    arrays["t0"] = np.float64(loaded["train"].grid.t0)
    arrays["tf"] = np.float64(loaded["train"].grid.tf)
    return arrays


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="regenerate and compare bit for bit")
    mode.add_argument("--write", action="store_true", help="regenerate and store the copy")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    fresh = _regenerate()
    if args.write:
        FIXTURE.parent.mkdir(exist_ok=True)
        np.savez(FIXTURE, **fresh)
        print(f"wrote {FIXTURE}")
        return 0
    with np.load(FIXTURE) as stored:
        differ = [key for key in fresh
                  if stored[key].tobytes() != np.asarray(fresh[key]).tobytes()
                  or stored[key].shape != np.shape(fresh[key])]
    if differ:
        print(f"fixture differs from a fresh generate in: {', '.join(differ)}", file=sys.stderr)
        return 1
    print(f"fixture identical to a fresh generate at seed {SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
