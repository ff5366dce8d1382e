#!/usr/bin/env python3
"""Full surrogate experiment on the rectifier circuit.

Generates the train/validation/test datasets once with the generate command,
runs the train and evaluate commands for each (transfer, method) combination
into <out>/<transfer>-<method>/, and writes two summary tables: training
outcomes (epochs, stop reason, final MSEs, read from each model's metadata)
and error statistics (mean and standard deviation of the per-sample relative
errors).

The default setup is the reference experiment: 500 samples per set, m = 200
grid points, hidden layers 400/400, hard-limit and purely linear transfers,
all three training methods.  --quick shrinks everything for a smoke run.
"""

import argparse
import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from trajsurrogate import format_error_table, forward, load_dataset, load_model
from trajsurrogate.cli import RunConfig, cmd_evaluate, cmd_generate, cmd_train
from trajsurrogate.evaluation import total_variation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/experiment", help="output directory")
    parser.add_argument("--k", type=int, default=500, help="samples per set")
    parser.add_argument("--m", type=int, default=200, help="grid points")
    parser.add_argument("--hidden", default="400,400", help="hidden layer widths")
    parser.add_argument("--methods", default="cg,oss,gdx")
    parser.add_argument("--transfers", default="hardlim,purelin")
    parser.add_argument("--max-epochs", type=int, default=10000)
    parser.add_argument("--seed-data", type=int, default=20250819)
    parser.add_argument("--seed-weights", type=int, default=20250819)
    parser.add_argument("--quick", action="store_true", help="tiny smoke-run sizes")
    args = parser.parse_args()

    if args.quick:
        args.k, args.m, args.hidden, args.max_epochs = 30, 50, "32,32", 200

    out = Path(args.out)
    hidden = [int(h) for h in args.hidden.split(",")]

    base = RunConfig(out=str(out), m=args.m, n_train=args.k, n_validation=args.k, n_test=args.k,
                     seed_data=args.seed_data, seed_weights=args.seed_weights, hidden=hidden)
    cmd_generate(base)
    test_params = load_dataset(out / "test.ds").params

    outcome_rows = []
    error_reports = {}
    tv_means = {}
    for transfer in args.transfers.split(","):
        for method in args.methods.split(","):
            label = f"{method}/{transfer}"
            run_dir = out / f"{transfer}-{method}"
            cfg = dataclasses.replace(base, out=str(run_dir), transfer=transfer,
                                      method=method, max_epochs=args.max_epochs)
            t0 = time.perf_counter()
            cmd_train(cfg, data_dir=str(out))
            elapsed = time.perf_counter() - t0
            error_reports[label] = cmd_evaluate(cfg, data_dir=str(out))
            model, norm, meta = load_model(run_dir / "model.tjn")
            preds = forward(model, norm, test_params)
            tv_means[label] = float(np.mean([total_variation(p) for p in preds]))
            finals = meta["final_mse"]
            outcome_rows.append((
                method, transfer, meta["elapsed_epochs"], meta["stop_reason"],
                finals["train"], finals["test"], elapsed,
            ))

    lines = [
        f"{'method':<8}{'transfer':<10}{'epochs':>8}{'stop':>16}{'mse_train':>12}{'mse_test':>12}{'seconds':>9}"
    ]
    for row in outcome_rows:
        lines.append(f"{row[0]:<8}{row[1]:<10}{row[2]:>8}{row[3]:>16}{row[4]:>12.1f}{row[5]:>12.1f}{row[6]:>9.0f}")
    training_table = "\n".join(lines) + "\n"
    (out / "summary_training.txt").write_text(training_table)

    error_table = format_error_table(error_reports)
    tv_lines = "\n".join(f"{label}: mean total variation {tv:.1f}" for label, tv in tv_means.items())
    (out / "summary_errors.txt").write_text(error_table + "\n" + tv_lines + "\n")

    print("\n" + training_table)
    print(error_table)
    print(tv_lines)
    with open(out / "experiment.json", "w") as fh:
        json.dump({"args": vars(args)}, fh, indent=2)


if __name__ == "__main__":
    main()
