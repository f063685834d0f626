#!/usr/bin/env python3
"""Weight-convergence curves of the projection updates.

Trains a reservoir offline, restarts its readout from zero, then streams
the validation-plus-test data through each online rule while logging the
Frobenius gap to the offline least-squares weights. The exported CSVs
are plot-ready (step vs gap).

    python scripts/online_convergence.py --task mg1 --out results/
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rscn.build import BuildConfig, build_rscn  # noqa: E402
from rscn.cli import RSCN_N_MAX  # noqa: E402
from rscn.model import atomic_write_text, csv_text  # noqa: E402
from rscn.online import OnlineConfig, online_run  # noqa: E402
from rscn.tasks import SupervisedSequence, task_from_manifest  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", default="mg1", choices=["mg", "mg1", "mg2", "plant"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    task = task_from_manifest({"task": args.task, "seed": args.seed})
    cfg = BuildConfig(n_max=RSCN_N_MAX[args.task], seed=args.seed)
    model, _ = build_rscn(task.train, task.val, cfg)
    stream = SupervisedSequence(
        np.hstack([task.val.inputs, task.test.inputs]),
        np.hstack([task.val.targets, task.test.targets]),
        washout=task.val.washout,
    )
    # reference: ridge-stabilised offline readout. The plain least-squares
    # weights carry huge components along feature directions the stream
    # barely excites, so a distance to them never shrinks; the ridge
    # solution is the part the projection updates can actually identify.
    from rscn.build import solve_output_weights
    from rscn.model import run_reservoir

    seq = run_reservoir(model, task.train.inputs)
    w = task.train.washout
    w_ref = solve_output_weights(
        seq.extended[:, w:], task.train.targets[:, w:], ridge=1.0
    )
    cold = model.with_readout(np.zeros_like(model.readout))

    os.makedirs(args.out, exist_ok=True)
    runs = {
        "basic": OnlineConfig(mode="basic", a=1.0, c=1.0),
        "decreasing": OnlineConfig(mode="decreasing_gain"),
        "deadzone": OnlineConfig(mode="dead_zone", phi=0.01),
    }
    for label, online_cfg in runs.items():
        _, state = online_run(cold, stream, online_cfg, w_ref=w_ref)
        gaps = state.weight_gap_series()
        path = os.path.join(args.out, f"gap_{args.task}_{label}.csv")
        atomic_write_text(path, csv_text(["step", "weight_gap"], [range(1, gaps.size + 1), gaps]))
        print(
            f"{label:10s} gap {gaps[0]:.4f} -> {gaps[-1]:.4f} "
            f"({len(gaps)} steps) -> {path}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
