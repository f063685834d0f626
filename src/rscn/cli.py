"""Benchmark command line: generate tasks, train, adapt online, compare.

Every run is replayable: one root seed feeds named substreams (task,
init, candidates, noise) and each command can be driven from a JSON run
manifest, with flags taking precedence over manifest values. Exit codes:
0 success, 2 usage, 3 data or schema problem, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .baselines import BaselineConfig
from .build import BuildConfig
from .errors import (
    ContractViolationError,
    CsvParseError,
    MetricUndefinedError,
    NumericOverflowError,
    SchemaError,
)
from .evaluate import (
    emit_report,
    evaluate_model,
    grid_search,
    nrmse,
    run_trials,
    spec_name,
    train_model,
)
from .model import atomic_write_text, load_model, save_model
from .online import MODE_BASIC, MODE_DEAD_ZONE, MODE_DECREASING, OnlineConfig, diagnostics_csv, online_run
from .seeding import substream
from .spectral import esp_check, scale_feedback
from .tasks import (
    GENERATOR_TASKS,
    check_fields,
    from_params,
    load_manifest,
    save_manifest,
    task_from_manifest,
    write_sequence_csv,
)

# Baseline sizes used by the comparison tables, per task.
ESN_SIZES = {"mg": 98, "mg1": 124, "mg2": 135, "plant": 157}
SCR_SIZES = {"mg": 79, "mg1": 103, "mg2": 111, "plant": 136}
RSCN_N_MAX = {"mg": 120, "mg1": 120, "mg2": 140, "plant": 140}
SCR_RING_GRID = (0.25, 0.5, 0.75, 0.9)

ONLINE_MODES = {
    "basic": MODE_BASIC,
    "decreasing": MODE_DECREASING,
    "deadzone": MODE_DEAD_ZONE,
}


def _resolve_task_manifest(task_arg: str, seed: int) -> dict:
    """Build a task manifest from a --task argument."""
    if task_arg in GENERATOR_TASKS:
        return {"task": task_arg, "seed": seed}
    if task_arg.startswith("csv:"):
        path = task_arg[len("csv:"):]
        with open(path, newline="") as fh:
            reader = _csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise SchemaError(f"{path}: empty file") from None
            n_rows = sum(1 for row in reader if any(cell.strip() for cell in row))
        if len(header) < 2:
            raise SchemaError(f"{path}: need at least one input column and a target")
        n_train = int(0.7 * n_rows)
        n_test = n_rows - n_train
        if n_train < 2 or n_test < 2:
            raise SchemaError(f"{path}: too few rows ({n_rows}) to split")
        washout = min(20, max(0, n_train // 10))
        return {
            "task": "csv",
            "seed": seed,
            "washout": washout,
            "csv": {
                "path": path,
                "u_columns": header[:-1],
                "y_column": header[-1],
                "n_train": n_train,
                "n_test": n_test,
            },
        }
    raise SchemaError(f"unknown task {task_arg!r}")


def _model_spec(kind: str, task_name: str, manifest: dict, alpha: float | None):
    """Model config for one of rscn|esn|scr with per-task defaults."""
    params = dict(_section(manifest, "model_params", dict, {}))
    if alpha is not None:
        params["esp_alpha"] = alpha
    if kind == "rscn":
        params.setdefault("n_max", RSCN_N_MAX.get(task_name, 100))
        return from_params(BuildConfig, params, "model_params")
    if kind in ("esn", "scr"):
        sizes, topology = (ESN_SIZES, "esn_random") if kind == "esn" else (SCR_SIZES, "scr_ring")
        params.setdefault("n_nodes", sizes.get(task_name, 100))
        params.setdefault("topology", topology)
        return from_params(BaselineConfig, params, "model_params")
    raise SchemaError(f"unknown model kind {kind!r}")


def _parse_grid(spec: str) -> dict[str, list]:
    """Parse "name=v1,v2;name2=w1,w2" into named value lists."""
    grid: dict[str, list] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise SchemaError(f"grid entry {part!r} is not name=v1,v2,...")
        name, values = part.split("=", 1)
        parsed = []
        for v in values.split(","):
            v = v.strip()
            try:
                parsed.append(int(v))
            except ValueError:
                try:
                    parsed.append(float(v))
                except ValueError:
                    parsed.append(v)
        if not parsed:
            raise SchemaError(f"grid entry {part!r} has no values")
        grid[name.strip()] = parsed
    if not grid:
        raise SchemaError("empty grid specification")
    return grid


def _ensure_out(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _merged(args, manifest: dict, key: str, default, kind=None):
    """Flag > manifest > default, converted by ``kind`` when given."""
    flag = getattr(args, key, None)
    value = flag if flag is not None else manifest.get(key, default)
    try:
        return value if kind is None else kind(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{key!r} must be {kind.__name__}, got {value!r}") from None


def _section(manifest: dict, key: str, kind: type, default):
    """The run manifest's ``key`` entry, refused unless it is a ``kind``."""
    value = manifest.get(key, default)
    if not isinstance(value, kind):
        raise SchemaError(f"{key!r} must be {kind.__name__}, got {value!r}")
    return value


def _load_run_manifest(args) -> dict:
    if getattr(args, "manifest", None):
        doc = load_manifest(args.manifest)
        if not isinstance(doc, dict):
            raise SchemaError(f"{args.manifest}: run manifest must be an object")
        return doc
    return {}


def _effective_task(args, run_manifest: dict, seed: int) -> dict:
    task = _merged(args, run_manifest, "task", None)
    if task is None:
        raise SchemaError("no task given (use --task or a manifest)")
    if isinstance(task, dict):
        return {**task, "seed": task.get("seed", seed)}
    return _resolve_task_manifest(str(task), seed)


def _load_model_file(args, run_manifest: dict, command: str):
    model_file = _merged(args, run_manifest, "model_file", None)
    if model_file is None:
        raise SchemaError(f"{command} needs --model-file")
    return load_model(model_file)


def cmd_gen(args) -> int:
    run_manifest = _load_run_manifest(args)
    seed = _merged(args, run_manifest, "seed", 0, int)
    manifest = _effective_task(args, run_manifest, seed)
    if manifest.get("task") == "csv":
        raise SchemaError("gen produces generator tasks only (mg, mg1, mg2, plant)")
    task = task_from_manifest(manifest)
    out = _ensure_out(args)
    for split_name in ("train", "val", "test"):
        seq = getattr(task, split_name)
        write_sequence_csv(seq, os.path.join(out, f"{task.name}_{split_name}.csv"))
    save_manifest(manifest, os.path.join(out, f"{task.name}_manifest.json"))
    print(f"wrote {task.name} train/val/test CSVs and manifest to {out}")
    return 0


def cmd_train(args) -> int:
    run_manifest = _load_run_manifest(args)
    seed = _merged(args, run_manifest, "seed", 0, int)
    task_manifest = _effective_task(args, run_manifest, seed)
    task = task_from_manifest(task_manifest)
    kind = str(_merged(args, run_manifest, "model", "rscn")).lower()
    spec = _model_spec(kind, task.name, run_manifest, args.alpha)
    if args.grid:
        grid = _parse_grid(args.grid)
        check_fields(type(spec), grid, "--grid")
        best, _ = grid_search(task_manifest, spec, grid, n_trials_per_point=1, seed=seed)
        spec = replace(spec, **best)
        print(f"grid best point: {best}")
    t0 = time.perf_counter()
    model, history = train_model(spec, task, seed)
    elapsed = time.perf_counter() - t0
    out = _ensure_out(args)
    stem = f"{task.name}_{kind}"
    model_path = os.path.join(out, f"{stem}.model.json")
    save_model(model, model_path)
    if history is not None:
        atomic_write_text(os.path.join(out, f"{stem}.history.csv"), history.to_csv())
    train_err = evaluate_model(model, task.train)
    val_err = evaluate_model(model, task.val)
    print(
        f"trained {spec_name(spec)} size={model.n_nodes} "
        f"train_nrmse={train_err:.6f} val_nrmse={val_err:.6f} "
        f"time_s={elapsed:.3f} -> {model_path}"
    )
    return 0


def cmd_eval(args) -> int:
    run_manifest = _load_run_manifest(args)
    seed = _merged(args, run_manifest, "seed", 0, int)
    model = _load_model_file(args, run_manifest, "eval")
    task = task_from_manifest(_effective_task(args, run_manifest, seed))
    split = args.split or "test"
    value = evaluate_model(model, getattr(task, split))
    print(f"task={task.name} split={split} nrmse={value!r}")
    return 0


def cmd_online(args) -> int:
    run_manifest = _load_run_manifest(args)
    seed = _merged(args, run_manifest, "seed", 0, int)
    model = _load_model_file(args, run_manifest, "online")
    task = task_from_manifest(_effective_task(args, run_manifest, seed))
    split = args.split or "test"
    stream = getattr(task, split)
    online_section = _section(run_manifest, "online", dict, {})
    mode_arg = _merged(args, online_section, "mode", "basic")
    mode = ONLINE_MODES.get(str(mode_arg), str(mode_arg))
    cfg = OnlineConfig(
        mode=mode,
        a=_merged(args, online_section, "a", 1.0, float),
        c=_merged(args, online_section, "c", 1.0, float),
        phi=_merged(args, online_section, "phi", 0.0, float),
    )
    w_ref = None
    ref_file = _merged(args, online_section, "ref_model", None)
    if ref_file is not None:
        w_ref = load_model(ref_file).readout
    preds, state = online_run(model, stream, cfg, w_ref=w_ref)
    out = _ensure_out(args)
    path = os.path.join(out, f"online_{task.name}_{split}_{mode}.csv")
    atomic_write_text(path, diagnostics_csv(stream, preds, state))
    w = stream.washout
    targets = stream.targets[:, w:]
    err = nrmse(preds[:, w:], targets)
    # a-priori: each step predicted with the weights before its update
    prior_err = nrmse(targets - state.prior_errors[w:].T, targets)
    print(f"online mode={mode} steps={stream.n_steps} nrmse={err:.6f} "
          f"apriori_nrmse={prior_err:.6f} -> {path}")
    return 0


def cmd_bench(args) -> int:
    run_manifest = _load_run_manifest(args)
    seed = _merged(args, run_manifest, "seed", 0, int)
    trials = _merged(args, run_manifest, "trials", 20, int)
    tasks = args.task_list or _section(run_manifest, "tasks", list, []) or list(GENERATOR_TASKS)
    models = args.model_list or _section(run_manifest, "models", list, []) or ["esn", "scr", "rscn"]
    out = _ensure_out(args)
    for task_arg in tasks:
        task_manifest = (
            {**task_arg, "seed": seed} if isinstance(task_arg, dict)
            else _resolve_task_manifest(str(task_arg), seed)
        )
        # every model's trials share one task per seed; the first names the reports
        shared = {seed: task_from_manifest(task_manifest)}
        task_name = shared[seed].name
        reports = []
        for kind in models:
            spec = _model_spec(str(kind).lower(), task_name, run_manifest, args.alpha)
            if isinstance(spec, BaselineConfig) and spec.topology == "scr_ring":
                best, _ = grid_search(
                    task_manifest, spec, {"ring_weight": list(SCR_RING_GRID)},
                    n_trials_per_point=1, seed=seed,
                )
                spec = replace(spec, **best)
            reports.append(run_trials(task_manifest, spec, trials, base_seed=seed, tasks=shared))
        text = emit_report(reports, "text")
        atomic_write_text(os.path.join(out, f"report_{task_name}.csv"),
                          emit_report(reports, "csv"))
        atomic_write_text(os.path.join(out, f"report_{task_name}.txt"), text)
        print(f"== {task_name} ({trials} trials, seed {seed})")
        print(text, end="")
    return 0


def cmd_esp_check(args) -> int:
    run_manifest = _load_run_manifest(args)
    seed = _merged(args, run_manifest, "seed", 0, int)
    model = _load_model_file(args, run_manifest, "esp-check")
    if args.alpha is not None:
        model = scale_feedback(model, args.alpha)
    report = esp_check(model, rng=substream(seed, "esp"))
    print(
        f"converged={str(report.converged).lower()} "
        f"max_final_gap={report.max_final_gap!r} "
        f"steps_to_tol={report.steps_to_tol} pairs={report.n_pairs} tol={report.tol!r}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscn",
        description="Grown-reservoir benchmark suite: generate tasks, train, "
        "adapt online, and compare against fixed baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_file=False, task=True):
        p.add_argument("--manifest", help="JSON run manifest; flags override it")
        p.add_argument("--seed", type=int, default=None, help="root seed")
        p.add_argument("--out", default=None, help="output directory")
        if task:
            p.add_argument(
                "--task", default=None,
                help="mg|mg1|mg2|plant or csv:PATH (header row, target last)",
            )
        if model_file:
            p.add_argument("--model-file", dest="model_file", default=None,
                           help="serialized model JSON")

    p_gen = sub.add_parser("gen", help="write task CSVs from the generators")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="build a model, write model + history")
    common(p_train)
    p_train.add_argument("--model", default=None, help="rscn|esn|scr")
    p_train.add_argument("--alpha", type=float, default=None,
                         help="feedback contraction level of rscn and esn; "
                         "scr ignores it (its gain is ring_weight)")
    p_train.add_argument("--grid", default=None,
                         help="grid search 'name=v1,v2;name2=...' before training")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a model file on a task split")
    common(p_eval, model_file=True)
    p_eval.add_argument("--split", default=None, choices=["train", "val", "test"])
    p_eval.set_defaults(func=cmd_eval)

    p_online = sub.add_parser("online", help="adapt the readout over a stream")
    common(p_online, model_file=True)
    p_online.add_argument("--split", default=None, choices=["train", "val", "test"])
    p_online.add_argument("--mode", default=None, choices=list(ONLINE_MODES))
    p_online.add_argument("--a", type=float, default=None)
    p_online.add_argument("--c", type=float, default=None)
    p_online.add_argument("--phi", type=float, default=None)
    p_online.add_argument("--ref-model", dest="ref_model", default=None,
                          help="model file whose readout anchors the gap series")
    p_online.set_defaults(func=cmd_online)

    p_bench = sub.add_parser("bench", help="comparison table across models and tasks")
    common(p_bench, task=False)
    p_bench.add_argument("--trials", type=int, default=None)
    p_bench.add_argument("--alpha", type=float, default=None,
                         help="feedback contraction level of rscn and esn; scr "
                         "ignores it (its gain ring_weight is grid-searched)")
    p_bench.add_argument("--tasks", dest="task_list", nargs="+", default=None,
                         help="subset of mg mg1 mg2 plant or csv:PATH")
    p_bench.add_argument("--models", dest="model_list", nargs="+", default=None,
                         help="subset of esn scr rscn")
    p_bench.set_defaults(func=cmd_bench)

    p_esp = sub.add_parser("esp-check", help="two-trajectory convergence report")
    common(p_esp, model_file=True, task=False)
    p_esp.add_argument("--alpha", type=float, default=None,
                       help="contract the feedback to this gain first")
    p_esp.set_defaults(func=cmd_esp_check)
    return parser


def cmd_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        SchemaError,
        CsvParseError,
        ContractViolationError,
        OSError,
        json.JSONDecodeError,
    ) as err:
        print(f"error: kind={type(err).__name__} msg={err}", file=sys.stderr)
        return 3
    except (NumericOverflowError, MetricUndefinedError, np.linalg.LinAlgError) as err:
        print(f"error: kind={type(err).__name__} msg={err}", file=sys.stderr)
        return 4


def main() -> int:
    return cmd_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
