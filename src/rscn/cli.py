"""Benchmark command line: generate tasks, train, adapt online, compare.

Every run is replayable: one root seed feeds named substreams (task,
init, candidates, noise) and each command can be driven from a JSON run
manifest, with flags taking precedence over manifest values. Exit codes:
0 success, 2 usage, 3 data or schema problem, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import get_type_hints

import numpy as np

from .baselines import TOPOLOGY_ESN, TOPOLOGY_SCR, BaselineConfig
from .build import BuildConfig
from .errors import MetricUndefinedError, NumericOverflowError, RscnError, SchemaError
from .evaluate import (
    emit_report,
    evaluate_model,
    grid_search,
    nrmse,
    run_trials,
    spec_name,
    train_model,
)
from .model import atomic_write_text, load_model, refuse_unknown, save_model
from .online import MODE_BASIC, MODE_DEAD_ZONE, MODE_DECREASING, OnlineConfig, diagnostics_csv, online_run
from .seeding import substream
from .spectral import esp_check, scale_feedback
from .tasks import (
    GENERATOR_TASKS,
    _conforms,
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
SPLITS = ("train", "val", "test")

ONLINE_MODES = {
    "basic": MODE_BASIC,
    "decreasing": MODE_DECREASING,
    "deadzone": MODE_DEAD_ZONE,
}
# Every key some command reads from a run manifest, and from its online
# section; --alpha, --grid and --out are flags only.
RUN_KEYS = ("seed", "task", "model", "model_params", "split", "model_file", "online",
            "trials", "tasks", "models")
ONLINE_FIELDS = get_type_hints(OnlineConfig)
ONLINE_KEYS = (*ONLINE_FIELDS, "ref_model")


def _resolve_task_manifest(task_arg: str | dict, seed: int) -> dict:
    """The task manifest of a --task argument, or of a task object, which
    keeps its own seed if it names one."""
    if isinstance(task_arg, dict):
        return {"seed": seed, **task_arg}
    if task_arg in GENERATOR_TASKS:
        return {"task": task_arg, "seed": seed}
    if isinstance(task_arg, str) and task_arg.startswith("csv:"):
        return {"task": "csv", "seed": seed, "csv": {"path": task_arg[len("csv:"):]}}
    raise SchemaError(f"unknown task {task_arg!r}")


def _refuse_seed(names, source: str) -> None:
    """Every trial takes its model's seed from the root seed, so a spec may not name one."""
    if "seed" in names:
        raise SchemaError(f"{source} may not set seed; give the root seed with --seed")


def _model_spec(kind: str, task_name: str, manifest: dict, alpha: float | None):
    """Model config for one of rscn|esn|scr, sized from its per-task table;
    a task the table does not name takes the config's own size."""
    params = _merged(None, manifest, "model_params", {}, dict)
    _refuse_seed(params, "model_params")
    if alpha is not None:
        params["esp_alpha"] = alpha
    if kind == "rscn":
        cls, size, sizes = BuildConfig, "n_max", RSCN_N_MAX
    elif kind in ("esn", "scr"):
        cls, size, sizes = BaselineConfig, "n_nodes", ESN_SIZES if kind == "esn" else SCR_SIZES
        params.setdefault("topology", TOPOLOGY_ESN if kind == "esn" else TOPOLOGY_SCR)
    else:
        raise SchemaError(f"unknown model kind {kind!r}")
    if task_name in sizes:
        params.setdefault(size, sizes[task_name])
    return from_params(cls, params, "model_params")


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
        grid[name.strip()] = parsed
    if not grid:
        raise SchemaError("empty grid specification")
    return grid


def _ensure_out(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _merged(args, manifest: dict, key: str, default, kind=None):
    """Flag > manifest > ``default``, which is returned as it is. Given
    ``kind``, a given value (an explicit null too) must conform to it as a
    config field's value must (``tasks._conforms``), and is converted."""
    value = getattr(args, key, None)
    if value is None:
        if key not in manifest:
            return default
        value = manifest[key]
    if kind is not None and not _conforms(value, kind):
        raise SchemaError(f"{key!r} must be {kind.__name__}, got {value!r}")
    return value if kind is None else kind(value)


def _effective_task(args, run_manifest: dict, seed: int) -> dict:
    task = _merged(args, run_manifest, "task", None)
    if task is None:
        raise SchemaError("no task given (use --task or a manifest)")
    return _resolve_task_manifest(task, seed)


def _split(args, run_manifest: dict) -> str:
    split = _merged(args, run_manifest, "split", "test")
    if split not in SPLITS:
        raise SchemaError(f"'split' must be one of {', '.join(SPLITS)}, got {split!r}")
    return split


def _load_model_file(args, run_manifest: dict, command: str):
    model_file = _merged(args, run_manifest, "model_file", None, str)
    if model_file is None:
        raise SchemaError(f"{command} needs --model-file")
    return load_model(model_file)


def cmd_gen(args, run_manifest: dict, seed: int) -> int:
    manifest = _effective_task(args, run_manifest, seed)
    if manifest.get("task") == "csv":
        raise SchemaError(f"gen produces generator tasks only ({', '.join(GENERATOR_TASKS)})")
    task = task_from_manifest(manifest)
    out = _ensure_out(args)
    for split_name in SPLITS:
        seq = getattr(task, split_name)
        write_sequence_csv(seq, os.path.join(out, f"{task.name}_{split_name}.csv"))
    save_manifest(manifest, os.path.join(out, f"{task.name}_manifest.json"))
    print(f"wrote {task.name} train/val/test CSVs and manifest to {out}")
    return 0


def cmd_train(args, run_manifest: dict, seed: int) -> int:
    task_manifest = _effective_task(args, run_manifest, seed)
    task = task_from_manifest(task_manifest)
    kind = _merged(args, run_manifest, "model", "rscn", str).lower()
    spec = _model_spec(kind, task.name, run_manifest, args.alpha)
    if args.grid:
        grid = _parse_grid(args.grid)
        _refuse_seed(grid, "--grid")
        for name, values in grid.items():  # refuse a mistyped value before any trial
            for value in values:
                from_params(type(spec), {**vars(spec), name: value}, "--grid")
        best, _ = grid_search(task_manifest, spec, grid, seed=seed, tasks={seed: task})
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
    stop = "" if history is None else f" stop={history.stop}"
    train_err = evaluate_model(model, task.train)
    val_err = evaluate_model(model, task.val)
    print(
        f"trained {spec_name(spec)} size={model.n_nodes}{stop} "
        f"train_nrmse={train_err:.6f} val_nrmse={val_err:.6f} "
        f"time_s={elapsed:.3f} -> {model_path}"
    )
    return 0


def cmd_eval(args, run_manifest: dict, seed: int) -> int:
    model = _load_model_file(args, run_manifest, "eval")
    split = _split(args, run_manifest)
    task = task_from_manifest(_effective_task(args, run_manifest, seed))
    value = evaluate_model(model, getattr(task, split))
    print(f"task={task.name} split={split} nrmse={value!r}")
    return 0


def cmd_online(args, run_manifest: dict, seed: int) -> int:
    online_section = _merged(None, run_manifest, "online", {}, dict)
    refuse_unknown(online_section, ONLINE_KEYS, "online section")
    given = {}  # what a flag or the section sets; OnlineConfig holds every default
    for key, kind in ONLINE_FIELDS.items():
        value = _merged(args, online_section, key, None, kind)
        if value is not None:
            given[key] = ONLINE_MODES.get(value, value) if key == "mode" else value
    cfg = OnlineConfig(**given)
    model = _load_model_file(args, run_manifest, "online")
    split = _split(args, run_manifest)
    task = task_from_manifest(_effective_task(args, run_manifest, seed))
    stream = getattr(task, split)
    w_ref = None
    ref_file = _merged(args, online_section, "ref_model", None, str)
    if ref_file is not None:
        w_ref = load_model(ref_file).readout
    preds, state = online_run(model, stream, cfg, w_ref=w_ref)
    out = _ensure_out(args)
    path = os.path.join(out, f"online_{task.name}_{split}_{cfg.mode}.csv")
    atomic_write_text(path, diagnostics_csv(stream, preds, state))
    w = stream.washout
    targets = stream.targets[:, w:]
    err = nrmse(preds[:, w:], targets)
    # a-priori: each step predicted with the weights before its update
    prior_err = nrmse(targets - state.prior_errors[w:].T, targets)
    print(f"online mode={cfg.mode} steps={stream.n_steps} nrmse={err:.6f} "
          f"apriori_nrmse={prior_err:.6f} -> {path}")
    return 0


def cmd_bench(args, run_manifest: dict, seed: int) -> int:
    trials = _merged(args, run_manifest, "trials", 20, int)
    if trials < 1:
        raise SchemaError(f"'trials' must be at least 1, got {trials}")
    tasks = _merged(args, run_manifest, "tasks", GENERATOR_TASKS, list)
    models = _merged(args, run_manifest, "models", ("esn", "scr", "rscn"), list)
    for key, entries in (("tasks", tasks), ("models", models)):
        if not entries:
            raise SchemaError(f"{key!r} must not be empty")
    plans = []  # every task and model spec, resolved before the first trial
    for task_arg in tasks:
        if isinstance(task_arg, dict):
            _refuse_seed(task_arg, "a bench task")
        task_manifest = _resolve_task_manifest(task_arg, seed)
        task = task_from_manifest(task_manifest)  # the root seed's task names the reports
        specs = [_model_spec(str(kind).lower(), task.name, run_manifest, args.alpha)
                 for kind in models]
        plans.append((task_manifest, task, specs))
    for task_manifest, task, specs in plans:
        shared, reports, trial_lists = {seed: task}, [], []  # one task per seed for all models
        for spec in specs:
            if isinstance(spec, BaselineConfig) and spec.topology == TOPOLOGY_SCR:
                best, _ = grid_search(
                    task_manifest, spec, {"ring_weight": list(SCR_RING_GRID)},
                    seed=seed, tasks=shared,
                )
                spec = replace(spec, **best)
            report, results = run_trials(task_manifest, spec, trials, base_seed=seed,
                                         keep_trials=True, tasks=shared)
            reports.append(report)
            trial_lists.append(results)
        text = emit_report(reports, "text", trial_lists)
        out = _ensure_out(args)  # made only once there is a report to write
        atomic_write_text(os.path.join(out, f"report_{task.name}.csv"),
                          emit_report(reports, "csv", trial_lists))
        atomic_write_text(os.path.join(out, f"report_{task.name}.txt"), text)
        print(f"== {task.name} ({trials} trials, seed {seed})")
        print(text, end="")
    return 0


def cmd_esp_check(args, run_manifest: dict, seed: int) -> int:
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
                help=f"{'|'.join(GENERATOR_TASKS)} or csv:PATH (header row, target last)",
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
    p_eval.add_argument("--split", default=None, choices=SPLITS)
    p_eval.set_defaults(func=cmd_eval)

    p_online = sub.add_parser("online", help="adapt the readout over a stream")
    common(p_online, model_file=True)
    p_online.add_argument("--split", default=None, choices=SPLITS)
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
    p_bench.add_argument("--tasks", nargs="+", default=None,
                         help=f"subset of {' '.join(GENERATOR_TASKS)} or csv:PATH")
    p_bench.add_argument("--models", nargs="+", default=None,
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
        run_manifest = load_manifest(args.manifest) if args.manifest else {}
        refuse_unknown(run_manifest, RUN_KEYS, f"run manifest {args.manifest}")
        return args.func(args, run_manifest, _merged(args, run_manifest, "seed", 0, int))
    except (RscnError, OSError, json.JSONDecodeError, np.linalg.LinAlgError) as err:
        print(f"error: kind={type(err).__name__} msg={err}", file=sys.stderr)
        numeric = (NumericOverflowError, MetricUndefinedError, np.linalg.LinAlgError)
        return 4 if isinstance(err, numeric) else 3


def main() -> int:
    return cmd_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
