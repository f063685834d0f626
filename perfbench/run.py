"""Benchmark of rscn's three real uses, end to end and layer by layer.

    python3 perfbench/run.py --workload grow_mg --seed 0 --seconds 25 --trace 0

Workloads (README.md says why each was chosen):

* ``grow_mg``    - the paired comparison of ``rscn bench`` on mg, mg1 and mg2
* ``grow_plant`` - the same comparison on plant
* ``stream_mg``  - ``rscn esp-check`` and ``rscn online`` (three rules) on a
                   frozen mg model grown in set-up, over a long stream

A workload repeats one round until ``--seconds`` have passed and always
finishes the round under way. With ``--trace 0`` the end-to-end metrics
are measured; with ``--trace 1`` each round runs twice on the same
inputs, once bare and once with every layer traced, and the per-layer
metrics come from the traced copy. End-to-end times are scaled to a
reference machine speed measured through the run (``calibrate.py``).
Every output is checked with ``checks.py``; an operation with a failing
check counts as failed. The last line of stdout is one JSON object with
the result.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: all load comes from this one process, and OpenBLAS's
# default threads made the first mg build slower (2.4 s against 1.7 s).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import rscn  # noqa: E402
from rscn import cli, evaluate, online, seeding, spectral, tasks  # noqa: E402
from rscn import model as rmodel  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
from spans import OP, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

WORKLOADS = ("grow_mg", "grow_plant", "stream_mg")
SETUP_REPEATS = 3
TRIALS = 2  # seeds per model in one comparison, as `rscn bench --trials 2`
GROW_TASKS = {"grow_mg": ("mg", "mg1", "mg2"), "grow_plant": ("plant",)}
STREAM_LENGTH = 10_000  # MGParams.length; the test split becomes 9194 steps
# The stream's model always grows to the 120-node cap: with early stopping
# on, some seeds stop near 90 nodes and the stream's work would depend on
# the seed. n_step = n_max - 1 leaves validation stopping no room.
STREAM_MODEL_MANIFEST = {"model_params": {"n_step": cli.RSCN_N_MAX["mg"] - 1}}
PHI = 0.01
RULES = (("basic", 0.0), ("decreasing_gain", 0.0), ("dead_zone", PHI))
ESP_STEPS = 500  # esp_check's default n_steps


def median(values) -> float:
    return float(statistics.median(values))


class Calibration:
    """Kernel times taken through a run (``calibrate.py``), and the time they took.

    Samples are taken often, between operations and after every RSCN
    build, so that they see the machine at the speed the program saw.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate.sample())
        self.spent += time.perf_counter() - t0


def run_op(tracer: Tracer | None, cal: Calibration, label: int, fn):
    """Run one operation, under a root span when tracing.

    Returns the result and the operation's wall time, less the time the
    calibration kernel took inside it.
    """
    t0, spent = time.perf_counter(), cal.spent
    with tracer.op(label) if tracer is not None else contextlib.nullcontext():
        result = fn()
    return result, time.perf_counter() - t0 - (cal.spent - spent)


class Trained:
    """Every model trained through ``evaluate.train_model``, with its wall time.

    Wraps the one binding ``run_single_trial`` calls, so the benchmark sees
    the model and task behind each trial and can check them.
    """

    def __init__(self):
        self.records: list[tuple] = []
        self.after_build = None  # called after every RSCN build when set
        original = evaluate.train_model

        def train_model(spec, task, seed):
            t0 = time.perf_counter()
            model, history = original(spec, task, seed)
            self.records.append((spec, task, seed, model, history, time.perf_counter() - t0))
            if history is not None and self.after_build is not None:
                self.after_build()
            return model, history

        evaluate.train_model = train_model

    def take(self) -> list[tuple]:
        out, self.records = self.records, []
        return out


class Workload:
    """Set-up, rounds and figures common to the workloads."""

    builds_in_setup = False  # whether the RSCN builds measured are the set-up's

    def __init__(self, seed: int, cal: Calibration):
        self.seed = seed
        self.cal = cal
        self.trained = Trained()
        self.builds: list[dict] = []  # one {"s", "nodes"} per RSCN build measured
        self.setup_problems: list[str] = []

    def check_setup(self) -> None:
        pass

    def build_figures(self) -> tuple[float, float]:
        """Median build wall time and median nodes grown per second."""
        return (median(b["s"] for b in self.builds),
                median(b["nodes"] / b["s"] for b in self.builds))

    def layer_figures(self) -> dict:
        """Per-layer figures the workload measures itself, beyond the spans."""
        return {}

    def record_build(self, history, elapsed: float) -> None:
        # nodes grown, whether or not early stopping rolled them back
        self.builds.append({"s": elapsed, "nodes": len(history.sizes) - 1})


# ---------------------------------------------------------------------------
# grow_mg / grow_plant
# ---------------------------------------------------------------------------


def comparison(variant: str, seed: int, trained: Trained) -> list[tuple]:
    """What ``rscn bench --tasks VARIANT --trials 2 --seed SEED`` computes.

    Returns one ``(kind, report, trained records, trial results)`` entry
    per report: the four SCR grid points, then ESN, SCR and RSCN.
    """
    manifest = cli._resolve_task_manifest(variant, seed)
    entries, reports = [], []
    for kind in ("esn", "scr", "rscn"):
        spec = cli._model_spec(kind, variant, {}, None)
        if kind == "scr":
            best, table = evaluate.grid_search(
                manifest, spec, {"ring_weight": list(cli.SCR_RING_GRID)},
                n_trials_per_point=1, seed=seed,
            )
            grid_models = trained.take()
            for i, (_, report) in enumerate(table):
                entries.append(("scr", report, grid_models[i:i + 1], None))
            spec = replace(spec, **best)
        report, results = evaluate.run_trials(manifest, spec, TRIALS, base_seed=seed,
                                              keep_trials=True)
        entries.append((kind, report, trained.take(), results))
        reports.append(report)
    evaluate.emit_report(reports, "text")
    evaluate.emit_report(reports, "csv")
    return entries


def check_comparison(variant: str, entries: list[tuple]) -> list[str]:
    """Every check on every model of one comparison."""
    problems = []
    for kind, report, records, results in entries:
        problems += checks.check_no_failed_trials(f"{variant} {kind}", report)
        for i, (spec, task, seed, model, history, _) in enumerate(records):
            name = f"{variant} {kind} seed {seed}"
            own = {}
            for split in ("train", "test"):
                seq = getattr(task, split)
                own[split] = checks.tanh_states(model, seq.inputs)
                program = rmodel.run_reservoir(model, seq.inputs).states
                problems += checks.check_states(f"{name} {split}", model, own[split], program)
            problems += checks.check_readout_residual(name, model, own["train"], task.train)
            if results is not None:
                problems += checks.check_nrmse(name, model, own["test"], task.test,
                                               results[i].test_nrmse)
            if kind == "rscn":
                problems += checks.check_monotone(name, history.train_norms)
                problems += checks.check_grown_structure(name, model, spec.esp_alpha)
            elif kind == "esn":
                problems += checks.check_contraction(name, model, spec.esp_alpha)
    return problems


class Grow(Workload):
    def __init__(self, name: str, seed: int, cal: Calibration):
        super().__init__(seed, cal)
        self.variants = GROW_TASKS[name]
        self.first_round_nrmse: list[float] = []

    def setup(self, index: int) -> None:
        """Warm-up: one small RSCN build and one ESN trial on the first task."""
        variant = self.variants[0]
        manifest = cli._resolve_task_manifest(variant, self.seed)
        small = replace(cli._model_spec("rscn", variant, {}, None), n_max=20)
        evaluate.run_single_trial(manifest, small, self.seed)
        evaluate.run_single_trial(manifest, cli._model_spec("esn", variant, {}, None), self.seed)
        self.trained.take()

    def run_round(self, index: int, tracer: Tracer | None, first_op: int):
        # every round draws fresh trial seeds, so a run averages over more data
        seed = self.seed * 1000 + index * TRIALS
        outputs, wall = [], 0.0
        self.trained.after_build = self.cal.sample if tracer is None else None
        for k, variant in enumerate(self.variants):
            entries, op_s = run_op(tracer, self.cal, first_op + k,
                                   lambda: comparison(variant, seed, self.trained))
            outputs.append((variant, entries))
            wall += op_s
            if tracer is None:
                self.cal.sample()
        op_problems = []
        for variant, entries in outputs:
            op_problems.append(check_comparison(variant, entries))
            for kind, _, records, results in entries:
                if kind == "rscn":
                    for (*_, history, elapsed), result in zip(records, results):
                        self.record_build(history, elapsed)
                        if index == 0 and tracer is None:
                            self.first_round_nrmse.append(result.test_nrmse)
        return wall, op_problems

    def layer_figures(self) -> dict:
        return {"evaluate.rscn_test_nrmse": (float(np.mean(self.first_round_nrmse)), "1")}


# ---------------------------------------------------------------------------
# stream_mg
# ---------------------------------------------------------------------------


def same_arrays(a, b) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("input_weights", "feedback", "biases", "readout"))


class Stream(Workload):
    builds_in_setup = True

    def __init__(self, seed: int, cal: Calibration):
        super().__init__(seed, cal)
        self.grown: list[tuple] = []
        self.figures: dict = {}
        self.bare_online_us: list[float] = []
        self.bare_esp_s: list[float] = []

    def setup(self, index: int) -> None:
        """``rscn train --task mg`` on seed ``1000 SEED + index``, and the long stream.

        The stream is the test split of the same series integrated to
        ``STREAM_LENGTH`` steps. Rounds stream on the model of set-up 0;
        the other set-ups grow other seeds' models, so the build figures
        of one run cover three seeds.
        """
        seed = self.seed * 1000 + index
        manifest = cli._resolve_task_manifest("mg", seed)
        task = tasks.task_from_manifest(manifest)
        spec = cli._model_spec("rscn", "mg", STREAM_MODEL_MANIFEST, None)
        model, history = evaluate.train_model(spec, task, seed)
        path = os.path.join(OUT, f"stream_mg_{index}.model.json")
        rmodel.save_model(model, path)
        long = tasks.task_from_manifest({**manifest, "mg_params": {"length": STREAM_LENGTH}})
        (*_, elapsed), = self.trained.take()
        self.record_build(history, elapsed)
        self.grown.append((spec, task, long, model, history, path))

    def check_setup(self) -> None:
        for index, (spec, task, long, model, history, _) in enumerate(self.grown):
            name = f"stream set-up {index}"
            for split in ("train", "val"):
                a, b = getattr(task, split), getattr(long, split)
                if not (np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)):
                    self.setup_problems.append(f"{name}: the long series changes the {split} split")
            own = checks.tanh_states(model, task.train.inputs)
            program = rmodel.run_reservoir(model, task.train.inputs).states
            self.setup_problems += checks.check_states(name, model, own, program)
            self.setup_problems += checks.check_readout_residual(name, model, own, task.train)
            self.setup_problems += checks.check_monotone(name, history.train_norms)
            self.setup_problems += checks.check_grown_structure(name, model, spec.esp_alpha)
        _, _, long, self.model, _, self.path = self.grown[0]
        self.stream = long.test

    def esp(self):
        model = rmodel.load_model(self.path)
        t0 = time.perf_counter()
        report = spectral.esp_check(model, rng=seeding.substream(self.seed * 1000, "esp"))
        return model, report, time.perf_counter() - t0

    def adapt(self, model, mode: str, phi: float):
        preds, state = online.online_run(model, self.stream, online.OnlineConfig(mode=mode, phi=phi))
        return preds, state, online.diagnostics_csv(self.stream, preds, state)

    def run_round(self, index: int, tracer: Tracer | None, first_op: int):
        (model, report, esp_s), wall = run_op(tracer, self.cal, first_op, self.esp)
        runs, online_s = [], 0.0
        for k, (mode, phi) in enumerate(RULES, start=1):
            if tracer is None:
                self.cal.sample()
            out, op_s = run_op(tracer, self.cal, first_op + k, lambda: self.adapt(model, mode, phi))
            runs.append((mode, phi, *out))
            online_s += op_s
        stream, w = self.stream, self.stream.washout
        if tracer is None:
            self.cal.sample()
            self.bare_online_us.append(online_s / (len(RULES) * stream.n_steps) * 1e6)
            self.bare_esp_s.append(esp_s)

        esp_problems = checks.check_esp("esp_check", report, ESP_STEPS)
        if not same_arrays(model, self.model):
            esp_problems.append("load_model: the loaded model differs from the saved one")
        own = checks.tanh_states(model, stream.inputs)
        program = rmodel.run_reservoir(model, stream.inputs).states
        state_problems = checks.check_states("stream", model, own, program)
        features = np.vstack([own, stream.inputs]).T
        targets = stream.targets.T
        op_problems = [esp_problems]
        fig = {"evaluate.frozen_nrmse": checks.nrmse((model.readout @ features.T)[:, w:],
                                                      stream.targets[:, w:])}
        for mode, phi, preds, state, text in runs:
            priors = np.array([d.prior_error for d in state.diagnostics])
            etas = np.array([d.eta for d in state.diagnostics])
            problems = state_problems + checks.check_online(
                mode, mode, model.readout, features, targets, phi, state.readout, priors)
            if mode == "dead_zone":
                problems += checks.check_deadzone_gate(mode, priors, etas, phi)
                fig["online.deadzone.update_ratio"] = float(np.mean(etas > 0.0))
            if text.count("\n") != stream.n_steps + 1:
                problems.append(f"{mode}: diagnostics_csv does not have one line per step")
            op_problems.append(problems)
            fig[f"online.{mode}.apriori_nrmse"] = checks.nrmse((targets - priors).T[:, w:],
                                                               stream.targets[:, w:])
            fig[f"online.{mode}.aposteriori_nrmse"] = checks.nrmse(preds[:, w:],
                                                                   stream.targets[:, w:])
        fig["online.apriori_nrmse"] = float(np.mean(
            [fig[f"online.{m}.apriori_nrmse"] for m, _ in RULES]))
        self.figures = fig
        return wall + online_s, op_problems

    def layer_figures(self) -> dict:
        figures = {k: (v, "1") for k, v in self.figures.items()}
        figures["online.step_us"] = (median(self.bare_online_us), "us")
        figures["spectral.esp_check.untraced_s"] = (median(self.bare_esp_s), "s")
        return figures


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------

COUNTED = (
    "tasks.task_from_manifest", "build.build_rscn", "build.configure_node",
    "build.solve_output_weights", "model.ReservoirModel", "model.run_reservoir",
    "spectral.scale_feedback", "baselines.build_baseline", "evaluate.evaluate_model",
    "online.project_step", "online.project_step_decreasing", "online.project_step_deadzone",
)
TIMED = COUNTED + (
    "model.load_model", "spectral.esp_check", "evaluate.run_trials", "evaluate.grid_search",
    "online.online_run", "online.diagnostics_csv",
)
FIGURES = (
    ("evaluate.rscn_test_nrmse", "1"), ("evaluate.frozen_nrmse", "1"),
    ("online.apriori_nrmse", "1"), ("online.deadzone.update_ratio", "1"),
    ("online.step_us", "us"), ("spectral.esp_check.untraced_s", "s"),
) + tuple((f"online.{m}.{k}_nrmse", "1") for m, _ in RULES for k in ("apriori", "aposteriori"))


def per_layer(tracer: Tracer, n_rounds: int, overheads: list[float], work: Workload) -> dict:
    """Per-round layer figures of the traced rounds; 0 for a layer not exercised."""
    self_s, calls = tracer.self_times()
    ops_s = sum(t1 - t0 for name, _, _, t0, t1 in tracer.spans if name == OP)
    layers_s = sum(v for k, v in self_s.items() if k != OP)
    if abs(ops_s - self_s[OP] - layers_s) > 1e-6 * max(1.0, ops_s):
        raise RuntimeError("span self times do not add up to the traced operations")
    per = 1.0 / n_rounds
    c = tracer.counters
    pools = calls["build.configure_node"]
    m = {f"{name}.calls": (calls[name] * per, "count") for name in COUNTED}
    m.update({f"{name}.s": (self_s[name] * per, "s") for name in TIMED})
    m["build.accept_ratio"] = (c["build.configure_node.accepted"] / pools if pools else 0.0, "1")
    m["model.run_reservoir.node_steps"] = (c["model.run_reservoir.node_steps"] * per, "count")
    m["online.diagnostics_csv.bytes"] = (c["online.diagnostics_csv.bytes"] * per, "B")
    m["trace.ops_s"] = (ops_s * per, "s")
    m["trace.outside_s"] = (self_s[OP] * per, "s")
    m["trace.layers_self_s"] = (layers_s * per, "s")
    m["trace.overhead_s"] = (median(overheads), "s")
    m["trace.spans"] = (len(tracer.spans) * per, "count")
    figures = work.layer_figures()
    m.update({name: figures.get(name, (0.0, unit)) for name, unit in FIGURES})
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(rscn.__file__).startswith(src):
        raise SystemExit(f"rscn was imported from {rscn.__file__}, not from {src}")
    os.makedirs(OUT, exist_ok=True)

    calibrate.sample()  # the first call pays one-off costs
    cal = Calibration()
    work = (Stream(args.seed, cal) if args.workload == "stream_mg"
            else Grow(args.workload, args.seed, cal))
    setups = []
    for index in range(SETUP_REPEATS):
        cal.sample()
        t0 = time.perf_counter()
        work.setup(index)
        setups.append(time.perf_counter() - t0)
    cal.sample()
    setup_kernel_s = median(cal.samples)
    n_setup_samples = len(cal.samples)
    work.check_setup()

    tracer = Tracer() if args.trace else None
    round_s, overheads, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < args.seconds:
        index = len(round_s)
        wall, op_problems = work.run_round(index, None, attempted)
        round_s.append(wall)
        if tracer is not None:
            traced_wall, traced_problems = work.run_round(
                index, tracer, attempted + len(op_problems))
            overheads.append(traced_wall - wall)
            op_problems += traced_problems
        attempted += len(op_problems)
        failed += sum(bool(problems) for problems in op_problems)
        for problem in sum(op_problems, []):
            print(f"check failed: {problem}", file=sys.stderr)
    for problem in work.setup_problems:
        print(f"set-up check failed: {problem}", file=sys.stderr)

    round_kernel_s = median(cal.samples[n_setup_samples:])
    if tracer is None:
        # times are scaled to the reference machine speed of the phase they
        # were taken in (see calibrate.py)
        setup_scale = calibrate.REFERENCE_S / setup_kernel_s
        round_scale = calibrate.REFERENCE_S / round_kernel_s
        build_scale = setup_scale if work.builds_in_setup else round_scale
        build_s, nodes_per_s = work.build_figures()
        setup_s = IMPORT_S + median(setups)
        print(f"unscaled: setup_s={setup_s:.6g} round_s={median(round_s):.6g} "
              f"build_s={build_s:.6g} nodes_per_s={nodes_per_s:.6g} "
              f"setup_kernel_s={setup_kernel_s:.6g} round_kernel_s={round_kernel_s:.6g}",
              file=sys.stderr)
        metrics = {
            "setup_s": (setup_s * setup_scale, "s"),
            "round_s": (median(round_s) * round_scale, "s"),
            "build_s": (build_s * build_scale, "s"),
            "nodes_per_s": (nodes_per_s / build_scale, "nodes/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = per_layer(tracer, len(round_s), overheads, work)
        metrics["calibration.kernel_s"] = (round_kernel_s, "s")
        tracer.write(os.path.join(OUT, f"trace_{args.workload}.jsonl"))
    print(json.dumps({
        "correct": not work.setup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
