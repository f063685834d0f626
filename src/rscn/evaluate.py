"""Benchmark metric, multi-trial experiments, grid search, report tables."""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .baselines import BaselineConfig, build_baseline
from .build import BuildConfig, build_rscn
from .errors import ContractViolationError, MetricUndefinedError
from .model import ReservoirModel, csv_text, readout, run_reservoir
from .tasks import SupervisedSequence, TaskData, task_from_manifest


def nrmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Root mean square error normalised by the target variance.

    0 is perfect; predicting the target mean scores exactly 1 (the
    variance is the population form, which makes that identity exact).
    """
    y = np.atleast_2d(np.asarray(predictions, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    if y.shape != t.shape:
        raise ContractViolationError(f"shape mismatch {y.shape} vs {t.shape}")
    n = t.shape[1]
    if n < 2:
        raise ContractViolationError("at least two steps are required")
    var = float(np.var(t))
    if var == 0.0:
        raise MetricUndefinedError("target variance is zero")
    return float(np.sqrt(np.sum((y - t) ** 2) / (n * var)))


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float

    def __format__(self, spec: str) -> str:
        spec = spec or ".4f"
        return f"{self.mean:{spec}}±{self.std:{spec}}"

    @staticmethod
    def of(values: Sequence[float]) -> "MeanStd":
        """Mean and population standard deviation of ``values``."""
        return MeanStd(float(np.mean(values)), float(np.std(values)))


class TrialFailure(NamedTuple):
    """A trial that raised: its seed, the error's type name and message."""

    seed: int
    kind: str
    message: str


@dataclass(frozen=True)
class TrialReport:
    """Mean and spread of one model's trials on one task.

    The statistics cover the ``n_trials`` trials that succeeded;
    ``failures`` records the others in seed order.
    """

    model_name: str
    reservoir_size: float
    train_time_s: MeanStd
    train_nrmse: MeanStd
    test_nrmse: MeanStd
    val_nrmse: MeanStd
    n_trials: int
    failures: tuple[TrialFailure, ...] = ()

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def spec_name(spec) -> str:
    if isinstance(spec, BuildConfig):
        return "RSCN"
    return {"esn_random": "ESN", "scr_ring": "SCR"}[spec.topology]


def train_model(spec, task: TaskData, seed: int):
    """Train one model per its config; returns (model, history-or-None)."""
    spec = replace(spec, seed=seed)
    if isinstance(spec, BuildConfig):
        return build_rscn(task.train, task.val, spec)
    if isinstance(spec, BaselineConfig):
        return build_baseline(spec, task.train), None
    raise ContractViolationError(f"unknown model spec {type(spec).__name__}")


def evaluate_model(model: ReservoirModel, seq: SupervisedSequence) -> float:
    """Post-washout prediction error of a frozen model on one split."""
    states = run_reservoir(model, seq.inputs)
    preds = readout(model, states)
    w = seq.washout
    return nrmse(preds[:, w:], seq.targets[:, w:])


@dataclass(frozen=True)
class TrialResult:
    seed: int
    size: int
    train_time_s: float
    train_nrmse: float
    val_nrmse: float
    test_nrmse: float


def run_single_trial(
    task_manifest: Mapping, spec, seed: int, task: TaskData | None = None
) -> TrialResult:
    """Train and score one model; ``task`` is the manifest's task at ``seed`` if given."""
    if task is None:
        task = task_from_manifest({**task_manifest, "seed": seed})
    t0 = time.perf_counter()
    model, _ = train_model(spec, task, seed)
    elapsed = time.perf_counter() - t0
    return TrialResult(
        seed=seed,
        size=model.n_nodes,
        train_time_s=elapsed,
        train_nrmse=evaluate_model(model, task.train),
        val_nrmse=evaluate_model(model, task.val),
        test_nrmse=evaluate_model(model, task.test),
    )


def run_trials(
    task_manifest: Mapping,
    spec,
    n_trials: int,
    base_seed: int = 0,
    keep_trials: bool = False,
    tasks: dict[int, TaskData] | None = None,
) -> TrialReport | tuple[TrialReport, list[TrialResult]]:
    """Repeat train-and-score ``n_trials`` times with seeds ``base_seed + i``.

    Each trial generates the task and the model from its own seed, so
    trial ``i`` is paired across model specs; a seed's task is taken from
    ``tasks`` or generated and added there. A failed trial is excluded
    with a warning and recorded in the report's ``failures``.
    """
    if n_trials < 1:
        raise ContractViolationError("n_trials must be at least 1")
    tasks = {} if tasks is None else tasks
    results: list[TrialResult] = []
    failures: list[TrialFailure] = []
    for i in range(n_trials):
        seed = base_seed + i
        try:
            if seed not in tasks:
                tasks[seed] = task_from_manifest({**task_manifest, "seed": seed})
            results.append(run_single_trial(task_manifest, spec, seed, tasks[seed]))
        except Exception as err:  # noqa: BLE001 - a failed trial is data
            failures.append(TrialFailure(seed, type(err).__name__, str(err)))
            warnings.warn(f"trial with seed {seed} failed: {err}")
    if not results:
        raise ContractViolationError(f"every trial failed, first {failures[0]}")
    report = TrialReport(
        model_name=spec_name(spec),
        reservoir_size=float(np.mean([r.size for r in results])),
        train_time_s=MeanStd.of([r.train_time_s for r in results]),
        train_nrmse=MeanStd.of([r.train_nrmse for r in results]),
        test_nrmse=MeanStd.of([r.test_nrmse for r in results]),
        val_nrmse=MeanStd.of([r.val_nrmse for r in results]),
        n_trials=len(results),
        failures=tuple(failures),
    )
    if keep_trials:
        return report, results
    return report


def grid_search(
    task_manifest: Mapping,
    spec,
    grid: Mapping[str, Sequence],
    n_trials_per_point: int = 1,
    seed: int = 0,
    tasks: dict[int, TaskData] | None = None,
) -> tuple[dict, list[tuple[dict, TrialReport]]]:
    """Exhaustive search over a named-value grid, scored on validation.

    Returns the point with the lowest mean validation error (first in
    iteration order on ties) and the full (point, report) table. The
    points share one task per seed, taken from ``tasks`` or generated
    and added there.
    """
    if not grid:
        raise ContractViolationError("grid must not be empty")
    names = list(grid.keys())
    table: list[tuple[dict, TrialReport]] = []
    best_point, best_val = None, np.inf
    tasks = {} if tasks is None else tasks
    for combo in itertools.product(*(grid[k] for k in names)):
        point = dict(zip(names, combo))
        report = run_trials(
            task_manifest, replace(spec, **point), n_trials_per_point, seed, tasks=tasks
        )
        table.append((point, report))
        if report.val_nrmse.mean < best_val:
            best_val = report.val_nrmse.mean
            best_point = point
    return best_point, table


REPORT_COLUMNS = ("Models", "N", "Training time", "Training NRMSE", "Testing NRMSE")


def emit_report(reports: Sequence[TrialReport], fmt: str = "text") -> str:
    """Comparison table over models; same numbers in both formats.

    The text format adds one line per failed trial under the table.
    """
    if not reports:
        raise ContractViolationError("no reports to emit")
    rows = [
        (
            r.model_name,
            str(int(round(r.reservoir_size))),
            format(r.train_time_s, ".4f"),
            format(r.train_nrmse, ".4f"),
            format(r.test_nrmse, ".4f"),
        )
        for r in reports
    ]
    if fmt == "csv":
        return csv_text(REPORT_COLUMNS, list(zip(*rows)))
    if fmt == "text":
        widths = [
            max(len(REPORT_COLUMNS[j]), *(len(row[j]) for row in rows))
            for j in range(len(REPORT_COLUMNS))
        ]
        header = "  ".join(c.ljust(widths[j]) for j, c in enumerate(REPORT_COLUMNS))
        sep = "-" * len(header)
        lines = [header, sep]
        lines += [
            "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row))
            for row in rows
        ]
        lines += [
            f"{r.model_name} trial with seed {f.seed} failed: {f.kind}: {f.message}"
            for r in reports for f in r.failures
        ]
        return "\n".join(lines) + "\n"
    raise ContractViolationError(f"unknown report format {fmt!r}")

