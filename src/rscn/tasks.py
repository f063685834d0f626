"""Benchmark task generators, lagged supervised sequences, CSV ingestion.

All generators are pure functions of their parameters and generator, so
every dataset is replayable from a task manifest (one JSON document
naming the generator or file, variant, splits, washout and seed).
"""

from __future__ import annotations

import csv
import functools
import json
import os
import types
from dataclasses import dataclass, fields, replace
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ContractViolationError, CsvParseError, SchemaError
from .model import _frozen, atomic_write_text, csv_text, refuse_unknown
from .seeding import substream


@dataclass(frozen=True, eq=False)
class SupervisedSequence:
    """Inputs ``(K, n)`` and targets ``(L, n)`` over discrete time.

    The first ``washout`` steps are excluded from fitting and scoring to
    wash out the influence of the zero initial reservoir state.
    """

    inputs: np.ndarray
    targets: np.ndarray
    washout: int = 0

    def __post_init__(self):
        object.__setattr__(self, "inputs", _frozen(self.inputs))
        object.__setattr__(self, "targets", _frozen(self.targets))
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ContractViolationError("inputs and targets must be 2-D")
        if self.inputs.shape[1] != self.targets.shape[1]:
            raise ContractViolationError(
                "inputs and targets must cover the same number of steps"
            )
        if not 0 <= self.washout < self.inputs.shape[1]:
            raise ContractViolationError(
                f"washout {self.washout} must be shorter than the sequence"
            )
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise ContractViolationError("sequence contains non-finite values")

    @property
    def n_steps(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[0]


@dataclass(frozen=True)
class TaskData:
    """Train/validation/test triple for one benchmark task."""

    name: str
    train: SupervisedSequence
    val: SupervisedSequence
    test: SupervisedSequence


# ---------------------------------------------------------------------------
# Chaotic delay-differential series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MGParams:
    """Delay-differential benchmark parameters.

    The series obeys ``dy/dn = upsilon*y + alpha*y_tau / (1 + y_tau**exponent)``
    with delay ``tau``; it is chaotic for delays beyond roughly 16.8.
    Integration uses the midpoint (second-order Runge-Kutta) scheme at
    step ``dt`` with the history initialised uniformly from ``init_range``
    at integer times and interpolated linearly in between.
    """

    upsilon: float = -0.1
    alpha: float = 0.2
    tau: int = 17
    exponent: int = 10
    dt: float = 0.1
    init_range: tuple[float, float] = (0.1, 1.3)
    length: int = 1177

    def __post_init__(self):
        if self.tau < 1:
            raise ContractViolationError("tau must be at least 1")
        if self.dt <= 0:
            raise ContractViolationError("dt must be positive")
        if not -np.inf < self.init_range[0] <= self.init_range[1] < np.inf:
            raise ContractViolationError("init_range must be finite with low <= high")


def mackey_glass(p: MGParams, rng: np.random.Generator) -> np.ndarray:
    """Integrate the delayed series and sample it at unit intervals."""
    spu = round(1.0 / p.dt)
    if spu < 1 or abs(spu * p.dt - 1.0) > 1e-9:
        raise ContractViolationError("dt must divide the unit sampling interval")
    delay = p.tau * spu
    lo, hi = p.init_range
    knots = rng.uniform(lo, hi, size=p.tau + 1)
    # generated points start where the random history ends
    n_fine = delay + (p.length - 1) * spu + 1
    fine_t = np.arange(delay + 1) * p.dt
    # stepped on Python floats, which cost far less per operation than NumPy scalars
    buf = np.interp(fine_t, np.arange(p.tau + 1, dtype=float), knots).tolist()
    upsilon, alpha, exponent, dt = p.upsilon, p.alpha, p.exponent, p.dt
    # the rate upsilon*y + alpha*y_tau / (1 + y_tau**exponent), written out
    # twice: a call per evaluation costs more than the evaluation
    for i in range(delay, n_fine - 1):
        y, y_tau = buf[i], buf[i - delay]
        k1 = upsilon * y + alpha * y_tau / (1.0 + y_tau**exponent)
        y_mid = y + 0.5 * dt * k1
        y_tau_mid = 0.5 * (y_tau + buf[i - delay + 1])
        k2 = upsilon * y_mid + alpha * y_tau_mid / (1.0 + y_tau_mid**exponent)
        buf.append(y + dt * k2)
    return np.array(buf[delay::spu][: p.length], dtype=float)


@functools.lru_cache(maxsize=64)
def _mg_series(p: MGParams, seed: int) -> np.ndarray:
    """The read-only series of ``p`` at task seed ``seed``, integrated once.

    mg, mg1 and mg2 at one seed share it. 64 series of the default
    length hold about 0.6 MB, enough for the 20 seeds that ``rscn bench``
    runs per task before it moves to the next variant.
    """
    return _frozen(mackey_glass(p, substream(seed, "task")))


MG_VARIANT_LAGS = {
    "mg": (0, 6, 12, 18),
    "mg1": (6, 12, 18),
    "mg2": (12, 18),
}
_MG_LEAD = 6
_MG_TRAIN_END = 500
_MG_VAL_END = 800
_MG_WASHOUT = 20


def mg_task(series: np.ndarray, variant: str) -> TaskData:
    """Build the lagged six-step-ahead prediction task from a raw series.

    Inputs at time ``n`` are the series values at the variant's lags and
    the target is the value six steps ahead. Time 1-500 trains, 501-800
    validates, the remainder tests; 20 steps of each split are washed out.
    """
    variant = variant.lower()
    if variant not in MG_VARIANT_LAGS:
        raise ContractViolationError(f"unknown variant {variant!r}")
    series = np.asarray(series, dtype=float)
    lags = MG_VARIANT_LAGS[variant]
    first = max(map(max, MG_VARIANT_LAGS.values()))  # every lag must exist, for any variant
    last = series.size - 1 - _MG_LEAD
    if series.ndim != 1 or last < first:
        raise ContractViolationError("series too short for the lag structure")
    idx = np.arange(first, last + 1)
    inputs = np.stack([series[idx - lag] for lag in lags])
    targets = series[idx + _MG_LEAD][None, :]

    def split(lo, hi):
        sel = (idx >= lo) & (idx < hi)
        return SupervisedSequence(inputs[:, sel], targets[:, sel], washout=_MG_WASHOUT)

    return TaskData(
        name=variant,
        train=split(0, _MG_TRAIN_END),
        val=split(_MG_TRAIN_END, _MG_VAL_END),
        test=split(_MG_VAL_END, idx[-1] + 1),
    )


# ---------------------------------------------------------------------------
# Nonlinear plant identification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantParams:
    """Recursion constants and split sizes of the nonlinear plant task."""

    coefficients: tuple[float, float, float, float] = (0.72, 0.025, 0.01, 0.2)
    initial_outputs: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.1)
    n_train: int = 2000
    n_val: int = 1000
    n_test: int = 1000
    washout: int = 100

    def __post_init__(self):
        if not 0 <= self.washout < min(self.n_train, self.n_val, self.n_test):
            raise ContractViolationError("the washout must be nonnegative and below each split")


def plant_response(u: np.ndarray, p: PlantParams = PlantParams()) -> np.ndarray:
    """Plant output ``y(1..n+1)`` driven by ``u(1..n)``.

    ``y(n+1) = c0 y(n) + c1 y(n-1) u(n) + c2 u(n-2)^2 + c3 u(n-3)``
    with the first four outputs fixed by ``initial_outputs``.
    """
    u = np.asarray(u, dtype=float).tolist()
    c0, c1, c2, c3 = p.coefficients
    y = [float(v) for v in p.initial_outputs]
    for j in range(4, len(u) + 1):
        y.append(c0 * y[j - 1] + c1 * y[j - 2] * u[j - 1] + c2 * u[j - 3] ** 2 + c3 * u[j - 4])
    return np.array(y, dtype=float)


def plant_test_input(n: np.ndarray) -> np.ndarray:
    """Piecewise test drive over 1-based step indices ``n``."""
    n = np.asarray(n, dtype=float)
    wave = np.sin(np.pi * n / 25.0)
    mixed = 0.6 * np.cos(np.pi * n / 10.0) + 0.1 * np.cos(np.pi * n / 32.0) + 0.3 * wave
    return np.select([n < 250, n < 500, n < 750], [wave, 1.0, -1.0], mixed)


def plant_sequence(u: np.ndarray, p: PlantParams) -> SupervisedSequence:
    """The plant driven by ``u``: inputs ``[y(n), u(n)]`` predicting ``y(n+1)``."""
    y = plant_response(u, p)
    return SupervisedSequence(np.stack([y[: len(u)], u]), y[1 : len(u) + 1][None, :],
                              washout=p.washout)


def plant_task(p: PlantParams = PlantParams(), rng: np.random.Generator | None = None) -> TaskData:
    """Training and validation drive the plant with i.i.d. uniform input on
    [-1, 1], drawn in that order; the test uses the fixed piecewise drive."""
    rng = rng if rng is not None else np.random.default_rng(0)
    train = plant_sequence(rng.uniform(-1.0, 1.0, size=p.n_train), p)
    val = plant_sequence(rng.uniform(-1.0, 1.0, size=p.n_val), p)
    test = plant_sequence(plant_test_input(np.arange(1, p.n_test + 1)), p)
    return TaskData(name="plant", train=train, val=val, test=test)


# ---------------------------------------------------------------------------
# CSV ingestion with lagged feature maps
# ---------------------------------------------------------------------------

# Feature maps for the two industrial schemas. Each entry is
# (column or tuple of columns to average, lag in rows).
DEBUTANIZER_REDUCED_FEATURES = [
    ("u1", 0), ("u2", 0), ("u3", 0), ("u4", 0), ("u5", 0), ("y", 1),
]
DEBUTANIZER_FULL_FEATURES = [
    ("u1", 0), ("u2", 0), ("u3", 0), ("u4", 0), ("u5", 0),
    ("u5", 1), ("u5", 2), ("u5", 3),
    (("u1", "u2"), 0),
    ("y", 1), ("y", 2), ("y", 3), ("y", 4),
]
POWER_LOAD_FEATURES = [("u1", 0), ("u2", 0), ("u3", 0), ("u4", 0), ("y", 1)]

LagSpec = Sequence[tuple]


def load_csv(
    path: str,
    u_columns: Sequence[str] | None = None,
    y_column: str | None = None,
    lag_spec: LagSpec | None = None,
) -> SupervisedSequence:
    """Build a supervised sequence from a CSV file whose header has two or more columns.

    ``y_column`` defaults to the last column and ``u_columns`` to the rest.
    ``lag_spec`` lists one or more input features as ``(column, lag)``
    pairs; a tuple of columns means their mean at that lag. The default
    uses every ``u`` column at lag zero. The target is ``y_column`` at lag
    zero. Blank rows and the leading rows lacking a lagged value are dropped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if len(header) < 2:
            raise SchemaError(f"{path}: need at least one input column and a target")
        u_columns = header[:-1] if u_columns is None else u_columns
        y_column = header[-1] if y_column is None else y_column
        if lag_spec is None:
            lag_spec = [(c, 0) for c in u_columns]
        if not lag_spec:
            raise SchemaError(f"{path}: no input feature")
        needed = list(dict.fromkeys(list(u_columns) + [y_column]))
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        col_idx = {c: header.index(c) for c in needed}
        columns: dict[str, list[float]] = {c: [] for c in needed}
        for line_no, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            for c, i in col_idx.items():
                if i >= len(row):
                    raise CsvParseError(f"row has no column {c!r}", line=line_no)
                try:
                    columns[c].append(float(row[i]))
                except ValueError:
                    raise CsvParseError(
                        f"cell {row[i]!r} in column {c!r} is not numeric",
                        line=line_no,
                    ) from None
    series = {c: np.asarray(v) for c, v in columns.items()}
    n_rows = len(series[y_column])

    feats = []
    for chans, lag in lag_spec:
        if isinstance(chans, str):
            chans = (chans,)
        for c in chans:
            if c not in series:
                raise SchemaError(f"{path}: feature column {c!r} not in schema")
        lag = _integer(lag, f"{path}: the lag of {'+'.join(chans)}")
        if lag < 0:
            raise ContractViolationError("lags must be nonnegative")
        feats.append((tuple(chans), lag))
    max_lag = max(lag for _, lag in feats)
    if n_rows <= max_lag:
        raise SchemaError(f"{path}: too few rows ({n_rows}) for a lag of {max_lag}")
    t = np.arange(max_lag, n_rows)
    inputs = np.stack(
        [np.mean([series[c][t - lag] for c in chans], axis=0) for chans, lag in feats]
    )
    targets = series[y_column][t][None, :]
    return SupervisedSequence(inputs, targets)


def write_sequence_csv(seq: SupervisedSequence, path: str) -> None:
    """Write a sequence as CSV with columns ``u1..uK, y`` (or ``y1..yL``)."""
    k, ell = seq.n_inputs, seq.n_outputs
    u_names = [f"u{i + 1}" for i in range(k)]
    y_names = ["y"] if ell == 1 else [f"y{i + 1}" for i in range(ell)]
    atomic_write_text(path, csv_text(u_names + y_names, [*seq.inputs, *seq.targets]))


def add_gaussian_noise(
    seq: SupervisedSequence, sigma: float, rng: np.random.Generator
) -> SupervisedSequence:
    """Perturb targets with zero-mean Gaussian noise; inputs untouched."""
    if sigma < 0:
        raise ContractViolationError("sigma must be nonnegative")
    if sigma == 0.0:
        return seq
    noisy = seq.targets + rng.normal(0.0, sigma, size=seq.targets.shape)
    return replace(seq, targets=noisy)


def slice_sequence(
    seq: SupervisedSequence, start: int, stop: int, washout: int
) -> SupervisedSequence:
    return SupervisedSequence(seq.inputs[:, start:stop], seq.targets[:, start:stop], washout=washout)


# ---------------------------------------------------------------------------
# Task manifests
# ---------------------------------------------------------------------------

GENERATOR_TASKS = (*MG_VARIANT_LAGS, "plant")


def _conforms(value, kind) -> bool:
    """Whether ``value`` may fill a field annotated ``kind``: a value of that
    type (a bool only for a bool), an integer for a float, or a list or
    tuple whose items conform to the tuple's item type. A fixed-length
    tuple such as ``tuple[float, float]`` takes one item per slot; a ladder
    ``tuple[float, ...]`` takes any number. A value fills a union such as
    ``str | tuple[str, ...]`` if it fills one of its members."""
    if isinstance(kind, types.UnionType):
        return any(_conforms(value, member) for member in get_args(kind))
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        slots = get_args(kind)
        if slots[-1] is Ellipsis:
            slots = slots[:1] * len(value)
        return len(value) == len(slots) and all(map(_conforms, value, slots))
    if isinstance(value, bool) is not (kind is bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _integer(value, name: str) -> int:
    """``value`` if it conforms to ``int`` (see ``_conforms``), else ``SchemaError``."""
    if not _conforms(value, int):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def from_params(cls, params: dict, source: str):
    """``cls(**params)``, refusing unknown keys and values of the wrong type.

    Each value must conform to its field's annotation (see ``_conforms``);
    a list is stored as a tuple, so the object stays hashable.
    """
    hints = get_type_hints(cls)
    kinds = {f.name: hints[f.name] for f in fields(cls)}
    refuse_unknown(params, kinds, source)
    for name, value in params.items():
        kind = kinds[name]
        if not _conforms(value, kind):
            shown = kind.__name__ if get_origin(kind) is None else kind
            raise SchemaError(f"{source}: {name} must be {shown}, got {value!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in params.items()})


# The keys of a CSV task's "csv" section and the type each value must
# conform to. A feature's lag may be any number here: load_csv refuses one
# that is not an integer, naming its column.
CSV_SECTION = {
    "path": str, "u_columns": tuple[str, ...], "y_column": str,
    "features": tuple[tuple[str | tuple[str, ...], float], ...],
    "n_train": int, "n_test": int, "val_noise_sigma": float,
}


# The keys of each task kind's manifest
TASK_KEYS = {
    **dict.fromkeys(MG_VARIANT_LAGS, ("task", "seed", "mg_params")),
    "plant": ("task", "seed", "plant_params"),
    "csv": ("task", "seed", "washout", "csv"),
}


def task_from_manifest(manifest: dict) -> TaskData:
    """Materialise the task a manifest describes.

    Generator tasks need only ``{"task", "seed"}``. CSV tasks need only a
    ``"csv"`` section naming the ``path``; it may also give ``load_csv``'s
    columns and ``features``, the split sizes and the validation-noise
    level. Of ``n`` steps, ``n_train`` defaults to ``int(0.7 * n)``,
    ``n_test`` to the rest and ``washout`` to ``min(20, n_train // 10)``;
    unstated noise to 5% of the clean test-target standard deviation.
    Each kind takes only the keys ``TASK_KEYS`` names for it.
    """
    kind = manifest.get("task")
    if not isinstance(kind, str) or kind not in TASK_KEYS:
        raise SchemaError(f"unknown task kind {kind!r}")
    refuse_unknown(manifest, TASK_KEYS[kind], f"{kind} task manifest")
    seed = _integer(manifest.get("seed", 0), "task seed")
    if kind in MG_VARIANT_LAGS:
        params = from_params(MGParams, manifest.get("mg_params", {}), "mg_params")
        return mg_task(_mg_series(params, seed), kind)
    if kind == "plant":
        params = from_params(
            PlantParams, manifest.get("plant_params", {}), "plant_params"
        )
        return plant_task(params, substream(seed, "task"))
    spec = manifest.get("csv", {})
    refuse_unknown(spec, CSV_SECTION, "csv task section")
    if "path" not in spec:
        raise SchemaError("csv task section needs a 'path'")
    for key, value in spec.items():
        want = CSV_SECTION[key]
        if want is int:
            _integer(value, f"csv task {key}")
        elif not _conforms(value, want):
            shown = want.__name__ if get_origin(want) is None else want
            raise SchemaError(f"csv task {key} must be {shown}, got {value!r}")
    path = spec["path"]
    seq = load_csv(path, spec.get("u_columns"), spec.get("y_column"), spec.get("features"))
    n = seq.n_steps
    n_train = spec.get("n_train", int(0.7 * n))
    n_test = spec.get("n_test", n - n_train)
    washout = _integer(manifest.get("washout", min(20, n_train // 10)), "csv task washout")
    if n_train + n_test > n:
        raise SchemaError(f"splits need {n_train + n_test} samples, file has {n}")
    if min(n_train, n_test) < 2:
        raise SchemaError(f"{path}: too few rows ({n}) to split")
    train = slice_sequence(seq, 0, n_train, washout)
    test = slice_sequence(seq, n_train, n_train + n_test, washout)
    sigma = spec.get("val_noise_sigma", 0.05 * float(np.std(test.targets)))
    val = add_gaussian_noise(test, float(sigma), substream(seed, "noise"))
    name = os.path.splitext(os.path.basename(path))[0]
    return TaskData(name=name, train=train, val=val, test=test)


def load_manifest(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_manifest(manifest: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
