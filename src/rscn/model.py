"""Reservoir network model: state recursion, linear readout, serialization.

Arrays follow a channels-by-time convention: an input sequence is a
``(K, n)`` matrix whose column ``t`` is the input vector at step ``t``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import weakref
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, NumericOverflowError, SchemaError

TANH = "tanh"

BLOCK_LOWER_TRIANGULAR = "block_lower_triangular"
GENERAL = "general"

SERIALIZATION_VERSION = 1


def _frozen(a) -> np.ndarray:
    if type(a) is not np.ndarray or a.dtype != float or a.flags.writeable or not a.flags.owndata:
        a = np.array(a, dtype=float)
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ReservoirModel:
    """All parameters of one reservoir network.

    ``input_weights`` is ``(N, K)``, ``feedback`` is ``(N, N)``, ``biases``
    is ``(N,)`` and ``readout`` maps the extended state ``(x(n), u(n))`` to
    the ``L`` outputs, so it is ``(L, N + K)``. Every node applies tanh.

    With ``structure_tag == "block_lower_triangular"`` the feedback matrix
    consists of a dense ``initial_block_size`` block followed by grown rows
    that are zero to the right of their own diagonal, so appending a row
    never feeds back into earlier nodes.
    """

    input_weights: np.ndarray
    feedback: np.ndarray
    biases: np.ndarray
    readout: np.ndarray
    structure_tag: str = GENERAL
    initial_block_size: int = 0
    activation = TANH  # not a field: the one activation, named in model documents

    def __post_init__(self):
        object.__setattr__(self, "input_weights", _frozen(self.input_weights))
        object.__setattr__(self, "feedback", _frozen(self.feedback))
        object.__setattr__(self, "biases", _frozen(self.biases))
        object.__setattr__(self, "readout", _frozen(self.readout))
        self._validate()

    def _validate(self):
        w_in, w_r, b, w_out = (
            self.input_weights,
            self.feedback,
            self.biases,
            self.readout,
        )
        if w_in.ndim != 2 or w_r.ndim != 2 or b.ndim != 1 or w_out.ndim != 2:
            raise ContractViolationError("model arrays have wrong rank")
        n, k = w_in.shape
        if w_r.shape != (n, n):
            raise ContractViolationError(
                f"feedback shape {w_r.shape} does not match {n} nodes"
            )
        if b.shape != (n,):
            raise ContractViolationError(f"biases shape {b.shape}, expected ({n},)")
        if w_out.shape[1] != n + k:
            raise ContractViolationError(
                f"readout has {w_out.shape[1]} columns, expected {n + k}"
            )
        if self.structure_tag not in (BLOCK_LOWER_TRIANGULAR, GENERAL):
            raise ContractViolationError(
                f"unknown structure_tag {self.structure_tag!r}"
            )
        for a in (w_in, w_r, b, w_out):
            if not np.all(np.isfinite(a)):
                raise ContractViolationError("model contains non-finite entries")
        if self.structure_tag == BLOCK_LOWER_TRIANGULAR:
            n0 = self.initial_block_size
            if not 0 <= n0 <= n:
                raise ContractViolationError(
                    f"initial_block_size {n0} out of range for {n} nodes"
                )
            # row i may reach column max(i, n0 - 1): above the diagonal,
            # outside the leading n0 x n0 block, every entry must be zero
            beyond = np.triu(w_r, 1)
            beyond[:n0, :n0] = 0.0
            bad_rows = np.flatnonzero(beyond.any(axis=1))
            if bad_rows.size:
                i = int(bad_rows[0])
                raise ContractViolationError(
                    f"feedback row {i} has nonzeros beyond column "
                    f"{max(i, n0 - 1)}, breaking the grown lower-triangular shape"
                )

    @property
    def n_nodes(self) -> int:
        return self.input_weights.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.input_weights.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.readout.shape[0]

    def with_readout(self, readout: np.ndarray) -> "ReservoirModel":
        """The model with another readout; it keeps this model's remembered run."""
        return replace(self, readout=readout)


@dataclass(frozen=True, eq=False)
class StateSequence:
    """Reservoir states over time, stored as the extended (state, input) matrix.

    Column ``t`` of ``extended`` stacks the state and input columns at
    step ``t``, giving the ``(N + K, n)`` design matrix used by the
    readout; ``states`` is the view of its first ``n_nodes`` rows. It keeps
    a read-only float array that owns its memory, else a read-only copy.
    """

    extended: np.ndarray
    n_nodes: int

    def __post_init__(self):
        object.__setattr__(self, "extended", _frozen(self.extended))

    @property
    def states(self) -> np.ndarray:
        return self.extended[:self.n_nodes]

    @property
    def n_steps(self) -> int:
        return self.extended.shape[1]


def _checked_inputs(model: ReservoirModel, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != model.n_inputs:
        raise ContractViolationError(f"inputs shape {inputs.shape}, expected ({model.n_inputs}, n)")
    if not np.all(np.isfinite(inputs)):
        raise ContractViolationError("inputs contain non-finite values")
    return inputs


def input_drive(model: ReservoirModel, inputs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Validated input drive ``W_in u(t) + b``, ``(N, n)`` with one column per step, in ``out``."""
    inputs = _checked_inputs(model, inputs)
    return np.add(np.matmul(model.input_weights, inputs, out=out), model.biases[:, None], out=out)


def check_finite_steps(rows: np.ndarray) -> None:
    """Raise ``NumericOverflowError`` naming the first step (row) that is not finite."""
    finite = np.isfinite(rows).reshape(len(rows), -1).all(axis=1)
    if not finite.all():
        raise NumericOverflowError(f"non-finite reservoir state at step {np.argmin(finite) + 1}")


def _row_dots(a: np.ndarray) -> np.ndarray:
    """``r @ r`` for each row ``r``: a stacked vector-vector ``matmul`` takes each
    row through the dot product of ``r @ r`` and ``np.linalg.norm(r)``, bit for bit."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _work(work: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Work array ``name``, allocated again only for a new shape; the old
    one is dropped first, so the two are never held at once."""
    if work.get(name, np.empty(0)).shape != shape:
        work.pop(name, None)
        work[name] = np.empty(shape)
    return work[name]


# On the 120-node model of a 9,194-step stream, 128 warm-up steps (256-step
# chunks) needed no fix-up; 64 needed one at every boundary and ran slower,
# and longer warm-ups ran no faster.
RUN_WARMUP = 128


def _warmup_steps(bound: float) -> int:
    """Steps over which self-weights of magnitude at most ``bound`` shrink a
    gap by 2⁻⁶⁴; at least one, which a zero weight needs."""
    return math.ceil(64 / -math.log2(max(bound, 2.0**-64)))


def _chunked_recursion(
    drive: np.ndarray, weight: np.ndarray, work: dict[str, np.ndarray],
    start: np.ndarray | None = None,
) -> None:
    """Turn ``drive`` ``(size, n_steps)`` into the states ``tanh(drive + weight · x)`` in place.

    ``weight`` is either the self-weights ``(size,)`` of independent
    nodes (a candidate pool) or a feedback matrix ``(size, size)`` (a
    network); the state before the first step is ``start`` (zeros by
    default). The kernel picks its own warm-up ``m``: independent nodes
    close a gap by at least their largest self-weight magnitude per step
    (tanh is 1-Lipschitz), so ``m`` is :func:`_warmup_steps` of it; a
    network's nodes are coupled, and ``m`` is ``RUN_WARMUP``. The steps
    are cut into ``c = n_steps // (2 m)`` chunks that run side by side,
    one ``(c, size)`` row per step: an elementwise product for
    self-weights, a stacked ``np.matmul`` for a matrix, which equals
    ``weight @ x`` bit for bit, and a shifted elementwise product
    (:func:`_ring_step`) for a ring. Each chunk starts from a zero state
    ``m`` steps before its own first step; the first chunk's warm-up
    sees zero drive and stays zero. Two runs whose bits agree at some
    step agree from then on, so a chunk whose last warm-up state equals
    the exact state before it is exact; any other chunk is recomputed
    from that exact state by :func:`_fix_up`. With one chunk there is no
    warm-up and the loop is the plain recursion.
    """
    size, n_steps = drive.shape
    warmup = _warmup_steps(float(np.abs(weight).max())) if weight.ndim == 1 else RUN_WARMUP
    c = max(1, n_steps // (2 * warmup))
    span = -(-n_steps // c)
    c = -(-n_steps // span)  # rounding the span up may leave chunks empty
    if c == 1:
        warmup = 0
    x = _work(work, "chunks", (warmup + span, c, size))
    for i in range(c):
        lo = i * span - warmup
        t0, t1 = max(lo, 0), min(lo + warmup + span, n_steps)
        x[:t0 - lo, i] = 0.0
        x[t0 - lo:t1 - lo, i] = drive[:, t0:t1].T
        x[t1 - lo:, i] = 0.0
    if weight.ndim == 1:
        step, wide = np.multiply, np.tile(weight, c).reshape(c, size, 1)
    elif (ring := _ring_weight(weight)) is not None:
        step, wide = _ring_step, ring
    else:
        step, wide = np.matmul, weight
    gp, fed = np.zeros((c, size, 1)), np.empty((c, size, 1))
    # per-step call overhead dominates, so outputs are passed positionally
    for row in x.reshape(warmup + span, c, size, 1):
        step(wide, gp, fed)
        np.add(row, fed, row)
        np.tanh(row, row)
        gp = row
    zero = np.zeros(size)
    exact = zero if start is None else start
    for i in range(c):
        t0, t1 = i * span, min((i + 1) * span, n_steps)
        states = x[warmup:warmup + t1 - t0, i]
        warm = x[warmup - 1, i] if i else zero  # the first chunk runs from zero
        if np.any(warm.view(np.int64) != exact.view(np.int64)):
            _fix_up(states, drive[:, t0:t1], weight, exact)
        drive[:, t0:t1] = states.T
        exact = drive[:, t1 - 1]


def _ring_weight(weight: np.ndarray) -> float | None:
    """The one weight of a ring matrix, whose only nonzeros are the equal
    entries ``(i, i - 1 mod size)`` (a simple cycle reservoir), else None."""
    size = len(weight)
    cycle = weight[np.arange(size), np.arange(-1, size - 1)]
    if size and cycle[0] != 0.0 and np.count_nonzero(weight) == size and np.all(cycle == cycle[0]):
        return float(cycle[0])
    return None


def _ring_step(w: float, x: np.ndarray, out: np.ndarray) -> None:
    """``out = W x`` for the ring of weight ``w`` on stacked ``(c, size, 1)`` states.

    Each row of ``W x`` has one nonzero term, ``w · x[i - 1]``, and the
    dense product returns exactly that term, so the two agree bit for bit.
    """
    np.multiply(w, x[:, -1:], out[:, :1])
    np.multiply(w, x[:, :-1], out[:, 1:])


def _fix_up(states: np.ndarray, drive: np.ndarray, weight: np.ndarray, exact: np.ndarray) -> None:
    """Recompute one chunk's ``states`` ``(steps, size)`` from the exact state before it.

    Runs until its bits meet the chunk's value (exact from then on) or
    the chunk ends.
    """
    x = exact
    for t, row in enumerate(states):
        x = np.tanh(drive[:, t] + (weight * x if weight.ndim == 1 else weight @ x))
        same = np.array_equal(x.view(np.int64), row.view(np.int64))
        row[:] = x
        if same:
            return


# run_reservoir's latest run: (weakrefs to the input weights, feedback and
# biases it ran, (input bytes, start bytes), StateSequence)
_last_run = None


def run_reservoir(
    model: ReservoirModel,
    inputs: np.ndarray,
    initial_state: np.ndarray | None = None,
) -> StateSequence:
    """Drive the reservoir over ``inputs`` (shape ``(K, n)``).

    Column ``t`` of the states is
    ``tanh(W_in u(t) + W_r x(t-1) + b)`` with ``x(0) = initial_state``
    (zeros by default). The drive is formed in the top ``N`` rows of one
    ``(N + K, n)`` buffer over the inputs, :func:`_chunked_recursion`
    turns it into the states in place, and the read-only buffer is the
    extended matrix, equal to the plain step loop's bit for bit.
    Finiteness is checked once, after the last step. Deterministic:
    identical arguments give a bit-identical sequence.

    The latest run is remembered: a call on a model holding the same
    input weight, feedback and bias array objects (a model and every
    ``replace`` of its readout share them) whose inputs and start have
    the same bits returns the same read-only sequence without running
    the recursion again. Every check still runs. The arrays are held by
    weak reference, and at most one ``(N + K, n)`` matrix is held; a run
    on any other key drops it before computing.
    """
    global _last_run
    n = model.n_nodes
    x = np.zeros(n) if initial_state is None else np.asarray(initial_state, dtype=float)
    if x.shape != (n,):
        raise ContractViolationError(f"initial_state shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise ContractViolationError("initial_state contains non-finite values")
    inputs = _checked_inputs(model, inputs)
    arrays = (model.input_weights, model.feedback, model.biases)
    key, last = (inputs.tobytes(), x.tobytes()), _last_run
    # the same arrays have one K and N, so equal bytes mean equal shapes
    if last is not None and last[1] == key and all(r() is a for r, a in zip(last[0], arrays)):
        return last[2]
    _last_run = last = None  # no reference left, so the old states are freed before allocating
    extended = np.empty((n + model.n_inputs, inputs.shape[1]))
    extended[n:] = inputs
    _chunked_recursion(input_drive(model, inputs, extended[:n]), model.feedback, {}, x)
    check_finite_steps(extended[:n].T)
    extended.flags.writeable = False
    seq = StateSequence(extended, n)  # adopted, not copied
    _last_run = (tuple(map(weakref.ref, arrays)), key, seq)
    return seq


def readout(model: ReservoirModel, seq: StateSequence) -> np.ndarray:
    """Model output over time: column ``t`` is ``W_out (x(t), u(t))``."""
    if seq.extended.shape[0] != model.n_nodes + model.n_inputs:
        raise ContractViolationError(
            "state sequence does not match model dimensions"
        )
    return model.readout @ seq.extended


def refuse_unknown(doc, known, source: str) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is an object whose keys all lie in ``known``."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{source} must be an object, not {type(doc).__name__}")
    unknown = sorted(map(str, doc.keys() - set(known)))
    if unknown:
        raise SchemaError(f"{source} has unknown keys: {', '.join(unknown)}")


# a model document's keys: the serialization version, then the model's attributes
MODEL_KEYS = ("version", "n_nodes", "n_inputs", "n_outputs", "activation", "structure_tag",
              "initial_block_size", "input_weights", "feedback", "biases", "readout")


def model_to_dict(model: ReservoirModel) -> dict:
    doc = {"version": SERIALIZATION_VERSION}
    for key in MODEL_KEYS[1:]:
        value = getattr(model, key)
        doc[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def model_from_dict(doc: dict) -> ReservoirModel:
    """The model a :func:`model_to_dict` document describes; a malformed
    document raises :class:`SchemaError` naming the field at fault.
    """
    refuse_unknown(doc, MODEL_KEYS, "model document")
    if doc.get("version") != SERIALIZATION_VERSION:
        raise ContractViolationError(
            f"unsupported model document version {doc.get('version')!r}"
        )
    try:
        if doc["activation"] != TANH:
            raise SchemaError(f"model document has activation {doc['activation']!r}, not {TANH!r}")
        for name in ("n_nodes", "n_inputs", "n_outputs", "initial_block_size"):
            if type(doc[name]) is not int or doc[name] < 0:
                raise SchemaError(f"model field {name!r} must be a nonnegative int, "
                                  f"got {doc[name]!r}")
        n, k = doc["n_nodes"], doc["n_inputs"]

        def array(name, *shape):
            leaves = [doc[name]]  # numpy would also convert numeric strings, bools and nulls
            while leaves and type(leaves[0]) is list:
                leaves = list(itertools.chain.from_iterable(leaves))
            try:
                if odd := set(map(type, leaves)) - {int, float}:
                    raise TypeError(f"it holds {', '.join(sorted(t.__name__ for t in odd))}")
                return np.array(doc[name], dtype=float).reshape(shape)
            except (TypeError, ValueError) as err:
                raise SchemaError(f"model field {name!r} is not a {shape} array "
                                  f"of numbers: {err}") from None

        return ReservoirModel(
            input_weights=array("input_weights", n, k),
            feedback=array("feedback", n, n),
            biases=array("biases", n),
            readout=array("readout", doc["n_outputs"], n + k),
            structure_tag=doc["structure_tag"],
            initial_block_size=doc["initial_block_size"],
        )
    except KeyError as err:
        raise SchemaError(f"model document missing {err}") from None


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """The header line, then one comma-joined line per row, newline-ended.

    A column of ``str`` cells is written as given, any other by ``repr``
    of its Python values (an array's through ``tolist()``).
    """
    cells = []
    for col in columns:
        col = col.tolist() if isinstance(col, np.ndarray) else col
        cells.append(col if col and isinstance(col[0], str) else map(repr, col))
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def save_model(model: ReservoirModel, path: str) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model)))


def load_model(path: str) -> ReservoirModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
