"""Reservoir network model: state recursion, linear readout, serialization.

Arrays follow a channels-by-time convention: an input sequence is a
``(K, n)`` matrix whose column ``t`` is the input vector at step ``t``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, NumericOverflowError, SchemaError

TANH = "tanh"

BLOCK_LOWER_TRIANGULAR = "block_lower_triangular"
GENERAL = "general"

SERIALIZATION_VERSION = 1


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


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
        return replace(self, readout=readout)

    def with_feedback(self, feedback: np.ndarray) -> "ReservoirModel":
        return replace(self, feedback=feedback)


@dataclass(frozen=True, eq=False)
class StateSequence:
    """Reservoir states over time plus the extended (state, input) matrix.

    ``states`` is ``(N, n)``; column ``t`` of ``extended`` stacks the state
    and input columns at step ``t``, giving the ``(N + K, n)`` design matrix
    used by the readout.
    """

    states: np.ndarray
    extended: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen(self.states))
        object.__setattr__(self, "extended", _frozen(self.extended))

    @property
    def n_steps(self) -> int:
        return self.states.shape[1]


def input_drive(model: ReservoirModel, inputs: np.ndarray) -> np.ndarray:
    """Validated input drive ``W_in u(t) + b``, one ``(N,)`` row per step."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != model.n_inputs:
        raise ContractViolationError(f"inputs shape {inputs.shape}, expected ({model.n_inputs}, n)")
    if not np.all(np.isfinite(inputs)):
        raise ContractViolationError("inputs contain non-finite values")
    drive = model.input_weights @ inputs + model.biases[:, None]
    return np.ascontiguousarray(drive.T)


def check_finite_steps(rows: np.ndarray) -> None:
    """Raise ``NumericOverflowError`` naming the first step (row) that is not finite."""
    finite = np.isfinite(rows).reshape(len(rows), -1).all(axis=1)
    if not finite.all():
        raise NumericOverflowError(f"non-finite reservoir state at step {np.argmin(finite) + 1}")


def run_reservoir(
    model: ReservoirModel,
    inputs: np.ndarray,
    initial_state: np.ndarray | None = None,
) -> StateSequence:
    """Drive the reservoir over ``inputs`` (shape ``(K, n)``).

    Column ``t`` of the result is
    ``tanh(W_in u(t) + W_r x(t-1) + b)`` with ``x(0) = initial_state``
    (zeros by default), computed in place into row ``t`` of an ``(n, N)``
    buffer and returned C-contiguous. Finiteness is checked once, after
    the last step. Deterministic: identical arguments give a
    bit-identical sequence.
    """
    drive = input_drive(model, inputs)
    inputs = np.asarray(inputs, dtype=float)
    n = model.n_nodes
    x = np.zeros(n) if initial_state is None else np.asarray(initial_state, dtype=float)
    if x.shape != (n,):
        raise ContractViolationError(f"initial_state shape {x.shape}, expected ({n},)")
    w_r, rows = model.feedback, np.empty_like(drive)
    for drive_t, row in zip(drive, rows):
        np.add(drive_t, w_r @ x, out=row)
        x = np.tanh(row, out=row)
    check_finite_steps(rows)
    states = np.ascontiguousarray(rows.T)
    return StateSequence(states=states, extended=np.vstack([states, inputs]))


def readout(
    model: ReservoirModel, seq: StateSequence, inputs: np.ndarray
) -> np.ndarray:
    """Model output over time: column ``t`` is ``W_out (x(t), u(t))``."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (model.n_inputs, seq.n_steps):
        raise ContractViolationError(
            f"inputs shape {inputs.shape} does not match sequence of "
            f"{seq.n_steps} steps with {model.n_inputs} channels"
        )
    if seq.extended.shape[0] != model.n_nodes + model.n_inputs:
        raise ContractViolationError(
            "state sequence does not match model dimensions"
        )
    return model.readout @ seq.extended


def model_to_dict(model: ReservoirModel) -> dict:
    return {
        "version": SERIALIZATION_VERSION,
        "n_nodes": model.n_nodes,
        "n_inputs": model.n_inputs,
        "n_outputs": model.n_outputs,
        "activation": model.activation,
        "structure_tag": model.structure_tag,
        "initial_block_size": model.initial_block_size,
        "input_weights": model.input_weights.tolist(),
        "feedback": model.feedback.tolist(),
        "biases": model.biases.tolist(),
        "readout": model.readout.tolist(),
    }


def model_from_dict(doc: dict) -> ReservoirModel:
    if doc.get("version") != SERIALIZATION_VERSION:
        raise ContractViolationError(
            f"unsupported model document version {doc.get('version')!r}"
        )
    try:
        if doc["activation"] != TANH:
            raise SchemaError(f"model document has activation {doc['activation']!r}, not {TANH!r}")
        return ReservoirModel(
            input_weights=np.array(doc["input_weights"], dtype=float).reshape(
                doc["n_nodes"], doc["n_inputs"]
            ),
            feedback=np.array(doc["feedback"], dtype=float).reshape(
                doc["n_nodes"], doc["n_nodes"]
            ),
            biases=np.array(doc["biases"], dtype=float),
            readout=np.array(doc["readout"], dtype=float).reshape(
                doc["n_outputs"], doc["n_nodes"] + doc["n_inputs"]
            ),
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


def save_model(model: ReservoirModel, path: str) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model)))


def load_model(path: str) -> ReservoirModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
