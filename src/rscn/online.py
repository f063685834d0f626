"""Projection-based online updates of the readout weights.

The reservoir stays frozen; each arriving sample moves the readout the
minimal distance needed to (partially) explain it. Three rules are
provided: the damped basic projection, a decreasing-gain variant whose
step size shrinks with the accumulated feature energy (converging to
the generating weights under persistent excitation), and a dead-zone
variant that freezes the weights whenever the error is small enough to
be attributable to bounded noise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .model import ReservoirModel, run_reservoir
from .tasks import SupervisedSequence

MODE_BASIC = "basic"
MODE_DECREASING = "decreasing_gain"
MODE_DEAD_ZONE = "dead_zone"
_MODES = (MODE_BASIC, MODE_DECREASING, MODE_DEAD_ZONE)


@dataclass(frozen=True)
class OnlineConfig:
    """Update-rule selection and its constants.

    ``a`` in (0, 1] damps the basic step and ``c > 0`` guards its
    denominator. ``phi`` bounds the noise for the dead zone, either as a
    constant or as a per-step series.
    """

    mode: str = MODE_BASIC
    a: float = 1.0
    c: float = 1.0
    phi: float | Sequence[float] | np.ndarray = 0.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ContractViolationError(f"unknown online mode {self.mode!r}")
        if self.mode == MODE_BASIC and not (0.0 < self.a <= 1.0 and self.c > 0.0):
            raise ContractViolationError("basic mode needs 0 < a <= 1 and c > 0")
        phi = np.asarray(self.phi, dtype=float)
        if not np.all(phi >= 0.0):
            raise ContractViolationError("phi must be a nonnegative number")

    def phi_series(self, n_steps: int) -> np.ndarray:
        """``phi`` at steps ``1..n_steps``; a constant bound is repeated."""
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim and phi.size < n_steps:
            raise ContractViolationError(
                f"phi series has {phi.size} entries, needed step {phi.size + 1}"
            )
        return np.full(n_steps, phi) if phi.ndim == 0 else phi[:n_steps]


@dataclass
class StepDiagnostics:
    """Per-step record: errors before/after the update, gate, weight gap."""

    step: int
    prior_error: np.ndarray
    posterior_error: np.ndarray
    eta: float
    weight_gap: float | None


@dataclass(frozen=True, eq=False)
class _Diagnostics(Sequence):
    """Read-only ``StepDiagnostics`` view of an ``OnlineState``'s columns."""

    _s: OnlineState

    def __len__(self) -> int:
        return self._s._n

    def __getitem__(self, i):
        s, i = self._s, range(self._s._n)[i]  # IndexError past either end
        if isinstance(i, range):
            return [self[j] for j in i]
        gap = float(s._gap[i])
        return StepDiagnostics(s.step - s._n + i + 1, s._prior[i].copy(), s._posterior[i].copy(),
                               float(s._eta[i]), None if np.isnan(gap) else gap)


@dataclass
class OnlineState:
    """Current readout and accumulated quantities of one online run.

    Single-owner and mutated sequentially by the step functions. Each step
    logs one row of preallocated columns (grown when a step function is
    called on its own): prior and posterior errors, eta, and the gap to
    ``w_ref`` (NaN without one).
    """

    readout: np.ndarray
    accumulated_gain: float = 0.0
    step: int = 0
    w_ref: np.ndarray | None = None

    def __post_init__(self):
        self._n = 0
        self._prior = self._posterior = np.empty((0, self.readout.shape[0]))
        self._eta = self._gap = np.empty(0)

    def _reserve(self, rows: int) -> None:
        """Resize every column to ``rows``, keeping the rows logged so far."""
        for name in ("_prior", "_posterior", "_eta", "_gap"):
            col = getattr(self, name)
            setattr(self, name, np.resize(col, (rows,) + col.shape[1:]))

    def _weight_gap(self) -> float:
        return np.nan if self.w_ref is None else float(np.linalg.norm(self.readout - self.w_ref))

    # read-only views: (n, L) errors before and after each step's update, (n,) etas
    prior_errors = property(lambda self: self._prior[: self._n])
    posterior_errors = property(lambda self: self._posterior[: self._n])
    etas = property(lambda self: self._eta[: self._n])
    diagnostics = property(lambda self: _Diagnostics(self), doc="Sequence of StepDiagnostics.")

    def weight_gap_series(self) -> np.ndarray:
        return self._gap[: self._n].copy()


def _check_samples(state: OnlineState, g: np.ndarray, y: np.ndarray) -> None:
    """Features ``(n, N + K)`` and targets ``(n, L)`` fit the readout and are finite."""
    if (g.shape[1], y.shape[1]) != state.readout.shape[::-1]:
        raise ContractViolationError(
            f"samples have {g.shape[1]} features and {y.shape[1]} targets, "
            f"expected {state.readout.shape[1]} and {state.readout.shape[0]}"
        )
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(y))):
        raise ContractViolationError("non-finite online sample")


# Update kernels: each moves ``state.readout`` for one checked sample with feature energy
# ``gg = g @ g`` and returns the prior error and eta; ``e[:, None] * g`` is ``np.outer(e, g)``.


def _basic(state: OnlineState, g, gg: float, y, a: float, c: float):
    prior = y - state.readout @ g
    state.readout = state.readout + (a * prior)[:, None] * g / (c + gg)
    return prior, a


def _decreasing(state: OnlineState, g, gg: float, y):
    state.accumulated_gain += float(gg)
    prior = y - state.readout @ g
    if state.accumulated_gain > 0.0:
        state.readout = state.readout + prior[:, None] * g / state.accumulated_gain
        return prior, 1.0
    return prior, 0.0


def _deadzone(state: OnlineState, g, gg: float, y, phi_n: float):
    prior = y - state.readout @ g
    if (np.abs(prior) > 2.0 * phi_n).any():
        state.readout = state.readout + prior[:, None] * g / (1.0 + gg)
        return prior, 1.0
    return prior, 0.0


def _step(state: OnlineState, kernel, g, y, *args) -> OnlineState:
    """Check one sample, apply ``kernel`` and log the step, growing the columns."""
    g, y = (np.asarray(v, dtype=float).ravel() for v in (g, y))
    _check_samples(state, g[None], y[None])
    prior, eta = kernel(state, g, g @ g, y, *args)
    i = state._n
    if i == len(state._eta):
        state._reserve(max(16, 2 * i))
    state._prior[i], state._posterior[i] = prior, y - state.readout @ g
    state._eta[i], state._gap[i] = eta, state._weight_gap()
    state._n, state.step = i + 1, state.step + 1
    return state


def project_step(state: OnlineState, g: np.ndarray, y: np.ndarray, a: float, c: float) -> OnlineState:
    """Damped projection: ``W += a e g^T / (c + g^T g)`` with prior error e."""
    return _step(state, _basic, g, y, a, c)


def project_step_decreasing(state: OnlineState, g: np.ndarray, y: np.ndarray) -> OnlineState:
    """Decreasing-gain projection dividing by the accumulated feature energy."""
    return _step(state, _decreasing, g, y)


def project_step_deadzone(
    state: OnlineState, g: np.ndarray, y: np.ndarray, phi_n: float
) -> OnlineState:
    """Gated projection: update only when some prior error exceeds ``2 phi``.

    The gate reads the error computable before the update (the target
    minus the previous weights' prediction); once open, the step is the
    basic projection with ``a = 1`` and ``c = 1``.
    """
    if phi_n < 0:
        raise ContractViolationError("phi must be a nonnegative number")
    return _step(state, _deadzone, g, y, phi_n)


def online_run(
    model: ReservoirModel,
    stream: SupervisedSequence,
    cfg: OnlineConfig,
    w_ref: np.ndarray | None = None,
) -> tuple[np.ndarray, OnlineState]:
    """Run the frozen reservoir over a stream, adapting only the readout.

    The first prediction uses the model's stored readout before any
    update; from the second step on, each revealed target updates the
    weights first and the step's prediction uses the updated weights.
    Returns all predictions ``(L, n)`` and the state with per-step
    diagnostics (including the gap to ``w_ref`` when supplied), equal bit
    for bit to a loop over the step functions after one check of the stream.
    """
    if w_ref is not None:
        w_ref = np.asarray(w_ref, dtype=float)
        if w_ref.shape != model.readout.shape:
            raise ContractViolationError("w_ref shape does not match the readout")
    seq = run_reservoir(model, stream.inputs)
    # one contiguous vector per step, so every product sees identical bytes
    features = np.ascontiguousarray(seq.extended.T)
    targets = np.ascontiguousarray(stream.targets.T)
    n = stream.n_steps
    state = OnlineState(readout=model.readout.copy(), w_ref=w_ref)
    _check_samples(state, features, targets)
    if cfg.mode == MODE_BASIC:
        kernel, args = _basic, [(cfg.a, cfg.c)] * n
    elif cfg.mode == MODE_DECREASING:
        kernel, args = _decreasing, [()] * n
    else:
        kernel, args = _deadzone, [(phi,) for phi in cfg.phi_series(n).tolist()]
    energies = _row_dots(features).tolist()
    state._reserve(n)
    priors, etas, gaps = state._prior, state._eta, state._gap
    preds = np.empty((n, model.n_outputs))
    # the first step only predicts, so its prior and posterior errors coincide
    np.matmul(state.readout, features[0], out=preds[0])
    priors[0], etas[0], gaps[:] = targets[0] - preds[0], 0.0, state._weight_gap()
    for t in range(1, n):
        g = features[t]
        priors[t], etas[t] = kernel(state, g, energies[t], targets[t], *args[t])
        np.matmul(state.readout, g, out=preds[t])
        if w_ref is not None:
            gaps[t] = state._weight_gap()
    np.subtract(targets, preds, out=state._posterior)
    state._n = state.step = n
    return np.ascontiguousarray(preds.T), state


def _row_dots(a: np.ndarray) -> np.ndarray:
    """``r @ r`` for each row ``r``: a stacked vector-vector ``matmul`` takes each
    row through the dot product of ``r @ r`` and ``np.linalg.norm(r)``, bit for bit."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def diagnostics_csv(
    stream: SupervisedSequence, preds: np.ndarray, state: OnlineState
) -> str:
    """Plot-ready per-step export of one online run, written column by column."""
    ell, n = stream.n_outputs, len(state.etas)
    header = ["n", *(f"target_{q + 1}" for q in range(ell))]
    header += [f"prediction_{q + 1}" for q in range(ell)]
    header += ["prior_err_norm", "posterior_err_norm", "eta", "weight_gap"]
    columns = [map(str, range(1, n + 1))]
    columns += [map(repr, row.tolist()) for row in (*stream.targets[:, :n], *preds[:, :n])]
    columns += [map(repr, np.sqrt(_row_dots(e)).tolist())
                for e in (state.prior_errors, state.posterior_errors)]
    columns.append(map(repr, state.etas.tolist()))
    columns.append("" if np.isnan(v) else repr(v) for v in state.weight_gap_series().tolist())
    lines = [",".join(header)] + [",".join(cells) for cells in zip(*columns)]
    return "\n".join(lines) + "\n"
