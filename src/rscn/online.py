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
from .model import ReservoirModel, _row_dots, csv_text, run_reservoir
from .tasks import SupervisedSequence

MODE_BASIC = "basic"
MODE_DECREASING = "decreasing_gain"
MODE_DEAD_ZONE = "dead_zone"
_MODES = (MODE_BASIC, MODE_DECREASING, MODE_DEAD_ZONE)


@dataclass(frozen=True)
class OnlineConfig:
    """Update-rule selection and its constants.

    ``a`` in (0, 1] damps the basic step and ``c > 0`` guards its
    denominator. ``phi``, one nonnegative number, bounds the noise for
    the dead zone. Each step function builds its rule's config, so these
    are the constants' only checks.
    """

    mode: str = MODE_BASIC
    a: float = 1.0
    c: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ContractViolationError(f"unknown online mode {self.mode!r}")
        if self.mode == MODE_BASIC and not (0.0 < self.a <= 1.0 and self.c > 0.0):
            raise ContractViolationError("basic mode needs 0 < a <= 1 and c > 0")
        if not (np.ndim(self.phi) == 0 and self.phi >= 0):
            raise ContractViolationError("phi must be a nonnegative number")


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
        return StepDiagnostics(i + 1, s._prior[i].copy(), s._posterior[i].copy(),
                               float(s._eta[i]), None if np.isnan(gap) else gap)


@dataclass
class OnlineState:
    """Current readout and accumulated quantities of one online run.

    Single-owner and mutated sequentially, one step or one block of steps
    at a time. Each step logs one row of preallocated columns (grown when
    a step function is called on its own): prior and posterior errors,
    eta, and the gap to ``w_ref`` (NaN without one).
    """

    readout: np.ndarray
    accumulated_gain: float = 0.0
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

    step = property(lambda self: self._n, doc="Steps taken so far, one logged row each.")
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


BLOCK = 64  # steps per block of online_run; 32 times alike, 128 slower (its solve costs 7x)
_BELOW = np.tri(BLOCK, k=-1)  # strictly lower triangle of a block's Gram matrix


def _block(state: OnlineState, cfg: OnlineConfig, g, y, gg) -> np.ndarray:
    """Apply ``cfg``'s rule to the checked rows ``g (B, N + K)``, ``y (B, L)``.

    Each step ``W += kappa e g^T`` is linear in the previous weights, so
    the block's prior errors ``p`` solve ``(I + tril(G G^T, -1) diag(kappa))
    p = Y - G W^T`` and the weights move once by ``(kappa p)^T G``: the
    step-by-step loop in exact arithmetic. ``gg`` holds each row's
    ``g @ g``. Logs the B steps and returns their predictions ``(B, L)``.
    """
    w0 = state.readout
    p = y - np.matmul(w0, g[:, :, None])[:, :, 0]  # each row's residual is y - W @ g bit for bit
    if cfg.mode == MODE_DEAD_ZONE:
        kappa = _open_gates(p, g, gg, 2.0 * cfg.phi)
        etas = (kappa > 0.0) * 1.0
    else:
        if cfg.mode == MODE_BASIC:
            kappa, etas = cfg.a / (cfg.c + gg), np.full(len(gg), float(cfg.a))
        else:
            # a sequential sum, so each gain is the step loop's bit for bit
            gain = np.cumsum(np.concatenate(([state.accumulated_gain], gg)))[1:]
            state.accumulated_gain = float(gain[-1])
            etas = (gain > 0.0) * 1.0
            kappa = np.divide(1.0, gain, out=np.zeros_like(gain), where=gain > 0.0)
        if len(g) > 1:
            m = (g @ g.T) * kappa * _BELOW[: len(g), : len(g)]
            np.fill_diagonal(m, 1.0)
            p = np.linalg.solve(m, p)
    kp = kappa[:, None] * p
    if kappa.any():
        state.readout = w0 + kp.T @ g
    preds = y - p + gg[:, None] * kp
    i, j = state._n, state._n + len(g)
    state._prior[i:j], state._posterior[i:j], state._eta[i:j] = p, y - preds, etas
    if state.w_ref is None:
        state._gap[i:j] = np.nan
    else:
        steps = np.cumsum(kp[:, :, None] * g[:, None, :], axis=0)
        state._gap[i:j] = np.linalg.norm(w0 - state.w_ref + steps, axis=(1, 2))
    state._n = j
    return preds


def _open_gates(p, g, gg, bound) -> np.ndarray:
    """Dead-zone gains of one block, deciding the gates in step order.

    ``p`` enters as the residuals against the block's first weights. Each
    open gate's correction is subtracted from the later rows at once, so
    ``p`` leaves as the prior errors.
    """
    kappa = np.zeros(len(g))
    t = 0
    while True:
        opened = np.flatnonzero((np.abs(p[t:]) > bound).any(axis=1))
        if not opened.size:
            return kappa
        t += opened[0]
        kappa[t] = 1.0 / (1.0 + gg[t])
        p[t + 1:] -= (g[t + 1:] @ g[t])[:, None] * (kappa[t] * p[t])
        t += 1


def _step(state: OnlineState, g, y, cfg: OnlineConfig) -> OnlineState:
    """Check one sample and apply ``cfg``'s rule to it as a one-row block, growing the columns."""
    g, y = (np.asarray(v, dtype=float).reshape(1, -1) for v in (g, y))
    _check_samples(state, g, y)
    if state._n == len(state._eta):
        state._reserve(max(16, 2 * state._n))
    _block(state, cfg, g, y, _row_dots(g))
    return state


def project_step(state: OnlineState, g: np.ndarray, y: np.ndarray, a: float, c: float) -> OnlineState:
    """Damped projection: ``W += a e g^T / (c + g^T g)`` with prior error e."""
    return _step(state, g, y, OnlineConfig(MODE_BASIC, a=a, c=c))


def project_step_decreasing(state: OnlineState, g: np.ndarray, y: np.ndarray) -> OnlineState:
    """Decreasing-gain projection dividing by the accumulated feature energy."""
    return _step(state, g, y, OnlineConfig(MODE_DECREASING))


def project_step_deadzone(
    state: OnlineState, g: np.ndarray, y: np.ndarray, phi_n: float
) -> OnlineState:
    """Gated projection: update only when some prior error exceeds ``2 phi``.

    The gate reads the error computable before the update (the target
    minus the previous weights' prediction); once open, the step is the
    basic projection with ``a = 1`` and ``c = 1``.
    """
    return _step(state, g, y, OnlineConfig(MODE_DEAD_ZONE, phi=phi_n))


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
    The updates are computed in blocks of ``BLOCK`` (64) steps, so the
    results equal a loop over the step functions up to rounding, not bit
    for bit; the etas, the dead zone's gate decisions and the accumulated
    gain are the loop's. Returns all predictions ``(L, n)`` and the state
    with per-step diagnostics (including the gap to ``w_ref`` when
    supplied).
    """
    if w_ref is not None:
        w_ref = np.asarray(w_ref, dtype=float)
        if w_ref.shape != model.readout.shape:
            raise ContractViolationError("w_ref shape does not match the readout")
    seq = run_reservoir(model, stream.inputs)
    # contiguous rows, so each block's residuals are its rows' ``W @ g`` bit for bit
    features = np.ascontiguousarray(seq.extended.T)
    targets = np.ascontiguousarray(stream.targets.T)
    n = stream.n_steps
    state = OnlineState(readout=model.readout.copy(), w_ref=w_ref)
    _check_samples(state, features, targets)
    energies = _row_dots(features)
    state._reserve(n)
    preds = np.empty((n, model.n_outputs))
    # the first step only predicts, so its prior and posterior errors coincide
    np.matmul(state.readout, features[0], out=preds[0])
    state._prior[0] = state._posterior[0] = targets[0] - preds[0]
    state._eta[0], state._gap[0] = 0.0, state._weight_gap()
    state._n = 1
    for t in range(1, n, BLOCK):
        b = slice(t, t + BLOCK)
        preds[b] = _block(state, cfg, features[b], targets[b], energies[b])
    return np.ascontiguousarray(preds.T), state


def diagnostics_csv(
    stream: SupervisedSequence, preds: np.ndarray, state: OnlineState
) -> str:
    """Plot-ready per-step export of one online run, written column by column."""
    ell, n = stream.n_outputs, len(state.etas)
    header = ["n", *(f"target_{q + 1}" for q in range(ell))]
    header += [f"prediction_{q + 1}" for q in range(ell)]
    header += ["prior_err_norm", "posterior_err_norm", "eta", "weight_gap"]
    errors = [np.sqrt(_row_dots(e)) for e in (state.prior_errors, state.posterior_errors)]
    gaps = ["" if v != v else repr(v) for v in state.weight_gap_series().tolist()]  # NaN: no w_ref
    return csv_text(header, [range(1, n + 1), *stream.targets[:, :n], *preds[:, :n],
                             *errors, state.etas, gaps])
