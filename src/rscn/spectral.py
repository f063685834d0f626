"""Spectral quantities and echo-state-property enforcement.

The echo state property (asymptotic independence of the reservoir state
from its initial condition) is guaranteed whenever the feedback matrix
has largest singular value below one, since the state map is then a
contraction for the tanh activation. Feedback is therefore scaled
by its largest singular value (computed by LAPACK's SVD), which
certifies the property unconditionally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError
from .model import ReservoirModel, _row_dots, check_finite_steps, input_drive


def max_singular_value(w: np.ndarray) -> float:
    """Largest singular value (spectral norm) of a square matrix.

    Taken from LAPACK's singular value decomposition, so it is accurate to
    rounding even when the top singular values are nearly tied, which is
    what makes contraction scaling by it a certain contraction.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ContractViolationError("matrix contains non-finite entries")
    if w.shape[0] == 0 or not np.any(w):
        return 0.0
    return float(np.linalg.norm(w, 2))


def scale_feedback(model: ReservoirModel, alpha: float) -> ReservoirModel:
    """Contract the feedback matrix to largest singular value ``alpha``.

    With ``alpha`` in (0, 1) the state map of the result is a certain
    contraction. A zero or subnormal one is returned unchanged.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractViolationError(f"alpha must lie in (0, 1), got {alpha}")
    sigma = max_singular_value(model.feedback)
    if sigma < np.finfo(float).tiny:  # alpha / sigma could overflow to inf
        warnings.warn("feedback matrix is zero or subnormal; contraction scaling is a no-op")
        return model
    return replace(model, feedback=model.feedback * (alpha / sigma))


@dataclass(frozen=True)
class EspReport:
    """Two-trajectory convergence diagnostics.

    ``steps_to_tol`` is the worst (largest) step index at which the state
    gap first fell below the tolerance, or None if some pair never did.
    """

    converged: bool
    max_final_gap: float
    steps_to_tol: int | None
    n_pairs: int
    tol: float


def _start_pairs(rng: np.random.Generator, n: int, n_pairs: int) -> np.ndarray:
    """Start states ``(n, 2 n_pairs)`` of ``esp_check``: first states, then second states.

    Each pair draws its first, then its second state uniformly on
    ``[-1, 1]^n``; a second state further than 2 from its first is pulled
    back along their difference to distance 2. One draw gives the values
    of the pair-by-pair draws, and ``_row_dots`` the gaps of
    ``np.linalg.norm``, bit for bit.
    """
    pairs = rng.uniform(-1.0, 1.0, size=(n_pairs, 2, n))
    x1, x2 = pairs[:, 0], pairs[:, 1]
    delta = x2 - x1
    gap0 = np.sqrt(_row_dots(delta))
    far = gap0 > 2.0
    x2[far] = x1[far] + delta[far] * (2.0 / gap0[far, None])
    return np.concatenate([x1, x2]).T.copy()


def esp_check(
    model: ReservoirModel,
    inputs: np.ndarray | None = None,
    n_pairs: int = 100,
    n_steps: int = 500,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> EspReport:
    """Empirical echo-state-property test.

    Runs the reservoir twice per pair from different initial states
    (gap at most 2) under a shared input sequence and reports whether
    every state gap fell below ``tol`` within ``n_steps``. All pairs run
    as one recursion of an ``(N, 2 n_pairs)`` state matrix (first states,
    then second states), reduced each step to the pairs' gaps, and
    ``max_final_gap`` is the gap after the last step. The recursion stops
    early, with every later gap exactly 0, once every pair's gap is
    exactly 0: the two halves are then equal, and equal states go
    through the same arithmetic, so they stay equal. The exit is taken
    only when the largest absolute row sum of the feedback plus the
    largest absolute drive, computed once, is below half the float
    maximum, so no later step could overflow either.
    """
    if n_pairs < 1 or n_steps < 1:
        raise ContractViolationError(f"esp_check needs n_pairs, n_steps >= 1, got {n_pairs}, {n_steps}")
    rng = rng if rng is not None else np.random.default_rng(0)
    drive = input_drive(model, rng.uniform(-1.0, 1.0, size=(model.n_inputs, n_steps))
                        if inputs is None else np.asarray(inputs, dtype=float)[:, :n_steps])
    if not drive.shape[1]:
        raise ContractViolationError("esp_check needs at least one input step")
    x, w_r = _start_pairs(rng, model.n_nodes, n_pairs), model.feedback
    # states lie in [-1, 1] after a step, so no later pre-activation can exceed this
    bounded = np.abs(w_r).sum(axis=1).max(initial=0.0) + np.abs(drive).max() < np.finfo(float).max / 2
    gaps = np.empty((drive.shape[1], n_pairs))
    for t, drive_t in enumerate(drive.T):
        x = np.tanh(w_r @ x + drive_t[:, None])
        gaps[t] = np.linalg.norm(x[:, :n_pairs] - x[:, n_pairs:], axis=0)
        if bounded and not gaps[t].any():  # every pair merged: equal states stay equal
            gaps[t + 1:] = 0.0
            break
    check_finite_steps(gaps)
    below = gaps < tol
    converged = bool(below.any(axis=0).all())
    return EspReport(converged=converged, max_final_gap=float(gaps[-1].max()),
                     steps_to_tol=int(below.argmax(axis=0).max()) + 1 if converged else None,
                     n_pairs=n_pairs, tol=tol)
