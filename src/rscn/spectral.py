"""Spectral quantities and echo-state-property enforcement.

The echo state property (asymptotic independence of the reservoir state
from its initial condition) is guaranteed whenever the feedback matrix
has largest singular value below one, since the state map is then a
contraction for tanh/sigmoid activations. Feedback is therefore scaled
by its largest singular value (computed by LAPACK's SVD), which
certifies the property unconditionally. The spectral radius, which that
value upper-bounds, is offered as a diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, EstimationFailureError
from .model import BLOCK_LOWER_TRIANGULAR, GENERAL, ReservoirModel, run_reservoir

SIGMA_MAX = "sigma_max"
EIGEN = "eigen"


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


def _eigen_radius(a: np.ndarray) -> float:
    """Spectral radius of a small dense matrix via shifted-QR eigenvalues.

    Backed by LAPACK's Hessenberg-plus-shifted-QR solver: the unshifted
    iteration stalls whenever several eigenvalues share one magnitude
    (e.g. a ring's circulant spectrum), which the matrices here routinely
    have. A solver non-convergence is surfaced as an estimation failure
    carrying the singular-value upper bound.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] == 0:
        return 0.0
    if a.shape[0] == 1:
        return abs(float(a[0, 0]))
    if not np.any(a):
        return 0.0
    try:
        eigenvalues = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as err:
        raise EstimationFailureError(
            f"eigenvalue iteration did not converge: {err}",
            best_bound=max_singular_value(a),
        ) from None
    return float(np.max(np.abs(eigenvalues)))


def spectral_radius(
    w: np.ndarray,
    structure_tag: str = GENERAL,
    initial_block_size: int = 0,
    estimator: str = SIGMA_MAX,
) -> float:
    """Spectral radius estimate of a feedback matrix.

    For the grown lower-triangular structure the spectrum is the initial
    block's spectrum plus the appended diagonal entries, so only the
    small block needs an estimator. ``estimator`` selects how that block
    (or a general matrix) is handled: ``"sigma_max"`` returns the safe
    singular-value upper bound, ``"eigen"`` the literal spectral radius.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got {w.shape}")
    if estimator not in (SIGMA_MAX, EIGEN):
        raise ContractViolationError(f"unknown estimator {estimator!r}")
    if structure_tag == BLOCK_LOWER_TRIANGULAR:
        n0 = min(initial_block_size, w.shape[0])
        block = w[:n0, :n0]
        block_rho = (
            max_singular_value(block) if estimator == SIGMA_MAX
            else _eigen_radius(block)
        )
        appended = np.abs(np.diag(w)[n0:])
        tail = float(appended.max()) if appended.size else 0.0
        return max(block_rho, tail)
    if estimator == SIGMA_MAX:
        return max_singular_value(w)
    return _eigen_radius(w)


def scale_feedback(model: ReservoirModel, alpha: float) -> ReservoirModel:
    """Contract the feedback matrix to largest singular value ``alpha``.

    With ``alpha`` in (0, 1) the state map of the result is a certain
    contraction. A zero feedback matrix is returned unchanged.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractViolationError(f"alpha must lie in (0, 1), got {alpha}")
    sigma = max_singular_value(model.feedback)
    if sigma == 0.0:
        warnings.warn("feedback matrix is zero; contraction scaling is a no-op")
        return model
    return model.with_feedback(model.feedback * (alpha / sigma))


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
    every state gap fell below ``tol`` within ``n_steps``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if inputs is None:
        inputs = rng.uniform(-1.0, 1.0, size=(model.n_inputs, n_steps))
    else:
        inputs = np.asarray(inputs, dtype=float)[:, :n_steps]
    n = model.n_nodes
    worst_step = 0
    worst_final = 0.0
    all_converged = True
    for _ in range(n_pairs):
        x1 = rng.uniform(-1.0, 1.0, size=n)
        x2 = rng.uniform(-1.0, 1.0, size=n)
        delta = x2 - x1
        gap0 = np.linalg.norm(delta)
        if gap0 > 2.0:
            x2 = x1 + delta * (2.0 / gap0)
        s1 = run_reservoir(model, inputs, x1)
        s2 = run_reservoir(model, inputs, x2)
        gaps = np.linalg.norm(s1.states - s2.states, axis=0)
        below = np.nonzero(gaps < tol)[0]
        if below.size == 0:
            all_converged = False
        else:
            worst_step = max(worst_step, int(below[0]) + 1)
        worst_final = max(worst_final, float(gaps[-1]))
    return EspReport(
        converged=all_converged,
        max_final_gap=worst_final,
        steps_to_tol=worst_step if all_converged else None,
        n_pairs=n_pairs,
        tol=tol,
    )
