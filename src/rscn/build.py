"""Incremental reservoir construction under a supervisory inequality.

Growth starts from a small sparse random reservoir and repeatedly draws
pools of candidate nodes, keeping only candidates whose score certifies
that adding them cannot worsen the training residual. The feedback
matrix grows in a block-lower-triangular shape: an appended row feeds
from all earlier nodes and itself but never back into them, so the
existing state sequences stay valid and the post-washout training
residual norm is non-increasing across accepted nodes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .errors import ContractViolationError
from .model import (
    BLOCK_LOWER_TRIANGULAR,
    ReservoirModel,
    _chunked_recursion,
    _work,
    csv_text,
    run_reservoir,
)
from .seeding import substream
from .spectral import scale_feedback
from .tasks import SupervisedSequence

INFEASIBLE = -math.inf


@dataclass(frozen=True)
class BuildConfig:
    """Every knob of the growth loop.

    ``lambda_sequence`` is the ladder of weight scales tried for the
    random draws and ``r_sequence`` the contraction factors of the
    acceptance test. Scales are swept outermost. For one scale, one pool
    of ``g_max`` candidates is drawn and tested against the r's in order;
    the first r at which a candidate passes supplies the node. The paper
    draws a fresh pool for every r instead (see the README).

    ``esp_alpha`` fixes the echo-state handling. The initial block is
    contracted to largest singular value ``esp_alpha`` and each appended
    node's self-weight is clamped to at most ``esp_alpha`` in magnitude.
    Appended rows never feed back into earlier nodes, so the grown
    triangular part keeps its spectral radius below one, nothing is
    rescaled after growth starts, and old state sequences stay valid.
    The washout that scoring and the readout skip is the one carried by
    the training and validation sequences.
    """

    n_init: int = 5
    n_max: int = 100
    n_step: int = 6
    g_max: int = 100
    lambda_sequence: tuple[float, ...] = (0.5, 1.0, 5.0, 10.0, 30.0, 50.0, 100.0)
    r_sequence: tuple[float, ...] = (0.9, 0.99, 0.999, 0.9999, 0.99999)
    epsilon: float = 1e-6
    sparsity: float = 0.03
    esp_alpha: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_step < self.n_max:
            raise ContractViolationError("n_step must lie in [1, n_max)")
        if self.n_init < 1 or self.g_max < 0:
            raise ContractViolationError("n_init must be positive, g_max nonnegative")
        if self.n_init > self.n_max:
            raise ContractViolationError("n_init must not exceed n_max")
        for name in ("lambda_sequence", "r_sequence"):
            if not getattr(self, name):
                raise ContractViolationError(f"{name} must not be empty")
        if not all(r_i > 0 and r_i < 1 for r_i in self.r_sequence):
            raise ContractViolationError("every r must lie in (0, 1)")
        if not all(lam > 0 for lam in self.lambda_sequence):
            raise ContractViolationError("weight scales must be positive")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ContractViolationError("sparsity must lie in [0, 1]")
        if not 0.0 < self.esp_alpha < 1.0:
            raise ContractViolationError("esp_alpha must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class CandidateNode:
    """One randomly drawn node, its state sequence and scores.

    ``feedback_row`` has one entry per node after growth (couplings to
    the existing nodes followed by the self-weight). ``state_seq`` runs
    over the full training inputs; the old nodes' states do not depend
    on the new row, so they are not carried.
    """

    input_row: np.ndarray
    feedback_row: np.ndarray
    bias: float
    state_seq: np.ndarray
    score: float


@dataclass
class CandidatePool:
    """Outcome of one configuration attempt over an r-ladder at one scale.

    ``r`` is the first contraction factor at which the pool had an
    acceptable candidate and ``n_accepted`` counts the pool's acceptable
    candidates at that ``r``; both are ``None``/0 when none passed.
    """

    best: CandidateNode | None
    r: float | None
    n_accepted: int


@dataclass
class BuildHistory:
    """Per-size records of one growth run, why it stopped and its final size.

    ``pool_total`` counts the candidates drawn for a node: ``g_max`` per
    weight scale tried. ``stop`` is ``"tolerance"`` (the training residual
    met ``epsilon``), ``"cap"`` (``n_max`` nodes), ``"early_stop"`` (the
    validation stop rolled back ``n_step`` nodes) or ``"stall"`` (no
    candidate passed at any weight scale).
    """

    sizes: list[int] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    rs: list[float] = field(default_factory=list)
    xi_best: list[float] = field(default_factory=list)
    train_norms: list[float] = field(default_factory=list)
    val_norms: list[float] = field(default_factory=list)
    pool_accepted: list[int] = field(default_factory=list)
    pool_total: list[int] = field(default_factory=list)
    stop: str = ""
    final_size: int = 0

    def record(self, size, lam, r, xi, train_norm, val_norm, accepted, total):
        self.sizes.append(size)
        self.lambdas.append(lam)
        self.rs.append(r)
        self.xi_best.append(xi)
        self.train_norms.append(train_norm)
        self.val_norms.append(val_norm)
        self.pool_accepted.append(accepted)
        self.pool_total.append(total)

    def to_csv(self) -> str:
        return csv_text(
            "size,lambda,r,xi_best,train_norm,val_norm,pool_accepted,pool_total".split(","),
            [self.sizes, self.lambdas, self.rs, self.xi_best, self.train_norms,
             self.val_norms, self.pool_accepted, self.pool_total],
        )


@dataclass
class BuildState:
    """Mutable working state of one growth run (single-owner).

    Rows ``[:n]`` of the ``n_max``-row buffers are in use and never change
    once grown. State buffers keep column 0 at zero, so ``[:n, 1:]`` are
    the states and ``[:n, :-1]`` the states one step earlier. ``q`` (rows),
    ``r_inv`` and ``qt = Qᵀt`` factorise the post-washout training design;
    ``basis`` names each vector's design column (inputs, then nodes) and
    ``residual`` is the post-washout training residual ``(L, T)``.
    ``work`` holds the candidate search's work arrays, reused across calls.
    ``owed`` is the last node's unpaid validation run: its drive, formed in
    its ``val_states`` row, and its self-weight; ``None`` once paid.
    """

    cfg: BuildConfig
    train: SupervisedSequence
    val: SupervisedSequence
    n: int
    input_weights: np.ndarray
    feedback: np.ndarray
    biases: np.ndarray
    train_states: np.ndarray
    val_states: np.ndarray
    q: np.ndarray
    r_inv: np.ndarray
    qt: np.ndarray
    basis: list[int]
    residual: np.ndarray
    history: BuildHistory
    work: dict[str, np.ndarray] = field(default_factory=dict)
    owed: tuple[np.ndarray, float] | None = None

    def network(self, n: int, readout: np.ndarray) -> ReservoirModel:
        """The first ``n`` grown nodes with the given readout."""
        return ReservoirModel(
            self.input_weights[:n], self.feedback[:n, :n], self.biases[:n], readout,
            structure_tag=BLOCK_LOWER_TRIANGULAR, initial_block_size=self.cfg.n_init,
        )


def solve_output_weights(
    extended: np.ndarray, targets: np.ndarray, ridge: float = 0.0
) -> np.ndarray:
    """Least-squares readout: argmin over W of ||targets - W @ extended||.

    With ``ridge > 0``, ``ridge * I`` is added to the Gram matrix. A
    rank-deficient plain solve returns the minimum-norm solution.
    """
    x = np.asarray(extended, dtype=float)
    t = np.asarray(targets, dtype=float)
    if x.ndim != 2 or t.ndim != 2 or x.shape[1] != t.shape[1]:
        raise ContractViolationError(
            f"incompatible shapes {x.shape} and {t.shape}"
        )
    if x.shape[1] < 1:
        raise ContractViolationError("at least one sample is required")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ContractViolationError("non-finite values in the solve")
    if ridge > 0.0:
        gram = x @ x.T + ridge * np.eye(x.shape[0])
        return np.linalg.solve(gram, x @ t.T).T
    w, *_ = np.linalg.lstsq(x.T, t.T, rcond=None)
    return w.T


# a drive that sets tanh to exactly 1.0 whatever a |w| < 1 self-feedback adds (19 already does)
SATURATED = 40.0


def _pool_node_states(
    prev_states: np.ndarray,
    inputs: np.ndarray,
    pool: tuple[np.ndarray, np.ndarray, np.ndarray],
    work: dict[str, np.ndarray],
    owed: tuple[np.ndarray, float] | None = None,
) -> np.ndarray:
    """State sequences ``(pool size, n_steps)`` of one pool, from a zero state.

    ``pool`` holds the ``(input rows, feedback rows, biases)``. The drive
    is formed in the C-contiguous work array ``"drive"`` and turned into
    the states in place by :func:`_chunked_recursion`, which equals the
    plain step-by-step recursion bit for bit and takes its warm-up from
    the largest self-weight magnitude among the rows it runs.

    The work array has one row more than the pool. An accepted node's
    validation run ``owed = (drive, self-weight)``, no longer than
    ``n_steps``, rides in it and its states are written back into
    ``drive``. Past its end, or with nothing owed, the row's drive is
    ``SATURATED``: its state is 1.0 from any start, so a chunk's warm-up
    meets it at once and it never needs a fix-up.
    """
    w_in, w_r, b = pool
    rows = _work(work, "drive", (b.size + 1, inputs.shape[1]))
    drive, spare = rows[:-1], rows[-1]
    np.matmul(w_in, inputs, out=drive)
    drive += b[:, None]
    if prev_states.shape[0]:
        drive += np.matmul(w_r[:, :-1], prev_states, out=_work(work, "prod", drive.shape))
    run, self_w = owed or (spare[:0], 0.0)
    spare[:run.size] = run
    spare[run.size:] = SATURATED
    weights = np.append(w_r[:, -1], self_w)
    _chunked_recursion(rows, weights, work)
    run[:] = spare[:run.size]
    return drive


def _pool_scores(
    residual: np.ndarray, g_eff: np.ndarray, rs: Sequence[float], n: int
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The first r of ``rs`` with a passer, with its scores and passers.

    At each r, ``mu = (1 - r) / (n + 1)`` and output ``q`` scores
    ``<e_q, g>^2 / <g, g> - (1 - r - mu) ||e_q||^2``; a candidate passes
    when every output scores nonnegative. Returns that r, the total
    scores ``(n_pool,)`` and the passer mask; a zero-energy candidate
    scores ``INFEASIBLE``. ``None`` when no r has a passer.
    """
    gg = np.einsum("gt,gt->g", g_eff, g_eff)
    eg = residual @ g_eff.T
    ee = np.einsum("qt,qt->q", residual, residual)
    feasible = gg > 0.0
    gain = eg**2 / np.where(feasible, gg, 1.0)
    gain[:, ~feasible] = INFEASIBLE
    for r in rs:
        per = gain - (1.0 - r - (1.0 - r) / (n + 1)) * ee[:, None]
        ok = np.all(per >= 0.0, axis=0)
        if ok.any():
            return r, per.sum(axis=0), ok
    return None


def configure_node(state: BuildState, lam: float, rng: np.random.Generator) -> CandidatePool:
    """Draw one pool at weight scale ``lam`` and test it against the build's r-ladder.

    The pool size ``g_max``, the r-ladder and the self-weight clamp come
    from ``state.cfg`` and the inputs from ``state.train``. The pool's
    candidates are drawn in a fixed order (input rows, then feedback
    rows, then biases); each self-weight is clamped to
    ``[-esp_alpha, esp_alpha]``. One time-chunked state recursion
    runs over the whole pool (:func:`_pool_node_states`), which is then
    scored at each r in order (see :func:`_pool_scores`). The same
    recursion pays the last accepted node's owed validation run, unless
    the validation split is the longer one; then :func:`_settle` pays it
    first. The first r with a passer supplies the node:
    among its passers the largest total score wins, first drawn winning
    ties. A result without a node tells the caller to advance the weight
    scale.
    """
    cfg, train, n = state.cfg, state.train, state.n
    g_max, alpha = cfg.g_max, cfg.esp_alpha
    w_in = rng.uniform(-lam, lam, size=(g_max, train.n_inputs))
    w_r = rng.uniform(-lam, lam, size=(g_max, n + 1))
    b = rng.uniform(-lam, lam, size=g_max)
    np.clip(w_r[:, -1], -alpha, alpha, out=w_r[:, -1])
    if state.val.n_steps > train.n_steps:
        _settle(state)
    g = _pool_node_states(
        state.train_states[:n, :-1], train.inputs, (w_in, w_r, b), state.work, state.owed
    )
    state.owed = None
    found = _pool_scores(state.residual, g[:, train.washout:], cfg.r_sequence, n)
    if found is None:
        return CandidatePool(None, None, 0)
    r, scores, ok = found
    ok_idx = np.nonzero(ok)[0]
    best = ok_idx[int(np.argmax(scores[ok_idx]))]
    cand = CandidateNode(
        input_row=w_in[best].copy(),
        feedback_row=w_r[best].copy(),
        bias=float(b[best]),
        state_seq=g[best].copy(),
        score=float(scores[best]),
    )
    return CandidatePool(cand, r, ok_idx.size)


def _readout(state: BuildState, n: int) -> np.ndarray:
    """Least-squares readout ``(L, n + K)`` of the first ``n`` nodes,
    states first, from ``R⁻¹Qᵀt``.

    The basis is in design-column order (inputs, then nodes), so the
    vectors of the columns below ``K + n`` factorise that prefix; a column
    without a vector gets weight zero. Design column ``c`` is readout
    column ``(c − K) mod (K + n)``.
    """
    k = state.train.n_inputs
    p = bisect_left(state.basis, k + n)
    w = np.zeros((state.train.n_outputs, k + n))
    w[:, (np.array(state.basis[:p], dtype=int) - k) % (k + n)] = (
        state.r_inv[:p, :p] @ state.qt[:p]).T
    return w


def _norms(state: BuildState) -> tuple[float, float]:
    """Post-washout training and validation residual norms of the readout."""
    n, w_v, w = state.n, state.val.washout, _readout(state, state.n)
    val_resid = state.val.targets[:, w_v:] - w[:, :n] @ state.val_states[:n, 1 + w_v:]
    val_resid -= w[:, n:] @ state.val.inputs[:, w_v:]
    return float(np.linalg.norm(state.residual)), float(np.linalg.norm(val_resid))


def _append_column(state: BuildState, column: int, x: np.ndarray) -> None:
    """Extend the factorisation by design column ``column`` (post-washout ``x``).

    Two passes of classical Gram–Schmidt (Golub & Van Loan, *Matrix
    Computations*, §5.2) give the new basis vector ``q``, a column of
    ``R⁻¹`` and a row of ``Qᵀt``; the residual loses its part along
    ``q``. A column whose part outside the basis is at rounding level (a
    repeated input channel, say) adds no vector and keeps weight zero.
    """
    a = np.array(x)
    tol = a.size * np.finfo(float).eps * np.linalg.norm(a)
    p = len(state.basis)
    q = state.q[:p]
    c = q @ a
    a -= c @ q
    c2 = q @ a
    a -= c2 @ q
    rho = float(np.linalg.norm(a))
    if rho <= tol:
        return
    q_new = np.divide(a, rho, out=state.q[p])
    state.r_inv[:p, p] = state.r_inv[:p, :p] @ (c + c2) / -rho
    state.r_inv[p, p] = 1.0 / rho
    e_q = state.residual @ q_new
    state.residual -= e_q[:, None] * q_new
    state.qt[p] = e_q
    state.basis.append(column)


def draw_reservoir(
    rng: np.random.Generator, n: int, k: int, lam: float, sparsity: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Input weights ``(n, k)``, feedback ``(n, n)`` and biases, uniform on ``[-lam, lam]``.

    Feedback entries are nonzero with probability ``sparsity``. Seeded
    models rely on the draw order: input weights, biases, mask, values.
    """
    w_in = rng.uniform(-lam, lam, size=(n, k))
    b = rng.uniform(-lam, lam, size=n)
    mask = rng.random(size=(n, n)) < sparsity
    return w_in, np.where(mask, rng.uniform(-lam, lam, size=(n, n)), 0.0), b


def init_network(
    train: SupervisedSequence,
    val: SupervisedSequence,
    cfg: BuildConfig,
    rng: np.random.Generator,
) -> BuildState:
    """Random initial reservoir of size ``n_init`` with a factorised readout.

    The reservoir is drawn by :func:`draw_reservoir` on the first weight
    scale. The initial block is contracted to largest singular value
    ``esp_alpha`` before any state is computed.
    """
    if train.n_inputs != val.n_inputs or train.n_outputs != val.n_outputs:
        raise ContractViolationError("train and val must share channel counts")
    n0, k, ell = cfg.n_init, train.n_inputs, train.n_outputs
    w_in, w_r, b = draw_reservoir(rng, n0, k, cfg.lambda_sequence[0], cfg.sparsity)
    model = ReservoirModel(
        w_in, w_r, b, np.zeros((ell, n0 + k)),
        structure_tag=BLOCK_LOWER_TRIANGULAR, initial_block_size=n0,
    )
    if model.feedback.any():  # an all-zero sparse draw is routine at 3% density
        model = scale_feedback(model, cfg.esp_alpha)
    cap, w_t = cfg.n_max, train.washout
    state = BuildState(
        cfg=cfg, train=train, val=val, n=n0,
        input_weights=np.zeros((cap, k)), feedback=np.zeros((cap, cap)), biases=np.zeros(cap),
        train_states=np.zeros((cap, train.n_steps + 1)),
        val_states=np.zeros((cap, val.n_steps + 1)),
        q=np.zeros((cap + k, train.n_steps - w_t)), r_inv=np.zeros((cap + k, cap + k)),
        qt=np.zeros((cap + k, ell)), basis=[], residual=np.array(train.targets[:, w_t:]),
        history=BuildHistory(),
    )
    state.input_weights[:n0] = model.input_weights
    state.feedback[:n0, :n0] = model.feedback
    state.biases[:n0] = model.biases
    state.train_states[:n0, 1:] = run_reservoir(model, train.inputs).states
    state.val_states[:n0, 1:] = run_reservoir(model, val.inputs).states
    design = np.vstack([train.inputs, state.train_states[:n0, 1:]])
    for column, x in enumerate(design[:, w_t:]):
        _append_column(state, column, x)
    train_norm, val_norm = _norms(state)
    state.history.record(n0, math.nan, math.nan, math.nan, train_norm, val_norm, 0, 0)
    return state


def _accept_node(state: BuildState, cand: CandidateNode) -> None:
    """Append the candidate's row, its training states and its design column.

    The old rows are untouched. The node feeds only from earlier nodes,
    whose validation states are paid by now, so its validation drive is
    formed here in its ``val_states`` row and left owed with its
    self-weight; the kernel later turns it into the states in place.
    """
    n = state.n
    state.input_weights[n] = cand.input_row
    state.feedback[n, :n + 1] = cand.feedback_row
    state.biases[n] = cand.bias
    state.train_states[n, 1:] = cand.state_seq
    run = state.val_states[n, 1:]
    np.add(cand.input_row @ state.val.inputs, cand.bias, out=run)
    run += cand.feedback_row[:n] @ state.val_states[:n, :-1]
    state.n, state.owed = n + 1, (run, float(cand.feedback_row[n]))
    _append_column(state, state.train.n_inputs + n, cand.state_seq[state.train.washout:])


def _settle(state: BuildState) -> None:
    """Pay the owed validation run, if any, alone on the kernel."""
    if state.owed is not None:
        run, self_w = state.owed
        _chunked_recursion(run[None], np.array([self_w]), {})
        state.owed = None


def early_stop_triggered(val_norms: list[float], n_step: int) -> bool:
    """True when the last ``n_step + 1`` validation norms never improve."""
    if len(val_norms) < n_step + 1:
        return False
    tail = val_norms[-(n_step + 1):]
    return all(tail[i] <= tail[i + 1] for i in range(n_step))


def build_rscn(
    train: SupervisedSequence, val: SupervisedSequence, cfg: BuildConfig
) -> tuple[ReservoirModel, BuildHistory]:
    """Grow a reservoir until tolerance, size cap, or validation stop.

    Candidate search sweeps the weight-scale ladder, trying the whole
    r-ladder at each scale in one :func:`configure_node` call and moving
    on when its pool has no passer. When the validation residual has not
    improved over the last ``n_step + 1`` sizes, growth rolls back
    ``n_step`` nodes and returns. Exhausting every (scale, r) pair stops
    growth as a stall and returns the current model rather than raising.
    ``history.stop`` names the exit taken. The returned model's readout
    comes from the kept factorisation (:func:`_readout`), the same one
    behind every recorded norm.

    An accepted node's validation states come from the next node's first
    pool recursion, so its history row is recorded, and the early stop
    checked, after that search; the search is discarded if growth stops
    there. The last node's run is paid alone.
    """
    state = init_network(train, val, cfg, substream(cfg.seed, "init"))
    rng_cand = substream(cfg.seed, "candidates")
    history, owed_row = state.history, None
    while not (float(np.linalg.norm(state.residual)) <= cfg.epsilon or state.n >= cfg.n_max):
        pool_total = 0
        for lam in cfg.lambda_sequence:
            pool = configure_node(state, lam, rng_cand)
            pool_total += cfg.g_max
            if pool.best is not None:
                break
        if owed_row is not None:  # the first pool paid the last node's validation run
            owed_row(*_norms(state))
        if early_stop_triggered(history.val_norms, cfg.n_step):
            history.stop = "early_stop"
            break
        if pool.best is None:
            history.stop = "stall"
            break
        _accept_node(state, pool.best)
        owed_row = partial(
            history.record, state.n, lam, pool.r, pool.best.score,
            accepted=pool.n_accepted, total=pool_total,
        )
    else:
        history.stop = "cap" if state.n >= cfg.n_max else "tolerance"
    if state.owed is not None:
        _settle(state)
        owed_row(*_norms(state))
    n = history.final_size = state.n - (cfg.n_step if history.stop == "early_stop" else 0)
    return state.network(n, _readout(state, n)), history
