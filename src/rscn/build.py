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
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError
from .model import (
    BLOCK_LOWER_TRIANGULAR,
    ReservoirModel,
    StateSequence,
    activation_fn,
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
    of ``g_max`` candidates is drawn per r, all pools are run through one
    state recursion, and the first pool (in ladder order) with an
    acceptable candidate supplies the node; the draws of later pools
    are taken back, so the random stream is the same as drawing and
    testing the pools one at a time.

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
    ridge: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.n_step < self.n_max:
            raise ContractViolationError("n_step must be smaller than n_max")
        if self.n_init < 1 or self.g_max < 0:
            raise ContractViolationError("n_init must be positive, g_max nonnegative")
        if not all(r_i > 0 and r_i < 1 for r_i in self.r_sequence):
            raise ContractViolationError("every r must lie in (0, 1)")
        if not all(lam > 0 for lam in self.lambda_sequence):
            raise ContractViolationError("weight scales must be positive")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ContractViolationError("sparsity must lie in [0, 1]")
        if not 0.0 < self.esp_alpha < 1.0:
            raise ContractViolationError("esp_alpha must lie in (0, 1)")
        if self.ridge < 0:
            raise ContractViolationError("ridge must be nonnegative")


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
    per_output_scores: np.ndarray


@dataclass
class CandidatePool:
    """Outcome of one configuration attempt over an r-ladder at one scale.

    ``r`` is the contraction factor of the pool that supplied ``best``
    and ``n_accepted`` counts that pool's acceptable candidates; both are
    ``None``/0 when no pool passed. ``n_drawn`` counts the candidates of
    every pool up to and including the passing one (all pools if none
    passed).
    """

    best: CandidateNode | None
    r: float | None
    n_accepted: int
    n_drawn: int


@dataclass
class BuildHistory:
    """Per-size records of one growth run plus terminal flags."""

    sizes: list[int] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    rs: list[float] = field(default_factory=list)
    xi_best: list[float] = field(default_factory=list)
    train_norms: list[float] = field(default_factory=list)
    val_norms: list[float] = field(default_factory=list)
    pool_accepted: list[int] = field(default_factory=list)
    pool_total: list[int] = field(default_factory=list)
    stalled: bool = False
    early_stopped: bool = False
    rolled_back_to: int | None = None
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
        lines = ["size,lambda,r,xi_best,train_norm,val_norm,pool_accepted,pool_total"]
        for i in range(len(self.sizes)):
            lines.append(
                f"{self.sizes[i]},{self.lambdas[i]!r},{self.rs[i]!r},"
                f"{self.xi_best[i]!r},{self.train_norms[i]!r},"
                f"{self.val_norms[i]!r},{self.pool_accepted[i]},{self.pool_total[i]}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class BuildState:
    """Mutable working state of one growth run (single-owner)."""

    cfg: BuildConfig
    train: SupervisedSequence
    val: SupervisedSequence
    model: ReservoirModel
    train_seq: StateSequence
    val_seq: StateSequence
    residual: np.ndarray
    snapshots: deque
    history: BuildHistory


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


def score_candidate(
    residual: np.ndarray, g: np.ndarray, r: float, mu: float
) -> tuple[float, np.ndarray]:
    """Supervisory score of one candidate state sequence.

    Per output ``q`` the score is ``<e_q, g>^2 / <g, g>`` minus
    ``(1 - r - mu) * ||e_q||^2``; the total is their sum. A candidate
    whose state sequence has zero energy is infeasible and scores -inf.
    """
    e = np.atleast_2d(np.asarray(residual, dtype=float))
    g = np.asarray(g, dtype=float).ravel()
    if e.shape[1] != g.size:
        raise ContractViolationError(
            f"residual covers {e.shape[1]} steps but g covers {g.size}"
        )
    gg = float(g @ g)
    if gg == 0.0:
        per = np.full(e.shape[0], INFEASIBLE)
        return INFEASIBLE, per
    coef = 1.0 - r - mu
    per = (e @ g) ** 2 / gg - coef * np.einsum("qt,qt->q", e, e)
    return float(per.sum()), per


def _shifted_states(states: np.ndarray) -> np.ndarray:
    """Matrix whose column ``t`` is the state at ``t - 1``, from a zero start."""
    return np.column_stack([np.zeros(states.shape[0]), states[:, :-1]])


def _node_states(
    prev_states: np.ndarray,
    inputs: np.ndarray,
    input_row: np.ndarray,
    feedback_row: np.ndarray,
    bias: float,
    act: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """State sequence of one appended node, starting from zero."""
    drive = input_row @ inputs + bias
    if prev_states.shape[0]:
        drive = drive + feedback_row[:-1] @ prev_states
    self_w = feedback_row[-1]
    g = np.empty(inputs.shape[1])
    gp = 0.0
    for t in range(g.size):
        gp = float(act(drive[t] + self_w * gp))
        g[t] = gp
    return g


def candidate_states(
    state: BuildState, cand: CandidateNode, inputs: np.ndarray
) -> np.ndarray:
    """New-node state sequence over the run's training inputs.

    Valid because an appended row leaves the existing rows untouched:
    the old states are read from the current training sequence rather
    than recomputed.
    """
    inputs = np.asarray(inputs, dtype=float)
    n = state.model.n_nodes
    if cand.feedback_row.shape != (n + 1,):
        raise ContractViolationError(
            f"feedback_row has length {cand.feedback_row.size}, expected {n + 1}"
        )
    if inputs.shape != state.train.inputs.shape:
        raise ContractViolationError(
            "inputs must be the training inputs this build state was made from"
        )
    prev = _shifted_states(state.train_seq.states)
    act = activation_fn(state.model.activation)
    return _node_states(prev, inputs, cand.input_row, cand.feedback_row, cand.bias, act)


def _pool_node_states(
    prev_states: np.ndarray,
    inputs: np.ndarray,
    pools: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    act: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Time-major state sequences ``(n_steps, n_pool)`` of stacked pools.

    ``pools`` holds ``(input rows, feedback rows, biases)`` per pool;
    the columns of the result follow the pools' rows in order. Each
    pool's drive comes from its own matmuls (so its bits do not depend
    on the other pools) and is written transposed into one buffer,
    which the recursion, starting from a zero state, then updates in
    place one contiguous row per step.
    """
    n_steps = inputs.shape[1]
    width = sum(b.size for _, _, b in pools)
    g = np.empty((n_steps, width))
    self_w = np.empty(width)
    col = 0
    for w_in, w_r, b in pools:
        drive = w_in @ inputs + b[:, None]
        if prev_states.shape[0]:
            drive += w_r[:, :-1] @ prev_states
        g[:, col:col + b.size] = drive.T
        self_w[col:col + b.size] = w_r[:, -1]
        col += b.size
    gp = np.zeros(width)
    fed = np.empty(width)
    # per-step call overhead dominates, so outputs are passed positionally
    for row in g:
        np.multiply(self_w, gp, fed)
        np.add(row, fed, row)
        act(row, row)
        gp = row
    return g


def _pool_scores(
    residual: np.ndarray, g_eff: np.ndarray, r: float, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """Scores (n_pool,) and per-output scores (L, n_pool) for a pool."""
    gg = np.einsum("gt,gt->g", g_eff, g_eff)
    eg = residual @ g_eff.T
    ee = np.einsum("qt,qt->q", residual, residual)
    coef = 1.0 - r - mu
    feasible = gg > 0.0
    safe_gg = np.where(feasible, gg, 1.0)
    per = eg**2 / safe_gg - coef * ee[:, None]
    per[:, ~feasible] = INFEASIBLE
    scores = np.where(feasible, per.sum(axis=0), INFEASIBLE)
    return scores, per


def configure_node(
    state: BuildState,
    inputs: np.ndarray,
    lam: float,
    rs: Sequence[float],
    g_max: int,
    rng: np.random.Generator,
) -> CandidatePool:
    """Try the r-ladder ``rs`` at weight scale ``lam``; return the first pass.

    One pool of ``g_max`` candidates is drawn per r, pool after pool, in
    a fixed order within each (input rows, then feedback rows, then
    biases); each self-weight is clamped to ``[-esp_alpha, esp_alpha]``.
    All pools share one state recursion. Pool ``j`` is then scored with
    its own ``r`` and ``mu = (1 - r) / (n + 1)``: a candidate passes when
    its worst per-output score is nonnegative, and among passers the
    largest total score wins, first drawn winning ties. The first pool
    with a passer supplies the node, and ``rng`` is set back to its
    state just after that pool's draws, so the stream continues exactly
    as if the pools had been drawn and tested one at a time. A result
    without a node tells the caller to advance the weight scale.
    """
    cfg = state.cfg
    n = state.model.n_nodes
    k = state.model.n_inputs
    if g_max <= 0:
        return CandidatePool(None, None, 0, 0)
    pools, rng_after = [], []
    for _ in rs:
        w_in_pool = rng.uniform(-lam, lam, size=(g_max, k))
        w_r_pool = rng.uniform(-lam, lam, size=(g_max, n + 1))
        b_pool = rng.uniform(-lam, lam, size=g_max)
        np.clip(w_r_pool[:, -1], -cfg.esp_alpha, cfg.esp_alpha, out=w_r_pool[:, -1])
        pools.append((w_in_pool, w_r_pool, b_pool))
        rng_after.append(rng.bit_generator.state)

    act = activation_fn(state.model.activation)
    prev = _shifted_states(state.train_seq.states)
    g_all = _pool_node_states(prev, inputs, pools, act)

    washout = state.train.washout
    for j, r in enumerate(rs):
        # score a C-contiguous (g_max, n_steps) copy: the layout fixes the bits
        g = np.ascontiguousarray(g_all[:, j * g_max:(j + 1) * g_max].T)
        mu = (1.0 - r) / (n + 1)
        scores, per = _pool_scores(state.residual, g[:, washout:], r, mu)
        ok = np.all(per >= 0.0, axis=0)
        n_accepted = int(ok.sum())
        if n_accepted == 0:
            continue
        rng.bit_generator.state = rng_after[j]
        ok_idx = np.nonzero(ok)[0]
        best = ok_idx[int(np.argmax(scores[ok_idx]))]
        w_in_pool, w_r_pool, b_pool = pools[j]
        cand = CandidateNode(
            input_row=w_in_pool[best].copy(),
            feedback_row=w_r_pool[best].copy(),
            bias=float(b_pool[best]),
            state_seq=g[best].copy(),
            score=float(scores[best]),
            per_output_scores=per[:, best].copy(),
        )
        return CandidatePool(cand, r, n_accepted, (j + 1) * g_max)
    return CandidatePool(None, None, 0, len(rs) * g_max)


def _grow_feedback(w_r: np.ndarray, new_row: np.ndarray) -> np.ndarray:
    n = w_r.shape[0]
    grown = np.zeros((n + 1, n + 1))
    grown[:n, :n] = w_r
    grown[n, :] = new_row
    return grown


def _solve_and_score(state: BuildState) -> tuple[float, float]:
    """Re-solve the readout and refresh the residual.

    Returns the post-washout training and validation residual norms.
    """
    cfg = state.cfg
    w_t = state.train.washout
    w_v = state.val.washout
    x_eff = state.train_seq.extended[:, w_t:]
    t_eff = state.train.targets[:, w_t:]
    w_out = solve_output_weights(x_eff, t_eff, cfg.ridge)
    state.model = state.model.with_readout(w_out)
    state.residual = t_eff - w_out @ x_eff
    val_resid = state.val.targets[:, w_v:] - w_out @ state.val_seq.extended[:, w_v:]
    return float(np.linalg.norm(state.residual)), float(np.linalg.norm(val_resid))


def init_network(
    train: SupervisedSequence,
    val: SupervisedSequence,
    cfg: BuildConfig,
    rng: np.random.Generator,
) -> BuildState:
    """Random initial reservoir of size ``n_init`` with a solved readout.

    Input weights and biases are dense uniform on the first weight
    scale's interval; feedback entries are independently nonzero with
    probability ``sparsity``. The initial block is contracted to largest
    singular value ``esp_alpha`` before any state is computed.
    """
    if train.n_inputs != val.n_inputs or train.n_outputs != val.n_outputs:
        raise ContractViolationError("train and val must share channel counts")
    lam0 = cfg.lambda_sequence[0]
    n0, k, ell = cfg.n_init, train.n_inputs, train.n_outputs
    w_in = rng.uniform(-lam0, lam0, size=(n0, k))
    b = rng.uniform(-lam0, lam0, size=n0)
    mask = rng.random(size=(n0, n0)) < cfg.sparsity
    vals = rng.uniform(-lam0, lam0, size=(n0, n0))
    w_r = np.where(mask, vals, 0.0)
    model = ReservoirModel(
        input_weights=w_in,
        feedback=w_r,
        biases=b,
        readout=np.zeros((ell, n0 + k)),
        structure_tag=BLOCK_LOWER_TRIANGULAR,
        initial_block_size=n0,
    )
    with warnings.catch_warnings():
        # an all-zero sparse draw is routine at 3% density; the no-op is fine
        warnings.simplefilter("ignore")
        model = scale_feedback(model, cfg.esp_alpha)
    train_seq = run_reservoir(model, train.inputs)
    val_seq = run_reservoir(model, val.inputs)
    state = BuildState(
        cfg=cfg,
        train=train,
        val=val,
        model=model,
        train_seq=train_seq,
        val_seq=val_seq,
        residual=np.zeros((ell, train.n_steps - train.washout)),
        snapshots=deque(maxlen=cfg.n_step + 1),
        history=BuildHistory(),
    )
    train_norm, val_norm = _solve_and_score(state)
    state.snapshots.append(state.model)
    state.history.record(n0, math.nan, math.nan, math.nan, train_norm, val_norm, 0, 0)
    state.history.final_size = n0
    return state


def _extend_sequence(
    seq: StateSequence, inputs: np.ndarray, node_states: np.ndarray
) -> StateSequence:
    states = np.vstack([seq.states, node_states])
    return StateSequence(states=states, extended=np.vstack([states, inputs]))


def _accept_node(state: BuildState, cand: CandidateNode) -> tuple[float, float]:
    """Append the candidate's row and extend the stored states by its node.

    The old rows are untouched, so only the new node's validation states
    are computed; its training states came with the candidate. Returns
    the re-solved readout's training and validation residual norms.
    """
    model = state.model
    act = activation_fn(model.activation)
    w_in = np.vstack([model.input_weights, cand.input_row])
    b = np.append(model.biases, cand.bias)
    ell = model.n_outputs
    k = model.n_inputs
    n_new = model.n_nodes + 1
    readout0 = np.zeros((ell, n_new + k))

    grown = ReservoirModel(
        input_weights=w_in,
        feedback=_grow_feedback(model.feedback, cand.feedback_row),
        biases=b, readout=readout0,
        structure_tag=BLOCK_LOWER_TRIANGULAR,
        initial_block_size=model.initial_block_size,
    )
    state.model = grown
    prev_val = _shifted_states(state.val_seq.states)
    val_node = _node_states(
        prev_val, state.val.inputs, cand.input_row, cand.feedback_row, cand.bias, act
    )
    state.train_seq = _extend_sequence(state.train_seq, state.train.inputs, cand.state_seq)
    state.val_seq = _extend_sequence(state.val_seq, state.val.inputs, val_node)
    norms = _solve_and_score(state)
    state.snapshots.append(state.model)
    return norms


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
    on when no pool passes. When the validation residual has not
    improved over the last ``n_step + 1`` sizes, growth rolls back
    ``n_step`` nodes and returns. Exhausting every (scale, r) pair flags
    the history as stalled and returns the current model rather than
    raising.
    """
    if train.n_inputs != val.n_inputs or train.n_outputs != val.n_outputs:
        raise ContractViolationError("train and val must share channel counts")
    state = init_network(train, val, cfg, substream(cfg.seed, "init"))
    rng_cand = substream(cfg.seed, "candidates")
    history = state.history
    while True:
        n = state.model.n_nodes
        if history.train_norms[-1] <= cfg.epsilon or n >= cfg.n_max:
            break
        if early_stop_triggered(history.val_norms, cfg.n_step):
            model = state.snapshots[0]
            history.early_stopped = True
            history.rolled_back_to = model.n_nodes
            history.final_size = model.n_nodes
            return model, history
        pool_total = 0
        for lam in cfg.lambda_sequence:
            pool = configure_node(
                state, train.inputs, lam, cfg.r_sequence, cfg.g_max, rng_cand
            )
            pool_total += pool.n_drawn
            if pool.best is not None:
                break
        else:
            history.stalled = True
            break
        train_norm, val_norm = _accept_node(state, pool.best)
        history.record(
            state.model.n_nodes, lam, pool.r, pool.best.score,
            train_norm, val_norm, pool.n_accepted, pool_total,
        )
    history.final_size = state.model.n_nodes
    return state.model, history
