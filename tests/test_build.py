import dataclasses
import math
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rscn import build
from rscn import model as rmodel
from rscn.build import (
    INFEASIBLE,
    BuildConfig,
    CandidateNode,
    _chunked_recursion,
    _norms,
    _pool_node_states,
    _readout,
    _settle,
    build_rscn,
    configure_node,
    early_stop_triggered,
    init_network,
    solve_output_weights,
)
from rscn.cli import RSCN_N_MAX
from rscn.errors import ContractViolationError
from rscn.model import _warmup_steps, run_reservoir, save_model
from rscn.tasks import SupervisedSequence, task_from_manifest


def score_candidate(residual, g, r, mu):
    """Supervisory score of one candidate state sequence (scalar oracle).

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


def _node_states(prev_states, inputs, input_row, feedback_row, bias):
    """State sequence of one appended node, starting from zero (scalar oracle).

    The plain per-step loop on Python floats: the drive is formed as
    :func:`rscn.build._accept_node` forms it, and the recursion is the one
    :func:`rscn.build._pool_node_states` must equal bit for bit.
    """
    drive = input_row @ inputs + bias
    if prev_states.shape[0]:
        drive = drive + feedback_row[:-1] @ prev_states
    self_w = feedback_row[-1]
    g = np.empty(inputs.shape[1])
    gp = 0.0
    for t in range(g.size):
        gp = float(np.tanh(drive[t] + self_w * gp))
        g[t] = gp
    return g


def _shifted_states(states):
    """Matrix whose column ``t`` is the state at ``t - 1``, from a zero start."""
    return np.column_stack([np.zeros(states.shape[0]), states[:, :-1]])


def candidate_states(state, cand, inputs):
    """New-node state sequence over the build's training inputs (scalar oracle).

    Valid because an appended row leaves the existing rows untouched:
    the old states are read from the current training sequence rather
    than recomputed.
    """
    inputs = np.asarray(inputs, dtype=float)
    n = state.n
    if cand.feedback_row.shape != (n + 1,):
        raise ContractViolationError(
            f"feedback_row has length {cand.feedback_row.size}, expected {n + 1}"
        )
    if inputs.shape != state.train.inputs.shape:
        raise ContractViolationError(
            "inputs must be the training inputs this build state was made from"
        )
    prev = _shifted_states(state.train_states[:state.n, 1:])
    return _node_states(prev, inputs, cand.input_row, cand.feedback_row, cand.bias)


def sequential_pool_states(prev_states, inputs, pool, work, owed=None):
    """Pool state sequences by the plain step-by-step recursion (oracle).

    Takes :func:`rscn.build._pool_node_states`'s arguments and forms the
    drive as it does, so only the recursion differs: each candidate runs
    alone through :func:`_node_states`, with its drive as the only input
    channel, and so does an owed validation run, written back into its
    drive. ``work`` is unused.
    """
    w_in, w_r, b = pool
    drive = np.matmul(w_in, inputs)
    drive += b[:, None]
    if prev_states.shape[0]:
        drive += np.matmul(w_r[:, :-1], prev_states)
    if owed is not None:
        run, self_w = owed
        run[:] = sequential_states(run[None], [self_w])[0]
    return sequential_states(drive, w_r[:, -1])


def sequential_states(drive, self_w):
    """``tanh`` states of each drive row ``(pool size, n_steps)`` from zero."""
    none = np.empty((0, drive.shape[1]))
    return np.array([
        _node_states(none, d[None, :], np.ones(1), np.array([w]), 0.0)
        for d, w in zip(drive, self_w)
    ]).reshape(drive.shape)


def small_cfg(**kw):
    base = dict(
        n_init=3, n_max=15, n_step=3, g_max=20,
        lambda_sequence=(0.5, 1.0, 5.0), r_sequence=(0.9, 0.99, 0.999),
        sparsity=0.2, seed=0,
    )
    base.update(kw)
    return BuildConfig(**base)


def toy_task(n_steps=120, seed=0, k=2):
    """Nonlinear AR target driven by uniform inputs."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, (k, n_steps))
    y = np.zeros(n_steps)
    for t in range(1, n_steps):
        y[t] = 0.6 * y[t - 1] + np.tanh(u[0, t]) + 0.3 * u[1, t - 1] ** 2
    return SupervisedSequence(u, y[None, :], washout=5)


class TestSolveOutputWeights:
    def test_exact_representability_selects_feature_row(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 30))
        t = x[:1].copy()
        w = solve_output_weights(x, t)
        assert np.linalg.norm(t - w @ x) < 1e-10

    def test_zero_targets_give_zero_weights(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 10))
        w = solve_output_weights(x, np.zeros((2, 10)))
        assert np.allclose(w, 0.0, atol=1e-12)

    def test_matches_explicit_two_by_two_normal_equations(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3))
        t = rng.normal(size=(1, 3))
        gram = x @ x.T
        inv = np.array(
            [[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]
        ) / (gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0])
        want = (inv @ x @ t.T).T
        got = solve_output_weights(x, t)
        assert np.allclose(got, want, atol=1e-10)

    def test_minimum_norm_on_rank_deficient_design(self):
        x = np.ones((3, 4))  # rank one
        t = np.ones((1, 4))
        w = solve_output_weights(x, t)
        assert np.linalg.norm(t - w @ x) < 1e-12
        assert np.allclose(w, 1.0 / 3.0, atol=1e-12)  # min-norm spreads evenly

    def test_ridge_shrinks_weights(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 50))
        t = rng.normal(size=(1, 50))
        plain = solve_output_weights(x, t)
        shrunk = solve_output_weights(x, t, ridge=100.0)
        assert np.linalg.norm(shrunk) < np.linalg.norm(plain)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolationError):
            solve_output_weights(np.array([[np.nan]]), np.array([[1.0]]))


class TestScoreCandidate:
    def test_hand_evaluated_example(self):
        # <e, g>^2/<g, g> = 16/4 = 4; penalty (1 - 0.9 - 0.05) * 4 = 0.2
        score, per = score_candidate(np.array([[2.0, 0.0]]), np.array([2.0, 0.0]), 0.9, 0.05)
        assert score == pytest.approx(3.8, abs=1e-12)
        assert per[0] == pytest.approx(3.8, abs=1e-12)

    def test_orthogonal_candidate_scores_negative(self):
        e = np.array([[1.0, 0.0], [0.5, 0.0]])
        g = np.array([0.0, 1.0])
        score, per = score_candidate(e, g, 0.9, 0.01)
        want = -(1 - 0.9 - 0.01) * np.array([1.0, 0.25])
        assert np.allclose(per, want, atol=1e-12)
        assert score < 0

    def test_zero_residual_scores_zero(self):
        score, per = score_candidate(np.zeros((2, 5)), np.ones(5), 0.9, 0.05)
        assert score == 0.0
        assert np.all(per == 0.0)

    def test_zero_energy_candidate_is_infeasible(self):
        score, _ = score_candidate(np.ones((1, 4)), np.zeros(4), 0.9, 0.05)
        assert score == -math.inf


class TestCandidateStates:
    def make_state(self, cfg=None, task=None):
        task = task or toy_task()
        cfg = cfg or small_cfg()
        return init_network(task, toy_task(seed=1), cfg, np.random.default_rng(0))

    def test_zero_candidate_gives_zero_states(self):
        state = self.make_state()
        n = state.n
        cand = CandidateNode(
            input_row=np.zeros(2), feedback_row=np.zeros(n + 1), bias=0.0,
            state_seq=np.empty(0), score=0.0,
        )
        g = candidate_states(state, cand, state.train.inputs)
        assert np.all(g == 0.0)

    def test_memoryless_node_is_pointwise_tanh_of_first_input(self):
        state = self.make_state()
        n = state.n
        cand = CandidateNode(
            input_row=np.array([1.0, 0.0]), feedback_row=np.zeros(n + 1), bias=0.0,
            state_seq=np.empty(0), score=0.0,
        )
        g = candidate_states(state, cand, state.train.inputs)
        assert np.allclose(g, np.tanh(state.train.inputs[0]), atol=1e-15)

    def test_matches_hand_unrolled_recurrence(self):
        cfg = small_cfg(n_init=1, sparsity=1.0)
        state = self.make_state(cfg=cfg)
        n = state.n
        assert n == 1
        cand = CandidateNode(
            input_row=np.array([0.4, -0.2]),
            feedback_row=np.array([0.3, 0.5]),
            bias=0.1,
            state_seq=np.empty(0), score=0.0,
        )
        g = candidate_states(state, cand, state.train.inputs)
        u = state.train.inputs
        x1 = state.train_states[0, 1:]
        gp = 0.0
        for t in range(3):
            x_prev = 0.0 if t == 0 else x1[t - 1]
            gp = np.tanh(
                0.4 * u[0, t] - 0.2 * u[1, t] + 0.3 * x_prev + 0.5 * gp + 0.1
            )
            assert g[t] == pytest.approx(gp, abs=1e-15)

    def test_wrong_row_length_rejected(self):
        state = self.make_state()
        cand = CandidateNode(
            input_row=np.zeros(2), feedback_row=np.zeros(2), bias=0.0,
            state_seq=np.empty(0), score=0.0,
        )
        with pytest.raises(ContractViolationError):
            candidate_states(state, cand, state.train.inputs)


class TestInitNetwork:
    def test_zero_sparsity_means_zero_feedback(self):
        cfg = small_cfg(sparsity=0.0)
        state = init_network(toy_task(), toy_task(seed=1), cfg, np.random.default_rng(0))
        assert np.all(state.feedback[:state.n, :state.n] == 0.0)

    def test_same_seed_bit_identical(self):
        cfg = small_cfg()
        a = init_network(toy_task(), toy_task(seed=1), cfg, np.random.default_rng(3))
        b = init_network(toy_task(), toy_task(seed=1), cfg, np.random.default_rng(3))
        ma, mb = (s.network(s.n, _readout(s, s.n)) for s in (a, b))
        assert np.array_equal(ma.input_weights, mb.input_weights)
        assert np.array_equal(ma.feedback, mb.feedback)
        assert np.array_equal(ma.readout, mb.readout)

    def test_sparsity_hits_binomial_mean(self):
        # 25 entries at density 0.03: expected nonzero count 0.75
        cfg = BuildConfig(
            n_init=5, n_max=10, n_step=2, g_max=5, sparsity=0.03,
        )
        task = toy_task(40)
        val = toy_task(40, seed=1)
        counts = []
        for s in range(1000):
            state = init_network(task, val, cfg, np.random.default_rng(s))
            counts.append(np.count_nonzero(state.feedback[:state.n, :state.n]))
        assert 0.5 <= np.mean(counts) <= 1.0

    def test_incremental_mode_contracts_initial_block(self):
        cfg = small_cfg(sparsity=1.0)
        state = init_network(toy_task(), toy_task(seed=1), cfg, np.random.default_rng(2))
        from rscn.spectral import max_singular_value

        assert max_singular_value(state.feedback[:state.n, :state.n]) == pytest.approx(
            cfg.esp_alpha, rel=1e-9
        )


    def test_overlapping_calls_leave_the_warning_filters_alone(self, monkeypatch):
        # "first" is inside scale_feedback when "second" enters, and returns
        # first; a warnings.catch_warnings() block around each call would then
        # restore the filters out of order and leave "ignore" installed
        first_in, second_in, first_done = (threading.Event() for _ in range(3))
        scale = build.scale_feedback

        def ordered(model, alpha):
            if threading.current_thread().name == "first":
                first_in.set()
                second_in.wait(10)
            else:
                second_in.set()
                first_done.wait(10)
            return scale(model, alpha)

        monkeypatch.setattr(build, "scale_feedback", ordered)
        cfg = small_cfg(sparsity=1.0)  # every draw has feedback to scale
        states = []

        def grow(rng_seed):
            try:
                states.append(init_network(toy_task(), toy_task(seed=1), cfg,
                                           np.random.default_rng(rng_seed)))
            finally:
                if rng_seed == 0:
                    first_done.set()

        with warnings.catch_warnings():
            before = list(warnings.filters)
            first = threading.Thread(target=grow, args=(0,), name="first")
            second = threading.Thread(target=grow, args=(1,), name="second")
            first.start()
            assert first_in.wait(10)
            second.start()
            first.join()
            second.join()
            after = list(warnings.filters)
        assert len(states) == 2 and second_in.is_set()
        assert after == before


class TestConfigureNode:
    def make_state(self):
        return init_network(toy_task(), toy_task(seed=1), small_cfg(), np.random.default_rng(0))

    def test_zero_budget_returns_empty_pool(self):
        state = self.make_state()
        state.cfg = dataclasses.replace(state.cfg, r_sequence=(0.9,), g_max=0)
        pool = configure_node(state, 1.0, np.random.default_rng(0))
        assert pool.best is None

    def test_same_seed_same_selection(self):
        state_a = self.make_state()
        state_b = self.make_state()
        for state in (state_a, state_b):
            state.cfg = dataclasses.replace(state.cfg, r_sequence=(0.999,), g_max=30)
        pa = configure_node(state_a, 1.0, np.random.default_rng(5))
        pb = configure_node(state_b, 1.0, np.random.default_rng(5))
        assert (pa.best is None) == (pb.best is None)
        if pa.best is not None:
            assert np.array_equal(pa.best.input_row, pb.best.input_row)
            assert pa.best.score == pb.best.score

    def test_accepted_candidate_has_nonnegative_per_output_scores(self):
        state = self.make_state()
        state.cfg = dataclasses.replace(state.cfg, r_sequence=(0.999,), g_max=50)
        pool = configure_node(state, 1.0, np.random.default_rng(8))
        assert pool.best is not None
        r, washout = pool.r, state.train.washout
        _, per = score_candidate(state.residual, pool.best.state_seq[washout:], r,
                                 (1.0 - r) / (state.n + 1))
        assert np.all(per >= 0.0)
        assert pool.n_accepted >= 1

    def test_learnable_direction_yields_positive_score(self):
        # target is tanh of the input channel, so a near-perfect candidate
        # exists in the pool once the contraction ladder relaxes the bar
        rng = np.random.default_rng(4)
        u = rng.uniform(-1, 1, (1, 200))
        y = np.tanh(2.0 * u)
        seq = SupervisedSequence(u, y, washout=5)
        cfg = BuildConfig(
            n_init=2, n_max=10, n_step=2, g_max=200, sparsity=0.0,
            lambda_sequence=(5.0,), r_sequence=(0.9, 0.99, 0.999),
        )
        state = init_network(seq, seq, cfg, np.random.default_rng(0))
        rng_cand = np.random.default_rng(1)
        pool = None
        for r in cfg.r_sequence:
            state.cfg = dataclasses.replace(cfg, r_sequence=(r,))
            pool = configure_node(state, 5.0, rng_cand)
            if pool.best is not None:
                break
        assert pool.best is not None
        assert pool.best.score > 0

    def test_pool_matches_single_candidate_oracle(self):
        state = self.make_state()
        rng = np.random.default_rng(12)
        state.cfg = dataclasses.replace(state.cfg, r_sequence=(0.99,), g_max=10)
        pool = configure_node(state, 2.0, rng)
        # redraw the same pool and re-evaluate each candidate individually
        rng2 = np.random.default_rng(12)
        n, k = state.n, 2
        w_in = rng2.uniform(-2, 2, (10, k))
        w_r = rng2.uniform(-2, 2, (10, n + 1))
        b = rng2.uniform(-2, 2, 10)
        np.clip(w_r[:, -1], -state.cfg.esp_alpha, state.cfg.esp_alpha, out=w_r[:, -1])
        mu = (1 - 0.99) / (n + 1)
        best_score, best_idx = -math.inf, None
        for i in range(10):
            cand = CandidateNode(
                input_row=w_in[i], feedback_row=w_r[i], bias=float(b[i]),
                state_seq=np.empty(0), score=0.0,
            )
            g = candidate_states(state, cand, state.train.inputs)
            score, per = score_candidate(state.residual, g[5:], 0.99, mu)
            if np.all(per >= 0) and score > best_score:
                best_score, best_idx = score, i
        if pool.best is None:
            assert best_idx is None
        else:
            assert pool.best.score == pytest.approx(best_score, rel=1e-12)
            assert np.array_equal(pool.best.input_row, w_in[best_idx])

    @staticmethod
    def one_pool_oracle(state, lam, rs, g_max, rng):
        """One pool drawn, then tested candidate by candidate at each r in order.

        Returns ``(w_in row, w_r row, bias, score)`` of the winner (or
        None), the first r with a passer and that r's passer count.
        """
        n, k, alpha = state.n, state.train.n_inputs, state.cfg.esp_alpha
        w_in = rng.uniform(-lam, lam, size=(g_max, k))
        w_r = rng.uniform(-lam, lam, size=(g_max, n + 1))
        b = rng.uniform(-lam, lam, size=g_max)
        np.clip(w_r[:, -1], -alpha, alpha, out=w_r[:, -1])
        states = []
        for i in range(g_max):
            cand = CandidateNode(
                input_row=w_in[i], feedback_row=w_r[i], bias=float(b[i]),
                state_seq=np.empty(0), score=0.0,
            )
            states.append(candidate_states(state, cand, state.train.inputs)[state.train.washout:])
        for r in rs:
            best, n_ok = None, 0
            for i, g in enumerate(states):
                score, per = score_candidate(state.residual, g, r, (1.0 - r) / (n + 1))
                if np.all(per >= 0.0):
                    n_ok += 1
                    if best is None or score > best[3]:
                        best = (w_in[i], w_r[i], float(b[i]), score)
            if n_ok:
                return best, r, n_ok
        return None, None, 0

    @pytest.mark.parametrize(
        "lam,g_max,seed,passing_r",
        [
            (5.0, 1, 99, 0.9),  # the first r
            (5.0, 1, 1, 0.999),  # a middle r
            (5.0, 1, 8, 0.9999),  # the last r
            (0.5, 20, 5, 0.99),  # several passers
            (5.0, 3, 173, 0.9999),  # several passers at the last r
            (5.0, 1, 4, None),  # no passer
        ],
    )
    def test_ladder_matches_one_pool_per_call(self, lam, g_max, seed, passing_r):
        rs = (0.9, 0.99, 0.999, 0.9999)
        state = self.make_state()
        rng = np.random.default_rng(seed)
        state.cfg = dataclasses.replace(state.cfg, r_sequence=rs, g_max=g_max)
        pool = configure_node(state, lam, rng)
        twin = np.random.default_rng(seed)
        best, r, n_ok = self.one_pool_oracle(state, lam, rs, g_max, twin)
        assert pool.r == r == passing_r
        assert pool.n_accepted == n_ok
        assert (pool.best is None) == (best is None)
        if best is not None:
            assert np.array_equal(pool.best.input_row, best[0])
            assert np.array_equal(pool.best.feedback_row, best[1])
            assert pool.best.bias == best[2]
            assert pool.best.score == pytest.approx(best[3], rel=1e-12)
        # the generator advanced by exactly one pool's draws
        assert rng.random() == twin.random()


class TestChunkedRecursion:
    """The time-chunked pool recursion against the sequential oracle, bit for bit."""

    @staticmethod
    def pool(seed, g_max, n, k, lam):
        rng = np.random.default_rng(seed)
        w_r = rng.uniform(-lam, lam, size=(g_max, n + 1))
        np.clip(w_r[:, -1], -0.9, 0.9, out=w_r[:, -1])
        return rng.uniform(-lam, lam, size=(g_max, k)), w_r, rng.uniform(-lam, lam, size=g_max)

    @pytest.mark.parametrize(
        "n_steps,n,g_max,lam",
        [
            (100, 4, 20, 0.5),  # shorter than one chunk: the plain loop
            (1000, 6, 30, 0.5),  # 7 chunks of 143 steps, the last one shorter
            (777, 0, 25, 0.5),  # no earlier nodes
            (600, 5, 1, 0.5),  # a single candidate
            (2000, 3, 40, 5.0),  # self-weights at +-esp_alpha: two long chunks
            (482, 3, 40, 5.0),  # the same bound on a short series: one chunk
        ],
    )
    def test_matches_the_sequential_oracle(self, n_steps, n, g_max, lam):
        rng = np.random.default_rng(n_steps)
        inputs, prev = rng.uniform(-1, 1, (2, n_steps)), rng.uniform(-1, 1, (n, n_steps))
        pool = self.pool(n_steps + n, g_max, n, 2, lam)
        got = _pool_node_states(prev, inputs, pool, {})
        want = sequential_pool_states(prev, inputs, pool, None)
        assert got.flags.c_contiguous and got.shape == (g_max, n_steps)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if lam > 0.9:
            assert np.all(np.abs(pool[1][:, -1]) <= 0.9)
            assert np.mean(np.abs(pool[1][:, -1]) == 0.9) > 0.5

    def test_warmup_follows_the_self_weight_bound(self):
        assert _warmup_steps(0.5) == 64
        assert _warmup_steps(0.9) == 422
        assert _warmup_steps(1e-30) == 1

    @pytest.mark.parametrize("n_steps", [5, 7, 120, 501, 5000])
    def test_one_step_warmup_is_fixed_up_exactly(self, n_steps, monkeypatch):
        # one warm-up step leaves most chunk columns inexact at their
        # boundary, so nearly every column goes through the fix-up
        calls = []
        fix_up = rmodel._fix_up

        def counted(states, drive, weight, exact):
            before = states.copy()
            fix_up(states, drive, weight, exact)
            calls.append(np.count_nonzero((states.view(np.int64) != before.view(np.int64)).any(axis=0)))

        monkeypatch.setattr(rmodel, "_fix_up", counted)
        rng = np.random.default_rng(n_steps)
        drive = rng.uniform(-2, 2, (15, n_steps))
        self_w = rng.uniform(-0.9, 0.9, 15)
        self_w[:3] = (0.0, 0.9, -0.9)
        want = sequential_states(drive, self_w)
        work = {}
        monkeypatch.setattr(rmodel, "_warmup_steps", lambda bound: 1)
        _chunked_recursion(drive, self_w, work)
        span = -(-n_steps // (n_steps // 2))
        c = -(-n_steps // span)  # 501 steps: 167 chunks of 3, not 250
        assert work["chunks"].shape == (1 + span, c, 15)
        assert np.array_equal(drive.view(np.int64), want.view(np.int64))
        # every boundary is fixed up; a memoryless column never needs it
        assert len(calls) == c - 1 and 10 <= max(calls) and all(n <= 14 for n in calls)

    @pytest.mark.parametrize(
        "task,n_max",
        [("mg", 40), ("plant", 25)],
    )
    def test_seeded_builds_match_the_sequential_build(self, task, n_max, monkeypatch, tmp_path):
        data = task_from_manifest({"task": task, "seed": 1})
        cfg = BuildConfig(n_max=n_max, seed=1)
        docs = []
        for kernel in (_pool_node_states, sequential_pool_states):
            monkeypatch.setattr(build, "_pool_node_states", kernel)
            model, history = build_rscn(data.train, data.val, cfg)
            path = tmp_path / f"{kernel.__name__}.json"
            save_model(model, str(path))
            arrays = (model.input_weights, model.feedback, model.biases, model.readout)
            docs.append((path.read_bytes(), history.to_csv(), [a.tobytes() for a in arrays]))
        assert docs[0] == docs[1]
        assert len(history.sizes) == n_max - cfg.n_init + 1


class TestOwedValidationRuns:
    """Each accepted node's validation states, paid by the next pool or alone, against the oracle."""

    @staticmethod
    def build(monkeypatch, train, val, cfg):
        """The build's model, history and final working state."""
        states = []

        def init(*args):
            states.append(init_network(*args))
            return states[-1]

        monkeypatch.setattr(build, "init_network", init)
        model, history = build_rscn(train, val, cfg)
        return model, history, states[0]

    @staticmethod
    def assert_oracle_states(state):
        assert state.owed is None and state.n > state.cfg.n_init
        for k in range(state.cfg.n_init, state.n):
            want = _node_states(
                state.val_states[:k, :-1], state.val.inputs, state.input_weights[k],
                state.feedback[k, :k + 1], state.biases[k],
            )
            assert np.array_equal(state.val_states[k, 1:].view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("task", ["mg", "plant"])
    def test_full_build_including_the_last_node(self, task, monkeypatch):
        data = task_from_manifest({"task": task, "seed": 0})
        cfg = BuildConfig(n_max=30, seed=0)
        model, history, state = self.build(monkeypatch, data.train, data.val, cfg)
        assert model.n_nodes == state.n == cfg.n_max and history.stop == "cap"
        self.assert_oracle_states(state)

    def test_early_stopped_build(self, monkeypatch):
        # noise validation targets stop the build; the pool that paid the
        # last node's run is discarded
        noise_val = SupervisedSequence(
            toy_task(160, seed=9).inputs, np.random.default_rng(0).normal(size=(1, 160)), washout=5
        )
        cfg = small_cfg(n_max=40, n_step=2, seed=3)
        model, history, state = self.build(monkeypatch, toy_task(160), noise_val, cfg)
        assert history.stop == "early_stop" and history.sizes[-1] == state.n
        self.assert_oracle_states(state)

    def test_validation_split_longer_than_training(self, monkeypatch):
        train, val = toy_task(120), toy_task(200, seed=1)
        cfg = small_cfg(n_max=12, n_step=11)
        model, history, state = self.build(monkeypatch, train, val, cfg)
        assert state.n == cfg.n_max and len(history.sizes) == cfg.n_max - cfg.n_init + 1
        assert history.stop == "cap"
        self.assert_oracle_states(state)

    def test_last_run_takes_its_warmup_from_its_own_self_weight(self, monkeypatch):
        # the last node's 1,000-step plant run is paid alone; esp_alpha's
        # 422 warm-up steps would leave it one step-by-step chunk
        shapes, work = [], rmodel._work

        def spy(arrays, name, shape):
            if name == "chunks":
                shapes.append(shape)
            return work(arrays, name, shape)

        monkeypatch.setattr(rmodel, "_work", spy)
        data = task_from_manifest({"task": "plant", "seed": 0})
        cfg = BuildConfig(n_max=10, seed=0)
        model, history, state = self.build(monkeypatch, data.train, data.val, cfg)
        assert history.stop == "cap" and data.val.n_steps == 1000
        m = _warmup_steps(abs(state.feedback[state.n - 1, state.n - 1]))
        span = -(-1000 // (1000 // (2 * m)))
        assert m < _warmup_steps(cfg.esp_alpha) and shapes[-1] == (m + span, -(-1000 // span), 1)
        assert shapes[-1][1] > 1
        self.assert_oracle_states(state)

    @pytest.mark.parametrize("task", ["mg", "plant"])
    def test_seeded_builds_need_no_fix_up(self, task, monkeypatch):
        # a validation run padded with a decaying drive would miss its
        # warm-up at every chunk boundary past its end
        calls = []
        fix_up = rmodel._fix_up

        def counted(*args):
            calls.append(args[0].shape)
            fix_up(*args)

        monkeypatch.setattr(rmodel, "_fix_up", counted)
        data = task_from_manifest({"task": task, "seed": 0})
        model, history = build_rscn(data.train, data.val, BuildConfig(n_max=30, seed=0))
        assert model.n_nodes == 30 and history.stop == "cap" and calls == []


class TestEarlyStop:
    def test_requires_full_window(self):
        assert not early_stop_triggered([1.0, 2.0], 3)

    def test_non_decreasing_tail_triggers(self):
        assert early_stop_triggered([5.0, 1.0, 1.0, 1.5, 2.0], 3)

    def test_any_improvement_resets(self):
        assert not early_stop_triggered([5.0, 1.0, 1.2, 1.1, 2.0], 3)


class TestBuildConfig:
    @pytest.mark.parametrize("n_step", [-1, 0, 15])
    def test_n_step_must_lie_between_one_and_n_max(self, n_step):
        with pytest.raises(ContractViolationError, match="n_step"):
            small_cfg(n_max=15, n_step=n_step)

    @pytest.mark.parametrize("ladder", ["lambda_sequence", "r_sequence"])
    def test_empty_ladder_rejected(self, ladder):
        with pytest.raises(ContractViolationError, match=ladder):
            small_cfg(**{ladder: ()})

    @pytest.mark.parametrize("field,match", [
        ({"n_init": 0}, "n_init must be positive"),
        ({"g_max": -1}, "g_max nonnegative"),
        ({"r_sequence": (0.9, 1.0)}, "every r"),
        ({"r_sequence": (0.0,)}, "every r"),
        ({"lambda_sequence": (0.5, -1.0)}, "weight scales"),
        ({"sparsity": 1.5}, "sparsity"),
        ({"sparsity": -0.1}, "sparsity"),
        ({"esp_alpha": 1.0}, "esp_alpha"),
        ({"esp_alpha": 0.0}, "esp_alpha"),
    ], ids=["n_init=0", "g_max=-1", "r=1", "r=0", "lambda<0", "sparsity>1", "sparsity<0",
            "alpha=1", "alpha=0"])
    def test_value_out_of_range_rejected(self, field, match):
        with pytest.raises(ContractViolationError, match=match):
            small_cfg(**field)

    def test_n_init_above_n_max_rejected(self):
        with pytest.raises(ContractViolationError, match="n_init"):
            BuildConfig(n_init=8, n_max=3, n_step=1)

    def test_n_init_at_n_max_builds_the_initial_block(self):
        model, hist = build_rscn(toy_task(), toy_task(seed=1), small_cfg(n_init=15))
        assert model.n_nodes == 15 and hist.stop == "cap"


class TestBuildRscn:
    def test_empty_pools_stall_at_initial_size(self):
        model, hist = build_rscn(toy_task(), toy_task(seed=1), small_cfg(g_max=0))
        assert hist.stop == "stall"
        assert hist.sizes == [small_cfg().n_init]
        assert model.n_nodes == hist.final_size == small_cfg().n_init

    def test_zero_targets_return_at_initial_size(self):
        task = toy_task()
        zero = SupervisedSequence(task.inputs, np.zeros_like(task.targets), washout=5)
        model, hist = build_rscn(zero, zero, small_cfg())
        assert model.n_nodes == small_cfg().n_init and hist.stop == "tolerance"
        assert hist.train_norms[-1] == pytest.approx(0.0, abs=1e-12)

    def test_passthrough_target_needs_no_growth(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(-1, 1, (1, 100))
        seq = SupervisedSequence(u, u.copy(), washout=5)
        model, hist = build_rscn(seq, seq, small_cfg())
        assert model.n_nodes == small_cfg().n_init
        assert hist.train_norms[-1] < 1e-6

    def test_monotone_training_residual_incremental(self):
        task = toy_task(160)
        val = toy_task(160, seed=9)
        model, hist = build_rscn(task, val, small_cfg(n_max=12))
        norms = hist.train_norms
        assert len(norms) >= 2
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_structural_growth_invariant(self):
        task = toy_task(160)
        model, _ = build_rscn(task, toy_task(160, seed=9), small_cfg(n_max=10))
        n0 = small_cfg().n_init
        w_r = model.feedback
        for i in range(model.n_nodes):
            j0 = max(i, n0 - 1) + 1
            assert np.all(w_r[i, j0:] == 0.0)

    def test_determinism_end_to_end(self):
        task = toy_task(140)
        val = toy_task(140, seed=9)
        cfg = small_cfg(n_max=10, seed=77)
        m1, h1 = build_rscn(task, val, cfg)
        m2, h2 = build_rscn(task, val, cfg)
        assert m1.n_nodes == m2.n_nodes
        assert np.array_equal(m1.feedback, m2.feedback)
        assert np.array_equal(m1.readout, m2.readout)
        assert h1.train_norms == h2.train_norms

    def test_history_alignment_and_csv(self):
        task = toy_task(140)
        model, hist = build_rscn(task, toy_task(140, seed=9), small_cfg(n_max=8))
        assert len(hist.sizes) == len(hist.train_norms) == len(hist.val_norms)
        assert hist.sizes[0] == small_cfg().n_init
        csv_text = hist.to_csv()
        header, *rows = csv_text.strip().split("\n")
        assert header == "size,lambda,r,xi_best,train_norm,val_norm,pool_accepted,pool_total"
        assert len(rows) == len(hist.sizes)

    def test_rollback_returns_earlier_snapshot(self):
        # unlearnable validation: noise targets make the validation norm
        # plateau, so the early stop fires (as in test_early_stopped_build)
        # and growth rolls back n_step nodes
        rng = np.random.default_rng(0)
        task = toy_task(160)
        noise_val = SupervisedSequence(
            toy_task(160, seed=9).inputs, rng.normal(size=(1, 160)), washout=5
        )
        cfg = small_cfg(n_max=40, n_step=2, seed=3)
        model, hist = build_rscn(task, noise_val, cfg)
        assert hist.stop == "early_stop" and hist.final_size == model.n_nodes
        assert hist.sizes[-1] - model.n_nodes == cfg.n_step

    def test_rollback_model_readout_is_self_consistent(self):
        rng = np.random.default_rng(0)
        task = toy_task(160)
        noise_val = SupervisedSequence(
            toy_task(160, seed=9).inputs, rng.normal(size=(1, 160)), washout=5
        )
        cfg = small_cfg(n_max=40, n_step=2, seed=3)
        model, hist = build_rscn(task, noise_val, cfg)
        seq = run_reservoir(model, task.inputs)
        w = solve_output_weights(seq.extended[:, 5:], task.targets[:, 5:])
        assert np.allclose(w, model.readout, atol=1e-9)


class TestOldStatePreservation:
    def grow_once(self):
        task = toy_task(120)
        cfg = small_cfg()
        state = init_network(task, toy_task(120, seed=1), cfg, np.random.default_rng(0))
        before = state.train_states[:state.n, 1:].copy()
        state.cfg = dataclasses.replace(cfg, r_sequence=(0.999,), g_max=50)
        pool = configure_node(state, 1.0, np.random.default_rng(4))
        assert pool.best is not None
        from rscn.build import _accept_node

        _accept_node(state, pool.best)
        return before, state

    def test_incremental_append_preserves_old_states_bitwise(self):
        before, state = self.grow_once()
        n = before.shape[0]
        assert np.array_equal(state.train_states[:n, 1:], before)

    def test_dense_final_column_changes_old_states(self):
        before, state = self.grow_once()
        n = before.shape[0]
        # deliberately general growth: let old nodes see the new node
        model = state.network(state.n, _readout(state, state.n))
        w_r = model.feedback.copy()
        w_r[:n, n] = 0.5
        from dataclasses import replace

        general = replace(model, feedback=w_r, structure_tag="general")
        seq = run_reservoir(general, state.train.inputs)
        assert not np.array_equal(seq.states[:n], before)


class TestStoredSequences:
    """The sequences and norms a build keeps agree with the model it returns."""

    def test_final_norms_match_returned_model(self):
        task, val = toy_task(160), toy_task(160, seed=1)
        cfg = small_cfg(n_max=12, n_step=11)
        model, hist = build_rscn(task, val, cfg)
        assert hist.stop == "cap" and model.n_nodes == hist.sizes[-1]
        for seq, norm in ((task, hist.train_norms[-1]), (val, hist.val_norms[-1])):
            ext = run_reservoir(model, seq.inputs).extended[:, seq.washout:]
            resid = seq.targets[:, seq.washout:] - model.readout @ ext
            assert np.linalg.norm(resid) == pytest.approx(norm, rel=1e-10)

    def test_grown_sequences_match_a_full_rerun(self):
        from rscn.build import _accept_node

        task, val = toy_task(120), toy_task(120, seed=1)
        cfg = small_cfg()
        state = init_network(task, val, cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(4):
            for lam in cfg.lambda_sequence:
                pool = configure_node(state, lam, rng)
                if pool.best is not None:
                    break
            assert pool.best is not None
            _accept_node(state, pool.best)
        assert state.n == cfg.n_init + 4
        _settle(state)  # the last node's validation run is still owed
        model = state.network(state.n, _readout(state, state.n))
        for stored, seq in ((state.train_states, task), (state.val_states, val)):
            stored = stored[:state.n, 1:]
            want = run_reservoir(model, seq.inputs)
            np.testing.assert_allclose(stored, want.states, rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.vstack([stored, seq.inputs]), want.extended,
                                       rtol=0, atol=1e-12)


class TestPoolCount:
    @pytest.mark.parametrize("seed,stop", [(0, "cap"), (5, "early_stop")])
    def test_pool_total_counts_the_configured_pool_of_each_kept_search(self, seed, stop, monkeypatch):
        data = task_from_manifest({"task": "mg", "seed": seed})
        cfg = BuildConfig(n_max=RSCN_N_MAX["mg"], seed=seed)
        found, pool_rows, configure = [], set(), build.configure_node

        def counted(state, lam, rng):
            pool = configure(state, lam, rng)
            found.append(pool.best is not None)
            pool_rows.add(state.work["drive"].shape[0])  # the pool plus the owed run's row
            return pool

        monkeypatch.setattr(build, "configure_node", counted)
        _, history = build_rscn(data.train, data.val, cfg)
        accepted = len(history.sizes) - 1
        assert history.stop == stop and accepted > 0 and pool_rows == {cfg.g_max + 1}
        # the kept searches end at the accepted nodes' pools; a last search
        # discarded at an early stop or a stall records no row
        used = np.flatnonzero(found)[accepted - 1] + 1
        assert sum(history.pool_total) == cfg.g_max * used


class TestSearchWorker:
    """The search starts no thread, and worker threads share no search state."""

    @pytest.mark.parametrize(
        "lam,g_max,seed,task",
        [
            (5.0, 1, 99, "toy"),
            (5.0, 1, 2, "toy"),
            (5.0, 1, 257, "toy"),
            (0.5, 20, 5, "toy"),
            (0.5, 100, 0, "mg"),
        ],
    )
    def test_worker_matches_inline(self, lam, g_max, seed, task):
        rs = (0.9, 0.99, 0.999, 0.9999)
        if task == "mg":
            data = task_from_manifest({"task": "mg", "seed": 0})
            train, val, cfg = data.train, data.val, BuildConfig()
        else:
            train, val, cfg = toy_task(), toy_task(seed=1), small_cfg()
        state = init_network(train, val, cfg, np.random.default_rng(0))
        rng_inline, rng_worker = np.random.default_rng(seed), np.random.default_rng(seed)
        state.cfg = dataclasses.replace(cfg, r_sequence=rs, g_max=g_max)
        inline = configure_node(state, lam, rng_inline)
        with ThreadPoolExecutor(max_workers=1) as worker:
            threaded = worker.submit(configure_node, state, lam, rng_worker).result(timeout=120)
        assert (threaded.r, threaded.n_accepted) == (inline.r, inline.n_accepted)
        assert (threaded.best is None) == (inline.best is None)
        if inline.best is not None:
            a, b = threaded.best, inline.best
            assert np.array_equal(a.input_row, b.input_row)
            assert np.array_equal(a.feedback_row, b.feedback_row)
            assert a.bias == b.bias and a.score == b.score
            assert np.array_equal(a.state_seq, b.state_seq)
        assert rng_worker.random() == rng_inline.random()

    def test_concurrent_builds_are_byte_identical(self, tmp_path):
        # three builds at once run three threads on fewer cores, and a short
        # switch interval interleaves them finely
        data = task_from_manifest({"task": "mg", "seed": 0})
        cfg = BuildConfig(n_max=30, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                runs = list(pool.map(lambda _: build_rscn(data.train, data.val, cfg),
                                     range(3), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        runs.append(build_rscn(data.train, data.val, cfg))  # alone, for reference
        docs = []
        for i, (model, history) in enumerate(runs):
            save_model(model, str(tmp_path / f"{i}.json"))
            docs.append(((tmp_path / f"{i}.json").read_bytes(), history.to_csv()))
        assert all(doc == docs[-1] for doc in docs)
        assert runs[-1][0].n_nodes > cfg.n_init

    def test_no_worker_thread_outlives_a_build(self, monkeypatch):
        # a build starts no thread: none is running mid-build, and none is
        # left after it returns or raises
        before = set(threading.enumerate())
        model, hist = build_rscn(toy_task(), toy_task(seed=1), small_cfg())
        assert model.n_nodes > small_cfg().n_init
        assert set(threading.enumerate()) == before
        seen = []

        def failing(state, cand):
            seen.append(set(threading.enumerate()))
            raise RuntimeError("injected")

        monkeypatch.setattr(build, "_accept_node", failing)
        with pytest.raises(RuntimeError, match="injected"):
            build_rscn(toy_task(), toy_task(seed=1), small_cfg())
        assert seen == [before] and set(threading.enumerate()) == before


def duplicated_channel_task(n_steps=160, seed=0):
    """The toy task with its first input channel repeated: a rank-deficient design."""
    task = toy_task(n_steps, seed=seed)
    inputs = np.vstack([task.inputs[:1], task.inputs])
    return SupervisedSequence(inputs, task.targets, washout=task.washout)


class TestFactorisation:
    """The growth loop's QR factorisation against a fresh solve at every size."""

    @staticmethod
    def checked(monkeypatch):
        """Run the build with every stored norm checked against a fresh solve."""
        sizes = []

        def check(state, norms):
            w_t, w_v = state.train.washout, state.val.washout
            x = np.vstack([state.train_states[:state.n, 1:], state.train.inputs])[:, w_t:]
            t = state.train.targets[:, w_t:]
            w = solve_output_weights(x, t)
            val_ext = np.vstack([state.val_states[:state.n, 1:], state.val.inputs])
            val_resid = state.val.targets[:, w_v:] - w @ val_ext[:, w_v:]
            fresh = (np.linalg.norm(t - w @ x), np.linalg.norm(val_resid))
            assert norms == pytest.approx(fresh, rel=1e-9)
            q = state.q[:len(state.basis)]
            np.testing.assert_allclose(q @ q.T, np.eye(len(q)), rtol=0, atol=1e-12)
            sizes.append(state.n)

        def recorded(state):
            norms = _norms(state)
            check(state, norms)
            return norms

        # every history row's norms, the initial one included, come from _norms
        monkeypatch.setattr(build, "_norms", recorded)
        return sizes

    def test_toy_build_norms_match_a_fresh_solve(self, monkeypatch):
        sizes = self.checked(monkeypatch)
        cfg = small_cfg(n_max=15, n_step=14)
        model, hist = build_rscn(toy_task(160), toy_task(160, seed=9), cfg)
        assert sizes == hist.sizes == list(range(cfg.n_init, cfg.n_max + 1))

    def test_mg_build_norms_match_a_fresh_solve(self, monkeypatch):
        data = task_from_manifest({"task": "mg", "seed": 0})
        sizes = self.checked(monkeypatch)
        model, hist = build_rscn(data.train, data.val, BuildConfig(n_max=40, seed=0))
        assert sizes == hist.sizes and sizes[-1] == model.n_nodes

    def test_repeated_input_channel_builds(self, monkeypatch):
        sizes = self.checked(monkeypatch)
        task, val = duplicated_channel_task(), duplicated_channel_task(seed=9)
        cfg = small_cfg(n_max=12, n_step=11)
        state = init_network(task, val, cfg, np.random.default_rng(0))
        assert len(state.basis) == state.n + task.n_inputs - 1
        calls = []

        def kept(state, n):
            calls.append((state, n))
            return _readout(state, n)

        monkeypatch.setattr(build, "_readout", kept)
        model, hist = build_rscn(task, val, cfg)
        state, n = calls[-1]
        assert sizes[-1] == n == model.n_nodes == cfg.n_max
        np.testing.assert_array_equal(model.readout, _readout(state, n))
        # the repeated channel, readout column n + 1, keeps weight zero
        assert np.all(model.readout[:, n + 1] == 0.0)
        ext = run_reservoir(model, task.inputs).extended[:, task.washout:]
        t = task.targets[:, task.washout:]
        w = solve_output_weights(ext, t)
        fit = np.linalg.norm(t - model.readout @ ext)
        assert fit == pytest.approx(np.linalg.norm(t - w @ ext), rel=1e-9)

    @pytest.mark.parametrize("task,n_max,stop", [("mg", 120, "cap"), ("plant", 140, "early_stop")])
    def test_seeded_readout_matches_a_fresh_solve(self, task, n_max, stop):
        # the factorisation's readout, for the full size and after a rollback
        data = task_from_manifest({"task": task, "seed": 0})
        model, hist = build_rscn(data.train, data.val, BuildConfig(n_max=n_max, seed=0))
        assert hist.stop == stop
        w_t = data.train.washout
        ext = run_reservoir(model, data.train.inputs).extended[:, w_t:]
        w = solve_output_weights(ext, data.train.targets[:, w_t:])
        assert np.linalg.norm(model.readout - w) <= 1e-9 * np.linalg.norm(w)


class TestHotPath:
    @pytest.mark.parametrize("make_task", [toy_task, duplicated_channel_task],
                             ids=["full_rank", "repeated_channel"])
    def test_solves_and_model_constructions_per_build(self, make_task, monkeypatch):
        # every design's readout comes from the kept factorisation
        counts = {"solve": 0, "model": 0}
        solve, model_cls = build.solve_output_weights, build.ReservoirModel

        def counted_solve(*args, **kwargs):
            counts["solve"] += 1
            return solve(*args, **kwargs)

        def counted_model(*args, **kwargs):
            counts["model"] += 1
            return model_cls(*args, **kwargs)

        monkeypatch.setattr(build, "solve_output_weights", counted_solve)
        monkeypatch.setattr(build, "ReservoirModel", counted_model)
        model, hist = build_rscn(make_task(160), make_task(160, seed=9), small_cfg(n_step=14))
        assert model.n_nodes == 15 and len(hist.sizes) == 13
        assert counts["solve"] == 0
        assert counts["model"] <= 2

    def test_a_new_shape_frees_the_old_work_array_first(self, monkeypatch):
        # the kernel's warm-up follows each pool's weights, so the chunk
        # array's shape changes from pool to pool; two at once raise the peak
        work = {"chunks": np.empty((4, 2))}
        old, alive, empty = weakref.ref(work["chunks"]), [], np.empty

        def allocate(shape):
            alive.append(old() is not None)
            return empty(shape)

        monkeypatch.setattr(rmodel.np, "empty", allocate)
        assert rmodel._work(work, "chunks", (3, 2)).shape == (3, 2)
        assert alive[-1] is False and old() is None

    def test_work_arrays_are_reused_and_never_aliased(self):
        from rscn.build import _accept_node

        cfg = small_cfg()
        state = init_network(toy_task(), toy_task(seed=1), cfg, np.random.default_rng(0))
        rng, arrays, kept, owed = np.random.default_rng(1), None, [], set()
        for _ in range(6):
            for lam in cfg.lambda_sequence:
                owed.add(state.owed is not None)
                pool = configure_node(state, lam, rng)
                arrays = arrays or dict(state.work)
                assert all(state.work[name] is a for name, a in arrays.items())
                if pool.best is not None:
                    break
            kept.append((pool.best.state_seq, pool.best.state_seq.copy()))
            _accept_node(state, pool.best)
        assert len(arrays) == 3
        # the same arrays serve pools with and without an owed validation run
        assert owed == {False, True}
        # an accepted node's states survive every later search
        assert all(np.array_equal(seq, copy) for seq, copy in kept)
