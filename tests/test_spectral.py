import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rscn.build import BuildConfig, build_rscn
from rscn.errors import ContractViolationError, NumericOverflowError
from rscn.model import GENERAL, ReservoirModel, run_reservoir
from rscn.spectral import _start_pairs, esp_check, max_singular_value, scale_feedback
from rscn.tasks import SupervisedSequence

GOLDEN = 1.618033988749895  # larger root of x^2 = x + 1


def small_matrices(n=4):
    return arrays(
        float, (n, n),
        elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )


class TestMaxSingularValue:
    def test_identity(self):
        assert max_singular_value(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert max_singular_value(np.diag([0.5, -0.8])) == pytest.approx(0.8, rel=1e-9)

    def test_shear_matches_quadratic_formula(self):
        # eigenvalues of W^T W = [[1,1],[1,2]] are (3 +- sqrt(5)) / 2
        w = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert max_singular_value(w) == pytest.approx(GOLDEN, rel=1e-9)

    def test_zero_matrix(self):
        assert max_singular_value(np.zeros((4, 4))) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(small_matrices(), st.floats(-100, 100, allow_nan=False))
    def test_absolute_homogeneity(self, w, c):
        base = max_singular_value(w)
        assert max_singular_value(c * w) == pytest.approx(
            abs(c) * base, rel=1e-9, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(small_matrices(5))
    @example(np.diag([2.0, 1.9999, 0.0, 0.0, 0.0]))  # near-tied top singular values
    def test_matches_svd_oracle(self, w):
        want = np.linalg.svd(w, compute_uv=False)[0]
        assert max_singular_value(w) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestSpectralRadius:
    """Spectral radii, read with ``np.linalg.eigvals``, of what the package certifies."""

    @staticmethod
    def radius(w):
        return float(np.max(np.abs(np.linalg.eigvals(w))))

    @staticmethod
    def grown(sparsity):
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, (2, 150))
        seq = SupervisedSequence(u, np.tanh(u[:1] + 0.5 * np.roll(u[1:], 1)), washout=5)
        cfg = BuildConfig(n_init=4, n_max=14, n_step=13, g_max=20, sparsity=sparsity,
                          lambda_sequence=(0.5, 5.0), r_sequence=(0.9, 0.99, 0.999))
        model, _ = build_rscn(seq, seq, cfg)
        assert model.n_nodes > cfg.n_init
        w = model.feedback
        assert np.all(np.triu(w, 1)[:, cfg.n_init:] == 0.0)  # no row feeds back
        return w, cfg.n_init, cfg.esp_alpha

    def test_triangular_growth_rows_with_zero_initial_block(self):
        # only the appended self-weights are eigenvalues, each clamped
        w, n0, alpha = self.grown(sparsity=0.0)
        assert np.all(w[:n0, :n0] == 0.0)
        tail = np.abs(np.diag(w)[n0:]).max()
        assert self.radius(w) == pytest.approx(tail, rel=1e-12) and tail <= alpha

    def test_block_structure_matches_dense_eigen(self):
        # the spectrum is the contracted initial block's plus the self-weights
        w, n0, alpha = self.grown(sparsity=1.0)
        want = max(self.radius(w[:n0, :n0]), np.abs(np.diag(w)[n0:]).max())
        assert self.radius(w) == pytest.approx(want, rel=1e-9)
        assert self.radius(w) <= alpha + 1e-12

    def test_rotation_pair_magnitude(self):
        # characteristic polynomial x^2 + 0.81 has roots +-0.9i; a normal
        # matrix's singular-value bound is tight
        w = np.array([[0.0, -0.9], [0.9, 0.0]])
        assert self.radius(w) == pytest.approx(0.9, rel=1e-9)
        assert max_singular_value(w) == pytest.approx(0.9, rel=1e-9)

    def test_sigma_estimator_upper_bounds_eigen(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.normal(size=(5, 5))
            assert self.radius(w) <= max_singular_value(w) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(small_matrices(4))
    def test_radius_never_exceeds_singular_bound(self, w):
        # contraction scaling certifies a spectral radius of at most alpha
        if not np.any(w):
            return
        scaled = scale_feedback(tiny_model(w), 0.8)
        assert self.radius(scaled.feedback) <= 0.8 * (1 + 1e-9)


def tiny_model(w_r, structure_tag=GENERAL, n0=0):
    w_r = np.asarray(w_r, dtype=float)
    n = w_r.shape[0]
    return ReservoirModel(
        input_weights=np.ones((n, 1)),
        feedback=w_r,
        biases=np.zeros(n),
        readout=np.zeros((1, n + 1)),
        structure_tag=structure_tag,
        initial_block_size=n0,
    )


class TestScaleFeedback:
    def test_contraction_sets_sigma_to_alpha(self):
        w = np.array([[2.0, 0.0], [0.0, 1.0]])  # sigma_max = 2
        scaled = scale_feedback(tiny_model(w), 0.5)
        assert max_singular_value(scaled.feedback) == pytest.approx(0.5, rel=1e-9)

    def test_contraction_holds_for_near_tied_singular_values(self):
        w = np.diag([2.0, 1.9999])
        scaled = scale_feedback(tiny_model(w), 0.5)
        assert np.linalg.norm(scaled.feedback, 2) <= 0.5 * (1 + 1e-12)

    def test_zero_matrix_is_noop_with_warning(self):
        m = tiny_model(np.zeros((2, 2)))
        with pytest.warns(UserWarning):
            scaled = scale_feedback(m, 0.5)
        assert np.array_equal(scaled.feedback, m.feedback)

    def test_subnormal_matrix_is_noop_with_warning(self):
        # sigma = 4 * 2.2e-313 is subnormal and 0.8 / sigma overflows to inf
        m = tiny_model(np.full((4, 4), 2.22507386e-313))
        with pytest.warns(UserWarning):
            scaled = scale_feedback(m, 0.8)
        assert np.array_equal(scaled.feedback, m.feedback)


class TestEspContraction:
    def test_state_gap_collapses_for_contractive_feedback(self):
        rng = np.random.default_rng(6)
        n = 10
        w = rng.normal(size=(n, n))
        model = tiny_model(w)
        model = scale_feedback(model, 0.9)
        report = esp_check(model, n_pairs=20, n_steps=500, tol=1e-8,
                           rng=np.random.default_rng(0))
        assert report.converged
        assert report.steps_to_tol <= 500

    def test_gap_bounded_by_geometric_envelope(self):
        rng = np.random.default_rng(15)
        n = 6
        model = scale_feedback(tiny_model(rng.normal(size=(n, n))), 0.8)
        u = rng.uniform(-1, 1, (1, 200))
        x1 = rng.uniform(-1, 1, n)
        x2 = rng.uniform(-1, 1, n)
        s1 = run_reservoir(model, u, x1)
        s2 = run_reservoir(model, u, x2)
        gaps = np.linalg.norm(s1.states - s2.states, axis=0)
        g0 = np.linalg.norm(x1 - x2)
        envelope = 0.8 ** np.arange(1, 201) * g0
        assert np.all(gaps <= envelope + 1e-12)


def per_pair_esp_check(model, inputs=None, n_pairs=100, n_steps=500, tol=1e-8, rng=None):
    """Oracle: the pair-by-pair loop over ``run_reservoir`` that the batched
    recursion replaced."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if inputs is None:
        inputs = rng.uniform(-1.0, 1.0, size=(model.n_inputs, n_steps))
    else:
        inputs = np.asarray(inputs, dtype=float)[:, :n_steps]
    n = model.n_nodes
    worst_step, worst_final, all_converged = 0, 0.0, True
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
    return all_converged, worst_final, worst_step if all_converged else None


def random_model(seed, n, k=2, gain=0.9):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n))
    return ReservoirModel(
        input_weights=rng.uniform(-1, 1, (n, k)),
        feedback=w * (gain / np.linalg.norm(w, 2)),
        biases=rng.uniform(-0.5, 0.5, n),
        readout=np.zeros((1, n + k)),
    )


class TestEspCheckBatched:
    CASES = [
        (random_model(0, 5), {}),
        (random_model(1, 12, gain=0.99), {"n_steps": 80}),
        (random_model(2, 8), {"n_pairs": 9, "n_steps": 120}),
        (random_model(3, 6, k=1), {"n_pairs": 3, "tol": 1e-3, "n_steps": 7}),
        # every pair merges long before the last of 2,000 steps
        (random_model(4, 10), {"n_pairs": 8, "n_steps": 2000}),
        (random_model(5, 30, gain=0.5), {"n_pairs": 40, "n_steps": 2000, "tol": 1e-15}),
        # bistable: tanh(3x) has fixed points near +-1, so pairs that start
        # on opposite signs in some node never meet
        (ReservoirModel(input_weights=np.full((2, 1), 0.05), feedback=3.0 * np.eye(2),
                        biases=np.zeros(2), readout=np.zeros((1, 3))), {"n_pairs": 6}),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("given_inputs", [False, True])
    def test_matches_the_per_pair_loop(self, case, given_inputs):
        model, kwargs = self.CASES[case]
        inputs = (np.random.default_rng(case).uniform(-1, 1, (model.n_inputs, 600))
                  if given_inputs else None)
        rng_a, rng_b = np.random.default_rng(case), np.random.default_rng(case)
        report = esp_check(model, inputs=inputs, rng=rng_a, **kwargs)
        converged, final, steps = per_pair_esp_check(model, inputs=inputs, rng=rng_b, **kwargs)
        assert report.converged == converged
        assert report.steps_to_tol == steps
        assert report.max_final_gap == pytest.approx(final, abs=1e-12)
        assert rng_a.random() == rng_b.random()

    def test_non_contracting_model_does_not_converge(self):
        model, kwargs = self.CASES[-1]
        report = esp_check(model, rng=np.random.default_rng(4), **kwargs)
        assert not report.converged and report.steps_to_tol is None
        assert report.max_final_gap > 1.0

    @pytest.mark.parametrize("n,n_pairs", [(120, 100), (3, 50), (1, 7)])
    def test_batched_starts_equal_the_per_pair_draws(self, n, n_pairs):
        # n = 120 pulls back nearly every pair, n <= 3 few or none
        rng_a, rng_b = np.random.default_rng(n), np.random.default_rng(n)
        starts = _start_pairs(rng_a, n, n_pairs)
        want = np.empty((n, 2 * n_pairs))
        for p in range(n_pairs):
            x1 = rng_b.uniform(-1.0, 1.0, size=n)
            x2 = rng_b.uniform(-1.0, 1.0, size=n)
            delta = x2 - x1
            gap0 = np.linalg.norm(delta)
            if gap0 > 2.0:
                x2 = x1 + delta * (2.0 / gap0)
            want[:, p], want[:, n_pairs + p] = x1, x2
        assert starts.shape == want.shape and starts.flags.c_contiguous
        assert np.array_equal(starts.view(np.int64), want.view(np.int64))
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("kwargs", [{"n_pairs": 0}, {"n_steps": 0},
                                        {"inputs": np.zeros((2, 0))}])
    def test_empty_runs_rejected(self, kwargs):
        with pytest.raises(ContractViolationError):
            esp_check(random_model(0, 4), **kwargs)

    def test_overflow_is_a_numeric_error(self):
        model = ReservoirModel(
            input_weights=np.full((2, 1), 1e308),
            feedback=np.array([[-1e308, -1e308], [0.0, 0.0]]),
            biases=np.zeros(2), readout=np.zeros((1, 3)),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericOverflowError):
                esp_check(model, inputs=np.full((1, 4), 2.0), n_pairs=2)
