import numpy as np
import pytest

from rscn.baselines import BaselineConfig, build_baseline
from rscn.model import run_reservoir
from rscn.spectral import esp_check, max_singular_value
from rscn.tasks import SupervisedSequence


def toy_train(n=150, k=2, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, (k, n))
    y = np.tanh(u[:1] + 0.5 * np.roll(u[:1], 1, axis=1))
    return SupervisedSequence(u, y, washout=10, name="toy")


class TestEsn:
    def test_feedback_gain_equals_alpha_by_construction(self):
        cfg = BaselineConfig(n_nodes=30, esp_alpha=0.85, seed=1)
        model = build_baseline(cfg, toy_train())
        assert max_singular_value(model.feedback) == pytest.approx(0.85, rel=1e-9)

    def test_same_seed_identical_model(self):
        cfg = BaselineConfig(n_nodes=20, seed=5)
        a = build_baseline(cfg, toy_train())
        b = build_baseline(cfg, toy_train())
        assert np.array_equal(a.input_weights, b.input_weights)
        assert np.array_equal(a.feedback, b.feedback)
        assert np.array_equal(a.readout, b.readout)

    def test_exact_representability_fits_tightly(self):
        # target equals an input channel: the direct link solves it exactly
        rng = np.random.default_rng(2)
        u = rng.uniform(-1, 1, (2, 100))
        seq = SupervisedSequence(u, u[:1].copy(), washout=5)
        model = build_baseline(BaselineConfig(n_nodes=10, seed=0), seq)
        states = run_reservoir(model, seq.inputs)
        preds = model.readout @ states.extended
        assert np.linalg.norm(preds[:, 5:] - seq.targets[:, 5:]) < 1e-10

    def test_satisfies_two_trajectory_contraction(self):
        cfg = BaselineConfig(n_nodes=25, esp_alpha=0.9, seed=3)
        model = build_baseline(cfg, toy_train())
        report = esp_check(model, n_pairs=10, n_steps=500, rng=np.random.default_rng(0))
        assert report.converged

    def test_lagged_series_accuracy_bracket(self):
        # expected accuracy bracket for this configuration
        from rscn.evaluate import run_trials

        report = run_trials(
            {"task": "mg", "seed": 0},
            BaselineConfig(n_nodes=98, weight_scale=1.0, esp_alpha=0.9),
            n_trials=10,
        )
        assert 0.01 <= report.test_nrmse.mean <= 0.06


class TestScr:
    def test_every_row_has_exactly_one_nonzero(self):
        cfg = BaselineConfig(n_nodes=17, topology="scr_ring", ring_weight=0.6)
        model = build_baseline(cfg, toy_train())
        assert np.all(np.count_nonzero(model.feedback, axis=1) == 1)

    def test_ring_spectral_radius_is_the_weight_magnitude(self):
        # circulant spectrum: w * exp(2 pi i k / N), all magnitude |w|
        cfg = BaselineConfig(n_nodes=12, topology="scr_ring", ring_weight=0.7)
        model = build_baseline(cfg, toy_train())
        rho = np.max(np.abs(np.linalg.eigvals(model.feedback)))
        assert rho == pytest.approx(0.7, rel=1e-9)

    def test_zero_ring_weight_is_memoryless(self):
        cfg = BaselineConfig(n_nodes=9, topology="scr_ring", ring_weight=0.0)
        model = build_baseline(cfg, toy_train())
        rng = np.random.default_rng(1)
        u = rng.uniform(-1, 1, (2, 30))
        seq = run_reservoir(model, u)
        # state depends only on the current input
        direct = np.tanh(model.input_weights @ u + model.biases[:, None])
        assert np.allclose(seq.states, direct, atol=1e-15)

    def test_contractive_ring_passes_two_trajectory_test(self):
        cfg = BaselineConfig(n_nodes=15, topology="scr_ring", ring_weight=0.8, seed=2)
        model = build_baseline(cfg, toy_train())
        report = esp_check(model, n_pairs=10, n_steps=500, rng=np.random.default_rng(1))
        assert report.converged
