"""Acceptance gate: every criterion at its stated tolerance.

Heavy experiments (20 paired trials per task) run once in module-scope
fixtures and are shared across the criteria that consume them. Each
criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
even when green).
"""

import dataclasses

import numpy as np
import pytest

from rscn.baselines import BaselineConfig
from rscn.build import BuildConfig, _readout, build_rscn, configure_node, init_network
from rscn.cli import ESN_SIZES, RSCN_N_MAX
from rscn.evaluate import nrmse, run_trials
from rscn.model import run_reservoir
from rscn.online import (
    OnlineConfig,
    OnlineState,
    online_run,
    project_step,
    project_step_deadzone,
    project_step_decreasing,
)
from rscn.spectral import esp_check, scale_feedback
from rscn.tasks import (
    DEBUTANIZER_REDUCED_FEATURES,
    POWER_LOAD_FEATURES,
    SupervisedSequence,
    task_from_manifest,
)

N_TRIALS = 20
BASE_SEED = 0


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def rscn_cfg(task: str) -> BuildConfig:
    return BuildConfig(n_max=RSCN_N_MAX[task])


def esn_cfg(task: str) -> BaselineConfig:
    return BaselineConfig(n_nodes=ESN_SIZES[task], esp_alpha=0.9)


def paired_trials(task: str):
    manifest = {"task": task, "seed": BASE_SEED}
    rscn_report, rscn_results = run_trials(
        manifest, rscn_cfg(task), N_TRIALS, BASE_SEED, keep_trials=True
    )
    esn_report, esn_results = run_trials(
        manifest, esn_cfg(task), N_TRIALS, BASE_SEED, keep_trials=True
    )
    return rscn_report, rscn_results, esn_report, esn_results


@pytest.fixture(scope="module")
def mg_pair():
    return paired_trials("mg")


@pytest.fixture(scope="module")
def mg1_pair():
    return paired_trials("mg1")


@pytest.fixture(scope="module")
def mg2_pair():
    return paired_trials("mg2")


@pytest.fixture(scope="module")
def plant_pair():
    return paired_trials("plant")


class TestCriterion1MgBenchmark:
    def test_mg_accuracy_size_and_runtime(self, mg_pair):
        rscn_report, rscn_results, _, _ = mg_pair
        mean_err = rscn_report.test_nrmse.mean
        train_err = rscn_report.train_nrmse.mean
        mean_size = rscn_report.reservoir_size
        total_time = sum(r.train_time_s for r in rscn_results)
        ok = (
            mean_err <= 0.03 and train_err <= 0.01
            and 30 <= mean_size <= 120 and total_time <= 300.0
        )
        report(
            1, ok,
            f"MG mean test NRMSE {mean_err:.4f} (<=0.03), train NRMSE "
            f"{train_err:.4f} (<=0.01), mean size {mean_size:.0f} (in [30,120]), "
            f"20-trial train time {total_time:.0f}s (<=300s)",
        )
        assert mean_err <= 0.03
        assert train_err <= 0.01
        assert 30 <= mean_size <= 120
        assert total_time <= 300.0


class TestCriterion2OrderingVsEsn:
    @pytest.mark.parametrize("task", ["mg", "mg1", "mg2", "plant"])
    def test_rscn_beats_esn_in_paired_seeds(self, task, request):
        rscn_report, rscn_results, esn_report, esn_results = request.getfixturevalue(
            f"{task}_pair"
        )
        wins = sum(
            r.test_nrmse < e.test_nrmse
            for r, e in zip(rscn_results, esn_results)
        )
        mean_ok = rscn_report.test_nrmse.mean < esn_report.test_nrmse.mean
        ok = mean_ok and wins >= 18
        report(
            2, ok,
            f"{task}: RSCN {rscn_report.test_nrmse.mean:.4f} vs ESN "
            f"{esn_report.test_nrmse.mean:.4f}, paired wins {wins}/20 (need >=18)",
        )
        assert mean_ok, f"{task}: RSCN mean not below ESN mean"
        assert wins >= 18, f"{task}: only {wins}/20 paired wins"


class TestCriterion3PlantAccuracy:
    def test_plant_mean_error(self, plant_pair):
        rscn_report, *_ = plant_pair
        mean_err = rscn_report.test_nrmse.mean
        ok = mean_err <= 0.08
        report(3, ok, f"plant RSCN mean test NRMSE {mean_err:.4f} (<=0.08)")
        assert mean_err <= 0.08


class TestCriterion4LagDegradation:
    def test_error_ordering_across_variants(self, mg_pair, mg1_pair, mg2_pair):
        e_mg = mg_pair[0].test_nrmse.mean
        e_mg1 = mg1_pair[0].test_nrmse.mean
        e_mg2 = mg2_pair[0].test_nrmse.mean
        ok = e_mg <= e_mg1 <= e_mg2
        report(
            4, ok,
            f"RSCN mean test NRMSE: mg {e_mg:.4f} <= mg1 {e_mg1:.4f} <= mg2 {e_mg2:.4f}",
        )
        assert e_mg <= e_mg1 <= e_mg2


class TestCriterion5MonotoneResidual:
    @pytest.mark.parametrize("task,washout", [("mg", 20), ("plant", 100)])
    def test_training_residual_never_increases(self, task, washout):
        # and, per node, ||e_n||^2 <= (r + mu_n) ||e_{n-1}||^2 with
        # mu_n = (1 - r) / (n + 1): the paper's supervisory bound
        worst, worst_ratio = 0.0, 0.0
        for seed in range(10):
            data = task_from_manifest({"task": task, "seed": seed})
            cfg = BuildConfig(n_max=40, seed=seed)
            _, hist = build_rscn(data.train, data.val, cfg)
            norms, rs, sizes = hist.train_norms, hist.rs, hist.sizes
            assert len(norms) >= 2
            for i in range(1, len(norms)):
                a, b = norms[i - 1], norms[i]
                worst = max(worst, b - a)
                assert b <= a + 1e-12, f"{task} seed {seed}: {a} -> {b}"
                bound = (rs[i] + (1 - rs[i]) / (sizes[i - 1] + 1)) * a**2
                worst_ratio = max(worst_ratio, b**2 / bound)
                assert b**2 <= bound * (1 + 1e-12), f"{task} seed {seed} size {sizes[i]}"
        report(
            5, True,
            f"{task}: residual norm non-increasing in 10/10 builds "
            f"(worst step change {worst:.2e} <= 1e-12; each node's squared "
            f"residual at most {worst_ratio:.3f} of the paper's bound)",
        )


class TestCriterion6EspContraction:
    def test_built_models_forget_initial_state(self):
        worst_steps = 0
        for task, washout, seed in (
            ("mg", 20, 0), ("mg", 20, 1), ("mg", 20, 2),
            ("plant", 100, 0), ("plant", 100, 1),
        ):
            data = task_from_manifest({"task": task, "seed": seed})
            cfg = BuildConfig(n_max=60, seed=seed)
            model, _ = build_rscn(data.train, data.val, cfg)
            scaled = scale_feedback(model, 0.99)
            rep = esp_check(
                scaled, n_pairs=100, n_steps=500, tol=1e-8,
                rng=np.random.default_rng(seed),
            )
            assert rep.converged, f"{task} seed {seed} left gap {rep.max_final_gap}"
            worst_steps = max(worst_steps, rep.steps_to_tol)
        report(
            6, True,
            f"five built models, alpha 0.99: all 100 state-pair gaps below 1e-8 "
            f"within {worst_steps} steps (<=500)",
        )


class TestCriterion7NonExpansion:
    def test_weight_gap_never_grows_on_exact_streams(self):
        worst = -np.inf
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w0 = rng.normal(size=(2, 6))
            for a in (0.5, 1.0):
                for c in (0.1, 1.0):
                    state = OnlineState(readout=np.zeros((2, 6)), w_ref=w0)
                    gap = float(np.linalg.norm(state.readout - w0))
                    for _ in range(300):
                        g = rng.normal(size=6)
                        project_step(state, g, w0 @ g, a, c)
                        new_gap = state.diagnostics[-1].weight_gap
                        worst = max(worst, new_gap - gap)
                        assert new_gap <= gap + 1e-12
                        gap = new_gap
        report(
            7, True,
            f"10 seeds x (a,c) grid: gap non-increasing every step "
            f"(worst change {worst:.2e} <= 1e-12)",
        )


class TestCriterion8DecreasingGainConvergence:
    def test_relative_gap_below_one_percent(self):
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w0 = rng.normal(size=(1, 2))
            state = OnlineState(readout=np.zeros((1, 2)), w_ref=w0)
            dirs = np.eye(2)
            for n in range(1, 10_001):
                g = dirs[(n - 1) % 2] * (1.0 if n % 2 == 1 else 2.0)
                project_step_decreasing(state, g, w0 @ g)
            rel = state.diagnostics[-1].weight_gap / np.linalg.norm(w0)
            worst = max(worst, rel)
            assert rel < 1e-2
        report(
            8, True,
            f"10/10 seeds reach relative weight gap < 1e-2 by step 10000 "
            f"(worst {worst:.2e})",
        )


class TestCriterion9DeadZoneStability:
    def test_bounded_noise_never_grows_gap_and_small_errors_freeze(self):
        phi = 0.25
        n_frozen = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w0 = rng.normal(size=(1, 5))
            state = OnlineState(readout=np.zeros((1, 5)), w_ref=w0)
            gap = float(np.linalg.norm(state.readout - w0))
            for _ in range(400):
                g = rng.normal(size=5)
                nu = rng.uniform(-phi, phi)
                before = state.readout
                project_step_deadzone(state, g, w0 @ g + nu, phi_n=phi)
                d = state.diagnostics[-1]
                new_gap = d.weight_gap
                assert new_gap <= gap + 1e-12
                gap = new_gap
                if np.all(np.abs(d.prior_error) <= 2 * phi):
                    assert d.eta == 0.0
                    assert state.readout is before or np.array_equal(
                        state.readout, before
                    )
                    n_frozen += 1
        report(
            9, True,
            f"10/10 seeds: gap never grew; {n_frozen} in-zone steps were exact identities",
        )


class TestCriterion10StructuralGrowth:
    def test_append_preserves_old_states_and_dense_column_does_not(self):
        for seed in range(10):
            data = task_from_manifest({"task": "mg", "seed": seed})
            cfg = BuildConfig(n_init=4, n_max=12, n_step=2, g_max=30, seed=seed)
            state = init_network(
                data.train, data.val, cfg, np.random.default_rng(seed)
            )
            before = state.train_states[:state.n, 1:].copy()
            pool = None
            for lam in cfg.lambda_sequence:
                for r in cfg.r_sequence:
                    state.cfg = dataclasses.replace(cfg, r_sequence=(r,))
                    pool = configure_node(state, lam, np.random.default_rng(seed + 100))
                    if pool.best is not None:
                        break
                if pool.best is not None:
                    break
            assert pool.best is not None
            from rscn.build import _accept_node

            _accept_node(state, pool.best)
            n = before.shape[0]
            assert np.array_equal(state.train_states[:n, 1:], before)

            from dataclasses import replace

            model = state.network(state.n, _readout(state, state.n))
            w_r = model.feedback.copy()
            w_r[:n, n] = 0.3  # old nodes now see the appended one
            general = replace(model, feedback=w_r, structure_tag="general")
            seq = run_reservoir(general, data.train.inputs)
            assert not np.array_equal(seq.states[:n], before)
        report(
            10, True,
            "10/10 seeds: triangular append leaves old states bit-identical; "
            "a dense final column changes them",
        )


class TestCriterion11IndustrySchemas:
    def _make_csv(self, path, n_u, n_rows, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(n_rows, n_u))
        y = np.zeros(n_rows)
        for t in range(1, n_rows):
            y[t] = 0.7 * y[t - 1] + 0.3 * np.tanh(u[t, 0]) + 0.1 * u[t - 1, 1]
        header = ",".join([f"u{i + 1}" for i in range(n_u)] + ["y"])
        rows = [
            ",".join(repr(float(v)) for v in list(u[t]) + [y[t]])
            for t in range(n_rows)
        ]
        path.write_text("\n".join([header] + rows) + "\n")

    @pytest.mark.parametrize(
        "label,n_u,features,expected_k",
        [
            ("debutanizer", 7, DEBUTANIZER_REDUCED_FEATURES, 6),
            ("power_load", 4, POWER_LOAD_FEATURES, 5),
        ],
    )
    def test_stand_in_pipeline_end_to_end(self, tmp_path, label, n_u, features,
                                          expected_k):
        path = tmp_path / f"{label}.csv"
        self._make_csv(path, n_u, 400, seed=3)
        manifest = {
            "task": "csv",
            "seed": 3,
            "washout": 10,
            "csv": {
                "path": str(path),
                "u_columns": [f"u{i + 1}" for i in range(n_u)],
                "y_column": "y",
                "features": features,
                "n_train": 250,
                "n_test": 140,
            },
        }
        task = task_from_manifest(manifest)
        assert task.train.n_inputs == expected_k
        cfg = BuildConfig(n_init=4, n_max=20, n_step=3, g_max=30, seed=3)
        model, _ = build_rscn(task.train, task.val, cfg)
        preds, state = online_run(
            model, task.test, OnlineConfig(mode="dead_zone", phi=0.05),
            w_ref=model.readout,
        )
        assert preds.shape == task.test.targets.shape
        assert np.all(np.isfinite(preds))
        err = nrmse(preds[:, 10:], task.test.targets[:, 10:])
        report(
            11, True,
            f"{label}: K={expected_k} schema built; train->online pipeline "
            f"finished (stream NRMSE {err:.3f})",
        )


class TestCriterion12MetricIdentity:
    def test_constant_mean_predictor_scores_exactly_one(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(5, 400))
            t = rng.normal(size=(1, n)) * rng.uniform(0.1, 50)
            y = np.full_like(t, t.mean())
            worst = max(worst, abs(nrmse(y, t) - 1.0))
            assert abs(nrmse(y, t) - 1.0) <= 1e-12
        report(
            12, True,
            f"constant-mean predictor NRMSE == 1 on 100 random targets "
            f"(worst deviation {worst:.2e} <= 1e-12)",
        )
