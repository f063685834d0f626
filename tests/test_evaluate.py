import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rscn.baselines import BaselineConfig
from rscn.build import BuildConfig
from rscn import evaluate
from rscn.errors import ContractViolationError, MetricUndefinedError, NumericOverflowError
from rscn.evaluate import (
    PAIRED_COLUMNS,
    REPORT_COLUMNS,
    MeanStd,
    TrialResult,
    emit_report,
    grid_search,
    nrmse,
    paired_cells,
    run_trials,
    sign_test_p,
)


class TestNrmse:
    def test_perfect_prediction_scores_zero(self):
        t = np.random.default_rng(0).normal(size=(1, 50))
        assert nrmse(t, t) == 0.0

    def test_constant_mean_predictor_scores_one(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(1, 64))
        y = np.full_like(t, t.mean())
        assert nrmse(y, t) == pytest.approx(1.0, abs=1e-12)

    def test_hand_evaluated_example(self):
        # sqrt(1 / (3 * var([1,2,3]))) with population variance 2/3
        t = np.array([[1.0, 2.0, 3.0]])
        y = np.array([[1.0, 2.0, 4.0]])
        assert nrmse(y, t) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_zero_variance_raises(self):
        with pytest.raises(MetricUndefinedError):
            nrmse(np.zeros((1, 5)), np.ones((1, 5)))

    def test_too_short_raises(self):
        with pytest.raises(ContractViolationError):
            nrmse(np.ones((1, 1)), np.ones((1, 1)))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=20),
        st.floats(0.1, 50),
        st.floats(-100, 100),
    )
    # a shift that swamps a tiny target spread: the two values differ by
    # 7.5e-10 (relative 8e-14) from rounding alone
    @example(t_vals=[0.0, 0.0, 0.0, 0.000435], scale=1.0, shift=1.0)
    def test_joint_affine_invariance(self, t_vals, scale, shift):
        t = np.array([t_vals])
        if np.var(t) < 1e-8:
            return
        rng = np.random.default_rng(3)
        y = t + rng.normal(size=t.shape)
        base = nrmse(y, t)
        mapped = nrmse(scale * y + shift, scale * t + shift)
        # Both sides divide by a variance of rounded values. Each entry of
        # a (mapped) pair is off by up to about eps * its largest magnitude
        # M, and the mean subtraction in np.var keeps that absolute error
        # (summing n terms can grow it n-fold) while the deviations shrink
        # to std of the targets. The variance, and the NRMSE with it,
        # therefore carries a relative error of order n * eps * M / std:
        # M = max|t, y| against std(t) for the base pair, and
        # M = max|scale*(t, y) + shift| against scale * std(t) for the
        # mapped one. The numerator's differences have the same absolute
        # error against rms(y - t) >= 1.2 for this noise, which stays under
        # that bound while std(t) < 1.2 and under the abs floor above it.
        m_base = np.max(np.abs([t, y]))
        m_mapped = np.max(np.abs([scale * t + shift, scale * y + shift]))
        cond = (m_base + m_mapped / scale) / np.std(t)
        rel = 4 * t.size * np.finfo(float).eps * cond
        assert mapped == pytest.approx(base, rel=rel, abs=1e-10)


class TestAggregation:
    def test_single_value_has_zero_std(self):
        m = MeanStd.of([3.5])
        assert m.mean == 3.5 and m.std == 0.0

    def test_format_uses_four_decimals(self):
        assert format(MeanStd(0.01234, 0.00056), ".4f") == "0.0123±0.0006"


def tiny_manifest(tmp_path):
    """Cheap CSV task so trials run in milliseconds."""
    rng = np.random.default_rng(0)
    n = 120
    u = rng.uniform(-1, 1, n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.5 * y[t - 1] + np.tanh(u[t])
    path = tmp_path / "toy.csv"
    lines = ["u1,y"] + [f"{float(u[i])!r},{float(y[i])!r}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return {
        "task": "csv",
        "seed": 0,
        "washout": 5,
        "csv": {
            "path": str(path),
            "u_columns": ["u1"],
            "y_column": "y",
            "n_train": 80,
            "n_test": 39,
        },
    }


def tiny_build_cfg(**kw):
    base = dict(
        n_init=3, n_max=10, n_step=2, g_max=15,
        lambda_sequence=(0.5, 1.0, 5.0), r_sequence=(0.9, 0.99, 0.999),
        sparsity=0.2,
    )
    base.update(kw)
    return BuildConfig(**base)


class TestRunTrials:
    def test_single_trial_has_zero_std(self, tmp_path):
        report = run_trials(tiny_manifest(tmp_path), tiny_build_cfg(), 1, base_seed=4)
        assert report.n_trials == 1
        assert report.train_nrmse.std == 0.0
        assert report.test_nrmse.std == 0.0

    def test_deterministic_modulo_timing(self, tmp_path):
        manifest = tiny_manifest(tmp_path)
        a = run_trials(manifest, tiny_build_cfg(), 3, base_seed=1)
        b = run_trials(manifest, tiny_build_cfg(), 3, base_seed=1)
        assert a.train_nrmse == b.train_nrmse
        assert a.test_nrmse == b.test_nrmse
        assert a.reservoir_size == b.reservoir_size

    def test_baseline_spec_supported(self, tmp_path):
        cfg = BaselineConfig(n_nodes=12, esp_alpha=0.8)
        report = run_trials(tiny_manifest(tmp_path), cfg, 2, base_seed=0)
        assert report.model_name == "ESN"
        assert report.reservoir_size == 12.0

    def test_failed_trial_records_seed_and_error(self, tmp_path, monkeypatch):
        run_single_trial = evaluate.run_single_trial

        def failing_seed_5(task_manifest, spec, seed, task=None):
            if seed == 5:
                raise NumericOverflowError("state went non-finite")
            return run_single_trial(task_manifest, spec, seed, task)

        monkeypatch.setattr(evaluate, "run_single_trial", failing_seed_5)
        cfg = BaselineConfig(n_nodes=6)
        with pytest.warns(UserWarning, match="seed 5 failed"):
            report = run_trials(tiny_manifest(tmp_path), cfg, 3, base_seed=4)
        assert report.n_trials == 2 and report.n_failed == 1
        assert report.failures == (
            evaluate.TrialFailure(5, "NumericOverflowError", "state went non-finite"),)
        text = emit_report([report], "text")
        assert "ESN trial with seed 5 failed: NumericOverflowError: state went non-finite" in text
        assert "failed" not in emit_report([report], "csv")
        # with no trial left, the error names the first failure
        first = "seed=5, kind='NumericOverflowError'"
        with pytest.warns(UserWarning), pytest.raises(ContractViolationError, match=first):
            run_trials(tiny_manifest(tmp_path), cfg, 1, base_seed=5)


class TestGridSearch:
    def test_single_point_grid_returns_it(self, tmp_path):
        best, table = grid_search(
            tiny_manifest(tmp_path), tiny_build_cfg(), {"esp_alpha": [0.8]}, 1, seed=0
        )
        assert best == {"esp_alpha": 0.8}
        assert len(table) == 1

    def test_best_point_minimises_validation_error(self, tmp_path):
        best, table = grid_search(
            tiny_manifest(tmp_path),
            BaselineConfig(n_nodes=10),
            {"esp_alpha": [0.3, 0.6, 0.9]},
            2,
            seed=0,
        )
        vals = {tuple(p.items()): r.val_nrmse.mean for p, r in table}
        assert vals[tuple(best.items())] == min(vals.values())

    def test_deterministic(self, tmp_path):
        args = (tiny_manifest(tmp_path), BaselineConfig(n_nodes=8),
                {"esp_alpha": [0.5, 0.9]}, 1)
        b1, t1 = grid_search(*args, seed=3)
        b2, t2 = grid_search(*args, seed=3)
        assert b1 == b2
        assert [(p, r.val_nrmse) for p, r in t1] == [(p, r.val_nrmse) for p, r in t2]

    def test_each_seed_task_generated_once(self, tmp_path, monkeypatch):
        import rscn.evaluate as evaluate

        manifest, spec = tiny_manifest(tmp_path), BaselineConfig(n_nodes=8)
        grid = {"esp_alpha": [0.3, 0.6, 0.9]}
        seeds = []
        generate = evaluate.task_from_manifest

        def counted(m):
            seeds.append(m["seed"])
            return generate(m)

        monkeypatch.setattr(evaluate, "task_from_manifest", counted)
        _, table = grid_search(manifest, spec, grid, 2, seed=4)
        assert seeds == [4, 5]
        for point, report in table:
            alone = run_trials(manifest, BaselineConfig(n_nodes=8, **point), 2, 4)
            assert (report.val_nrmse, report.test_nrmse) == (alone.val_nrmse, alone.test_nrmse)

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ContractViolationError):
            grid_search(tiny_manifest(tmp_path), tiny_build_cfg(), {}, 1)


class TestEmitReport:
    def test_single_report_single_row(self, tmp_path):
        report = run_trials(tiny_manifest(tmp_path), BaselineConfig(n_nodes=6), 1)
        text = emit_report([report], "text")
        csv_text = emit_report([report], "csv")
        assert text.count("\n") == 3  # header, rule, one row
        assert csv_text.splitlines()[0] == "Models,N,Training time,Training NRMSE,Testing NRMSE"
        assert len(csv_text.strip().splitlines()) == 2

    def test_text_and_csv_contain_identical_numbers(self, tmp_path):
        report = run_trials(tiny_manifest(tmp_path), BaselineConfig(n_nodes=6), 2)
        text = emit_report([report], "text")
        csv_text = emit_report([report], "csv")
        data_row = csv_text.strip().splitlines()[1].split(",")
        for cell in data_row:
            assert cell in text

    def test_csv_round_trip_to_printed_precision(self, tmp_path):
        report = run_trials(tiny_manifest(tmp_path), BaselineConfig(n_nodes=6), 2)
        csv_text = emit_report([report], "csv")
        header, row = (line.split(",") for line in csv_text.strip().splitlines())
        assert row[0] == "ESN"
        assert int(row[1]) == 6
        got_mean, got_std = map(float, row[header.index("Testing NRMSE")].split("±"))
        assert got_mean == pytest.approx(report.test_nrmse.mean, abs=5e-5)
        assert got_std == pytest.approx(report.test_nrmse.std, abs=5e-5)


class TestPairedReport:
    """Every model after the first is paired with it seed by seed, as the gate pairs them."""

    @staticmethod
    def results(errors):
        return [TrialResult(seed, 10, 0.0, 0.0, 0.0, e) for seed, e in errors.items()]

    def test_sign_test_p_counts_every_outcome_as_extreme(self):
        assert sign_test_p(17, 3) == 2 * (1 + 20 + 190 + 1140) / 2**20
        assert sign_test_p(0, 0) == sign_test_p(5, 5) == 1.0
        for n in range(13):
            for wins in range(n + 1):
                extreme = [i for i in range(n + 1) if abs(2 * i - n) >= abs(2 * wins - n)]
                want = min(1.0, sum(math.comb(n, i) for i in extreme) / 2**n)
                assert sign_test_p(wins, n - wins) == pytest.approx(want, rel=1e-12)
                assert sign_test_p(wins, n - wins) == sign_test_p(n - wins, wins)

    def test_pairs_only_the_seeds_both_models_scored(self):
        first = self.results({0: 1.0, 1: 2.0, 2: 4.0, 3: 1.0})  # seed 4 failed
        other = self.results({0: 0.5, 1: 2.0, 3: 3.0, 4: 0.1})  # seed 2 failed
        # seed 1 ties: no win, and the sign test leaves it out
        assert paired_cells(other, first) == ("3", "1", "1.0000", format(sign_test_p(1, 1), ".3g"))
        assert paired_cells(self.results({5: 1.0}), first) == ("0", "0", "nan", "1")

    def test_paired_columns_follow_the_existing_ones(self, tmp_path):
        manifest, reports, trials = tiny_manifest(tmp_path), [], []
        for scale in (1.0, 0.3, 2.0):
            report, results = run_trials(
                manifest, BaselineConfig(n_nodes=6, weight_scale=scale), 3, keep_trials=True)
            reports.append(report)
            trials.append(results)
        for fmt in ("csv", "text"):
            plain = emit_report(reports, fmt).splitlines()
            paired = emit_report(reports, fmt, trials).splitlines()
            assert len(paired) == len(plain)
            assert all(p.startswith(q) for p, q in zip(paired, plain))
        csv = emit_report(reports, "csv", trials)
        header, first, *rows = (line.split(",") for line in csv.splitlines())
        assert tuple(header) == REPORT_COLUMNS + PAIRED_COLUMNS and first[5:] == ["", "", "", ""]
        for row, results in zip(rows, trials[1:]):
            wins = sum(r.test_nrmse < f.test_nrmse for r, f in zip(results, trials[0]))
            assert row[5:7] == ["3", str(wins)]
            assert row[5:] == list(paired_cells(results, trials[0]))
        one = emit_report(reports[:1], "csv", trials[:1])
        assert one == emit_report(reports[:1], "csv")
        with pytest.raises(ContractViolationError):
            emit_report(reports, "csv", trials[:2])
