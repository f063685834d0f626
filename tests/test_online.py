from pathlib import Path

import numpy as np
import pytest

from rscn.errors import ContractViolationError
from rscn.model import ReservoirModel
from rscn.online import (
    BLOCK,
    OnlineConfig,
    OnlineState,
    diagnostics_csv,
    online_run,
    project_step,
    project_step_deadzone,
    project_step_decreasing,
)
from rscn.tasks import SupervisedSequence

DATA = Path(__file__).parent / "data"


def assert_close(actual, ref, rtol=1e-12):
    """``|actual - ref| <= rtol * max(1, |ref|)`` entry by entry; NaNs must coincide."""
    actual, ref = np.asarray(actual, dtype=float), np.asarray(ref, dtype=float)
    assert actual.shape == ref.shape
    ok = (np.isnan(actual) & np.isnan(ref)) | (
        np.abs(actual - ref) <= rtol * np.maximum(1.0, np.abs(ref)))
    assert ok.all(), f"largest deviation {np.nanmax(np.abs(actual - ref))!r}"


def make_state(w, w_ref=None):
    return OnlineState(readout=np.atleast_2d(np.asarray(w, dtype=float)).copy(),
                       w_ref=w_ref)


class TestProjectStep:
    def test_zero_innovation_leaves_weights_unchanged(self):
        state = make_state([[1.0, -2.0]])
        g = np.array([0.5, 0.25])
        y = state.readout @ g
        before = state.readout.copy()
        project_step(state, g, y, a=0.7, c=1.0)
        assert np.array_equal(state.readout, before)

    def test_exact_projection_in_vanishing_c_limit(self):
        state = make_state([[0.0]])
        project_step(state, np.array([2.0]), np.array([4.0]), a=1.0, c=1e-12)
        assert state.readout[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert abs(state.diagnostics[-1].posterior_error[0]) < 1e-9

    def test_hand_evaluated_damped_step(self):
        # 0 + 1 * 4 * 2 / (1 + 4) = 1.6
        state = make_state([[0.0]])
        project_step(state, np.array([2.0]), np.array([4.0]), a=1.0, c=1.0)
        assert state.readout[0, 0] == pytest.approx(1.6, abs=1e-15)

    def test_posterior_error_contracts_by_lambda_hat(self):
        rng = np.random.default_rng(0)
        state = make_state(rng.normal(size=(2, 4)))
        for a, c in [(0.5, 0.1), (1.0, 1.0), (0.25, 2.0)]:
            for _ in range(20):
                g = rng.normal(size=4)
                y = rng.normal(size=2)
                project_step(state, g, y, a, c)
                d = state.diagnostics[-1]
                lam_hat = 1.0 - a * (g @ g) / (c + g @ g)
                want = lam_hat * np.linalg.norm(d.prior_error)
                assert np.linalg.norm(d.posterior_error) == pytest.approx(
                    want, abs=1e-10
                )

    def test_non_expansion_on_exact_linear_stream(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=(2, 5))
        for a, c in [(0.5, 0.1), (0.5, 1.0), (1.0, 0.1), (1.0, 1.0)]:
            state = make_state(np.zeros((2, 5)), w_ref=w0)
            gap = np.linalg.norm(state.readout - w0)
            for _ in range(200):
                g = rng.normal(size=5)
                project_step(state, g, w0 @ g, a, c)
                new_gap = state.diagnostics[-1].weight_gap
                assert new_gap <= gap + 1e-12
                gap = new_gap

    def test_dimension_mismatch_rejected(self):
        state = make_state([[0.0, 0.0]])
        with pytest.raises(ContractViolationError):
            project_step(state, np.array([1.0]), np.array([1.0]), 1.0, 1.0)

    @pytest.mark.parametrize("a,c", [(1.0, 0.0), (0.0, 1.0), (1.5, 1.0), (1.0, float("nan"))])
    def test_constants_are_checked_as_the_config_checks_them(self, a, c):
        # c = 0 with a zero feature vector would divide 0 by 0 into the readout
        state = OnlineState(readout=np.zeros((1, 2)))
        with pytest.raises(ContractViolationError, match="basic mode"):
            project_step(state, np.zeros(2), np.ones(1), a=a, c=c)
        assert state.step == 0 and np.array_equal(state.readout, np.zeros((1, 2)))
        with pytest.raises(ContractViolationError, match="basic mode"):
            OnlineConfig(mode="basic", a=a, c=c)


class TestDecreasingGain:
    def test_first_step_is_exact_projection(self):
        state = make_state([[0.0]])
        project_step_decreasing(state, np.array([2.0]), np.array([4.0]))
        assert state.accumulated_gain == 4.0
        assert state.readout[0, 0] == 2.0
        assert state.diagnostics[-1].posterior_error[0] == 0.0

    def test_zero_feature_vector_skips_update(self):
        state = make_state([[3.0]])
        project_step_decreasing(state, np.array([0.0]), np.array([1.0]))
        assert state.readout[0, 0] == 3.0
        assert state.diagnostics[-1].eta == 0.0

    def test_gain_accumulates_monotonically(self):
        rng = np.random.default_rng(2)
        state = make_state(np.zeros((1, 3)))
        last = 0.0
        for _ in range(50):
            project_step_decreasing(state, rng.normal(size=3), rng.normal(size=1))
            assert state.accumulated_gain >= last
            last = state.accumulated_gain

    def test_converges_on_alternating_direction_stream(self):
        # oracle simulation: relative gap ~4e-4 after 5000 steps on this
        # stream (orthogonal directions with norms 1 and 2, noiseless)
        rng = np.random.default_rng(3)
        w0 = rng.normal(size=(1, 2))
        state = make_state(np.zeros((1, 2)), w_ref=w0)
        dirs = np.eye(2)
        for n in range(1, 5001):
            g = dirs[(n - 1) % 2] * (1.0 if n % 2 == 1 else 2.0)
            project_step_decreasing(state, g, w0 @ g)
        rel = state.diagnostics[-1].weight_gap / np.linalg.norm(w0)
        assert rel < 1e-3


class TestDeadZone:
    def test_small_error_freezes_weights_bitwise(self):
        state = make_state([[1.0, 2.0]])
        g = np.array([0.1, 0.1])
        y = state.readout @ g + 0.05
        before = state.readout.copy()
        project_step_deadzone(state, g, y, phi_n=0.1)  # |e| = 0.05 <= 0.2
        assert np.array_equal(state.readout, before)
        assert state.diagnostics[-1].eta == 0.0

    def test_zero_phi_degenerates_to_basic_unit_step(self):
        ga = np.array([0.7, -0.3])
        y = np.array([0.9])
        s1 = make_state([[0.2, 0.4]])
        project_step_deadzone(s1, ga, y, phi_n=0.0)
        s2 = make_state([[0.2, 0.4]])
        project_step(s2, ga, y, a=1.0, c=1.0)
        assert np.array_equal(s1.readout, s2.readout)

    def test_nan_phi_rejected(self):
        state = make_state([[0.0, 0.0]])
        with pytest.raises(ContractViolationError, match="phi"):
            project_step_deadzone(state, np.array([1.0, 1.0]), np.array([5.0]), float("nan"))
        assert state.step == 0 and not state.readout.any()

    def test_gap_never_grows_under_bounded_noise(self):
        rng = np.random.default_rng(4)
        w0 = rng.normal(size=(1, 4))
        phi = 0.2
        state = make_state(np.zeros((1, 4)), w_ref=w0)
        gap = np.linalg.norm(state.readout - w0)
        for _ in range(500):
            g = rng.normal(size=4)
            nu = rng.uniform(-phi, phi)
            project_step_deadzone(state, g, w0 @ g + nu, phi_n=phi)
            new_gap = state.diagnostics[-1].weight_gap
            assert new_gap <= gap + 1e-12
            gap = new_gap


@pytest.mark.parametrize("rule,step,constants", [
    ({"mode": "basic", "a": 0.0}, project_step, (0.0, 1.0)),
    ({"mode": "basic", "c": 0.0}, project_step, (1.0, 0.0)),
    ({"mode": "dead_zone", "phi": -1.0}, project_step_deadzone, (-1.0,)),
    ({"mode": "dead_zone", "phi": float("nan")}, project_step_deadzone, (float("nan"),)),
], ids=["a=0", "c=0", "phi=-1", "phi=nan"])
def test_step_functions_refuse_constants_as_the_config_does(rule, step, constants):
    with pytest.raises(ContractViolationError) as config_err:
        OnlineConfig(**rule)
    state = make_state([[0.0, 0.0]])
    with pytest.raises(ContractViolationError) as step_err:
        step(state, np.ones(2), np.ones(1), *constants)
    assert str(step_err.value) == str(config_err.value)
    assert state.step == 0 and not state.readout.any()


def small_model(seed=0, n=6, k=2, ell=1):
    rng = np.random.default_rng(seed)
    w_r = rng.normal(size=(n, n))
    w_r *= 0.8 / np.linalg.svd(w_r, compute_uv=False)[0]
    return ReservoirModel(
        input_weights=rng.uniform(-1, 1, (n, k)),
        feedback=w_r,
        biases=rng.uniform(-0.5, 0.5, n),
        readout=rng.normal(size=(ell, n + k)),
    )


class TestOnlineRun:
    def test_self_generated_stream_never_moves_weights(self):
        from rscn.model import run_reservoir

        model = small_model()
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, (2, 100))
        seq = run_reservoir(model, u)
        # per-step contiguous product: the exact arithmetic the update performs
        ext = np.ascontiguousarray(seq.extended.T)
        targets = np.column_stack([model.readout @ ext[t] for t in range(100)])
        stream = SupervisedSequence(u, targets, washout=0)
        preds, state = online_run(model, stream, OnlineConfig(mode="basic", a=1.0, c=1.0))
        assert np.allclose(preds, targets, atol=1e-10)
        assert np.array_equal(state.readout, model.readout)

    def test_first_prediction_precedes_any_update(self):
        model = small_model()
        rng = np.random.default_rng(6)
        u = rng.uniform(-1, 1, (2, 10))
        targets = rng.normal(size=(1, 10))  # unrelated to the model
        stream = SupervisedSequence(u, targets, washout=0)
        preds, state = online_run(model, stream, OnlineConfig())
        from rscn.model import run_reservoir

        seq = run_reservoir(model, u)
        assert preds[0, 0] == pytest.approx(
            (model.readout @ seq.extended[:, 0])[0], abs=1e-14
        )
        assert state.diagnostics[0].eta == 0.0

    def test_deterministic_histories(self):
        model = small_model()
        rng = np.random.default_rng(7)
        u = rng.uniform(-1, 1, (2, 60))
        targets = rng.normal(size=(1, 60))
        stream = SupervisedSequence(u, targets, washout=0)
        p1, s1 = online_run(model, stream, OnlineConfig(a=0.5, c=0.5))
        p2, s2 = online_run(model, stream, OnlineConfig(a=0.5, c=0.5))
        assert np.array_equal(p1, p2)
        assert np.array_equal(s1.readout, s2.readout)

    def test_gap_series_logged_with_reference(self):
        model = small_model()
        rng = np.random.default_rng(8)
        u = rng.uniform(-1, 1, (2, 30))
        targets = rng.normal(size=(1, 30))
        stream = SupervisedSequence(u, targets, washout=0)
        _, state = online_run(model, stream, OnlineConfig(), w_ref=model.readout)
        gaps = state.weight_gap_series()
        assert gaps.shape == (30,)
        assert gaps[0] == 0.0  # starts at the reference

    def test_diagnostics_csv_shape(self):
        model = small_model()
        rng = np.random.default_rng(9)
        u = rng.uniform(-1, 1, (2, 5))
        stream = SupervisedSequence(u, rng.normal(size=(1, 5)), washout=0)
        preds, state = online_run(model, stream, OnlineConfig())
        text = diagnostics_csv(stream, preds, state)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "n,target_1,prediction_1,prior_err_norm,posterior_err_norm,eta,weight_gap"
        )
        assert len(lines) == 6

    def test_gap_decays_toward_identifiable_reference(self):
        # frozen from a scripted run: starting the readout at zero on a real
        # lagged-series stream, the gap to a ridge-stabilised offline readout
        # falls by roughly a third (0.46 -> 0.31) over the 671-step stream.
        # The model is a saved mg1 seed-0 RSCN (BuildConfig(n_max=120, seed=0)),
        # so the figures do not move with the candidate search.
        from rscn.build import solve_output_weights
        from rscn.model import load_model, run_reservoir
        from rscn.tasks import task_from_manifest

        task = task_from_manifest({"task": "mg1", "seed": 0})
        model = load_model(str(DATA / "mg1_seed0_rscn.model.json"))
        stream = SupervisedSequence(
            np.hstack([task.val.inputs, task.test.inputs]),
            np.hstack([task.val.targets, task.test.targets]),
            washout=20,
        )
        seq = run_reservoir(model, task.train.inputs)
        w_ref = solve_output_weights(
            seq.extended[:, 20:], task.train.targets[:, 20:], ridge=1.0
        )
        cold = model.with_readout(np.zeros_like(model.readout))
        _, state = online_run(
            cold, stream, OnlineConfig(mode="basic", a=1.0, c=1.0), w_ref=w_ref
        )
        gaps = state.weight_gap_series()
        assert gaps[-1] <= 0.75 * gaps[0]
        # loose monotone trend: each 100-step block no worse than the last
        blocks = [gaps[i : i + 100].mean() for i in range(0, 600, 100)]
        assert all(b <= a + 1e-9 for a, b in zip(blocks, blocks[1:]))

    def test_enormous_phi_gates_every_update(self):
        model = small_model()
        rng = np.random.default_rng(10)
        u = rng.uniform(-1, 1, (2, 8))
        stream = SupervisedSequence(u, rng.normal(size=(1, 8)), washout=0)
        cfg = OnlineConfig(mode="dead_zone", phi=1e6)
        preds, state = online_run(model, stream, cfg)
        # enormous noise bound: every update gated off
        assert all(d.eta == 0.0 for d in state.diagnostics)
        assert np.array_equal(state.readout, model.readout)

    def test_mode_validation(self):
        with pytest.raises(ContractViolationError):
            OnlineConfig(mode="nope")
        with pytest.raises(ContractViolationError):
            OnlineConfig(mode="basic", a=0.0)
        with pytest.raises(ContractViolationError):
            OnlineConfig(mode="basic", c=0.0)

    @pytest.mark.parametrize(
        "phi", [-0.1, float("nan"), [0.1, -0.1], [0.1, float("nan")], [0.1, 0.2]],
        ids=["negative", "nan", "negative-series", "nan-series", "series"])
    def test_phi_must_be_a_nonnegative_number(self, phi):
        with pytest.raises(ContractViolationError, match="phi"):
            OnlineConfig(mode="dead_zone", phi=phi)

    def test_phi_must_have_at_most_one_dimension(self):
        with pytest.raises(ContractViolationError, match="phi"):
            OnlineConfig(mode="dead_zone", phi=np.ones((3, 2)))


def legacy_diagnostics_csv(stream, preds, state):
    """The row-by-row formatter the column export replaced, kept as an oracle."""
    ell = stream.n_outputs
    header = ["n"]
    header += [f"target_{q + 1}" for q in range(ell)]
    header += [f"prediction_{q + 1}" for q in range(ell)]
    header += ["prior_err_norm", "posterior_err_norm", "eta", "weight_gap"]
    lines = [",".join(header)]
    for t, d in enumerate(state.diagnostics):
        cells = [str(t + 1)]
        cells += [repr(float(v)) for v in stream.targets[:, t]]
        cells += [repr(float(v)) for v in preds[:, t]]
        cells.append(repr(float(np.linalg.norm(d.prior_error))))
        cells.append(repr(float(np.linalg.norm(d.posterior_error))))
        cells.append(repr(float(d.eta)))
        cells.append("" if d.weight_gap is None else repr(float(d.weight_gap)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


PHI = 0.5  # on these 80-step streams the gate opens on 32 (one output) or 53 (two) steps
RULES = [  # online_run's config, and the step function it must equal at step t + 1
    (OnlineConfig(mode="basic", a=0.7, c=0.5), lambda s, g, y, t: project_step(s, g, y, 0.7, 0.5)),
    (OnlineConfig(mode="decreasing_gain"), lambda s, g, y, t: project_step_decreasing(s, g, y)),
    (OnlineConfig(mode="dead_zone", phi=PHI),
     lambda s, g, y, t: project_step_deadzone(s, g, y, PHI)),
]


def test_rules_on_one_model_run_the_reservoir_once(recursions):
    rng = np.random.default_rng(14)
    stream = SupervisedSequence(rng.uniform(-1, 1, (2, 150)), rng.normal(size=(1, 150)),
                                washout=5)
    model = small_model(seed=14)
    runs = [online_run(model, stream, cfg) for cfg, _ in RULES]
    assert len(recursions) == 1
    for (cfg, _), (preds, state) in zip(RULES, runs):
        fresh_preds, fresh_state = online_run(small_model(seed=14), stream, cfg)  # a twin
        assert preds.tobytes() == fresh_preds.tobytes()
        assert diagnostics_csv(stream, preds, state) == diagnostics_csv(
            stream, fresh_preds, fresh_state)
    assert len(recursions) == 1 + len(RULES)


class TestOnlineColumns:
    def stream(self, ell, seed=11, n=80):
        model = small_model(seed=seed, ell=ell)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1, 1, (2, n))
        return model, SupervisedSequence(u, rng.normal(size=(ell, n)), washout=5)

    @pytest.mark.parametrize("rule", range(len(RULES)))
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("with_ref", [False, True])
    def test_online_run_equals_a_loop_of_step_functions(self, rule, ell, with_ref):
        from rscn.model import run_reservoir

        cfg, step = RULES[rule]
        model, stream = self.stream(ell)
        w_ref = 0.5 * model.readout if with_ref else None
        preds, state = online_run(model, stream, cfg, w_ref=w_ref)

        features = np.ascontiguousarray(run_reservoir(model, stream.inputs).extended.T)
        manual = OnlineState(readout=model.readout.copy(), w_ref=w_ref)
        manual_preds = [model.readout @ features[0]]
        for t in range(1, stream.n_steps):
            step(manual, features[t], stream.targets[:, t], t)
            manual_preds.append(manual.readout @ features[t])
        first = stream.targets[:, 0] - manual_preds[0]

        # blocks of steps equal the step functions up to rounding; the first
        # step only predicts, so its errors stay exact
        assert_close(state.readout, manual.readout)
        assert state.accumulated_gain == manual.accumulated_gain
        assert_close(preds, np.column_stack(manual_preds))
        assert np.array_equal(state.prior_errors[0], first)
        assert np.array_equal(state.posterior_errors[0], first)
        assert_close(state.prior_errors[1:], manual.prior_errors)
        assert_close(state.posterior_errors[1:], manual.posterior_errors)
        assert np.array_equal(state.etas, np.r_[0.0, manual.etas])
        gaps = state.weight_gap_series()
        assert_close(gaps[1:], manual.weight_gap_series())
        if with_ref:
            assert gaps[0] == np.linalg.norm(model.readout - w_ref)
        else:
            assert np.all(np.isnan(gaps))
        assert len(state.diagnostics) == stream.n_steps == state.step
        if cfg.mode == "dead_zone":  # the gate both opens and stays shut
            assert 0 < np.count_nonzero(state.etas) < stream.n_steps - 1

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("with_ref", [False, True])
    def test_csv_equals_the_row_formatter(self, ell, with_ref):
        model, stream = self.stream(ell, seed=12)
        w_ref = 0.5 * model.readout if with_ref else None
        for cfg, _ in RULES:
            preds, state = online_run(model, stream, cfg, w_ref=w_ref)
            assert diagnostics_csv(stream, preds, state) == legacy_diagnostics_csv(
                stream, preds, state)

    @pytest.mark.parametrize("with_ref", [False, True])
    def test_csv_gap_cells(self, with_ref):
        model, stream = self.stream(1, seed=13)
        w_ref = 0.5 * model.readout if with_ref else None
        preds, state = online_run(model, stream, OnlineConfig(), w_ref=w_ref)
        rows = diagnostics_csv(stream, preds, state).splitlines()[1:]
        cells = [row.rsplit(",", 1)[1] for row in rows]
        want = [repr(v) for v in state.weight_gap_series().tolist()] if with_ref else [""] * len(rows)
        assert len(rows) == stream.n_steps and cells == want

    def test_diagnostics_is_a_read_only_sequence_of_records(self):
        state = make_state([[0.0, 0.0]], w_ref=np.array([[1.0, 1.0]]))
        for k in range(40):  # past the first growth of the columns
            project_step(state, np.array([1.0, float(k)]), np.array([1.0]), 1.0, 1.0)
        diags = state.diagnostics
        assert len(diags) == 40
        assert [d.step for d in diags] == list(range(1, 41))
        assert diags[-1].step == diags[39].step == 40
        assert [d.step for d in diags[38:]] == [39, 40]
        # first step: g = (1, 0) moves W from 0 to (0.5, 0)
        assert diags[0].posterior_error[0] == 0.5
        assert diags[0].weight_gap == np.linalg.norm([[-0.5, -1.0]])
        with pytest.raises(IndexError):
            diags[40]
        with pytest.raises(TypeError):
            diags[0] = None


def online_oracle(mode, readout, features, targets, phi, a=1.0, c=1.0, w_ref=None):
    """Plain loop of the three projection rules over one stream.

    ``features`` is ``(n, N + K)`` and ``targets`` ``(n, L)``. The first
    step only predicts; each later step computes the prior error with the
    current weights, updates them and predicts with the new weights.
    Returns the final weights, the accumulated gain and the per-step
    prior errors, predictions, posterior errors, etas and weight gaps.
    """
    w = np.array(readout, dtype=float)
    n = targets.shape[0]
    priors, preds = np.empty_like(targets), np.empty_like(targets)
    etas, gaps = np.zeros(n), np.full(n, np.nan)
    energy = 0.0
    for t in range(n):
        g = features[t]
        e = targets[t] - w @ g
        if t == 0:
            pass
        elif mode == "basic":
            w = w + np.outer(a * e, g) / (c + g @ g)
            etas[t] = a
        elif mode == "decreasing_gain":
            energy += g @ g
            if energy > 0.0:
                w = w + np.outer(e, g) / energy
                etas[t] = 1.0
        elif np.any(np.abs(e) > 2.0 * phi):
            w = w + np.outer(e, g) / (1.0 + g @ g)
            etas[t] = 1.0
        priors[t], preds[t] = e, w @ g
        if w_ref is not None:
            gaps[t] = np.linalg.norm(w - w_ref)
    return w, energy, priors, preds, targets - preds, etas, gaps


class TestBlockBoundaries:
    """``online_run`` against the plain loop, across its blocks of ``BLOCK`` steps.

    Steps after the first are updated in blocks starting at step 2, so
    ``n = BLOCK + 1`` fills exactly one block and ``BLOCK + 2`` leaves a
    one-row last block.
    """

    @pytest.mark.parametrize("n", [1, 2, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 5])
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("mode,phi", [
        ("basic", 0.0), ("decreasing_gain", 0.0), ("dead_zone", 0.4), ("dead_zone", 0.0),
    ], ids=["basic", "decreasing_gain", "dead_zone-constant", "dead_zone-zero"])
    def test_online_run_matches_a_plain_loop(self, mode, phi, with_ref, ell, n):
        from rscn.model import run_reservoir

        model = small_model(seed=13, ell=ell)
        rng = np.random.default_rng(n)
        u = rng.uniform(-1, 1, (2, n))
        stream = SupervisedSequence(u, rng.normal(size=(ell, n)), washout=0)
        cfg = OnlineConfig(mode=mode, a=0.7, c=0.5, phi=phi)
        w_ref = 0.5 * model.readout if with_ref else None
        preds, state = online_run(model, stream, cfg, w_ref=w_ref)

        features = np.ascontiguousarray(run_reservoir(model, u).extended.T)
        w, gain, priors, ref_preds, posteriors, etas, gaps = online_oracle(
            mode, model.readout, features, stream.targets.T, phi, cfg.a, cfg.c, w_ref)
        assert len(state.diagnostics) == state.step == n
        assert np.array_equal(state.etas, etas)
        assert state.accumulated_gain == gain
        assert_close(state.readout, w)
        assert_close(preds, ref_preds.T)
        assert_close(state.prior_errors, priors)
        assert_close(state.posterior_errors, posteriors)
        assert_close(state.weight_gap_series(), gaps)
        if mode == "dead_zone" and phi > 0 and n > BLOCK:  # the gate both opens and stays shut
            assert 0 < np.count_nonzero(etas) < n - 1
        if mode == "dead_zone" and phi == 0:  # a zero bound opens every step after the first
            assert np.all(etas[1:] == 1.0)
