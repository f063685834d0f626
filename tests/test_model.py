import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rscn
from rscn import model as rmodel
from rscn.baselines import BaselineConfig, build_baseline
from rscn.build import BuildConfig, build_rscn
from rscn.errors import ContractViolationError, NumericOverflowError
from rscn.model import (
    BLOCK_LOWER_TRIANGULAR,
    RUN_WARMUP,
    ReservoirModel,
    StateSequence,
    csv_text,
    input_drive,
    load_model,
    model_from_dict,
    model_to_dict,
    readout,
    run_reservoir,
    save_model,
)
from rscn.tasks import task_from_manifest


def make_model(w_in, w_r, b, w_out, **kw):
    return ReservoirModel(
        input_weights=np.asarray(w_in, dtype=float),
        feedback=np.asarray(w_r, dtype=float),
        biases=np.asarray(b, dtype=float),
        readout=np.asarray(w_out, dtype=float),
        **kw,
    )


class TestRunReservoir:
    def test_all_zero_weights_give_zero_states(self):
        model = make_model(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3), np.zeros((1, 5)))
        rng = np.random.default_rng(1)
        seq = run_reservoir(model, rng.uniform(-1, 1, (2, 20)))
        assert np.all(seq.states == 0.0)

    def test_single_step_closed_form(self):
        model = make_model([[1.0]], [[0.0]], [0.0], [[0.0, 0.0]])
        seq = run_reservoir(model, np.array([[0.5]]))
        assert seq.states[0, 0] == pytest.approx(0.46211715726000974, abs=1e-12)

    def test_two_step_recurrence_matches_hand_unroll(self):
        # oracle: x1 = tanh(0.5), x2 = tanh(0.5 + 0.5 * x1)
        model = make_model([[1.0]], [[0.5]], [0.0], [[0.0, 0.0]])
        seq = run_reservoir(model, np.array([[0.5, 0.5]]))
        assert seq.states[0, 1] == pytest.approx(0.6237125498258757, abs=1e-12)

    def test_extended_stacks_states_over_inputs(self):
        rng = np.random.default_rng(7)
        model = make_model(
            rng.normal(size=(3, 2)), rng.normal(size=(3, 3)) * 0.2, rng.normal(size=3),
            np.zeros((1, 5)),
        )
        u = rng.uniform(-1, 1, (2, 9))
        seq = run_reservoir(model, u)
        assert np.array_equal(seq.extended[:3], seq.states)
        assert np.array_equal(seq.extended[3:], u)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        arrays = (rng.normal(size=(4, 2)), rng.normal(size=(4, 4)) * 0.1, rng.normal(size=4),
                  np.zeros((1, 6)))
        u = rng.uniform(-1, 1, (2, 50))
        x0 = rng.uniform(-1, 1, 4)
        # a twin model, so the second run is a second recursion, not the remembered first
        a = run_reservoir(make_model(*arrays), u, x0)
        b = run_reservoir(make_model(*arrays), u, x0)
        assert a is not b
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.extended, b.extended)

    def test_tanh_states_stay_in_open_unit_interval(self):
        rng = np.random.default_rng(11)
        model = make_model(
            rng.uniform(-5, 5, (6, 2)), rng.uniform(-1, 1, (6, 6)), rng.uniform(-5, 5, 6),
            np.zeros((1, 8)),
        )
        seq = run_reservoir(model, rng.uniform(-1, 1, (2, 200)))
        assert np.all(seq.states > -1.0) and np.all(seq.states < 1.0)

    def test_dimension_mismatch_raises(self):
        model = make_model([[1.0]], [[0.0]], [0.0], [[0.0, 0.0]])
        with pytest.raises(ContractViolationError):
            run_reservoir(model, np.zeros((2, 5)))
        with pytest.raises(ContractViolationError):
            run_reservoir(model, np.zeros((1, 5)), np.zeros(3))

    def test_non_finite_inputs_rejected(self):
        model = make_model([[1.0]], [[0.0]], [0.0], [[0.0, 0.0]])
        with pytest.raises(ContractViolationError):
            run_reservoir(model, np.array([[np.nan]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_state_rejected(self, bad):
        model = make_model([[1.0], [0.5]], 0.1 * np.ones((2, 2)), [0.0, 0.0], np.zeros((1, 3)))
        with pytest.raises(ContractViolationError, match="initial_state"):
            run_reservoir(model, np.ones((1, 4)), np.array([bad, 0.0]))

    def test_overflow_names_the_first_non_finite_step(self):
        # step 1: tanh(inf + 0) = 1 in both nodes; step 2 feeds node 0
        # inf + (-1e308 - 1e308) = inf + (-inf), which is NaN
        model = make_model([[1e308], [1e308]], [[-1e308, -1e308], [0.0, 0.0]],
                           [0.0, 0.0], np.zeros((1, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericOverflowError, match=r"at step 2$"):
                run_reservoir(model, np.full((1, 4), 2.0))

    def test_states_are_c_contiguous(self):
        rng = np.random.default_rng(3)
        model = make_model(rng.normal(size=(4, 2)), 0.3 * rng.normal(size=(4, 4)),
                           rng.normal(size=4), np.zeros((1, 6)))
        seq = run_reservoir(model, rng.uniform(-1, 1, (2, 9)))
        assert seq.states.shape == (4, 9) and seq.states.flags["C_CONTIGUOUS"]


class TestRememberedRun:
    """``run_reservoir`` remembers its latest run, keyed on the model object
    and on the bits of the inputs and the start."""

    @staticmethod
    def twins(seed=21):
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(size=(5, 2)), rng.normal(size=(5, 5)) * 0.2, rng.normal(size=5),
                  rng.normal(size=(1, 7)))
        return make_model(*arrays), make_model(*arrays), rng.uniform(-1, 1, (2, 40))

    def test_hit_returns_the_same_sequence_with_a_fresh_runs_bits(self, recursions):
        model, twin, u = self.twins()
        seq = run_reservoir(model, u)
        assert run_reservoir(model, u) is seq
        assert run_reservoir(model, u.copy(), np.zeros(5)) is seq  # equal bits hit
        assert len(recursions) == 1
        assert not seq.extended.flags.writeable
        assert_bitwise_equal(seq.extended, run_reservoir(twin, u).extended)

    @pytest.mark.parametrize("change", ["twin", "ulp", "mutated", "start"])
    def test_another_key_recomputes(self, change, recursions):
        model, twin, u = self.twins()
        x0 = np.zeros(5)
        first = run_reservoir(model, u, x0)
        if change == "twin":  # another object with equal arrays
            model = twin
        elif change == "ulp":
            u = u.copy()
            u[1, 17] = np.nextafter(u[1, 17], 2.0)
        elif change == "mutated":  # the caller's writable array, changed in place
            u[0, 3] += 0.25
        else:
            x0 = np.full(5, 0.1)
        again = run_reservoir(model, u, x0)
        assert again is not first and len(recursions) == 2
        assert_bitwise_equal(again.states, step_loop_states(model, u, x0))

    def test_checks_run_on_a_hit(self):
        model, _, u = self.twins()
        run_reservoir(model, u)
        with pytest.raises(ContractViolationError, match="inputs shape"):
            run_reservoir(model, u.reshape(1, -1))  # the same bytes in the wrong shape
        with pytest.raises(ContractViolationError, match="initial_state shape"):
            run_reservoir(model, u, np.zeros(4))

    def test_with_readout_hands_the_run_over(self, recursions):
        model, _, u = self.twins()
        seq = run_reservoir(model, u)
        refit = model.with_readout(np.ones((1, 7)))
        assert run_reservoir(refit, u) is seq and len(recursions) == 1
        assert np.array_equal(refit.readout, np.ones((1, 7)))

    def test_holds_at_most_one_state_matrix(self, monkeypatch):
        model, twin, u = self.twins()
        old = weakref.ref(run_reservoir(model, u))
        inner, alive = rmodel._chunked_recursion, []

        def recursion(*args):
            gc.collect()
            alive.append(old() is not None)
            return inner(*args)

        monkeypatch.setattr(rmodel, "_chunked_recursion", recursion)
        run_reservoir(twin, u)
        assert alive == [False]  # a miss frees the old states before it computes


class TestStateSequence:
    """A state sequence is one read-only extended matrix; ``states`` is its top rows."""

    @staticmethod
    def sequence():
        rng = np.random.default_rng(5)
        model = make_model(rng.normal(size=(3, 2)), 0.2 * rng.normal(size=(3, 3)),
                           rng.normal(size=3), np.zeros((1, 5)))
        return run_reservoir(model, rng.uniform(-1, 1, (2, 7)))

    def test_states_are_a_view_of_extended(self):
        seq = self.sequence()
        assert np.shares_memory(seq.states, seq.extended)
        assert seq.states.shape == (3, 7) and seq.n_steps == 7

    @pytest.mark.parametrize("name", ["states", "extended"])
    def test_arrays_are_read_only(self, name):
        with pytest.raises(ValueError):
            getattr(self.sequence(), name)[0, 0] = 1.0

    def test_run_reservoir_returns_the_matrix_it_ran_in(self, recursions):
        seq = self.sequence()
        (drive,) = recursions
        assert np.shares_memory(seq.states, drive)
        assert not seq.extended.flags.writeable

    def test_constructor_copies_the_callers_array(self):
        ext = np.arange(12.0).reshape(3, 4)
        seq = StateSequence(ext, 2)
        assert not np.shares_memory(seq.extended, ext)
        ext[0, 0] = -1.0
        assert ext.flags.writeable and seq.states[0, 0] == 0.0


def step_loop_states(model, inputs, initial_state=None):
    """States ``(N, n)`` by the plain step-by-step recursion (oracle).

    Forms the drive as :func:`rscn.model.run_reservoir` does, so only the
    recursion differs: ``x(t) = tanh(drive(t) + W_r @ x(t-1))``, one step
    at a time.
    """
    drive = input_drive(model, inputs)
    x = np.zeros(model.n_nodes) if initial_state is None else np.asarray(initial_state, dtype=float)
    rows = np.empty(drive.T.shape)
    for drive_t, row in zip(drive.T, rows):
        np.add(drive_t, model.feedback @ x, out=row)
        x = np.tanh(row, out=row)
    return rows.T


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestChunkedRunReservoir:
    """``run_reservoir``'s time-chunked recursion against the step loop, bit for bit."""

    @staticmethod
    def random_model(seed, n, k=2, gain=0.9):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, n))
        return make_model(rng.uniform(-1, 1, (n, k)), w * (gain / np.linalg.norm(w, 2)),
                          rng.uniform(-0.5, 0.5, n), np.zeros((1, n + k)))

    @pytest.mark.parametrize("n_steps", [
        4 * RUN_WARMUP - 1,  # one chunk: the plain loop
        4 * RUN_WARMUP,  # the first length cut in two chunks
        4 * RUN_WARMUP + 1,  # two chunks, the last one shorter
        1000,  # three chunks of 334 steps, the last one 332
        2 * RUN_WARMUP + 3,
    ])
    @pytest.mark.parametrize("start", [False, True])
    def test_matches_the_step_loop(self, n_steps, start):
        model = self.random_model(n_steps, 12)
        rng = np.random.default_rng(n_steps + 1)
        u = rng.uniform(-1, 1, (2, n_steps))
        x0 = rng.uniform(-1, 1, 12) if start else None
        seq = run_reservoir(model, u, x0)
        assert_bitwise_equal(seq.states, step_loop_states(model, u, x0))
        assert seq.states.flags["C_CONTIGUOUS"]
        assert np.array_equal(seq.extended[12:], u)

    @pytest.mark.parametrize("n_steps", [200, 4 * RUN_WARMUP, 3000])
    def test_bistable_model_is_fixed_up_at_every_boundary(self, n_steps, monkeypatch):
        # tanh(3x) has fixed points near +-1: node 0 starts negative and
        # stays there under a weak positive drive, while every chunk's
        # warm-up from zero climbs to the positive one, so no chunk's
        # warm-up ever meets the exact state
        model = make_model(np.full((2, 1), 0.05), 3.0 * np.eye(2), np.zeros(2), np.zeros((1, 3)))
        calls = []
        fix_up = rmodel._fix_up

        def counted(states, drive, weight, exact):
            calls.append(len(states))
            fix_up(states, drive, weight, exact)

        monkeypatch.setattr(rmodel, "_fix_up", counted)
        u = np.random.default_rng(n_steps).uniform(0, 1, (1, n_steps))
        x0 = np.array([-0.5, 0.5])
        seq = run_reservoir(model, u, x0)
        assert_bitwise_equal(seq.states, step_loop_states(model, u, x0))
        assert np.all(seq.states[0] < -0.8) and np.all(seq.states[1] > 0.8)
        n_chunks = max(1, n_steps // (2 * RUN_WARMUP))
        assert len(calls) == n_chunks and sum(calls) == n_steps

    def test_seeded_rscn_and_esn_models_on_a_long_stream(self):
        task = task_from_manifest({"task": "mg", "seed": 1, "mg_params": {"length": 3500}})
        assert task.test.n_steps >= 2000
        rscn_model, _ = build_rscn(task.train, task.val, BuildConfig(n_max=40, seed=1))
        esn_model = build_baseline(BaselineConfig(n_nodes=60, seed=1), task.train)
        for model in (rscn_model, esn_model):
            u = task.test.inputs
            assert_bitwise_equal(run_reservoir(model, u).states, step_loop_states(model, u))


def ring(n, weight):
    """A simple cycle reservoir's feedback: ``weight`` at every ``(i, i - 1 mod n)``."""
    w = np.zeros((n, n))
    w[np.arange(n), (np.arange(n) - 1) % n] = weight
    return w


class TestRingStep:
    """A ring feedback is stepped by a shifted product, bit for bit the dense one."""

    @pytest.fixture()
    def ring_steps(self, monkeypatch):
        calls, inner = [], rmodel._ring_step

        def counted(w, x, out):
            calls.append(w)
            inner(w, x, out)

        monkeypatch.setattr(rmodel, "_ring_step", counted)
        return calls

    @pytest.mark.parametrize("weight", [0.25, 0.5, 0.75, 0.9, -0.6])
    @pytest.mark.parametrize("n", [1, 2, 79])
    @pytest.mark.parametrize("n_steps", [2 * RUN_WARMUP + 3, 1000])
    def test_matches_the_step_loop(self, weight, n, n_steps, ring_steps):
        rng = np.random.default_rng(n_steps + n)
        model = make_model(rng.uniform(-1, 1, (n, 2)), ring(n, weight), rng.uniform(-1, 1, n),
                           np.zeros((1, n + 2)))
        u = rng.uniform(-1, 1, (2, n_steps))
        x0 = rng.uniform(-1, 1, n)
        for start in (None, x0):
            assert_bitwise_equal(run_reservoir(model, u, start).states,
                                 step_loop_states(model, u, start))
        assert ring_steps and set(ring_steps) == {weight}

    @pytest.mark.parametrize("n", [1, 2, 79])
    def test_zero_drive_from_a_nonzero_start(self, n, ring_steps):
        model = make_model(np.ones((n, 1)), ring(n, 0.9), np.zeros(n), np.zeros((1, n + 1)))
        u = np.zeros((1, 1000))
        x0 = np.linspace(-1, 1, n) + 0.5
        seq = run_reservoir(model, u, x0)
        assert_bitwise_equal(seq.states, step_loop_states(model, u, x0))
        assert ring_steps

    def test_bistable_ring_is_fixed_up_at_every_boundary(self, ring_steps, monkeypatch):
        # x0' = tanh(3 x1), x1' = tanh(3 x0): from opposite signs the pair
        # swaps sign every step, while every chunk's warm-up from zero climbs
        # to the positive fixed point under the weak positive drive
        n_steps = 3000
        model = make_model(np.full((2, 1), 0.05), ring(2, 3.0), np.zeros(2), np.zeros((1, 3)))
        calls = []
        fix_up = rmodel._fix_up

        def counted(states, drive, weight, exact):
            calls.append(len(states))
            fix_up(states, drive, weight, exact)

        monkeypatch.setattr(rmodel, "_fix_up", counted)
        u = np.random.default_rng(3).uniform(0, 1, (1, n_steps))
        x0 = np.array([-0.5, 0.5])
        seq = run_reservoir(model, u, x0)
        assert_bitwise_equal(seq.states, step_loop_states(model, u, x0))
        assert np.all(np.abs(seq.states) > 0.8) and np.all(seq.states[0] * seq.states[1] < 0)
        assert len(calls) == n_steps // (2 * RUN_WARMUP) and sum(calls) == n_steps
        assert ring_steps

    @pytest.mark.parametrize("edit", [(5, 4, 0.8), (5, 9, 0.1), (0, 78, 0.0)],
                             ids=["cycle-entry-changed", "entry-added", "cycle-entry-zeroed"])
    def test_a_changed_ring_takes_the_dense_product(self, edit, ring_steps):
        w = ring(79, 0.9)
        i, j, value = edit
        w[i, j] = value
        rng = np.random.default_rng(4)
        model = make_model(rng.uniform(-1, 1, (79, 2)), w, rng.uniform(-1, 1, 79),
                           np.zeros((1, 81)))
        u = rng.uniform(-1, 1, (2, 1000))
        assert_bitwise_equal(run_reservoir(model, u).states, step_loop_states(model, u))
        assert not ring_steps

    def test_scr_baseline_takes_the_ring_step(self, ring_steps):
        task = task_from_manifest({"task": "plant", "seed": 0})
        model = build_baseline(BaselineConfig(n_nodes=136, topology="scr_ring", ring_weight=0.5),
                               task.train)
        for split in (task.train, task.val, task.test):
            assert_bitwise_equal(run_reservoir(model, split.inputs).states,
                                 step_loop_states(model, split.inputs))
        assert set(ring_steps) == {0.5}


class TestReadout:
    def test_zero_readout_gives_zero_output(self):
        model = make_model(np.ones((2, 1)), np.zeros((2, 2)), np.zeros(2), np.zeros((3, 3)))
        u = np.random.default_rng(0).uniform(-1, 1, (1, 10))
        seq = run_reservoir(model, u)
        assert np.all(readout(model, seq) == 0.0)

    def test_input_selector_readout_reproduces_inputs(self):
        n, k = 3, 2
        w_out = np.hstack([np.zeros((k, n)), np.eye(k)])
        rng = np.random.default_rng(5)
        model = make_model(
            rng.normal(size=(n, k)), rng.normal(size=(n, n)) * 0.1, rng.normal(size=n), w_out
        )
        u = rng.uniform(-1, 1, (k, 12))
        seq = run_reservoir(model, u)
        assert np.allclose(readout(model, seq), u, atol=0, rtol=0)

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(9)
        n, k, ell = 3, 1, 2
        model = make_model(
            rng.normal(size=(n, k)), rng.normal(size=(n, n)) * 0.3, rng.normal(size=n),
            rng.normal(size=(ell, n + k)),
        )
        u = rng.uniform(-1, 1, (k, 1))
        seq = run_reservoir(model, u)
        got = readout(model, seq)
        ext = np.concatenate([seq.states[:, 0], u[:, 0]])
        want = np.array([np.dot(model.readout[q], ext) for q in range(ell)])
        assert np.allclose(got[:, 0], want, atol=1e-15)

    def test_dimension_mismatch_raises(self):
        model = make_model(np.ones((2, 1)), np.zeros((2, 2)), np.zeros(2), np.zeros((1, 3)))
        other = make_model(np.ones((3, 1)), np.zeros((3, 3)), np.zeros(3), np.zeros((1, 4)))
        seq = run_reservoir(other, np.zeros((1, 4)))
        with pytest.raises(ContractViolationError, match="model dimensions"):
            readout(model, seq)


class TestStructureInvariant:
    def test_grown_rows_must_be_zero_right_of_diagonal(self):
        block_row = np.zeros((3, 3))
        block_row[0, 2] = 0.5  # initial block is 2x2, so row 0 may reach column 1 only
        grown_row = np.tril(np.full((5, 5), 0.1))
        grown_row[0, 1] = 0.2  # inside the initial block: allowed
        grown_row[3, 4] = 0.5  # grown row 3 may reach its diagonal, column 3, only
        for w_r, row, last_col in ((block_row, 0, 1), (grown_row, 3, 3)):
            n = w_r.shape[0]
            with pytest.raises(
                ContractViolationError, match=f"row {row} has nonzeros beyond column {last_col},"
            ):
                make_model(
                    np.ones((n, 1)), w_r, np.zeros(n), np.zeros((1, n + 1)),
                    structure_tag=BLOCK_LOWER_TRIANGULAR, initial_block_size=2,
                )

    def test_valid_grown_structure_accepted(self):
        w_r = np.array([
            [0.1, 0.2, 0.0, 0.0],
            [0.3, -0.1, 0.0, 0.0],
            [0.2, 0.1, 0.4, 0.0],
            [0.0, 0.5, -0.2, 0.3],
        ])
        m = make_model(
            np.ones((4, 1)), w_r, np.zeros(4), np.zeros((1, 5)),
            structure_tag=BLOCK_LOWER_TRIANGULAR, initial_block_size=2,
        )
        assert m.n_nodes == 4

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ContractViolationError):
            make_model([[np.inf]], [[0.0]], [0.0], [[0.0, 0.0]])


class TestSerialization:
    def test_round_trip_is_value_exact(self):
        rng = np.random.default_rng(13)
        model = make_model(
            rng.normal(size=(4, 2)) * 1e3,
            np.tril(rng.normal(size=(4, 4))) * 1e-7,
            rng.normal(size=4),
            rng.normal(size=(2, 6)),
            structure_tag=BLOCK_LOWER_TRIANGULAR,
            initial_block_size=4,
        )
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        for name in ("input_weights", "feedback", "biases", "readout"):
            assert np.array_equal(getattr(model, name), getattr(back, name))
        assert back.activation == model.activation
        assert back.structure_tag == model.structure_tag
        assert back.initial_block_size == model.initial_block_size

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=4, max_size=4,
        )
    )
    def test_round_trip_exact_for_arbitrary_finite_doubles(self, vals):
        w_r = np.array(vals).reshape(2, 2)
        model = make_model(np.ones((2, 1)), w_r, np.zeros(2), np.zeros((1, 3)))
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert np.array_equal(back.feedback, model.feedback)

    def test_file_round_trip(self, tmp_path):
        model = make_model([[0.5]], [[0.25]], [0.125], [[1.0, -1.0]])
        path = tmp_path / "model.json"
        save_model(model, str(path))
        back = load_model(str(path))
        assert np.array_equal(back.readout, model.readout)

    def test_unknown_version_rejected(self):
        model = make_model([[0.5]], [[0.25]], [0.125], [[1.0, -1.0]])
        doc = model_to_dict(model)
        doc["version"] = 99
        with pytest.raises(ContractViolationError):
            model_from_dict(doc)


def test_csv_text_keeps_strings_and_writes_other_cells_by_repr():
    text = csv_text(
        ["name", "i", "x", "y"],
        [("a", ""), [1, -2], [float("nan"), -0.0], np.array([1e-05, 1e16])],
    )
    assert text == "name,i,x,y\na,1,nan,1e-05\n,-2,-0.0,1e+16\n"
    assert csv_text(["only"], [[]]) == "only\n"


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(rscn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, rscn; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
