import numpy as np
import pytest

from rscn import tasks
from rscn.build import BuildConfig
from rscn.errors import ContractViolationError, CsvParseError, SchemaError
from rscn.seeding import substream
from rscn.tasks import (
    DEBUTANIZER_FULL_FEATURES,
    DEBUTANIZER_REDUCED_FEATURES,
    MGParams,
    POWER_LOAD_FEATURES,
    PlantParams,
    SupervisedSequence,
    add_gaussian_noise,
    from_params,
    load_csv,
    mackey_glass,
    mg_task,
    plant_response,
    plant_sequence,
    plant_task,
    plant_test_input,
    task_from_manifest,
    write_sequence_csv,
)


class TestMackeyGlass:
    def test_constant_unit_history_is_a_fixed_point(self):
        # rate at y = y_tau = 1 is -0.1 + 0.2 / 2 = 0
        p = MGParams(init_range=(1.0, 1.0), length=200)
        series = mackey_glass(p, np.random.default_rng(0))
        assert np.all(series == 1.0)

    def test_zero_feedback_gain_decays_monotonically(self):
        p = MGParams(alpha=0.0, init_range=(1.0, 1.0), length=100)
        series = mackey_glass(p, np.random.default_rng(0))
        assert np.all(np.diff(series[17:]) < 0)
        assert series[-1] > 0

    def test_default_series_shape_and_range(self):
        series = mackey_glass(MGParams(), np.random.default_rng(42))
        assert series.shape == (1177,)
        assert np.all(np.isfinite(series))
        assert np.all((series > 0) & (series < 2))

    def test_seed_determinism(self):
        a = mackey_glass(MGParams(), np.random.default_rng(7))
        b = mackey_glass(MGParams(), np.random.default_rng(7))
        assert np.array_equal(a, b)


def mackey_glass_oracle(p, rng):
    """The integration stepped on NumPy scalars in a preallocated buffer."""
    spu = round(1.0 / p.dt)
    delay = p.tau * spu
    lo, hi = p.init_range
    knots = rng.uniform(lo, hi, size=p.tau + 1)
    n_fine = delay + (p.length - 1) * spu + 1
    buf = np.empty(n_fine)
    fine_t = np.arange(delay + 1) * p.dt
    buf[: delay + 1] = np.interp(fine_t, np.arange(p.tau + 1, dtype=float), knots)

    def rate(y, y_tau):
        return p.upsilon * y + p.alpha * y_tau / (1.0 + y_tau**p.exponent)

    for i in range(delay, n_fine - 1):
        y = buf[i]
        k1 = rate(y, buf[i - delay])
        y_tau_mid = 0.5 * (buf[i - delay] + buf[i - delay + 1])
        k2 = rate(y + 0.5 * p.dt * k1, y_tau_mid)
        buf[i + 1] = y + p.dt * k2
    return buf[delay::spu][: p.length].copy()


def plant_response_oracle(u, p=PlantParams()):
    """The plant recursion stepped on NumPy scalars in a preallocated buffer."""
    u = np.asarray(u, dtype=float)
    c0, c1, c2, c3 = p.coefficients
    y = np.empty(u.size + 1)
    y[:4] = p.initial_outputs
    for j in range(4, u.size + 1):
        y[j] = c0 * y[j - 1] + c1 * y[j - 2] * u[j - 1] + c2 * u[j - 3] ** 2 + c3 * u[j - 4]
    return y


class TestGeneratorsMatchNumpyScalarLoops:
    """The generators step on Python floats; the bits must not move."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("params", [
        MGParams(), MGParams(length=10000), MGParams(tau=30, exponent=8, length=600),
    ], ids=["default", "long", "tau30-exp8"])
    def test_mackey_glass(self, params, seed):
        got = mackey_glass(params, np.random.default_rng(seed))
        want = mackey_glass_oracle(params, np.random.default_rng(seed))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [50, 5000])
    def test_plant_response(self, n, seed):
        u = np.random.default_rng(seed).uniform(-1, 1, n)
        p = PlantParams(coefficients=(0.5, 0.1, 0.3, -0.2), initial_outputs=(0, 1, 0, 0.5))
        for params in (PlantParams(), p):
            got, want = plant_response(u, params), plant_response_oracle(u, params)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.fixture(scope="module")
def series():
    return mackey_glass(MGParams(), np.random.default_rng(3))


class TestMgTask:

    def test_variant_input_counts(self, series):
        assert mg_task(series, "mg").train.n_inputs == 4
        assert mg_task(series, "mg1").train.n_inputs == 3
        assert mg_task(series, "mg2").train.n_inputs == 2

    def test_windowing_is_a_copy_of_the_series(self, series):
        task = mg_task(series, "mg")
        # first training sample sits at the first index with all lags present
        n0 = 18
        for j, lag in enumerate((0, 6, 12, 18)):
            assert task.train.inputs[j, 0] == series[n0 - lag]
        assert task.train.targets[0, 0] == series[n0 + 6]

    def test_split_sizes(self, series):
        task = mg_task(series, "mg")
        assert task.train.n_steps == 500 - 18
        assert task.val.n_steps == 300
        assert task.test.n_steps == 1177 - 6 - 800
        assert task.train.washout == 20

    def test_short_series_rejected(self):
        with pytest.raises(ContractViolationError):
            mg_task(np.ones(24), "mg")


class TestPlant:
    def test_zero_input_recursion_value(self):
        y = plant_response(np.zeros(10))
        assert y[4] == pytest.approx(0.072, abs=1e-15)  # 0.72 * 0.1

    def test_test_input_segments(self):
        u = plant_test_input(np.array([100, 300, 600, 800]))
        assert abs(u[0]) < 1e-12  # sin(4 pi)
        assert u[1] == 1.0
        assert u[2] == -1.0
        expected = (
            0.6 * np.cos(np.pi * 800 / 10)
            + 0.1 * np.cos(np.pi * 800 / 32)
            + 0.3 * np.sin(np.pi * 800 / 25)
        )
        assert u[3] == pytest.approx(expected, abs=1e-15)

    def test_inputs_pair_current_output_and_drive(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(-1.0, 1.0, size=50)
        seq = plant_sequence(u, PlantParams(washout=5))
        y_full = plant_response(u)
        assert np.array_equal(seq.inputs[0], y_full[:50])
        assert np.array_equal(seq.inputs[1], u)
        assert np.array_equal(seq.targets[0], y_full[1:51])

    def test_task_split_sizes(self):
        task = plant_task(PlantParams(), np.random.default_rng(0))
        assert task.train.n_steps == 2000
        assert task.val.n_steps == 1000
        assert task.test.n_steps == 1000
        assert task.train.washout == 100

    def test_determinism(self):
        a = plant_task(PlantParams(), np.random.default_rng(5))
        b = plant_task(PlantParams(), np.random.default_rng(5))
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert np.array_equal(a.val.targets, b.val.targets)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoadCsv:
    def test_round_trip_is_value_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        seq = SupervisedSequence(
            rng.normal(size=(3, 40)) * 1e3, rng.normal(size=(1, 40)), washout=4,
        )
        path = tmp_path / "seq.csv"
        write_sequence_csv(seq, str(path))
        back = load_csv(str(path), ["u1", "u2", "u3"], "y")
        assert np.array_equal(back.inputs, seq.inputs)
        assert np.array_equal(back.targets, seq.targets)

    def test_debutanizer_reduced_feature_count(self, tmp_path):
        rng = np.random.default_rng(2)
        header = [f"u{i}" for i in range(1, 8)] + ["y"]
        rows = rng.normal(size=(60, 8)).tolist()
        path = tmp_path / "debutanizer.csv"
        _write_csv(path, header, rows)
        seq = load_csv(
            str(path), header[:-1], "y", lag_spec=DEBUTANIZER_REDUCED_FEATURES
        )
        assert seq.n_inputs == 6
        assert seq.n_steps == 59  # one leading row dropped for the y lag

    def test_debutanizer_full_feature_count_and_mean_channel(self, tmp_path):
        rng = np.random.default_rng(3)
        header = [f"u{i}" for i in range(1, 8)] + ["y"]
        data = rng.normal(size=(30, 8))
        path = tmp_path / "debutanizer.csv"
        _write_csv(path, header, data.tolist())
        seq = load_csv(str(path), header[:-1], "y", lag_spec=DEBUTANIZER_FULL_FEATURES)
        assert seq.n_inputs == 13
        # mean feature is the average of the first two columns at lag 0
        want = (data[4:, 0] + data[4:, 1]) / 2.0
        assert np.allclose(seq.inputs[8], want, atol=1e-12)

    def test_power_load_feature_count(self, tmp_path):
        rng = np.random.default_rng(4)
        header = ["u1", "u2", "u3", "u4", "y"]
        path = tmp_path / "load.csv"
        _write_csv(path, header, rng.normal(size=(50, 5)).tolist())
        seq = load_csv(str(path), header[:-1], "y", lag_spec=POWER_LOAD_FEATURES)
        assert seq.n_inputs == 5

    def test_empty_feature_map_is_schema_error(self, tmp_path):
        path = tmp_path / "seq.csv"
        _write_csv(path, ["u1", "y"], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(SchemaError, match="no input feature"):
            load_csv(str(path), lag_spec=[])

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["a", "b"], [[1, 2]])
        with pytest.raises(SchemaError):
            load_csv(str(path), ["a"], "y")

    @pytest.mark.parametrize("lag_spec,error,match", [
        ([("u9", 0)], SchemaError, "feature column 'u9' not in schema"),
        ([("u1", 0), ("y", -1)], ContractViolationError, "lags must be nonnegative"),
    ], ids=["column-not-in-schema", "negative-lag"])
    def test_feature_the_file_cannot_supply_is_refused(self, tmp_path, lag_spec, error, match):
        path = tmp_path / "seq.csv"
        _write_csv(path, ["u1", "y"], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(error, match=match):
            load_csv(str(path), lag_spec=lag_spec)

    def test_short_row_reports_line_and_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("u1,y\n1.0,2.0\n3.0\n")
        with pytest.raises(CsvParseError, match="row has no column 'y'") as err:
            load_csv(str(path))
        assert err.value.line == 3

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["u1", "y"], [[1.0, 2.0], ["oops", 3.0]])
        with pytest.raises(CsvParseError) as err:
            load_csv(str(path), ["u1"], "y")
        assert err.value.line == 3


class TestGaussianNoise:
    def base(self, n=64):
        rng = np.random.default_rng(0)
        return SupervisedSequence(rng.normal(size=(2, n)), rng.normal(size=(1, n)))

    def test_zero_sigma_is_identity(self):
        seq = self.base()
        out = add_gaussian_noise(seq, 0.0, np.random.default_rng(1))
        assert np.array_equal(out.targets, seq.targets)

    def test_same_seed_same_perturbation(self):
        seq = self.base()
        a = add_gaussian_noise(seq, 0.3, np.random.default_rng(9))
        b = add_gaussian_noise(seq, 0.3, np.random.default_rng(9))
        assert np.array_equal(a.targets, b.targets)

    def test_inputs_untouched(self):
        seq = self.base()
        out = add_gaussian_noise(seq, 0.5, np.random.default_rng(2))
        assert np.array_equal(out.inputs, seq.inputs)

    def test_empirical_sigma_close_to_requested(self):
        seq = self.base(10_000)
        out = add_gaussian_noise(seq, 0.25, np.random.default_rng(3))
        sample_std = np.std(out.targets - seq.targets)
        assert abs(sample_std - 0.25) < 0.05 * 0.25


class TestManifests:
    def test_mg_manifest_replays_identically(self):
        manifest = {"task": "mg2", "seed": 123}
        a = task_from_manifest(manifest)
        b = task_from_manifest(manifest)
        assert a.train.n_inputs == 2
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert np.array_equal(a.test.targets, b.test.targets)

    def test_csv_manifest_builds_noisy_validation(self, tmp_path):
        rng = np.random.default_rng(6)
        header = ["u1", "u2", "u3", "u4", "u5", "y"]
        path = tmp_path / "plantlike.csv"
        _write_csv(path, header, rng.normal(size=(120, 6)).tolist())
        manifest = {
            "task": "csv",
            "seed": 5,
            "washout": 3,
            "csv": {
                "path": str(path),
                "u_columns": header[:-1],
                "y_column": "y",
                "features": DEBUTANIZER_REDUCED_FEATURES,
                "n_train": 80,
                "n_test": 39,
            },
        }
        task = task_from_manifest(manifest)
        assert task.train.n_steps == 80
        assert task.test.n_steps == 39
        # validation = test inputs with perturbed targets
        assert np.array_equal(task.val.inputs, task.test.inputs)
        assert not np.array_equal(task.val.targets, task.test.targets)

    @pytest.mark.parametrize("n_rows", [117, 400])
    def test_path_only_csv_manifest_fills_in_the_split_rule(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        path = tmp_path / "load.csv"
        rows = [",".join(repr(v) for v in row) for row in rng.normal(size=(n_rows, 3)).tolist()]
        rows.insert(n_rows // 2, " , ,")  # a blank row counts for nothing
        path.write_text("u1,u2,y\n" + "\n".join(rows) + "\n\n")
        n_train = int(0.7 * n_rows)
        explicit = {
            "task": "csv", "seed": 4, "washout": min(20, n_train // 10),
            "csv": {"path": str(path), "u_columns": ["u1", "u2"], "y_column": "y",
                    "n_train": n_train, "n_test": n_rows - n_train},
        }
        task = task_from_manifest({"task": "csv", "seed": 4, "csv": {"path": str(path)}})
        assert_tasks_bitwise_equal(task, task_from_manifest(explicit))
        assert task.name == "load" and task.train.washout == min(20, n_train // 10)

    @pytest.mark.parametrize("section,error,match", [
        ({"val_noise_sigma": -0.1}, ContractViolationError, "sigma must be nonnegative"),
        ({"n_train": 100, "n_test": 21}, SchemaError, "splits need 121 samples, file has 120"),
    ], ids=["negative-sigma", "splits-past-the-file"])
    def test_csv_section_the_file_cannot_satisfy_is_refused(self, tmp_path, section, error,
                                                            match):
        path = tmp_path / "load.csv"
        _write_csv(path, ["u1", "y"], np.random.default_rng(9).normal(size=(120, 2)).tolist())
        with pytest.raises(error, match=match):
            task_from_manifest({"task": "csv", "csv": {"path": str(path), **section}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            task_from_manifest({"task": "nope"})

    @pytest.mark.parametrize("manifest,key", [
        ({"task": "mg", "sed": 3}, "sed"),
        ({"task": "mg", "washout": 50}, "washout"),
        ({"task": "plant", "mg_params": {}}, "mg_params"),
        ({"task": "csv", "n_train": 100, "csv": {"path": "toy.csv"}}, "n_train"),
    ], ids=["mg-sed", "mg-washout", "plant-mg_params", "csv-n_train"])
    def test_key_the_kind_does_not_take_is_a_schema_error(self, manifest, key):
        kind = manifest["task"]
        with pytest.raises(SchemaError, match=f"{kind} task manifest has unknown keys: {key}$"):
            task_from_manifest(manifest)


def assert_tasks_bitwise_equal(a, b):
    for split in ("train", "val", "test"):
        x, y = getattr(a, split), getattr(b, split)
        for name in ("inputs", "targets"):
            u, v = getattr(x, name), getattr(y, name)
            assert u.shape == v.shape and np.array_equal(u.view(np.int64), v.view(np.int64))
        assert x.washout == y.washout


@pytest.fixture()
def integrations(monkeypatch):
    """The ``MGParams`` of each ``mackey_glass`` integration, in order, as the test runs."""
    calls, inner = [], tasks.mackey_glass

    def counted(p, rng):
        calls.append(p)
        return inner(p, rng)

    monkeypatch.setattr(tasks, "mackey_glass", counted)
    return calls


class TestSeriesCache:
    """mg, mg1 and mg2 at one seed share one integrated series."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_variants_at_one_seed_integrate_once(self, integrations, seed):
        got = {kind: task_from_manifest({"task": kind, "seed": seed})
               for kind in ("mg", "mg1", "mg2")}
        assert integrations == [MGParams()]
        series = mackey_glass(MGParams(), substream(seed, "task"))
        for kind, task in got.items():
            assert_tasks_bitwise_equal(task, mg_task(series, kind))

    def test_another_seed_or_params_integrates_again(self, integrations):
        for manifest in ({"task": "mg", "seed": 0}, {"task": "mg1", "seed": 1},
                         {"task": "mg2", "seed": 0, "mg_params": {"length": 1000}},
                         {"task": "mg", "seed": 1}, {"task": "mg", "seed": 0}):
            task_from_manifest(manifest)
        assert integrations == [MGParams(), MGParams(), MGParams(length=1000)]

    def test_cached_series_is_read_only(self):
        series = tasks._mg_series(MGParams(), 0)
        assert not series.flags.writeable
        with pytest.raises(ValueError):
            series[0] = 0.0
        assert tasks._mg_series(MGParams(), 0) is series

    def test_json_init_range_list_hits_the_cache(self, integrations):
        manifest = {"seed": 2, "mg_params": {"init_range": [0.2, 1.2]}}
        a = task_from_manifest({**manifest, "task": "mg"})
        b = task_from_manifest({**manifest, "task": "mg2"})
        params = MGParams(init_range=(0.2, 1.2))
        assert integrations == [params]
        series = mackey_glass(params, substream(2, "task"))
        assert_tasks_bitwise_equal(a, mg_task(series, "mg"))
        assert_tasks_bitwise_equal(b, mg_task(series, "mg2"))


class TestFromParams:
    """A value must have its field's default type; ints fill floats, lists fill tuples."""

    @pytest.mark.parametrize("params,want", [
        ({"dt": 1}, MGParams(dt=1)),
        ({"upsilon": -1, "length": 300}, MGParams(upsilon=-1, length=300)),
        ({"init_range": [0.2, 1]}, MGParams(init_range=(0.2, 1))),
        ({"init_range": (0.2, 1.2)}, MGParams(init_range=(0.2, 1.2))),
    ])
    def test_conforming_values_are_accepted(self, params, want):
        got = from_params(MGParams, params, "mg_params")
        assert got == want and isinstance(got.init_range, tuple)
        hash(got)

    @pytest.mark.parametrize("params", [
        {"length": "abc"}, {"length": 300.0}, {"length": True}, {"tau": None},
        {"dt": "0.1"}, {"dt": False}, {"init_range": 0.5}, {"init_range": "ab"},
        {"init_range": [0.2, "x"]}, {"init_range": [[0.2], [1.2]]},
        {"init_range": [0.2]}, {"init_range": [0.2, 0.5, 0.9]}, {"init_range": []},
    ])
    def test_mistyped_values_are_schema_errors(self, params):
        with pytest.raises(SchemaError, match=f"mg_params: {next(iter(params))} must be"):
            from_params(MGParams, params, "mg_params")

    def test_a_ladder_takes_any_number_of_rungs(self):
        cfg = from_params(BuildConfig, {"lambda_sequence": [0.5, 1, 5.0]}, "model_params")
        assert cfg.lambda_sequence == (0.5, 1, 5.0) and isinstance(cfg.lambda_sequence, tuple)

    def test_plant_coefficients_list_becomes_a_tuple(self):
        p = from_params(PlantParams, {"coefficients": [0.7, 0, 0.01, 0.2]}, "plant_params")
        assert p.coefficients == (0.7, 0, 0.01, 0.2) and isinstance(p.coefficients, tuple)

    @pytest.mark.parametrize("params", [[1, 2], "length", 5, None])
    def test_a_section_that_is_not_an_object_is_a_schema_error(self, params):
        with pytest.raises(SchemaError, match="mg_params must be an object"):
            from_params(MGParams, params, "mg_params")
