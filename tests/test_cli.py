import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rscn import cli, evaluate
from rscn.baselines import BaselineConfig
from rscn.build import BuildConfig
from rscn.cli import cmd_dispatch
from rscn.model import ReservoirModel, load_model, model_to_dict, save_model
from rscn.tasks import load_manifest, task_from_manifest


def run(*argv):
    return cmd_dispatch(list(argv))


@pytest.fixture()
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 140
    u = rng.uniform(-1, 1, n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.6 * y[t - 1] + np.tanh(u[t])
    path = tmp_path / "toy.csv"
    lines = ["u1,y"] + [f"{float(u[i])!r},{float(y[i])!r}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def fast_manifest(tmp_path, toy_csv):
    """Run manifest with a small model so training is instant."""
    doc = {
        "seed": 3,
        "task": {
            "task": "csv",
            "washout": 5,
            "csv": {
                "path": toy_csv,
                "u_columns": ["u1"],
                "y_column": "y",
                "n_train": 100,
                "n_test": 39,
            },
        },
        "model": "rscn",
        "model_params": {
            "n_init": 3, "n_max": 10, "n_step": 2, "g_max": 15,
            "lambda_sequence": [0.5, 1.0, 5.0], "r_sequence": [0.9, 0.99, 0.999],
            "sparsity": 0.2,
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _tiny_model_file(tmp_path):
    """A two-node model of one input and one output, written to ``tmp_path``."""
    path = tmp_path / "tiny.model.json"
    path.write_text(json.dumps(model_to_dict(ReservoirModel(
        input_weights=np.ones((2, 1)), feedback=np.zeros((2, 2)),
        biases=np.zeros(2), readout=np.zeros((1, 3)),
    ))))
    return str(path)


class TestGen:
    def test_variant_flag_controls_input_columns(self, tmp_path):
        out = tmp_path / "gen"
        assert run("gen", "--task", "mg2", "--seed", "1",
                   "--out", str(out)) == 0
        header = (out / "mg2_train.csv").read_text().splitlines()[0]
        assert header == "u1,u2,y"

    def test_outputs_are_replayable_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("gen", "--task", "mg1", "--seed", "9", "--out", str(out)) == 0
        for name in ("mg1_train.csv", "mg1_val.csv", "mg1_test.csv",
                     "mg1_manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_written_replays_task(self, tmp_path):
        out = tmp_path / "gen"
        assert run("gen", "--task", "plant", "--seed", "4", "--out", str(out)) == 0
        manifest = load_manifest(str(out / "plant_manifest.json"))
        assert manifest["task"] == "plant"
        assert manifest["seed"] == 4

    def test_run_manifest_task_keeps_its_own_seed(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"task": {"task": "mg", "seed": 5}}))
        out = tmp_path / "gen"
        assert run("gen", "--manifest", str(path), "--out", str(out)) == 0
        assert load_manifest(str(out / "mg_manifest.json"))["seed"] == 5
        ref = tmp_path / "ref"
        assert run("gen", "--task", "mg", "--seed", "5", "--out", str(ref)) == 0
        for name in ("mg_train.csv", "mg_val.csv", "mg_test.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_csv_task_rejected(self, tmp_path, toy_csv):
        assert run("gen", "--task", f"csv:{toy_csv}", "--out", str(tmp_path)) == 3

    @pytest.mark.parametrize("seed", ["abc", 1.5, True])
    def test_task_seed_not_an_integer_is_a_schema_error(self, tmp_path, capsys, seed):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"task": {"task": "mg", "seed": seed}}))
        out = tmp_path / "gen"
        assert run("gen", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "task seed must be an integer" in err
        assert not out.exists()

    def test_csv_task_manifest_rejected(self, tmp_path, fast_manifest, capsys):
        out = tmp_path / "gen"
        assert run("gen", "--manifest", fast_manifest, "--out", str(out)) == 3
        assert "generator tasks only" in capsys.readouterr().err
        assert not out.exists()


class TestTrainEvalOnline:
    def test_train_writes_model_and_history(self, tmp_path, fast_manifest):
        out = tmp_path / "train"
        assert run("train", "--manifest", fast_manifest, "--out", str(out)) == 0
        model_files = [f for f in os.listdir(out) if f.endswith(".model.json")]
        history_files = [f for f in os.listdir(out) if f.endswith(".history.csv")]
        assert len(model_files) == 1 and len(history_files) == 1
        model = load_model(str(out / model_files[0]))
        assert model.n_nodes >= 3

    def test_train_is_replayable_byte_identical(self, tmp_path, fast_manifest):
        outs = [tmp_path / "t1", tmp_path / "t2"]
        for out in outs:
            assert run("train", "--manifest", fast_manifest, "--out", str(out)) == 0
        names = sorted(os.listdir(outs[0]))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_eval_prints_split_error(self, tmp_path, fast_manifest, capsys):
        out = tmp_path / "m"
        run("train", "--manifest", fast_manifest, "--out", str(out))
        model_file = next(str(out / f) for f in os.listdir(out) if f.endswith("model.json"))
        assert run("eval", "--manifest", fast_manifest, "--model-file",
                   model_file, "--split", "test") == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "split=test" in line and "nrmse=" in line

    def test_csv_task_is_named_after_its_file(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "m"
        assert run("train", "--task", f"csv:{toy_csv}", "--model", "esn",
                   "--out", str(out)) == 0
        model_file = str(out / "toy_esn.model.json")
        assert run("eval", "--task", f"csv:{toy_csv}", "--model-file", model_file) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("task=toy split=test ")
        assert run("online", "--task", f"csv:{toy_csv}", "--model-file", model_file,
                   "--out", str(out)) == 0
        assert (out / "online_toy_test_basic.csv").exists()

    def test_train_line_names_the_stop_after_the_size(self, tmp_path, fast_manifest, toy_csv,
                                                      capsys, monkeypatch):
        histories = []

        def train(*args):
            model, history = evaluate.train_model(*args)
            histories.append(history)
            return model, history

        monkeypatch.setattr(cli, "train_model", train)
        assert run("train", "--manifest", fast_manifest, "--out", str(tmp_path)) == 0
        assert run("train", "--task", f"csv:{toy_csv}", "--model", "esn",
                   "--out", str(tmp_path)) == 0
        rscn_line, esn_line = capsys.readouterr().out.splitlines()
        words = rscn_line.split()
        size = next(i for i, word in enumerate(words) if word.startswith("size="))
        assert histories[0].stop in ("tolerance", "cap", "early_stop", "stall")
        assert words[size + 1] == f"stop={histories[0].stop}"
        assert histories[1] is None and "size=" in esn_line and "stop=" not in esn_line

    def test_online_writes_diagnostics(self, tmp_path, fast_manifest, capsys):
        out = tmp_path / "m"
        run("train", "--manifest", fast_manifest, "--out", str(out))
        model_file = next(str(out / f) for f in os.listdir(out) if f.endswith("model.json"))
        assert run("online", "--manifest", fast_manifest, "--model-file",
                   model_file, "--mode", "deadzone", "--phi", "0.01",
                   "--out", str(out)) == 0
        diag = [f for f in os.listdir(out) if f.startswith("online_")]
        assert len(diag) == 1
        header = (out / diag[0]).read_text().splitlines()[0]
        assert header.startswith("n,target_1,prediction_1,prior_err_norm")
        # each update shrinks its own step's error, so a posteriori <= a priori
        fields = dict(f.split("=", 1) for f in capsys.readouterr().out.split() if "=" in f)
        assert 0.0 <= float(fields["nrmse"]) <= float(fields["apriori_nrmse"])

    def test_train_grid_prints_best_point_and_writes_model(self, tmp_path, fast_manifest,
                                                           capsys):
        out = tmp_path / "grid"
        assert run("train", "--manifest", fast_manifest, "--grid", "esp_alpha=0.5,0.9",
                   "--out", str(out)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("grid best point: {'esp_alpha': ")
        assert float(lines[0].split(": ")[-1].rstrip("}")) in (0.5, 0.9)
        assert [f for f in os.listdir(out) if f.endswith(".model.json")]

    def test_online_against_itself_logs_a_zero_first_gap(self, tmp_path, fast_manifest):
        out = tmp_path / "m"
        run("train", "--manifest", fast_manifest, "--out", str(out))
        model_file = next(str(out / f) for f in os.listdir(out) if f.endswith("model.json"))
        assert run("online", "--manifest", fast_manifest, "--model-file", model_file,
                   "--ref-model", model_file, "--out", str(out)) == 0
        diag = next(out / f for f in os.listdir(out) if f.startswith("online_"))
        header, *rows = diag.read_text().strip().splitlines()
        gaps = [row.split(",")[header.split(",").index("weight_gap")] for row in rows]
        assert float(gaps[0]) == 0.0
        assert all(gap != "" for gap in gaps)

    def test_flag_overrides_manifest_seed(self, tmp_path, fast_manifest):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run("train", "--manifest", fast_manifest, "--seed", "11",
                   "--out", str(out1)) == 0
        assert run("train", "--manifest", fast_manifest, "--seed", "12",
                   "--out", str(out2)) == 0
        a = next(f for f in os.listdir(out1) if f.endswith("model.json"))
        assert (out1 / a).read_bytes() != (out2 / a).read_bytes()


class TestBench:
    def test_small_bench_produces_reports(self, tmp_path, toy_csv):
        out = tmp_path / "bench"
        code = run(
            "bench", "--tasks", f"csv:{toy_csv}", "--models", "esn", "scr",
            "--trials", "2", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        files = sorted(os.listdir(out))
        assert any(f.startswith("report_") and f.endswith(".csv") for f in files)
        csv_text = next(
            (out / f).read_text() for f in files if f.endswith(".csv")
        )
        assert csv_text.splitlines()[0] == ("Models,N,Training time,Training NRMSE,Testing NRMSE,"
                                            "Pairs,Test wins,Median test ratio,Sign test p")
        assert len(csv_text.strip().splitlines()) == 3  # two models

    def test_task_prefix_selects_only_that_task(self, tmp_path, toy_csv):
        # bench has no --task of its own, so argparse reads it as --tasks
        out = tmp_path / "bench"
        assert run("bench", "--task", f"csv:{toy_csv}", "--models", "esn",
                   "--trials", "1", "--out", str(out)) == 0
        assert sorted(os.listdir(out)) == ["report_toy.csv", "report_toy.txt"]

    def test_models_share_each_trial_task(self, tmp_path, toy_csv, monkeypatch):
        calls = []
        generate = evaluate.task_from_manifest

        def counted(manifest):
            calls.append(manifest["seed"])
            return generate(manifest)

        for module in (cli, evaluate):
            monkeypatch.setattr(module, "task_from_manifest", counted)
        assert run("bench", "--tasks", f"csv:{toy_csv}", "--models", "esn", "scr", "rscn",
                   "--trials", "2", "--seed", "0", "--out", str(tmp_path)) == 0
        # bench generates seed 0 to name the reports and ESN's trials add seed 1;
        # the ring-weight grid search, SCR and RSCN reuse both
        assert calls == [0, 1]

    def test_train_grid_reuses_the_loaded_task(self, tmp_path, monkeypatch):
        calls = []
        generate = evaluate.task_from_manifest

        def counted(manifest):
            calls.append((manifest["task"], manifest["seed"]))
            return generate(manifest)

        for module in (cli, evaluate):
            monkeypatch.setattr(module, "task_from_manifest", counted)
        assert run("train", "--task", "mg", "--model", "esn", "--grid", "esp_alpha=0.5,0.9",
                   "--out", str(tmp_path)) == 0
        assert calls == [("mg", 0)]


class TestEspCheck:
    def test_contractive_model_reports_converged(self, tmp_path, fast_manifest, capsys):
        out = tmp_path / "m"
        run("train", "--manifest", fast_manifest, "--out", str(out))
        model_file = next(str(out / f) for f in os.listdir(out) if f.endswith("model.json"))
        assert run("esp-check", "--model-file", model_file, "--alpha", "0.8") == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "converged=true" in line

    def test_task_flag_is_a_usage_error(self, tmp_path, capsys):
        # the check reads no task, so it takes no --task
        assert run("esp-check", "--model-file", str(tmp_path / "m.json"), "--task", "mg") == 2
        assert "--task" in capsys.readouterr().err


class TestErrorPaths:
    def test_usage_error_exits_2(self):
        assert run("not-a-command") == 2
        assert run() == 2

    def test_missing_file_exits_3(self, tmp_path):
        assert run("eval", "--model-file", str(tmp_path / "nope.json"),
                   "--task", "mg") == 3

    def test_directory_as_model_file_exits_3(self, tmp_path, capsys):
        assert run("eval", "--model-file", str(tmp_path), "--task", "mg") == 3
        assert "kind=IsADirectoryError" in capsys.readouterr().err

    def test_constant_target_exits_4(self, tmp_path, capsys):
        model_file = _tiny_model_file(tmp_path)
        const = tmp_path / "const.csv"
        const.write_text("u1,y\n" + "".join(f"{0.01 * i!r},1.0\n" for i in range(60)))
        assert run("eval", "--model-file", model_file, "--task", f"csv:{const}") == 4
        assert "kind=MetricUndefinedError" in capsys.readouterr().err

    @pytest.mark.parametrize("n_step", [-1, 0])
    def test_n_step_below_one_exits_3(self, tmp_path, fast_manifest, capsys, n_step):
        doc = load_manifest(fast_manifest)
        doc["model_params"]["n_step"] = n_step
        path = tmp_path / "nstep.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("train", "--manifest", str(path), "--out", str(out)) == 3
        assert "kind=ContractViolationError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ladder", ["lambda_sequence", "r_sequence"])
    def test_empty_ladder_exits_3(self, tmp_path, fast_manifest, capsys, ladder):
        doc = load_manifest(fast_manifest)
        doc["model_params"][ladder] = []
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("train", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=ContractViolationError" in err and ladder in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_baseline_weight_scale_not_positive_exits_3(self, tmp_path, capsys):
        path = tmp_path / "esn.json"
        path.write_text(json.dumps({"task": "mg", "model": "esn",
                                    "model_params": {"weight_scale": -1}}))
        out = tmp_path / "out"
        assert run("train", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=ContractViolationError" in err and "weight_scale" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_n_init_above_n_max_exits_3(self, tmp_path, fast_manifest, capsys):
        doc = load_manifest(fast_manifest)
        doc["model_params"].update({"n_init": 8, "n_max": 3, "n_step": 1})
        path = tmp_path / "ninit.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("train", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=ContractViolationError" in err and "n_init" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit,field", [
        (lambda doc: [doc], "list"),
        (lambda doc: {**doc, "n_nodes": 3}, "input_weights"),
        (lambda doc: {**doc, "biases": ["zero", 0.0]}, "biases"),
        (lambda doc: {**doc, "biases": ["0.1", True]}, "biases"),
        (lambda doc: {**doc, "readout": [[0.0, True, 0.0]]}, "readout"),
        (lambda doc: {**doc, "feedback": [[0.0, None], [0.0, 0.0]]}, "feedback"),
        (lambda doc: {**doc, "n_nodes": 2.0}, "n_nodes"),
    ], ids=["json-list", "n_nodes-misfit", "string-entry", "numeric-string-and-bool",
            "bool-entry", "null-entry", "float-size"])
    def test_malformed_model_file_is_a_schema_error(self, tmp_path, capsys, edit, field):
        path = tmp_path / "bad.model.json"
        path.write_text(json.dumps(edit(json.loads(open(_tiny_model_file(tmp_path)).read()))))
        assert run("esp-check", "--model-file", str(path)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and field in err
        assert "Traceback" not in err

    def test_bad_csv_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("u1,y\n1.0,oops\n")
        assert run("train", "--task", f"csv:{bad}", "--out", str(tmp_path)) == 3

    def test_unknown_task_exits_3(self, tmp_path):
        assert run("train", "--task", "mgX", "--out", str(tmp_path)) == 3

    def test_unknown_model_params_key_is_a_schema_error(self, tmp_path, fast_manifest,
                                                        capsys):
        doc = load_manifest(fast_manifest)
        doc["model_params"].update({"esp_mode": "none", "washout": 5, "ridge": 1.0})
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert run("train", "--manifest", str(path), "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err
        assert "esp_mode" in err and "washout" in err and "ridge" in err
        assert not any(f.endswith(".model.json") for f in os.listdir(tmp_path))

    def test_wrongly_typed_model_params_value_is_a_schema_error(self, tmp_path,
                                                                fast_manifest, capsys):
        doc = load_manifest(fast_manifest)
        doc["model_params"]["n_step"] = "three"
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        assert run("train", "--manifest", str(path), "--out", str(tmp_path)) == 3
        assert "kind=SchemaError" in capsys.readouterr().err

    def test_unknown_grid_name_is_a_schema_error(self, tmp_path, fast_manifest, capsys):
        for name in ("washout", "ridge"):
            assert run("train", "--manifest", fast_manifest, "--grid", f"{name}=0,1",
                       "--out", str(tmp_path)) == 3
            err = capsys.readouterr().err
            assert "kind=SchemaError" in err
            assert name in err
            assert not any(f.endswith(".model.json") for f in os.listdir(tmp_path))

    @pytest.mark.parametrize("model,grid", [("esn", "esp_alpha=abc"), ("rscn", "n_max=abc"),
                                            ("scr", "ring_weight=abc")])
    def test_mistyped_grid_value_is_a_schema_error(self, tmp_path, capsys, model, grid):
        out = tmp_path / "out"
        assert run("train", "--task", "mg", "--model", model, "--grid", grid,
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "--grid" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,doc", [
        ("gen", {"task": {"task": "mg", "mg_params": {"length": "abc"}}}),
        ("gen", {"task": {"task": "plant", "plant_params": {"n_train": 2000.0}}}),
        ("train", {"task": "mg", "model": "scr", "model_params": {"ring_weight": "abc"}}),
        ("train", {"task": "mg", "model": "esn", "model_params": {"n_nodes": True}}),
        ("bench", {"tasks": ["mg"], "models": ["scr"], "model_params": {"ring_weight": "abc"}}),
        ("gen", {"task": {"task": "plant", "plant_params": {"coefficients": [0.7, 0.1]}}}),
        ("gen", {"task": {"task": "plant",
                          "plant_params": {"initial_outputs": [0.0, 0.0, 0.0, 0.1, 0.5]}}}),
        ("gen", {"task": {"task": "mg", "mg_params": {"init_range": [0.2]}}}),
        ("gen", {"task": {"task": "mg", "mg_params": {"init_range": [0.2, 0.5, 0.9]}}}),
    ], ids=["gen-mg", "gen-plant", "train-scr", "train-esn", "bench-scr",
            "short-coefficients", "long-initial-outputs", "short-init-range",
            "long-init-range"])
    def test_mistyped_config_value_is_a_schema_error(self, tmp_path, capsys, command, doc):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(command, "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "must be" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,doc,grid", [
        ("train", {"task": "mg", "model": "esn", "model_params": {"seed": 5}}, None),
        ("bench", {"tasks": ["mg"], "models": ["rscn"], "model_params": {"seed": 5}}, None),
        ("train", {"task": "mg", "model": "esn"}, "seed=abc"),
        ("train", {"task": "mg", "model": "scr"}, "ring_weight=0.5;seed=1,2"),
    ], ids=["train-params", "bench-params", "grid-abc", "grid-ints"])
    def test_a_spec_seed_is_refused_for_the_root_seed(self, tmp_path, capsys, command, doc,
                                                      grid):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["--grid", grid] if grid else []
        assert run(command, "--manifest", str(path), *argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "seed" in err and "--seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value", [
        ("train", "seed", 1.5), ("train", "seed", True),
        ("bench", "seed", 1.5), ("bench", "seed", True),
        ("bench", "trials", 1.9), ("bench", "trials", True),
    ])
    def test_run_manifest_integer_that_is_not_an_integer_is_a_schema_error(
            self, tmp_path, capsys, command, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"task": "mg", "tasks": ["mg"], "model": "esn",
                                    "models": ["esn"], "trials": 1, key: value}))
        out = tmp_path / "out"
        assert run(command, "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and f"{key!r} must be int" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("csv_path", [None, 0], ids=["no section", "descriptor path"])
    def test_csv_task_without_a_path_is_a_schema_error(self, tmp_path, fast_manifest, capsys,
                                                       csv_path):
        # an integer path would be opened as that file descriptor: 0 reads stdin
        doc = load_manifest(fast_manifest)
        if csv_path is None:
            del doc["task"]["csv"]
        else:
            doc["task"]["csv"]["path"] = csv_path
        path = tmp_path / "nocsv.json"
        path.write_text(json.dumps(doc))
        assert run("train", "--manifest", str(path), "--out", str(tmp_path)) == 3
        assert "kind=SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,named", [
        ("n_train", 100.7, "csv task n_train"),
        ("washout", 5.9, "csv task washout"),
        ("n_train", True, "csv task n_train"),
        ("features", [["u1", 0.5]], "the lag of u1"),
    ], ids=["n_train=100.7", "washout=5.9", "n_train=true", "lag=0.5"])
    def test_csv_task_integer_that_is_not_an_integer_is_a_schema_error(
            self, tmp_path, fast_manifest, capsys, key, value, named):
        # int() would truncate each of these and train on the wrong split or lag
        doc = load_manifest(fast_manifest)
        (doc["task"] if key == "washout" else doc["task"]["csv"])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("train", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and f"{named} must be an integer" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("task,section", [("mg", "mg_params"),
                                              ("plant", "plant_params")])
    def test_unknown_generator_params_key_is_a_schema_error(self, tmp_path, capsys,
                                                            task, section):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"task": {"task": task, section: {"bogus": 1}}}))
        assert run("gen", "--manifest", str(path), "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "bogus" in err

    @pytest.mark.parametrize("command", ["eval", "esp-check"])
    def test_model_document_missing_a_key_is_a_schema_error(self, tmp_path, capsys,
                                                            command):
        model = ReservoirModel(
            input_weights=np.ones((2, 1)), feedback=np.zeros((2, 2)),
            biases=np.zeros(2), readout=np.zeros((1, 3)),
        )
        doc = model_to_dict(model)
        del doc["input_weights"]
        path = tmp_path / "broken.model.json"
        path.write_text(json.dumps(doc))
        task = ["--task", "mg"] if command == "eval" else []
        assert run(command, "--model-file", str(path), *task) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "input_weights" in err

    @pytest.mark.parametrize("command", ["eval", "esp-check"])
    def test_model_document_with_another_activation_is_a_schema_error(self, tmp_path, capsys,
                                                                      command):
        doc = model_to_dict(ReservoirModel(
            input_weights=np.ones((2, 1)), feedback=np.zeros((2, 2)),
            biases=np.zeros(2), readout=np.zeros((1, 3)),
        ))
        doc["activation"] = "sigmoid"
        path = tmp_path / "sigmoid.model.json"
        path.write_text(json.dumps(doc))
        task = ["--task", "mg"] if command == "eval" else []
        assert run(command, "--model-file", str(path), *task) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "sigmoid" in err

    @pytest.mark.parametrize("command,section,key", [
        ("eval", None, "seed"),
        ("bench", None, "trials"),
        ("online", "online", "a"),
        ("online", "online", "c"),
        ("online", "online", "phi"),
    ])
    def test_wrongly_typed_run_manifest_scalar_is_a_schema_error(self, tmp_path, capsys,
                                                                  command, section, key):
        model_file = _tiny_model_file(tmp_path)
        doc = {"task": "mg", "model_file": model_file, "tasks": ["mg"]}
        if section is None:
            doc[key] = "abc"
        else:
            doc[section] = {key: "abc"}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert run(command, "--manifest", str(path), "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and repr(key) in err

    @pytest.mark.parametrize("command,key,value", [
        ("train", "model_params", [1, 2]),
        ("online", "online", "x"),
        ("bench", "tasks", "mg"),
        ("bench", "models", "esn"),
    ])
    def test_run_manifest_section_of_the_wrong_type_is_a_schema_error(
            self, tmp_path, capsys, command, key, value):
        model_file = _tiny_model_file(tmp_path)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"task": "mg", "model_file": model_file, key: value}))
        out = tmp_path / "out"
        assert run(command, "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and repr(key) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "online"])
    def test_run_manifest_split_is_the_split_scored(self, tmp_path, fast_manifest, capsys,
                                                    command):
        doc = load_manifest(fast_manifest)
        doc.update(split="train", model_file=_tiny_model_file(tmp_path))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert run(command, "--manifest", str(path), "--out", str(tmp_path)) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        # the manifest's task trains on 100 steps and tests on 39
        assert ("split=train" in line) if command == "eval" else ("steps=100" in line)

    @pytest.mark.parametrize("command", ["eval", "online"])
    def test_run_manifest_split_outside_the_three_is_a_schema_error(self, tmp_path, capsys,
                                                                    command):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"task": "mg", "split": "bogus",
                                    "model_file": _tiny_model_file(tmp_path)}))
        out = tmp_path / "out"
        assert run(command, "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "'split'" in err and "bogus" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("task,params", [
        ("plant", {"n_train": -5}),
        ("plant", {"n_val": -5}),
        ("mg", {"init_range": [1.3, 0.1]}),
    ], ids=["plant n_train=-5", "plant n_val=-5", "mg init_range reversed"])
    def test_malformed_generator_params_exit_3(self, tmp_path, capsys, task, params):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"task": {"task": task, f"{task}_params": params}}))
        out = tmp_path / "out"
        assert run("gen", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=ContractViolationError" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text,named", [
        ("u1,y\n0.1,1.0\n0.2,2.0\n0.3,0.5\n", "too few rows (3) to split"),
        ("u1,y\n", "too few rows (0)"),
        ("y\n" + "".join(f"{i}.0\n" for i in range(40)), "need at least one input column"),
        ("\nu1,y\n" + "".join(f"{i}.0,{i % 3}.0\n" for i in range(40)),
         "need at least one input column"),
        ("", "empty file"),
    ], ids=["three rows", "header only", "one-column header", "blank first line",
            "empty file"])
    def test_csv_flag_file_that_cannot_make_a_task_is_a_schema_error(self, tmp_path, capsys,
                                                                      text, named):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        out = tmp_path / "out"
        assert run("train", "--task", f"csv:{path}", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and named in err and "Traceback" not in err
        assert not out.exists()

    def test_csv_manifest_with_no_input_column_is_a_schema_error(self, tmp_path,
                                                                 fast_manifest, capsys):
        doc = load_manifest(fast_manifest)
        doc["task"]["csv"]["u_columns"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("train", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "no input feature" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,section,key,value", [
        ("eval", None, "model_file", 0), ("eval", None, "model_file", True),
        ("online", None, "model_file", 0), ("online", None, "model_file", True),
        ("esp-check", None, "model_file", 0), ("esp-check", None, "model_file", True),
        ("online", "online", "ref_model", 0),
        ("train", None, "model", 5), ("online", "online", "mode", 5),
    ])
    def test_run_manifest_value_that_must_be_a_string_is_a_schema_error(
            self, tmp_path, capsys, command, section, key, value):
        # open() takes an integer or a bool as a file descriptor: 0 reads stdin
        doc = {"task": "mg", "model_file": _tiny_model_file(tmp_path)}
        if section is None:
            doc[key] = value
        else:
            doc[section] = {key: value}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(command, "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and f"{key!r} must be str" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_descriptor_model_file_does_not_score_the_model_on_stdin(self, tmp_path,
                                                                     fast_manifest):
        model_file = _tiny_model_file(tmp_path)  # one input, as the manifest's CSV task
        doc = load_manifest(fast_manifest)
        doc["model_file"] = 0
        path = tmp_path / "descriptor.json"
        path.write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open(model_file) as stdin:
            proc = subprocess.run([sys.executable, "-m", "rscn.cli", "eval", "--manifest",
                                   str(path)], stdin=stdin, capture_output=True, text=True,
                                  env=env, timeout=120)
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "kind=SchemaError" in proc.stderr and "'model_file' must be str" in proc.stderr
        assert "nrmse=" not in proc.stdout

    @pytest.mark.parametrize("key,value,named", [
        ("features", 5, "features"),
        ("features", [[5, 0]], "features"),
        ("u_columns", 5, "u_columns"),
        ("features", [["u1"]], "features"),
        ("val_noise_sigma", "x", "val_noise_sigma"),
        ("n_tran", 50, "section has unknown keys: n_tran"),
    ], ids=["features=5", "column=5", "u_columns=5", "no-lag", "sigma=x", "misspelled"])
    def test_malformed_csv_section_is_a_schema_error(self, tmp_path, fast_manifest, capsys,
                                                      key, value, named):
        doc = load_manifest(fast_manifest)
        doc["task"]["csv"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("train", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and f"csv task {named}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_bench_trials_below_one_trains_nothing(self, tmp_path, capsys, monkeypatch,
                                                    trials):
        calls = []
        train = evaluate.train_model

        def counted(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(evaluate, "train_model", counted)
        out = tmp_path / "out"
        assert run("bench", "--tasks", "plant", "--models", "scr", "--trials", trials,
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "'trials' must be at least 1" in err
        assert "Traceback" not in err
        assert calls == [] and not out.exists()

    def test_help_exits_zero(self):
        assert run("--help") == 0

    @staticmethod
    def _count_trainings(monkeypatch):
        """The ``evaluate.train_model`` calls made from now on."""
        calls, train = [], evaluate.train_model

        def counted(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(evaluate, "train_model", counted)
        return calls

    @pytest.mark.parametrize("command,key,value", [
        ("bench", "trails", 1),
        ("train", "alpha", 0.5), ("bench", "alpha", 0.5),
        ("train", "grid", "esp_alpha=0.5,0.9"),
        ("train", "out", "elsewhere"),
    ])
    def test_run_manifest_key_no_command_reads_is_a_schema_error(
            self, tmp_path, capsys, monkeypatch, command, key, value):
        # --alpha, --grid and --out are flags only; a misspelled key used to be ignored
        calls = self._count_trainings(monkeypatch)
        doc = {"task": "mg", "tasks": ["mg"], "model": "esn", "models": ["esn"],
               "trials": 1, key: str(tmp_path / value) if key == "out" else value}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(command, "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and f"has unknown keys: {key}" in err
        assert "Traceback" not in err
        assert calls == [] and not out.exists() and not (tmp_path / "elsewhere").exists()

    def test_misspelled_online_key_is_a_schema_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"task": "mg", "model_file": _tiny_model_file(tmp_path),
                                    "online": {"mdoe": "deadzone"}}))
        out = tmp_path / "out"
        assert run("online", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "online section has unknown keys: mdoe" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,task,key", [
        ("gen", {"task": "mg", "sed": 3}, "sed"),
        ("gen", {"task": "mg", "washout": 50}, "washout"),
        ("gen", {"task": "plant", "mg_params": {"length": 900}}, "mg_params"),
        ("train", None, "n_train"),
    ], ids=["mg-sed", "mg-washout", "plant-mg_params", "csv-n_train"])
    def test_task_key_its_kind_does_not_take_is_a_schema_error(
            self, tmp_path, fast_manifest, capsys, command, task, key):
        doc = load_manifest(fast_manifest)
        if task is None:
            doc["task"]["n_train"] = 100  # belongs in the "csv" section
        else:
            doc = {"task": task}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(command, "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and f"task manifest has unknown keys: {key}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "esp-check"])
    def test_model_document_with_another_key_is_a_schema_error(self, tmp_path, capsys,
                                                               command):
        doc = json.loads(open(_tiny_model_file(tmp_path)).read())
        doc["ridge"] = 0.0
        path = tmp_path / "extra.model.json"
        path.write_text(json.dumps(doc))
        task = ["--task", "mg"] if command == "eval" else []
        assert run(command, "--model-file", str(path), *task) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and "model document has unknown keys: ridge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,named", [
        ("tasks", ["mg", 5], "unknown task 5"),
        ("models", ["esn", "lstm"], "unknown model kind 'lstm'"),
        ("tasks", [{"task": "mg", "seed": 7}], "a bench task may not set seed"),
        ("tasks", [], "'tasks' must not be empty"),
        ("models", [], "'models' must not be empty"),
    ], ids=["tasks", "models", "task-seed", "no-tasks", "no-models"])
    def test_bench_refuses_a_bad_entry_before_the_first_trial(
            self, tmp_path, capsys, monkeypatch, key, value, named):
        calls = self._count_trainings(monkeypatch)
        doc = {"tasks": ["mg"], "models": ["esn"], "trials": 1, key: value}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("bench", "--manifest", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and named in err
        assert "Traceback" not in err
        assert calls == [] and not out.exists()


    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_alpha_outside_the_unit_interval_exits_3(self, tmp_path, capsys, monkeypatch,
                                                     command):
        calls = self._count_trainings(monkeypatch)
        out = tmp_path / "out"
        task = ["--task", "mg", "--model"] if command == "train" else ["--tasks", "mg", "--models"]
        assert run(command, *task, "esn", "--alpha", "1.5", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=ContractViolationError" in err and "esp_alpha" in err
        assert "Traceback" not in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("argv,named", [
        (["train", "--model", "esn"], "no task given"),
        (["eval", "--task", "mg"], "eval needs --model-file"),
        (["online", "--task", "mg"], "online needs --model-file"),
        (["esp-check"], "esp-check needs --model-file"),
    ], ids=["train-task", "eval-model", "online-model", "esp-check-model"])
    def test_missing_input_is_a_schema_error(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("grid,named", [
        ("n_max", "grid entry 'n_max' is not name=v1,v2,..."),
        (" ; ", "empty grid specification"),
    ], ids=["no-equals", "empty"])
    def test_grid_without_a_named_value_is_a_schema_error(self, tmp_path, capsys, grid, named):
        out = tmp_path / "out"
        assert run("train", "--task", "mg", "--model", "esn", "--grid", grid,
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=SchemaError" in err and named in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_ref_model_with_another_readout_shape_exits_3(self, tmp_path, fast_manifest,
                                                          capsys):
        ref = tmp_path / "ref.model.json"
        save_model(ReservoirModel(input_weights=np.ones((3, 1)), feedback=np.zeros((3, 3)),
                                  biases=np.zeros(3), readout=np.zeros((1, 4))), str(ref))
        out = tmp_path / "out"
        assert run("online", "--manifest", fast_manifest, "--model-file",
                   _tiny_model_file(tmp_path), "--ref-model", str(ref), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "kind=ContractViolationError" in err and "w_ref shape" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestModelSpec:
    @pytest.mark.parametrize("kind,cls,size", [
        ("rscn", BuildConfig, "n_max"), ("esn", BaselineConfig, "n_nodes"),
        ("scr", BaselineConfig, "n_nodes"),
    ])
    def test_a_task_no_size_table_names_takes_the_config_size(self, kind, cls, size):
        assert getattr(cli._model_spec(kind, "toy", {}, None), size) == getattr(cls(), size)
        assert getattr(cli._model_spec(kind, "plant", {}, None), size) != getattr(cls(), size)

    @pytest.mark.parametrize("kind", ["rscn", "esn"])
    def test_alpha_sets_the_contraction_level(self, kind):
        manifest = {"model_params": {"esp_alpha": 0.5}}
        assert cli._model_spec(kind, "mg", manifest, 0.8).esp_alpha == 0.8
        assert cli._model_spec(kind, "mg", manifest, None).esp_alpha == 0.5


class TestReplay:
    """Every document the program writes reads back."""

    def test_written_documents_read_back(self, tmp_path, fast_manifest, capsys):
        gen = tmp_path / "gen"
        assert run("gen", "--task", "mg1", "--seed", "4", "--out", str(gen)) == 0
        written = load_manifest(str(gen / "mg1_manifest.json"))
        assert task_from_manifest(written).name == "mg1"
        path = tmp_path / "gen_run.json"
        path.write_text(json.dumps({"task": written}))
        again = tmp_path / "again"
        assert run("gen", "--manifest", str(path), "--out", str(again)) == 0
        for name in os.listdir(gen):
            assert (again / name).read_bytes() == (gen / name).read_bytes()

        model = ReservoirModel(input_weights=np.ones((2, 1)), feedback=np.eye(2) * 0.5,
                               biases=np.zeros(2), readout=np.ones((1, 3)))
        model_file = str(tmp_path / "saved.model.json")
        save_model(model, model_file)
        assert np.array_equal(load_model(model_file).readout, model.readout)
        capsys.readouterr()
        # the tests' own run manifest, with the saved model
        assert run("eval", "--manifest", fast_manifest, "--model-file", model_file) == 0
        assert "task=toy split=test nrmse=" in capsys.readouterr().out
