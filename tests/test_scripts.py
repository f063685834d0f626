import importlib.util
import os
import subprocess
import sys

from rscn.tasks import task_from_manifest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_online_convergence_writes_one_gap_row_per_stream_step(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "online_convergence.py"),
         "--task", "mg", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    task = task_from_manifest({"task": "mg", "seed": 0})
    n_stream = task.val.n_steps + task.test.n_steps
    files = sorted(f for f in os.listdir(out) if f.startswith("gap_mg_"))
    assert files == ["gap_mg_basic.csv", "gap_mg_deadzone.csv", "gap_mg_decreasing.csv"]
    for name in files:
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "step,weight_gap"
        assert len(lines) - 1 == n_stream
        for i, line in enumerate(lines[1:], start=1):
            step, gap = line.split(",")
            assert step == str(i) and gap == repr(float(gap))


def test_output_digest_repeats_in_one_process(tmp_path):
    # the second pass finds the series cache filled, and the blanking must
    # hide each pass's own output directory and timings
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(SCRIPTS, "output_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    labels = {"gen_mg", "train_mg_rscn_s0", "train_plant_scr_s0", "eval_mg",
              "online_basic", "online_deadzone", "esp_check"}
    commands = [c for c in digest.COMMANDS if c[0] in labels]
    commands.append(("bench", ["bench", "--tasks", "mg", "--trials", "1",
                               "--models", "esn", "rscn", "--out", "{out}/bench"]))
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        runs.append(digest.digest(commands, str(tmp_path / name)))
    assert runs[0] == runs[1]
    assert len(runs[0]["files"]) == 19 and "bench/report_mg.txt" in runs[0]["files"]


def test_readme_library_block_runs_as_written(capsys):
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    rscn_line, esn_line = capsys.readouterr().out.splitlines()
    assert 0 < int(rscn_line.split()[0]) <= 120
    assert esn_line.split()[0] == "98"
