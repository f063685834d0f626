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


def test_readme_library_block_runs_as_written(capsys):
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    rscn_line, esn_line = capsys.readouterr().out.splitlines()
    assert 0 < int(rscn_line.split()[0]) <= 120
    assert esn_line.split()[0] == "98"
