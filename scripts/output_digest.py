#!/usr/bin/env python3
"""SHA-256 of every output of one fixed set of seeded ``rscn`` commands.

The commands run in this process, each writing under one output
directory; each command's printed lines are kept as ``<label>.stdout``.
Two of them read a run manifest, which is written first as
``<label>.run.json``. What changes from run to run is blanked before
hashing: ``time_s=`` values, the training-time column of ``rscn
bench``'s reports and the output directory's own path. The result is
printed as JSON, ``{"files": {path: sha256}, "total": sha256}``.

Run it on two trees to see which outputs a change moved: equal hashes
mean equal bytes. The hashes depend on the numpy and BLAS builds, so
compare trees on one machine; a digest is not a reference to commit.

    python scripts/output_digest.py                  # outputs in a temporary directory
    python scripts/output_digest.py --out digest/    # keep them, to diff two trees
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rscn.cli import cmd_dispatch  # noqa: E402

TASKS = ("mg", "mg2", "plant")
MG_MODEL = "{out}/train_s0/mg_rscn.model.json"
CSV_TASK = "csv:{out}/gen/plant_train.csv"  # a file gen_plant writes

# run manifests, each written to {out}/<label>.run.json before the command
# its label begins with runs on it
MANIFESTS = {
    "train_manifest": {
        "seed": 1, "model": "rscn",
        "task": {"task": "csv", "washout": 12,
                 "csv": {"path": "{out}/gen/plant_train.csv", "n_train": 1000, "n_test": 600}},
        "model_params": {"n_max": 40, "esp_alpha": 0.8},
    },
    "bench_manifest": {
        "seed": 2, "trials": 2, "models": ["esn", "rscn"],
        "tasks": ["mg1", {"task": "plant",
                          "plant_params": {"n_train": 800, "n_val": 400, "n_test": 400}}],
    },
}


def _commands() -> list[tuple[str, list[str]]]:
    """The fixed set as ``(label, argv)``; ``{out}`` is the output directory."""
    runs = [(f"gen_{t}", ["gen", "--task", t, "--seed", "0", "--out", "{out}/gen"])
            for t in TASKS]
    runs += [
        (f"train_{t}_{m}_s{s}", ["train", "--task", t, "--model", m, "--seed", str(s),
                                 "--out", f"{{out}}/train_s{s}"])
        for s in (0, 1) for t in TASKS for m in ("rscn", "esn", "scr")
    ]
    runs += [(f"eval_{t}", ["eval", "--task", t, "--seed", "0", "--model-file",
                            f"{{out}}/train_s0/{t}_rscn.model.json"]) for t in TASKS]
    runs += [(f"online_{mode}", ["online", "--task", "mg", "--seed", "0", "--mode", mode,
                                 "--phi", "0.01", "--model-file", MG_MODEL, "--out", "{out}/online"])
             for mode in ("basic", "decreasing", "deadzone")]
    runs.append(("esp_check", ["esp-check", "--seed", "0", "--model-file", MG_MODEL]))
    runs.append(("train_alpha", ["train", "--task", "mg", "--model", "rscn", "--alpha", "0.8",
                                 "--seed", "0", "--out", "{out}/train_alpha"]))
    runs.append(("online_ref", ["online", "--task", "mg", "--seed", "0", "--mode", "basic",
                                "--a", "0.5", "--c", "2.0", "--model-file", MG_MODEL,
                                "--ref-model", "{out}/train_s1/mg_rscn.model.json",
                                "--out", "{out}/online_ref"]))
    runs.append(("bench", ["bench", "--tasks", *TASKS, "--trials", "2", "--seed", "0",
                           "--out", "{out}/bench"]))
    csv_model = "{out}/train_csv/plant_train_rscn.model.json"
    runs += [(f"train_csv_{m}", ["train", "--task", CSV_TASK, "--model", m, "--seed", "0",
                                 "--out", "{out}/train_csv"]) for m in ("rscn", "esn")]
    runs.append(("eval_csv", ["eval", "--task", CSV_TASK, "--seed", "0",
                              "--model-file", csv_model]))
    runs.append(("online_csv", ["online", "--task", CSV_TASK, "--seed", "0", "--mode",
                                "deadzone", "--phi", "0.01", "--model-file", csv_model,
                                "--out", "{out}/online"]))
    runs.append(("bench_csv", ["bench", "--tasks", CSV_TASK, "--trials", "2", "--seed", "0",
                               "--out", "{out}/bench"]))
    runs += [(label, [label.split("_")[0], "--manifest", f"{{out}}/{label}.run.json",
                      "--out", f"{{out}}/{label}"]) for label in MANIFESTS]
    return runs


COMMANDS = _commands()

# a bench report row: model name, N, then the training time, in CSV or text
_TRAIN_TIME = re.compile(r"^(\w+(?:,|\s+)\d+(?:,|\s+))[\d.]+±[\d.]+", re.M)


def _blank(text: str, out: str) -> str:
    text = re.sub(r"time_s=\S+", "time_s=", text.replace(out, "{out}"))
    return _TRAIN_TIME.sub(r"\1", text)


def digest(commands, out: str) -> dict:
    """Run ``commands`` into ``out`` and hash every file they leave there."""
    for label, argv in commands:
        if label in MANIFESTS:
            with open(os.path.join(out, f"{label}.run.json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(MANIFESTS[label], indent=1).replace("{out}", out))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cmd_dispatch([arg.replace("{out}", out) for arg in argv])
        if code != 0:
            raise RuntimeError(f"{label}: exit {code}")
        with open(os.path.join(out, f"{label}.stdout"), "w", encoding="utf-8") as fh:
            fh.write(printed.getvalue())
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith((".stdout", ".run.json")) or name.startswith("report_"):
                data = _blank(data.decode("utf-8"), out).encode("utf-8")
            files[os.path.relpath(path, out)] = hashlib.sha256(data).hexdigest()
    files = dict(sorted(files.items()))
    total = hashlib.sha256("".join(f"{k} {v}\n" for k, v in files.items()).encode())
    return {"files": files, "total": total.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=None,
                        help="keep the outputs in this new or empty directory")
    args = parser.parse_args()
    if args.out is None:
        with tempfile.TemporaryDirectory() as out:
            result = digest(COMMANDS, out)
    else:
        os.makedirs(args.out, exist_ok=True)
        if os.listdir(args.out):
            parser.error(f"{args.out} is not empty")
        result = digest(COMMANDS, os.path.abspath(args.out))
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
