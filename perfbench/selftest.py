"""Shows that each correctness check accepts real output and rejects corrupted output.

    python3 perfbench/selftest.py

Builds a small RSCN model, an ESN baseline and three online runs on mg,
then feeds every check in ``checks.py`` first the program's output and
then a deliberately corrupted copy (a perturbed readout, a swapped
update rule, ...). Exits 0 only if every real output passes and every
corruption is rejected.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from rscn.baselines import BaselineConfig, build_baseline  # noqa: E402
from rscn.build import BuildConfig, build_rscn  # noqa: E402
from rscn.evaluate import evaluate_model  # noqa: E402
from rscn.model import run_reservoir  # noqa: E402
from rscn.online import OnlineConfig, online_run  # noqa: E402
from rscn.spectral import esp_check  # noqa: E402
from rscn.tasks import task_from_manifest  # noqa: E402

import checks  # noqa: E402

PHI = 0.01


def arrays(model, **changes):
    """A model-like copy of ``model``'s public arrays with some replaced."""
    fields = {k: np.array(getattr(model, k)) for k in
              ("input_weights", "feedback", "biases", "readout")}
    fields["initial_block_size"] = model.initial_block_size
    fields["activation"] = model.activation
    fields.update(changes)
    return SimpleNamespace(**fields)


def main() -> int:
    task = task_from_manifest({"task": "mg", "seed": 0})
    cfg = BuildConfig(n_max=25, seed=0)
    grown, history = build_rscn(task.train, task.val, cfg)
    esn_cfg = BaselineConfig(n_nodes=40, seed=0)
    esn = build_baseline(esn_cfg, task.train)
    train, test = task.train, task.test

    own_train = checks.tanh_states(grown, train.inputs)
    own_test = checks.tanh_states(grown, test.inputs)
    program_test = run_reservoir(grown, test.inputs).states
    reported = evaluate_model(grown, test)

    corrupt_states = program_test.copy()
    corrupt_states[3, 40] += 1e-6
    bad_readout = np.array(grown.readout)
    bad_readout[0, 2] += 1e-3
    upper = np.array(grown.feedback)
    upper[cfg.n_init + 2, cfg.n_init + 5] = 0.1
    self_w = np.array(grown.feedback)
    self_w[cfg.n_init + 1, cfg.n_init + 1] = cfg.esp_alpha + 0.01
    norms = list(history.train_norms)
    rising = norms[:3] + [norms[2] * (1 + 1e-9)] + norms[3:]

    stream = test
    features = np.vstack([own_test, stream.inputs]).T
    targets = stream.targets.T
    runs = {}
    for mode, phi in (("basic", 0.0), ("decreasing_gain", 0.0), ("dead_zone", PHI)):
        _, state = online_run(grown, stream, OnlineConfig(mode=mode, phi=phi))
        priors = np.array([d.prior_error for d in state.diagnostics])
        etas = np.array([d.eta for d in state.diagnostics])
        runs[mode] = (phi, state.readout, priors, etas)

    def online(mode, as_mode=None, readout=None, priors=None):
        phi, w, p, _ = runs[mode]
        return checks.check_online(mode, as_mode or mode, grown.readout, features, targets, phi,
                                   w if readout is None else readout,
                                   p if priors is None else priors)

    phi, _, dz_priors, dz_etas = runs["dead_zone"]
    flipped = dz_etas.copy()
    flipped[len(flipped) // 2] = 1.0 - flipped[len(flipped) // 2]
    shifted_priors = runs["basic"][2].copy()
    shifted_priors[10, 0] += 1e-4

    esp = esp_check(grown, n_pairs=5)
    esn_w = np.array(esn.feedback)

    cases = [
        ("tanh recursion", lambda: checks.check_states("rscn", grown, own_test, program_test),
         lambda: checks.check_states("rscn", grown, own_test, corrupt_states)),
        ("NRMSE", lambda: checks.check_nrmse("rscn", grown, own_test, test, reported),
         lambda: checks.check_nrmse("rscn", grown, own_test, test, reported * (1 + 1e-6))),
        ("readout residual", lambda: checks.check_readout_residual("rscn", grown, own_train, train),
         lambda: checks.check_readout_residual("rscn", arrays(grown, readout=bad_readout),
                                               own_train, train)),
        ("monotone residual", lambda: checks.check_monotone("rscn", norms),
         lambda: checks.check_monotone("rscn", rising)),
        ("triangular shape", lambda: checks.check_grown_structure("rscn", grown, cfg.esp_alpha),
         lambda: checks.check_grown_structure("rscn", arrays(grown, feedback=upper),
                                              cfg.esp_alpha)),
        ("self-weight bound", lambda: checks.check_grown_structure("rscn", grown, cfg.esp_alpha),
         lambda: checks.check_grown_structure("rscn", arrays(grown, feedback=self_w),
                                              cfg.esp_alpha)),
        ("ESN contraction", lambda: checks.check_contraction("esn", esn, esn_cfg.esp_alpha),
         lambda: checks.check_contraction("esn", arrays(esn, feedback=esn_w * (1 + 1e-9)),
                                          esn_cfg.esp_alpha)),
        ("no dropped trial", lambda: checks.check_no_failed_trials("t", SimpleNamespace(n_failed=0)),
         lambda: checks.check_no_failed_trials("t", SimpleNamespace(n_failed=1))),
        ("basic rule", lambda: online("basic"), lambda: online("basic", as_mode="decreasing_gain")),
        ("decreasing-gain rule", lambda: online("decreasing_gain"),
         lambda: online("decreasing_gain", as_mode="basic")),
        ("dead-zone rule", lambda: online("dead_zone"), lambda: online("dead_zone", as_mode="basic")),
        ("online readout", lambda: online("basic"),
         lambda: online("basic", readout=runs["basic"][1] + 1e-6)),
        ("online prior errors", lambda: online("basic"),
         lambda: online("basic", priors=shifted_priors)),
        ("dead-zone gate", lambda: checks.check_deadzone_gate("dz", dz_priors, dz_etas, phi),
         lambda: checks.check_deadzone_gate("dz", dz_priors, flipped, phi)),
        ("ESP convergence", lambda: checks.check_esp("esp", esp, 500),
         lambda: checks.check_esp("esp", SimpleNamespace(
             converged=False, steps_to_tol=None, max_final_gap=1e-3), 500)),
        ("ESP within steps", lambda: checks.check_esp("esp", esp, 500),
         lambda: checks.check_esp("esp", esp, esp.steps_to_tol - 1)),
    ]
    ok = True
    for label, real, corrupted in cases:
        accepted = not real()
        rejected = bool(corrupted())
        ok &= accepted and rejected
        print(f"{label:22s} real output {'accepted' if accepted else 'REJECTED'}, "
              f"corrupted output {'rejected' if rejected else 'ACCEPTED'}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
