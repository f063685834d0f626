"""Correctness checks made apart from the program.

Every check recomputes what it verifies with the benchmark's own code
(NumPy and SciPy only, nothing from ``rscn``) and returns a list of
failure messages; an empty list means the output passed. The checks
read models through their public arrays (``input_weights``,
``feedback``, ``biases``, ``readout``, ``initial_block_size``), so any
object with those attributes can be checked.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

STATE_TOL = 1e-9
NRMSE_RTOL = 1e-9
RESIDUAL_RTOL = 1e-9
MONOTONE_TOL = 1e-12
SIGMA_RTOL = 1e-12
ONLINE_RTOL = 1e-8


def tanh_states(model, inputs: np.ndarray) -> np.ndarray:
    """``x(t) = tanh(W_in u(t) + b + W_r x(t-1))`` from ``x(0) = 0``, as ``(N, n)``."""
    drive = model.input_weights @ inputs + model.biases[:, None]
    w_r = model.feedback
    states = np.empty((w_r.shape[0], inputs.shape[1]))
    x = np.zeros(w_r.shape[0])
    for t in range(inputs.shape[1]):
        x = np.tanh(drive[:, t] + w_r @ x)
        states[:, t] = x
    return states


def nrmse(pred: np.ndarray, target: np.ndarray) -> float:
    """RMSE over the population standard deviation of the target."""
    return float(np.sqrt(np.mean((pred - target) ** 2) / np.var(target)))


def _close(a, b, rtol) -> bool:
    scale = max(1.0, float(np.max(np.abs(b))) if np.size(b) else 1.0)
    return bool(np.shape(a) == np.shape(b) and np.max(np.abs(np.subtract(a, b)), initial=0.0) <= rtol * scale)


def check_states(name, model, own_states, program_states) -> list[str]:
    """The benchmark's own tanh recursion (``own_states``) reproduces ``run_reservoir``."""
    if getattr(model, "activation", "tanh") != "tanh":
        return [f"{name}: activation {model.activation!r} is not tanh"]
    if not _close(program_states, own_states, STATE_TOL):
        gap = float(np.max(np.abs(np.subtract(program_states, own_states))))
        return [f"{name}: run_reservoir differs from the tanh recursion by {gap:.3g}"]
    return []


def check_nrmse(name, model, states, seq, reported) -> list[str]:
    """The benchmark's own NRMSE of the frozen readout equals the reported one."""
    w = seq.washout
    pred = model.readout @ np.vstack([states, seq.inputs])
    own = nrmse(pred[:, w:], seq.targets[:, w:])
    if abs(own - reported) > NRMSE_RTOL * own:
        return [f"{name}: reported NRMSE {reported!r}, recomputed {own!r}"]
    return []


def check_readout_residual(name, model, states, seq) -> list[str]:
    """The readout's training residual is no larger than SciPy's least squares."""
    w = seq.washout
    x = np.vstack([states, seq.inputs])[:, w:]
    t = seq.targets[:, w:]
    ref, *_ = scipy.linalg.lstsq(x.T, t.T)
    r_ref = float(np.linalg.norm(t - ref.T @ x))
    r_prog = float(np.linalg.norm(t - model.readout @ x))
    if r_prog > r_ref * (1.0 + RESIDUAL_RTOL) + 1e-12:
        return [f"{name}: training residual {r_prog!r} exceeds lstsq's {r_ref!r}"]
    return []


def check_monotone(name, train_norms) -> list[str]:
    """Criterion 5: the post-washout training residual norm never increases."""
    norms = np.asarray(train_norms, dtype=float)
    rises = np.diff(norms)
    if rises.size and rises.max() > MONOTONE_TOL:
        i = int(np.argmax(rises))
        return [f"{name}: train norm rises {norms[i]!r} -> {norms[i + 1]!r} at record {i + 1}"]
    return []


def check_grown_structure(name, model, esp_alpha) -> list[str]:
    """Block-lower-triangular feedback and grown self-weights at most ``esp_alpha``."""
    w = np.asarray(model.feedback)
    n, n0 = w.shape[0], int(model.initial_block_size)
    rows, cols = np.indices((n, n))
    outside = cols > np.maximum(rows, n0 - 1)
    problems = []
    if np.any(w[outside] != 0.0):
        problems.append(f"{name}: feedback has {int(np.count_nonzero(w[outside]))} "
                        "nonzeros above the grown diagonal")
    self_w = np.abs(np.diag(w)[n0:])
    if self_w.size and self_w.max() > esp_alpha:
        problems.append(f"{name}: grown self-weight {self_w.max()!r} exceeds {esp_alpha}")
    return problems


def check_contraction(name, model, alpha) -> list[str]:
    """The feedback's largest singular value is at most ``alpha``."""
    sigma = float(np.linalg.svd(np.asarray(model.feedback), compute_uv=False)[0])
    if sigma > alpha * (1.0 + SIGMA_RTOL):
        return [f"{name}: sigma_max {sigma!r} exceeds alpha {alpha}"]
    return []


def check_no_failed_trials(name, report) -> list[str]:
    """No trial was dropped from a ``TrialReport``."""
    if report.n_failed:
        return [f"{name}: {report.n_failed} trial(s) failed and were dropped"]
    return []


def online_reference(mode, readout, features, targets, phi=0.0, a=1.0, c=1.0):
    """Plain loop of the three projection rules over one stream.

    ``features`` is ``(n, N + K)`` and ``targets`` ``(n, L)``. The first
    step only predicts; each later step computes the prior error with the
    current weights and then updates them. Returns the final weights and
    the ``(n, L)`` prior errors.
    """
    w = np.array(readout, dtype=float)
    priors = np.empty_like(targets)
    priors[0] = targets[0] - w @ features[0]
    energy = 0.0
    for t in range(1, targets.shape[0]):
        g, e = features[t], targets[t] - w @ features[t]
        priors[t] = e
        if mode == "basic":
            w += np.outer(a * e, g) / (c + g @ g)
        elif mode == "decreasing_gain":
            energy += g @ g
            w += np.outer(e, g) / energy
        elif mode == "dead_zone":
            if np.any(np.abs(e) > 2.0 * phi):
                w += np.outer(e, g) / (1.0 + g @ g)
        else:
            raise ValueError(f"unknown rule {mode!r}")
    return w, priors


def check_online(name, mode, readout0, features, targets, phi, final_readout, priors) -> list[str]:
    """The plain loop reproduces the program's final readout and prior errors."""
    ref_w, ref_priors = online_reference(mode, readout0, features, targets, phi)
    problems = []
    if not _close(final_readout, ref_w, ONLINE_RTOL):
        problems.append(f"{name}: final readout differs from the plain {mode} loop")
    if not _close(priors, ref_priors, ONLINE_RTOL):
        problems.append(f"{name}: prior errors differ from the plain {mode} loop")
    return problems


def check_deadzone_gate(name, priors, etas, phi) -> list[str]:
    """From the second step on, the gate is shut exactly when every |prior| <= 2 phi."""
    shut = np.all(np.abs(priors[1:]) <= 2.0 * phi, axis=1)
    opened = np.asarray(etas[1:]) > 0.0
    wrong = int(np.count_nonzero(shut == opened))
    if wrong:
        return [f"{name}: dead-zone gate wrong on {wrong} step(s)"]
    return []


def check_esp(name, report, n_steps) -> list[str]:
    """Every pair of trajectories converged within the checked steps."""
    if not report.converged or report.steps_to_tol is None or report.steps_to_tol > n_steps:
        return [f"{name}: no convergence within {n_steps} steps "
                f"(max final gap {report.max_final_gap!r})"]
    return []
