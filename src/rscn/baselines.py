"""Fixed-size reservoir baselines: random echo state network, ring reservoir."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .build import draw_reservoir, solve_output_weights
from .errors import ContractViolationError
from .model import GENERAL, ReservoirModel, run_reservoir
from .seeding import substream
from .spectral import scale_feedback
from .tasks import SupervisedSequence

TOPOLOGY_ESN = "esn_random"
TOPOLOGY_SCR = "scr_ring"


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs of the fixed-topology baselines.

    ``weight_scale`` bounds the uniform input weights and biases;
    ``esp_alpha`` is the contraction level of the random feedback matrix;
    ``ring_weight`` is the single coupling, and so the gain, of the ring,
    which ignores ``esp_alpha``.
    """

    n_nodes: int = 100
    weight_scale: float = 1.0
    sparsity: float = 0.03
    esp_alpha: float = 0.9
    topology: str = TOPOLOGY_ESN
    ring_weight: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ContractViolationError("n_nodes must be positive")
        if not 0.0 < self.esp_alpha < 1.0:
            raise ContractViolationError("esp_alpha must lie in (0, 1)")
        if self.topology not in (TOPOLOGY_ESN, TOPOLOGY_SCR):
            raise ContractViolationError(f"unknown topology {self.topology!r}")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ContractViolationError("sparsity must lie in [0, 1]")


def build_baseline(cfg: BaselineConfig, train: SupervisedSequence) -> ReservoirModel:
    """Fixed reservoir of ``cfg.topology``; input weights, then biases, come
    first from the ``init`` substream, and the readout is fitted by least
    squares on the post-washout extended states."""
    rng = substream(cfg.seed, "init")
    n, k, ell, lam = cfg.n_nodes, train.n_inputs, train.n_outputs, cfg.weight_scale
    if cfg.topology == TOPOLOGY_ESN:
        w_in, w_r, b = draw_reservoir(rng, n, k, lam, cfg.sparsity)
    else:
        w_in = rng.uniform(-lam, lam, size=(n, k))
        b = rng.uniform(-lam, lam, size=n)
        w_r = np.zeros((n, n))
        w_r[np.arange(n), (np.arange(n) - 1) % n] = cfg.ring_weight
    model = ReservoirModel(
        input_weights=w_in,
        feedback=w_r,
        biases=b,
        readout=np.zeros((ell, n + k)),
        structure_tag=GENERAL,
    )
    if cfg.topology == TOPOLOGY_ESN:
        model = scale_feedback(model, cfg.esp_alpha)
    w = train.washout
    x = run_reservoir(model, train.inputs).extended[:, w:]
    return model.with_readout(solve_output_weights(x, train.targets[:, w:]))
