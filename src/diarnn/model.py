"""Bundled model parameters and whole-sequence scoring.

The full joint probability of an utterance factorizes into the Bernoulli
change model, the block-counting assignment prior, and the per-step
Gaussian emissions; scoring a fixed labeling just sums the three pieces.
"""

import math
from dataclasses import dataclass

import numpy as np

from .net import (
    EmissionParams,
    NetParams,
    forward_log_likelihood,
    init_net_params,
)
from .prior import PriorParams, change_log_prob, sequence_assignment_log_prob
from .sequences import LabelSequence, derive_change_indicators

__all__ = [
    "ModelParams",
    "init_model_params",
    "sequence_log_joint",
    "corpus_log_joint",
]


@dataclass
class ModelParams:
    """Everything the model needs: net weights, emission variance, and the
    label-prior parameters."""

    net: NetParams
    emission: EmissionParams
    prior: PriorParams

    @property
    def input_dim(self) -> int:
        return self.net.input_dim

    @property
    def sigma2(self) -> float:
        return self.emission.sigma2

    @property
    def alpha(self) -> float:
        return self.prior.alpha

    @property
    def p0(self) -> float:
        return self.prior.p0

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.net.copy(), EmissionParams(self.emission.log_sigma2), self.prior
        )


def init_model_params(
    input_dim: int,
    hidden_dim: int = 16,
    fc_dim: int = 16,
    seed: int = 0,
    sigma2: float = 1.0,
    alpha: float = 1.0,
    p0: float = 0.5,
    relu_output: bool = False,
) -> ModelParams:
    """Fresh model with seeded random net weights."""
    rng = np.random.default_rng(seed)
    net = init_net_params(input_dim, hidden_dim, fc_dim, rng, relu_output=relu_output)
    return ModelParams(net, EmissionParams(math.log(sigma2)), PriorParams(p0, alpha))


def sequence_log_joint(X, labels: LabelSequence, params: ModelParams) -> float:
    """Full joint log-probability of (embeddings, labels): change model plus
    speaker assignment plus emissions."""
    if not isinstance(labels, LabelSequence):
        labels = LabelSequence(tuple(labels))
    z = derive_change_indicators(labels)
    total = sum(change_log_prob(zi, params.prior.p0) for zi in z)
    total += sequence_assignment_log_prob(labels, z, params.prior.alpha)
    ll, _ = forward_log_likelihood(X, labels, params.net, params.emission)
    return total + ll


def corpus_log_joint(pairs, params: ModelParams) -> float:
    """Sum of full-joint log-probabilities over (embeddings, labels) pairs."""
    return sum(sequence_log_joint(X, Y, params) for X, Y in pairs)
