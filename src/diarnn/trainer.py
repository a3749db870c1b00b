"""Maximum-likelihood training.

The no-change probability has a closed-form maximizer and is set once up
front.  Everything else, the net weights, the log-variance, and the
log-concentration, is fit by constant-step stochastic gradient ascent over
utterance minibatches, with each batch gradient scaled by N/b so the step
estimates the full-corpus gradient.  The net and variance gradients come
from the emission term only; the concentration gradient comes from the
assignment term only.  Runs are deterministic for a fixed corpus, config,
and seed.
"""

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import TrainingError
from .model import ModelParams, init_model_params
from .net import backward_gradients
from .prior import (
    PriorParams,
    change_log_prob,
    estimate_p0,
    grad_alpha,
    sequence_assignment_log_prob,
)
from .sequences import EmbeddingSequence, LabelSequence, derive_change_indicators

__all__ = ["TrainConfig", "TrainReport", "train", "minibatch_step"]

_SMOOTHING = 0.9  # decay of the exponentially smoothed objective


@dataclass
class TrainConfig:
    # Batch gradients are summed and rescaled by corpus_size / batch_size,
    # not averaged, so useful nominal step sizes are small; the defaults
    # pair a conservative step with clipping so out-of-the-box runs stay
    # stable instead of blowing up the variance.
    step_size: float = 3e-4
    batch_size: int = 8
    max_iterations: int = 200
    grad_clip_norm: float | None = 100.0
    seed: int = 0
    convergence_tol: float = 1e-9
    log_every: int = 10
    hidden_dim: int = 16
    fc_dim: int = 16
    relu_output: bool = False

    def __post_init__(self):
        if self.step_size < 0:
            raise ValueError(f"step size must be nonnegative, got {self.step_size}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max iterations must be positive, got {self.max_iterations}"
            )
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValueError(
                f"gradient clip norm must be positive, got {self.grad_clip_norm}"
            )
        if self.convergence_tol <= 0:
            raise ValueError(
                f"convergence tolerance must be positive, got {self.convergence_tol}"
            )
        if self.log_every < 1:
            raise ValueError(f"log interval must be positive, got {self.log_every}")
        if self.hidden_dim < 1 or self.fc_dim < 1:
            raise ValueError("hidden and fc widths must be positive")


@dataclass
class TrainReport:
    objectives: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = ""
    final_p0: float = 0.0
    final_alpha: float = 0.0
    final_sigma2: float = 0.0


def _validated_corpus(corpus) -> list[tuple[EmbeddingSequence, LabelSequence]]:
    pairs = []
    if corpus is None:
        raise ValueError("empty corpus")
    for item in corpus:
        X, Y = item
        if not isinstance(X, EmbeddingSequence):
            X = EmbeddingSequence(np.asarray(X, dtype=np.float64))
        if not isinstance(Y, LabelSequence):
            Y = LabelSequence(tuple(Y))  # rejects non-canonical labels
        if len(X) != len(Y):
            raise ValueError(
                f"length mismatch: {len(X)} embeddings vs {len(Y)} labels"
            )
        pairs.append((X, Y))
    if not pairs:
        raise ValueError("empty corpus")
    dim = pairs[0][0].dim
    for X, _ in pairs:
        if X.dim != dim:
            raise ValueError(f"inconsistent embedding dims: {X.dim} vs {dim}")
    return pairs


def _non_finite(params: ModelParams, batch, ids) -> str:
    """Name the first utterance whose own gradient is non-finite, taking
    each utterance's gradient on its own."""
    for (X, Y), utt in zip(batch, ids):
        result = backward_gradients(X, Y, params.net, params.emission)
        ga = grad_alpha(Y, derive_change_indicators(Y), params.prior.alpha)
        if not (
            np.isfinite(result.net.flat).all()
            and math.isfinite(result.log_sigma2)
            and math.isfinite(ga)
        ):
            return f"utterance {utt}"
    return "the minibatch sum of utterances " + ", ".join(ids)


def minibatch_step(
    params: ModelParams,
    batch,
    scale: float,
    config: TrainConfig | None = None,
    batch_ids=None,
) -> float:
    """One scaled ascent step on a minibatch.  Updates params in place and
    returns the scaled minibatch estimate of the full log joint, evaluated
    at the pre-step parameters.

    The variance and concentration move in log space (chain rule applied
    here), so both stay positive for any step size.  Optional global-norm
    clipping covers the net, log-variance, and log-concentration gradients
    jointly.
    """
    config = config or TrainConfig()
    batch = list(batch)
    if not batch:
        raise ValueError("empty minibatch")
    ids = [str(i) for i in range(len(batch))] if batch_ids is None else list(batch_ids)
    # Threads never interact, so the whole batch is one utterance whose
    # speakers are numbered apart, utterance after utterance.
    embeddings, labels = [], []
    speakers = 0
    for X, Y in batch:
        x = X.values if isinstance(X, EmbeddingSequence) else np.asarray(X, dtype=np.float64)
        if len(x) != len(Y):
            raise ValueError(f"length mismatch: {len(x)} embeddings vs {len(Y)} labels")
        embeddings.append(x)
        labels.append(np.asarray(Y.labels) + speakers)
        speakers += Y.num_speakers
    result = backward_gradients(
        np.concatenate(embeddings), np.concatenate(labels), params.net, params.emission
    )
    net_grads = result.net
    g_log_sigma2 = result.log_sigma2
    g_alpha = 0.0
    objective = result.log_likelihood
    finite = np.isfinite(net_grads.flat).all() and math.isfinite(g_log_sigma2)
    for _, Y in batch:
        z = derive_change_indicators(Y)
        ga = grad_alpha(Y, z, params.prior.alpha)
        finite = finite and math.isfinite(ga)
        g_alpha += ga
        objective += sequence_assignment_log_prob(Y, z, params.prior.alpha)
        objective += sum(change_log_prob(zi, params.prior.p0) for zi in z)
    if not finite:
        raise TrainingError(f"non-finite gradient for {_non_finite(params, batch, ids)}")
    g_log_alpha = params.prior.alpha * g_alpha
    if config.grad_clip_norm is not None:
        net_sq = float(net_grads.flat @ net_grads.flat)
        norm = math.sqrt(net_sq + g_log_sigma2**2 + g_log_alpha**2)
        if norm > config.grad_clip_norm:
            factor = config.grad_clip_norm / norm
            net_grads.flat *= factor
            g_log_sigma2 *= factor
            g_log_alpha *= factor
    step = scale * config.step_size
    params.net.flat += step * net_grads.flat
    params.emission.log_sigma2 += step * g_log_sigma2
    new_log_alpha = math.log(params.prior.alpha) + step * g_log_alpha
    # Catch a runaway before exp() can overflow into a raw crash; 700 is
    # just under the float64 exp limit and far outside any sane value.
    if not math.isfinite(params.emission.log_sigma2) or abs(params.emission.log_sigma2) > 700.0:
        raise TrainingError(
            f"training diverged: log variance reached {params.emission.log_sigma2}; "
            "reduce step_size or tighten grad_clip_norm"
        )
    if not math.isfinite(new_log_alpha) or abs(new_log_alpha) > 700.0:
        raise TrainingError(
            f"training diverged: log concentration reached {new_log_alpha}; "
            "reduce step_size or tighten grad_clip_norm"
        )
    params.prior = PriorParams(p0=params.prior.p0, alpha=math.exp(new_log_alpha))
    return scale * objective


def train(
    corpus,
    config: TrainConfig | None = None,
    init_params: ModelParams | None = None,
    utt_ids=None,
    log_stream: TextIO | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Fit the model to labeled utterances.

    corpus is a sequence of (embeddings, labels) pairs.  When init_params
    is given it is updated in place (pass a copy to keep the original);
    otherwise a fresh model is initialized from the config seed with the
    variance set to the pooled variance of the corpus.  Minibatches are
    drawn without replacement and reshuffled every epoch; a trailing
    partial batch is folded into the next epoch's shuffle so every step
    sees exactly batch_size utterances.

    Stops at max_iterations, or earlier when the exponentially smoothed
    objective moves by less than convergence_tol in relative terms.
    """
    config = config or TrainConfig()
    pairs = _validated_corpus(corpus)
    n = len(pairs)
    if config.batch_size > n:
        raise ValueError(f"batch size {config.batch_size} exceeds corpus size {n}")
    if utt_ids is None:
        ids = [str(i) for i in range(n)]
    else:
        ids = [str(u) for u in utt_ids]
        if len(ids) != n:
            raise ValueError(f"{len(ids)} utterance ids for {n} utterances")

    rng = np.random.default_rng(config.seed)
    if init_params is None:
        pooled = float(np.var(np.concatenate([X.values.ravel() for X, _ in pairs])))
        params = init_model_params(
            pairs[0][0].dim,
            config.hidden_dim,
            config.fc_dim,
            seed=config.seed,
            sigma2=pooled if pooled > 0 else 1.0,
            alpha=1.0,
            p0=0.5,
            relu_output=config.relu_output,
        )
    else:
        params = init_params
        if params.input_dim != pairs[0][0].dim:
            raise ValueError(
                f"model input dim {params.input_dim} != corpus dim {pairs[0][0].dim}"
            )
    params.prior = PriorParams(
        p0=estimate_p0([Y for _, Y in pairs]), alpha=params.prior.alpha
    )

    report = TrainReport()
    report.stop_reason = "max_iterations"
    scale = n / config.batch_size
    order: np.ndarray | None = None
    pos = 0
    smoothed = None
    for tau in range(1, config.max_iterations + 1):
        if order is None or pos + config.batch_size > n:
            order = rng.permutation(n)
            pos = 0
        batch_idx = [int(i) for i in order[pos : pos + config.batch_size]]
        pos += config.batch_size
        objective = minibatch_step(
            params,
            [pairs[i] for i in batch_idx],
            scale,
            config,
            batch_ids=[ids[i] for i in batch_idx],
        )
        report.objectives.append(objective)
        report.iterations = tau
        if log_stream is not None and tau % config.log_every == 0:
            log_stream.write(
                f"iter={tau} objective={objective:.6f} "
                f"alpha={params.prior.alpha:.6f} "
                f"sigma2={params.emission.sigma2:.6f} "
                f"p0={params.prior.p0:.6f}\n"
            )
        previous = smoothed
        smoothed = (
            objective
            if smoothed is None
            else _SMOOTHING * smoothed + (1.0 - _SMOOTHING) * objective
        )
        if previous is not None:
            rel = abs(smoothed - previous) / max(abs(previous), 1.0)
            if rel < config.convergence_tol:
                report.stop_reason = "converged"
                break
    report.final_p0 = params.prior.p0
    report.final_alpha = params.prior.alpha
    report.final_sigma2 = params.emission.sigma2
    return params, report
