import io
import math
import re

import numpy as np
import pytest

from diarnn.errors import TrainingError
from diarnn.model import init_model_params
from diarnn.net import TENSOR_FIELDS, backward_gradients
from diarnn.prior import grad_alpha
from diarnn.sequences import EmbeddingSequence, LabelSequence, derive_change_indicators
from diarnn.trainer import TrainConfig, minibatch_step, train

from helpers import random_canonical_labels


def _toy_corpus(n=6, length=8, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(n):
        labels = random_canonical_labels(rng, length)
        corpus.append((EmbeddingSequence(rng.normal(size=(length, dim))), labels))
    return corpus


SMALL = dict(hidden_dim=3, fc_dim=3)


# -------------------------------------------------------------------- config

def test_train_config_validation():
    TrainConfig(step_size=0.0)  # zero step is legal: measurement-only runs
    with pytest.raises(ValueError):
        TrainConfig(step_size=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(max_iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(grad_clip_norm=0.0)
    with pytest.raises(ValueError):
        TrainConfig(convergence_tol=0.0)
    with pytest.raises(ValueError):
        TrainConfig(log_every=0)


# ------------------------------------------------------------ worked examples

def test_zero_step_size_changes_nothing_but_p0():
    corpus = [(EmbeddingSequence(np.zeros((6, 1))), LabelSequence((1, 1, 2, 3, 2, 2)))]
    cfg = TrainConfig(step_size=0.0, batch_size=1, max_iterations=5, **SMALL)
    init = init_model_params(1, 3, 3, seed=cfg.seed, sigma2=1.0, alpha=1.0, p0=0.5)
    params, report = train(corpus, cfg, init_params=init.copy())
    for name in TENSOR_FIELDS:
        np.testing.assert_array_equal(getattr(params.net, name), getattr(init.net, name))
    assert params.emission.log_sigma2 == init.emission.log_sigma2
    assert params.alpha == init.alpha
    assert params.p0 == pytest.approx(0.4)
    assert report.final_p0 == pytest.approx(0.4)


def test_p0_closed_form_regardless_of_step_size():
    corpus = [(EmbeddingSequence(np.zeros((6, 1))), LabelSequence((1, 1, 2, 3, 2, 2)))]
    for rho in (0.0, 1e-4, 1e-2):
        cfg = TrainConfig(step_size=rho, batch_size=1, max_iterations=3, **SMALL)
        params, _ = train(corpus, cfg)
        assert params.p0 == pytest.approx(0.4)


def test_alpha_step_worked_example():
    # single utterance, b=N=1 so the scale factor is 1; ln(alpha) moves by
    # rho * alpha * (d/d alpha log prior) = 0.1 * 1/6
    params = init_model_params(1, 3, 3, seed=0, sigma2=1.0, alpha=1.0, p0=0.5)
    batch = [(EmbeddingSequence(np.zeros((6, 1))), LabelSequence((1, 1, 2, 3, 2, 2)))]
    minibatch_step(params, batch, scale=1.0, config=TrainConfig(step_size=0.1))
    assert params.alpha == pytest.approx(math.exp(1.0 / 60.0), abs=1e-12)


def test_two_steps_on_fixed_batch_increase_objective():
    corpus = _toy_corpus()
    params = init_model_params(2, 3, 3, seed=1, sigma2=1.0)
    cfg = TrainConfig(step_size=1e-4)
    first = minibatch_step(params, corpus, scale=1.0, config=cfg)
    second = minibatch_step(params, corpus, scale=1.0, config=cfg)
    assert second > first


def test_single_step_is_linear_in_step_size():
    corpus = _toy_corpus()
    base = init_model_params(2, 3, 3, seed=2, sigma2=1.0)

    def delta(rho):
        params = base.copy()
        minibatch_step(params, corpus, scale=1.0, config=TrainConfig(step_size=rho))
        return {
            name: getattr(params.net, name) - getattr(base.net, name)
            for name in TENSOR_FIELDS
        }

    full, half = delta(1e-5), delta(5e-6)
    for name in TENSOR_FIELDS:
        # atol absorbs the cancellation noise of subtracting near-equal weights
        np.testing.assert_allclose(full[name], 2.0 * half[name], rtol=1e-7, atol=1e-15)


def test_grad_clip_bounds_update_norm():
    corpus = _toy_corpus()
    base = init_model_params(2, 3, 3, seed=3, sigma2=0.05)
    params = base.copy()
    rho, clip = 0.01, 1.0
    minibatch_step(params, corpus, scale=1.0,
                   config=TrainConfig(step_size=rho, grad_clip_norm=clip))
    moved = sum(
        float(np.sum((getattr(params.net, n) - getattr(base.net, n)) ** 2))
        for n in TENSOR_FIELDS
    )
    moved += (params.emission.log_sigma2 - base.emission.log_sigma2) ** 2
    moved += (math.log(params.alpha) - math.log(base.alpha)) ** 2
    assert math.sqrt(moved) <= rho * clip * (1 + 1e-9)


@pytest.mark.parametrize("clip", [None, 1.0])
def test_step_equals_sum_of_per_utterance_gradients(clip):
    # one packed pass over the whole batch against the gradients of each
    # utterance taken on its own and summed
    rng = np.random.default_rng(12)
    batch = []
    for length, speakers in ((1, 1), (9, 2), (40, 6), (23, 3), (60, 1), (17, 4)):
        labels = random_canonical_labels(rng, length, max_speakers=speakers)
        batch.append((EmbeddingSequence(rng.normal(size=(length, 2))), labels))
    base = init_model_params(2, 5, 4, seed=4, sigma2=0.6, alpha=1.3)
    step, scale = 1e-3, 2.5

    params = base.copy()
    minibatch_step(params, batch, scale=scale,
                   config=TrainConfig(step_size=step, grad_clip_norm=clip))

    net = base.net.zeros_like()
    g_log_sigma2 = g_alpha = 0.0
    for X, Y in batch:
        result = backward_gradients(X, Y, base.net, base.emission)
        net.flat += result.net.flat
        g_log_sigma2 += result.log_sigma2
        g_alpha += grad_alpha(Y, derive_change_indicators(Y), base.alpha)
    g_log_alpha = base.alpha * g_alpha
    norm = math.sqrt(float(net.flat @ net.flat) + g_log_sigma2**2 + g_log_alpha**2)
    factor = clip / norm if clip is not None and norm > clip else 1.0
    assert (factor < 1.0) == (clip is not None)
    rate = scale * step * factor
    want = rate * net.flat
    np.testing.assert_allclose(params.net.flat - base.net.flat, want,
                               rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert params.emission.log_sigma2 - base.emission.log_sigma2 == pytest.approx(
        rate * g_log_sigma2, rel=1e-12)
    assert math.log(params.alpha) - math.log(base.alpha) == pytest.approx(
        rate * g_log_alpha, rel=1e-12)


# ----------------------------------------------------------------- train loop

def test_training_is_deterministic():
    corpus = _toy_corpus()
    cfg = TrainConfig(step_size=1e-4, batch_size=2, max_iterations=20, seed=5, **SMALL)
    params_a, report_a = train(corpus, cfg)
    params_b, report_b = train(corpus, cfg)
    assert report_a.objectives == report_b.objectives
    for name in TENSOR_FIELDS:
        np.testing.assert_array_equal(
            getattr(params_a.net, name), getattr(params_b.net, name)
        )
    assert params_a.emission.log_sigma2 == params_b.emission.log_sigma2
    assert params_a.alpha == params_b.alpha


def test_report_shape_and_alpha_positivity():
    corpus = _toy_corpus()
    cfg = TrainConfig(step_size=1e-3, batch_size=3, max_iterations=15, **SMALL)
    params, report = train(corpus, cfg)
    assert report.iterations == 15
    assert len(report.objectives) == 15
    assert report.stop_reason == "max_iterations"
    assert params.alpha > 0.0
    assert report.final_sigma2 == pytest.approx(params.emission.sigma2)


def test_convergence_stop():
    corpus = _toy_corpus()
    cfg = TrainConfig(step_size=0.0, batch_size=6, max_iterations=50,
                      convergence_tol=1e-3, **SMALL)
    # zero step: the objective is constant, so the smoothed series converges
    # as soon as it can be compared
    _, report = train(corpus, cfg)
    assert report.stop_reason == "converged"
    assert report.iterations < 50


def test_log_line_format():
    corpus = _toy_corpus()
    cfg = TrainConfig(step_size=1e-4, batch_size=3, max_iterations=6,
                      log_every=2, **SMALL)
    stream = io.StringIO()
    train(corpus, cfg, log_stream=stream)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 3
    pattern = re.compile(
        r"^iter=(\d+) objective=-?\d+\.\d{6} alpha=\d+\.\d{6} "
        r"sigma2=\d+\.\d{6} p0=\d+\.\d{6}$"
    )
    assert [int(pattern.match(line).group(1)) for line in lines] == [2, 4, 6]


def test_init_params_updated_in_place():
    corpus = _toy_corpus()
    init = init_model_params(2, 3, 3, seed=7, sigma2=1.0)
    cfg = TrainConfig(step_size=1e-4, batch_size=2, max_iterations=5, **SMALL)
    params, _ = train(corpus, cfg, init_params=init)
    assert params is init


# --------------------------------------------------------------------- errors

def test_train_rejects_bad_corpora():
    with pytest.raises(ValueError):
        train([], TrainConfig(**SMALL))
    good = _toy_corpus(n=2, dim=2)
    mixed = [good[0], (EmbeddingSequence(np.zeros((4, 3))), LabelSequence((1,) * 4))]
    with pytest.raises(ValueError, match="dim"):
        train(mixed, TrainConfig(**SMALL))
    bad_labels = [(EmbeddingSequence(np.zeros((2, 1))), (1, 3))]
    with pytest.raises(ValueError):
        train(bad_labels, TrainConfig(**SMALL))
    with pytest.raises(ValueError, match="length mismatch"):
        train([(EmbeddingSequence(np.zeros((3, 1))), LabelSequence((1, 1)))],
              TrainConfig(**SMALL))


def test_train_rejects_oversized_batch():
    corpus = _toy_corpus(n=3)
    with pytest.raises(ValueError, match="batch size"):
        train(corpus, TrainConfig(batch_size=4, **SMALL))


def test_non_finite_gradient_names_the_utterance():
    # a coordinate of 1e200 overflows the squared residual, and the error
    # must say which utterance did it
    x_bad = np.zeros((3, 1))
    x_bad[2, 0] = 1e200
    corpus = [
        (EmbeddingSequence(np.zeros((3, 1))), LabelSequence((1, 1, 1))),
        (EmbeddingSequence(x_bad), LabelSequence((1, 1, 1))),
    ]
    cfg = TrainConfig(step_size=1e-4, batch_size=2, max_iterations=2, **SMALL)
    with np.errstate(over="ignore"), pytest.raises(TrainingError, match="explodes"):
        train(corpus, cfg, utt_ids=["fine", "explodes"])


def test_utt_ids_length_mismatch():
    corpus = _toy_corpus(n=2)
    with pytest.raises(ValueError):
        train(corpus, TrainConfig(batch_size=1, **SMALL), utt_ids=["only-one"])
