"""Hand-worked cases for the benchmark's oracles.

Run with ``python3 -m pytest bench``.
"""

import math

import numpy as np
import pytest

from oracles import (
    emission_log_lik,
    frame_der,
    is_canonical,
    label_segments,
    prior_log_prob,
    replay_log_joint,
)

FIELDS = {
    "w_update": "hd", "u_update": "hh", "b_update": "h",
    "w_reset": "hd", "u_reset": "hh", "b_reset": "h",
    "w_cand": "hd", "u_cand": "hh", "b_cand": "h",
    "w_fc1": "fh", "b_fc1": "f", "w_fc2": "df", "b_fc2": "d",
}


def zero_weights(d, h=2, f=2):
    sizes = {"d": d, "h": h, "f": f}
    return {name: np.zeros(tuple(sizes[c] for c in shape)) for name, shape in FIELDS.items()}


def test_two_speaker_four_step_timeline_scores_half():
    ref = label_segments([1, 1, 2, 2], 1.0)
    hyp = label_segments([1, 1, 1, 1], 1.0)
    confusion, scored = frame_der(ref, hyp, collar=0.0)
    assert (confusion, scored) == (2.0, 4.0)


def test_identical_timelines_score_zero():
    ref = label_segments([1, 2, 2, 1, 3, 3, 3], 0.4)
    confusion, scored = frame_der(ref, ref, collar=0.25)
    assert confusion == 0.0 and scored > 0.0


def test_collar_and_overlap_are_removed():
    # speech [0, 2) by A and [1, 3) by B overlap on [1, 2); collar 0.25
    # removes [0, 0.25), [0.75, 1.25), [1.75, 2.25) and [2.75, 3).
    ref = [(0.0, 2.0, "A"), (1.0, 3.0, "B")]
    hyp = [(0.0, 3.0, "x")]
    confusion, scored = frame_der(ref, hyp, collar=0.25)
    assert scored == pytest.approx(1.0)   # [0.25, 0.75) and [2.25, 2.75)
    assert confusion == pytest.approx(0.5)  # x maps to one of A, B


def test_prior_product_by_hand():
    # stay (p0), open speaker 2 (1 - p0) * alpha / alpha, return to 1:
    # (1 - p0) * 1 / (1 + alpha)
    p0, alpha = 0.7, 2.0
    expected = math.log(p0) + 2 * math.log(1 - p0) + math.log(1 / (1 + alpha))
    assert prior_log_prob([1, 1, 2, 1], alpha, p0) == pytest.approx(expected)


def test_zero_net_emits_its_output_bias():
    # all weights zero: h stays 0, every head output is b_fc2, so every
    # step is scored around b_fc2 whatever the labels.
    w = zero_weights(d=2)
    w["b_fc2"] = np.array([1.0, -1.0])
    X = np.array([[1.0, -1.0], [2.0, -1.0], [1.0, 0.0]])
    sigma2 = 0.5
    expected = sum(
        -math.log(2 * math.pi * sigma2) - float((x - w["b_fc2"]) @ (x - w["b_fc2"])) / (2 * sigma2)
        for x in X
    )
    assert emission_log_lik(X, [1, 2, 1], w, sigma2) == pytest.approx(expected)


def test_running_mean_follows_each_speakers_own_inputs():
    # candidate state tanh(x) with the update gate pinned open and a head
    # that copies h: each speaker's mean is the running mean of
    # tanh(previous own observations), 0 for the first.
    d = 1
    w = zero_weights(d, h=1, f=1)
    w["b_update"][:] = 50.0
    w["w_cand"][:] = 1.0
    w["w_fc1"][:] = 1.0
    w["w_fc2"][:] = 1.0
    X = np.array([[0.5], [2.0], [1.0], [3.0]])
    labels = [1, 2, 1, 2]
    means = [0.0, 0.0, math.tanh(0.5) / 2, math.tanh(2.0) / 2]
    sigma2 = 1.0
    expected = sum(
        -0.5 * math.log(2 * math.pi) - (x[0] - m) ** 2 / 2 for x, m in zip(X, means)
    )
    got = replay_log_joint(X, labels, w, sigma2, alpha=1.0, p0=0.5)
    # open 2: (1 - p0); back to 1 and back to 2: (1 - p0) * 1 / (1 + alpha)
    prior = math.log(0.5) + 2 * math.log(0.5 * 0.5)
    assert got == pytest.approx(expected + prior, abs=1e-12)


def test_canonical_form():
    assert is_canonical([1, 1, 2, 1, 3])
    assert not is_canonical([2, 1])
    assert not is_canonical([1, 3])
