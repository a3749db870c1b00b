import math

import numpy as np
import pytest

from diarnn.decoder import (
    EXHAUSTIVE_MAX_LENGTH,
    DecodeConfig,
    advance_hypothesis,
    decode_beam,
    decode_greedy,
    empty_hypothesis,
    enumerate_canonical_labelings,
    exhaustive_decode,
    replay_hypothesis,
    step_scores,
)
from diarnn.model import init_model_params, sequence_log_joint
from diarnn.net import input_projection
from diarnn.sequences import EmbeddingSequence, LabelSequence

from helpers import random_canonical_labels, small_random_model, zero_net_model


def _random_instance(seed, length=6, dim=2):
    rng = np.random.default_rng(seed)
    params = small_random_model(
        input_dim=dim, seed=seed, sigma2=float(rng.uniform(0.3, 1.5)),
        alpha=float(rng.uniform(0.4, 2.0)), p0=float(rng.uniform(0.2, 0.9)),
    )
    X = EmbeddingSequence(rng.normal(size=(length, dim)))
    return X, params


# ------------------------------------------------------------------ step scores

def test_first_step_is_forced():
    params = zero_net_model(1)
    scores = step_scores(empty_hypothesis(params), np.array([0.7]), params).candidates()
    assert len(scores) == 1
    assert scores[0].label == 1
    assert scores[0].change is None
    # emission only: unit variance, mean 0
    assert scores[0].log_prob == pytest.approx(
        -0.5 * math.log(2 * math.pi) - 0.5 * 0.49, abs=1e-12
    )


def test_step_scores_four_option_case():
    # after (1,1,2,3,2,2) with equal emissions the four candidates split
    # 0.5 / 1/6 / 1/6 / 1/6
    params = zero_net_model(1, sigma2=1.0, alpha=1.0, p0=0.5)
    X = np.zeros((6, 1))
    hyp = replay_hypothesis(X, (1, 1, 2, 3, 2, 2), params)
    scores = step_scores(hyp, np.array([0.0]), params).candidates()
    g = -0.5 * math.log(2 * math.pi)
    assert [(s.label, s.change) for s in scores] == [(2, 0), (1, 1), (3, 1), (4, 1)]
    assert scores[0].log_prob == pytest.approx(math.log(0.5) + g, abs=1e-12)
    for s in scores[1:]:
        assert s.log_prob == pytest.approx(math.log(1.0 / 6.0) + g, abs=1e-12)


def test_step_scores_suppresses_new_speaker_at_cap():
    params = zero_net_model(1)
    X = np.zeros((3, 1))
    hyp = replay_hypothesis(X, (1, 2, 1), params)
    capped = step_scores(hyp, np.zeros(1), params, DecodeConfig(max_speakers=2)).candidates()
    assert [s.label for s in capped] == [1, 2]
    uncapped = step_scores(hyp, np.zeros(1), params).candidates()
    assert [s.label for s in uncapped] == [1, 2, 3]


# ----------------------------------------------------------------- greedy decode

def test_greedy_single_step():
    X, params = _random_instance(0, length=1)
    res = decode_greedy(X, params)
    assert tuple(res.labels) == (1,)
    assert res.step_candidate_counts == [1]


def test_greedy_prior_dominated_sticks_with_one_speaker():
    params = zero_net_model(2, p0=0.9, alpha=1.0)
    X = EmbeddingSequence(np.random.default_rng(1).normal(size=(10, 2)))
    res = decode_greedy(X, params)
    assert tuple(res.labels) == (1,) * 10


def test_greedy_exact_tie_prefers_continuation():
    # zero net, p0=0.5, K=1: continuing and opening both carry probability
    # exactly one half; the decoder must continue
    params = zero_net_model(1, p0=0.5, alpha=1.0)
    X = EmbeddingSequence(np.zeros((4, 1)))
    assert tuple(decode_greedy(X, params).labels) == (1, 1, 1, 1)


def test_greedy_exact_tie_prefers_lowest_existing_id():
    # with p0 tiny the decoder must switch at every step; at each switch an
    # existing speaker ties a new one exactly and the existing id wins
    params = zero_net_model(1, p0=0.01, alpha=1.0)
    X = EmbeddingSequence(np.zeros((4, 1)))
    res = decode_greedy(X, params)
    assert tuple(res.labels) == (1, 2, 1, 2)


def test_step_scores_exact_ties_listed_in_preference_order():
    # from (1,2,3): switch masses for speakers 1, 2, and the new 4 are all
    # 1/3, so their scores are bitwise identical; the decoder's stable sort
    # then resolves by list position, lowest existing id first
    params = zero_net_model(1, p0=0.2, alpha=1.0)
    X = np.zeros((3, 1))
    hyp = replay_hypothesis(X, (1, 2, 3), params)
    scores = step_scores(hyp, np.zeros(1), params).candidates()
    assert [(s.label, s.change) for s in scores] == [(3, 0), (1, 1), (2, 1), (4, 1)]
    assert scores[1].log_prob == scores[2].log_prob == scores[3].log_prob


def test_greedy_is_online():
    X, params = _random_instance(3, length=10)
    full = list(decode_greedy(X, params).labels)
    for t in range(1, 10):
        prefix = EmbeddingSequence(X.values[:t])
        assert list(decode_greedy(prefix, params).labels) == full[:t]


def test_greedy_respects_speaker_cap():
    for seed in range(5):
        X, params = _random_instance(seed, length=12)
        res = decode_greedy(X, params, DecodeConfig(max_speakers=2))
        assert res.labels.num_speakers <= 2
        assert max(res.step_candidate_counts) <= 3


def test_greedy_candidate_counts_follow_speaker_growth():
    X, params = _random_instance(11, length=8)
    res = decode_greedy(X, params)
    known = 0
    for t, count in enumerate(res.step_candidate_counts):
        if t == 0:
            assert count == 1
        else:
            assert count == known + 1
        known = max(res.labels[s] for s in range(t + 1))


# ------------------------------------------------------------------- beam decode

def test_beam_width_one_equals_greedy():
    for seed in range(30):
        X, params = _random_instance(seed)
        a = decode_greedy(X, params)
        b = decode_beam(X, params, DecodeConfig(beam_width=1))
        assert tuple(a.labels) == tuple(b.labels)
        assert a.log_prob == b.log_prob


def test_greedy_matches_first_best_candidate_at_each_step():
    # a different route to the greedy pick than decode_beam's width-1
    # argmax: walk each step's candidate list in preference order and
    # commit the first one whose running total is the best
    cases = [_random_instance(seed, length=12) for seed in range(20)]
    # exact ties on a zero net; at p0 = 1/3 the continuation of speaker 2
    # ties a switch back to speaker 1 from the third step on
    cases += [(EmbeddingSequence(np.zeros((8, 1))), zero_net_model(1, p0=p0, alpha=1.0))
              for p0 in (0.5, 0.01, 1 / 3)]
    for X, params in cases:
        for cap in (None, 2):
            config = DecodeConfig(max_speakers=cap)
            state = empty_hypothesis(params, cap)
            proj = input_projection(X.values, state.cell)
            for t, x_t in enumerate(X.values):
                running = state.log_prob[0]
                candidates = step_scores(state, x_t, params, config).candidates()
                best = max(candidates, key=lambda cand: running + cand.log_prob)
                state = advance_hypothesis(state, proj[t], [0], [best.label], [best.log_prob])
            res = decode_greedy(X, params, config)
            assert tuple(res.labels) == state.labels()
            assert res.log_prob == state.log_prob[0]


def test_beam_matches_exhaustive_at_full_width():
    for seed in range(10):
        X, params = _random_instance(seed, length=6)
        beam = decode_beam(X, params, DecodeConfig(beam_width=203))
        exact = exhaustive_decode(X, params)
        assert tuple(beam.labels) == tuple(exact.labels)
        assert beam.log_prob == pytest.approx(exact.log_prob, rel=1e-12)


def test_beam_matches_enumeration_oracle():
    # a different route to the argmax: score every canonical labeling with
    # the teacher-forced joint, keep those within the speaker cap, and take
    # the best, ties to the lexicographically smallest labeling
    for seed in range(20):
        X, params = _random_instance(seed, length=6)
        joints = {
            labs: sequence_log_joint(X, LabelSequence(labs), params)
            for labs in enumerate_canonical_labelings(6)
        }
        for cap in (None, 2):
            allowed = [labs for labs in joints if cap is None or max(labs) <= cap]
            best = min(allowed, key=lambda labs: (-joints[labs], labs))
            res = decode_beam(X, params, DecodeConfig(beam_width=203, max_speakers=cap))
            assert tuple(res.labels) == best
            assert res.log_prob == pytest.approx(joints[best], abs=1e-10)


def test_beam_log_prob_nondecreasing_in_width():
    for seed in range(10):
        X, params = _random_instance(seed, length=6)
        prev = -math.inf
        for width in (1, 2, 4, 8, 16, 203):
            lp = decode_beam(X, params, DecodeConfig(beam_width=width)).log_prob
            assert lp >= prev - 1e-12
            prev = lp


def test_beam_hypothesis_log_prob_matches_joint():
    for seed in range(10):
        X, params = _random_instance(seed, length=6)
        res = decode_beam(X, params, DecodeConfig(beam_width=8))
        joint = sequence_log_joint(X, res.labels, params)
        assert res.log_prob == pytest.approx(joint, abs=1e-10)


def test_beam_exact_tie_reproduces_greedy_order():
    # with all scores tied the beam must keep hypotheses in preference
    # order, so the winner is the all-continuation labeling
    params = zero_net_model(1, p0=0.5, alpha=1.0)
    X = EmbeddingSequence(np.zeros((3, 1)))
    res = decode_beam(X, params, DecodeConfig(beam_width=5))
    assert tuple(res.labels) == (1, 1, 1)


def test_look_ahead_bounds_revision_and_wide_window_is_pure_beam():
    for seed in range(5):
        X, params = _random_instance(seed, length=8)
        pure = decode_beam(X, params, DecodeConfig(beam_width=4))
        wide = decode_beam(X, params, DecodeConfig(beam_width=4, look_ahead=50))
        assert tuple(pure.labels) == tuple(wide.labels)
        tight = decode_beam(X, params, DecodeConfig(beam_width=4, look_ahead=1))
        # a committed-prefix beam still returns a coherent scored labeling
        assert tight.log_prob == pytest.approx(
            sequence_log_joint(X, tight.labels, params), abs=1e-10
        )
        assert tight.log_prob <= pure.log_prob + 1e-12


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beam_width=0)
    with pytest.raises(ValueError):
        DecodeConfig(max_speakers=0)
    with pytest.raises(ValueError):
        DecodeConfig(look_ahead=-1)


def test_decode_rejects_dim_mismatch():
    params = zero_net_model(3)
    with pytest.raises(ValueError):
        decode_greedy(EmbeddingSequence(np.zeros((4, 2))), params)


# ------------------------------------------------------------ exhaustive oracle

def test_enumeration_counts_are_bell_numbers():
    assert len(list(enumerate_canonical_labelings(1))) == 1
    assert len(list(enumerate_canonical_labelings(4))) == 15
    labelings = list(enumerate_canonical_labelings(6))
    assert len(labelings) == 203
    assert len(set(labelings)) == 203
    for labs in labelings:
        LabelSequence(labs)  # all canonical
    assert labelings[0] == (1,) * 6  # preference order starts at all-continuation


def test_exhaustive_guard():
    params = zero_net_model(1)
    X = EmbeddingSequence(np.zeros((EXHAUSTIVE_MAX_LENGTH + 1, 1)))
    with pytest.raises(ValueError, match="oracle guard"):
        exhaustive_decode(X, params)


def test_exhaustive_matches_enumeration_scoring():
    # independent argmax: enumerate every canonical labeling and score it
    # through the joint, instead of walking the decoder's DFS
    for seed in range(5):
        X, params = _random_instance(seed, length=5)
        best_labs, best_lp = None, -math.inf
        for labs in enumerate_canonical_labelings(5):
            lp = sequence_log_joint(X, LabelSequence(labs), params)
            if lp > best_lp:
                best_labs, best_lp = labs, lp
        res = exhaustive_decode(X, params)
        assert tuple(res.labels) == best_labs
        assert res.log_prob == pytest.approx(best_lp, abs=1e-10)


def test_exhaustive_tie_break_prefers_continuation():
    params = zero_net_model(1, p0=0.5, alpha=1.0)
    X = EmbeddingSequence(np.zeros((3, 1)))
    res = exhaustive_decode(X, params)
    # (1,1,1), (1,1,2), (1,2,2) all reach probability 1/4; DFS preference
    # order must keep the first
    assert tuple(res.labels) == (1, 1, 1)
    assert res.log_prob == pytest.approx(
        math.log(0.25) + 3 * -0.5 * math.log(2 * math.pi), abs=1e-12
    )


# ---------------------------------------------------------------------- replay

def test_replay_matches_joint_scorer():
    rng = np.random.default_rng(40)
    for seed in range(10):
        X, params = _random_instance(seed, length=7)
        labels = random_canonical_labels(rng, 7)
        hyp = replay_hypothesis(X, labels, params)
        assert hyp.log_prob[0] == pytest.approx(
            sequence_log_joint(X, labels, params), abs=1e-10
        )
        assert hyp.count.sum() == 7


def test_state_rows_share_nothing_they_write():
    # a state is never written once built: expanding one row into every
    # candidate, and replaying, leave the parent state's arrays as they were
    X, params = _random_instance(5, length=4)
    hyp = replay_hypothesis(X.values[:3], (1, 2, 1), params)
    before = [hyp.slots.copy(), *(a.copy() for a in hyp.blocks), hyp.log_prob.copy()]
    scores = step_scores(hyp, X.values[3], params)
    width = int(scores.width[0])
    labels = scores.preference()[0, :width]
    children = advance_hypothesis(
        hyp, input_projection(X.values[3], hyp.cell), np.zeros(width, dtype=int),
        labels, scores.log_prob[0, labels - 1],
    )
    assert [children.labels(row) for row in range(width)] == [
        (1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 1, 3)
    ]
    after = [hyp.slots, *hyp.blocks, hyp.log_prob]
    for old, new in zip(before, after):
        np.testing.assert_array_equal(old, new)


def test_replay_rejects_non_canonical_labels():
    X, params = _random_instance(1, length=3)
    with pytest.raises(ValueError, match="order-of-appearance"):
        replay_hypothesis(X, (1, 3, 1), params)
