import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diarnn.prior import (
    PriorParams,
    change_log_prob,
    estimate_p0,
    grad_alpha,
    sequence_assignment_log_prob,
)
from diarnn.sequences import (
    ChangeIndicators,
    LabelSequence,
    block_counts,
    derive_change_indicators,
)

from helpers import candidate_options, random_canonical_labels, sequential_assignment_oracle


def test_prior_params_validation():
    PriorParams(p0=0.0, alpha=1e-9)
    PriorParams(p0=1.0, alpha=100.0)
    with pytest.raises(ValueError):
        PriorParams(p0=-0.1, alpha=1.0)
    with pytest.raises(ValueError):
        PriorParams(p0=1.1, alpha=1.0)
    with pytest.raises(ValueError):
        PriorParams(p0=0.5, alpha=0.0)


# ----------------------------------------------------------------- change model

def test_change_log_prob_worked_values():
    assert change_log_prob(0, 0.5) == pytest.approx(math.log(0.5), abs=1e-12)
    assert change_log_prob(1, 1.0) == float("-inf")
    assert change_log_prob(0, 0.4) == pytest.approx(math.log(0.4), abs=1e-12)
    assert change_log_prob(0, 0.0) == float("-inf")


def test_change_log_prob_rejects_bad_p0():
    with pytest.raises(ValueError):
        change_log_prob(0, 1.5)
    with pytest.raises(ValueError):
        change_log_prob(0, -0.01)


# ------------------------------------------------------------------- candidates

def test_assignment_candidates_four_options():
    # state after (1,1,2,3,2,2): counts {1:1,2:2,3:1}, last=2, switch mass 2
    state = block_counts(LabelSequence((1, 1, 2, 3, 2, 2)))
    opts = candidate_options(state, alpha=1.0, p0=0.5)
    assert [(o.speaker, o.change) for o in opts] == [(2, 0), (1, 1), (3, 1), (4, 1)]
    by_speaker = {o.speaker: o.log_prior for o in opts}
    assert by_speaker[2] == pytest.approx(math.log(0.5), abs=1e-12)
    assert by_speaker[1] == pytest.approx(math.log(0.5 / 3.0), abs=1e-12)
    assert by_speaker[3] == pytest.approx(math.log(0.5 / 3.0), abs=1e-12)
    assert by_speaker[4] == pytest.approx(math.log(0.5 / 3.0), abs=1e-12)


def test_assignment_candidates_single_speaker_degenerate():
    # with one known speaker the switch mass is empty: new speaker gets all
    # of the change probability
    state = block_counts(LabelSequence((1, 1, 1)))
    opts = candidate_options(state, alpha=2.5, p0=0.3)
    assert [(o.speaker, o.change) for o in opts] == [(1, 0), (2, 1)]
    assert opts[0].log_prior == pytest.approx(math.log(0.3), abs=1e-12)
    assert opts[1].log_prior == pytest.approx(math.log(0.7), abs=1e-12)


def test_assignment_candidates_normalize():
    rng = np.random.default_rng(0)
    for _ in range(200):
        labs = random_canonical_labels(rng, int(rng.integers(1, 15)))
        state = block_counts(labs)
        alpha = float(rng.uniform(0.05, 5.0))
        p0 = float(rng.uniform(0.01, 0.99))
        opts = candidate_options(state, alpha=alpha, p0=p0)
        assert abs(sum(math.exp(o.log_prior) for o in opts) - 1.0) < 1e-12


def test_assignment_candidates_p0_edges():
    state = block_counts(LabelSequence((1, 2)))
    opts = candidate_options(state, alpha=1.0, p0=1.0)
    finite = [o for o in opts if o.log_prior > float("-inf")]
    assert [(o.speaker, o.change) for o in finite] == [(2, 0)]
    assert finite[0].log_prior == 0.0


# --------------------------------------------------------------- sequence prior

def test_sequence_assignment_log_prob_worked_values():
    labs = LabelSequence((1, 1, 2, 3, 2, 2))
    z = derive_change_indicators(labs)
    got = sequence_assignment_log_prob(labs, z, alpha=1.0)
    assert got == pytest.approx(math.log(1.0 / 6.0), abs=1e-12)

    ones = LabelSequence((1, 1, 1))
    assert sequence_assignment_log_prob(ones, derive_change_indicators(ones), 3.7) == 0.0

    two = LabelSequence((1, 2))
    assert sequence_assignment_log_prob(two, derive_change_indicators(two), 2.0) == 0.0


def test_sequence_assignment_log_prob_rejects_mismatch():
    labs = LabelSequence((1, 1, 2))
    with pytest.raises(ValueError):
        sequence_assignment_log_prob(labs, ChangeIndicators((1, 1)), 1.0)
    with pytest.raises(ValueError):
        sequence_assignment_log_prob(labs, ChangeIndicators((0,)), 1.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.3, 1.0, 3.0]), st.integers(1, 10))
def test_closed_form_matches_sequential_product(seed, alpha, length):
    labs = random_canonical_labels(np.random.default_rng(seed), length)
    z = derive_change_indicators(labs)
    closed = sequence_assignment_log_prob(labs, z, alpha)
    oracle = sequential_assignment_oracle(labs, alpha)
    assert closed == pytest.approx(oracle, rel=1e-10, abs=1e-12)


# --------------------------------------------------------------------- gradient

def test_grad_alpha_worked_values():
    labs = LabelSequence((1, 1, 2, 3, 2, 2))
    z = derive_change_indicators(labs)
    assert grad_alpha(labs, z, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-12)

    ones = LabelSequence((1, 1, 1))
    assert grad_alpha(ones, derive_change_indicators(ones), 5.0) == 0.0

    aba = LabelSequence((1, 2, 1))
    assert grad_alpha(aba, derive_change_indicators(aba), 2.0) == pytest.approx(
        -1.0 / 3.0, abs=1e-12
    )


def test_grad_alpha_rejects_nonpositive_alpha():
    labs = LabelSequence((1, 2))
    with pytest.raises(ValueError):
        grad_alpha(labs, derive_change_indicators(labs), 0.0)


def test_grad_alpha_matches_finite_difference():
    rng = np.random.default_rng(42)
    for _ in range(40):
        labs = random_canonical_labels(rng, int(rng.integers(2, 12)))
        z = derive_change_indicators(labs)
        alpha = float(rng.uniform(0.2, 4.0))
        h = 1e-6
        num = (
            sequence_assignment_log_prob(labs, z, alpha + h)
            - sequence_assignment_log_prob(labs, z, alpha - h)
        ) / (2 * h)
        assert grad_alpha(labs, z, alpha) == pytest.approx(num, rel=1e-6, abs=1e-9)


# -------------------------------------------------------------------- p0 MLE

def test_estimate_p0_worked_values():
    assert estimate_p0([LabelSequence((1, 1, 2, 3, 2, 2))]) == pytest.approx(0.4)
    assert estimate_p0([LabelSequence((1, 1, 1)), LabelSequence((1, 1))]) == 1.0
    assert estimate_p0([LabelSequence((1, 2, 1, 2))]) == 0.0


def test_estimate_p0_all_singletons_raises():
    with pytest.raises(ValueError, match="p0 undefined"):
        estimate_p0([LabelSequence((1,)), LabelSequence((1,))])


def test_estimate_p0_is_grid_argmax():
    # Bernoulli log-likelihood over a fine grid; the closed form must sit
    # within one grid step of the argmax
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(10):
        corpus = [
            random_canonical_labels(rng, int(rng.integers(2, 15)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        closed = estimate_p0(corpus)
        best, best_ll = None, -np.inf
        for p0 in grid:
            ll = 0.0
            for labs in corpus:
                for zt in derive_change_indicators(labs).z:
                    ll += change_log_prob(zt, float(p0))
            if ll > best_ll:
                best, best_ll = float(p0), ll
        assert abs(closed - best) <= 1e-3 + 1e-12
