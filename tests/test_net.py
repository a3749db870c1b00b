import math

import numpy as np
import pytest

from diarnn.decoder import advance_hypothesis, empty_hypothesis
from diarnn.io import load_checkpoint, save_checkpoint
from diarnn.model import ModelParams
from diarnn.net import (
    EmissionParams,
    NetParams,
    TENSOR_FIELDS,
    _sigmoid,
    advance_thread,
    backward_gradients,
    forward_log_likelihood,
    gaussian_log_pdf,
    gru_forward,
    init_net_params,
    input_projection,
    output_forward,
    stack_net,
)
from diarnn.prior import PriorParams
from diarnn.sequences import EmbeddingSequence, LabelSequence

from helpers import (
    finite_diff,
    net_copy,
    per_speaker_ll_oracle,
    random_canonical_labels,
    scalar_gru_oracle,
    scalar_head_oracle,
    zero_net_params,
)

UNIT = EmissionParams(0.0)  # sigma2 = 1


# ------------------------------------------------------------------- gru cell

def test_gru_zero_weights_halves_update_gate():
    net = zero_net_params(1, hidden_dim=2, fc_dim=2)
    got = gru_forward(np.zeros(1), np.array([1.0, -2.0]), net)
    # u = 0.5 and the candidate is 0, so the state decays by half
    np.testing.assert_allclose(got, [0.5, -1.0], atol=1e-15)


def test_gru_saturated_update_gate_carries_state():
    net = zero_net_params(1, hidden_dim=3, fc_dim=2)
    net.b_update[:] = -40.0
    h = np.array([0.3, -1.2, 2.0])
    got = gru_forward(np.array([0.7]), h, net)
    np.testing.assert_allclose(got, h, atol=1e-12)


def test_gru_matches_scalar_expansion():
    rng = np.random.default_rng(123)
    for _ in range(10):
        net = init_net_params(2, 2, 2, rng)
        x = rng.normal(size=2)
        h = rng.normal(size=2)
        np.testing.assert_allclose(
            gru_forward(x, h, net), scalar_gru_oracle(x, h, net), rtol=1e-12
        )


def test_gru_shape_errors():
    net = zero_net_params(2, hidden_dim=3)
    with pytest.raises(ValueError):
        gru_forward(np.zeros(3), np.zeros(3), net)
    with pytest.raises(ValueError):
        gru_forward(np.zeros(2), np.zeros(2), net)


# ----------------------------------------------------------------- output head

def test_output_forward_zero_net():
    net = zero_net_params(3, hidden_dim=2, fc_dim=4)
    np.testing.assert_array_equal(output_forward(np.ones(2), net), np.zeros(3))


def test_output_forward_identity_layers_rectify_hidden():
    net = zero_net_params(2, hidden_dim=2, fc_dim=2)
    net.w_fc1[:] = np.eye(2)
    net.w_fc2[:] = np.eye(2)
    got = output_forward(np.array([-1.0, 2.0]), net)
    np.testing.assert_allclose(got, [0.0, 2.0], atol=1e-15)


def test_output_forward_matches_scalar_expansion():
    rng = np.random.default_rng(9)
    for relu_output in (False, True):
        net = init_net_params(3, 4, 5, rng, relu_output=relu_output)
        h = rng.normal(size=4)
        np.testing.assert_allclose(
            output_forward(h, net), scalar_head_oracle(h, net), rtol=1e-12
        )


def test_output_forward_final_layer_is_linear_by_default():
    # a rectified final layer could never emit negative coordinates
    rng = np.random.default_rng(33)
    seen_negative = False
    for _ in range(20):
        net = init_net_params(2, 3, 3, rng)
        if output_forward(rng.normal(size=3), net).min() < 0:
            seen_negative = True
            break
    assert seen_negative


def test_output_forward_relu_flag_clamps():
    rng = np.random.default_rng(33)
    for _ in range(20):
        net = init_net_params(2, 3, 3, rng, relu_output=True)
        assert output_forward(rng.normal(size=3), net).min() >= 0.0


# ------------------------------------------------------------------- gaussian

def test_gaussian_log_pdf_worked_values():
    assert gaussian_log_pdf(np.zeros(2), np.zeros(2), 1.0) == pytest.approx(
        -math.log(2 * math.pi), abs=1e-12
    )
    assert gaussian_log_pdf(np.array([1.0]), np.array([0.0]), 1.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi) - 0.5, abs=1e-12
    )


def test_gaussian_log_pdf_stacked_means_match_one_by_one():
    rng = np.random.default_rng(3)
    x = rng.normal(size=5)
    means = rng.normal(size=(3, 4, 5))
    got = gaussian_log_pdf(x, means, 0.7)
    assert got.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert got[i, j] == gaussian_log_pdf(x, means[i, j], 0.7)


def test_gaussian_log_pdf_errors():
    with pytest.raises(ValueError):
        gaussian_log_pdf(np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        gaussian_log_pdf(np.zeros(2), np.zeros(3), 1.0)


# ------------------------------------------------------------------ parameters

def test_net_params_shape_validation():
    with pytest.raises(ValueError, match="u_update"):
        NetParams(
            w_update=np.zeros((2, 1)), u_update=np.zeros((2, 3)), b_update=np.zeros(2),
            w_reset=np.zeros((2, 1)), u_reset=np.zeros((2, 2)), b_reset=np.zeros(2),
            w_cand=np.zeros((2, 1)), u_cand=np.zeros((2, 2)), b_cand=np.zeros(2),
            w_fc1=np.zeros((2, 2)), b_fc1=np.zeros(2),
            w_fc2=np.zeros((1, 2)), b_fc2=np.zeros(1),
        )


def test_net_params_rejects_non_finite():
    net = zero_net_params(1, hidden_dim=2, fc_dim=2)
    tensors = {name: np.array(getattr(net, name)) for name in TENSOR_FIELDS}
    tensors["w_cand"][0, 0] = np.nan
    with pytest.raises(ValueError, match="w_cand"):
        NetParams(**tensors)


def test_init_net_params_deterministic_and_bounded():
    a = init_net_params(3, 5, 4, np.random.default_rng(17))
    b = init_net_params(3, 5, 4, np.random.default_rng(17))
    for name in TENSOR_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert np.abs(a.w_update).max() <= 1.0 / math.sqrt(3)
    assert np.abs(a.u_update).max() <= 1.0 / math.sqrt(5)
    assert np.abs(a.w_fc1).max() <= 1.0 / math.sqrt(5)
    assert np.abs(a.w_fc2).max() <= 1.0 / math.sqrt(4)


def test_net_grads_arithmetic():
    net = zero_net_params(2, hidden_dim=2, fc_dim=2)
    g = net.zeros_like()
    h = net.zeros_like()
    h.b_update[:] = [1.0, 2.0]
    g.flat += h.flat
    g.flat *= 0.5
    np.testing.assert_allclose(g.b_update, [0.5, 1.0])
    assert float(g.flat @ g.flat) == pytest.approx(1.25)
    assert np.isfinite(g.flat).all()
    g.b_cand[0] = np.inf
    assert not np.isfinite(g.flat).all()


def test_net_params_tensors_are_views_into_flat(tmp_path):
    net = init_net_params(2, 3, 4, np.random.default_rng(5))
    np.testing.assert_array_equal(
        net.flat, np.concatenate([getattr(net, name).ravel() for name in TENSOR_FIELDS])
    )
    # writes through tensor_dict() and through an attribute both reach flat
    before_w_cand = sum(
        getattr(net, name).size for name in TENSOR_FIELDS[: TENSOR_FIELDS.index("w_cand")]
    )
    net.tensor_dict()["w_cand"][1, 0] = 7.0
    assert net.flat[before_w_cand + 1 * net.input_dim] == 7.0
    net.b_fc2[-1] = -3.0
    assert net.flat[-1] == -3.0

    for other in (net.copy(), net.zeros_like()):
        assert not np.shares_memory(other.flat, net.flat)
        for name in TENSOR_FIELDS:
            assert not np.shares_memory(getattr(other, name), net.flat)
            assert np.shares_memory(getattr(other, name), other.flat)
    np.testing.assert_array_equal(net.copy().flat, net.flat)
    np.testing.assert_array_equal(net.zeros_like().flat, 0.0)

    path = tmp_path / "ckpt.json"
    save_checkpoint(path, ModelParams(net, UNIT, PriorParams(p0=0.5, alpha=1.0)))
    loaded = load_checkpoint(path).net
    rebuilt = NetParams(**loaded.tensor_dict(), relu_output=loaded.relu_output)
    for back in (loaded, rebuilt):
        assert back.flat.tobytes() == net.flat.tobytes()


# ------------------------------------------------------------------ likelihood

def test_forward_ll_single_step_zero_net():
    net = zero_net_params(1)
    ll, mus = forward_log_likelihood(
        EmbeddingSequence(np.zeros((1, 1))), LabelSequence((1,)), net, UNIT
    )
    assert ll == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
    np.testing.assert_array_equal(mus, np.zeros((1, 1)))


def test_forward_ll_two_steps_zero_net():
    net = zero_net_params(1)
    X = EmbeddingSequence(np.array([[0.0], [1.0]]))
    ll, _ = forward_log_likelihood(X, LabelSequence((1, 1)), net, UNIT)
    assert ll == pytest.approx(-math.log(2 * math.pi) - 0.5, abs=1e-12)


def test_forward_ll_zero_net_ignores_labels():
    rng = np.random.default_rng(2)
    net = zero_net_params(3)
    X = EmbeddingSequence(rng.normal(size=(7, 3)))
    lls = set()
    for labels in [(1,) * 7, (1, 2, 1, 2, 1, 2, 1), (1, 1, 2, 2, 3, 3, 3)]:
        ll, _ = forward_log_likelihood(X, LabelSequence(labels), net, UNIT)
        lls.add(round(ll, 12))
    assert len(lls) == 1


def test_forward_ll_matches_per_speaker_replay():
    rng = np.random.default_rng(4)
    for seed in range(10):
        net = init_net_params(3, 4, 4, np.random.default_rng(seed))
        labels = random_canonical_labels(rng, 12)
        X = EmbeddingSequence(rng.normal(size=(12, 3)))
        em = EmissionParams(float(rng.uniform(-1.0, 0.5)))
        ll, _ = forward_log_likelihood(X, labels, net, em)
        assert ll == pytest.approx(per_speaker_ll_oracle(X, labels, net, em)[0], rel=1e-12)


def test_forward_ll_running_mean_includes_current_output():
    # with one speaker, mu_t must be the average of the first t head
    # outputs, the t-th included
    rng = np.random.default_rng(11)
    net = init_net_params(2, 3, 3, rng)
    x = rng.normal(size=(5, 2))
    _, mus = forward_log_likelihood(
        EmbeddingSequence(x), LabelSequence((1,) * 5, ), net, UNIT
    )
    h = np.zeros(3)
    prev = np.zeros(2)
    outputs = []
    for t in range(5):
        h = gru_forward(prev, h, net)
        outputs.append(output_forward(h, net))
        np.testing.assert_allclose(mus[t], np.mean(outputs, axis=0), rtol=1e-12)
        prev = x[t]


def test_forward_ll_causality():
    # changing x_t leaves every mu_s with s <= t untouched
    rng = np.random.default_rng(5)
    net = init_net_params(2, 4, 4, rng)
    labels = LabelSequence((1, 2, 1, 1, 2, 3, 1, 2))
    x = rng.normal(size=(8, 2))
    _, mus = forward_log_likelihood(EmbeddingSequence(x), labels, net, UNIT)
    for t in range(8):
        bumped = x.copy()
        bumped[t] += 10.0
        _, mus2 = forward_log_likelihood(EmbeddingSequence(bumped), labels, net, UNIT)
        np.testing.assert_array_equal(mus2[: t + 1], mus[: t + 1])


def test_forward_ll_grouping_pattern_only():
    # a non-canonical labeling with the same grouping scores identically
    rng = np.random.default_rng(8)
    net = init_net_params(2, 3, 3, rng)
    x = rng.normal(size=(5, 2))
    ll_canon, _ = forward_log_likelihood(x, (1, 2, 1, 2, 2), net, UNIT)
    ll_swapped, _ = forward_log_likelihood(x, (2, 1, 2, 1, 1), net, UNIT)
    assert ll_canon == pytest.approx(ll_swapped, rel=1e-15)


def test_forward_ll_splitting_independent_speakers():
    # an interleaved two-speaker utterance scores the same as its two
    # single-speaker subsequences scored separately
    rng = np.random.default_rng(14)
    net = init_net_params(3, 4, 4, rng)
    em = EmissionParams(math.log(0.7))
    xa = rng.normal(size=(4, 3))
    xb = rng.normal(size=(3, 3))
    inter = np.array([xa[0], xb[0], xa[1], xa[2], xb[1], xb[2], xa[3]])
    labels = LabelSequence((1, 2, 1, 1, 2, 2, 1))
    ll, _ = forward_log_likelihood(EmbeddingSequence(inter), labels, net, em)
    ll_a, _ = forward_log_likelihood(EmbeddingSequence(xa), LabelSequence((1,) * 4), net, em)
    ll_b, _ = forward_log_likelihood(EmbeddingSequence(xb), LabelSequence((1,) * 3), net, em)
    assert ll == pytest.approx(ll_a + ll_b, rel=1e-12)


def _ragged_labeling(rng):
    """A non-canonical labeling with gaps in its ids: threads of 30, 17, 8,
    8, 3, 1 and 1 steps, interleaved at random."""
    lengths = {7: 30, 3: 17, 12: 8, 40: 8, 5: 3, 9: 1, 2: 1}
    labels = [speaker for speaker, n in lengths.items() for _ in range(n)]
    rng.shuffle(labels)
    return labels


@pytest.mark.parametrize("relu_output", [False, True])
def test_forward_ll_ragged_labeling_matches_per_speaker_replay(relu_output):
    rng = np.random.default_rng(31)
    net = init_net_params(3, 4, 5, rng, relu_output=relu_output)
    labels = _ragged_labeling(rng)
    X = EmbeddingSequence(rng.normal(size=(len(labels), 3)))
    em = EmissionParams(-0.4)
    ll, mus = forward_log_likelihood(X, labels, net, em)
    ll_oracle, mus_oracle = per_speaker_ll_oracle(X, labels, net, em)
    assert ll == pytest.approx(ll_oracle, rel=1e-12)
    np.testing.assert_allclose(mus, mus_oracle, rtol=1e-12, atol=1e-14)


def test_forward_ll_length_mismatch():
    net = zero_net_params(2)
    with pytest.raises(ValueError):
        forward_log_likelihood(np.zeros((3, 2)), LabelSequence((1, 1)), net, UNIT)


# ------------------------------------------------------------------- gradients

def _fd_check(seed, relu_output=False, places=4, labeling=None):
    rng = np.random.default_rng(seed)
    net = init_net_params(3, 4, 4, rng, relu_output=relu_output)
    labels = random_canonical_labels(rng, 6, max_speakers=3) if labeling is None else labeling(rng)
    X = EmbeddingSequence(rng.normal(size=(len(labels), 3)))
    em = EmissionParams(float(rng.uniform(-0.5, 0.5)))
    res = backward_gradients(X, labels, net, em)

    probe = net_copy(net)
    for name in TENSOR_FIELDS:
        arr = getattr(probe, name)
        num = finite_diff(
            lambda: forward_log_likelihood(X, labels, probe, em)[0], arr, step=1e-5
        )
        np.testing.assert_allclose(
            getattr(res.net, name), num, rtol=10.0 ** -places, atol=1e-7,
            err_msg=f"{name} (seed {seed})",
        )
    h = 1e-5
    num = (
        forward_log_likelihood(X, labels, net, EmissionParams(em.log_sigma2 + h))[0]
        - forward_log_likelihood(X, labels, net, EmissionParams(em.log_sigma2 - h))[0]
    ) / (2 * h)
    assert res.log_sigma2 == pytest.approx(num, rel=10.0 ** -places, abs=1e-7)


@pytest.mark.parametrize("seed", range(6))
def test_gradients_match_finite_differences(seed):
    _fd_check(seed)


def test_gradients_match_finite_differences_relu_head():
    _fd_check(101, relu_output=True)


@pytest.mark.parametrize("relu_output", [False, True])
def test_gradients_match_finite_differences_ragged_labeling(relu_output):
    _fd_check(202, relu_output=relu_output, labeling=_ragged_labeling)


def test_grad_log_sigma2_closed_form_example():
    net = zero_net_params(1)
    X = EmbeddingSequence(np.array([[0.0], [1.0]]))
    res = backward_gradients(X, LabelSequence((1, 1)), net, UNIT)
    assert res.log_sigma2 == pytest.approx(-0.5, abs=1e-12)


def test_unused_tensors_get_exact_zero_gradient_at_t1():
    # a single step consumes x=0, h=0: the reset path and every matrix
    # multiplying x or h cannot influence the likelihood
    rng = np.random.default_rng(3)
    net = init_net_params(2, 3, 3, rng)
    X = EmbeddingSequence(rng.normal(size=(1, 2)))
    res = backward_gradients(X, LabelSequence((1,)), net, UNIT)
    for name in ("w_reset", "u_reset", "b_reset", "w_update", "u_update",
                  "w_cand", "u_cand"):
        np.testing.assert_array_equal(getattr(res.net, name), 0.0, err_msg=name)
    assert np.any(res.net.b_update != 0.0)


def test_backward_reports_forward_ll():
    rng = np.random.default_rng(21)
    net = init_net_params(2, 3, 3, rng)
    labels = random_canonical_labels(rng, 9)
    X = EmbeddingSequence(rng.normal(size=(9, 2)))
    em = EmissionParams(-0.3)
    res = backward_gradients(X, labels, net, em)
    ll, _ = forward_log_likelihood(X, labels, net, em)
    assert res.log_likelihood == pytest.approx(ll, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_sigmoid_saturates_quietly():
    low, high = _sigmoid(np.array([-800.0, 800.0]))
    assert np.isfinite(low) and 0.0 <= low < 1e-300
    assert high == 1.0
    v = np.linspace(-700.0, 700.0, 20001)
    np.testing.assert_array_equal(_sigmoid(v), 1.0 / (1.0 + np.exp(-v)))


def test_advance_thread_rows_match_one_thread_at_a_time():
    rng = np.random.default_rng(8)
    net = init_net_params(3, 5, 4, rng)
    cell = stack_net(net)
    x = rng.normal(size=3)
    states = rng.normal(size=(6, 5))
    hidden, output = advance_thread(input_projection(x, cell), states, cell)
    for row, h in enumerate(states):
        one = gru_forward(x, h, net)
        np.testing.assert_allclose(hidden[row], one, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(output[row], output_forward(one, net), rtol=1e-13, atol=1e-15)
    # one thread alone takes the same bits as the single-thread cell
    hidden, output = advance_thread(input_projection(x, cell), states[:1], cell)
    np.testing.assert_array_equal(hidden[0], gru_forward(x, states[0], net))
    np.testing.assert_array_equal(output[0], output_forward(hidden[0], net))


# --------------------------------------------------------------------- threads

def test_thread_lifecycle():
    # a speaker's slot in the decoder state starts as the fresh thread and
    # then takes the running mean of its head outputs
    rng = np.random.default_rng(6)
    net = init_net_params(2, 3, 3, rng)
    state = empty_hypothesis(ModelParams(net, UNIT, PriorParams(p0=0.5, alpha=1.0)))
    assert state.count[0, 0] == 0
    h1 = gru_forward(np.zeros(2), np.zeros(3), net)
    np.testing.assert_allclose(state.hidden[0, 0], h1, rtol=1e-15)
    np.testing.assert_allclose(state.mean[0, 0], output_forward(h1, net), rtol=1e-15)

    x = rng.normal(size=2)
    advanced = advance_hypothesis(state, input_projection(x, state.cell), [0], [1], [0.0])
    assert advanced.count[0, 0] == 1
    h2 = gru_forward(x, h1, net)
    m1, m2 = output_forward(h1, net), output_forward(h2, net)
    np.testing.assert_allclose(advanced.mean[0, 0], (m1 + m2) / 2, rtol=1e-14)
