"""Shared test utilities: independent oracles and random instance builders.

The oracles here deliberately re-derive quantities through a different
route than the library (sequential products instead of closed forms,
per-speaker replay instead of interleaved threading, finite differences
instead of reverse mode) so agreement is evidence, not tautology.
"""

import math

import numpy as np

from diarnn.model import ModelParams, init_model_params
from diarnn.net import EmissionParams, NetParams, TENSOR_FIELDS
from diarnn.prior import PriorParams
from diarnn.sequences import LabelSequence


def random_canonical_labels(rng, length, max_speakers=None):
    """Random order-of-appearance label sequence, mildly sticky so runs of
    length > 1 actually occur."""
    labels = [1]
    known = 1
    for _ in range(length - 1):
        if rng.random() < 0.5:
            labels.append(labels[-1])
            continue
        cap = known + 1 if max_speakers is None else min(known + 1, max_speakers)
        labels.append(int(rng.integers(1, cap + 1)))
        known = max(known, labels[-1])
    return LabelSequence(tuple(labels))


def zero_net_params(input_dim, hidden_dim=3, fc_dim=3):
    """All-zero weights: every thread output is the zero vector, so every
    emission mean is 0 and likelihoods ignore the labeling."""
    h, f, d = hidden_dim, fc_dim, input_dim
    return NetParams(
        w_update=np.zeros((h, d)), u_update=np.zeros((h, h)), b_update=np.zeros(h),
        w_reset=np.zeros((h, d)), u_reset=np.zeros((h, h)), b_reset=np.zeros(h),
        w_cand=np.zeros((h, d)), u_cand=np.zeros((h, h)), b_cand=np.zeros(h),
        w_fc1=np.zeros((f, h)), b_fc1=np.zeros(f),
        w_fc2=np.zeros((d, f)), b_fc2=np.zeros(d),
    )


def zero_net_model(input_dim, sigma2=1.0, alpha=1.0, p0=0.5):
    return ModelParams(
        zero_net_params(input_dim),
        EmissionParams(math.log(sigma2)),
        PriorParams(p0=p0, alpha=alpha),
    )


def small_random_model(input_dim=3, hidden_dim=4, fc_dim=4, seed=0, sigma2=1.0,
                       alpha=1.0, p0=0.5):
    return init_model_params(
        input_dim, hidden_dim, fc_dim, seed=seed, sigma2=sigma2, alpha=alpha, p0=p0
    )


def scalar_gru_oracle(x, h, net):
    """Elementwise expansion of the gate arithmetic with plain Python floats.
    No vectorized ops, so a broadcasting mistake in the library cannot hide."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    hd = net.hidden_dim
    d = net.input_dim
    out = []
    for i in range(hd):
        au = net.b_update[i] + sum(net.w_update[i, j] * x[j] for j in range(d))
        au += sum(net.u_update[i, j] * h[j] for j in range(hd))
        ar = net.b_reset[i] + sum(net.w_reset[i, j] * x[j] for j in range(d))
        ar += sum(net.u_reset[i, j] * h[j] for j in range(hd))
        u = sig(au)
        r = sig(ar)
        # the reset gate of every coordinate feeds this row's candidate
        ac = net.b_cand[i] + sum(net.w_cand[i, j] * x[j] for j in range(d))
        for j in range(hd):
            arj = net.b_reset[j] + sum(net.w_reset[j, k] * x[k] for k in range(d))
            arj += sum(net.u_reset[j, k] * h[k] for k in range(hd))
            ac += net.u_cand[i, j] * sig(arj) * h[j]
        c = math.tanh(ac)
        out.append((1.0 - u) * h[i] + u * c)
    return np.array(out)


def scalar_head_oracle(h, net):
    f = net.fc_dim
    d = net.input_dim
    hd = net.hidden_dim
    a1 = []
    for i in range(f):
        v = net.b_fc1[i] + sum(net.w_fc1[i, j] * h[j] for j in range(hd))
        a1.append(max(v, 0.0))
    m = []
    for i in range(d):
        v = net.b_fc2[i] + sum(net.w_fc2[i, j] * a1[j] for j in range(f))
        m.append(max(v, 0.0) if net.relu_output else v)
    return np.array(m)


def per_speaker_ll_oracle(X, labels, net, em):
    """Log-likelihood and per-step emission means recomputed speaker by
    speaker instead of interleaved.

    For each speaker, replay its own observation subsequence through a
    private recurrence, take running means of the head outputs, and score
    each observation where it sits in the original order.  Agreement with
    the interleaved implementation checks that threads never interact.
    Returns (total, (T, d) means in time order).
    """
    from diarnn.net import gru_forward, output_forward, gaussian_log_pdf

    x = np.asarray(X.values if hasattr(X, "values") else X, dtype=np.float64)
    labs = list(labels)
    total = 0.0
    mus = np.empty_like(x)
    for speaker in sorted(set(labs)):
        positions = [t for t, lab in enumerate(labs) if lab == speaker]
        h = np.zeros(net.hidden_dim)
        prev_x = np.zeros(net.input_dim)
        outputs = []
        for t in positions:
            h = gru_forward(prev_x, h, net)
            outputs.append(output_forward(h, net))
            mus[t] = np.mean(outputs, axis=0)
            total += gaussian_log_pdf(x[t], mus[t], em.sigma2)
            prev_x = x[t]
    return total, mus


def sequential_assignment_oracle(labels, alpha):
    """Per-step product of the switch probabilities, with block counts
    recomputed from scratch at every step."""
    labs = list(labels)
    total = 0.0
    for t in range(1, len(labs)):
        prev, cur = labs[t - 1], labs[t]
        if cur == prev:
            continue
        counts = {}
        for i in range(t):
            if i == 0 or labs[i] != labs[i - 1]:
                counts[labs[i]] = counts.get(labs[i], 0) + 1
        denom = sum(v for k, v in counts.items() if k != prev) + alpha
        mass = alpha if cur not in counts else float(counts[cur])
        total += math.log(mass / denom)
    return total


def finite_diff(f, arr, step=1e-6):
    """Central finite differences of a scalar function of one array,
    evaluated entry by entry (arr is restored afterwards)."""
    arr = np.asarray(arr)
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        up = f()
        arr[idx] = orig - step
        down = f()
        arr[idx] = orig
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def net_copy(net):
    """Independent deep copy, so finite differencing can perturb entries
    without touching the original parameters."""
    tensors = {name: np.array(getattr(net, name)) for name in TENSOR_FIELDS}
    return NetParams(**tensors, relu_output=net.relu_output)
