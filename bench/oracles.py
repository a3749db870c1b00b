"""Reference computations the benchmark checks diarnn's outputs against.

Both are written from the model's and the metric's definitions, not from
diarnn's code paths, and take plain arrays, label lists and
(start, end, speaker) tuples, so no diarnn type is involved:

- ``replay_log_joint`` scores a labelling by replaying each speaker's own
  thread in isolation (its GRU steps, the running mean of its head
  outputs, the Gaussian around that mean) and multiplying the label prior
  out step by step, where diarnn interleaves the threads and uses a
  closed form for the prior.
- ``frame_der`` samples the timelines on a grid that holds every segment
  and collar boundary and maps speakers with the Hungarian method on frame
  counts, where diarnn cuts and intersects intervals.
"""

import math
from functools import reduce

import numpy as np
from scipy.optimize import linear_sum_assignment

LOG_2PI = math.log(2.0 * math.pi)


def _sigmoid(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def cell(w, x, h):
    """u = s(Wu x + Uu h + bu), r = s(Wr x + Ur h + br),
    c = tanh(Wc x + Uc (r h) + bc), h' = (1 - u) h + u c."""
    u = _sigmoid(w["w_update"] @ x + w["u_update"] @ h + w["b_update"])
    r = _sigmoid(w["w_reset"] @ x + w["u_reset"] @ h + w["b_reset"])
    c = np.tanh(w["w_cand"] @ x + w["u_cand"] @ (r * h) + w["b_cand"])
    return h + u * (c - h)


def head(w, h, relu_output):
    m = w["w_fc2"] @ np.maximum(w["w_fc1"] @ h + w["b_fc1"], 0.0) + w["b_fc2"]
    return np.maximum(m, 0.0) if relu_output else m


def prior_log_prob(labels, alpha, p0):
    """Label prior as a product of per-step factors: p0 to stay; 1 - p0 to
    change, times (blocks owned by the target speaker, or alpha for a new
    one) over (blocks owned by everyone but the speaker left, plus alpha)."""
    blocks = {}
    total = 0.0
    prev = None
    for lab in labels:
        if prev is None:
            blocks[lab] = 1
        elif lab == prev:
            total += math.log(p0)
        else:
            mass = sum(blocks.values()) - blocks[prev]
            weight = blocks.get(lab, alpha)
            total += math.log1p(-p0) + math.log(weight / (mass + alpha))
            blocks[lab] = blocks.get(lab, 0) + 1
        prev = lab
    return total


def emission_log_lik(X, labels, w, sigma2, relu_output=False):
    """Sum over speakers of that speaker's own thread replayed alone: the
    cell input is the speaker's previous observation (zero at its first
    step), and step n is scored around the mean of its first n head
    outputs."""
    X = np.asarray(X, dtype=np.float64)
    labels = list(labels)
    dim = X.shape[1]
    hidden = w["u_update"].shape[0]
    const = -0.5 * dim * (LOG_2PI + math.log(sigma2))
    total = 0.0
    for speaker in sorted(set(labels)):
        h = np.zeros(hidden)
        x_prev = np.zeros(dim)
        head_sum = np.zeros(dim)
        steps = [t for t, lab in enumerate(labels) if lab == speaker]
        for n, t in enumerate(steps, start=1):
            h = cell(w, x_prev, h)
            head_sum = head_sum + head(w, h, relu_output)
            resid = X[t] - head_sum / n
            total += const - float(resid @ resid) / (2.0 * sigma2)
            x_prev = X[t]
    return total


def replay_log_joint(X, labels, w, sigma2, alpha, p0, relu_output=False):
    """Full log joint of (embeddings, labels): emissions plus label prior."""
    return emission_log_lik(X, labels, w, sigma2, relu_output) + prior_log_prob(
        labels, alpha, p0
    )


def is_canonical(labels) -> bool:
    """First label 1, every later label at most one past the largest before it."""
    top = 0
    for lab in labels:
        if not 1 <= lab <= top + 1:
            return False
        top = max(top, lab)
    return top >= 1


def label_segments(labels, segment_duration):
    """(start, end, speaker) runs of a label sequence on a fixed step grid."""
    labels = list(labels)
    out = []
    begin = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[begin]:
            out.append((begin * segment_duration, i * segment_duration, str(labels[begin])))
            begin = i
    return out


def _micros(seconds) -> int:
    return int(round(seconds * 1e6))


def frame_der(ref, hyp, collar):
    """(confusion seconds, scored seconds) of ``hyp`` against ``ref``, both
    lists of (start, end, speaker).

    Frames are one grid step wide, where the step is the greatest common
    divisor, in microseconds, of every segment boundary and every boundary
    shifted by the collar, so no frame straddles a boundary.  A frame is
    scored when reference speech is in it, it is not within the collar of
    a reference boundary and no two reference speakers share it.
    """
    c = _micros(collar)
    ref_us = [(_micros(s), _micros(e), spk) for s, e, spk in ref]
    hyp_us = [(_micros(s), _micros(e), spk) for s, e, spk in hyp]
    points = {v for s, e, _ in ref_us + hyp_us for v in (s, e)}
    points |= {max(v + sign * c, 0) for s, e, _ in ref_us for v in (s, e) for sign in (-1, 1)}
    step = reduce(math.gcd, points, 0)
    if step == 0:
        raise ValueError("timelines without a positive boundary")
    frames = max(points) // step

    def activity(segments):
        speakers = sorted({spk for _, _, spk in segments})
        act = np.zeros((len(speakers), frames), dtype=bool)
        row = {spk: i for i, spk in enumerate(speakers)}
        for s, e, spk in segments:
            act[row[spk], s // step : e // step] = True
        return act

    ref_act = activity(ref_us)
    hyp_act = activity(hyp_us)
    n_ref = ref_act.sum(axis=0)
    scored = n_ref > 0
    for s, e, _ in ref_us:
        for b in (s, e):
            scored[max(b - c, 0) // step : (b + c) // step] = False
    scored &= n_ref < 2
    n_hyp = hyp_act.sum(axis=0)
    cooc = hyp_act[:, scored].astype(np.int64) @ ref_act[:, scored].T.astype(np.int64)
    matched = 0
    if cooc.size:
        rows, cols = linear_sum_assignment(cooc, maximize=True)
        matched = int(cooc[rows, cols].sum())
    both = int(np.minimum(n_ref, n_hyp)[scored].sum())
    seconds = step / 1e6
    return (both - matched) * seconds, int(n_ref[scored].sum()) * seconds
