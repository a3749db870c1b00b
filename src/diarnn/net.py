"""Emission side of the model.

A single GRU cell with a two-layer head is shared by every speaker, but
each speaker owns a private state thread that advances only on that
speaker's segments, so the threads interleave along the utterance.  The
cell update for the speaker active at step t consumes that speaker's
previous observation and previous hidden state, never the current
observation; a speaker's first step starts from a zero observation and a
zero state.  The observation at step t is modeled as a spherical Gaussian
around the running mean of the speaker's head outputs up to and including
step t, which keeps the mean a function of strictly past observations.

Gate convention (fixed; checkpoints record and verify it):

    u  = sigmoid(Wu x + Uu h + bu)        update gate
    r  = sigmoid(Wr x + Ur h + br)        reset gate
    c  = tanh(Wc x + Uc (r * h) + bc)     candidate state
    h' = (1 - u) * h + u * c

Head: m = W2 relu(W1 h' + b1) + b2.  The final layer is linear by
default; ``relu_output`` rectifies it as well, which confines emission
means to the nonnegative orthant and is only useful when the embeddings
live there too.

Parameters live in one float64 vector, ``NetParams.flat``: the 13 tensors
of TENSOR_FIELDS, each flattened row-major, laid end to end in that order.
Each named tensor is a reshaped view into it, so a write through either
is seen by the other.  A gradient has the same type and layout, which
makes accumulation, clipping and the update one vector operation each.

Online use (decoding, sampling) advances one thread at a time through
``advance_thread``.  Teacher-forced scoring and its gradients, where the
labels are fixed, run speaker-major instead: the steps are grouped into
speaker threads sorted longest first, so the threads still running at
thread step j are a prefix of that order, and the pass advances all of
them together as one (n_j, H) block per thread step.  Threads never
interact, so a whole minibatch is one such pass.  The packed pass sums in
another order than the step-by-step one and agrees with it to rounding.

All computation is float64.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sequences import EmbeddingSequence

__all__ = [
    "GATE_CONVENTION",
    "TENSOR_FIELDS",
    "NetParams",
    "EmissionParams",
    "SpeakerThread",
    "GradientResult",
    "gru_forward",
    "output_forward",
    "gaussian_log_pdf",
    "fresh_thread",
    "advance_thread",
    "thread_emission_mean",
    "forward_log_likelihood",
    "backward_gradients",
    "init_net_params",
]

GATE_CONVENTION = (
    "u=sigmoid(Wu@x+Uu@h+bu);r=sigmoid(Wr@x+Ur@h+br);"
    "c=tanh(Wc@x+Uc@(r*h)+bc);h_next=(1-u)*h+u*c;"
    "head=W2@relu(W1@h_next+b1)+b2"
)


def _layout(dim: int, hidden: int, fc: int):
    """(name, shape, initialization fan-in) of every tensor, in flat order.

    Cell input weights take their fan-in from the input; recurrent weights
    and cell biases from the hidden width; head tensors from their own
    layer's input.
    """
    return (
        ("w_update", (hidden, dim), dim),
        ("u_update", (hidden, hidden), hidden),
        ("b_update", (hidden,), hidden),
        ("w_reset", (hidden, dim), dim),
        ("u_reset", (hidden, hidden), hidden),
        ("b_reset", (hidden,), hidden),
        ("w_cand", (hidden, dim), dim),
        ("u_cand", (hidden, hidden), hidden),
        ("b_cand", (hidden,), hidden),
        ("w_fc1", (fc, hidden), hidden),
        ("b_fc1", (fc,), hidden),
        ("w_fc2", (dim, fc), fc),
        ("b_fc2", (dim,), fc),
    )


TENSOR_FIELDS = tuple(name for name, _, _ in _layout(1, 1, 1))

LOG_TWO_PI = math.log(2.0 * math.pi)


class NetParams:
    """Weights of the shared cell and head, held in one flat vector.

    Shapes for input dim d, hidden dim H, head width F:
    w_* (H, d), u_* (H, H), b_* (H,) for the three gates;
    w_fc1 (F, H), b_fc1 (F,), w_fc2 (d, F), b_fc2 (d,).

    Built from the 13 named tensors, which are checked for shape and
    finiteness and copied into ``flat``.  Mutable on purpose: training
    updates ``flat`` in place between batches.  Write into a tensor
    (``net.w_cand[...] = ...``) rather than rebinding the attribute,
    which would detach it from ``flat``.  Nothing mutates either during a
    forward or backward pass.
    """

    def __init__(self, *, relu_output: bool = False, **tensors):
        if set(tensors) != set(TENSOR_FIELDS):
            raise TypeError(
                f"NetParams takes exactly the tensors {', '.join(TENSOR_FIELDS)}"
            )
        arrays = {name: np.asarray(tensors[name], dtype=np.float64) for name in TENSOR_FIELDS}
        if arrays["w_update"].ndim != 2 or arrays["w_fc1"].ndim != 2:
            raise ValueError("w_update and w_fc1 must be matrices")
        hidden, dim = arrays["w_update"].shape
        fc = arrays["w_fc1"].shape[0]
        for name, shape, _ in _layout(dim, hidden, fc):
            actual = arrays[name].shape
            if actual != shape:
                raise ValueError(f"{name} has shape {actual}, expected {shape}")
        for name in TENSOR_FIELDS:
            if not np.all(np.isfinite(arrays[name])):
                raise ValueError(f"{name} contains non-finite values")
        flat = np.concatenate([arrays[name].ravel() for name in TENSOR_FIELDS])
        self._bind(flat, (dim, hidden, fc), relu_output)

    def _bind(self, flat: np.ndarray, dims: tuple[int, int, int], relu_output: bool) -> None:
        self.flat = flat
        self.relu_output = relu_output
        offset = 0
        for name, shape, _ in _layout(*dims):
            size = math.prod(shape)
            setattr(self, name, flat[offset : offset + size].reshape(shape))
            offset += size

    def _like(self, flat: np.ndarray) -> "NetParams":
        """Same shapes and head, over another flat vector; unvalidated."""
        other = NetParams.__new__(NetParams)
        other._bind(flat, (self.input_dim, self.hidden_dim, self.fc_dim), self.relu_output)
        return other

    def copy(self) -> "NetParams":
        return self._like(self.flat.copy())

    def zeros_like(self) -> "NetParams":
        """All-zero tensors of the same shapes, the shape of a gradient."""
        return self._like(np.zeros_like(self.flat))

    @property
    def input_dim(self) -> int:
        return self.w_update.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_update.shape[0]

    @property
    def fc_dim(self) -> int:
        return self.w_fc1.shape[0]

    def tensor_dict(self) -> dict[str, np.ndarray]:
        """The named tensors, as live views into ``flat``."""
        return {name: getattr(self, name) for name in TENSOR_FIELDS}


@dataclass
class EmissionParams:
    """Scalar emission variance, stored as its log so updates stay
    unconstrained while the variance stays positive."""

    log_sigma2: float

    @property
    def sigma2(self) -> float:
        return math.exp(self.log_sigma2)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def _head(h: np.ndarray, net: NetParams):
    """The head, with its hidden layer: (a1, m).  ``h`` is one state or a
    stack of states, one per row."""
    a1 = np.maximum(h @ net.w_fc1.T + net.b_fc1, 0.0)
    m = a1 @ net.w_fc2.T + net.b_fc2
    if net.relu_output:
        m = np.maximum(m, 0.0)
    return a1, m


def _check_state(h: np.ndarray, params: NetParams) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (params.hidden_dim,):
        raise ValueError(f"state has shape {h.shape}, expected ({params.hidden_dim},)")
    return h


def gru_forward(x: np.ndarray, h: np.ndarray, params: NetParams) -> np.ndarray:
    """One cell update for a single speaker thread."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({params.input_dim},)")
    h = _check_state(h, params)
    u = _sigmoid(params.w_update @ x + params.u_update @ h + params.b_update)
    r = _sigmoid(params.w_reset @ x + params.u_reset @ h + params.b_reset)
    c = np.tanh(params.w_cand @ x + params.u_cand @ (r * h) + params.b_cand)
    return (1.0 - u) * h + u * c


def output_forward(h: np.ndarray, params: NetParams) -> np.ndarray:
    """Head mapping a hidden state to a point in embedding space."""
    return _head(_check_state(h, params), params)[1]


def gaussian_log_pdf(x: np.ndarray, mu: np.ndarray, sigma2: float) -> float:
    """Log-density of a spherical Gaussian with variance sigma2 per axis."""
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if x.shape != mu.shape or x.ndim != 1:
        raise ValueError(f"mismatched shapes {x.shape} vs {mu.shape}")
    diff = x - mu
    return (
        -0.5 * x.shape[0] * (LOG_TWO_PI + math.log(sigma2))
        - float(diff @ diff) / (2.0 * sigma2)
    )


@dataclass(frozen=True)
class SpeakerThread:
    """Recurrent state for one speaker.

    ``hidden`` has already been advanced past the speaker's latest
    observation, so it is the state the cell occupies at the speaker's next
    step, and ``output`` caches the head value for it.  ``mean_sum`` and
    ``count`` accumulate head outputs over the speaker's committed steps;
    the emission mean for the next step is (mean_sum + output) / (count + 1),
    i.e. the running mean after the pending output joins it.

    Instances are immutable and may be shared freely between decoder
    hypotheses.
    """

    hidden: np.ndarray
    output: np.ndarray
    mean_sum: np.ndarray
    count: int


def fresh_thread(params: NetParams) -> SpeakerThread:
    """Thread for a speaker about to emit its first segment (zero input,
    zero state)."""
    hidden = gru_forward(
        np.zeros(params.input_dim), np.zeros(params.hidden_dim), params
    )
    return SpeakerThread(
        hidden, output_forward(hidden, params), np.zeros(params.input_dim), 0
    )


def thread_emission_mean(thread: SpeakerThread) -> np.ndarray:
    return (thread.mean_sum + thread.output) / (thread.count + 1)


def advance_thread(thread: SpeakerThread, x: np.ndarray, params: NetParams) -> SpeakerThread:
    """Fold the observation just emitted by this speaker into its thread."""
    hidden = gru_forward(np.asarray(x, dtype=np.float64), thread.hidden, params)
    return SpeakerThread(
        hidden,
        output_forward(hidden, params),
        thread.mean_sum + thread.output,
        thread.count + 1,
    )


def _as_matrix(X) -> np.ndarray:
    if isinstance(X, EmbeddingSequence):
        return X.values
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"embeddings must be a T x d matrix, got shape {arr.shape}")
    return arr


def _as_labels(labels) -> np.ndarray:
    labs = np.asarray(labels)
    if labs.dtype.kind not in "iu":
        labs = np.array([int(v) for v in labels], dtype=np.int64)
    if labs.ndim != 1:
        raise ValueError(f"labels must be a sequence, got shape {labs.shape}")
    if labs.size and labs.min() < 1:
        raise ValueError("labels must be positive integers")
    return labs


def _pack(labs: np.ndarray):
    """Speaker-major packed order of an utterance's steps.

    Each speaker's steps form a thread.  The threads are sorted longest
    first by a stable sort over their order of first appearance, so the
    threads still running at thread step j are a prefix of that order.
    Packed rows hold thread step 0 of every thread, then thread step 1 of
    every thread that has one, and so on.

    Returns the packed row of each time step; per thread step, the slice
    of its rows with the slice of their predecessors' rows (None at thread
    step 0), which are the first rows of the previous thread step in the
    same thread order; and per packed row, its thread's step count so
    far, that step included.
    """
    _, first_seen, speaker, length = np.unique(
        labs, return_index=True, return_inverse=True, return_counts=True
    )
    by_appearance = np.argsort(first_seen, kind="stable")
    order = by_appearance[np.argsort(-length[by_appearance], kind="stable")]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    grouped = np.argsort(speaker, kind="stable")  # time steps speaker by speaker
    step = np.empty_like(grouped)
    step[grouped] = np.arange(labs.size) - np.repeat(np.cumsum(length) - length, length)
    active = np.bincount(step)  # threads running at each thread step
    bounds = [0, *np.cumsum(active).tolist()]
    steps = [
        (slice(lo, hi), slice(prev, prev + hi - lo) if j else None)
        for j, (prev, lo, hi) in enumerate(zip([0, *bounds], bounds, bounds[1:]))
    ]
    count = np.repeat(np.arange(1, active.size + 1), active)
    return np.take(bounds, step) + rank[speaker], steps, count


class _Pass(NamedTuple):
    """The teacher-forced pass in packed row order (see ``_pack``), with
    everything the reverse sweep reuses."""

    steps: list
    x_in: np.ndarray  # (T, d) cell inputs
    h_in: np.ndarray  # (T, H) cell states before the step
    gates: np.ndarray  # (T, 3H) update gate | reset gate | candidate
    hidden: np.ndarray  # (T, H) cell states after the step
    a1: np.ndarray  # (T, F) head hidden layer
    m: np.ndarray  # (T, d) head outputs
    count: np.ndarray  # (T,) steps of the thread so far, this one included
    resid: np.ndarray  # (T, d) observation minus emission mean
    sq: float  # squared norm of resid


def _teacher_forced(X, labels, net: NetParams, em: EmissionParams):
    """Teacher-forced pass over an utterance under fixed labels.

    Under teacher forcing every cell input is the thread's previous
    observation, so the input projections of all steps take one matmul,
    the recurrence advances all running threads of a thread step at once,
    and the head runs once over all steps.  The running mean is a
    cumulative sum along each thread divided by the step count.

    Returns the total log-density, the (T, d) per-step emission means in
    time order, and the pass in packed order.
    """
    x = _as_matrix(X)
    labs = _as_labels(labels)
    if labs.size != x.shape[0]:
        raise ValueError(
            f"length mismatch: {x.shape[0]} embeddings vs {labs.size} labels"
        )
    if x.shape[1] != net.input_dim:
        raise ValueError(f"embedding dim {x.shape[1]} != net input dim {net.input_dim}")
    hid = net.hidden_dim
    row, steps, count = _pack(labs)
    x_seq = np.empty_like(x)
    x_seq[row] = x
    x_in = np.zeros_like(x)
    for cur, prev in steps[1:]:
        x_in[cur] = x_seq[prev]
    gate_x = x_in @ np.concatenate((net.w_update, net.w_reset, net.w_cand)).T
    gate_x += np.concatenate((net.b_update, net.b_reset, net.b_cand))
    u_gates = np.concatenate((net.u_update, net.u_reset))
    h_in = np.zeros((x.shape[0], hid))
    gates = np.empty((x.shape[0], 3 * hid))
    hidden = np.empty_like(h_in)
    for cur, prev in steps:
        h = h_in[cur]
        if prev is not None:
            h[...] = hidden[prev]
        ur = _sigmoid(gate_x[cur, : 2 * hid] + h @ u_gates.T)
        u = ur[:, :hid]
        c = np.tanh(gate_x[cur, 2 * hid :] + (ur[:, hid:] * h) @ net.u_cand.T)
        hidden[cur] = (1.0 - u) * h + u * c
        gates[cur, : 2 * hid] = ur
        gates[cur, 2 * hid :] = c
    a1, m = _head(hidden, net)
    mean_sum = m.copy()
    for cur, prev in steps[1:]:
        mean_sum[cur] += mean_sum[prev]
    mus = mean_sum / count[:, None]
    resid = x_seq - mus
    sigma2 = em.sigma2
    log_norm = -0.5 * x.shape[1] * (LOG_TWO_PI + math.log(sigma2))
    sq = float(np.einsum("ij,ij->", resid, resid))
    total = x.shape[0] * log_norm - sq / (2.0 * sigma2)
    return total, mus[row], _Pass(steps, x_in, h_in, gates, hidden, a1, m, count, resid, sq)


def forward_log_likelihood(X, labels, net: NetParams, em: EmissionParams):
    """Teacher-forced log-likelihood of an utterance under fixed labels.

    Returns the total log-density plus the (T, d) record of per-step
    emission means.  ``labels`` may be any positive-integer sequence, not
    necessarily canonical: only the grouping pattern matters.
    """
    total, mus, _ = _teacher_forced(X, labels, net, em)
    return total, mus


@dataclass
class GradientResult:
    """Gradients of the emission log-likelihood for one utterance, plus the
    likelihood value itself (the forward pass comes for free).  ``net``
    holds the weight gradients in the parameters' own layout."""

    net: NetParams
    log_sigma2: float
    log_likelihood: float


def backward_gradients(X, labels, net: NetParams, em: EmissionParams) -> GradientResult:
    """Exact reverse-mode gradients of forward_log_likelihood with respect
    to every net tensor and to log(sigma2).

    The sweep runs over the speaker-major packed pass.  Two coupling paths
    matter.  The running mean feeds a head output at thread step j into
    the emission mean of every later step of its thread, with weight
    1/count there, so the head outputs' adjoint is a reverse cumulative
    sum of dmu / count along each thread.  The hidden-state chain is
    backpropagated through time one thread step at a time over the same
    prefixes of running threads.  Each weight gradient is then one matmul
    over the stacked steps.

    Threads never interact, so an utterance may hold several independent
    ones, such as a whole minibatch with each utterance's speakers
    numbered apart: the result is then the sum of the utterances'.
    """
    total, _, p = _teacher_forced(X, labels, net, em)
    sigma2 = em.sigma2
    hid = net.hidden_dim
    g_log_sigma2 = p.sq / (2.0 * sigma2) - 0.5 * net.input_dim * len(p.resid)

    dm = p.resid / sigma2 / p.count[:, None]
    for cur, prev in reversed(p.steps[1:]):
        dm[prev] += dm[cur]
    if net.relu_output:
        dm *= p.m > 0.0
    grads = net.zeros_like()
    grads.w_fc2[...] = dm.T @ p.a1
    grads.b_fc2[...] = dm.sum(axis=0)
    da1 = (dm @ net.w_fc2) * (p.a1 > 0.0)
    grads.w_fc1[...] = da1.T @ p.hidden
    grads.b_fc1[...] = da1.sum(axis=0)
    dh = da1 @ net.w_fc1  # gains each step's carry from its thread's next step

    # Local derivatives of the gate pre-activations, taken over all steps
    # at once; only the state adjoint has to wait for the sweep.
    u, r, c = np.split(p.gates, 3, axis=1)
    local_u = (c - p.h_in) * u * (1.0 - u)
    local_r = p.h_in * r * (1.0 - r)
    local_c = u * (1.0 - c * c)
    keep = 1.0 - u
    u_gates = np.concatenate((net.u_update, net.u_reset))
    da = np.empty_like(p.gates)  # gate pre-activation adjoints, gates' layout
    for cur, prev in reversed(p.steps):
        dh_out = dh[cur]
        dac = dh_out * local_c[cur]
        drh = dac @ net.u_cand
        da[cur, :hid] = dh_out * local_u[cur]
        da[cur, hid : 2 * hid] = drh * local_r[cur]
        da[cur, 2 * hid :] = dac
        if prev is not None:
            dh[prev] += dh_out * keep[cur] + drh * r[cur] + da[cur, : 2 * hid] @ u_gates
    rh = r * p.h_in
    grads.w_update[...], grads.w_reset[...], grads.w_cand[...] = np.split(da.T @ p.x_in, 3)
    grads.u_update[...], grads.u_reset[...] = np.split(da[:, : 2 * hid].T @ p.h_in, 2)
    grads.u_cand[...] = da[:, 2 * hid :].T @ rh
    grads.b_update[...], grads.b_reset[...], grads.b_cand[...] = np.split(da.sum(axis=0), 3)
    return GradientResult(grads, g_log_sigma2, total)


def init_net_params(
    input_dim: int,
    hidden_dim: int,
    fc_dim: int,
    rng: np.random.Generator,
    relu_output: bool = False,
) -> NetParams:
    """Seeded uniform initialization, bound 1/sqrt(fan_in) per tensor, with
    the fan-ins of the layout table, drawn in its order."""

    def uniform(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return NetParams(
        **{
            name: uniform(shape, fan_in)
            for name, shape, fan_in in _layout(input_dim, hidden_dim, fc_dim)
        },
        relu_output=relu_output,
    )
