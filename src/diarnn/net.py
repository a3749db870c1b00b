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

All computation is float64.
"""

import math
from dataclasses import dataclass

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


def _cell(x: np.ndarray, h: np.ndarray, net: NetParams):
    """The GRU update, with the gate values the reverse sweep reuses:
    (u, r, r * h, c, h_next)."""
    u = _sigmoid(net.w_update @ x + net.u_update @ h + net.b_update)
    r = _sigmoid(net.w_reset @ x + net.u_reset @ h + net.b_reset)
    rh = r * h
    c = np.tanh(net.w_cand @ x + net.u_cand @ rh + net.b_cand)
    return u, r, rh, c, (1.0 - u) * h + u * c


def _head(h: np.ndarray, net: NetParams):
    """The head, with its hidden layer: (a1, m)."""
    a1 = np.maximum(net.w_fc1 @ h + net.b_fc1, 0.0)
    m = net.w_fc2 @ a1 + net.b_fc2
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
    return _cell(x, _check_state(h, params), params)[-1]


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


def _teacher_forced(X, labels, net: NetParams, em: EmissionParams):
    """Teacher-forced pass over an utterance under fixed labels.

    Returns the total log-density, the (T, d) record of per-step emission
    means, and per step the intermediates the reverse sweep needs.
    """
    x = _as_matrix(X)
    labs = [int(v) for v in labels]
    if len(labs) != x.shape[0]:
        raise ValueError(
            f"length mismatch: {x.shape[0]} embeddings vs {len(labs)} labels"
        )
    if any(v < 1 for v in labs):
        raise ValueError("labels must be positive integers")
    if x.shape[1] != net.input_dim:
        raise ValueError(f"embedding dim {x.shape[1]} != net input dim {net.input_dim}")
    sigma2 = em.sigma2
    log_norm = -0.5 * x.shape[1] * (LOG_TWO_PI + math.log(sigma2))
    zeros_x = np.zeros(net.input_dim)
    # Per speaker: its cell input and state for its next step, the sum of
    # its head outputs so far, and its step count.
    first = (zeros_x, np.zeros(net.hidden_dim), zeros_x, 0)
    threads = {}
    mus = np.empty_like(x)
    cache = []
    total = 0.0
    for t in range(x.shape[0]):
        speaker = labs[t]
        x_in, h_in, mean_sum, count = threads.get(speaker, first)
        u, r, rh, c, h = _cell(x_in, h_in, net)
        a1, m = _head(h, net)
        mean_sum = mean_sum + m
        count += 1
        mu = mus[t] = mean_sum / count
        resid = x[t] - mu
        sq = float(resid @ resid)
        total += log_norm - sq / (2.0 * sigma2)
        cache.append((speaker, x_in, h_in, u, r, rh, c, h, a1, m, resid, count, sq))
        threads[speaker] = (x[t], h, mean_sum, count)
    return total, mus, cache


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

    Two coupling paths matter and both are handled here: the hidden-state
    chain across each speaker's interleaved steps, and the running mean,
    through which a head output at step s feeds the emission mean of every
    later step of the same speaker with weight 1/count at that step.
    """
    total, _, cache = _teacher_forced(X, labels, net, em)
    sigma2 = em.sigma2
    dim = net.input_dim
    g_log_sigma2 = sum(sq / (2.0 * sigma2) - 0.5 * dim for *_, sq in cache)

    grads = net.zeros_like()
    dmean: dict[int, np.ndarray] = {}  # sum over later same-speaker steps of dmu/count
    dh_carry: dict[int, np.ndarray] = {}
    for speaker, x_in, h_in, u, r, rh, c, h, a1, m, resid, count, _ in reversed(cache):
        acc = dmean.get(speaker)
        dmu = resid / sigma2
        acc = dmu / count if acc is None else acc + dmu / count
        dmean[speaker] = acc
        dm = acc * (m > 0.0) if net.relu_output else acc
        # head
        grads.w_fc2 += dm[:, None] * a1
        grads.b_fc2 += dm
        da1 = (net.w_fc2.T @ dm) * (a1 > 0.0)
        grads.w_fc1 += da1[:, None] * h
        grads.b_fc1 += da1
        dh = net.w_fc1.T @ da1
        carry = dh_carry.pop(speaker, None)
        if carry is not None:
            dh = dh + carry
        # cell
        du = dh * (c - h_in)
        dc = dh * u
        dh_in = dh * (1.0 - u)
        dac = dc * (1.0 - c * c)
        grads.w_cand += dac[:, None] * x_in
        grads.u_cand += dac[:, None] * rh
        grads.b_cand += dac
        drh = net.u_cand.T @ dac
        dr = drh * h_in
        dh_in = dh_in + drh * r
        dau = du * u * (1.0 - u)
        dar = dr * r * (1.0 - r)
        grads.w_update += dau[:, None] * x_in
        grads.u_update += dau[:, None] * h_in
        grads.b_update += dau
        grads.w_reset += dar[:, None] * x_in
        grads.u_reset += dar[:, None] * h_in
        grads.b_reset += dar
        dh_carry[speaker] = dh_in + net.u_update.T @ dau + net.u_reset.T @ dar
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
