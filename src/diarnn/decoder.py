"""Greedy and beam MAP decoding of speaker labels for an embedding
sequence, plus an exhaustive argmax over all canonical labelings for short
inputs, which is the ground truth the approximate decoders are checked
against.

Each step scores every admissible next label: keep the current speaker,
switch to any other known speaker, or open a new one.  A candidate's step
score is its combined change/assignment log-prior plus the log-density of
the current observation under that speaker's predicted emission mean, so a
committed hypothesis accumulates exactly the full joint log-probability of
its labeling.  Decisions at step t use observations up to t only.

The state of a whole beam is one set of arrays (``DecoderState``): each
row is a hypothesis and holds a table of speaker slots, slot k - 1 for
speaker k, each with that speaker's thread (hidden state, the sum of its
head outputs with the one pending for its next step, the running mean
its next step is scored against, and the number of outputs summed), plus
the row's block counts and running log joint.  Slots past a row's known
speakers hold the fresh thread, so the new-speaker option is the next
slot, scored and opened like any known speaker; the slots grow by
doubling.  A step scores every candidate of every row at once
(``step_scores``: one squared-distance reduction over all slots, and the
prior of every label) and advances all survivors with one batched cell
step and head (``advance_hypothesis``).  Labels are not copied along:
each step records per row its parent row in the step before and its
label, and a labeling is read back along these pointers.  The sampler in
``io`` steps the same state, one row at a time.

Ties break deterministically: continuation first, then existing speakers
by ascending id, then a new speaker.  The first step is forced to
speaker 1 and carries only its emission term.
"""

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .model import ModelParams
from .net import (
    StackedNet,
    _as_matrix,
    advance_thread,
    gaussian_log_pdf,
    input_projection,
    stack_net,
)
from .prior import assignment_candidates
from .sequences import BlockTable, LabelSequence, _label_index, update_block_counts

__all__ = [
    "EXHAUSTIVE_MAX_LENGTH",
    "DecodeConfig",
    "CandidateScore",
    "StepScores",
    "DecoderState",
    "DecodeResult",
    "empty_hypothesis",
    "step_scores",
    "advance_hypothesis",
    "decode_greedy",
    "decode_beam",
    "exhaustive_decode",
    "enumerate_canonical_labelings",
    "replay_hypothesis",
]

EXHAUSTIVE_MAX_LENGTH = 12

_INITIAL_SLOTS = 8
_PROJECTION_ROWS = 64


@dataclass(frozen=True)
class DecodeConfig:
    """Search controls.

    beam_width 1 is greedy decoding.  max_speakers, when set, suppresses
    the new-speaker candidate once that many speakers exist.  look_ahead 0
    is a pure beam; a positive value forces the beam to commit to the best
    hypothesis's prefix that many steps behind the frontier, which bounds
    how late an online emitter may revise its output.
    """

    beam_width: int = 1
    max_speakers: int | None = None
    look_ahead: int = 0

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam width must be at least 1, got {self.beam_width}")
        if self.max_speakers is not None and self.max_speakers < 1:
            raise ValueError(f"max speakers must be at least 1, got {self.max_speakers}")
        if self.look_ahead < 0:
            raise ValueError(f"look ahead must be nonnegative, got {self.look_ahead}")


class CandidateScore(NamedTuple):
    label: int
    change: int | None  # None at the forced first step
    log_prob: float


class StepScores(NamedTuple):
    """Every candidate of every row of a state.  Scores are indexed by
    label, column k - 1 for speaker k; row b's candidates are its first
    ``width[b]`` columns, which its preference order takes continuation
    first (``last[b]``, 0 before the first step), then by ascending id."""

    log_prob: np.ndarray  # (B, K) step scores: log-prior plus emission
    width: np.ndarray  # (B,) admissible candidates per row
    last: np.ndarray  # (B,) each row's current speaker

    def preference(self) -> np.ndarray:
        """(B, K) labels in preference order: row b's candidates are its
        first width[b] entries."""
        place = np.arange(self.log_prob.shape[1])
        order = place + (place >= self.last[:, None])
        order[:, 0] += self.last  # 1 before the first step
        return order

    def candidates(self, row: int = 0) -> list[CandidateScore]:
        """One row's candidates as a list, in preference order."""
        last = int(self.last[row])
        return [
            CandidateScore(label, int(label != last) if last else None,
                           float(self.log_prob[row, label - 1]))
            for label in self.preference()[row, : int(self.width[row])].tolist()
        ]


class DecoderState(NamedTuple):
    """B partial labelings of the same length, one per row, with all it
    takes to score and extend each.

    ``slots`` (B, K, H + 2d + 1) holds per row and speaker slot the
    thread's hidden state, the sum of its head outputs including the one
    pending for its next step, the emission mean of that step, and the
    number of outputs in the sum, one more than the thread's committed
    steps.  The trail is the last step's (parent rows, labels) and the
    trail before it, or None for the empty labeling; a parent of None
    means row i came from row i.  Arrays are not written after
    construction, so states may share them.
    """

    cell: StackedNet
    slots: np.ndarray
    blocks: BlockTable
    log_prob: np.ndarray  # (B,) running log joint
    trail: tuple | None
    max_slots: int | None  # slots never grow past this many

    @property
    def hidden(self) -> np.ndarray:
        return self.slots[..., : self.cell.u_cand_t.shape[0]]

    @property
    def mean(self) -> np.ndarray:
        hid, dim = self.cell.u_cand_t.shape[0], self.cell.w_in_t.shape[0]
        return self.slots[..., hid + dim : hid + 2 * dim]

    @property
    def count(self) -> np.ndarray:
        """Committed steps per slot."""
        return self.slots[..., -1] - 1.0

    def labels(self, row: int = 0) -> tuple[int, ...]:
        """A row's labeling, read back along the trail."""
        out = []
        trail = self.trail
        while trail is not None:
            parent, label, trail = trail
            out.append(int(label[row]))
            if parent is not None:
                row = int(parent[row])
        return tuple(reversed(out))

    def take(self, rows) -> "DecoderState":
        """The state of the given rows, in that order."""
        trail = self.trail
        if trail is not None:
            parent = np.asarray(rows) if trail[0] is None else trail[0][rows]
            trail = (parent, trail[1][rows], trail[2])
        return DecoderState(self.cell, self.slots[rows], self.blocks.take(rows),
                            self.log_prob[rows], trail, self.max_slots)


@dataclass
class DecodeResult:
    labels: LabelSequence
    log_prob: float
    # Candidates scored per step, summed over the beam; None for the
    # exhaustive oracle, which does not step.
    step_candidate_counts: list[int] | None


def _fresh_slots(cell: StackedNet, rows: int, slots: int) -> np.ndarray:
    """Slots holding the thread of a speaker about to emit its first
    segment: one cell step from a zero input and a zero state."""
    net = cell.net
    hidden, output = advance_thread(np.zeros(3 * net.hidden_dim), np.zeros(net.hidden_dim), cell)
    fresh = np.concatenate((hidden, output, output, [1.0]))
    return np.tile(fresh, (rows, slots, 1))


def empty_hypothesis(params: ModelParams, max_speakers: int | None = None) -> DecoderState:
    """The state of the empty labeling, one row; its slots need not grow
    past ``max_speakers``."""
    slots = _INITIAL_SLOTS if max_speakers is None else min(_INITIAL_SLOTS, max_speakers)
    cell = stack_net(params.net)
    zero = np.zeros(1, dtype=np.int64)
    blocks = BlockTable(np.zeros((1, slots), dtype=np.int64), zero, zero, zero)
    return DecoderState(cell, _fresh_slots(cell, 1, slots), blocks, np.zeros(1), None,
                        max_speakers)


def step_scores(
    state: DecoderState, x_t, params: ModelParams, config: DecodeConfig | None = None
) -> StepScores:
    """Scores of every admissible next label of every row of a state: one
    emission term per speaker slot and the log-prior of each label."""
    emission = gaussian_log_pdf(x_t, state.mean, params.emission.sigma2)
    blocks = state.blocks
    if state.trail is None:
        return StepScores(emission, blocks.num_speakers + 1, blocks.last)
    log_prior = assignment_candidates(blocks, params.prior.alpha, params.prior.p0)
    known = blocks.num_speakers
    if config is None or config.max_speakers is None:
        width = known + 1
    else:
        width = known + (known < config.max_speakers)
    return StepScores(log_prior + emission, width, blocks.last)


def advance_hypothesis(
    state: DecoderState, x_proj: np.ndarray, parent, label, log_prob
) -> DecoderState:
    """Commit one scored candidate per row of the new state: row i extends
    row ``parent[i]`` of ``state`` (row i itself when ``parent`` is None)
    by ``label[i]``, advancing that speaker's thread past the observation
    whose input projection is ``x_proj``, and adds the candidate's step
    score ``log_prob[i]`` to the running log joint."""
    label = np.asarray(label)
    if parent is None:
        slots, blocks, running = state.slots.copy(), state.blocks, state.log_prob
    else:
        parent = np.asarray(parent)
        slots = state.slots[parent]
        blocks, running = state.blocks.take(parent), state.log_prob[parent]
    before, blocks = blocks, update_block_counts(blocks, label)

    cell = state.cell
    hid, dim = cell.u_cand_t.shape[0], cell.w_in_t.shape[0]
    where = _label_index(label)
    chosen = slots[where]  # one row's slot as a view, else a copy written back below
    chosen[..., :hid], output = advance_thread(x_proj, chosen[..., :hid], cell)
    output_sum, outputs = chosen[..., hid : hid + dim], chosen[..., -1:]
    output_sum += output
    outputs += 1.0
    np.divide(output_sum, outputs, out=chosen[..., hid + dim : hid + 2 * dim])
    slots[where] = chosen

    size = slots.shape[1]
    if (
        blocks is not before  # some row changed speaker, so it may have opened one
        and (state.max_slots is None or size < state.max_slots)
        and np.count_nonzero(label == size)
    ):
        grown = 2 * size if state.max_slots is None else min(2 * size, state.max_slots)
        slots = np.concatenate((slots, _fresh_slots(cell, label.size, grown - size)), axis=1)
        counts = np.zeros((label.size, grown), dtype=blocks.counts.dtype)
        counts[:, :size] = blocks.counts
        blocks = blocks._replace(counts=counts)
    return DecoderState(cell, slots, blocks, running + log_prob, (parent, label, state.trail),
                        state.max_slots)


def _prepare(X, params: ModelParams, max_speakers=None):
    x = _as_matrix(X)
    if x.shape[1] != params.net.input_dim:
        raise ValueError(
            f"embedding dim {x.shape[1]} != net input dim {params.net.input_dim}"
        )
    state = empty_hypothesis(params, max_speakers)
    # One product per block of rows.  OpenBLAS threads the product of a
    # whole long utterance even at the toy shapes (from about a thousand
    # rows at d = 8), and its idle worker then spin-waits through the
    # decode: on a long-meetings-toy utterance that doubled the decode's
    # CPU time at the same wall time (BENCH_7.json, "projection_blocks").
    # At the paper shape the product threads at any row count.
    proj = np.concatenate([
        input_projection(x[lo : lo + _PROJECTION_ROWS], state.cell)
        for lo in range(0, x.shape[0], _PROJECTION_ROWS)
    ])
    return x, proj, state


def decode_beam(
    X, params: ModelParams, config: DecodeConfig | None = None
) -> DecodeResult:
    """Width-B beam search over labelings.

    Each step pools every row's candidates, row by row in preference
    order, and keeps the best B with a stable sort, so equal scores
    resolve exactly like the greedy rule and width 1 reproduces greedy
    decoding.  Distinct hypotheses always carry distinct label prefixes
    (the hypothesis state is a function of the prefix), so expansion
    never produces duplicates and no dedupe pass is needed.  The final
    pick breaks equal-probability ties toward the lexicographically
    smallest label sequence, matching the exhaustive oracle's tie rule.
    """
    config = config or DecodeConfig()
    x, proj, state = _prepare(X, params, config.max_speakers)
    counts: list[int] = []
    for t in range(x.shape[0]):
        scores = step_scores(state, x[t], params, config)
        total = state.log_prob[:, None] + scores.log_prob
        if config.beam_width == 1:
            # The pooled sort below would pick the same candidate: the
            # first maximum in preference order is the continuation if it
            # ties, else the lowest id among the best, which is what argmax
            # finds.  Greedy decoding takes this form because the sort's
            # dozen small array operations per step cost it about a third
            # of its steps per second (BENCH_7.json, "greedy_selection").
            width, last = int(scores.width[0]), int(scores.last[0])
            counts.append(width)
            slot = int(total[0, :width].argmax())
            if last and total[0, last - 1] == total[0, slot]:
                slot = last - 1
            parent, label = None, np.array([slot + 1])
            step = scores.log_prob[0, slot : slot + 1]
        else:
            counts.append(int(scores.width.sum()))
            order = scores.preference()
            pooled = total[np.arange(len(order))[:, None], order - 1]
            admissible = np.arange(order.shape[1]) < scores.width[:, None]
            pooled_row, pooled_col = np.nonzero(admissible)
            best = np.argsort(-pooled[admissible], kind="stable")[: config.beam_width]
            parent = pooled_row[best]
            label = order[parent, pooled_col[best]]
            step = scores.log_prob[parent, label - 1]
        state = advance_hypothesis(state, proj[t], parent, label, step)
        if config.look_ahead > 0 and t + 1 > config.look_ahead:
            # rows share the best row's prefix up to step t - look_ahead
            # exactly when they descend from the same row there
            ancestor = np.arange(len(state.log_prob))
            trail = state.trail
            for _ in range(config.look_ahead):
                if trail[0] is not None:
                    ancestor = trail[0][ancestor]
                trail = trail[2]
            keep = np.flatnonzero(ancestor == ancestor[0])
            if keep.size < ancestor.size:
                state = state.take(keep)
    tied = np.flatnonzero(state.log_prob == state.log_prob.max())
    best_row = min(tied.tolist(), key=state.labels)
    return DecodeResult(
        LabelSequence(state.labels(best_row)), float(state.log_prob[best_row]), counts
    )


def decode_greedy(
    X, params: ModelParams, config: DecodeConfig | None = None
) -> DecodeResult:
    """Online argmax decoding: commits the single best candidate at every
    step.  Only max_speakers is honored from the config."""
    base = config or DecodeConfig()
    cfg = DecodeConfig(beam_width=1, max_speakers=base.max_speakers, look_ahead=0)
    return decode_beam(X, params, cfg)


def exhaustive_decode(X, params: ModelParams) -> DecodeResult:
    """Argmax of the full joint over every canonical labeling.

    The label space is the Bell number of T, so inputs are guarded to
    T <= EXHAUSTIVE_MAX_LENGTH.  The search is depth first: each node
    advances all its children in one step and visits them in preference
    order.  Equal-probability maxima resolve to the lexicographically
    smallest label sequence, the same tie rule beam search applies to its
    final pick.
    """
    x = _as_matrix(X)
    steps = x.shape[0]
    if steps > EXHAUSTIVE_MAX_LENGTH:
        raise ValueError(
            f"oracle guard: T={steps} exceeds the exhaustive limit "
            f"{EXHAUSTIVE_MAX_LENGTH}"
        )
    x, proj, root = _prepare(x, params)
    best_labels: tuple[int, ...] | None = None
    best_lp = float("-inf")

    def visit(state: DecoderState, t: int) -> None:
        nonlocal best_labels, best_lp
        if t == steps:
            lp, labels = float(state.log_prob[0]), state.labels()
            if lp > best_lp or (
                lp == best_lp and best_labels is not None and labels < best_labels
            ):
                best_labels, best_lp = labels, lp
            return
        scores = step_scores(state, x[t], params)
        width = int(scores.width[0])
        labels = scores.preference()[0, :width]
        children = advance_hypothesis(
            state, proj[t], np.zeros(width, dtype=np.int64), labels,
            scores.log_prob[0, labels - 1],
        )
        for row in range(width):
            visit(children.take([row]), t + 1)

    visit(root, 0)
    assert best_labels is not None
    return DecodeResult(LabelSequence(best_labels), best_lp, None)


def enumerate_canonical_labelings(length: int) -> Iterator[tuple[int, ...]]:
    """All order-of-appearance label sequences of the given length, in the
    decoder's preference order."""
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")

    def extend(prefix: tuple[int, ...], known: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield prefix
            return
        prev = prefix[-1]
        order = [prev] + [k for k in range(1, known + 1) if k != prev] + [known + 1]
        for lab in order:
            yield from extend(prefix + (lab,), max(known, lab))

    yield from extend((1,), 1)


def replay_hypothesis(X, labels, params: ModelParams) -> DecoderState:
    """Rebuild the one-row decoder state that corresponds to committing a
    fixed label sequence; its log_prob is the full joint of that
    labeling."""
    labs = labels if isinstance(labels, LabelSequence) else LabelSequence(tuple(labels))
    x, proj, state = _prepare(X, params)
    if len(labs) != x.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} embeddings vs {len(labs)} labels")
    for t, speaker in enumerate(labs):
        for cand in step_scores(state, x[t], params).candidates():
            if cand.label == speaker:
                break
        else:
            raise ValueError(f"label {speaker} is not reachable at step {t + 1}")
        state = advance_hypothesis(state, proj[t], [0], [speaker], [cand.log_prob])
    return state
