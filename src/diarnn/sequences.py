"""Core sequence types shared across the library.

Speaker labels are kept in canonical order-of-appearance form: the first
segment always belongs to speaker 1 and a new speaker id is always one
past the largest id seen so far.  Two labelings that differ only by a
renaming of speakers therefore collapse to the same canonical sequence.
All interfaces use 1-based speaker ids.
"""

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EmbeddingSequence",
    "LabelSequence",
    "ChangeIndicators",
    "BlockCounts",
    "BlockTable",
    "canonicalize",
    "derive_change_indicators",
    "block_counts",
    "update_block_counts",
]


@dataclass(frozen=True)
class EmbeddingSequence:
    """A T x d matrix of real-valued embeddings, one row per segment."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)  # private copy, frozen below
        if arr.ndim != 2:
            raise ValueError(f"embeddings must be a T x d matrix, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"embeddings need T >= 1 and d >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("embeddings contain NaN or infinite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelSequence:
    """Canonical speaker labels.

    Restricted-growth invariant: labels[0] == 1, and every later label is a
    positive integer at most one past the maximum of the labels before it.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(v) for v in self.labels)
        if not labels:
            raise ValueError("empty sequence")
        if labels[0] != 1:
            raise ValueError(f"first label must be 1, got {labels[0]}")
        seen = 1
        for pos, lab in enumerate(labels[1:], start=2):
            if lab < 1 or lab > seen + 1:
                raise ValueError(
                    f"label {lab} at position {pos} breaks order-of-appearance form"
                )
            seen = max(seen, lab)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, index):
        return self.labels[index]

    @property
    def num_speakers(self) -> int:
        return max(self.labels)


def canonicalize(raw_labels: Sequence[Hashable]) -> LabelSequence:
    """Relabel an arbitrary id sequence by order of first appearance."""
    if len(raw_labels) == 0:
        raise ValueError("empty sequence")
    mapping: dict[Hashable, int] = {}
    out = []
    for item in raw_labels:
        if item not in mapping:
            mapping[item] = len(mapping) + 1
        out.append(mapping[item])
    return LabelSequence(tuple(out))


@dataclass(frozen=True)
class ChangeIndicators:
    """Binary speaker-change marks for steps 2..T; z[i] covers step i + 2.

    The first step has no predecessor, so a length-T label sequence yields
    T - 1 indicators.
    """

    z: tuple[int, ...]

    def __post_init__(self):
        z = tuple(int(v) for v in self.z)
        if any(v not in (0, 1) for v in z):
            raise ValueError("change indicators must be 0 or 1")
        object.__setattr__(self, "z", z)

    def __len__(self) -> int:
        return len(self.z)

    def __iter__(self):
        return iter(self.z)


def derive_change_indicators(labels: LabelSequence) -> ChangeIndicators:
    """Change marks implied by a label sequence: 1 where the speaker differs
    from the previous step."""
    labs = labels.labels
    return ChangeIndicators(
        tuple(int(labs[i] != labs[i - 1]) for i in range(1, len(labs)))
    )


@dataclass(frozen=True)
class BlockCounts:
    """Per-speaker counts of maximal same-speaker runs in a label prefix.

    counts[k - 1] is the number of runs speaker k owns so far; every known
    speaker owns at least one.  last_speaker is the speaker of the final
    position of the prefix.
    """

    counts: tuple[int, ...]
    last_speaker: int

    def __post_init__(self):
        counts = tuple(int(v) for v in self.counts)
        if not counts or any(v < 1 for v in counts):
            raise ValueError("block counts must be positive for every known speaker")
        if not 1 <= self.last_speaker <= len(counts):
            raise ValueError(f"last speaker {self.last_speaker} is not a known speaker")
        object.__setattr__(self, "counts", counts)

    @property
    def num_speakers(self) -> int:
        return len(self.counts)

    @property
    def total_blocks(self) -> int:
        return sum(self.counts)

    def count(self, speaker: int) -> int:
        return self.counts[speaker - 1]

    def as_dict(self) -> dict[int, int]:
        return {k + 1: n for k, n in enumerate(self.counts)}


def _label_index(labels: np.ndarray):
    """Index of column ``labels[b] - 1`` in each row b of a table.  A
    single row is indexed plainly, which costs less than a gather and
    drops the row axis."""
    if labels.size == 1:
        return 0, int(labels[0]) - 1
    return np.arange(labels.size), labels - 1


class BlockTable(NamedTuple):
    """Block counts of many label prefixes at once, one row per prefix.

    ``counts[b, k - 1]`` is the number of runs speaker k owns in prefix b,
    and 0 for a speaker the prefix has not reached yet; there may be more
    columns than speakers.  ``last`` is each prefix's last speaker (0 for
    an empty prefix), ``num_speakers`` its known speakers and ``total``
    its runs.  The arrays are not written after construction, so tables
    may share them.
    """

    counts: np.ndarray  # (B, K) int
    last: np.ndarray  # (B,) int
    num_speakers: np.ndarray  # (B,) int
    total: np.ndarray  # (B,) int

    def take(self, rows) -> "BlockTable":
        return BlockTable(*(a[rows] for a in self))


def block_counts(labels_prefix: LabelSequence) -> BlockCounts:
    """Run counts of a whole label prefix, computed in one scan."""
    counts: list[int] = []
    last = 0
    for lab in labels_prefix:
        if lab > len(counts):
            counts.append(1)
        elif lab != last:
            counts[lab - 1] += 1
        last = lab
    return BlockCounts(tuple(counts), last)


def update_block_counts(state: BlockTable, next_label: np.ndarray) -> BlockTable:
    """Extend each row of a block table by its entry of an int array of
    labels.

    Continuing the current speaker changes nothing; revisiting another known
    speaker opens a new run for it; the id one past the known speakers opens
    a brand new speaker.  Anything else is rejected.  The table must have a
    column for every label it is given.
    """
    labels = np.asarray(next_label)
    counts = None
    rows = zip(labels.tolist(), state.num_speakers.tolist(), state.last.tolist())
    for row, (label, seen, last) in enumerate(rows):
        if not 1 <= label <= seen + 1:
            raise ValueError(f"non-canonical label {label} after {seen} known speakers")
        if label != last:
            if counts is None:
                counts, total = state.counts.copy(), state.total.copy()
            counts[row, label - 1] += 1
            total[row] += 1
    if counts is None:
        return state
    return BlockTable(counts, labels, np.maximum(state.num_speakers, labels), total)
