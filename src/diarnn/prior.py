"""Prior over speaker labels.

Two coupled pieces: a Bernoulli model for whether the speaker changes
between consecutive segments, and a block-counting restaurant process that
picks which speaker a change switches to.  Given a change, an existing
speaker other than the current one is chosen with probability proportional
to the number of maximal runs (blocks) it already owns, and a brand new
speaker with probability proportional to the concentration alpha.  A
non-change keeps the current speaker with probability one, so the run
structure of the labels is exactly what the process prices.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sequences import (
    BlockTable,
    ChangeIndicators,
    LabelSequence,
    _label_index,
    block_counts,
    derive_change_indicators,
)

__all__ = [
    "PriorParams",
    "change_log_prob",
    "assignment_candidates",
    "sequence_assignment_log_prob",
    "grad_alpha",
    "estimate_p0",
]

NEG_INF = float("-inf")


def _log(value: float) -> float:
    return math.log(value) if value > 0.0 else NEG_INF


@dataclass(frozen=True)
class PriorParams:
    """No-change probability p0 and concentration alpha of the label prior."""

    p0: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must lie in [0, 1], got {self.p0}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def change_log_prob(z: int, p0: float) -> float:
    """Log-probability of one change indicator under the Bernoulli model."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")
    if z not in (0, 1):
        raise ValueError(f"change indicator must be 0 or 1, got {z}")
    if z == 0:
        return _log(p0)
    return math.log1p(-p0) if p0 < 1.0 else NEG_INF


@functools.lru_cache(maxsize=16)
def _log_tables(alpha: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """log n of block counts n < size, with log(alpha) at n = 0, the count
    of a speaker not seen yet; and log(m + alpha) of switch masses
    m < size.  Each entry is a ``math.log``, so a table lookup has the
    bits of the scalar expression."""
    log_count = np.array([math.log(alpha)] + [math.log(n) for n in range(1, size)])
    log_mass = np.array([math.log(m + alpha) for m in range(size)])
    log_count.flags.writeable = log_mass.flags.writeable = False  # shared by every caller
    return log_count, log_mass


def assignment_candidates(state: BlockTable, alpha: float, p0: float) -> np.ndarray:
    """The combined change + assignment log-prior of every admissible next
    speaker of every non-empty prefix of a block table.

    Returns a (B, K) array indexed by speaker, column k - 1 for speaker k.
    Row b's options are its first num_speakers[b] + 1 columns: the
    continuation at its last speaker, a switch to each other known speaker,
    and a new speaker, so the table needs a column past its known
    speakers.  Later columns are filler.  The exponentials of a row's
    options always sum to one; a single known speaker needs no special
    casing because the switch mass then falls entirely on the new-speaker
    option.
    """
    if not (0.0 <= p0 <= 1.0 and alpha > 0.0):
        PriorParams(p0=p0, alpha=alpha)  # raises with the reason
    current = _label_index(state.last)
    size = max(64, 1 << int(state.total.max()).bit_length())
    log_count, log_mass = _log_tables(alpha, size)
    mass = state.total - state.counts[current]
    log_prior = change_log_prob(1, p0) + log_count[state.counts] - log_mass[mass][:, None]
    log_prior[current] = change_log_prob(0, p0)
    return log_prior


def _switch_masses(labels: LabelSequence) -> list[int]:
    """Blocks owned by speakers other than the one just left, at each change
    step of the sequence, in order."""
    masses: list[int] = []
    counts: list[int] = []
    total = 0
    last = 0
    for lab in labels:
        if last and lab != last:
            masses.append(total - counts[last - 1])
        if lab > len(counts):
            counts.append(1)
            total += 1
        elif lab != last:
            counts[lab - 1] += 1
            total += 1
        last = lab
    return masses


def _check_consistent(labels: LabelSequence, z: ChangeIndicators) -> None:
    if tuple(z) != derive_change_indicators(labels).z:
        raise ValueError("change indicators do not match the label sequence")


def sequence_assignment_log_prob(
    labels: LabelSequence, z: ChangeIndicators, alpha: float
) -> float:
    """Log-probability of a full canonical label sequence given its change
    indicators.

    Closed form: (K - 1) * log(alpha) plus sum_k log Gamma(N_k) over final
    block counts, minus log(switch mass + alpha) at every change step.
    Equals the product of the per-step assignment probabilities.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _check_consistent(labels, z)
    final = block_counts(labels)
    total = (final.num_speakers - 1) * math.log(alpha)
    total += sum(math.lgamma(n) for n in final.counts)
    total -= sum(math.log(m + alpha) for m in _switch_masses(labels))
    return total


def grad_alpha(labels: LabelSequence, z: ChangeIndicators, alpha: float) -> float:
    """Exact derivative of sequence_assignment_log_prob with respect to
    alpha: (K - 1) / alpha minus 1 / (switch mass + alpha) per change step."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _check_consistent(labels, z)
    speakers = labels.num_speakers
    return (speakers - 1) / alpha - sum(
        1.0 / (m + alpha) for m in _switch_masses(labels)
    )


def estimate_p0(corpus) -> float:
    """Closed-form maximizer of the change-model likelihood over a corpus of
    label sequences: the fraction of consecutive same-speaker pairs among
    all consecutive pairs."""
    same = 0
    pairs = 0
    for labels in corpus:
        labs = tuple(labels)
        pairs += len(labs) - 1
        same += sum(1 for i in range(1, len(labs)) if labs[i] == labs[i - 1])
    if pairs == 0:
        raise ValueError(
            "p0 undefined: corpus has no consecutive segment pairs"
        )
    return same / pairs
