"""Confusion-style diarization scoring over time-stamped speaker segments.

The reference timeline defines what is scorable: a collar of +/-collar
seconds around every reference boundary is removed, and regions where two
or more reference speakers talk at once are removed too when overlap is
excluded (the default).  Hypothesis speakers are matched to reference
speakers by an optimal one-to-one mapping maximizing co-occurring time
inside the scored regions, and the headline error is the fraction of
scored reference speech whose mapped hypothesis speaker is wrong.  Missed
and falsely alarmed time are reported as diagnostics but do not enter the
headline number.

Times are seconds, rounded to one microsecond on ingestion; intervals are
closed-open.  RTTM reading and writing round-trip exactly at microsecond
resolution.
"""

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import FormatError, NothingToScoreError

__all__ = [
    "Segment",
    "Timeline",
    "DerResult",
    "labels_to_timeline",
    "scored_regions",
    "optimal_mapping",
    "der",
    "read_rttm",
    "write_rttm",
]


def _round_time(value: float) -> float:
    return round(float(value) * 1e6) / 1e6


@dataclass(frozen=True)
class Segment:
    """One speaker-homogeneous stretch of time, closed-open [start, end)."""

    start: float
    end: float
    speaker: str

    def __post_init__(self):
        start = _round_time(self.start)
        end = _round_time(self.end)
        if not (start >= 0.0 and end > start):
            raise ValueError(f"bad segment times [{self.start}, {self.end})")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "speaker", str(self.speaker))

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """Speaker segments of one utterance.  Reference timelines may contain
    overlapping speech; hypothesis timelines produced by this library never
    do."""

    utt: str
    segments: list[Segment] = field(default_factory=list)

    def speakers(self) -> list[str]:
        return sorted({seg.speaker for seg in self.segments})


def labels_to_timeline(labels, segment_duration: float, utt: str = "utt") -> Timeline:
    """Lay per-segment labels onto a fixed-duration grid, merging adjacent
    same-speaker segments into single timeline entries."""
    if segment_duration <= 0:
        raise ValueError(f"segment duration must be positive, got {segment_duration}")
    labs = [int(v) for v in labels]
    if not labs:
        raise ValueError("empty sequence")
    segments = []
    run_start = 0
    for i in range(1, len(labs) + 1):
        if i == len(labs) or labs[i] != labs[run_start]:
            segments.append(
                Segment(
                    run_start * segment_duration,
                    i * segment_duration,
                    str(labs[run_start]),
                )
            )
            run_start = i
    return Timeline(utt, segments)


def _merge(intervals) -> list[tuple[float, float]]:
    out: list[list[float]] = []
    for s, e in sorted((s, e) for s, e in intervals if e > s):
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1][1] = e
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def _subtract(base, cuts) -> list[tuple[float, float]]:
    cuts = _merge(cuts)
    out = []
    for s, e in base:
        cursor = s
        for cs, ce in cuts:
            if ce <= cursor or cs >= e:
                continue
            if cs > cursor:
                out.append((cursor, cs))
            cursor = max(cursor, ce)
            if cursor >= e:
                break
        if cursor < e:
            out.append((cursor, e))
    return out


def _intersect(a, b) -> list[tuple[float, float]]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s < e:
            out.append((s, e))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _total(intervals) -> float:
    return sum(e - s for s, e in intervals)


def _overlap_regions(timeline: Timeline) -> list[tuple[float, float]]:
    """Instants where at least two distinct speakers are active."""
    per_speaker: dict[str, list[tuple[float, float]]] = {}
    for seg in timeline.segments:
        per_speaker.setdefault(seg.speaker, []).append((seg.start, seg.end))
    deltas: dict[float, int] = {}
    for intervals in per_speaker.values():
        for s, e in _merge(intervals):
            deltas[s] = deltas.get(s, 0) + 1
            deltas[e] = deltas.get(e, 0) - 1
    out = []
    depth = 0
    start = None
    for time in sorted(deltas):
        depth += deltas[time]
        if start is None and depth >= 2:
            start = time
        elif start is not None and depth < 2:
            out.append((start, time))
            start = None
    return out


def scored_regions(
    ref: Timeline, collar: float = 0.25, exclude_overlap: bool = True
) -> list[tuple[float, float]]:
    """Scorable intervals: reference speech minus a +/-collar window around
    every reference segment boundary, minus overlapped reference speech
    when excluded."""
    if collar < 0:
        raise ValueError(f"collar must be nonnegative, got {collar}")
    speech = _merge((seg.start, seg.end) for seg in ref.segments)
    cuts = []
    if collar > 0:
        for seg in ref.segments:
            cuts.append((seg.start - collar, seg.start + collar))
            cuts.append((seg.end - collar, seg.end + collar))
    if exclude_overlap:
        cuts.extend(_overlap_regions(ref))
    return _subtract(speech, cuts)


def _speaker_intervals(timeline: Timeline, regions) -> dict[str, list[tuple[float, float]]]:
    per: dict[str, list[tuple[float, float]]] = {}
    for seg in timeline.segments:
        per.setdefault(seg.speaker, []).append((seg.start, seg.end))
    return {spk: _intersect(_merge(iv), regions) for spk, iv in per.items()}


def optimal_mapping(ref: Timeline, hyp: Timeline, regions) -> dict[str, str]:
    """One-to-one hypothesis-to-reference speaker map maximizing total
    co-occurring duration inside the scored regions (solved as an
    assignment problem on the overlap-duration matrix)."""
    ref_iv = _speaker_intervals(ref, list(regions))
    hyp_iv = _speaker_intervals(hyp, list(regions))
    ref_speakers = sorted(ref_iv)
    hyp_speakers = sorted(hyp_iv)
    if not ref_speakers or not hyp_speakers:
        return {}
    matrix = np.zeros((len(hyp_speakers), len(ref_speakers)))
    for i, h in enumerate(hyp_speakers):
        for j, r in enumerate(ref_speakers):
            matrix[i, j] = _total(_intersect(hyp_iv[h], ref_iv[r]))
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return {
        hyp_speakers[i]: ref_speakers[j]
        for i, j in zip(rows, cols)
        if matrix[i, j] > 0.0
    }


@dataclass
class DerResult:
    der: float
    confusion_time: float
    scored_time: float
    mapping: dict[str, str]
    missed_time: float  # diagnostics only, not part of the headline error
    false_alarm_time: float

    def __post_init__(self):
        assert 0.0 <= self.der, "error rate cannot be negative"


def der(
    ref: Timeline,
    hyp: Timeline,
    collar: float = 0.25,
    exclude_overlap: bool = True,
) -> DerResult:
    """Confusion error of a hypothesis against a reference: the fraction of
    scored reference speech attributed to the wrong mapped speaker.  Time
    under hypothesis speakers that map to no reference speaker counts as
    confusion; time with no hypothesis speaker at all counts as missed and
    is excluded from the headline number.  Raises NothingToScoreError when
    the reference leaves no scorable time."""
    if ref.utt != hyp.utt:
        raise ValueError(f"utterance ids differ: {ref.utt!r} vs {hyp.utt!r}")
    regions = scored_regions(ref, collar, exclude_overlap)
    mapping = optimal_mapping(ref, hyp, regions)
    scored = confusion = missed = false_alarm = 0.0
    for region_start, region_end in regions:
        points = {region_start, region_end}
        for seg in list(ref.segments) + list(hyp.segments):
            for p in (seg.start, seg.end):
                if region_start < p < region_end:
                    points.add(p)
        ordered = sorted(points)
        for a, b in zip(ordered, ordered[1:]):
            mid = 0.5 * (a + b)
            dur = b - a
            ref_active = {s.speaker for s in ref.segments if s.start <= mid < s.end}
            hyp_active = {s.speaker for s in hyp.segments if s.start <= mid < s.end}
            r, h = len(ref_active), len(hyp_active)
            correct = len(
                {mapping[spk] for spk in hyp_active if spk in mapping} & ref_active
            )
            scored += dur * r
            confusion += dur * (min(r, h) - correct)
            missed += dur * max(0, r - h)
            false_alarm += dur * max(0, h - r)
    if scored <= 0.0:
        raise NothingToScoreError(
            "nothing to score: collar and overlap removal left no region"
        )
    return DerResult(
        der=confusion / scored,
        confusion_time=confusion,
        scored_time=scored,
        mapping=mapping,
        missed_time=missed,
        false_alarm_time=false_alarm,
    )


def write_rttm(timelines: Iterable[Timeline], path) -> None:
    """One `SPEAKER <utt> 1 <tbeg> <tdur> <NA> <NA> <speaker> <NA> <NA>`
    line per segment, times with six decimal places."""
    with open(path, "w", encoding="utf-8") as f:
        for timeline in timelines:
            for seg in timeline.segments:
                f.write(
                    f"SPEAKER {timeline.utt} 1 {seg.start:.6f} "
                    f"{seg.duration:.6f} <NA> <NA> {seg.speaker} <NA> <NA>\n"
                )


def read_rttm(path) -> dict[str, Timeline]:
    """Parse an RTTM file into per-utterance timelines.  Tolerates repeated
    whitespace and blank lines; everything else is a FormatError naming the
    file and line."""
    out: dict[str, Timeline] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 9 or fields[0] != "SPEAKER":
                raise FormatError(
                    path, lineno,
                    "expected 'SPEAKER <utt> <chan> <tbeg> <tdur> <NA> <NA> <speaker> <NA> <NA>'",
                )
            try:
                tbeg = float(fields[3])
                tdur = float(fields[4])
            except ValueError:
                raise FormatError(
                    path, lineno, f"bad time fields {fields[3]!r} {fields[4]!r}"
                ) from None
            if tdur <= 0 or tbeg < 0:
                raise FormatError(
                    path, lineno, f"bad segment times tbeg={tbeg} tdur={tdur}"
                )
            utt = fields[1]
            timeline = out.setdefault(utt, Timeline(utt))
            timeline.segments.append(Segment(tbeg, tbeg + tdur, fields[7]))
    return out
