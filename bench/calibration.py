"""Reference work that measures how fast the machine runs at the moment.

On a machine shared with other tenants the same work can take 1.6 times
as long for tens of seconds at a time, longer than one benchmark run.  The
run therefore times fixed pieces of reference work between its stages
and rescales each stage's wall-clock time by how much slower or faster
than usual the matching reference work ran in that round.  The reference
work is the oracle's GRU cell and head (``oracles.cell`` and
``oracles.head``) stepped at a given shape: at the toy shape it is
interpreter-bound, like diarnn at that shape and like scoring and JSON
I/O at any shape; at the paper shape it is bound by matrix-vector
products, like diarnn's training and decoding there.  It calls nothing in
diarnn, so a change to diarnn moves the rescaled times as much as the raw
ones.
"""

import math
import statistics
from time import perf_counter

import numpy as np

import oracles


class Calibration:
    """``steps`` cell-and-head steps at (dim, hidden, fc) with fixed
    weights, which take ``usual_s`` seconds when the machine runs at its
    usual speed.  Calling it times them three times over and returns the
    three timings in seconds.  A round is rescaled by the median of many
    such timings, which, unlike the best of them, shares the slow moments
    the stages it rescales also meet."""

    def __init__(self, dim: int, hidden: int, fc: int, steps: int, usual_s: float):
        self.shape = (dim, hidden, fc)
        self.usual_s = usual_s
        rng = np.random.default_rng(0)
        shapes = {
            "w_update": (hidden, dim), "u_update": (hidden, hidden), "b_update": (hidden,),
            "w_reset": (hidden, dim), "u_reset": (hidden, hidden), "b_reset": (hidden,),
            "w_cand": (hidden, dim), "u_cand": (hidden, hidden), "b_cand": (hidden,),
            "w_fc1": (fc, hidden), "b_fc1": (fc,), "w_fc2": (dim, fc), "b_fc2": (dim,),
        }
        self.weights = {
            name: rng.uniform(-1.0, 1.0, shape) / math.sqrt(shape[-1])
            for name, shape in shapes.items()
        }
        self.inputs = rng.standard_normal((steps, dim))
        self.hidden = hidden

    def __call__(self) -> list[float]:
        times = []
        for _ in range(3):
            start = perf_counter()
            h = np.zeros(self.hidden)
            for x in self.inputs:
                h = oracles.cell(self.weights, x, h)
                oracles.head(self.weights, h, False)
            times.append(perf_counter() - start)
        return times


class Speedometer:
    """The reference works a run rescales by: interpreter-bound work, and
    work at the workload's own shape (the same work at the toy shape)."""

    def __init__(self, shape: Calibration):
        interpreter = Calibration(8, 16, 16, steps=300, usual_s=6e-3)
        if shape.shape == interpreter.shape:
            shape = interpreter
        self.works = {"interpreter": interpreter, "shape": shape}

    def read(self, timings: dict[str, list[float]]) -> None:
        """Time every reference work and add the timings to ``timings``."""
        taken = {}
        for kind, work in self.works.items():
            if id(work) not in taken:
                taken[id(work)] = work()
            timings.setdefault(kind, []).extend(taken[id(work)])

    def speed(self, kind: str, timings: list[float]) -> float:
        """How fast the machine ran, as a share of its usual speed, judged
        by the median of these timings of one kind of reference work."""
        return self.works[kind].usual_s / statistics.median(timings)
