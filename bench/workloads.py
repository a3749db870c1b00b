"""The benchmark's workloads.

Each one fixes a generating model (seeded weights, scaled up so that
speakers separate, as in acceptance criterion 07) and the sizes of what is
drawn from it; the run's ``--seed`` only seeds the draws.
"""

from dataclasses import dataclass

# Shared by every workload: scoring collar and seconds per embedding step,
# the seeds of the generating and the initial model's weights, the
# training's gradient clip, and the minibatch iterations of the CLI's train.
COLLAR = 0.25
SEGMENT_DURATION = 0.4
GENERATOR_SEED = 101
STUDENT_SEED = 7
GRAD_CLIP_NORM = 100.0
CLI_ITERATIONS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # shape of the net: input dim d, hidden H, head F
    dim: int
    hidden: int
    fc: int
    # generating model
    weight_scale: float
    sigma2: float
    alpha: float
    p0: float
    # corpora: utterances x steps
    train_utts: int
    held_utts: int
    length: int
    # training stage
    batch_size: int
    iterations: int
    step_size: float
    # decoding stages
    beam: int
    max_speakers: int | None
    # scoring stage: every held-out pair is scored der_repeats times
    der_repeats: int
    # command-line pipeline: sample, train (at batch_size), decode, eval
    cli_utts: int
    cli_length: int
    # upper bound on the DER of decoding held-out data with the generating
    # model, aggregated over the held-out set
    der_bound: float
    # when set, the held-out utterances are the held_utts of held_draws
    # draws whose speaker counts are nearest held_speakers (a stable sort,
    # so ties keep draw order); this keeps the decoder's work per step
    # alike across seeds
    held_speakers: float | None = None
    held_draws: int = 0
    # reference work for rescaling times (see calibration.py): cell steps
    # at this shape, and the seconds they take at the machine's usual speed
    calibration_steps: int = 300
    calibration_s: float = 6e-3


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="short-calls-toy",
            why="many 50-step utterances at d=8, H=F=16: per-step Python in "
            "trainer and net dominates; BLAS, der and file I/O do little",
            dim=8, hidden=16, fc=16,
            weight_scale=5.0, sigma2=0.05, alpha=1.0, p0=0.8,
            train_utts=100, held_utts=40, length=50,
            batch_size=25, iterations=4, step_size=3e-4,
            beam=4, max_speakers=None,
            der_repeats=12,
            cli_utts=25, cli_length=50,
            der_bound=0.35,
        ),
        Workload(
            name="long-meetings-toy",
            why="few 2000-step utterances with about 8 speakers and ~1500 "
            "segments each: decoder cost grows with beam x speakers, der "
            "cost with segments squared",
            dim=8, hidden=16, fc=16,
            weight_scale=8.0, sigma2=0.02, alpha=0.8, p0=0.25,
            train_utts=4, held_utts=1, length=2000, held_speakers=8, held_draws=8,
            batch_size=2, iterations=1, step_size=3e-5,
            beam=8, max_speakers=8,
            der_repeats=1,
            cli_utts=2, cli_length=400,
            der_bound=0.5,
        ),
        Workload(
            name="paper-shape",
            why="short utterances at d=256, H=F=512: BLAS matrix-vector "
            "products and a 34 MB JSON checkpoint dominate",
            dim=256, hidden=512, fc=512,
            weight_scale=5.0, sigma2=0.05, alpha=1.0, p0=0.8,
            train_utts=8, held_utts=8, length=40,
            batch_size=4, iterations=1, step_size=3e-4,
            beam=4, max_speakers=None,
            der_repeats=50,
            cli_utts=4, cli_length=20,
            der_bound=0.1,
            calibration_steps=8, calibration_s=5e-3,
        ),
    ]
}
