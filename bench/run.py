"""Train / decode / score benchmark for diarnn.

    python3 bench/run.py --workload short-calls-toy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; diarnn is imported from its ``src``.  The
run draws the workload's corpora from ``--seed``, then repeats whole rounds
of five stages until ``--seconds`` is used up:

    train          diarnn.train for a fixed number of minibatch iterations
    decode_greedy  decode_greedy over the held-out utterances
    decode_beam    decode_beam over the held-out utterances
    der            der of every held-out reference against both decodes
    cli            diarnn sample -> train -> decode -> eval via diarnn.cli.main

Every output of the first round is checked against the oracles in
``oracles.py`` and properties the method must have; later rounds must
reproduce it exactly.  ``--trace 1`` alternates untraced rounds with
rounds that have every public diarnn function wrapped (see
``tracing.py``), and reports per-layer metrics, and the tracing overhead
per stage, in place of the end-to-end ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Files go to ``bench/out/``.

``setup_s`` is one cold set-up per run: diarnn's import and ``setup``,
not the interpreter's start, numpy's and scipy's imports or the removal
of the previous run's files.  A second set-up in the same process would
be a warm one, which measures another thing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
if not (SRC / "diarnn" / "__init__.py").is_file():
    sys.exit(f"error: diarnn sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from calibration import Calibration, Speedometer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CLI_ITERATIONS, COLLAR, GENERATOR_SEED, GRAD_CLIP_NORM, SEGMENT_DURATION, STUDENT_SEED,
    WORKLOADS,
)

# diarnn's own import is part of the set-up time; numpy and scipy, which
# it imports too, are loaded above and are not.
_import_start = perf_counter()
from diarnn import cli, decoder, metrics, model, net, trainer  # noqa: E402
from diarnn import io as dio  # noqa: E402

DIARNN_IMPORT_S = perf_counter() - _import_start

STAGES = ("train", "decode_greedy", "decode_beam", "der", "cli")

# Which reference work rescales each stage's time (see calibration.py):
# the workload's own shape for the net-bound stages, the toy shape for the
# interpreter-bound ones.
STAGE_CALIBRATION = {
    "train": "shape", "decode_greedy": "shape", "decode_beam": "shape",
    "der": "interpreter", "cli": "interpreter",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "decode_greedy_steps_per_s": "steps/s",
    "decode_beam_steps_per_s": "steps/s",
    "der_segments_per_s": "segments/s",
    "cli_pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from spans: (metric, span name, statistic, stage
# whose instances the spans are taken from).  "calls" counts the spans in
# one instance of the stage; the others are medians over every call in
# every traced instance, in the unit the metric name ends with.
SPAN_METRICS = [
    ("trainer.minibatch_step.ms", "trainer.minibatch_step", "ms", "train"),
    ("trainer.minibatch_step.self_ms", "trainer.minibatch_step", "self_ms", "train"),
    ("trainer.minibatch_step.calls", "trainer.minibatch_step", "calls", "train"),
    ("net.backward_gradients.ms", "net.backward_gradients", "ms", "train"),
    ("net.backward_gradients.calls", "net.backward_gradients", "calls", "train"),
    ("prior.grad_alpha.us", "prior.grad_alpha", "us", "train"),
    ("prior.sequence_assignment_log_prob.us", "prior.sequence_assignment_log_prob", "us", "train"),
    ("decoder.decode_beam.self_ms", "decoder.decode_beam", "self_ms", "decode_beam"),
    ("decoder.step_scores.us", "decoder.step_scores", "us", "decode_beam"),
    ("decoder.step_scores.calls", "decoder.step_scores", "calls", "decode_beam"),
    ("decoder.advance_hypothesis.us", "decoder.advance_hypothesis", "us", "decode_beam"),
    ("decoder.advance_hypothesis.calls", "decoder.advance_hypothesis", "calls", "decode_beam"),
    ("net.gaussian_log_pdf.us", "net.gaussian_log_pdf", "us", "decode_beam"),
    ("net.gaussian_log_pdf.calls", "net.gaussian_log_pdf", "calls", "decode_beam"),
    ("net.advance_thread.us", "net.advance_thread", "us", "decode_beam"),
    ("net.advance_thread.calls", "net.advance_thread", "calls", "decode_beam"),
    ("prior.assignment_candidates.us", "prior.assignment_candidates", "us", "decode_beam"),
    ("prior.assignment_candidates.calls", "prior.assignment_candidates", "calls", "decode_beam"),
    ("sequences.update_block_counts.us", "sequences.update_block_counts", "us", "decode_beam"),
    ("metrics.der.ms", "metrics.der", "ms", "der"),
    ("metrics.der.self_ms", "metrics.der", "self_ms", "der"),
    ("metrics.scored_regions.ms", "metrics.scored_regions", "ms", "der"),
    ("metrics.optimal_mapping.ms", "metrics.optimal_mapping", "ms", "der"),
    ("io.save_corpus.ms", "io.save_corpus", "ms", "cli"),
    ("io.load_corpus.ms", "io.load_corpus", "ms", "cli"),
    ("io.save_checkpoint.ms", "io.save_checkpoint", "ms", "cli"),
    ("io.load_checkpoint.ms", "io.load_checkpoint", "ms", "cli"),
    ("metrics.write_rttm.ms", "metrics.write_rttm", "ms", "cli"),
    ("metrics.read_rttm.ms", "metrics.read_rttm", "ms", "cli"),
    ("cli.sample_s", "cli.sample", "s", "cli"),
    ("cli.train_s", "cli.train", "s", "cli"),
    ("cli.decode_s", "cli.decode", "s", "cli"),
    ("cli.eval_s", "cli.eval", "s", "cli"),
]
SCALE = {"s": 1.0, "ms": 1e3, "self_ms": 1e3, "us": 1e6}


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = {}
    for metric, _, stat, _ in SPAN_METRICS:
        units[metric] = "count" if stat == "calls" else stat.replace("self_", "")
    units.update({
        "decoder.candidates_per_step": "count",
        "io.corpus_bytes": "bytes",
        "io.checkpoint_bytes": "bytes",
        "io.sample_utterance.us_per_step": "us",
        "trainer.padding_efficiency": "ratio",
        "trainer.threads_per_minibatch": "count",
    })
    for stage in STAGES:
        units[f"trace.{stage}.traced_ms"] = "ms"
        units[f"trace.{stage}.overhead_ms"] = "ms"
    return units


@dataclass
class Data:
    """Everything the set-up makes: models, corpora and files."""

    generator: model.ModelParams
    student: model.ModelParams
    train_set: list
    held: list
    held_refs: list  # Timeline per held-out utterance
    train_config: trainer.TrainConfig
    gen_ckpt: Path
    cli_config: Path
    work: Path
    steps_sampled: int


@dataclass
class Round:
    ops: dict[str, list[float]] = field(default_factory=dict)  # seconds per operation
    # reference-work timings in seconds, by kind, taken before each stage
    # and after the last
    calibration: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    work: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    trained: model.ModelParams | None = None
    train_report: trainer.TrainReport | None = None
    greedy: list = field(default_factory=list)
    beam: list = field(default_factory=list)
    scored: list = field(default_factory=list)  # (ref, hyp, DerResult)
    cli: dict = field(default_factory=dict)
    fingerprint: tuple | None = None

    def shed(self) -> None:
        """Drop the outputs, keeping the fingerprint, so that the memory a
        run holds does not grow with the rounds that fit in it."""
        self.trained = self.train_report = None
        self.greedy, self.beam, self.scored, self.cli = [], [], [], {}


def setup(w, seed: int, work: Path) -> Data:
    generator = model.init_model_params(
        w.dim, w.hidden, w.fc, seed=GENERATOR_SEED, sigma2=w.sigma2, alpha=w.alpha, p0=w.p0
    )
    for arr in generator.net.tensor_dict().values():
        arr *= w.weight_scale
    rng = np.random.default_rng(seed)
    draws = [dio.sample_utterance(generator, w.length, rng)
             for _ in range(w.train_utts + max(w.held_utts, w.held_draws))]
    train_set, held = draws[: w.train_utts], draws[w.train_utts :]
    if w.held_speakers is not None:
        held.sort(key=lambda draw: abs(draw[1].num_speakers - w.held_speakers))
    held = held[: w.held_utts]
    student = model.init_model_params(w.dim, w.hidden, w.fc, seed=STUDENT_SEED, sigma2=1.0)
    config = trainer.TrainConfig(
        step_size=w.step_size, batch_size=w.batch_size, max_iterations=w.iterations,
        grad_clip_norm=GRAD_CLIP_NORM, seed=seed, hidden_dim=w.hidden, fc_dim=w.fc,
    )
    work.mkdir(parents=True)
    gen_ckpt = work / "generator.json"
    dio.save_checkpoint(gen_ckpt, generator)
    cli_config = work / "train_config.json"
    cli_config.write_text(json.dumps({
        "step_size": w.step_size, "batch_size": w.batch_size,
        "max_iterations": CLI_ITERATIONS, "grad_clip_norm": GRAD_CLIP_NORM,
        "hidden_dim": w.hidden, "fc_dim": w.fc,
    }))
    refs = [
        metrics.labels_to_timeline(labels, SEGMENT_DURATION, utt=f"held-{i}")
        for i, (_, labels) in enumerate(held)
    ]
    return Data(generator, student, train_set, held, refs, config, gen_ckpt, cli_config,
                work, len(draws) * w.length)


def _op(rnd: Round, stage: str, fn, *args, count: int = 1, **kwargs):
    """Run, time and count one operation; a failure is counted, not raised,
    and gives None."""
    rnd.attempted += count
    start = perf_counter()
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted; the checks see the missing result
        rnd.failed += count
        rnd.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
        return None
    finally:
        rnd.ops.setdefault(stage, []).append(perf_counter() - start)


def _cli_stage(w, data, seed, rnd, span):
    d = data.work
    corpus, ckpt, hyp = d / "cli_corpus.jsonl", d / "cli_model.json", d / "cli_hyp.jsonl"
    ref = d / "cli_ref.rttm"

    def main(argv):
        out, err = io.StringIO(), io.StringIO()
        with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"diarnn {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def command(argv):
        out = _op(rnd, "cli", main, argv)
        if out is None:
            rnd.cli.setdefault("errors", []).append(argv[0])
        return out

    def write_ref():
        sampled = dio.load_corpus(corpus)
        metrics.write_rttm([metrics.labels_to_timeline(u.labels, SEGMENT_DURATION, utt=u.utt)
                            for u in sampled], ref)
        return sampled

    command(["sample", "--ckpt", data.gen_ckpt, "--num", w.cli_utts, "--len", w.cli_length,
             "--out", corpus, "--seed", seed])
    sampled = _op(rnd, "cli", write_ref, count=0)
    command(["train", "--corpus", corpus, "--out", ckpt, "--config", data.cli_config,
             "--seed", seed])
    beam = ["--beam", w.beam] + ([] if w.max_speakers is None else
                                 ["--max-speakers", w.max_speakers])
    command(["decode", "--corpus", corpus, "--ckpt", ckpt, "--out", hyp, *beam])
    report = command(["eval", "--ref", ref, "--hyp", f"{hyp}.rttm", "--collar", COLLAR])
    rnd.work["cli"] = 1
    rnd.cli.update(
        corpus=sampled, ckpt=ckpt, eval=report or "",
        hyp=hyp.read_text() if hyp.exists() else "",
        corpus_bytes=corpus.stat().st_size if corpus.exists() else 0,
        checkpoint_bytes=ckpt.stat().st_size if ckpt.exists() else 0,
        checkpoint_sha=hashlib.sha256(ckpt.read_bytes()).hexdigest() if ckpt.exists() else "",
    )


def run_round(w, data: Data, seed: int, span, speedometer) -> Round:
    rnd = Round()
    init = data.student.copy()
    speedometer.read(rnd.calibration)
    with span("stage.train"):
        out = _op(rnd, "train", trainer.train, data.train_set, data.train_config,
                  init_params=init, count=w.iterations * w.batch_size)
    rnd.trained, rnd.train_report = out if out else (None, None)
    iterations = rnd.train_report.iterations if rnd.train_report else 0
    rnd.work["train"] = iterations * w.batch_size * w.length

    greedy = decoder.DecodeConfig(max_speakers=w.max_speakers)
    beam = decoder.DecodeConfig(beam_width=w.beam, max_speakers=w.max_speakers)
    for stage, fn, config in (("decode_greedy", decoder.decode_greedy, greedy),
                              ("decode_beam", decoder.decode_beam, beam)):
        speedometer.read(rnd.calibration)
        with span(f"stage.{stage}"):
            results = [_op(rnd, stage, fn, emb, data.generator, config) for emb, _ in data.held]
        setattr(rnd, stage.split("_")[1], results)
        rnd.work[stage] = sum(len(emb) for emb, _ in data.held)

    pairs = []
    for results in (rnd.greedy, rnd.beam):
        for ref, res in zip(data.held_refs, results):
            if res is not None:
                pairs.append((ref, metrics.labels_to_timeline(
                    res.labels, SEGMENT_DURATION, utt=ref.utt)))
    speedometer.read(rnd.calibration)
    with span("stage.der"):
        for _ in range(w.der_repeats):
            scores = [_op(rnd, "der", metrics.der, ref, hyp, collar=COLLAR)
                      for ref, hyp in pairs]
    rnd.scored = [(ref, hyp, res) for (ref, hyp), res in zip(pairs, scores) if res]
    rnd.work["der"] = w.der_repeats * sum(len(r.segments) + len(h.segments) for r, h in pairs)

    speedometer.read(rnd.calibration)
    with span("stage.cli"):
        _cli_stage(w, data, seed, rnd, span)
    speedometer.read(rnd.calibration)
    return rnd


def fingerprint(rnd: Round):
    """Everything a round outputs, to compare rounds exactly."""
    tensors = rnd.trained.net.tensor_dict() if rnd.trained else {}
    return (
        hashlib.sha256(b"".join(a.tobytes() for a in tensors.values())).hexdigest(),
        [(tuple(r.labels), r.log_prob) if r else None for r in rnd.greedy + rnd.beam],
        [(res.confusion_time, res.scored_time) for _, _, res in rnd.scored],
        rnd.cli.get("hyp"), rnd.cli.get("eval"), rnd.cli.get("checkpoint_sha"),
    )


def run_rounds(w, data, seed, seconds, tracers, speedometer) -> list[Round]:
    """Whole rounds while the next one, judged by the slowest of the last
    few, still fits.  Round i is traced by tracers[i % len(tracers)], or
    untraced where that is None, so traced and untraced rounds alternate
    and share whatever drift the machine has.  The first round of each
    kind keeps its outputs; later ones keep only their fingerprint.  There
    are at least two rounds, so the memory held at the peak, one kept
    round and one running, is the same whatever the round count."""
    rounds: list[Round] = []
    took: list[float] = []
    start = perf_counter()
    while len(rounds) < 2 or (
        perf_counter() - start + max(took[-len(tracers):]) <= seconds
    ):
        tracer = tracers[len(rounds) % len(tracers)]
        begin = perf_counter()
        if tracer is None:
            rounds.append(run_round(w, data, seed, lambda name: contextlib.nullcontext(),
                                    speedometer))
        else:
            tracer.install()
            try:
                rounds.append(run_round(w, data, seed, tracer.span, speedometer))
            finally:
                tracer.uninstall()
        rounds[-1].fingerprint = fingerprint(rounds[-1])
        if len(rounds) > len(tracers):
            rounds[-1].shed()
        took.append(perf_counter() - begin)
    return rounds


# ---- checks --------------------------------------------------------------

def _oracle(params, emb, labels):
    return oracles.replay_log_joint(
        emb.values, list(labels), params.net.tensor_dict(), params.emission.sigma2,
        params.prior.alpha, params.prior.p0, params.net.relu_output,
    )


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_gradients(data: Data) -> tuple[bool, str]:
    """backward_gradients against central differences of
    forward_log_likelihood along three random unit directions.  A unit
    step keeps the perturbation far from the head's ReLU kinks, which a
    direction with one unit per weight crosses at the paper shape."""
    emb, labels = data.train_set[0]
    n = min(len(labels), 12)
    X, Y = emb.values[:n], list(labels)[:n]
    p = data.student
    grads = net.backward_gradients(X, Y, p.net, p.emission)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(3):
        dirs = {k: rng.standard_normal(a.shape) for k, a in p.net.tensor_dict().items()}
        d_sigma = float(rng.standard_normal())
        norm = math.sqrt(sum(float((v * v).sum()) for v in dirs.values()) + d_sigma**2)
        dirs = {k: v / norm for k, v in dirs.items()}
        d_sigma /= norm
        analytic = sum(float((grads.net.tensor_dict()[k] * v).sum()) for k, v in dirs.items())
        analytic += grads.log_sigma2 * d_sigma

        def f(eps):
            q = p.copy()
            for k, v in dirs.items():
                getattr(q.net, k)[...] += eps * v
            q.emission.log_sigma2 += eps * d_sigma
            return net.forward_log_likelihood(X, Y, q.net, q.emission)[0]

        h = 1e-6
        numeric = (f(h) - f(-h)) / (2 * h)
        worst = max(worst, abs(numeric - analytic) / max(1.0, abs(analytic)))
    return worst <= 1e-5, f"worst relative gap {worst:.2e}"


def check_round(w, data: Data, rnd: Round) -> list[tuple[str, bool, str]]:
    out = []

    def check(name, ok, detail=""):
        out.append((name, bool(ok), detail))

    check("gradients match finite differences", *check_gradients(data))

    if rnd.trained is not None:
        pairs = sum(len(y) - 1 for _, y in data.train_set)
        same = sum(a == b for _, y in data.train_set for a, b in zip(list(y), list(y)[1:]))
        check("p0 after train is the no-change frequency",
              abs(rnd.trained.prior.p0 - same / pairs) <= 1e-12,
              f"{rnd.trained.prior.p0} vs {same / pairs}")
        before = sum(_oracle(data.student, e, y) for e, y in data.held)
        after = sum(_oracle(rnd.trained, e, y) for e, y in data.held)
        check("held-out log joint rises after training", after > before,
              f"{before:.3f} -> {after:.3f}")
        program = model.corpus_log_joint(data.held, rnd.trained)
        check("corpus_log_joint equals the replay oracle", _close(program, after),
              f"{program} vs {after}")

    cap = w.max_speakers if w.max_speakers is not None else math.inf
    for kind, results in (("greedy", rnd.greedy), ("beam", rnd.beam)):
        ok_lp = ok_canon = ok_counts = True
        for (emb, _), res in zip(data.held, results):
            if res is None:
                continue
            labels = list(res.labels)
            ok_canon &= oracles.is_canonical(labels)
            ok_lp &= _close(res.log_prob, _oracle(data.generator, emb, labels))
            counts = res.step_candidate_counts
            ok_counts &= len(counts) == len(labels) and counts[0] == 1
            for t in range(1, len(counts)):
                if kind == "greedy":
                    known = max(labels[:t])
                    ok_counts &= counts[t] == (known + 1 if known < cap else known)
                else:
                    ok_counts &= counts[t] <= min(w.beam, counts[t - 1]) * min(t + 1, cap)
        check(f"{kind} log_prob equals the replay oracle", ok_lp)
        check(f"{kind} labels are canonical", ok_canon)
        check(f"{kind} candidates per step within the bound", ok_counts)
        confusion = scored = 0.0
        for (_, truth), res in zip(data.held, results):
            if res is not None:
                c, s = oracles.frame_der(
                    oracles.label_segments(list(truth), SEGMENT_DURATION),
                    oracles.label_segments(list(res.labels), SEGMENT_DURATION), COLLAR)
                confusion, scored = confusion + c, scored + s
        check(f"{kind} DER against the true labels below {w.der_bound}",
              scored > 0 and confusion / scored < w.der_bound,
              f"DER {confusion / scored:.4f}" if scored else "nothing scored")

    same_as_greedy = all(
        g is not None and tuple(decoder.decode_beam(
            emb, data.generator, decoder.DecodeConfig(beam_width=1, max_speakers=w.max_speakers)
        ).labels) == tuple(g.labels)
        for (emb, _), g in zip(data.held, rnd.greedy)
    )
    check("beam width 1 returns greedy's labels", same_as_greedy)

    ok_der = ok_zero = True
    worst = 0.0
    for ref, hyp, res in rnd.scored:
        ref_segs = [(s.start, s.end, s.speaker) for s in ref.segments]
        c, s = oracles.frame_der(ref_segs, [(x.start, x.end, x.speaker) for x in hyp.segments],
                                 COLLAR)
        gap = max(abs(c - res.confusion_time), abs(s - res.scored_time))
        worst = max(worst, gap)
        ok_der &= gap <= 1e-6 * max(1.0, s)
    for ref in data.held_refs:
        ok_zero &= metrics.der(ref, ref, collar=COLLAR).der == 0.0
    check("der agrees with the frame oracle", ok_der, f"worst gap {worst:.2e} s")
    check("der(ref, ref) is 0", ok_zero)

    cli_out = rnd.cli
    if not cli_out.get("errors"):
        params = dio.load_checkpoint(cli_out["ckpt"])
        config = decoder.DecodeConfig(beam_width=w.beam, max_speakers=w.max_speakers)
        decoded = [json.loads(line) for line in cli_out["hyp"].splitlines()]
        same = len(decoded) == len(cli_out["corpus"]) and all(
            d["utt"] == u.utt
            and d["labels"] == list(decoder.decode_beam(u.embeddings, params, config).labels)
            for d, u in zip(decoded, cli_out["corpus"])
        )
        check("CLI decode equals in-process decode", same)
        confusion = scored = 0.0
        for d, u in zip(decoded, cli_out["corpus"]):
            c, s = oracles.frame_der(oracles.label_segments(list(u.labels), SEGMENT_DURATION),
                                     oracles.label_segments(d["labels"], SEGMENT_DURATION),
                                     COLLAR)
            confusion, scored = confusion + c, scored + s
        line = [x for x in cli_out["eval"].splitlines() if x.startswith("DER=")]
        printed = float(line[-1].split("=")[1]) if line else math.nan
        check("CLI DER= equals the frame oracle's",
              scored > 0 and abs(printed - confusion / scored) <= 5e-7 + 1e-12,
              f"{printed} vs {confusion / scored if scored else math.nan}")
    return out


# ---- metrics -------------------------------------------------------------

def stage_seconds(rounds: list[Round], speedometer) -> dict[str, float]:
    """Each stage's wall-clock seconds rescaled to the machine's usual
    speed (see ``calibration.py``): per round, the stage's time times the
    speed its reference work ran at between the round's stages; then the
    median over rounds."""
    return {
        stage: statistics.median(
            sum(r.ops[stage]) * speedometer.speed(
                STAGE_CALIBRATION[stage], r.calibration[STAGE_CALIBRATION[stage]])
            for r in rounds
        )
        for stage in STAGES
    }


def end_to_end(setup_s: float, rounds: list[Round], speedometer) -> dict[str, float]:
    seconds = stage_seconds(rounds, speedometer)

    def rate(stage):
        return rounds[0].work[stage] / seconds[stage]

    return {
        "setup_s": setup_s,
        "train_steps_per_s": rate("train"),
        "decode_greedy_steps_per_s": rate("decode_greedy"),
        "decode_beam_steps_per_s": rate("decode_beam"),
        "der_segments_per_s": rate("der"),
        "cli_pipeline_s": seconds["cli"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def padding(w, data: Data) -> tuple[float, float]:
    """Real steps over threads x longest thread, and speaker threads per
    minibatch, with the training corpus cut into consecutive batches."""
    real = padded = threads = 0
    batches = 0
    for lo in range(0, len(data.train_set) - w.batch_size + 1, w.batch_size):
        lengths = []
        for _, labels in data.train_set[lo : lo + w.batch_size]:
            labels = list(labels)
            lengths += [labels.count(k) for k in set(labels)]
        real += sum(lengths)
        padded += len(lengths) * max(lengths)
        threads += len(lengths)
        batches += 1
    return real / padded, threads / batches


def per_layer(w, data, tracer, setup_region, plain, traced, speedometer):
    spans = tracer.summary()
    values: dict[str, float] = {}
    unequal = []
    for metric, name, stat, stage in SPAN_METRICS:
        regions = tracer.regions[f"stage.{stage}"]
        if stat == "calls":
            counts = {spans.calls(name, r) for r in regions}
            if len(counts) != 1:
                unequal.append(metric)
            values[metric] = float(min(counts))
        else:
            pick = spans.self_times if stat == "self_ms" else spans.durations
            samples = pick(name, regions)
            values[metric] = float(np.median(samples)) * SCALE[stat] if len(samples) else math.nan
    beam_steps = sum(len(r.step_candidate_counts) for r in traced[0].beam if r)
    values["decoder.candidates_per_step"] = (
        sum(sum(r.step_candidate_counts) for r in traced[0].beam if r) / beam_steps
    )
    values["io.corpus_bytes"] = float(traced[0].cli["corpus_bytes"])
    values["io.checkpoint_bytes"] = float(traced[0].cli["checkpoint_bytes"])
    values["io.sample_utterance.us_per_step"] = (
        float(spans.durations("io.sample_utterance", [setup_region]).sum())
        / data.steps_sampled * 1e6
    )
    values["trainer.padding_efficiency"], values["trainer.threads_per_minibatch"] = padding(w, data)
    before, after = stage_seconds(plain, speedometer), stage_seconds(traced, speedometer)
    for stage in STAGES:
        values[f"trace.{stage}.traced_ms"] = after[stage] * 1e3
        values[f"trace.{stage}.overhead_ms"] = (after[stage] - before[stage]) * 1e3
    return values, unequal


def gru_step_cost(w) -> dict[str, int]:
    """Computed cost of one cell step plus head for one speaker thread:
    matrix-vector flops, and bytes of float64 weights read."""
    d, h, f = w.dim, w.hidden, w.fc
    macs = 3 * (h * d + h * h) + f * h + d * f
    return {"flops": 2 * macs, "weight_bytes": 8 * (macs + 3 * h + f + d)}


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": models[0] if models else platform.processor(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


# ---- main ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    work = OUT / w.name
    shutil.rmtree(work, ignore_errors=True)
    speedometer = Speedometer(
        Calibration(w.dim, w.hidden, w.fc, w.calibration_steps, w.calibration_s))
    # the set-up is rescaled by the interpreter-bound reference work timed
    # right before and right after it
    around_setup: dict[str, list[float]] = {}
    speedometer.read(around_setup)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        with tracer.span("stage.setup"):
            data = setup(w, args.seed, work)
        tracer.uninstall()
    else:
        start = perf_counter()
        data = setup(w, args.seed, work)
        setup_s = DIARNN_IMPORT_S + perf_counter() - start
    speedometer.read(around_setup)
    setup_speed = speedometer.speed("interpreter", around_setup["interpreter"])
    rounds = run_rounds(w, data, args.seed, args.seconds, [None, tracer] if tracer else [None],
                        speedometer)
    plain, traced = (rounds[0::2], rounds[1::2]) if tracer else (rounds, [])

    results = check_round(w, data, rounds[0])
    results.append(("every round reproduces the first",
                    all(r.fingerprint == rounds[0].fingerprint for r in rounds[1:]),
                    f"{len(rounds)} rounds"))

    if tracer:
        values, unequal = per_layer(w, data, tracer, tracer.regions["stage.setup"][0],
                                    plain, traced, speedometer)
        results.append(("span counts repeat in every traced round", not unequal,
                        ", ".join(unequal)))
        units = per_layer_units()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{w.name}-spans.npz")
        (OUT / f"{w.name}-trace.json").write_text(json.dumps({
            "workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "machine": machine(), "gru_step": gru_step_cost(w),
            "rounds": {"untraced": len(plain), "traced": len(traced)},
            "corpus": {
                "train_speakers": [y.num_speakers for _, y in data.train_set],
                "held_speakers": [y.num_speakers for _, y in data.held],
                "held_segments": [len(ref.segments) for ref in data.held_refs],
            },
            "untraced_stage_ms": {s: v * 1e3 for s, v in stage_seconds(plain, speedometer).items()},
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }, indent=1))
    else:
        values = end_to_end(setup_s * setup_speed, rounds, speedometer)
        units = END_TO_END_UNITS

    correct = all(ok for _, ok, _ in results)
    for error in sorted({e for r in rounds for e in r.errors}):
        print(f"failed operation: {error}", file=sys.stderr)
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for kind, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"{kind} rounds={len(group)} rescaled stage ms: " + " ".join(
                f"{s}={v * 1e3:.1f}" for s, v in stage_seconds(group, speedometer).items()))
            print(f"{kind} rounds={len(group)} raw stage ms: " + " ".join(
                f"{s}={statistics.median(sum(r.ops[s]) for r in group) * 1e3:.1f}"
                for s in STAGES))
    for name in units:
        print(f"{name} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
