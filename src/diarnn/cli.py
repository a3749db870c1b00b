"""Command-line entry point: train, decode, eval, sample.

Each subcommand reads and writes plain files (JSON-lines corpora, JSON
checkpoints, RTTM timelines) so runs can be scripted and diffed.  All
failures surface as "error: ..." on stderr with exit code 1; argparse
usage problems exit with code 2.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .decoder import DecodeConfig, decode_beam
from .errors import FormatError, NothingToScoreError, TrainingError
from .io import (
    Utterance,
    load_checkpoint,
    load_corpus,
    sample_utterance,
    save_checkpoint,
    save_corpus,
)
from .metrics import Timeline, der, labels_to_timeline, read_rttm, write_rttm
from .trainer import TrainConfig, train

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diarnn",
        description="Sequence segmentation and speaker clustering with a "
        "recurrent generative model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit model parameters on a labeled corpus")
    p_train.add_argument("--corpus", required=True, help="JSON-lines corpus with labels")
    p_train.add_argument("--out", required=True, help="checkpoint path to write")
    p_train.add_argument("--config", help="JSON file of training options")
    p_train.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_train.add_argument("--log", help="progress log path (default: <out>.log)")

    p_decode = sub.add_parser("decode", help="assign speaker labels to embeddings")
    p_decode.add_argument("--corpus", required=True, help="JSON-lines corpus (labels ignored)")
    p_decode.add_argument("--ckpt", required=True, help="checkpoint to decode with")
    p_decode.add_argument("--out", required=True, help="JSON-lines output path")
    p_decode.add_argument("--beam", type=int, default=1, help="beam width (default 1)")
    p_decode.add_argument("--max-speakers", type=int, default=None,
                          help="cap on distinct speakers per utterance")
    p_decode.add_argument("--segment-duration", type=float, default=0.4,
                          help="seconds per step for the RTTM timeline (default 0.4)")
    p_decode.add_argument("--rttm", help="RTTM output path (default: <out>.rttm)")
    p_decode.add_argument("--workers", type=int, default=1,
                          help="accepted for compatibility and ignored: utterances "
                          "are decoded one after another (default 1)")

    p_eval = sub.add_parser("eval", help="score hypothesis RTTM against reference RTTM")
    p_eval.add_argument("--ref", required=True, help="reference RTTM")
    p_eval.add_argument("--hyp", required=True, help="hypothesis RTTM")
    p_eval.add_argument("--collar", type=float, default=0.25,
                        help="seconds forgiven around each reference boundary (default 0.25)")
    p_eval.add_argument("--keep-overlap", action="store_true",
                        help="score regions where multiple reference speakers talk")

    p_sample = sub.add_parser("sample", help="draw utterances from a trained model")
    p_sample.add_argument("--ckpt", required=True, help="checkpoint to sample from")
    p_sample.add_argument("--num", type=int, required=True, help="number of utterances")
    p_sample.add_argument("--len", type=int, required=True, dest="length",
                          help="steps per utterance")
    p_sample.add_argument("--out", required=True, help="JSON-lines output path")
    p_sample.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    return parser


def _load_train_config(path, seed) -> TrainConfig:
    if path is None:
        return TrainConfig(seed=seed)
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise FormatError(path, 1, "training config must be a JSON object")
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise FormatError(path, 1, f"unknown training options: {', '.join(unknown)}")
    obj.setdefault("seed", seed)
    return TrainConfig(**obj)


def _cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    missing = [u.utt for u in corpus if u.labels is None]
    if missing:
        raise ValueError(
            f"training corpus must be fully labeled; missing labels for {missing[0]}"
        )
    config = _load_train_config(args.config, args.seed)
    log_path = args.log if args.log is not None else args.out + ".log"
    with open(log_path, "w", encoding="utf-8") as log_stream:
        params, report = train(
            [(u.embeddings, u.labels) for u in corpus],
            config,
            utt_ids=[u.utt for u in corpus],
            log_stream=log_stream,
        )
        log_stream.write(
            f"done iterations={report.iterations} reason={report.stop_reason}\n"
        )
    save_checkpoint(
        args.out, params,
        train_config=dataclasses.asdict(config),
        seed=config.seed,
    )
    print(
        f"trained {report.iterations} iterations ({report.stop_reason}); "
        f"checkpoint written to {args.out}"
    )
    return 0


def _cmd_decode(args) -> int:
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    corpus = load_corpus(args.corpus)
    params = load_checkpoint(args.ckpt)
    config = DecodeConfig(beam_width=args.beam, max_speakers=args.max_speakers)
    results = [decode_beam(u.embeddings, params, config) for u in corpus]

    rttm_path = args.rttm if args.rttm is not None else args.out + ".rttm"
    timelines = []
    with open(args.out, "w", encoding="utf-8") as f:
        for utt, result in zip(corpus, results):
            f.write(json.dumps(
                {"utt": utt.utt, "labels": [int(v) for v in result.labels]}
            ) + "\n")
            timelines.append(
                labels_to_timeline(result.labels, args.segment_duration, utt=utt.utt)
            )
    write_rttm(timelines, rttm_path)
    print(f"decoded {len(corpus)} utterances to {args.out} and {rttm_path}")
    return 0


def _cmd_eval(args) -> int:
    ref = read_rttm(args.ref)
    if not ref:
        raise FormatError(args.ref, 0, "no reference segments")
    hyp = read_rttm(args.hyp)
    total_confusion = 0.0
    total_scored = 0.0
    for utt in sorted(ref):
        hyp_timeline = hyp.get(utt, Timeline(utt, []))
        try:
            result = der(
                ref[utt], hyp_timeline,
                collar=args.collar,
                exclude_overlap=not args.keep_overlap,
            )
        except NothingToScoreError:
            print(f"utt={utt} skip reason=no-scorable-time")
            continue
        total_confusion += result.confusion_time
        total_scored += result.scored_time
        print(
            f"utt={utt} der={result.der:.6f} "
            f"confusion={result.confusion_time:.6f} scored={result.scored_time:.6f}"
        )
    if total_scored == 0.0:
        raise ValueError(f"no utterance in {args.ref} has scorable time")
    print(f"DER={total_confusion / total_scored:.6f}")
    return 0


def _cmd_sample(args) -> int:
    if args.num < 1:
        raise ValueError(f"num must be at least 1, got {args.num}")
    params = load_checkpoint(args.ckpt)
    rng = np.random.default_rng(args.seed)
    utterances = []
    for i in range(args.num):
        emb, labels = sample_utterance(params, args.length, rng)
        utterances.append(Utterance(f"sample-{i:05d}", emb, labels))
    save_corpus(utterances, args.out)
    print(f"sampled {args.num} utterances of length {args.length} to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, TrainingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
