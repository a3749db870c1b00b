"""End-to-end checks of the command-line surface, run in-process via main()."""

import json

import numpy as np
import pytest

from diarnn.cli import main
from diarnn.io import Utterance, load_corpus, save_checkpoint, save_corpus
from diarnn.metrics import labels_to_timeline, write_rttm
from diarnn.model import init_model_params
from diarnn.sequences import EmbeddingSequence, LabelSequence, canonicalize


def _seed_checkpoint(tmp_path, *, input_dim=2, sigma2=0.25, p0=0.8):
    path = tmp_path / "seed.json"
    params = init_model_params(input_dim, 3, 3, seed=7, sigma2=sigma2, p0=p0)
    save_checkpoint(path, params)
    return str(path)


def _tiny_labeled_corpus(tmp_path, name="train.jsonl", n=4, length=12):
    rng = np.random.default_rng(11)
    utterances = []
    for i in range(n):
        raw = []
        label = 1
        for _ in range(length):
            if rng.random() < 0.25:
                label = label + 1 if label < 3 else 1
            raw.append(label)
        labels = canonicalize(raw)
        emb = EmbeddingSequence(rng.normal(size=(length, 2)))
        utterances.append(Utterance(f"u{i}", emb, labels))
    path = tmp_path / name
    save_corpus(utterances, path)
    return str(path)


def _train_config(tmp_path, **overrides):
    cfg = {"max_iterations": 3, "step_size": 1e-4, "batch_size": 2,
           "hidden_dim": 3, "fc_dim": 3, "grad_clip_norm": 10.0}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------------ arg errors

def test_unknown_flag_exits_2(capsys):
    assert main(["decode", "--nonsense"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_malformed_corpus_reports_location(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        json.dumps({"utt": "a", "embeddings": [[0.0]], "labels": [1]}) + "\n{bad\n"
    )
    code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "c.jsonl:2:" in captured.err


def test_unknown_config_key_rejected(tmp_path, capsys):
    corpus = _tiny_labeled_corpus(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}))
    code = main(["train", "--corpus", corpus, "--out", str(tmp_path / "m.json"),
                 "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown training option" in captured.err
    assert "learning_rate" in captured.err


def test_unlabeled_corpus_rejected_for_training(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "u.jsonl"
    save_corpus([Utterance("u0", EmbeddingSequence(rng.normal(size=(3, 2))), None)], path)
    code = main(["train", "--corpus", str(path), "--out", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "labeled" in captured.err


def test_missing_checkpoint_file(tmp_path, capsys):
    corpus = _tiny_labeled_corpus(tmp_path)
    code = main(["decode", "--corpus", corpus,
                 "--ckpt", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "h.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")


# ---------------------------------------------------------------- determinism

def test_train_is_byte_deterministic(tmp_path, capsys):
    corpus = _tiny_labeled_corpus(tmp_path)
    cfg = _train_config(tmp_path)
    outs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        assert main(["train", "--corpus", corpus, "--out", str(out),
                     "--config", cfg, "--seed", "5"]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_decode_workers_do_not_change_output(tmp_path, capsys):
    corpus = _tiny_labeled_corpus(tmp_path, n=6)
    ckpt = _seed_checkpoint(tmp_path)
    payloads = []
    for workers, tag in (("1", "a"), ("3", "b")):
        out = tmp_path / f"h_{tag}.jsonl"
        rttm = tmp_path / f"h_{tag}.rttm"
        assert main(["decode", "--corpus", corpus, "--ckpt", ckpt,
                     "--out", str(out), "--rttm", str(rttm),
                     "--workers", workers]) == 0
        payloads.append((out.read_bytes(), rttm.read_bytes()))
    capsys.readouterr()
    assert payloads[0] == payloads[1]


# -------------------------------------------------------------------- decode

def test_decode_writes_jsonl_and_default_rttm(tmp_path, capsys):
    corpus = _tiny_labeled_corpus(tmp_path, n=2, length=5)
    ckpt = _seed_checkpoint(tmp_path)
    out = tmp_path / "hyp.jsonl"
    assert main(["decode", "--corpus", corpus, "--ckpt", ckpt,
                 "--out", str(out), "--beam", "4"]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["utt"] == "u0"
    assert len(first["labels"]) == 5
    assert first["labels"][0] == 1
    rttm_lines = (tmp_path / "hyp.jsonl.rttm").read_text().splitlines()
    assert all(line.startswith("SPEAKER ") for line in rttm_lines)


def test_decode_respects_speaker_cap(tmp_path, capsys):
    corpus = _tiny_labeled_corpus(tmp_path, n=3, length=15)
    ckpt = _seed_checkpoint(tmp_path)
    out = tmp_path / "hyp.jsonl"
    assert main(["decode", "--corpus", corpus, "--ckpt", ckpt,
                 "--out", str(out), "--max-speakers", "2"]) == 0
    capsys.readouterr()
    for line in out.read_text().splitlines():
        assert max(json.loads(line)["labels"]) <= 2


# ---------------------------------------------------------------------- eval

def test_eval_identical_timelines_scores_zero(tmp_path, capsys):
    corpus = load_corpus(_tiny_labeled_corpus(tmp_path, n=3))
    rttm = tmp_path / "ref.rttm"
    write_rttm([labels_to_timeline(u.labels, 0.4, utt=u.utt) for u in corpus], rttm)
    assert main(["eval", "--ref", str(rttm), "--hyp", str(rttm)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "DER=0.000000"
    assert "utt=u0 der=0.000000" in out


def test_eval_reports_per_utterance_then_aggregate(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    write_rttm([labels_to_timeline(LabelSequence((1, 1, 2, 2)), 1.0, utt="m")], ref)
    # Second half attributed to the wrong cluster: half the scored time confused.
    write_rttm([labels_to_timeline(LabelSequence((1, 1, 1, 1)), 1.0, utt="m")], hyp)
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--collar", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("utt=m der=0.500000")
    assert out[-1] == "DER=0.500000"


def test_eval_tolerates_missing_hypothesis_utterance(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    write_rttm([labels_to_timeline(LabelSequence((1, 1)), 1.0, utt="m")], ref)
    write_rttm([], hyp)
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp)]) == 0
    out = capsys.readouterr().out
    assert "utt=m" in out


def test_eval_empty_reference_is_an_error(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    ref.write_text("")
    write_rttm([labels_to_timeline(LabelSequence((1, 1)), 1.0, utt="m")], hyp)
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {ref}:0: ")
    assert "DER=" not in captured.out


def test_eval_skips_utterance_without_scorable_time(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    # At a 0.25 s collar the 0.4 s utterance keeps no scorable time.
    timelines = [
        labels_to_timeline(LabelSequence((1,)), 0.4, utt="short"),
        labels_to_timeline(LabelSequence((1, 1, 2, 2)), 1.0, utt="wide"),
    ]
    write_rttm(timelines, ref)
    write_rttm(timelines, hyp)
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--collar", "0.25"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        "utt=short skip reason=no-scorable-time",
        "utt=wide der=0.000000 confusion=0.000000 scored=3.000000",
        "DER=0.000000",
    ]

    write_rttm(timelines[:1], ref)
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--collar", "0.25"]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip() == "utt=short skip reason=no-scorable-time"
    assert captured.err.startswith("error: ")


# ------------------------------------------------------------------- pipeline

def test_sample_train_decode_eval_round_trip(tmp_path, capsys):
    ckpt0 = _seed_checkpoint(tmp_path, sigma2=0.05, p0=0.85)
    sampled = tmp_path / "sampled.jsonl"
    assert main(["sample", "--ckpt", ckpt0, "--num", "6", "--len", "14",
                 "--out", str(sampled), "--seed", "3"]) == 0

    corpus = load_corpus(sampled)
    assert [u.utt for u in corpus] == [f"sample-{i:05d}" for i in range(6)]
    assert all(u.labels is not None and len(u.labels) == 14 for u in corpus)

    ckpt1 = tmp_path / "trained.json"
    cfg = _train_config(tmp_path)
    assert main(["train", "--corpus", str(sampled), "--out", str(ckpt1),
                 "--config", cfg, "--seed", "1"]) == 0
    log_text = (tmp_path / "trained.json.log").read_text()
    assert "done iterations=" in log_text

    hyp = tmp_path / "hyp.jsonl"
    assert main(["decode", "--corpus", str(sampled), "--ckpt", str(ckpt1),
                 "--out", str(hyp), "--beam", "2"]) == 0

    ref_rttm = tmp_path / "ref.rttm"
    write_rttm([labels_to_timeline(u.labels, 0.4, utt=u.utt) for u in corpus], ref_rttm)
    assert main(["eval", "--ref", str(ref_rttm),
                 "--hyp", str(hyp) + ".rttm"]) == 0
    out = capsys.readouterr().out
    final = out.strip().splitlines()[-1]
    assert final.startswith("DER=")
    float(final.split("=")[1])  # parses as a number


def test_sample_rejects_nonpositive_count(tmp_path, capsys):
    ckpt = _seed_checkpoint(tmp_path)
    code = main(["sample", "--ckpt", ckpt, "--num", "0", "--len", "5",
                 "--out", str(tmp_path / "s.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "num" in captured.err
