"""Corpus and checkpoint files, generative sampling, and cross-validation
splits.

Corpora are JSON-lines: one object per utterance with keys "utt",
"embeddings" (T x d floats), and optionally "labels" (T ints, canonicalized
on load).  Checkpoints are a single versioned JSON document carrying every
weight tensor verbatim; floats serialize with shortest round-trip repr, so
saving and loading is bit-exact.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .model import ModelParams
from .net import (
    GATE_CONVENTION,
    TENSOR_FIELDS,
    EmissionParams,
    NetParams,
    SpeakerThread,
    advance_thread,
    fresh_thread,
    gaussian_log_pdf,
    thread_emission_mean,
)
from .prior import PriorParams, assignment_candidates, change_log_prob
from .sequences import (
    BlockCounts,
    EmbeddingSequence,
    LabelSequence,
    canonicalize,
    update_block_counts,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Utterance",
    "load_corpus",
    "save_corpus",
    "save_checkpoint",
    "load_checkpoint",
    "sample_utterance",
    "kfold_split",
]

CHECKPOINT_FORMAT_VERSION = 1


class Utterance(NamedTuple):
    utt: str
    embeddings: EmbeddingSequence
    labels: LabelSequence | None


def load_corpus(path) -> list[Utterance]:
    """Read a JSON-lines corpus; every parse or consistency problem raises a
    FormatError naming the file and line."""
    utterances: list[Utterance] = []
    dim = None
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(path, lineno, f"invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict) or "utt" not in obj or "embeddings" not in obj:
                raise FormatError(
                    path, lineno, 'expected an object with "utt" and "embeddings"'
                )
            try:
                emb = EmbeddingSequence(np.array(obj["embeddings"], dtype=np.float64))
            except (ValueError, TypeError) as exc:
                raise FormatError(path, lineno, f"bad embeddings: {exc}") from None
            if dim is None:
                dim = emb.dim
            elif emb.dim != dim:
                raise FormatError(
                    path, lineno,
                    f"embedding dim {emb.dim} differs from earlier lines ({dim})",
                )
            labels = None
            if obj.get("labels") is not None:
                raw_labels = obj["labels"]
                if not isinstance(raw_labels, list) or len(raw_labels) != len(emb):
                    raise FormatError(
                        path, lineno,
                        f"labels must be a list of {len(emb)} ints",
                    )
                try:
                    labels = canonicalize([int(v) for v in raw_labels])
                except (ValueError, TypeError) as exc:
                    raise FormatError(path, lineno, f"bad labels: {exc}") from None
            utterances.append(Utterance(str(obj["utt"]), emb, labels))
    if not utterances:
        raise FormatError(path, 0, "empty corpus file")
    return utterances


def save_corpus(utterances, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt in utterances:
            obj = {
                "utt": utt.utt,
                "embeddings": [[float(v) for v in row] for row in utt.embeddings.values],
            }
            if utt.labels is not None:
                obj["labels"] = [int(v) for v in utt.labels]
            f.write(json.dumps(obj) + "\n")


def save_checkpoint(path, params: ModelParams, train_config=None, seed=None) -> None:
    """Serialize a model to one JSON document, including the gate convention
    tag so a reader can refuse weights trained under a different one."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dims": {
            "input": params.net.input_dim,
            "hidden": params.net.hidden_dim,
            "fc": params.net.fc_dim,
        },
        "gru_convention": GATE_CONVENTION,
        "relu_output": params.net.relu_output,
        "weights": {name: arr.tolist() for name, arr in params.net.tensor_dict().items()},
        "log_sigma2": params.emission.log_sigma2,
        "alpha": params.prior.alpha,
        "p0": params.prior.p0,
        "train_config": train_config,
        "seed": seed,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def load_checkpoint(path) -> ModelParams:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise FormatError(path, 1, "checkpoint must be a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise FormatError(
            path, 1,
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})",
        )
    convention = doc.get("gru_convention")
    if convention != GATE_CONVENTION:
        raise FormatError(
            path, 1, f"gate convention mismatch: {convention!r}"
        )
    try:
        weights = doc["weights"]
        net = NetParams(
            **{name: np.array(weights[name], dtype=np.float64) for name in TENSOR_FIELDS},
            relu_output=bool(doc.get("relu_output", False)),
        )
        emission = EmissionParams(float(doc["log_sigma2"]))
        prior = PriorParams(p0=float(doc["p0"]), alpha=float(doc["alpha"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(path, 1, f"bad checkpoint contents: {exc}") from None
    return ModelParams(net, emission, prior)


def sample_utterance(params: ModelParams, length: int, rng, with_log_prob: bool = False):
    """Draw one utterance from the generative process.

    rng may be an integer seed or a numpy Generator.  Labels come out
    canonical by construction.  With with_log_prob the accumulated log
    joint of the draw is returned as a third element; it matches the
    scoring path for the same (embeddings, labels) pair.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    p0 = params.prior.p0
    alpha = params.prior.alpha
    sigma2 = params.emission.sigma2
    sigma = math.sqrt(sigma2)
    dim = params.net.input_dim
    fresh = fresh_thread(params.net)
    threads: list[SpeakerThread] = []
    labels: list[int] = []
    blocks: BlockCounts | None = None
    x = np.empty((length, dim))
    total = 0.0
    for t in range(length):
        if t == 0:
            speaker = 1
            lp = 0.0
        elif gen.random() >= 1.0 - p0:
            speaker = blocks.last_speaker
            lp = change_log_prob(0, p0)
        else:
            # A change: walk the switch options by their probability given
            # the change.  The last option, a new speaker, also takes the
            # draws that rounding leaves past the running sum.
            switch = change_log_prob(1, p0)
            options = assignment_candidates(blocks, alpha, p0)[1:]
            draw = gen.random()
            pick = options[-1]
            acc = 0.0
            for option in options[:-1]:
                acc += math.exp(option.log_prior - switch)
                if draw < acc:
                    pick = option
                    break
            speaker, lp = pick.speaker, pick.log_prior
        thread = threads[speaker - 1] if speaker <= len(threads) else fresh
        mu = thread_emission_mean(thread)
        x[t] = mu + sigma * gen.standard_normal(dim)
        lp += gaussian_log_pdf(x[t], mu, sigma2)
        total += lp
        labels.append(speaker)
        advanced = advance_thread(thread, x[t], params.net)
        if speaker <= len(threads):
            threads[speaker - 1] = advanced
        else:
            threads.append(advanced)
        blocks = BlockCounts((1,), 1) if blocks is None else update_block_counts(blocks, speaker)
    emb = EmbeddingSequence(x)
    labs = LabelSequence(tuple(labels))
    if with_log_prob:
        return emb, labs, total
    return emb, labs


def kfold_split(corpus, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Deterministic partition of corpus indices into k near-equal folds.

    Returns one (train_ids, eval_ids) pair per fold; every index lands in
    exactly one eval fold and fold sizes differ by at most one.
    """
    n = corpus if isinstance(corpus, int) else len(corpus)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds corpus size {n}")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        eval_ids = sorted(int(v) for v in folds[i])
        train_ids = sorted(
            int(v) for j in range(k) if j != i for v in folds[j]
        )
        out.append((train_ids, eval_ids))
    return out
