"""SHA-256 digests of diarnn's seeded outputs, one line per output.

    PYTHONPATH=src python3 tools/output_digest.py

Run it on two checkouts and diff the printed lines: a refactor that must
not move a bit shows no difference.  At d/H/F = 8/16/16, 16/32/24 and
256/512/512, each with the linear and the rectified head, it covers the
sampled labels and embeddings, the checkpoint bytes of seeded training
runs with and without clipping, beam-decoded labels and log-probabilities,
teacher-forced log-likelihoods and emission means, and every gradient
tensor.  The last line digests the 600 utterances that criterion 07 of
the acceptance tests samples.  A run takes about a minute on 2 vCPU.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from diarnn.decoder import DecodeConfig, decode_beam
from diarnn.io import sample_utterance, save_checkpoint
from diarnn.model import init_model_params
from diarnn.net import TENSOR_FIELDS, backward_gradients, forward_log_likelihood
from diarnn.trainer import TrainConfig, train

SHAPES = ((8, 16, 16), (16, 32, 24), (256, 512, 512))


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            self._hash.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
        elif isinstance(value, float):
            self._hash.update(value.hex().encode())
        else:
            self._hash.update(repr(value).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _sampled(generator, count, length, seed):
    rng = np.random.default_rng(seed)
    return [sample_utterance(generator, length, rng) for _ in range(count)]


def _corpus_digest(corpus) -> str:
    digest = Digest()
    for emb, labels in corpus:
        digest.add(emb.values)
        digest.add(tuple(labels))
    return digest.hexdigest()


def digests(dim, hidden, fc, relu_output, workdir: Path) -> dict[str, str]:
    generator = init_model_params(dim, hidden, fc, seed=101, sigma2=0.05, p0=0.8,
                                  relu_output=relu_output)
    for name in TENSOR_FIELDS:
        getattr(generator.net, name)[...] *= 3.0
    corpus = _sampled(generator, 40, 30, seed=5)
    out = {"sample": _corpus_digest(corpus)}

    # A tight clip norm makes every step clip; the default one rarely does.
    for clip in (1.0, 100.0):
        config = TrainConfig(step_size=1e-4, batch_size=8, max_iterations=12, seed=3,
                             grad_clip_norm=clip, hidden_dim=hidden, fc_dim=fc,
                             relu_output=relu_output)
        params, _ = train(corpus, config)
        path = workdir / "ckpt.json"
        save_checkpoint(path, params, seed=3)
        out[f"checkpoint clip={clip}"] = hashlib.sha256(path.read_bytes()).hexdigest()

    decoded, likelihood, gradients = Digest(), Digest(), Digest()
    for emb, labels in corpus[:8]:
        result = decode_beam(emb, params, DecodeConfig(beam_width=3))
        decoded.add(tuple(result.labels))
        decoded.add(float(result.log_prob))
        total, mus = forward_log_likelihood(emb, labels, params.net, params.emission)
        likelihood.add(float(total))
        likelihood.add(mus)
        grads = backward_gradients(emb, labels, params.net, params.emission)
        for name in TENSOR_FIELDS:
            gradients.add(getattr(grads.net, name))
        gradients.add(float(grads.log_sigma2))
        gradients.add(float(grads.log_likelihood))
    out["decode_beam"] = decoded.hexdigest()
    out["forward_log_likelihood"] = likelihood.hexdigest()
    out["backward_gradients"] = gradients.hexdigest()
    return out


def criterion_07_corpus() -> str:
    generator = init_model_params(8, 16, 16, seed=101, sigma2=0.05, alpha=1.0, p0=0.8)
    for name in TENSOR_FIELDS:
        getattr(generator.net, name)[...] *= 5.0
    rng = np.random.default_rng(0)
    corpus = [sample_utterance(generator, 50, rng) for _ in range(600)]
    return _corpus_digest(corpus)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for dim, hidden, fc in SHAPES:
            for relu_output in (False, True):
                tag = f"d={dim} H={hidden} F={fc} relu_output={relu_output}"
                for what, value in digests(dim, hidden, fc, relu_output, Path(tmp)).items():
                    print(f"{tag} {what} {value}")
    print(f"criterion-07 corpus {criterion_07_corpus()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
