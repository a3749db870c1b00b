"""Min-of-N times of the training and decoding layers at the benchmark's
workload shapes.

    PYTHONPATH=src python3 tools/layer_times.py [--repeats 7]

For each workload of ``bench/workloads.py`` it samples the corpora the
benchmark draws at seed 1, then times one ``minibatch_step`` on the first
minibatch, one ``backward_gradients`` on the first utterance, and one
``decode_greedy`` and one ``decode_beam`` (at the workload's width and
speaker cap, with the generating model) on the first held-out utterance.
It prints one JSON object with the machine, the numpy and BLAS build and,
per layer, the best of the repeats in milliseconds on two clocks:
``cpu_ms`` from ``time.process_time`` (CPU time of the whole process, so
BLAS threads add up) and ``wall_ms`` from ``time.perf_counter``.  diarnn
is imported from ``PYTHONPATH``, so pointing it at another checkout's
``src`` times that checkout.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import GENERATOR_SEED, GRAD_CLIP_NORM, STUDENT_SEED, WORKLOADS  # noqa: E402

from diarnn.decoder import DecodeConfig, decode_beam, decode_greedy  # noqa: E402
from diarnn.io import sample_utterance  # noqa: E402
from diarnn.model import init_model_params  # noqa: E402
from diarnn.net import backward_gradients  # noqa: E402
from diarnn.trainer import TrainConfig, minibatch_step  # noqa: E402


def best_ms(fn, repeats: int) -> dict[str, float]:
    cpu, wall = [], []
    for _ in range(repeats):
        start_cpu, start_wall = time.process_time(), time.perf_counter()
        fn()
        wall.append(time.perf_counter() - start_wall)
        cpu.append(time.process_time() - start_cpu)
    return {"cpu_ms": min(cpu) * 1e3, "wall_ms": min(wall) * 1e3}


def corpora(w, generator):
    """The training set and the held-out utterances, drawn as the
    benchmark draws them.  This is a copy of the draw in
    ``bench/run.py``'s ``setup`` (not imported, as ``machine`` explains):
    change both together, or this tool times other utterances than the
    benchmark runs."""
    rng = np.random.default_rng(1)
    draws = [sample_utterance(generator, w.length, rng)
             for _ in range(w.train_utts + max(w.held_utts, w.held_draws))]
    train, held = draws[: w.train_utts], draws[w.train_utts :]
    if w.held_speakers is not None:
        held.sort(key=lambda draw: abs(draw[1].num_speakers - w.held_speakers))
    return train, held[: w.held_utts]


def workload_times(w, repeats: int) -> dict:
    generator = init_model_params(w.dim, w.hidden, w.fc, seed=GENERATOR_SEED,
                                  sigma2=w.sigma2, alpha=w.alpha, p0=w.p0)
    for arr in generator.net.tensor_dict().values():
        arr *= w.weight_scale
    train, held = corpora(w, generator)
    batch = train[: w.batch_size]
    student = init_model_params(w.dim, w.hidden, w.fc, seed=STUDENT_SEED, sigma2=1.0)
    config = TrainConfig(step_size=w.step_size, batch_size=w.batch_size,
                         grad_clip_norm=GRAD_CLIP_NORM, hidden_dim=w.hidden, fc_dim=w.fc)
    emb, labels = batch[0]
    held_emb = held[0][0]
    greedy = DecodeConfig(max_speakers=w.max_speakers)
    beam = DecodeConfig(beam_width=w.beam, max_speakers=w.max_speakers)
    return {
        "shape": {"d": w.dim, "H": w.hidden, "F": w.fc,
                  "batch": w.batch_size, "steps": w.length,
                  "beam": w.beam, "max_speakers": w.max_speakers},
        "minibatch_step": best_ms(
            lambda: minibatch_step(student.copy(), batch, 1.0, config), repeats),
        "backward_gradients_one_utterance": best_ms(
            lambda: backward_gradients(emb, labels, student.net, student.emission), repeats),
        "decode_greedy_one_utterance": best_ms(
            lambda: decode_greedy(held_emb, generator, greedy), repeats),
        "decode_beam_one_utterance": best_ms(
            lambda: decode_beam(held_emb, generator, beam), repeats),
    }


def machine() -> dict:
    # The same record as bench/run.py's, which is not imported because it
    # puts its own checkout's src first on sys.path.
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {
        "cpu": models[0] if models else platform.processor(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(json.dumps({
        "machine": machine(),
        "repeats": args.repeats,
        "workloads": {name: workload_times(w, args.repeats) for name, w in WORKLOADS.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
