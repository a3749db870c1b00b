"""Min-of-N CPU time of the training layers at the benchmark's workload shapes.

    PYTHONPATH=src python3 tools/layer_times.py [--repeats 7]

For each workload of ``bench/workloads.py`` it samples the training
corpus the benchmark draws at seed 1, then times with
``time.process_time`` one ``minibatch_step`` on the first minibatch and
one ``backward_gradients`` on the first utterance, and prints one JSON
object with the machine, the numpy and BLAS build and the best time of
each, in milliseconds.  diarnn is imported from ``PYTHONPATH``, so
pointing it at another checkout's ``src`` times that checkout.
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

from diarnn.io import sample_utterance  # noqa: E402
from diarnn.model import init_model_params  # noqa: E402
from diarnn.net import backward_gradients  # noqa: E402
from diarnn.trainer import TrainConfig, minibatch_step  # noqa: E402


def best_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return min(times) * 1e3


def workload_times(w, repeats: int) -> dict:
    generator = init_model_params(w.dim, w.hidden, w.fc, seed=GENERATOR_SEED,
                                  sigma2=w.sigma2, alpha=w.alpha, p0=w.p0)
    for arr in generator.net.tensor_dict().values():
        arr *= w.weight_scale
    rng = np.random.default_rng(1)
    batch = [sample_utterance(generator, w.length, rng) for _ in range(w.batch_size)]
    student = init_model_params(w.dim, w.hidden, w.fc, seed=STUDENT_SEED, sigma2=1.0)
    config = TrainConfig(step_size=w.step_size, batch_size=w.batch_size,
                         grad_clip_norm=GRAD_CLIP_NORM, hidden_dim=w.hidden, fc_dim=w.fc)
    emb, labels = batch[0]
    return {
        "shape": {"d": w.dim, "H": w.hidden, "F": w.fc,
                  "batch": w.batch_size, "steps": w.length},
        "minibatch_step_ms": best_ms(
            lambda: minibatch_step(student.copy(), batch, 1.0, config), repeats),
        "backward_gradients_one_utterance_ms": best_ms(
            lambda: backward_gradients(emb, labels, student.net, student.emission), repeats),
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
