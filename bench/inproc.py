"""One in-process pass of the paper-100 or sparse-2000 workload.

Usage: python3 bench/inproc.py SPEC_JSON OUT_JSON

Imports gaa, loads the pair from disk, then trains each variant of the spec
under one config. Writes to OUT_JSON the moment set-up ended (on the
``time.monotonic`` clock, which the parent process shares), the summed wall
time of the ``train_gaa`` calls, and per run: whether every per-epoch loss is
finite, whether the source loss fell from the first epoch to the last, the
target accuracy, and a digest of the seeded outputs (metrics
with the measured wall time zeroed, and the trained parameters).
"""

import dataclasses
import hashlib
import json
import math
import sys
import time
import traceback


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from gaa.cli import load_pair  # set-up time includes importing gaa
    from gaa.losses import LossWeights
    from gaa.train import TrainConfig, train_gaa

    pair = load_pair(spec["pair"])
    setup_end = time.monotonic()

    config = dict(spec["config"])
    weights = LossWeights(**config.pop("weights"))
    trained = []
    train_s = 0.0
    for variant in spec["variants"]:
        cfg = TrainConfig(variant=variant, weights=weights, **config)
        t0 = time.monotonic()
        try:
            model, metrics = train_gaa(pair, cfg)
        except Exception:
            traceback.print_exc()
            model = metrics = None
        train_s += time.monotonic() - t0
        trained.append((variant, cfg.epochs, model, metrics))

    runs = []
    for variant, epochs, model, metrics in trained:
        if metrics is None:
            runs.append({"variant": variant, "ok": False})
            continue
        losses = [v for e in metrics.per_epoch
                  for k, v in dataclasses.asdict(e).items() if k != "epoch"]
        metrics.wall_seconds = 0.0
        digest = hashlib.sha256(json.dumps(dataclasses.asdict(metrics), sort_keys=True).encode())
        for p in model.parameters():
            digest.update(p.data.tobytes())
        runs.append({
            "variant": variant,
            "ok": True,
            "finite": len(metrics.per_epoch) == epochs and all(map(math.isfinite, losses)),
            # a run whose gradients do nothing keeps its first-epoch loss
            "learned": bool(metrics.per_epoch)
            and metrics.per_epoch[-1].loss_S < metrics.per_epoch[0].loss_S,
            "acc": metrics.target_accuracy,
            "digest": digest.hexdigest(),
        })

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_end": setup_end, "train_s": train_s, "runs": runs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
