"""The benchmark's workloads: one ``run.cfg`` each for the whole pipeline.

The seed is a benchmark argument, written into ``run.cfg``; it is the
only thing that changes between runs of one workload (see FIXED_SEED for
what it does not drive).  Sizes keep one pass of the pipeline near 20-30 s
on two cores; README.md says which layer each workload stresses.
"""

from __future__ import annotations

import math

# Shared by every workload.  The rate deltas span four decades, and each
# workload's scale_c in the a-priori rule alpha = scale_c * delta puts the
# fitted error slope near the 2 mu / (2 mu + 1) = 0.5 of the theory.
_COMMON = {
    "rate_deltas": "1e-6,3.2e-6,1e-5,3.2e-5,1e-4,3.2e-4,1e-3,3.2e-3,1e-2",
    "mu": "0.5",
    "lr": "3e-5",
    "batch_size": "10",
    "kb_support": "0.055",
    "kb_shape": "7.0",
}

WORKLOADS = {
    # Desk geometry (960 x 4096).  The conv backprop, the residual
    # projection and the Lipschitz bounds of two trained members carry
    # train, evaluate and reconstruct: 2 members x 2 epochs x 6 batches.
    "desk-train": {
        "grid_n": "64",
        "n_angles": "15",
        "n_detectors": "64",
        "hidden": "4,4",
        "alphas": "1e-2",
        "train_count": "60",
        "epochs": "2",
        "test_count": "6",
        "deltas": "0.05",
        "scale_c": "256",
    },
    # A 72 x 72 grid with 18 angles x 100 offsets (1800 x 5184): operator
    # build, SVD, operator I/O and the spectral filter path dominate; the
    # nets are single 1 -> 1 convolutions, so the network does little.
    # With scale_c = 256 the fitted rate slope on this spectrum is
    # 0.66-0.73 (40 seeds); 2048 gives 0.48-0.54 (150 seeds).
    "wide-classical": {
        "grid_n": "72",
        "n_angles": "18",
        "n_detectors": "100",
        "hidden": "",
        "alphas": "3e-2,1e-2",
        "train_count": "20",
        "epochs": "1",
        "test_count": "2",
        "deltas": "0.05",
        "scale_c": "2048",
    },
}

VARIANTS = ("classical", "nullspace", "continued")

# The phantom sets and the training run use this seed in every run, so
# every run trains the same networks.  The cost of the Lipschitz bound
# (power iteration to a 1e-6 tolerance, in train, evaluate and
# reconstruct) depends on the trained weights: for a 1->4->4->1 member
# trained 3 epochs on 100 desk phantoms it took 1.7-2.6 s over six seeds
# when the seed drove everything, and 1.15-1.47 s when only the phantoms
# did.  The run's seed, written into
# run.cfg, drives the noise of evaluate and reconstruct and the inputs of
# the rate and distance experiments.
FIXED_SEED = "0"

# The CLI invocations of one pass, in order.  Each is one operation.
STAGES = (
    ("assemble", ("assemble",)),
    ("phantoms", ("phantoms", "--seed", FIXED_SEED)),
    ("train_nullspace", ("train", "--method", "nullspace", "--seed", FIXED_SEED)),
    ("train_continued", ("train", "--method", "continued", "--seed", FIXED_SEED)),
    ("evaluate", ("evaluate",)),
    ("reconstruct", ("reconstruct",)),
    ("rates", ("rates",)),
    ("distfn", ("distfn",)),
)


def config(workload: str, seed: int) -> dict:
    """The key=value settings of one workload at one seed."""
    return {**_COMMON, **WORKLOADS[workload], "seed": str(int(seed))}


def cfg_text(cfg: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in cfg.items())


def floats(text: str) -> list:
    return [float(part) for part in str(text).split(",") if part.strip()]


def expected_counts(cfg: dict) -> dict:
    """Per stage, the call counts of the traced layers worked out from the
    settings; a count not listed for a stage is 0 there.

    Each member trains epochs x ceil(train_count / batch) steps.  Evaluate
    reconstructs every (delta, alpha) pair on the validation items (the
    first min(10, test_count)) and on the whole test set, per variant;
    reconstruct makes one call per delta and variant, and rates one
    classical call per rate delta.
    """
    alphas = floats(cfg["alphas"])
    deltas = floats(cfg["deltas"])
    train, test = int(cfg["train_count"]), int(cfg["test_count"])
    batch = max(1, min(int(cfg["batch_size"]), train))
    steps = {"network.grad_backprop.calls": len(alphas) * int(cfg["epochs"]) * math.ceil(train / batch)}
    per_item = len(deltas) * len(alphas) * (min(10, test) + test)
    return {
        "train_nullspace": steps,
        "train_continued": steps,
        "evaluate": {f"regnet.reconstruct.{v}.calls": per_item for v in VARIANTS},
        "reconstruct": {f"regnet.reconstruct.{v}.calls": len(deltas) for v in VARIANTS},
        "rates": {"regnet.reconstruct.classical.calls": len(floats(cfg["rate_deltas"]))},
    }
