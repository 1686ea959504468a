"""A small trainable convolutional network with hand-rolled backprop.

The net maps flattened n*n coefficient images to images of the same
size through a stack of 3x3 same-padding convolutions with ReLU between
them (linear last layer, optional global residual skip).  Training is
plain SGD with classical (heavy-ball) momentum on the batch-mean l1
loss; a downstream fixed self-adjoint linear projection can be folded
into the differentiated graph, which is how the reconstruction methods
train their spectral residuals.

The Lipschitz bound is closed-form: each layer contributes the largest
singular value of its kernel's DFT symbol on the (n+2)^2 torus, of which
the zero-padded conv is a restriction.

Activations are channel-major, (channels, batch, n, n), so the 1-channel
ends are free reshapes of the (batch, n*n) rows.  Each layer builds one
im2col patch matrix, shared by its forward conv and its weight gradient.

Everything is float64 numpy and bit-deterministic for a fixed seed and
batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkArch",
    "NetworkParams",
    "TrainState",
    "init_network",
    "forward",
    "forward_batch",
    "loss_mae",
    "grad_backprop",
    "sgd_momentum_step",
    "train",
    "lipschitz_upper_bound",
]


@dataclass(frozen=True)
class NetworkArch:
    """Grid side, hidden channel widths and the residual-skip flag.

    ``hidden=(16, 16)`` yields convolutions 1->16->16->1; an empty tuple
    gives the degenerate single 1->1 layer.
    """

    grid: int
    hidden: tuple = (16, 16)
    residual: bool = False

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError(f"grid side must be >= 1, got {self.grid}")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden channel counts must be positive")

    @property
    def channels(self) -> list:
        return [1, *self.hidden, 1]

    @property
    def n_layers(self) -> int:
        return len(self.hidden) + 1


@dataclass
class NetworkParams:
    """Weights and biases per layer; layer l maps channels[l] -> channels[l+1]."""

    arch: NetworkArch
    layers: list  # [(w: (out, in, 3, 3), b: (out,)), ...]
    seed: int

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            arch=self.arch,
            layers=[(w.copy(), b.copy()) for w, b in self.layers],
            seed=self.seed,
        )


@dataclass
class TrainState:
    lr: float
    momentum: float
    buffers: list | None = None
    step: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


def init_network(arch: NetworkArch, seed: int) -> NetworkParams:
    """Fan-in scaled Gaussian weights (std sqrt(2/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    layers = []
    chan = arch.channels
    for cin, cout in zip(chan[:-1], chan[1:]):
        scale = math.sqrt(2.0 / (cin * 9))
        w = scale * rng.standard_normal((cout, cin, 3, 3))
        b = np.zeros(cout)
        layers.append((w, b))
    return NetworkParams(arch=arch, layers=layers, seed=int(seed))


def _patches(x):
    """im2col of a (c, k, n, n) stack: (9c, k*n*n), rows in w.reshape(cout, 9c) order."""
    c, k, n, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    taps = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    return taps.transpose(0, 4, 5, 1, 2, 3).reshape(9 * c, k * n * n)


def _conv3x3(x, w, b=None):
    """(cin, k, n, n) -> (cout, k, n, n) zero-padded correlation, and its patch matrix."""
    patches = _patches(x)
    out = w.reshape(w.shape[0], -1) @ patches
    if b is not None:
        out += b[:, None]
    return out.reshape(w.shape[0], *x.shape[1:]), patches


def _run_stack(params: NetworkParams, x4):
    """Forward pass on a (1, k, n, n) batch: the output and per-layer (patches, pre-activation)."""
    caches = []
    a = x4
    for li, (w, b) in enumerate(params.layers):
        z, patches = _conv3x3(a, w, b)
        caches.append((patches, z))
        a = np.maximum(z, 0.0) if li < params.arch.n_layers - 1 else z
    out = a + x4 if params.arch.residual else a
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("network forward pass produced non-finite values")
    return out, caches


def _backprop_stack(params: NetworkParams, caches, g):
    """Parameter gradients of <g, stack output>; ReLU subgradient 0 at 0.  Consumes ``caches``."""
    grads = [None] * len(params.layers)
    for li in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[li]
        g2 = g.reshape(w.shape[0], -1)
        grads[li] = ((g2 @ caches.pop()[0].T).reshape(w.shape), g2.sum(axis=1))  # frees the patches
        if li > 0:
            # adjoint of a zero-padded correlation: flipped taps, swapped channels
            g = _conv3x3(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))[0] * (caches[-1][1] > 0)
    return grads


def _as_batch(params, flat):
    n = params.arch.grid
    flat = np.atleast_2d(np.asarray(flat, dtype=float))
    if flat.shape[1] != n * n:
        raise ValueError(f"expected vectors of length {n * n}, got {flat.shape[1]}")
    return flat.reshape(1, flat.shape[0], n, n)


def forward_batch(params: NetworkParams, flat) -> np.ndarray:
    """Apply the net to rows of a (k, n*n) array; returns the same shape."""
    x4 = _as_batch(params, flat)
    out, _ = _run_stack(params, x4)
    return out.reshape(out.shape[1], -1)


def forward(params: NetworkParams, x) -> np.ndarray:
    """Apply the net to one flattened n*n image."""
    return forward_batch(params, np.asarray(x, dtype=float)[None, :])[0]


def loss_mae(params: NetworkParams, pairs) -> float:
    """Batch-mean l1 distance between targets and network outputs.

    The l1 norm sums absolute entries over the image, the mean runs over
    the batch.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty batch")
    inputs = np.stack([np.asarray(p[0], dtype=float) for p in pairs])
    targets = np.stack([np.asarray(p[1], dtype=float) for p in pairs])
    out = forward_batch(params, inputs)
    return float(np.abs(targets - out).sum(axis=1).mean())


def grad_backprop(params: NetworkParams, inputs, targets, offsets=None, project=None):
    """Loss and exact parameter gradients for the composed objective

        mean_k | target_k - (offset_k + P(net(input_k))) |_1

    where P is a fixed self-adjoint linear map acting on row batches
    (identity if omitted).  Sign conventions at kinks: the l1 subgradient
    at 0 is 0, as is the ReLU derivative at 0.
    """
    x4 = _as_batch(params, inputs)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    k = x4.shape[1]
    if targets.shape[0] != k:
        raise ValueError("inputs and targets disagree in batch size")

    out, caches = _run_stack(params, x4)
    raw = out.reshape(k, -1)
    pred = project(raw) if project is not None else raw
    if offsets is not None:
        pred = pred + np.atleast_2d(np.asarray(offsets, dtype=float))

    resid = targets - pred
    loss = float(np.abs(resid).sum(axis=1).mean())

    gpred = -np.sign(resid) / k
    graw = project(gpred) if project is not None else gpred
    return loss, _backprop_stack(params, caches, graw.reshape(out.shape))


def sgd_momentum_step(params: NetworkParams, grads, state: TrainState):
    """buffer <- momentum * buffer + grad;  param <- param - lr * buffer."""
    if state.buffers is None:
        state.buffers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers]
    for li, (w, b) in enumerate(params.layers):
        bw, bb = state.buffers[li]
        gw, gb = grads[li]
        bw *= state.momentum
        bw += gw
        bb *= state.momentum
        bb += gb
        w -= state.lr * bw
        b -= state.lr * bb
    state.step += 1
    return params, state


def train(
    params: NetworkParams,
    state: TrainState,
    inputs,
    targets,
    offsets=None,
    project=None,
    epochs: int = 1,
    batch_size: int = 10,
    shuffle_seed: int = 0,
):
    """Mini-batch SGD with seeded shuffling; returns per-epoch mean losses.

    Raises FloatingPointError as soon as a batch loss stops being finite.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    offsets = None if offsets is None else np.atleast_2d(np.asarray(offsets, dtype=float))
    count = inputs.shape[0]
    if count == 0:
        raise ValueError("empty training set")
    batch_size = max(1, min(batch_size, count))

    rng = np.random.default_rng(shuffle_seed)
    history = []
    for _ in range(epochs):
        perm = rng.permutation(count)
        losses = []
        for lo in range(0, count, batch_size):
            idx = perm[lo : lo + batch_size]
            loss, grads = grad_backprop(
                params,
                inputs[idx],
                targets[idx],
                offsets=None if offsets is None else offsets[idx],
                project=project,
            )
            if not np.isfinite(loss):
                raise FloatingPointError(f"training diverged at step {state.step}: loss={loss}")
            sgd_momentum_step(params, grads, state)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


def _layer_norm_bound(w, grid):
    """Largest singular value of the kernel's DFT symbol on the (grid+2)^2 torus."""
    symbol = np.moveaxis(np.fft.fft2(w, s=(grid + 2, grid + 2)), (0, 1), (-2, -1))
    return float(np.linalg.svd(symbol, compute_uv=False).max())


def lipschitz_upper_bound(params: NetworkParams) -> float:
    """Upper bound on the Lipschitz constant: product of per-layer bounds.

    A zero-padded 3x3 conv on the n x n grid is a restriction of the
    circular conv on the (n+2)^2 torus, whose norm is the largest
    singular value of the kernel's 2-D DFT symbol over the torus
    frequencies (Sedghi, Gupta & Long, ICLR 2019), so each factor is at
    least the layer's exact norm.  ReLU is 1-Lipschitz and biases do not
    enter, so the product bounds the stack; a global residual skip adds 1.
    """
    product = 1.0
    for w, _ in params.layers:
        product *= _layer_norm_bound(w, params.arch.grid)
        if product == 0.0:
            break
    return product + 1.0 if params.arch.residual else product
