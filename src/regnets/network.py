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


def _conv3x3(x, w, b=None):
    # x: (k, cin, n, n), w: (cout, cin, 3, 3) -> (k, cout, n, n)
    k, cin, n, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((k, w.shape[0], n, n))
    for dy in range(3):
        for dx in range(3):
            t = np.tensordot(xp[:, :, dy : dy + n, dx : dx + n], w[:, :, dy, dx], axes=([1], [1]))
            out += np.moveaxis(t, 3, 1)
    if b is not None:
        out += b[None, :, None, None]
    return out


def _conv3x3_wgrad(x, g):
    # gradient of <g, conv(x, w)> in w
    k, cin, n, _ = x.shape
    cout = g.shape[1]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dw = np.empty((cout, cin, 3, 3))
    for dy in range(3):
        for dx in range(3):
            dw[:, :, dy, dx] = np.tensordot(g, xp[:, :, dy : dy + n, dx : dx + n], axes=([0, 2, 3], [0, 2, 3]))
    return dw


def _run_stack(params: NetworkParams, x4):
    """Forward pass on a (k, 1, n, n) batch; returns output and caches."""
    acts = [x4]  # inputs to each layer
    pres = []  # pre-activation outputs of each layer
    a = x4
    last = params.arch.n_layers - 1
    for li, (w, b) in enumerate(params.layers):
        z = _conv3x3(a, w, b)
        pres.append(z)
        a = np.maximum(z, 0.0) if li < last else z
        if li < last:
            acts.append(a)
    out = a + x4 if params.arch.residual else a
    return out, acts, pres


def _backprop_stack(params: NetworkParams, acts, pres, gout):
    """Parameter gradients of <gout, stack output>; ReLU subgradient 0 at 0."""
    grads = [None] * len(params.layers)
    g = gout
    for li in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[li]
        grads[li] = (_conv3x3_wgrad(acts[li], g), g.sum(axis=(0, 2, 3)))
        if li > 0:
            # adjoint of a zero-padded correlation: flipped taps, swapped channels
            g = _conv3x3(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)) * (pres[li - 1] > 0)
    return grads


def _as_batch(params, flat):
    n = params.arch.grid
    flat = np.asarray(flat, dtype=float)
    if flat.ndim == 1:
        flat = flat[None, :]
    if flat.shape[1] != n * n:
        raise ValueError(f"expected vectors of length {n * n}, got {flat.shape[1]}")
    return flat.reshape(flat.shape[0], 1, n, n)


def forward_batch(params: NetworkParams, flat) -> np.ndarray:
    """Apply the net to rows of a (k, n*n) array; returns the same shape."""
    x4 = _as_batch(params, flat)
    out, _, _ = _run_stack(params, x4)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("network forward pass produced non-finite values")
    return out.reshape(out.shape[0], -1)


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
    k = x4.shape[0]
    if targets.shape[0] != k:
        raise ValueError("inputs and targets disagree in batch size")

    out, acts, pres = _run_stack(params, x4)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("network forward pass produced non-finite values")
    raw = out.reshape(k, -1)
    pred = project(raw) if project is not None else raw
    if offsets is not None:
        pred = pred + np.atleast_2d(np.asarray(offsets, dtype=float))

    resid = targets - pred
    loss = float(np.abs(resid).sum(axis=1).mean())

    gpred = -np.sign(resid) / k
    graw = project(gpred) if project is not None else gpred
    gout = graw.reshape(out.shape)
    grads = _backprop_stack(params, acts, pres, gout)
    return loss, grads


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
