"""Checks on the outputs of one pass of the pipeline.

Every check compares an output with an independent computation or with a
property the program documents; none compares with a stored copy of an
earlier output.  The files are parsed here, not with the program's
readers, except the trained models, which the program's network code
evaluates.  The classical reconstructions are recomputed with this
module's own truncated SVD on the stored factors, after the factor check
has shown that they are an orthonormal factorisation of the stored
matrix.  The learned variants are checked through the program's own
network code, because their properties are claims about that code.

Each ``check_<stage>`` raises :class:`CheckError` on the first failure.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import VARIANTS, expected_counts, floats

# RadonGeometry's detector interval; the config does not set it.
DETECTOR_MIN, DETECTOR_MAX = -1.5, 1.5
LEARNED = ("nullspace", "continued")


class CheckError(Exception):
    """An output failed a check."""


def require(condition, message: str):
    if not condition:
        raise CheckError(message)


# --------------------------------------------------------------- file parsing


def _footer(blob: bytes) -> dict:
    (length,) = struct.unpack("<Q", blob[-8:])
    body = blob[len(blob) - 8 - length : len(blob) - 8].decode("utf-8")
    return dict(line.split("=", 1) for line in body.splitlines() if "=" in line)


def read_rgn1(path, version: int):
    """Header, f64 payload and metadata footer of an RGN1 container."""
    blob = Path(path).read_bytes()
    require(len(blob) >= 32 and blob[:4] == b"RGN1", f"{path}: not an RGN1 container")
    ver, rows, cols = struct.unpack("<IQQ", blob[4:24])
    require(ver == version, f"{path}: version {ver}, expected {version}")
    payload = np.frombuffer(blob, dtype="<f8", offset=24, count=(len(blob) - 32) // 8)
    return rows, cols, payload, _footer(blob)


@dataclass
class Operator:
    """The stored operator file, with this module's own spectral maths."""

    matrix: np.ndarray
    sigma: np.ndarray
    u: np.ndarray  # (cols, k), image-space vectors
    v: np.ndarray  # (rows, k), data-space vectors
    rank_tol: float

    @classmethod
    def read(cls, path):
        rows, cols, payload, meta = read_rgn1(path, 1)
        k = min(rows, cols)
        sizes = [rows * cols, k, cols * k, rows * k]
        require(payload.size >= sum(sizes), f"{path}: payload shorter than declared")
        parts = np.split(payload[: sum(sizes)], np.cumsum(sizes)[:-1])
        return cls(
            matrix=parts[0].reshape(rows, cols),
            sigma=parts[1],
            u=parts[2].reshape(cols, k),
            v=parts[3].reshape(rows, k),
            rank_tol=float(meta.get("rank_tol", "1e-10")),
        )

    def cut(self, alpha: float) -> int:
        """Number of directions a TSVD at alpha keeps: sigma above the rank
        cutoff and sigma^2 >= alpha (a prefix, as sigma is descending)."""
        keep = (self.sigma > self.rank_tol * self.sigma[0]) & (self.sigma**2 >= alpha)
        return int(np.count_nonzero(keep))

    def tsvd(self, data_rows, alpha: float) -> np.ndarray:
        """Truncated-SVD reconstructions of the rows of a (count, rows) array."""
        r = self.cut(alpha)
        return ((data_rows @ self.v[:, :r]) / self.sigma[:r]) @ self.u[:, :r].T


def read_pgm(path) -> np.ndarray:
    """Integer samples of a 16-bit binary PGM without header comments."""
    blob = Path(path).read_bytes()
    head = blob[:64].split(maxsplit=4)
    require(len(head) == 5 and head[0] == b"P5" and head[3] == b"65535", f"{path}: not a 16-bit P5 PGM")
    width, height = int(head[1]), int(head[2])
    data = blob[len(blob) - 2 * width * height :]
    return np.frombuffer(data, dtype=">u2").reshape(height, width).astype(np.int64)


def read_table(path):
    """Header fields and float rows of a CSV report; '#' lines are skipped."""
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [[float(x) for x in l.split(",")] for l in lines[1:]]


def read_keyvalue(path) -> dict:
    lines = Path(path).read_text().splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line and not line.startswith("#"))


def manifest_cap(path) -> float:
    for line in Path(path).read_text().splitlines():
        if line.startswith("# lipschitz_cap="):
            return float(line.split("=", 1)[1])
    raise CheckError(f"{path}: no lipschitz_cap")


def manifest_entries(path) -> list:
    out = []
    for line in Path(path).read_text().splitlines():
        if line and not line.startswith("#"):
            fields = dict(part.split("=", 1) for part in line.split())
            out.append((float(fields["alpha"]), fields["model"]))
    return out


# ------------------------------------------------------- independent maths


def blob_line_integral(d, a: float, rho: float):
    """Closed-form line integral of the Kaiser-Bessel blob at distance d."""
    from scipy.special import i0

    w2 = 1.0 - (np.asarray(d, dtype=float) / a) ** 2
    inside = w2 > 0
    out = np.zeros_like(w2)
    out[inside] = 2.0 * a / (rho * i0(rho)) * np.sinh(rho * np.sqrt(w2[inside]))
    return out


def line_distances(cfg: dict, row: int) -> np.ndarray:
    """Signed distance of every blob centre from the line of one matrix row."""
    n, n_det = int(cfg["grid_n"]), int(cfg["n_detectors"])
    theta = (row // n_det) * np.pi / int(cfg["n_angles"])
    offset = np.linspace(DETECTOR_MIN, DETECTOR_MAX, n_det)[row % n_det]
    axis = np.linspace(-1.0, 1.0, n)
    cx, cy = np.tile(axis, n), np.repeat(axis, n)  # column i = iy * n + ix
    return offset - (cx * np.cos(theta) + cy * np.sin(theta))


def max_noise(y, delta: float, seed: int) -> np.ndarray:
    """The sinogram noise convention: Gaussian scaled by delta * max|y|."""
    g = np.random.default_rng(seed).standard_normal(y.shape)
    return y + delta * np.max(np.abs(y)) * g


def item_seed(base_seed: int, y: np.ndarray) -> int:
    """Per-item noise seed of the test-set protocol: base + crc32(y bytes)."""
    return (int(base_seed) + zlib.crc32(y.tobytes())) % (2**63)


def unit(img) -> np.ndarray:
    lo, hi = float(np.min(img)), float(np.max(img))
    return np.zeros_like(img) if hi <= lo else (img - lo) / (hi - lo)


def quantise(img) -> np.ndarray:
    return np.round(np.clip(img, 0.0, 1.0) * 65535.0).astype(np.int64)


def loglog_slope(xs, ys) -> float:
    lx, ly = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    lx = lx - lx.mean()
    return float(lx @ (ly - ly.mean()) / (lx @ lx))


def close(a, b, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ----------------------------------------------------------------- checks


def check_assemble(d: Path, cfg: dict) -> Operator:
    op = Operator.read(d / "operator.rgn1")
    n = int(cfg["grid_n"])
    rows = int(cfg["n_angles"]) * int(cfg["n_detectors"])
    require(op.matrix.shape == (rows, n * n), f"operator shape {op.matrix.shape}, expected {(rows, n * n)}")
    require(np.all(np.isfinite(op.matrix)), "operator has non-finite entries")
    require(np.all(op.sigma >= 0) and np.all(np.diff(op.sigma) <= 0), "singular values not descending")
    k = op.sigma.size
    rebuilt = (op.v * op.sigma) @ op.u.T
    err = np.linalg.norm(op.matrix - rebuilt)
    require(err <= 1e-10 * np.linalg.norm(op.matrix), f"factors rebuild A with relative error {err / np.linalg.norm(op.matrix):.3g}")
    for name, basis in (("U", op.u), ("V", op.v)):
        dev = np.linalg.norm(basis.T @ basis - np.eye(k))
        require(dev <= 1e-9, f"{name} is not orthonormal: |{name}^T {name} - I|_F = {dev:.3g}")

    # a seeded sample of entries against the closed-form blob integral:
    # half on random columns, half on blobs the line crosses
    a, rho = float(cfg["kb_support"]), float(cfg["kb_shape"])
    rng = np.random.default_rng(int(cfg["seed"]))
    worst = 0.0
    peak = float(np.max(np.abs(op.matrix)))
    for row in rng.integers(0, rows, 64):
        dist = line_distances(cfg, int(row))
        crossed = np.flatnonzero(np.abs(dist) < a)
        cols = list(rng.integers(0, n * n, 2))
        if crossed.size:
            cols += list(rng.choice(crossed, 2))
        expect = blob_line_integral(dist[cols], a, rho)
        worst = max(worst, float(np.max(np.abs(op.matrix[row, cols] - expect))))
    require(worst <= 1e-9 * peak, f"matrix entries differ from the blob line integral by {worst:.3g}")
    return op


def _read_set(path, count: int, n: int) -> np.ndarray:
    rows, cols, payload, _ = read_rgn1(path, 2)
    require((rows, cols) == (count, n * n), f"{path}: shape {(rows, cols)}, expected {(count, n * n)}")
    data = payload[: rows * cols].reshape(rows, cols)
    require(np.all((data >= 0) & (data <= 1)), f"{path}: phantom values outside [0, 1]")
    return data


def check_phantoms(d: Path, cfg: dict):
    n = int(cfg["grid_n"])
    _read_set(d / "train.rgn1", int(cfg["train_count"]), n)
    test = _read_set(d / "test.rgn1", int(cfg["test_count"]), n)
    require(np.all(test.max(axis=1) > 0), "a test phantom is empty")


def _load_member(d: Path, variant: str, name: str):
    from regnets import storage

    return storage.read_model(d / "models" / variant / name)


def check_train(d: Path, cfg: dict, variant: str):
    """Manifest and models of one learned variant, one finite loss per epoch,
    and the declared Lipschitz cap against sampled difference quotients."""
    from regnets import network

    mdir = d / "models" / variant
    alphas = floats(cfg["alphas"])
    entries = manifest_entries(mdir / "manifest.txt")
    require([a for a, _ in entries] == alphas, f"{variant} manifest alphas {[a for a, _ in entries]}, expected {alphas}")
    epochs = int(cfg["epochs"])
    for idx in range(len(alphas)):
        losses = read_keyvalue(mdir / f"loss_{idx:03d}.txt")
        values = [float(v) for v in losses.values()]
        require(list(losses) == [f"epoch_{e}" for e in range(epochs)], f"{variant} member {idx}: losses for {list(losses)}")
        require(all(np.isfinite(values)), f"{variant} member {idx}: non-finite loss")

    cap = manifest_cap(mdir / "manifest.txt")
    n = int(cfg["grid_n"])
    test = _read_set(d / "test.rgn1", int(cfg["test_count"]), n)
    rng = np.random.default_rng(int(cfg["seed"]))
    x = np.vstack([test, test[:2] + 1e-3 * rng.standard_normal((2, n * n))])
    z = np.vstack([np.roll(test, 1, axis=0), test[:2]])
    worst = 0.0
    for _, name in entries:
        params = _load_member(d, variant, name)
        diff = network.forward_batch(params, x) - network.forward_batch(params, z)
        ratios = np.linalg.norm(diff, axis=1) / np.linalg.norm(x - z, axis=1)
        worst = max(worst, float(np.max(ratios)))
    require(np.isfinite(cap) and cap >= worst, f"{variant} lipschitz_cap {cap:.6g} below a sampled ratio {worst:.6g}")


def check_evaluate(d: Path, cfg: dict, op: Operator):
    """Every CSV row's alpha and kept count; every classical row's MSE and
    MAE recomputed; the selected alphas lie on the alpha grid."""
    alphas = floats(cfg["alphas"])
    n = int(cfg["grid_n"])
    truths = _read_set(d / "test.rgn1", int(cfg["test_count"]), n)
    sinograms = truths @ op.matrix.T
    seed = int(cfg["seed"])
    selection = read_keyvalue(d / "out" / "selection.txt")
    for delta in floats(cfg["deltas"]):
        noisy = np.vstack([max_noise(y, delta, item_seed(seed, y)) for y in sinograms])
        for variant in VARIANTS:
            path = d / "out" / f"evaluate_{variant}_d{delta:g}.csv"
            header, rows = read_table(path)
            require(header == ["alpha", "kept", "mse", "mae"], f"{path.name}: header {header}")
            require([r[0] for r in rows] == alphas, f"{path.name}: alphas {[r[0] for r in rows]}")
            for alpha, kept, mse, mae in rows:
                require(kept == op.cut(alpha), f"{path.name}: kept {kept} at alpha {alpha:g}, expected {op.cut(alpha)}")
                require(np.isfinite(mse) and np.isfinite(mae) and mse >= 0 and mae >= 0, f"{path.name}: bad errors")
                if variant != "classical":
                    continue
                diff = np.vstack([unit(x) for x in op.tsvd(noisy, alpha)]) - np.vstack([unit(t) for t in truths])
                ref_mse = float(np.mean(np.mean(diff**2, axis=1)))
                ref_mae = float(np.mean(np.mean(np.abs(diff), axis=1)))
                require(close(mse, ref_mse, 1e-9) and close(mae, ref_mae, 1e-9),
                        f"{path.name}: alpha {alpha:g} mse/mae {mse!r}/{mae!r}, recomputed {ref_mse!r}/{ref_mae!r}")
            star = float(selection[f"alpha_star_{variant}_d{delta:g}"])
            require(star in alphas, f"selected alpha {star} is not on the grid")


def _program_operator(op: Operator):
    from regnets.linop import SvdOperator

    return SvdOperator(op.matrix, op.u, op.v, op.sigma, op.rank_tol)


def check_reconstruct(d: Path, cfg: dict, op: Operator):
    """truth.pgm is the quantised phantom; classical images match this
    module's TSVD within one step; the learned images match the program's
    reconstructions, whose nullspace residual lies in the kernel and whose
    continued residual leaves the retained coefficients unchanged."""
    from regnets import filters, regnet

    n = int(cfg["grid_n"])
    seed = int(cfg["seed"])
    truth = _read_set(d / "test.rgn1", int(cfg["test_count"]), n)[0]
    out = d / "out"
    require(np.array_equal(read_pgm(out / "truth.pgm"), quantise(truth).reshape(n, n)), "truth.pgm differs from the phantom")
    alpha = floats(cfg["alphas"])[0]
    prog_op = _program_operator(op)
    filt = filters.make_filter("tsvd")
    members = {}
    for variant in LEARNED:
        entries = manifest_entries(d / "models" / variant / "manifest.txt")
        a, name = min(entries, key=lambda e: abs(np.log(e[0]) - np.log(alpha)))
        members[variant] = regnet.ReconstructionMethod(variant, prog_op, filt, a, _load_member(d, variant, name))
    y = op.matrix @ truth
    sigma_max = float(op.sigma[0])
    for delta in floats(cfg["deltas"]):
        y_delta = max_noise(y, delta, seed)
        own = op.tsvd(y_delta[None, :], alpha)[0]
        images = {"classical": own}
        x_cl = regnet.ReconstructionMethod("classical", prog_op, filt, alpha).reconstruct(y_delta)
        for variant, method in members.items():
            x = method.reconstruct(y_delta)
            r = x - x_cl
            if variant == "nullspace":
                leak = np.linalg.norm(op.matrix @ r)
                require(leak <= 1e-8 * sigma_max * np.linalg.norm(r), f"nullspace residual has |A r| = {leak:.3g}")
            else:
                kept = op.u[:, : op.cut(method.alpha)]
                moved = np.linalg.norm(kept.T @ r)
                require(moved <= 1e-10 * np.linalg.norm(x_cl), f"continued residual moves retained coefficients by {moved:.3g}")
            images[variant] = x
        for variant, img in images.items():
            got = read_pgm(out / f"recon_d{delta:g}_{variant}.pgm")
            step = int(np.max(np.abs(got - quantise(img).reshape(n, n))))
            require(step <= 1, f"recon_d{delta:g}_{variant}.pgm is {step} quantisation steps off")


def check_rates(d: Path, cfg: dict):
    """Rows on the a-priori alpha rule; the reported slope is the fit to the
    rows and lies within 0.15 of 2 mu / (2 mu + 1)."""
    mu, scale = float(cfg["mu"]), float(cfg["scale_c"])
    header, rows = read_table(d / "out" / "rates.csv")
    require(header == ["delta", "alpha", "error"], f"rates.csv header {header}")
    deltas = sorted(floats(cfg["rate_deltas"]))
    require([r[0] for r in rows] == deltas, f"rates.csv deltas {[r[0] for r in rows]}")
    for delta, alpha, error in rows:
        require(close(alpha, scale * delta ** (2.0 / (2.0 * mu + 1.0)), 1e-12), f"rates.csv alpha {alpha} at delta {delta}")
        require(np.isfinite(error) and error > 0, f"rates.csv error {error} at delta {delta}")
    slope = loglog_slope([r[0] for r in rows], [r[2] for r in rows])
    summary = read_keyvalue(d / "out" / "slope.txt")
    theory = 2.0 * mu / (2.0 * mu + 1.0)
    require(abs(float(summary["slope"]) - slope) <= 1e-9, f"reported slope {summary['slope']}, fitted {slope!r}")
    require(abs(slope - theory) <= 0.15, f"rate slope {slope:.4f} is not within 0.15 of {theory:.4f}")


def check_distfn(d: Path, cfg: dict, op: Operator):
    """x = (A*A)^mu w with |w| = rho lies in the source set, so every
    distance is at most 1e-10 |x|."""
    mu = float(cfg["mu"])
    rho = float(cfg.get("rho", 1.0))
    w = np.random.default_rng(int(cfg["seed"])).standard_normal(op.u.shape[0])
    w *= rho / np.linalg.norm(w)
    r = op.cut(0.0)  # every direction above the rank cutoff
    x = op.u[:, :r] @ (op.sigma[:r] ** (2.0 * mu) * (op.u[:, :r].T @ w))
    values = read_keyvalue(d / "out" / "distfn.txt")
    for alpha in floats(cfg["alphas"]):
        dist = float(values[f"alpha_{alpha:g}"])
        require(0 <= dist <= 1e-10 * np.linalg.norm(x), f"distance {dist:.3g} at alpha {alpha:g} for x in the source set")


def check_counts(stage: str, counts: dict, cfg: dict):
    """Traced call counts of one stage against the counts the settings give."""
    expected = expected_counts(cfg)
    names = {name for per_stage in expected.values() for name in per_stage}
    for name in sorted(names):
        want = expected.get(stage, {}).get(name, 0)
        require(counts.get(name, 0) == want, f"{stage}: {name} = {counts.get(name, 0)}, expected {want}")
