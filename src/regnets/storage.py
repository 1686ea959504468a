"""File formats: binary containers for operators, datasets and models,
plus PGM image dumps, manifests and the CSV reports.

Binary container "RGN1" (all little-endian):

    magic 'RGN1' | u32 version | u64 rows | u64 cols | payload f64 arrays

Version 1 is an operator file whose payload is the row-major matrix, the
singular values (k = min(rows, cols)), the image-space vectors (cols x k)
and the data-space vectors (rows x k).  Version 2 is a plain array file
holding only the matrix block (used for phantom and sinogram sets, one
item per row).  Model files use magic 'RGNN' with an architecture
descriptor followed by the per-layer weight and bias arrays.

Every writer appends a metadata footer (utf-8 "key=value" lines followed
by their u64 byte length) after the declared payload; it holds run
provenance such as the config hash and seeds.  Writers are
byte-deterministic for fixed inputs.  Readers check the magic, the
version, every header field and declared payload size against the file
length, and that the footer ends exactly at the end of the file; they
raise ``StorageError`` on a malformed or truncated file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .linop import SvdOperator
from .network import NetworkArch, NetworkParams

__all__ = [
    "StorageError",
    "write_operator",
    "read_operator",
    "write_array",
    "read_array",
    "write_model",
    "read_model",
    "read_metadata",
    "write_manifest",
    "read_manifest",
    "write_pgm16",
    "read_pgm16",
    "write_curve_csv",
    "write_rate_csv",
    "write_keyvalue",
]

_MAGIC_ARRAY = b"RGN1"
_MAGIC_MODEL = b"RGNN"
_VERSION_OPERATOR = 1
_VERSION_ARRAY = 2


class StorageError(ValueError):
    """A container file that is malformed or shorter than its header declares."""


def _footer_bytes(meta: dict | None) -> bytes:
    meta = meta or {}
    body = "".join(f"{k}={meta[k]}\n" for k in sorted(meta)).encode("utf-8")
    return body + struct.pack("<Q", len(body))


def _read_footer(blob: bytes, end: int, path) -> dict:
    """The key=value footer after a payload that ends at ``end``; it must end the file."""
    _need(blob, end + 8, path)
    (length,) = struct.unpack("<Q", blob[-8:])
    if end + length + 8 != len(blob):
        raise StorageError(f"{path}: truncated or malformed metadata footer ({length} bytes declared)")
    try:
        lines = blob[end:-8].decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise StorageError(f"{path}: metadata footer is not utf-8") from exc
    return dict(line.partition("=")[::2] for line in lines if "=" in line)


def _need(blob: bytes, end: int, path):
    if end > len(blob):
        raise StorageError(f"{path}: truncated file ({len(blob)} bytes, at least {end} declared)")


def _unpack(fmt: str, blob: bytes, offset: int, path):
    end = offset + struct.calcsize(fmt)
    _need(blob, end, path)
    return struct.unpack(fmt, blob[offset:end]), end


def _f64(blob: bytes, offset: int, count: int, path):
    _need(blob, offset + 8 * count, path)
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    return arr.astype(float), offset + 8 * count


def _read_header(blob: bytes, magic: bytes, fmt: str, path):
    """Check the 4-byte magic and unpack the fixed header after it."""
    if blob[:4] != magic:
        raise StorageError(f"{path}: not an {magic.decode()} container")
    return _unpack(fmt, blob, 4, path)


def write_operator(path, op: SvdOperator, meta: dict | None = None):
    meta = dict(meta or {})
    meta.setdefault("rank_tol", repr(op.rank_tol))
    parts = [
        _MAGIC_ARRAY,
        struct.pack("<IQQ", _VERSION_OPERATOR, op.rows, op.cols),
        np.ascontiguousarray(op.matrix, dtype="<f8").tobytes(),
        np.ascontiguousarray(op.singular_values, dtype="<f8").tobytes(),
        np.ascontiguousarray(op.image_vectors, dtype="<f8").tobytes(),
        np.ascontiguousarray(op.data_vectors, dtype="<f8").tobytes(),
        _footer_bytes(meta),
    ]
    Path(path).write_bytes(b"".join(parts))


def _decode_operator(blob: bytes, path):
    (version, rows, cols), off = _read_header(blob, _MAGIC_ARRAY, "<IQQ", path)
    if version != _VERSION_OPERATOR:
        raise StorageError(f"{path}: expected an operator file (version 1), got version {version}")
    k = min(rows, cols)
    matrix, off = _f64(blob, off, rows * cols, path)
    sigma, off = _f64(blob, off, k, path)
    u, off = _f64(blob, off, cols * k, path)
    v, off = _f64(blob, off, rows * k, path)
    meta = _read_footer(blob, off, path)
    return SvdOperator(
        matrix=matrix.reshape(rows, cols),
        image_vectors=u.reshape(cols, k),
        data_vectors=v.reshape(rows, k),
        singular_values=sigma,
        rank_tol=float(meta.get("rank_tol", 1e-10)),
    ), meta


def read_operator(path) -> SvdOperator:
    return _decode_operator(Path(path).read_bytes(), path)[0]


def write_array(path, array, meta: dict | None = None):
    array = np.atleast_2d(np.asarray(array, dtype=float))
    parts = [
        _MAGIC_ARRAY,
        struct.pack("<IQQ", _VERSION_ARRAY, array.shape[0], array.shape[1]),
        np.ascontiguousarray(array, dtype="<f8").tobytes(),
        _footer_bytes(meta),
    ]
    Path(path).write_bytes(b"".join(parts))


def _decode_array(blob: bytes, path):
    (version, rows, cols), off = _read_header(blob, _MAGIC_ARRAY, "<IQQ", path)
    if version != _VERSION_ARRAY:
        raise StorageError(f"{path}: expected an array file (version 2), got version {version}")
    data, off = _f64(blob, off, rows * cols, path)
    return data.reshape(rows, cols), _read_footer(blob, off, path)


def read_array(path) -> np.ndarray:
    return _decode_array(Path(path).read_bytes(), path)[0]


def write_model(path, params: NetworkParams, meta: dict | None = None):
    arch = params.arch
    head = [
        _MAGIC_MODEL,
        struct.pack("<IQIBq", 1, arch.grid, arch.n_layers, int(arch.residual), params.seed),
    ]
    for w, _ in params.layers:
        head.append(struct.pack("<II", w.shape[1], w.shape[0]))
    body = []
    for w, b in params.layers:
        body.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        body.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(head + body) + _footer_bytes(meta))


def _decode_model(blob: bytes, path):
    (version, grid, n_layers, residual, seed), off = _read_header(blob, _MAGIC_MODEL, "<IQIBq", path)
    if version != 1:
        raise StorageError(f"{path}: unsupported model version {version}")
    shapes = []
    for _ in range(n_layers):
        shape, off = _unpack("<II", blob, off, path)
        shapes.append(shape)
    hidden = tuple(cout for _, cout in shapes[:-1])
    arch = NetworkArch(grid=int(grid), hidden=hidden, residual=bool(residual))
    layers = []
    for cin, cout in shapes:
        w, off = _f64(blob, off, cout * cin * 9, path)
        b, off = _f64(blob, off, cout, path)
        layers.append((w.reshape(cout, cin, 3, 3), b))
    return NetworkParams(arch=arch, layers=layers, seed=int(seed)), _read_footer(blob, off, path)


def read_model(path) -> NetworkParams:
    return _decode_model(Path(path).read_bytes(), path)[0]


def read_metadata(path) -> dict:
    """The footer of an operator, array or model file, after checking its payload."""
    blob = Path(path).read_bytes()
    if blob[:4] == _MAGIC_MODEL:
        return _decode_model(blob, path)[1]
    if blob[4:8] == struct.pack("<I", _VERSION_OPERATOR):
        return _decode_operator(blob, path)[1]
    return _decode_array(blob, path)[1]


def write_manifest(path, entries, meta: dict | None = None):
    """Plain-text family manifest: one 'alpha=<decimal> model=<path>' per line."""
    lines = [f"# {k}={v}" for k, v in sorted((meta or {}).items())]
    lines += [f"alpha={alpha!r} model={model}" for alpha, model in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path):
    """(entries, meta): the (alpha, model) pairs and the '# key=value' header."""
    entries = []
    meta = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key] = value
            continue
        fields = dict(part.partition("=")[::2] for part in line.split())
        entries.append((float(fields["alpha"]), fields["model"]))
    return entries, meta


def write_pgm16(path, image):
    """16-bit binary PGM; values are clipped to [0, 1] and scaled to 65535."""
    img = np.atleast_2d(np.asarray(image, dtype=float))
    scaled = np.round(np.clip(img, 0.0, 1.0) * 65535.0).astype(">u2")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes())


def read_pgm16(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    fields = []
    off = 0
    while len(fields) < 4:
        while off < len(blob) and blob[off : off + 1].isspace():
            off += 1
        if off == len(blob):
            raise ValueError(f"{path}: PGM header has fewer than four fields")
        if blob[off : off + 1] == b"#":
            while off < len(blob) and blob[off : off + 1] != b"\n":
                off += 1
            continue
        start = off
        while off < len(blob) and not blob[off : off + 1].isspace():
            off += 1
        fields.append(blob[start:off])
    off += 1
    magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if magic != b"P5" or maxval != 65535:
        raise ValueError(f"{path}: expected 16-bit binary PGM")
    data = np.frombuffer(blob, dtype=">u2", count=width * height, offset=off)
    return data.reshape(height, width).astype(float) / 65535.0


def _comment_lines(meta: dict | None) -> list:
    return [f"# {k}={v}" for k, v in sorted((meta or {}).items())]


def write_curve_csv(path, rows, meta: dict | None = None):
    lines = _comment_lines(meta) + ["alpha,kept,mse,mae"]
    lines += [f"{r.alpha!r},{r.kept},{r.mse!r},{r.mae!r}" for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rate_csv(path, rows, meta: dict | None = None):
    lines = _comment_lines(meta) + ["delta,alpha,error"]
    lines += [f"{r.delta!r},{r.alpha!r},{r.error!r}" for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_keyvalue(path, values: dict):
    lines = [f"{k}={v}" for k, v in values.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
