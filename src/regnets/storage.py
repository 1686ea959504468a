"""File formats: binary containers for operators, datasets and models,
plus PGM image dumps, manifests and the CSV reports.

Binary container "RGN1" (all little-endian):

    magic 'RGN1' | u32 version | u64 rows | u64 cols | payload f64 arrays

Version 1 is an operator file whose payload is the row-major matrix, the
singular values (k = min(rows, cols)), the image-space vectors (cols x k)
and the data-space vectors (rows x k).  An operator factored one block per
symmetry character (``linop.svd_decompose``) records its group after
these: the footer key ``symmetries=m`` declares m generators, and the
section holds, as u64, each generator's row permutation (rows) and column
permutation (cols), then the character of each stored pair (k values
below 2^m).  Each generator must be a commuting involution new to the
group, and m lies in 1..8; the section is not checked against the
matrix.  An operator without symmetries has neither the key nor the
section.  Version 2 is a plain array file
holding only the matrix block (used for phantom and sinogram sets, one
item per row).  Model files use magic 'RGNN' and hold exactly what
``NetworkArch`` holds:

    magic 'RGNN' | u32 version=2 | u64 grid | i64 seed | u32 n_hidden
    | n_hidden x u32 hidden widths | per-layer f64 arrays

Layer l maps channels[l] -> channels[l+1] of ``[1, *hidden, 1]``; its
weights (cout, cin, 3, 3) are followed by its biases (cout).  A zero grid
or width, or any other version, is a ``StorageError``.

Every writer appends a metadata footer (utf-8 "key=value" lines followed
by their u64 byte length) after the declared payload; it holds run
provenance such as the config hash and seeds.  Writers are
byte-deterministic for fixed inputs.  Readers check the magic, the
version, every header field and declared payload size against the file
length, and that the footer ends exactly at the end of the file; they
raise ``StorageError`` on a malformed, truncated or empty file.  A reader
maps the file copy-on-write: the arrays it returns are writable views of
the mapping, and writes to them never reach the file.  A container writer
writes a temporary file beside the path and renames it onto the path, so
a failed write leaves no partial file and a reader of the old file keeps
its bytes.  A file truncated by another process while mapped is outside
this contract.
"""

from __future__ import annotations

import mmap
import os
import struct
from dataclasses import replace
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
    "write_csv",
    "write_keyvalue",
]

_MAGIC_ARRAY = b"RGN1"
_MAGIC_MODEL = b"RGNN"
_VERSION_OPERATOR = 1
_VERSION_ARRAY = 2
_VERSION_MODEL = 2
# the footer key of an operator file's symmetry section (the module docstring)
_SYMMETRY_KEY = "symmetries"


class StorageError(ValueError):
    """A container file that is malformed or shorter than its header declares."""


def _footer_bytes(meta: dict | None) -> bytes:
    meta = meta or {}
    body = "".join(f"{k}={meta[k]}\n" for k in sorted(meta)).encode("utf-8")
    return body + struct.pack("<Q", len(body))


def _read_footer(blob: memoryview, end: int, path) -> dict:
    """The key=value footer after a payload that ends at ``end``; it must end the file."""
    _need(blob, end + 8, path)
    (length,) = struct.unpack("<Q", blob[-8:])
    if end + length + 8 != len(blob):
        raise StorageError(f"{path}: truncated or malformed metadata footer ({length} bytes declared)")
    try:
        lines = bytes(blob[end:-8]).decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise StorageError(f"{path}: metadata footer is not utf-8") from exc
    return dict(line.partition("=")[::2] for line in lines if "=" in line)


def _footer_start(blob: memoryview, path) -> int:
    """Where the footer that the file's last 8 bytes declare begins."""
    _need(blob, 8, path)
    (length,) = struct.unpack("<Q", blob[-8:])
    if length > len(blob) - 8:
        raise StorageError(f"{path}: truncated or malformed metadata footer ({length} bytes declared)")
    return len(blob) - 8 - length


def _need(blob: memoryview, end: int, path):
    if end > len(blob):
        raise StorageError(f"{path}: truncated file ({len(blob)} bytes, at least {end} declared)")


def _unpack(fmt: str, blob: memoryview, offset: int, path):
    end = offset + struct.calcsize(fmt)
    _need(blob, end, path)
    return struct.unpack(fmt, blob[offset:end]), end


def _view(blob: memoryview, offset: int, count: int, path, dtype="<f8"):
    """A view of ``count`` f64 values (or of another 8-byte ``dtype``) in
    the file buffer; writable, no copy."""
    _need(blob, offset + 8 * count, path)
    return np.frombuffer(blob, dtype=dtype, count=count, offset=offset), offset + 8 * count


def _read_blob(path) -> memoryview:
    """The whole file, mapped copy-on-write; the decoded arrays view it."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:  # mmap refuses an empty file
            return memoryview(bytearray())
        return memoryview(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY))


def _read_header(blob: memoryview, magic: bytes, fmt: str, path):
    """Check the 4-byte magic and unpack the fixed header after it."""
    if blob[:4] != magic:
        raise StorageError(f"{path}: not an {magic.decode()} container")
    return _unpack(fmt, blob, 4, path)


def _write_container(path, head: bytes, arrays, meta: dict | None):
    """Header bytes, then each array in order, integer arrays as
    little-endian u64 and the others as f64, then the footer.  The arrays go
    to the file through the buffer protocol, so no bytes copy of the
    payload is made."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(head)
            for a in arrays:
                f.write(np.ascontiguousarray(a, dtype="<u8" if a.dtype.kind in "iu" else "<f8"))
            f.write(_footer_bytes(meta))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_operator(path, op: SvdOperator, meta: dict | None = None):
    meta = dict(meta or {})
    meta.setdefault("rank_tol", repr(op.rank_tol))
    head = _MAGIC_ARRAY + struct.pack("<IQQ", _VERSION_OPERATOR, op.rows, op.cols)
    arrays = [op.matrix, op.singular_values, op.image_vectors, op.data_vectors]
    if op.symmetries:
        meta[_SYMMETRY_KEY] = len(op.symmetries)
        arrays += [perm for pair in op.symmetries for perm in pair] + [op.characters]
    _write_container(path, head, arrays, meta)


def _decode_operator(blob: memoryview, path):
    (version, rows, cols), off = _read_header(blob, _MAGIC_ARRAY, "<IQQ", path)
    if version != _VERSION_OPERATOR:
        raise StorageError(f"{path}: expected an operator file (version 1), got version {version}")
    k = min(rows, cols)
    matrix, off = _view(blob, off, rows * cols, path)
    sigma, off = _view(blob, off, k, path)
    u, off = _view(blob, off, cols * k, path)
    v, off = _view(blob, off, rows * k, path)
    start = _footer_start(blob, path)
    meta = _read_footer(blob, start, path)
    symmetries, characters = [], None
    if _SYMMETRY_KEY in meta:
        count = meta[_SYMMETRY_KEY]
        if not (count.isascii() and count.isdigit() and int(count) >= 1):
            raise StorageError(f"{path}: {_SYMMETRY_KEY}={count!r} is not a positive generator count")
        for _ in range(int(count)):
            row_perm, off = _view(blob, off, rows, path, "<u8")
            col_perm, off = _view(blob, off, cols, path, "<u8")
            # as index arrays; an entry of 2^63 or more turns negative, so it is no permutation
            symmetries.append((row_perm.astype(np.intp), col_perm.astype(np.intp)))
        characters, off = _view(blob, off, k, path, "<u8")
    if off != start:
        raise StorageError(f"{path}: the payload ends at byte {off}, the metadata footer begins at byte {start}")
    op = SvdOperator(
        matrix=matrix.reshape(rows, cols),
        image_vectors=u.reshape(cols, k),
        data_vectors=v.reshape(rows, k),
        singular_values=sigma,
        rank_tol=float(meta.get("rank_tol", 1e-10)),
    )
    if symmetries:  # checked apart, so that unordered singular values stay a numeric error
        try:
            op = replace(op, symmetries=tuple(symmetries), characters=characters)
        except ValueError as exc:
            raise StorageError(f"{path}: symmetry section: {exc}") from exc
    return op, meta


def read_operator(path) -> SvdOperator:
    return _decode_operator(_read_blob(path), path)[0]


def write_array(path, array, meta: dict | None = None):
    array = np.atleast_2d(np.asarray(array, dtype=float))
    head = _MAGIC_ARRAY + struct.pack("<IQQ", _VERSION_ARRAY, array.shape[0], array.shape[1])
    _write_container(path, head, (array,), meta)


def _decode_array(blob: memoryview, path):
    (version, rows, cols), off = _read_header(blob, _MAGIC_ARRAY, "<IQQ", path)
    if version != _VERSION_ARRAY:
        raise StorageError(f"{path}: expected an array file (version 2), got version {version}")
    data, off = _view(blob, off, rows * cols, path)
    return data.reshape(rows, cols), _read_footer(blob, off, path)


def read_array(path) -> np.ndarray:
    return _decode_array(_read_blob(path), path)[0]


def write_model(path, params: NetworkParams, meta: dict | None = None):
    arch = params.arch
    fields = (_VERSION_MODEL, arch.grid, params.seed, len(arch.hidden), *arch.hidden)
    head = _MAGIC_MODEL + struct.pack(f"<IQqI{len(arch.hidden)}I", *fields)
    _write_container(path, head, [a for layer in params.layers for a in layer], meta)


def _decode_model(blob: memoryview, path):
    (version, grid, seed, n_hidden), off = _read_header(blob, _MAGIC_MODEL, "<IQqI", path)
    if version != _VERSION_MODEL:
        raise StorageError(f"{path}: expected a model file (version 2), got version {version}")
    hidden, off = _unpack(f"<{n_hidden}I", blob, off, path)
    try:
        arch = NetworkArch(grid=grid, hidden=hidden)
    except ValueError as exc:
        raise StorageError(f"{path}: {exc}") from exc
    layers = []
    for cin, cout in zip(arch.channels[:-1], arch.channels[1:]):
        w, off = _view(blob, off, cout * cin * 9, path)
        b, off = _view(blob, off, cout, path)
        layers.append((w.reshape(cout, cin, 3, 3), b))
    return NetworkParams(arch=arch, layers=layers, seed=int(seed)), _read_footer(blob, off, path)


def read_model(path) -> NetworkParams:
    return _decode_model(_read_blob(path), path)[0]


def read_metadata(path) -> dict:
    """The footer of an operator, array or model file, after checking its payload."""
    blob = _read_blob(path)
    if blob[:4] == _MAGIC_MODEL:
        return _decode_model(blob, path)[1]
    if blob[4:8] == struct.pack("<I", _VERSION_OPERATOR):
        return _decode_operator(blob, path)[1]
    return _decode_array(blob, path)[1]


def _comment_lines(meta: dict | None) -> list:
    return [f"# {k}={v}" for k, v in sorted((meta or {}).items())]


def write_manifest(path, entries, meta: dict | None = None):
    """Plain-text family manifest: one 'alpha=<decimal> model=<path>' per line."""
    lines = _comment_lines(meta) + [f"alpha={alpha!r} model={model}" for alpha, model in entries]
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
        try:
            entries.append((float(fields["alpha"]), fields["model"]))
        except (KeyError, ValueError) as exc:
            raise StorageError(f"{path}: malformed manifest entry {line!r}") from exc
    return entries, meta


def write_pgm16(path, image):
    """16-bit binary PGM; values are clipped to [0, 1] and scaled to 65535."""
    img = np.atleast_2d(np.asarray(image, dtype=float))
    scaled = np.round(np.clip(img, 0.0, 1.0) * 65535.0).astype(">u2")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes())


def write_csv(path, header, rows, meta: dict | None = None):
    """'# key=value' provenance comments, the header line, then one line of
    comma-separated ``repr`` values per row."""
    lines = _comment_lines(meta) + [",".join(header)]
    lines += [",".join(repr(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_keyvalue(path, values: dict, meta: dict | None = None):
    """One 'key=value' line per entry of ``values``, then of the provenance ``meta``."""
    lines = [f"{k}={v}" for k, v in {**values, **(meta or {})}.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
