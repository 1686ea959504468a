import struct
import tracemalloc

import numpy as np
import pytest

from conftest import SECTION_CORRUPTIONS, join_operator_file, split_operator_file
from regnets import network, radon, storage
from regnets.linop import svd_decompose
from regnets.network import NetworkArch


class TestOperatorContainer:
    def test_roundtrip(self, tmp_path, rng):
        op = svd_decompose(rng.standard_normal((7, 5)), rank_tol=1e-8)
        path = tmp_path / "op.rgn1"
        storage.write_operator(path, op, {"config": "abc", "seed": 3})
        back = storage.read_operator(path)
        assert np.array_equal(back.matrix, op.matrix)
        assert np.array_equal(back.singular_values, op.singular_values)
        assert np.array_equal(back.image_vectors, op.image_vectors)
        assert np.array_equal(back.data_vectors, op.data_vectors)
        assert back.rank_tol == op.rank_tol

    def test_read_holds_one_copy_of_the_file(self, tmp_path, rng):
        # the arrays are views of the one buffer the file is read into
        op = svd_decompose(rng.standard_normal((300, 500)))
        path = tmp_path / "op.rgn1"
        storage.write_operator(path, op)
        tracemalloc.start()
        try:
            back = storage.read_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * path.stat().st_size
        for a in (back.matrix, back.singular_values, back.image_vectors, back.data_vectors):
            assert a.flags.writeable

    def test_metadata_footer(self, tmp_path, rng):
        op = svd_decompose(rng.standard_normal((3, 4)))
        path = tmp_path / "op.rgn1"
        storage.write_operator(path, op, {"config": "deadbeef", "seed": 42})
        meta = storage.read_metadata(path)
        assert meta["config"] == "deadbeef"
        assert meta["seed"] == "42"

    def test_declared_header_layout(self, tmp_path, rng):
        # each container is its header, its f64 arrays in order, then the footer
        op = svd_decompose(rng.standard_normal((3, 2)))
        data = rng.standard_normal((4, 3))[:, ::2]
        params = network.init_network(NetworkArch(grid=4, hidden=(3,)), 5)
        (w0, b0), (w1, b1) = params.layers
        cases = [
            (
                lambda p: storage.write_operator(p, op, {"seed": 42}),
                b"RGN1" + struct.pack("<IQQ", 1, 3, 2),
                [op.matrix, op.singular_values, op.image_vectors, op.data_vectors],
                f"rank_tol={op.rank_tol!r}\nseed=42\n",
            ),
            (
                lambda p: storage.write_array(p, data, {"count": 4}),
                b"RGN1" + struct.pack("<IQQ", 2, 4, 2),
                [data],
                "count=4\n",
            ),
            (
                lambda p: storage.write_model(p, params, None),
                b"RGNN" + struct.pack("<IQqII", 2, 4, 5, 1, 3),
                [w0, b0, w1, b1],
                "",
            ),
        ]
        for i, (write, head, arrays, footer) in enumerate(cases):
            path = tmp_path / f"c{i}.bin"
            write(path)
            payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
            footer = footer.encode() + struct.pack("<Q", len(footer))
            assert path.read_bytes() == head + payload + footer

    def test_deterministic_bytes(self, tmp_path, rng):
        op = svd_decompose(rng.standard_normal((4, 4)))
        a, b = tmp_path / "a.rgn1", tmp_path / "b.rgn1"
        storage.write_operator(a, op, {"seed": 1})
        storage.write_operator(b, op, {"seed": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path, rng):
        storage.write_array(tmp_path / "arr.rgn1", rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            storage.read_operator(tmp_path / "arr.rgn1")


class TestArrayContainer:
    def test_roundtrip(self, tmp_path, rng):
        data = rng.standard_normal((5, 9))
        storage.write_array(tmp_path / "d.rgn1", data, {"count": 5})
        assert np.array_equal(storage.read_array(tmp_path / "d.rgn1"), data)

    def test_empty_dataset_valid(self, tmp_path):
        storage.write_array(tmp_path / "e.rgn1", np.zeros((0, 16)), {"count": 0})
        back = storage.read_array(tmp_path / "e.rgn1")
        assert back.shape == (0, 16)
        assert storage.read_metadata(tmp_path / "e.rgn1")["count"] == "0"

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "junk.rgn1").write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(ValueError):
            storage.read_array(tmp_path / "junk.rgn1")


class TestModelContainer:
    def test_roundtrip(self, tmp_path):
        arch = NetworkArch(grid=6, hidden=(3, 2))
        params = network.init_network(arch, 77)
        storage.write_model(tmp_path / "m.rgnn", params, {"alpha": "0.5"})
        back = storage.read_model(tmp_path / "m.rgnn")
        assert back.arch == arch
        assert back.seed == 77
        for (w1, b1), (w2, b2) in zip(params.layers, back.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_degenerate_single_layer(self, tmp_path):
        params = network.init_network(NetworkArch(grid=3, hidden=()), 0)
        storage.write_model(tmp_path / "m.rgnn", params)
        back = storage.read_model(tmp_path / "m.rgnn")
        assert back.arch.hidden == ()
        assert np.array_equal(back.layers[0][0], params.layers[0][0])


def _model_bytes(at, value):
    """A 1->3->2->1 model file on a 6-grid with the bytes at ``at`` replaced:
    version at 4, grid at 8, seed at 16, n_hidden at 24, widths at 28 and 32."""
    params = network.init_network(NetworkArch(grid=6, hidden=(3, 2)), 1)
    payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for layer in params.layers for a in layer)
    blob = bytearray(b"RGNN" + struct.pack("<IQqIII", 2, 6, 1, 2, 3, 2) + payload + struct.pack("<Q", 0))
    blob[at : at + len(value)] = value
    return bytes(blob)


class TestMalformedModelHeader:
    @pytest.mark.parametrize(
        "at, value, match",
        [
            (8, struct.pack("<Q", 0), "grid"),
            (32, struct.pack("<I", 0), "hidden"),
            (24, struct.pack("<I", 2**32 - 1), "truncated"),
        ],
        ids=["zero-grid", "zero-width", "more-widths-than-bytes"],
    )
    def test_bad_field_rejected(self, tmp_path, at, value, match):
        path = tmp_path / "m.rgnn"
        path.write_bytes(_model_bytes(at, b""))
        assert storage.read_model(path).arch == NetworkArch(grid=6, hidden=(3, 2))
        path.write_bytes(_model_bytes(at, value))
        with pytest.raises(storage.StorageError, match=match):
            storage.read_model(path)
        with pytest.raises(storage.StorageError, match=match):
            storage.read_metadata(path)

    def test_version_1_layout_rejected(self, tmp_path):
        # the layout before version 2: a skip-flag byte and a (cin, cout) pair per layer
        params = network.init_network(NetworkArch(grid=4, hidden=(3,)), 5)
        head = b"RGNN" + struct.pack("<IQIBq4I", 1, 4, 2, 0, 5, 1, 3, 3, 1)
        payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for layer in params.layers for a in layer)
        path = tmp_path / "old.rgnn"
        path.write_bytes(head + payload + struct.pack("<Q", 0))
        with pytest.raises(storage.StorageError, match="version 1"):
            storage.read_model(path)


def _operator_file(path, rng, meta=None):
    # 7 x 5: header 24 bytes, then 35 + 5 + 25 + 35 f64 values
    storage.write_operator(path, svd_decompose(rng.standard_normal((7, 5))), meta)


def _array_file(path, rng, meta=None):
    storage.write_array(path, rng.standard_normal((5, 9)), meta)


def _model_file(path, rng, meta=None):
    # 1->3->2->1: header 28 bytes, 2 widths of 4 bytes, then 27 + 3, 54 + 2, 18 + 1 f64
    storage.write_model(path, network.init_network(NetworkArch(grid=6, hidden=(3, 2)), 1), meta)


class TestTruncatedContainers:
    @pytest.mark.parametrize(
        "write, read, cut",
        [
            (_operator_file, storage.read_operator, 10),
            (_operator_file, storage.read_operator, 24 + 8 * 20),
            (_operator_file, storage.read_operator, 24 + 8 * 100 - 1),
            (_array_file, storage.read_array, 24 + 8 * 44),
            (_model_file, storage.read_model, 20),
            (_model_file, storage.read_model, 28 + 4 * 2 - 2),  # inside the second width
            (_model_file, storage.read_model, 36 + 8 * (27 + 3) + 100),
        ],
        ids=["operator-header", "operator-matrix", "operator-vectors", "array-rows",
             "model-header", "model-shapes", "model-weights"],
    )
    def test_cut_file_rejected(self, tmp_path, rng, write, read, cut):
        path = tmp_path / "file"
        write(path, rng)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(storage.StorageError, match="truncated"):
            read(path)

    @pytest.mark.parametrize("short", [1, 3, 8, 12])
    @pytest.mark.parametrize(
        "write, read",
        [(_operator_file, storage.read_operator), (_array_file, storage.read_array),
         (_model_file, storage.read_model)],
        ids=["operator", "array", "model"],
    )
    def test_cut_footer_rejected(self, tmp_path, rng, write, read, short):
        # every footer here is longer than 12 bytes, so each cut ends inside it
        path = tmp_path / "file"
        write(path, rng, meta={"config": "deadbeef"})
        blob = path.read_bytes()
        assert storage.read_metadata(path)["config"] == "deadbeef"
        path.write_bytes(blob[:-short])
        with pytest.raises(storage.StorageError, match="footer"):
            read(path)
        with pytest.raises(storage.StorageError, match="footer"):
            storage.read_metadata(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "file"
        _model_file(path, rng)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(storage.StorageError, match="footer"):
            storage.read_model(path)


class TestEmptyContainer:
    @pytest.mark.parametrize(
        "read", [storage.read_operator, storage.read_array, storage.read_model, storage.read_metadata],
        ids=["operator", "array", "model", "metadata"],
    )
    def test_empty_file_is_not_a_container(self, tmp_path, read):
        # a zero-length file cannot be mapped; it is malformed, not a numeric error
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(storage.StorageError, match="not an"):
            read(path)


class TestMappedReads:
    def test_kept_arrays_survive_a_rewrite_of_the_path(self, tmp_path, rng):
        # same shape, so a write in place would show through the mapping
        path = tmp_path / "op.rgn1"
        old_op, new_op = (svd_decompose(rng.standard_normal((7, 5))) for _ in range(2))
        storage.write_operator(path, old_op)
        kept = storage.read_operator(path)
        storage.write_operator(path, new_op)
        for name in ("matrix", "singular_values", "image_vectors", "data_vectors"):
            assert np.array_equal(getattr(kept, name), getattr(old_op, name)), name
            assert np.array_equal(getattr(storage.read_operator(path), name), getattr(new_op, name)), name

    def test_writes_to_a_read_array_never_reach_the_file(self, tmp_path, rng):
        path = tmp_path / "d.rgn1"
        data = rng.standard_normal((5, 9))
        storage.write_array(path, data)
        blob = path.read_bytes()
        back = storage.read_array(path)
        back[...] = -1.0
        assert path.read_bytes() == blob
        assert np.array_equal(storage.read_array(path), data)


class TestFailedWrite:
    def test_directory_destination_leaves_no_temporary(self, tmp_path, rng):
        (tmp_path / "sub").mkdir()
        with pytest.raises(IsADirectoryError):
            storage.write_array(tmp_path / "sub", rng.standard_normal((2, 3)))
        assert [p.name for p in tmp_path.rglob("*")] == ["sub"]

    def test_conversion_failure_keeps_the_old_file(self, tmp_path):
        # the last bias cannot become f64: the header and the first layers
        # are written before the failure
        path = tmp_path / "m.rgnn"
        params = network.init_network(NetworkArch(grid=6, hidden=(3, 2)), 1)
        storage.write_model(path, params)
        blob = path.read_bytes()
        w, _ = params.layers[-1]
        params.layers[-1] = (w, np.array(["x"], dtype=object))
        with pytest.raises(ValueError):
            storage.write_model(path, params)
        assert path.read_bytes() == blob
        assert [p.name for p in tmp_path.iterdir()] == ["m.rgnn"]


class TestManifestPgmCsv:
    def test_manifest_roundtrip(self, tmp_path):
        entries = [(0.5, "model_000.rgnn"), (0.05, "model_001.rgnn")]
        storage.write_manifest(tmp_path / "manifest.txt", entries, {"config": "cafe"})
        assert storage.read_manifest(tmp_path / "manifest.txt") == (entries, {"config": "cafe"})
        text = (tmp_path / "manifest.txt").read_text()
        assert "# config=cafe" in text

    @staticmethod
    def _pgm_samples(path, width, height):
        blob = path.read_bytes()
        header = f"P5\n{width} {height}\n65535\n".encode("ascii")
        assert blob[: len(header)] == header
        return np.frombuffer(blob[len(header) :], ">u2").reshape(height, width)

    def test_pgm_roundtrip(self, tmp_path, rng):
        img = rng.uniform(0, 1, (6, 9))
        storage.write_pgm16(tmp_path / "img.pgm", img)
        back = self._pgm_samples(tmp_path / "img.pgm", 9, 6) / 65535.0
        assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12

    def test_pgm_clips(self, tmp_path):
        storage.write_pgm16(tmp_path / "img.pgm", np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(self._pgm_samples(tmp_path / "img.pgm", 2, 1), [[0, 65535]])

    def test_csv_headers(self, tmp_path):
        storage.write_csv(tmp_path / "c.csv", ("alpha", "kept", "mse", "mae"), [(0.1, 5, 0.01, 0.02)], {"seed": 1})
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines == ["# seed=1", "alpha,kept,mse,mae", "0.1,5,0.01,0.02"]
        storage.write_csv(tmp_path / "r.csv", ("delta", "alpha", "error"), [(0.1, 0.2, 0.3)])
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == "delta,alpha,error"

    def test_keyvalue_provenance_follows_values(self, tmp_path):
        storage.write_keyvalue(tmp_path / "kv.txt", {"slope": "0.5", "n": 3}, {"config": "cafe", "seed": 0})
        assert (tmp_path / "kv.txt").read_text() == "slope=0.5\nn=3\nconfig=cafe\nseed=0\n"


def _symmetric_operator():
    geom = radon.RadonGeometry(grid_n=10, n_angles=6, n_detectors=12)
    return svd_decompose(radon.assemble_matrix(geom), symmetries=geom.mirrors())


class TestSymmetrySection:
    def test_roundtrip(self, tmp_path):
        op = _symmetric_operator()
        path = tmp_path / "op.rgn1"
        storage.write_operator(path, op, {"seed": 3})
        body, section, footer = split_operator_file(path)
        (row_x, col_x), (row_y, col_y) = op.symmetries
        want = np.concatenate([row_x, col_x, row_y, col_y, op.characters]).astype("<u8").tobytes()
        assert section == want
        assert footer == f"rank_tol={op.rank_tol!r}\nseed=3\nsymmetries=2\n"
        back = storage.read_operator(path)
        for name in ("matrix", "singular_values", "image_vectors", "data_vectors", "characters"):
            assert np.array_equal(getattr(back, name), getattr(op, name)), name
        for got, pair in zip(back.symmetries, op.symmetries):
            assert all(np.array_equal(a, b) for a, b in zip(got, pair))
        assert storage.read_metadata(path)["symmetries"] == "2"

    @pytest.mark.parametrize("corruption", sorted(SECTION_CORRUPTIONS))
    def test_malformed_section_rejected(self, tmp_path, corruption):
        path = tmp_path / "op.rgn1"
        storage.write_operator(path, _symmetric_operator())
        body, section, footer = split_operator_file(path)
        join_operator_file(path, body, section, footer)
        storage.read_operator(path)
        join_operator_file(path, body, *SECTION_CORRUPTIONS[corruption](section, footer))
        with pytest.raises(storage.StorageError):
            storage.read_operator(path)
        with pytest.raises(storage.StorageError):
            storage.read_metadata(path)

    def test_key_on_a_plain_operator_rejected(self, tmp_path, rng):
        path = tmp_path / "op.rgn1"
        _operator_file(path, rng)
        body, section, footer = split_operator_file(path)
        assert section == b""
        join_operator_file(path, body, section, footer + "symmetries=1\n")
        with pytest.raises(storage.StorageError):
            storage.read_operator(path)


class TestRankTolFooter:
    @pytest.mark.parametrize("value", ["abc", "2", "nan", "inf", "-1"])
    def test_rank_tol_outside_the_unit_interval_rejected(self, tmp_path, rng, value):
        path = tmp_path / "op.rgn1"
        storage.write_operator(path, svd_decompose(rng.standard_normal((7, 5))))
        body, section, footer = split_operator_file(path)
        assert "rank_tol=1e-10\n" in footer
        join_operator_file(path, body, section, footer.replace("rank_tol=1e-10", "rank_tol=0.5"))
        assert storage.read_operator(path).rank_tol == 0.5
        join_operator_file(path, body, section, footer.replace("rank_tol=1e-10", f"rank_tol={value}"))
        for read in (storage.read_operator, storage.read_metadata):
            with pytest.raises(storage.StorageError, match="rank_tol"):
                read(path)
