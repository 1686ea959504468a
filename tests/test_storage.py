import numpy as np
import pytest

from regnets import network, storage
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

    def test_metadata_footer(self, tmp_path, rng):
        op = svd_decompose(rng.standard_normal((3, 4)))
        path = tmp_path / "op.rgn1"
        storage.write_operator(path, op, {"config": "deadbeef", "seed": 42})
        meta = storage.read_metadata(path)
        assert meta["config"] == "deadbeef"
        assert meta["seed"] == "42"

    def test_declared_header_layout(self, tmp_path, rng):
        op = svd_decompose(rng.standard_normal((3, 2)))
        path = tmp_path / "op.rgn1"
        storage.write_operator(path, op)
        blob = path.read_bytes()
        assert blob[:4] == b"RGN1"
        import struct

        version, rows, cols = struct.unpack("<IQQ", blob[4:24])
        assert (version, rows, cols) == (1, 3, 2)
        matrix = np.frombuffer(blob, dtype="<f8", count=6, offset=24).reshape(3, 2)
        assert np.array_equal(matrix, op.matrix)

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
        arch = NetworkArch(grid=6, hidden=(3, 2), residual=True)
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


def _operator_file(path, rng, meta=None):
    # 7 x 5: header 24 bytes, then 35 + 5 + 25 + 35 f64 values
    storage.write_operator(path, svd_decompose(rng.standard_normal((7, 5))), meta)


def _array_file(path, rng, meta=None):
    storage.write_array(path, rng.standard_normal((5, 9)), meta)


def _model_file(path, rng, meta=None):
    # 1->3->2->1: header 29 bytes, 3 layer shapes of 8 bytes, then 27 + 3, 54 + 2, 18 + 1 f64
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
            (_model_file, storage.read_model, 29 + 8 * 3 - 4),
            (_model_file, storage.read_model, 53 + 8 * (27 + 3) + 100),
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


class TestManifestPgmCsv:
    def test_manifest_roundtrip(self, tmp_path):
        entries = [(0.5, "model_000.rgnn"), (0.05, "model_001.rgnn")]
        storage.write_manifest(tmp_path / "manifest.txt", entries, {"config": "cafe"})
        assert storage.read_manifest(tmp_path / "manifest.txt") == (entries, {"config": "cafe"})
        text = (tmp_path / "manifest.txt").read_text()
        assert "# config=cafe" in text

    def test_pgm_roundtrip(self, tmp_path, rng):
        img = rng.uniform(0, 1, (6, 9))
        storage.write_pgm16(tmp_path / "img.pgm", img)
        back = storage.read_pgm16(tmp_path / "img.pgm")
        assert back.shape == (6, 9)
        assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12

    @pytest.mark.parametrize("blob", [b"P5\n# comment without newline", b"P5\n4"])
    def test_pgm_truncated_header_rejected(self, tmp_path, blob):
        (tmp_path / "bad.pgm").write_bytes(blob)
        with pytest.raises(ValueError):
            storage.read_pgm16(tmp_path / "bad.pgm")

    def test_pgm_clips(self, tmp_path):
        storage.write_pgm16(tmp_path / "img.pgm", np.array([[-1.0, 2.0]]))
        back = storage.read_pgm16(tmp_path / "img.pgm")
        np.testing.assert_array_equal(back, [[0.0, 1.0]])

    def test_csv_headers(self, tmp_path):
        from regnets.analysis import CurveRow, RateRow

        storage.write_curve_csv(tmp_path / "c.csv", [CurveRow(0.1, 5, 0.01, 0.02)], {"seed": 1})
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "alpha,kept,mse,mae"
        storage.write_rate_csv(tmp_path / "r.csv", [RateRow(0.1, 0.2, 0.3)])
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == "delta,alpha,error"
