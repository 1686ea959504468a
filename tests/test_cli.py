import numpy as np
import pytest

from regnets import storage
from regnets.cli import RunConfig, load_config, main

TINY_CONFIG = """\
grid_n=10
n_angles=6
n_detectors=12
alphas=2e-3,5e-4
lr=1e-4
epochs=2
batch_size=4
train_count=8
test_count=3
deltas=0.05
rate_deltas=1e-5,1e-4,1e-3,1e-2,1e-1
mu=0.5
seed=3
method=continued
hidden=3
"""


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    (tmp_path / "run.cfg").write_text(TINY_CONFIG)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_and_overrides(self, workspace):
        cfg = load_config("run.cfg", {"seed": 9})
        assert cfg.grid_n == 10
        assert cfg.seed == 9
        assert cfg.alpha_list() == [2e-3, 5e-4]

    def test_unknown_key_rejected(self, workspace):
        (workspace / "bad.cfg").write_text("no_such_key=1\n")
        with pytest.raises(ValueError):
            load_config("bad.cfg")
        assert run("assemble", "--config", "bad.cfg") == 1

    def test_hash_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        c = RunConfig(seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestPipeline:
    def test_full_pipeline(self, workspace):
        assert run("assemble", "--config", "run.cfg") == 0
        assert run("phantoms", "--config", "run.cfg") == 0
        assert run("train", "--config", "run.cfg") == 0
        assert run("train", "--config", "run.cfg", "--method", "nullspace") == 0
        assert run("evaluate", "--config", "run.cfg") == 0
        assert run("reconstruct", "--config", "run.cfg") == 0
        assert run("rates", "--config", "run.cfg") == 0
        assert run("distfn", "--config", "run.cfg") == 0
        assert run("checkfilter", "--config", "run.cfg") == 0

        op = storage.read_operator("operator.rgn1")
        assert (op.rows, op.cols) == (72, 100)
        assert storage.read_array("train.rgn1").shape == (8, 100)
        assert storage.read_array("test.rgn1").shape == (3, 100)

        manifest, meta = storage.read_manifest("models/continued/manifest.txt")
        assert [alpha for alpha, _ in manifest] == [2e-3, 5e-4]
        assert np.isfinite(float(meta["lipschitz_cap"]))

        for name in (
            "out/evaluate_classical_d0.05.csv",
            "out/evaluate_continued_d0.05.csv",
            "out/evaluate_nullspace_d0.05.csv",
            "out/selection.txt",
            "out/recon_d0.05_classical.pgm",
            "out/recon_d0.05_nullspace.pgm",
            "out/recon_d0.05_continued.pgm",
            "out/truth.pgm",
            "out/rates.csv",
            "out/slope.txt",
            "out/distfn.txt",
            "out/filter_report.txt",
        ):
            assert (workspace / name).exists(), name

        # outputs embed the config hash and seed
        cfg = load_config("run.cfg")
        assert storage.read_metadata("operator.rgn1")["config"] == cfg.config_hash()
        csv_head = (workspace / "out/evaluate_classical_d0.05.csv").read_text().splitlines()[:6]
        assert any(line == f"# config={cfg.config_hash()}" for line in csv_head)
        assert any(line == "# seed=3" for line in csv_head)

    def test_phantom_splits_disjoint(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        train = storage.read_array("train.rgn1")
        test = storage.read_array("test.rgn1")
        for row in test:
            assert not any(np.array_equal(row, t) for t in train)

    def test_zero_count_dataset(self, workspace):
        (workspace / "zero.cfg").write_text(TINY_CONFIG + "train_count=0\ntest_count=0\n")
        assert run("phantoms", "--config", "zero.cfg") == 0
        assert storage.read_array("train.rgn1").shape[0] == 0
        assert storage.read_metadata("train.rgn1")["count"] == "0"


class TestExitCodes:
    def test_usage_error(self):
        assert run("no-such-command") == 1

    def test_io_error_missing_operator(self, workspace):
        assert run("train", "--config", "run.cfg") == 3

    def test_numeric_error_bad_method(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        (workspace / "bad.cfg").write_text(TINY_CONFIG.replace("method=continued", "method=classical"))
        assert run("train", "--config", "bad.cfg") == 2

    def test_numeric_error_divergence(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        (workspace / "hot.cfg").write_text(TINY_CONFIG.replace("lr=1e-4", "lr=1e155"))
        with np.errstate(all="ignore"):
            assert run("train", "--config", "hot.cfg") == 2

    def test_numeric_error_unordered_singular_values(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        op = storage.read_operator("operator.rgn1")
        sigma_at = 24 + 8 * op.rows * op.cols
        blob = bytearray((workspace / "operator.rgn1").read_bytes())
        blob[sigma_at : sigma_at + 16] = blob[sigma_at + 8 : sigma_at + 16] + blob[sigma_at : sigma_at + 8]
        (workspace / "operator.rgn1").write_bytes(bytes(blob))
        assert run("evaluate", "--config", "run.cfg") == 2

    def test_io_error_truncated_operator(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        blob = (workspace / "operator.rgn1").read_bytes()
        (workspace / "operator.rgn1").write_bytes(blob[:3000])
        assert run("evaluate", "--config", "run.cfg") == 3

    def test_io_error_operator_cut_in_footer(self, workspace):
        # the last 3 bytes are the high bytes of the footer length; without
        # the footer check this read back silently with rank_tol=1e-10
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        blob = (workspace / "operator.rgn1").read_bytes()
        (workspace / "operator.rgn1").write_bytes(blob[:-3])
        assert run("evaluate", "--config", "run.cfg") == 3

    @pytest.mark.parametrize("cap_line", ["", "# lipschitz_cap=inf"])
    def test_numeric_error_manifest_without_finite_cap(self, workspace, cap_line):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        manifest = workspace / "models" / "continued" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines = [cap_line if line.startswith("# lipschitz_cap=") else line for line in lines]
        manifest.write_text("\n".join(lines) + "\n")
        assert run("evaluate", "--config", "run.cfg") == 2
