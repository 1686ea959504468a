from dataclasses import fields

import numpy as np
import pytest

from conftest import SECTION_CORRUPTIONS, join_operator_file, split_operator_file
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


def snapshot(directory):
    """Every file under ``directory`` with its bytes, by relative path."""
    return {str(f.relative_to(directory)): f.read_bytes() for f in sorted(directory.rglob("*")) if f.is_file()}


class TestConfig:
    def test_defaults_and_overrides(self, workspace):
        cfg = load_config("run.cfg", {"seed": 9})
        assert cfg.grid_n == 10
        assert cfg.seed == 9
        assert cfg.alphas == (2e-3, 5e-4)

    def test_unknown_key_rejected(self, workspace):
        # the geometry keys set the paper's geometry, the Landweber step is
        # always 1/lambda_max, and the net has no skip: none has a key of its own
        for line in ("no_such_key=1", "paper_scale=1", "landweber_beta=0.5", "residual=0", "residual=1"):
            (workspace / "bad.cfg").write_text(line + "\n")
            with pytest.raises(ValueError):
                load_config("bad.cfg")
            assert run("assemble", "--config", "bad.cfg") == 1

    def test_every_default_round_trips_through_text(self, workspace):
        # each key's type comes from its field default; writing every default
        # as key=value text, a tuple as a comma list, must read back as RunConfig()
        defaults = RunConfig()
        text = ""
        for f in fields(RunConfig):
            value = getattr(defaults, f.name)
            text += f"{f.name}={','.join(map(str, value)) if isinstance(value, tuple) else value}\n"
        (workspace / "defaults.cfg").write_text(text)
        assert load_config("defaults.cfg") == defaults

    @pytest.mark.parametrize(
        "line, want",
        [
            ("epochs=3", 3), ("hidden=8,8", (8, 8)), ("seed=12", 12), ("lr=2e-3", 2e-3),
            ("alphas=1e-2,1e-3", (0.01, 0.001)), ("hidden=", ()), ("filter=TSVD", "tsvd"),
            ("seed=1.5", None), ("alphas=abc", None), ("hidden=abc", None), ("deltas=x", None),
            ("rate_deltas=q", None), ("alphas=", None), ("method=classical", None), ("filter=foo", None),
        ],
        ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_values_parse_by_field_type(self, workspace, capsys, line, want):
        (workspace / "one.cfg").write_text(line + "\n")
        key = line.partition("=")[0]
        if want is None:
            with pytest.raises(ValueError):
                load_config("one.cfg")
            # rejected at load, before any file is read or written
            for command in ("assemble", "train", "evaluate"):
                assert run(command, "--config", "one.cfg") == 1
                assert "usage error" in capsys.readouterr().err
            assert not (workspace / "operator.rgn1").exists()
        else:
            value = getattr(load_config("one.cfg"), key)
            assert value == want and type(value) is type(want)

    def test_hash_stable_and_sensitive(self, workspace):
        a = RunConfig()
        b = RunConfig()
        c = RunConfig(seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        # the hash is of the values, not of their text
        (workspace / "a.cfg").write_text("alphas=1e-2\n")
        (workspace / "b.cfg").write_text("alphas=0.01\n")
        assert load_config("a.cfg").config_hash() == load_config("b.cfg").config_hash()


class TestPipeline:
    @pytest.mark.parametrize(
        "geometry, blocks",
        [("", "4 blocks of 24/18/18/12 pairs"), ("grid_n=6\nn_angles=5\nn_detectors=8\n", "1 block")],
        ids=["four-blocks", "fallback"],
    )
    def test_assemble_reports_the_pairs_per_block(self, workspace, capsys, geometry, blocks):
        (workspace / "geom.cfg").write_text(TINY_CONFIG + geometry)
        assert run("assemble", "--config", "geom.cfg") == 0
        assert f", {blocks}) to operator.rgn1" in capsys.readouterr().out

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

    def test_smaller_retrain_removes_stale_members(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        family = workspace / "models" / "continued"
        assert {f.name for f in family.iterdir()} >= {"model_001.rgnn", "loss_001.txt"}
        (family / "notes.txt").write_text("kept\n")
        assert run("train", "--config", "run.cfg", "--alpha", "1e-3") == 0
        names = {f.name for f in family.iterdir()}
        assert names == {"manifest.txt", "model_000.rgnn", "loss_000.txt", "notes.txt"}
        entries, _ = storage.read_manifest(family / "manifest.txt")
        assert entries == [(1e-3, "model_000.rgnn")]

    def test_smaller_retrain_keeps_a_directory_with_a_member_name(self, workspace):
        # only regular files are stale members; the sweep runs after the writes
        # and must not fail on a name it cannot remove
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        family = workspace / "models" / "continued"
        (family / "model_009.rgnn").mkdir(parents=True)
        (family / "model_008.rgnn").write_bytes(b"stale")
        assert run("train", "--config", "run.cfg") == 0
        names = {f.name for f in family.iterdir()}
        assert names == {"manifest.txt", "model_000.rgnn", "model_001.rgnn", "loss_000.txt", "loss_001.txt", "model_009.rgnn"}
        assert (family / "model_009.rgnn").is_dir()

    def test_phantom_splits_disjoint(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        train = storage.read_array("train.rgn1")
        test = storage.read_array("test.rgn1")
        for row in test:
            assert not any(np.array_equal(row, t) for t in train)

    def test_seed_zero_flag_overrides_config(self, workspace):
        # run.cfg sets seed=3; an explicit --seed 0 must win like any other seed
        assert run("phantoms", "--config", "run.cfg", "--seed", "0") == 0
        meta = storage.read_metadata("train.rgn1")
        assert (meta["seed"], meta["first_seed"]) == ("0", "0")
        assert run("phantoms", "--config", "run.cfg") == 0
        assert storage.read_metadata("train.rgn1")["seed"] == "3"

    def test_checkfilter_landweber_step_follows_lambda_max(self, workspace):
        # the default Landweber step is 1/lambda_max; a fixed step of 1 diverges for lambda_max=2
        for lambda_max in (2, 4):
            (workspace / "lw.cfg").write_text(TINY_CONFIG + f"filter=landweber\nlambda_max={lambda_max}\n")
            assert run("checkfilter", "--config", "lw.cfg") == 0
            report = dict(line.split("=", 1) for line in (workspace / "out/filter_report.txt").read_text().splitlines())
            assert report["convergent"] == "True" and report["passed"] == "True"
            assert np.isfinite(float(report["sup_lambda_g"]))

    def test_landweber_on_the_operator(self, workspace):
        # the step is 1/sigma_1^2 of the loaded operator, which the regularizer's step check accepts
        (workspace / "lw.cfg").write_text(TINY_CONFIG + "filter=landweber\n")
        run("assemble", "--config", "lw.cfg")
        run("phantoms", "--config", "lw.cfg")
        assert run("train", "--config", "lw.cfg") == 0
        assert run("evaluate", "--config", "lw.cfg") == 0
        for variant in ("classical", "continued"):
            rows = (workspace / f"out/evaluate_{variant}_d0.05.csv").read_text().splitlines()
            values = [float(v) for row in rows if row[:1].isdigit() for v in row.split(",")]
            assert values and np.all(np.isfinite(values))

    def test_zero_count_dataset(self, workspace):
        (workspace / "zero.cfg").write_text(TINY_CONFIG + "train_count=0\ntest_count=0\n")
        assert run("phantoms", "--config", "zero.cfg") == 0
        assert storage.read_array("train.rgn1").shape[0] == 0
        assert storage.read_metadata("train.rgn1")["count"] == "0"


class TestExitCodes:
    def test_usage_error(self):
        assert run("no-such-command") == 1

    def test_paper_scale_flag_is_gone(self, workspace):
        # the paper's geometry is grid_n=128, n_angles=30, n_detectors=200
        assert run("assemble", "--config", "run.cfg", "--paper-scale") == 1
        assert not (workspace / "operator.rgn1").exists()

    def test_io_error_missing_operator(self, workspace):
        assert run("train", "--config", "run.cfg") == 3

    def test_usage_error_bad_method(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        (workspace / "bad.cfg").write_text(TINY_CONFIG.replace("method=continued", "method=classical"))
        assert run("train", "--config", "bad.cfg") == 1
        assert not (workspace / "models").exists()

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

    @pytest.mark.parametrize("corruption", sorted(SECTION_CORRUPTIONS))
    def test_io_error_malformed_symmetry_section(self, workspace, corruption):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        path = workspace / "operator.rgn1"
        body, section, footer = split_operator_file(path)
        assert "symmetries=2" in footer
        join_operator_file(path, body, *SECTION_CORRUPTIONS[corruption](section, footer))
        before = snapshot(workspace)
        assert run("evaluate", "--config", "run.cfg") == 3
        assert snapshot(workspace) == before

    def test_io_error_empty_operator(self, workspace):
        run("phantoms", "--config", "run.cfg")
        (workspace / "operator.rgn1").write_bytes(b"")
        before = snapshot(workspace)
        assert run("train", "--config", "run.cfg") == 3
        assert snapshot(workspace) == before
        assert not (workspace / "models").exists()

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

    @pytest.mark.parametrize("entry", ["model=models/x.rgnn", "alpha=2e-3", "alpha=abc model=x"])
    def test_io_error_malformed_manifest_entry(self, workspace, entry):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        manifest = workspace / "models" / "continued" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines = [entry if line.startswith("alpha=") else line for line in lines]
        manifest.write_text("\n".join(lines) + "\n")
        assert run("evaluate", "--config", "run.cfg") == 3

    @pytest.mark.parametrize(
        "at, value",
        [(4, b"\x01\0\0\0"), (8, bytes(8)), (28, bytes(4)), (30, None)],
        ids=["version-1", "zero-grid", "zero-width", "cut-in-width"],
    )
    def test_io_error_malformed_model_header(self, workspace, at, value):
        # hidden=3: version at byte 4, grid at 8, seed at 16, n_hidden at 24, the width at 28
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        model = workspace / "models" / "continued" / "model_000.rgnn"
        blob = model.read_bytes()
        model.write_bytes(blob[:at] if value is None else blob[:at] + value + blob[at + len(value) :])
        before = snapshot(workspace)
        assert run("evaluate", "--config", "run.cfg") == 3
        assert snapshot(workspace) == before

    @pytest.mark.parametrize("index", [-1, -7, 3])
    def test_numeric_error_recon_index_out_of_range(self, workspace, index):
        # three test images: only 0, 1 and 2 name one
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        (workspace / "pick.cfg").write_text(TINY_CONFIG + f"recon_index={index}\n")
        assert run("reconstruct", "--config", "pick.cfg") == 2

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_numeric_error_epochs_below_one(self, workspace, epochs):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        (workspace / "idle.cfg").write_text(TINY_CONFIG + f"epochs={epochs}\n")
        assert run("train", "--config", "idle.cfg") == 2
        assert not (workspace / "models" / "continued").exists()

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_numeric_error_batch_size_below_one(self, workspace, batch_size):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        (workspace / "batch.cfg").write_text(TINY_CONFIG + f"batch_size={batch_size}\n")
        assert run("train", "--config", "batch.cfg") == 2
        assert not (workspace / "models" / "continued").exists()

    @pytest.mark.parametrize(
        "command, flags, extra",
        [
            ("evaluate", ("--delta", "nan"), ""),
            ("evaluate", ("--delta", "inf"), ""),
            ("reconstruct", ("--delta", "nan"), ""),
            ("reconstruct", ("--delta", "inf"), ""),
            ("rates", (), "rate_deltas=1e-6,1e-5,nan,1e-2\n"),
            ("rates", (), "rate_deltas=0,1e-6,1e-4,1e-2\n"),
        ],
        ids=["evaluate-nan", "evaluate-inf", "reconstruct-nan", "reconstruct-inf", "rates-nan", "rates-zero"],
    )
    def test_numeric_error_non_finite_delta(self, workspace, command, flags, extra):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        (workspace / "noise.cfg").write_text(TINY_CONFIG + extra)
        assert run(command, "--config", "noise.cfg", *flags) == 2
        assert not (workspace / "out").exists()


class TestFailedRunWritesNothing:
    """A command that exits non-zero creates and changes no file."""

    @pytest.mark.parametrize("command", ["reconstruct", "evaluate"])
    def test_bad_second_delta(self, workspace, command):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        assert run(command, "--config", "run.cfg", "--delta", "0.05,nan") == 2
        assert not (workspace / "out").exists()
        assert run(command, "--config", "run.cfg") == 0
        before = snapshot(workspace / "out")
        assert run(command, "--config", "run.cfg", "--delta", "0.05,nan") == 2
        assert snapshot(workspace / "out") == before

    def test_retrain_with_bad_alpha_keeps_the_family(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        before = snapshot(workspace / "models" / "continued")
        assert run("train", "--config", "run.cfg", "--alpha", "3e-3,-1") == 2
        assert snapshot(workspace / "models" / "continued") == before

    @pytest.mark.parametrize("alphas", ["2e-3,2e-3", "5e-4,2e-3,5e-4", "2e-3,nan", "inf"])
    def test_retrain_with_invalid_alpha_list_keeps_the_family(self, workspace, capsys, alphas):
        # every later command rejects a family with an alpha twice; train
        # rejects the list before its first step
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        before = snapshot(workspace / "models" / "continued")
        capsys.readouterr()
        assert run("train", "--config", "run.cfg", "--alpha", alphas) == 2
        assert "epoch=" not in capsys.readouterr().out
        assert snapshot(workspace / "models" / "continued") == before

    @pytest.mark.parametrize(
        "command, flags, extra",
        [("train", ("--alpha", "abc"), ""), ("evaluate", (), "method=classical\n")],
        ids=["train-alpha-abc", "evaluate-method-classical"],
    )
    def test_usage_error_changes_no_file(self, workspace, capsys, command, flags, extra):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        assert run("evaluate", "--config", "run.cfg") == 0
        (workspace / "bad.cfg").write_text(TINY_CONFIG + extra)
        before = snapshot(workspace)
        capsys.readouterr()
        assert run(command, "--config", "bad.cfg", *flags) == 1
        assert "usage error" in capsys.readouterr().err
        assert snapshot(workspace) == before

    def test_phantoms_with_a_missing_directory(self, workspace):
        # the test set's directory is missing: the training set is not written either
        (workspace / "lost.cfg").write_text(TINY_CONFIG + "test_path=missing/test.rgn1\n")
        assert run("phantoms", "--config", "lost.cfg") == 3
        assert not (workspace / "train.rgn1").exists()
        assert run("phantoms", "--config", "run.cfg") == 0
        before = (workspace / "train.rgn1").read_bytes()
        assert run("phantoms", "--config", "lost.cfg", "--seed", "4") == 3
        assert (workspace / "train.rgn1").read_bytes() == before

    def test_phantoms_with_a_directory_as_destination(self, workspace):
        # test_path names an existing directory: the training set is not written either
        (workspace / "sub").mkdir()
        (workspace / "sub.cfg").write_text(TINY_CONFIG + "test_path=sub\n")
        assert run("phantoms", "--config", "sub.cfg") == 3
        assert not (workspace / "train.rgn1").exists()
        assert run("phantoms", "--config", "run.cfg") == 0
        before = (workspace / "train.rgn1").read_bytes()
        assert run("phantoms", "--config", "sub.cfg", "--seed", "4") == 3
        assert (workspace / "train.rgn1").read_bytes() == before

    def test_train_with_a_directory_as_manifest(self, workspace):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        assert run("train", "--config", "run.cfg") == 0
        family = workspace / "models" / "continued"
        (family / "manifest.txt").unlink()
        (family / "manifest.txt").mkdir()
        before = snapshot(family)
        assert run("train", "--config", "run.cfg", "--seed", "4") == 3
        assert snapshot(family) == before

    @pytest.mark.parametrize(
        "command, last_output",
        [("reconstruct", "recon_d0.05_classical.pgm"), ("evaluate", "selection.txt"), ("rates", "slope.txt")],
    )
    def test_directory_at_the_last_output(self, workspace, command, last_output):
        run("assemble", "--config", "run.cfg")
        run("phantoms", "--config", "run.cfg")
        (workspace / "out" / last_output).mkdir(parents=True)
        assert run(command, "--config", "run.cfg") == 3
        assert snapshot(workspace / "out") == {}

    @pytest.mark.parametrize("lambda_max", ["0", "-1", "nan", "inf"])
    def test_checkfilter_invalid_lambda_max_writes_no_report(self, workspace, capsys, lambda_max):
        # an invalid input is not a verdict: no report, unlike a failing filter;
        # a Landweber filter, whose step is 1/lambda_max, names lambda_max too
        for filt in ("tsvd", "landweber"):
            (workspace / "lm.cfg").write_text(TINY_CONFIG + f"filter={filt}\nlambda_max={lambda_max}\n")
            assert run("checkfilter", "--config", "lm.cfg") == 2
            assert "lambda_max" in capsys.readouterr().err
            assert not (workspace / "out").exists()
