"""The benchmark's own checks: each passes on genuine pipeline output and
refuses a corrupted one.

    PYTHONPATH=src python -m pytest -q pipebench

A tiny pipeline runs once, in process and traced, so the count identities
are exercised too.
"""

import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

import verify
from regnets import cli, regnet
from spans import Tracer
from workloads import STAGES, cfg_text, floats

TINY = {
    "grid_n": "10", "n_angles": "6", "n_detectors": "12",
    "kb_support": "0.25", "kb_shape": "7.0",
    "hidden": "3", "alphas": "2e-3,5e-4", "lr": "1e-4", "epochs": "2",
    "batch_size": "4", "train_count": "8", "test_count": "3", "deltas": "0.05",
    "rate_deltas": "1e-5,1e-4,1e-3,1e-2,1e-1", "mu": "0.5", "scale_c": "1", "seed": "3",
}


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    d = tmp_path_factory.mktemp("pass")
    (d / "run.cfg").write_text(cfg_text(TINY))
    tracer = Tracer()
    counts = {}
    here = Path.cwd()
    tracer.install()
    try:
        os.chdir(d)
        for key, argv in STAGES:
            before = dict(tracer.calls)
            assert cli.main([*argv, "--config", "run.cfg"]) == 0, key
            counts[key] = {f"{k}.calls": v - before.get(k, 0) for k, v in tracer.calls.items()}
    finally:
        os.chdir(here)
        tracer.uninstall()
    return d, counts


@pytest.fixture
def run_dir(genuine, tmp_path):
    d = tmp_path / "pass"
    shutil.copytree(genuine[0], d)
    return d


def op_of(d):
    return verify.Operator.read(d / "operator.rgn1")


def rewrite_operator(path, change):
    """Apply change(matrix, sigma, u, v) in place to an operator file."""
    blob = bytearray(Path(path).read_bytes())
    _, rows, cols = struct.unpack("<IQQ", blob[4:24])
    k = min(rows, cols)
    payload = np.frombuffer(blob, dtype="<f8", offset=24, count=rows * cols + k + cols * k + rows * k).copy()
    sizes = np.cumsum([rows * cols, k, cols * k])
    m, s, u, v = np.split(payload, sizes)
    change(m.reshape(rows, cols), s, u.reshape(cols, k), v.reshape(rows, k))
    blob[24 : 24 + 8 * payload.size] = payload.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def edit_csv_value(path, row, col, factor):
    lines = Path(path).read_text().splitlines()
    data = [i for i, l in enumerate(lines) if l and not l.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[data[row]] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


def test_genuine_output_passes_every_check(genuine):
    """All but the rate check, whose slope needs a realistic spectrum;
    the rate tests below write their own rows."""
    d, counts = genuine
    op = verify.check_assemble(d, TINY)
    verify.check_phantoms(d, TINY)
    for variant in verify.LEARNED:
        verify.check_train(d, TINY, variant)
    verify.check_evaluate(d, TINY, op)
    verify.check_reconstruct(d, TINY, op)
    verify.check_distfn(d, TINY, op)
    for key, _ in STAGES:
        verify.check_counts(key, counts[key], TINY)


def test_singular_value_off_is_refused(run_dir):
    rewrite_operator(run_dir / "operator.rgn1", lambda m, s, u, v: s.__setitem__(0, s[0] * (1 + 1e-6)))
    with pytest.raises(verify.CheckError, match="rebuild"):
        verify.check_assemble(run_dir, TINY)


def test_consistently_scaled_operator_fails_the_blob_integral(run_dir):
    def scale(m, s, u, v):
        m *= 1 + 1e-6
        s *= 1 + 1e-6

    rewrite_operator(run_dir / "operator.rgn1", scale)
    with pytest.raises(verify.CheckError, match="blob line integral"):
        verify.check_assemble(run_dir, TINY)


def test_non_orthonormal_basis_is_refused(run_dir):
    def stretch(m, s, u, v):
        u *= 1 + 1e-6
        s /= 1 + 1e-6

    rewrite_operator(run_dir / "operator.rgn1", stretch)
    with pytest.raises(verify.CheckError, match="orthonormal"):
        verify.check_assemble(run_dir, TINY)


def test_phantom_outside_unit_range_is_refused(run_dir):
    path = run_dir / "test.rgn1"
    blob = bytearray(path.read_bytes())
    blob[24:32] = struct.pack("<d", 1.5)
    path.write_bytes(bytes(blob))
    with pytest.raises(verify.CheckError, match=r"outside \[0, 1\]"):
        verify.check_phantoms(run_dir, TINY)


def test_classical_row_off_by_1e6_is_refused(run_dir):
    path = run_dir / "out" / "evaluate_classical_d0.05.csv"
    edit_csv_value(path, 1, 2, 1 + 1e-6)
    with pytest.raises(verify.CheckError, match="recomputed"):
        verify.check_evaluate(run_dir, TINY, op_of(run_dir))


def test_wrong_kept_count_is_refused(run_dir):
    path = run_dir / "out" / "evaluate_continued_d0.05.csv"
    edit_csv_value(path, 0, 1, 0)  # kept -> 0
    with pytest.raises(verify.CheckError, match="kept"):
        verify.check_evaluate(run_dir, TINY, op_of(run_dir))


def test_nullspace_residual_with_a_range_component_is_refused(run_dir, monkeypatch):
    op = op_of(run_dir)
    original = regnet.nullspace_residual
    monkeypatch.setattr(regnet, "nullspace_residual", lambda o, p, z: original(o, p, z) + 1e-3 * op.u[:, 0])
    with pytest.raises(verify.CheckError, match=r"\|A r\|"):
        verify.check_reconstruct(run_dir, TINY, op)


def test_continued_residual_moving_retained_coefficients_is_refused(run_dir, monkeypatch):
    op = op_of(run_dir)
    original = regnet.continued_svd_residual
    monkeypatch.setattr(
        regnet, "continued_svd_residual", lambda o, a, p, z: original(o, a, p, z) + 1e-6 * op.u[:, 0]
    )
    with pytest.raises(verify.CheckError, match="retained coefficients"):
        verify.check_reconstruct(run_dir, TINY, op)


def write_pgm(path, samples):
    head = f"P5\n{samples.shape[1]} {samples.shape[0]}\n65535\n".encode()
    Path(path).write_bytes(head + samples.astype(">u2").tobytes())


@pytest.mark.parametrize("name, step", [("truth.pgm", 1), ("recon_d0.05_classical.pgm", 2), ("recon_d0.05_nullspace.pgm", 2)])
def test_image_off_by_quantisation_steps_is_refused(run_dir, name, step):
    path = run_dir / "out" / name
    img = verify.read_pgm(path)
    img[4, 4] = img[4, 4] + step if img[4, 4] < 65535 - step else img[4, 4] - step
    write_pgm(path, img)
    with pytest.raises(verify.CheckError, match=name):
        verify.check_reconstruct(run_dir, TINY, op_of(run_dir))


def test_lipschitz_cap_below_a_sampled_ratio_is_refused(run_dir):
    path = run_dir / "models" / "continued" / "manifest.txt"
    text = path.read_text()
    cap = verify.manifest_cap(path)
    path.write_text(text.replace(f"lipschitz_cap={cap!r}", "lipschitz_cap=1e-6"))
    with pytest.raises(verify.CheckError, match="below a sampled ratio"):
        verify.check_train(run_dir, TINY, "continued")


@pytest.mark.parametrize("losses", ["epoch_0=1.0\n", "epoch_0=1.0\nepoch_1=nan\n"])
def test_missing_or_non_finite_loss_is_refused(run_dir, losses):
    (run_dir / "models" / "nullspace" / "loss_001.txt").write_text(losses)
    with pytest.raises(verify.CheckError, match="loss"):
        verify.check_train(run_dir, TINY, "nullspace")


def write_rates(d, errors, slope=None):
    """A rates.csv on the a-priori rule, with the given errors."""
    deltas = sorted(floats(TINY["rate_deltas"]))
    rows = [f"{dl!r},{float(TINY['scale_c']) * dl!r},{float(e)!r}" for dl, e in zip(deltas, errors)]
    (d / "out" / "rates.csv").write_text("delta,alpha,error\n" + "\n".join(rows) + "\n")
    fitted = verify.loglog_slope(deltas, errors)
    (d / "out" / "slope.txt").write_text(f"slope={fitted if slope is None else slope!r}\n")


def test_rate_slope_on_the_theory_passes(run_dir):
    deltas = np.array(sorted(floats(TINY["rate_deltas"])))
    write_rates(run_dir, list(3.0 * deltas**0.5))
    verify.check_rates(run_dir, TINY)


def test_rate_slope_fitted_to_the_wrong_exponent_is_refused(run_dir):
    deltas = np.array(sorted(floats(TINY["rate_deltas"])))
    write_rates(run_dir, list(3.0 * deltas**1.0))
    with pytest.raises(verify.CheckError, match="not within 0.15"):
        verify.check_rates(run_dir, TINY)


def test_reported_slope_not_fitted_to_the_rows_is_refused(run_dir):
    deltas = np.array(sorted(floats(TINY["rate_deltas"])))
    write_rates(run_dir, list(3.0 * deltas**0.5), slope=0.55)
    with pytest.raises(verify.CheckError, match="reported slope"):
        verify.check_rates(run_dir, TINY)


def test_distance_outside_the_source_set_is_refused(run_dir):
    path = run_dir / "out" / "distfn.txt"
    alpha = floats(TINY["alphas"])[0]
    lines = [f"alpha_{alpha:g}=1e-6" if l.startswith(f"alpha_{alpha:g}=") else l for l in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(verify.CheckError, match="source set"):
        verify.check_distfn(run_dir, TINY, op_of(run_dir))


def test_count_off_by_one_is_refused(genuine):
    counts = dict(genuine[1]["train_nullspace"])
    counts["network.grad_backprop.calls"] += 1
    with pytest.raises(verify.CheckError, match="grad_backprop"):
        verify.check_counts("train_nullspace", counts, TINY)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = [f"{n}.s" for n in run.SPAN_METRICS] + [f"{n}.calls" for n in run.CALL_METRICS]
    per_layer += ["network.grad_backprop.gflops"] + [f"cli.{c}.s" for c in run.COMMANDS] + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "train_s", "evaluate_s", "analysis_s", "pipeline_s", "peak_rss_mb"
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
