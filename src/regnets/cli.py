"""Command-line front end.

Subcommands compose through files only: ``assemble`` writes the operator
container, ``phantoms`` the datasets, ``train`` one model per alpha plus
a manifest, and ``reconstruct`` / ``evaluate`` / ``rates`` / ``distfn`` /
``checkfilter`` produce PGM images, CSV curves and plain-text summaries.
Configuration is a key=value file overridden by flags; every output
embeds the resolved config hash and seeds in its metadata, so reruns
with an identical config are byte-identical. A value that does not parse
as its key's type, an empty alpha or delta list, or an unknown ``method``
or ``filter`` is a usage error (exit 1) before any file is read.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 I/O failure
(a missing, unreadable, malformed or truncated input file).
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, network, radon, regnet, storage
from .filters import (
    FilterRegularizer,
    make_filter,
    qualification_sup,
    verify_filter_axioms,
)
from .linop import svd_decompose

__all__ = ["RunConfig", "main", "console_main"]


@dataclass(frozen=True)
class RunConfig:
    # geometry
    grid_n: int = 64
    n_angles: int = 15
    n_detectors: int = 64
    kb_support: float = 0.055
    kb_shape: float = 7.0
    rank_tol: float = 1e-10
    # filter / methods
    filter: str = "tsvd"
    alphas: tuple = (1e-2,)
    method: str = "continued"
    # network and training
    hidden: tuple = (16, 16)
    lr: float = 0.05
    momentum: float = 0.99
    epochs: int = 20
    batch_size: int = 10
    # datasets and noise
    train_count: int = 200
    test_count: int = 50
    deltas: tuple = (0.02, 0.05)
    rate_deltas: tuple = (1e-6, 3.2e-6, 1e-5, 3.2e-5, 1e-4, 3.2e-4, 1e-3, 3.2e-3, 1e-2)
    # analysis
    mu: float = 0.5
    rho: float = 1.0
    scale_c: float = 1.0
    lambda_max: float = 1.0
    recon_index: int = 0
    # seeds and paths
    seed: int = 0
    operator_path: str = "operator.rgn1"
    train_path: str = "train.rgn1"
    test_path: str = "test.rgn1"
    model_dir: str = "models"
    out_dir: str = "out"

    def geometry(self) -> radon.RadonGeometry:
        return radon.RadonGeometry(
            grid_n=self.grid_n,
            n_angles=self.n_angles,
            n_detectors=self.n_detectors,
            kb_support=self.kb_support,
            kb_shape=self.kb_shape,
        )

    def config_hash(self) -> str:
        body = "\n".join(f"{k}={v}" for k, v in sorted(vars(self).items()))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]

    def meta(self) -> dict:
        return {"config": self.config_hash(), "seed": self.seed}


def _convert(key: str, text: str):
    """One value from its text, by the type of the key's default: int,
    float or str, or a comma list of the default's element type; a list of
    floats must not be empty, while ``hidden=`` is the single 1 -> 1 layer."""
    default = getattr(RunConfig, key)
    if isinstance(default, tuple):
        kind = type(default[0])
        value = tuple(kind(part) for part in text.split(",") if part.strip())
        if not value and kind is float:
            raise ValueError("empty list")
    else:
        value = type(default)(text.strip())
    if key == "method" and value not in (regnet.NULLSPACE, regnet.CONTINUED):
        raise ValueError(f"method must be {regnet.NULLSPACE} or {regnet.CONTINUED}, got {value!r}")
    if key == "filter":
        value = make_filter(value).name  # the kind, or a ValueError
    return value


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """The file's ``key=value`` lines, then each override that is not None
    (the flags, by config key, so ``--seed 0`` overrides too), each value
    converted by ``_convert``; a malformed line or value is a ValueError."""
    known = {f.name for f in fields(RunConfig)}
    items = []
    lines = Path(path).read_text(encoding="utf-8").splitlines() if path else []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            items.append((f"{path}:{lineno}: ", key.strip(), text))
    items += [("", key, str(value)) for key, value in (overrides or {}).items() if value is not None]
    values = {}
    for where, key, text in items:
        if key not in known:
            raise ValueError(f"{where}unknown config key {key!r}")
        try:
            values[key] = _convert(key, text)
        except ValueError as exc:
            raise ValueError(f"{where}{key}={text.strip()}: {exc}") from exc
    return RunConfig(**values)


def _make_cfg_filter(cfg: RunConfig, lambda_max: float):
    """The configured filter; a Landweber step is 1/lambda_max, the largest
    that keeps the iteration convergent, or 1 when lambda_max is not finite
    and positive (``checkfilter`` then rejects that lambda_max)."""
    return make_filter(cfg.filter, 1.0 / lambda_max if 0 < lambda_max < np.inf else None)


def _load_operator(cfg: RunConfig):
    """The operator file and the configured filter, stepped for its spectrum."""
    op = storage.read_operator(cfg.operator_path)
    return op, _make_cfg_filter(cfg, op.sigma_max**2)


def _check_destinations(*paths):
    """Before the first write of a command that writes several files: each
    destination's parent must be a directory and the path must not be one,
    so that no write after the first can fail on its path."""
    for path in map(Path, paths):
        if not path.parent.is_dir():
            raise FileNotFoundError(f"no directory for {path}")
        if path.is_dir():
            raise IsADirectoryError(f"{path} is a directory")


def _outputs(cfg: RunConfig, *names) -> list:
    """The paths of the named files in ``out_dir``, which is made, each
    checked by ``_check_destinations``."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in names]
    _check_destinations(*paths)
    return paths


def cmd_assemble(cfg: RunConfig) -> int:
    geom = cfg.geometry()
    matrix = radon.assemble_matrix(geom)
    op = svd_decompose(matrix, cfg.rank_tol, geom.mirrors())
    meta = cfg.meta()
    meta.update(
        grid_n=geom.grid_n, n_angles=geom.n_angles, n_detectors=geom.n_detectors,
        kb_support=geom.kb_support, kb_shape=geom.kb_shape,
    )
    storage.write_operator(cfg.operator_path, op, meta)
    pairs = np.bincount(op.characters, minlength=1 << len(op.symmetries))
    blocks = f"{pairs.size} blocks of {'/'.join(map(str, pairs))} pairs" if pairs.size > 1 else "1 block"
    print(f"assemble: wrote {op.rows}x{op.cols} operator (rank {op.rank}, {blocks}) to {cfg.operator_path}")
    return 0


def cmd_phantoms(cfg: RunConfig) -> int:
    geom = cfg.geometry()
    train_seeds = range(cfg.seed, cfg.seed + cfg.train_count)
    test_seeds = range(cfg.seed + 1_000_000, cfg.seed + 1_000_000 + cfg.test_count)
    _check_destinations(cfg.train_path, cfg.test_path)
    sets = []
    for path, seeds in ((cfg.train_path, train_seeds), (cfg.test_path, test_seeds)):
        items = [radon.gen_phantom(s, geom.grid_n).coeffs for s in seeds]
        data = np.vstack(items) if items else np.zeros((0, geom.cols))
        meta = cfg.meta()
        meta.update(count=len(items), grid_n=geom.grid_n, first_seed=seeds.start)
        sets.append((path, data, meta))
    for path, data, meta in sets:
        storage.write_array(path, data, meta)
        print(f"phantoms: wrote {data.shape[0]} phantoms to {path}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    op, filt = _load_operator(cfg)
    truths = storage.read_array(cfg.train_path)
    if truths.shape[0] == 0:
        raise ValueError("empty training set")
    alphas = cfg.alphas
    # the family's own check, before the first step: each alpha finite,
    # positive and given once (the members are stored in any order)
    untrained = [(a, None) for a in sorted(alphas, reverse=True)]
    regnet.RegNetFamily(cfg.method, op, filt, untrained, lipschitz_cap=0.0)
    arch = network.NetworkArch(int(round(op.cols**0.5)), cfg.hidden)
    sinograms = truths @ op.matrix.T  # noise-free data

    members, caps = [], []
    for idx, alpha in enumerate(alphas):
        base = FilterRegularizer(op, filt, alpha).apply(sinograms)
        project = regnet.residual_projection(cfg.method, op, alpha)
        params = network.init_network(arch, cfg.seed + 1000 * idx)
        state = network.TrainState(lr=cfg.lr, momentum=cfg.momentum)
        history = network.train(
            params, state, base, truths, project=project,
            epochs=cfg.epochs, batch_size=cfg.batch_size, shuffle_seed=cfg.seed + idx,
        )
        for epoch, loss in enumerate(history):
            print(f"train[{cfg.method}] alpha={alpha:g} epoch={epoch} loss={loss:.6g}")
        members.append((alpha, params, history))
        caps.append(network.lipschitz_upper_bound(params))

    model_dir = Path(cfg.model_dir) / cfg.method
    paths = [
        (model_dir / f"model_{idx:03d}.rgnn", model_dir / f"loss_{idx:03d}.txt")
        for idx in range(len(members))
    ]
    outputs = [path for pair in paths for path in pair]
    model_dir.mkdir(parents=True, exist_ok=True)
    _check_destinations(model_dir / "manifest.txt", *outputs)
    # members of an earlier, larger family that the new manifest does not
    # list, found before the first write; a directory with such a name stays
    stale = [
        path for path in model_dir.iterdir()
        if path.is_file() and path not in outputs and re.fullmatch(r"model_\d+\.rgnn|loss_\d+\.txt", path.name)
    ]
    entries = []
    for (alpha, params, history), (model_path, loss_path) in zip(members, paths):
        meta = cfg.meta()
        meta.update(alpha=repr(alpha), final_loss=repr(history[-1]))
        storage.write_model(model_path, params, meta)
        storage.write_keyvalue(loss_path, {f"epoch_{e}": repr(l) for e, l in enumerate(history)})
        entries.append((alpha, model_path.name))
    meta = cfg.meta()
    meta.update(method=cfg.method, lipschitz_cap=repr(max(caps)))
    storage.write_manifest(model_dir / "manifest.txt", entries, meta)
    for path in stale:
        path.unlink()
    print(f"train: wrote {len(entries)} models to {model_dir}")
    return 0


def _load_families(cfg: RunConfig, op, filt) -> dict:
    """The trained families under ``model_dir``, by variant, in
    (nullspace, continued) order; a variant without a manifest is absent."""
    families = {}
    for variant in (regnet.NULLSPACE, regnet.CONTINUED):
        manifest = Path(cfg.model_dir) / variant / "manifest.txt"
        if not manifest.exists():
            continue
        entries, meta = storage.read_manifest(manifest)
        cap = float(meta.get("lipschitz_cap", "nan"))
        if not np.isfinite(cap):
            raise ValueError(f"{manifest}: no finite lipschitz_cap")
        members = [
            (alpha, storage.read_model(manifest.parent / name))
            for alpha, name in sorted(entries, key=lambda e: -e[0])
        ]
        families[variant] = regnet.RegNetFamily(variant, op, filt, members, lipschitz_cap=cap)
    return families


def _method(variant: str, op, filt, alpha: float, families: dict):
    """The reconstruction of one variant at alpha: the classical filter at
    exactly alpha, or the family member with the nearest alpha."""
    if variant == regnet.CLASSICAL:
        return regnet.ReconstructionMethod(variant, op, filt, alpha)
    return families[variant].nearest(alpha)


def cmd_reconstruct(cfg: RunConfig) -> int:
    op, filt = _load_operator(cfg)
    truths = storage.read_array(cfg.test_path)
    if not 0 <= cfg.recon_index < truths.shape[0]:
        raise ValueError(f"recon_index {cfg.recon_index} out of range for {truths.shape[0]} test images")
    truth = truths[cfg.recon_index]
    grid_n = int(round(op.cols**0.5))
    families = _load_families(cfg, op, filt)
    alpha = cfg.alphas[0]
    y = op.forward(truth)
    images = {}
    for delta in cfg.deltas:
        y_delta = radon.add_noise(y, delta, cfg.seed)
        for variant in (regnet.CLASSICAL, *families):
            m = _method(variant, op, filt, alpha, families)
            images[f"recon_d{delta:g}_{variant}.pgm"] = m.reconstruct(y_delta)

    truth_path, *paths = _outputs(cfg, "truth.pgm", *images)
    storage.write_pgm16(truth_path, truth.reshape(grid_n, grid_n))
    for path, rec in zip(paths, images.values()):
        storage.write_pgm16(path, rec.reshape(grid_n, grid_n))
        print(f"reconstruct: wrote {path}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    op, filt = _load_operator(cfg)
    truths = storage.read_array(cfg.test_path)
    if truths.shape[0] == 0:
        raise ValueError("empty test set")
    sinograms = truths @ op.matrix.T
    families = _load_families(cfg, op, filt)
    n_val = min(10, truths.shape[0])
    reports = {}
    selection = {}
    for delta in cfg.deltas:
        for variant in (regnet.CLASSICAL, *families):
            methods = [_method(variant, op, filt, alpha, families) for alpha in cfg.alphas]
            val_report = analysis.evaluate_testset(
                methods, truths[:n_val], sinograms[:n_val], delta, cfg.seed
            )
            selection[f"alpha_star_{variant}_d{delta:g}"] = repr(val_report.best_alpha)
            report = analysis.evaluate_testset(methods, truths, sinograms, delta, cfg.seed)
            meta = cfg.meta()
            meta.update(variant=variant, delta=repr(delta), validation_size=n_val)
            reports[f"evaluate_{variant}_d{delta:g}.csv"] = (report, meta)

    *paths, selection_path = _outputs(cfg, *reports, "selection.txt")
    for path, (report, meta) in zip(paths, reports.values()):
        rows = [astuple(r) for r in report.rows]
        storage.write_csv(path, ("alpha", "kept", "mse", "mae"), rows, meta)
        print(f"evaluate: wrote {path} (best alpha {report.best_alpha:g})")
    storage.write_keyvalue(selection_path, selection, cfg.meta())
    return 0


def cmd_rates(cfg: RunConfig) -> int:
    op, filt = _load_operator(cfg)
    sc = analysis.SourceCondition(mu=cfg.mu, rho=cfg.rho)
    report = analysis.rate_experiment(op, filt, sc, cfg.rate_deltas, cfg.seed, scale=cfg.scale_c)
    theory = 2.0 * cfg.mu / (2.0 * cfg.mu + 1.0)
    summary = {
        "slope": repr(report.slope),
        "residual": repr(report.slope_residual),
        "theory": repr(theory),
    }
    csv_path, slope_path = _outputs(cfg, "rates.csv", "slope.txt")
    rows = [astuple(r) for r in report.rows]
    storage.write_csv(csv_path, ("delta", "alpha", "error"), rows, cfg.meta())
    storage.write_keyvalue(slope_path, summary, cfg.meta())
    print(f"rates: slope {report.slope:.4f} (theory {theory:.4f}) -> {csv_path}")
    return 0


def cmd_distfn(cfg: RunConfig) -> int:
    op, filt = _load_operator(cfg)
    sc = analysis.SourceCondition(mu=cfg.mu, rho=cfg.rho)
    x = analysis.source_element(op, sc, cfg.seed)
    lines = {
        f"alpha_{alpha:g}": repr(analysis.distance_function(
            regnet.ReconstructionMethod(regnet.CLASSICAL, op, filt, alpha), x, sc
        )) for alpha in cfg.alphas
    }
    (path,) = _outputs(cfg, "distfn.txt")
    storage.write_keyvalue(path, lines, cfg.meta())
    print(f"distfn: wrote {path}")
    return 0


def cmd_checkfilter(cfg: RunConfig) -> int:
    # the report is the verdict: it is written also when the filter fails
    # (exit 2), but not for a lambda_max that is not finite and positive
    filt = _make_cfg_filter(cfg, cfg.lambda_max)
    alphas = np.logspace(-1, -6, 6)
    report = verify_filter_axioms(filt, cfg.lambda_max, alphas)
    lines = {
        "filter": filt.name,
        "bounded": report.bounded,
        "convergent": report.convergent,
        "passed": report.passed,
        "sup_lambda_g": repr(float(np.max(report.per_alpha_sup))),
    }
    for mu in (0.25, 0.5, 1.0):
        if mu > filt.qualification:
            continue
        worst = 0.0
        for alpha in np.logspace(-6, 0, 7):
            sup = qualification_sup(filt, alpha, mu, cfg.lambda_max)
            worst = max(worst, float(sup / (filt.constant(mu) * alpha**mu)))
        lines[f"qualification_ratio_mu{mu:g}"] = repr(worst)
    (path,) = _outputs(cfg, "filter_report.txt")
    storage.write_keyvalue(path, lines, cfg.meta())
    for key, value in {**lines, **cfg.meta()}.items():
        print(f"checkfilter: {key}={value}")
    return 0 if report.passed else 2


_COMMANDS = {
    "assemble": cmd_assemble,
    "phantoms": cmd_phantoms,
    "train": cmd_train,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "rates": cmd_rates,
    "distfn": cmd_distfn,
    "checkfilter": cmd_checkfilter,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regnets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        # every flag but --config sets the config key of its dest
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--seed", default=None)
        p.add_argument("--alpha", dest="alphas", default=None, help="comma-separated alpha list")
        p.add_argument("--delta", dest="deltas", default=None, help="comma-separated delta list")
        p.add_argument("--method", default=None, help="nullspace or continued")
        p.add_argument("--out-dir", dest="out_dir", default=None)
    return parser


def main(argv=None) -> int:
    try:
        flags = vars(_build_parser().parse_args(argv))
        command, path = flags.pop("command"), flags.pop("config")
        try:
            cfg = load_config(path, flags)
        except ValueError as exc:  # a malformed line or value
            raise _UsageError(str(exc)) from exc
        return _COMMANDS[command](cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, storage.StorageError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
