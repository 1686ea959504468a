"""Pipeline benchmark: runs one workload through the regnets CLI.

    python3 pipebench/run.py --workload desk-train --seed 1 --seconds 35 --trace 0

Run from the repository root.  One pass runs the eight CLI stages one
after another, each as its own child process (``python -m regnets.cli
<stage> --config run.cfg``) in a fresh directory under pipebench/work/.
Passes repeat until their stage times add up to --seconds; every pass is
checked (verify.py) and its directory removed.  Each stage invocation is
one operation; it fails if it exits non-zero or a check on its outputs
fails.

--trace 0 prints the end-to-end metrics (medians over the passes;
setup_s is the first pass's assemble + phantoms, timed from the start of
this process).  --trace 1 runs one untraced and one traced pass in this
process through ``regnets.cli.main`` and prints the per-layer metrics.
The last line of standard output is one JSON object; progress goes to
standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import STAGES, WORKLOADS, cfg_text, config

_T0 = time.perf_counter()


def _since_process_start() -> float:
    """Seconds between this process's start and _T0, from /proc."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return now - start_ticks / os.sysconf("SC_CLK_TCK") - (time.perf_counter() - _T0)
    except (OSError, ValueError, IndexError):
        return 0.0


_START_OFFSET = _since_process_start()

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "pipebench" / "work"
DEADLINE_S = 170
# One BLAS thread.  On two shared vCPUs (Xeon, 2.1 GHz) a desk-size SVD
# took 1.6-2.5 s with two OpenBLAS threads and 1.7-2.0 s with one, so one
# thread gives steadier figures at no cost in median.
THREADS = "1"

SPAN_METRICS = (
    "radon.assemble_matrix", "linop.svd_decompose", "storage.write_operator",
    "radon.gen_phantom", "storage.read_operator", "storage.read_model",
    "storage.write_model", "network.grad_backprop", "network.sgd_momentum_step",
    "regnet.project", "network.lipschitz_upper_bound", "network.forward_batch",
    "regnet.reconstruct.classical", "regnet.reconstruct.nullspace",
    "regnet.reconstruct.continued", "filters.coefficients", "filters.synthesize",
    "analysis.evaluate_testset", "analysis.rate_experiment", "analysis.distance_function",
)
CALL_METRICS = (
    "storage.read_operator", "network.grad_backprop", "regnet.project",
    "network.lipschitz_upper_bound", "network.forward_batch",
    "regnet.reconstruct.classical", "regnet.reconstruct.nullspace",
    "regnet.reconstruct.continued",
)
COMMANDS = ("assemble", "phantoms", "train", "evaluate", "reconstruct", "rates", "distfn")


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException, so no stage or check handler
    catches it."""


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


# ------------------------------------------------------------------ passes


def run_stage(d: Path, argv) -> tuple:
    """One CLI stage as a child process: (seconds, exit code, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(d / f"{argv[0]}.log", "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "regnets.cli", *argv, "--config", "run.cfg"],
            cwd=d, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def run_stage_inprocess(d: Path, argv, cli) -> tuple:
    """One CLI stage through cli.main in this process: (seconds, exit code)."""
    here = os.getcwd()
    os.chdir(d)
    try:
        with open(f"{argv[0]}.log", "a") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            t0 = time.perf_counter()
            try:
                rc = cli.main([*argv, "--config", "run.cfg"])
            except Exception:
                traceback.print_exc()
                rc = -1
            return time.perf_counter() - t0, rc
    finally:
        os.chdir(here)


def new_pass_dir(workload: str, cfg: dict, n: int) -> Path:
    d = WORK / f"{workload}-{os.getpid()}-{n}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    (d / "run.cfg").write_text(cfg_text(cfg))
    return d


def check_pass(d: Path, cfg: dict, rcs: dict, counts: dict | None = None) -> list:
    """Keys of the stages of one pass that failed: a non-zero exit or a
    failed check on the stage's outputs."""
    import verify

    state = {}

    def operator():
        if "op" not in state:
            raise verify.CheckError("no valid operator to check against")
        return state["op"]

    def assemble():
        state["op"] = verify.check_assemble(d, cfg)

    checks = {
        "assemble": assemble,
        "phantoms": lambda: verify.check_phantoms(d, cfg),
        "train_nullspace": lambda: verify.check_train(d, cfg, "nullspace"),
        "train_continued": lambda: verify.check_train(d, cfg, "continued"),
        "evaluate": lambda: verify.check_evaluate(d, cfg, operator()),
        "reconstruct": lambda: verify.check_reconstruct(d, cfg, operator()),
        "rates": lambda: verify.check_rates(d, cfg),
        "distfn": lambda: verify.check_distfn(d, cfg, operator()),
    }
    failed = []
    for key, _ in STAGES:
        if rcs[key] != 0:
            log(f"FAIL {key}: exit code {rcs[key]}; see {d.name}/{key}.log")
            failed.append(key)
            continue
        try:
            checks[key]()
            if counts is not None:
                verify.check_counts(key, counts[key], cfg)
        except Exception as exc:  # a malformed output fails its stage, whatever it raises
            log(f"FAIL {key}: {type(exc).__name__}: {exc}")
            failed.append(key)
    return failed


# ------------------------------------------------------------------ modes


def end_to_end(workload: str, cfg: dict, seconds: float) -> dict:
    passes, failed, attempted = [], 0, 0
    setup_s = None
    while not passes or sum(p["pipeline_s"] for p in passes) < seconds:
        d = new_pass_dir(workload, cfg, len(passes))
        times, rcs, rss = {}, {}, {}
        for key, argv in STAGES:
            times[key], rcs[key], rss[key] = run_stage(d, argv)
            if key == "phantoms" and setup_s is None:
                setup_s = _START_OFFSET + time.perf_counter() - _T0
        passes.append({
            "train_s": times["train_nullspace"] + times["train_continued"],
            "evaluate_s": times["evaluate"],
            "analysis_s": times["rates"] + times["distfn"],
            "pipeline_s": sum(times.values()),
            "peak_rss_mb": max(rss.values()),
        })
        log(f"pass {len(passes)}: " + " ".join(f"{k}={v:.2f}s" for k, v in times.items()))
        attempted += len(STAGES)
        failed += len(check_pass(d, cfg, rcs))
        shutil.rmtree(d, ignore_errors=True)
    units = {"peak_rss_mb": "MB"}
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for name in passes[0]:
        metrics[name] = {"value": statistics.median(p[name] for p in passes), "unit": units.get(name, "s")}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(workload: str, cfg: dict) -> dict:
    from regnets import cli
    from spans import Tracer

    failed = 0
    plain = {}
    d = new_pass_dir(workload, cfg, 0)
    rcs = {}
    for key, argv in STAGES:
        plain[key], rcs[key] = run_stage_inprocess(d, argv, cli)
    failed += len(check_pass(d, cfg, rcs))
    shutil.rmtree(d, ignore_errors=True)

    tracer = Tracer()
    d = new_pass_dir(workload, cfg, 1)
    spans, counts = {}, {}
    tracer.install()
    try:
        for key, argv in STAGES:
            before = dict(tracer.calls)
            tracer.open(f"cli.{argv[0]}")
            _, rcs[key] = run_stage_inprocess(d, argv, cli)
            spans[key] = tracer.close()
            counts[key] = {f"{k}.calls": v - before.get(k, 0) for k, v in tracer.calls.items()}
    finally:
        tracer.uninstall()
    failed += len(check_pass(d, cfg, rcs, counts))
    shutil.rmtree(d, ignore_errors=True)

    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}.s"] = {"value": tracer.self_s.get(name, 0.0), "unit": "s"}
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = {"value": tracer.calls.get(name, 0), "unit": "count"}
    busy = tracer.self_s.get("network.grad_backprop", 0.0)
    metrics["network.grad_backprop.gflops"] = {"value": tracer.flops / busy / 1e9 if busy else 0.0, "unit": "GFLOP/s"}
    for command in COMMANDS:
        metrics[f"cli.{command}.s"] = {"value": tracer.self_s.get(f"cli.{command}", 0.0), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": sum(spans.values()) - sum(plain.values()), "unit": "s"}
    return {"correct": failed == 0, "attempted": 2 * len(STAGES), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "regnets" / "cli.py").is_file():
        log(f"no program to benchmark: {ROOT / 'src' / 'regnets'} is missing")
        return 2
    os.environ.update(OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    cfg = config(args.workload, args.seed)
    try:
        if args.trace:
            result = traced(args.workload, cfg)
        else:
            result = end_to_end(args.workload, cfg, args.seconds)
    except Deadline as exc:
        log(str(exc))
        return 3
    finally:
        signal.alarm(0)
        for d in WORK.glob(f"*-{os.getpid()}-*"):
            shutil.rmtree(d, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
