"""Benchmark for the ternaryperm command-line tool.

    python3 benchmarks/run.py --workload construct|search --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  With --trace 0 it runs the workload's
commands as a user does, `python -m ternaryperm ...` one at a time, for
about S seconds and reports the end-to-end metrics.  With --trace 1 it
replays every workload once in-process with spans around each layer call
and reports the per-layer metrics.  Readable lines come first; the last
line of standard output is one JSON object.  benchmarks/README.md has the
details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import workloads
from harness import SRC, Sample, run_cli

WORK = Path(".bench_work")  # results, spans and per-run scratch, inside the checkout
SETUP_REPS = 3  # setup_s is the median of this many set-ups in one run


def cold_info(rep: int, run_dir: Path) -> Sample:
    """`info --dim 5` from a fresh copy of the package, writing no bytecode.

    The copy has no __pycache__, so the run pays interpreter start, import
    and compilation, as the first run after installing from source does.
    Copying is not timed.
    """
    cold = run_dir / f"cold{rep}"
    shutil.copytree(SRC / "ternaryperm", cold / "ternaryperm", ignore=shutil.ignore_patterns("__pycache__"))
    sample = run_cli(workloads.info(f"cold_info{rep}"), run_dir, pythonpath=cold, flags=("-B",))
    shutil.rmtree(cold)
    return sample


def end_to_end(name: str, seed: int, seconds: int, run_dir: Path) -> tuple[dict, list[Sample], dict]:
    """Set up SETUP_REPS times, warm up once, then run whole passes for `seconds`.

    A pass is the workload's command list once through; a new pass starts
    while less than `seconds` have gone by.
    """
    samples = [cold_info(rep, run_dir) for rep in range(SETUP_REPS)]
    setups = [s.wall_s for s in samples]
    commands, params = workloads.commands(name, seed, run_dir)
    samples.append(run_cli(workloads.info("warmup_info"), run_dir))

    passes: list[list[Sample]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append([run_cli(c, run_dir) for c in commands])
    samples += [s for p in passes for s in p]
    per_pass_wall = [sum(s.wall_s for s in p) for p in passes]
    per_pass_rss = [max(s.rss_mb for s in p) for p in passes]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": setups},
        "wall_s": {"value": statistics.median(per_pass_wall), "unit": "s", "samples": per_pass_wall},
        "peak_rss_mb": {"value": max(per_pass_rss), "unit": "MB", "samples": per_pass_rss},
    }
    params.update(commands=[" ".join(c.args) for c in commands], passes=len(passes))
    return metrics, samples, params


def environment(args: argparse.Namespace) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        git = ""
    cpu = platform.processor()
    try:
        models = [line for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")]
        cpu = models[0].split(":", 1)[1].strip() if models else cpu
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ternaryperm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git or "unknown",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def high_percentile(samples: list[float]) -> Optional[tuple[float, float]]:
    """(percentile, value) of the highest sample with at least ten samples above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100 * (len(ordered) - 10) / len(ordered), ordered[-11]


def report(env: dict, params: dict, metrics: dict, samples: list[Sample]) -> None:
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# params " + json.dumps(params, sort_keys=True))
    for name, m in metrics.items():
        value = f"{m['value']:>14d}" if isinstance(m["value"], int) else f"{m['value']:>14.6g}"
        line = f"{name:<34} {value} {m['unit']:<8}"
        if "samples" in m:
            hp = high_percentile(m["samples"])
            tail = f"p{hp[0]:.0f}={hp[1]:.6g}" if hp else "p-high=n/a(<11)"
            line += f" median={statistics.median(m['samples']):.6g} {tail} n={len(m['samples'])}"
        print(line)
    failed = [s for s in samples if s.problem]
    ratio = len(failed) / len(samples)
    print(f"{'fail_ratio':<34} {ratio:>14.6g} {'ratio':<8} failed={len(failed)} attempted={len(samples)}")
    for s in failed:
        print(f"FAILED {s.label}: {s.problem}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ternaryperm" / "__main__.py").is_file():
        print(f"error: no {SRC}/ternaryperm here; run from the root of a ternaryperm checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: run_cli stops the running command and the scratch
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment(args)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = WORK / "runs" / stamp
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            import tracing

            metrics, samples, params = tracing.traced_run(args.seed, run_dir, WORK / "spans" / f"{stamp}.json")
        else:
            metrics, samples, params = end_to_end(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for s in samples if s.problem)
    (WORK / "results").mkdir(exist_ok=True)
    record = {"env": env, "params": params, "metrics": metrics, "commands": [vars(s) for s in samples]}
    (WORK / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=1))
    report(env, params, metrics, samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
