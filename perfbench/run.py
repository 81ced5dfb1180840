"""Benchmark of phonotraj: one workload, end to end (untraced) or per layer (traced).

  python3 perfbench/run.py --workload mocha-linear --seed 0 --seconds 15 --trace 0

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src/``.  Before any process imports numpy or the program, this
launcher pins BLAS and OpenMP to one thread and fixes PYTHONHASHSEED; it
then compiles the program, generates the inputs in a child process, times
fresh interpreters starting the CLI (untraced only), and runs the workload
in a worker process (worker.py).  The last line of standard output is the
result as JSON; the full record, with the environment and every sample, is
written under perfbench/results/.  Exits 2 without a result when the
program or a step fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
SETUP_PROBES = 3  # fresh interpreters timed per run for setup_s
SETUP_CODE = ("import phonotraj.cli as c; "
              "c.resolve_table(c.ExperimentConfig(dataset_root='.', speakers=('spk00',)))")
STEP_TIMEOUT = 170  # seconds; the whole run must end within 180


class StepError(RuntimeError):
    """A step of the benchmark failed; no result is printed."""


def _terminated(signum, frame):
    raise StepError(f"terminated by signal {signum}")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED, PYTHONPATH=str(SRC))
    return env


def step(argv: list[str], deadline: float, what: str) -> float:
    """Run a child to completion; returns its wall time."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise StepError(f"{what}: timed out") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise StepError(f"{what}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    return wall


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/self/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if str(path).startswith(mnt) and len(mnt) > len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pinned": PINNED,
        "work_fs": fs_type(WORK),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one round, one setup probe: checks, not timings")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminated)  # kill the running child, clean up, exit 2
    env_record = environment()
    deadline = time.monotonic() + STEP_TIMEOUT
    if not (SRC / "phonotraj" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = WORK / f"{tag}-{os.getpid()}"
    py = sys.executable
    smoke = ["--smoke"] if args.smoke else []
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        RESULTS.mkdir(exist_ok=True)
        steps = {"compile": step([py, "-m", "compileall", "-q", str(SRC / "phonotraj")],
                                 deadline, "compile")}
        steps["inputs"] = step([py, str(HERE / "inputs.py"), "--workload", args.workload,
                                "--seed", str(args.seed), "--out", str(work)] + smoke,
                               deadline, "inputs")
        setup = []
        if not args.trace:
            setup = [step([py, "-c", SETUP_CODE], deadline, "setup")
                     for _ in range(1 if args.smoke else SETUP_PROBES)]
        result_file = work / "worker.json"
        spans = RESULTS / f"{tag}-spans.json"
        steps["worker"] = step(
            [py, str(HERE / "worker.py"), "--workload", args.workload, "--data", str(work),
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--result", str(result_file)]
            + (["--spans", str(spans)] if args.trace else []) + smoke, deadline, "worker")
        res = json.loads(result_file.read_text(encoding="utf-8"))
        res["steps_s"] = steps
    except StepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(res["metrics"])
    if setup:
        metrics["setup_s"] = ["s", statistics.median(setup)]
        res.setdefault("samples", {})["setup_s"] = setup
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env_record, **res}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for err in res["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"environment": env_record, "versions": res["versions"],
                      "rounds": res.get("rounds")}))
    out = {
        "correct": res["failed"] == 0 and all(math.isfinite(v) for _, v in metrics.values()),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in sorted(metrics.items())},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
