"""Benchmark of gravitas: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload box-scan --seed 1 --seconds 32 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics. perfbench/README.md says what each one measures.

This file uses the standard library only. Each workload runs in its own
``worker.py`` process, a fresh interpreter, driven one whole round at a
time. An untraced run shares ``--seconds`` of measured time between rounds
of the chosen workload, rounds of each other workload and set-up in fresh
interpreters: the next step is always the one furthest behind its share of
the time (SHARES). So every run reports every end-to-end metric, every
metric's samples are spread over the whole run, and the run's length does
not grow when the machine is slow. A traced run gives all of its time to
the chosen workload and then runs the worker's layer probes. The run exits
non-zero without printing a result if the program cannot be imported or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("box-scan", "gaussian-channels", "cold-cli")
# Shares of an untraced run's measured time: the chosen workload, set-up
# (setup_s), and the rest split evenly between the other workloads.
OWN_SHARE, SETUP_SHARE = 0.34, 0.12
RUN_LIMIT_S = 170.0  # every child is stopped before the run reaches this


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("the run exceeded its time limit")
    return left


def setup_once(deadline: float) -> float:
    """Time from starting a fresh interpreter until gravitas.cli is imported."""
    code = "import gravitas.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("import gravitas.cli did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"import gravitas.cli failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout) - t0


class Worker:
    """One workload process, driven a command at a time (see worker.serve)."""

    def __init__(self, workload: str, seed: int, trace: int, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.work = OUT / f"work-{workload}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.stderr = (self.work / "stderr.txt").open("w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--work-dir", str(self.work)],
            env=_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True, start_new_session=True)

    def read(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], _remaining(self.deadline))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stderr.flush()
            tail = (self.work / "stderr.txt").read_text()[-1500:]
            raise BenchError(f"worker {self.workload} stopped answering: {tail}")
        return line.strip()

    def ask(self, cmd: str) -> str:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.stderr.close()
        shutil.rmtree(self.work, ignore_errors=True)


def measure(args: argparse.Namespace, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "gravitas" / "cli.py").is_file():
        raise BenchError(f"program source not found under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    others = [] if args.trace else [w for w in WORKLOADS if w != args.workload]
    shares = {args.workload: 1.0} if args.trace else {
        args.workload: OWN_SHARE, "setup": SETUP_SHARE,
        **{w: (1.0 - OWN_SHARE - SETUP_SHARE) / len(others) for w in others}}
    setup: list[float] = []
    workers = {}
    try:
        for w in [args.workload, *others]:
            workers[w] = Worker(w, args.seed, args.trace, deadline)
        for wk in workers.values():
            if wk.read() != "ready":
                raise BenchError(f"worker {wk.workload} did not start")

        def step(name: str) -> None:
            if name == "setup":
                setup.append(setup_once(deadline))
            elif workers[name].ask("round") != "ok":
                raise BenchError(f"worker {name} failed a round")

        busy = dict.fromkeys(shares, 0.0)
        start = time.monotonic()
        while time.monotonic() - start < args.seconds:
            name = min(shares, key=lambda k: busy[k] / shares[k])
            t0 = time.monotonic()
            step(name)
            busy[name] += time.monotonic() - t0
        if args.trace and workers[args.workload].ask("probe") != "ok":
            raise BenchError("layer probes failed")
        results = [json.loads(wk.ask("finish")) for wk in workers.values()]
    finally:
        for wk in workers.values():
            wk.close()

    own = results[0]
    samples: dict[str, list[float]] = {}
    if not args.trace:
        samples["setup_s"] = setup
        samples["peak_rss_mb"] = [own["peak_rss_mb"]]
    for r in results:
        for name, vals in r["samples"].items():
            samples.setdefault(name, []).extend(vals)
    if args.trace:
        values, wanted = own["per_layer"], spec["per_layer"]
    else:
        values = {k: statistics.median(v) for k, v in samples.items()}
        wanted = spec["end_to_end"]
    problems = [p for r in results for p in r["errors"] + r["check_failures"]]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}; problems: {problems[:5]}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds,
              "rounds": {r["workload"]: r["rounds"] for r in results},
              "samples": samples, "problems": problems}
    if args.trace:
        record.update(per_layer=own["per_layer"], spans=own["spans"])
    kind = "trace" if args.trace else "result"
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record), encoding="utf-8")

    return {
        "correct": not any(r["check_failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="gravitas benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time of the run, shared between its steps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = measure(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
