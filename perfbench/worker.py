"""One workload process of the benchmark: operations, output checks, spans.

``run.py`` starts this file in a fresh interpreter, with ``src`` on
PYTHONPATH, and drives it over stdin/stdout (see :func:`serve`):

    python3 perfbench/worker.py --workload box-scan --seed 1 --trace 0 \
        --work-dir .perfbench_out/work-box-scan

Each ``round`` runs the workload's operations once and checks their
outputs. With ``--trace 1`` every operation is kept as a span, and the
``probe`` command times calls into each public layer function, from which
the per-layer metrics are taken.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

BOX_THREADS = (1, 2)
# Calls per round of each Gaussian subcommand: the short ones are called more
# often, and the calls are interleaved, so that their medians rest on samples
# spread over the whole round rather than on one burst.
REPEATS = {"entangle": 8, "compare": 2, "semiclassical": 3, "semiclassical_wide": 1}
WIDE = dict(n_traj=20000, n_steps=200)
NARROW = dict(n_traj=500, n_steps=2000)


class Tracer:
    """Spans of one run, held in memory until the run ends.

    Every operation is timed through :meth:`span`; only with tracing on is
    the span kept, with its parent and the run's trace id.
    """

    def __init__(self, enabled: bool, trace_id: str):
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "dur": None}
        if self.enabled:
            rec.update(id=len(self.spans), trace=self.trace_id,
                       parent=self._open[-1] if self._open else None, **attrs)
            self.spans.append(rec)
            self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["dur"] = rec["end"] - rec["start"]
            if self.enabled:
                self._open.pop()


@dataclass
class Context:
    seed: int
    work_dir: Path
    tracer: Tracer
    rng: random.Random
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)

    def new_seed(self) -> int:
        return self.rng.randrange(2**31)

    def record(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def attempt(self, name: str, fn):
        """Run one operation in a span. Returns (result, seconds), or
        (None, None) when the program raised or exited non-zero."""
        self.attempted += 1
        try:
            with self.tracer.span(name) as sp:
                out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            return None, None
        return out, sp["dur"]

    def check(self, fails: list[str]) -> None:
        self.check_failures.extend(fails)


def _read_csv(path: Path) -> dict:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _manifest(out: Path) -> dict:
    return _read_json(out.with_suffix(out.suffix + ".manifest.json"))


def _call_main(argv: list[str]) -> int:
    from gravitas.cli import main

    code = main(argv)
    if code != 0:
        raise RuntimeError(f"gravitas {' '.join(argv)} exited {code}")
    return code


# ---------------------------------------------------------------------------
# box-scan: the unitarity scan through the library
# ---------------------------------------------------------------------------

def _box_params():
    from gravitas.params import ModelParams

    b = checks.BOX
    return ModelParams(g_newton=b["g_newton"], m=b["m"], mu=b["mu"],
                       alpha_tilde=b["alpha_tilde"])


def box_round(ctx: Context) -> None:
    from gravitas.unitarity import unitarity_violation_scan

    params = _box_params()
    master = ctx.new_seed()
    scans = {}
    for threads in BOX_THREADS:
        rows, dur = ctx.attempt(
            f"unitarity.unitarity_violation_scan[{threads}t]",
            lambda: unitarity_violation_scan(params, checks.BOX["s_grid"],
                                             checks.BOX["n_samples"], master,
                                             n_threads=threads))
        if rows is not None:
            scans[threads] = (rows, dur)
    if 1 in scans:
        rows, dur = scans[1]
        ctx.check(checks.check_box_scan(rows))
        ctx.record("box.scan_s", dur)
        ctx.record("box.time_to_sigma_s",
                   dur * (checks.ratio_sigma_rel(rows) / checks.SIGMA_TARGET) ** 2)
    if 2 in scans:
        ctx.record("box.scan_2t_s", scans[2][1])
        if 1 in scans and scans[1][0] != scans[2][0]:
            ctx.check(["box: scans with 1 and 2 threads differ"])


# ---------------------------------------------------------------------------
# gaussian-channels: in-process CLI calls of the Gaussian subcommands
# ---------------------------------------------------------------------------

def _gaussian_ops(ctx: Context) -> list[tuple]:
    """(metric stem, argv, output check, expected config) per operation."""
    d = ctx.work_dir
    return [
        ("entangle", ["entangle", "--out", str(d / "entangle.csv")],
         lambda out: checks.check_entangle(_read_csv(out)), checks.ENTANGLE),
        ("compare", ["compare", "--seed", str(ctx.new_seed()),
                     "--out", str(d / "compare.csv")],
         lambda out: checks.check_compare(_read_csv(out)), checks.COMPARE),
        ("semiclassical", ["semiclassical", "--seed", str(ctx.new_seed()),
                           "--out", str(d / "semiclassical.csv")],
         lambda out: checks.check_semiclassical(_read_csv(out), **NARROW),
         dict(checks.FIG1, **NARROW)),
        ("semiclassical_wide",
         ["semiclassical", "--seed", str(ctx.new_seed()),
          "--n-traj", str(WIDE["n_traj"]), "--n-steps", str(WIDE["n_steps"]),
          "--out", str(d / "semiclassical_wide.csv")],
         lambda out: checks.check_semiclassical(_read_csv(out), **WIDE),
         dict(checks.FIG1, **WIDE)),
    ]


def gaussian_warmup(ctx: Context) -> None:
    """Load every code path once with small shapes; untimed and unchecked."""
    d = str(ctx.work_dir / "warmup.csv")
    for argv in (["entangle", "--n-grid", "10"],
                 ["semiclassical", "--seed", "1", "--n-traj", "4", "--n-steps", "20",
                  "--horizon", "2"],
                 ["compare", "--seed", "1", "--n-traj", "4", "--n-steps", "20",
                  "--horizon", "2"]):
        _call_main(argv + ["--out", d])


def _check_output(ctx: Context, argv: list[str], check, expected: dict) -> None:
    out = Path(argv[-1])
    ctx.check(checks.check_config(argv[0], _manifest(out)["resolved_config"], expected)
              + check(out))


def _interleave(counts: dict) -> list:
    """Each key `count` times, with every key's turns spread evenly over the list."""
    keyed = sorted(((i + 0.5) / n, k, key) for k, (key, n) in enumerate(counts.items())
                   for i in range(n))
    return [key for _, _, key in keyed]


def gaussian_round(ctx: Context) -> None:
    ops = {op[0]: op for op in _gaussian_ops(ctx)}
    for name in _interleave(REPEATS):
        _, argv, check, expected = ops[name]
        _, dur = ctx.attempt(f"cli.main[{name}]", lambda: _call_main(argv))
        if dur is not None:
            ctx.record(f"{name}.run_s", dur)
            _check_output(ctx, argv, check, expected)


# ---------------------------------------------------------------------------
# cold-cli: each subcommand in a fresh interpreter, as users run it
# ---------------------------------------------------------------------------

def _cold_ops(ctx: Context) -> list[tuple]:
    """(metric stem, argv, output check, expected config) per operation."""
    d = ctx.work_dir
    return [
        ("deflection", ["deflection", "--out", str(d / "deflection.json")],
         lambda out: checks.check_deflection(_read_json(out)), checks.DEFLECTION),
        ("optical_tree", ["optical-tree", "--out", str(d / "optical_tree.json")],
         lambda out: checks.check_optical_tree(_read_json(out)), checks.OPTICAL),
    ]


def _subprocess(argv: list[str]) -> None:
    proc = subprocess.run([sys.executable, "-m", "gravitas.cli", *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"gravitas {argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")


def cold_round(ctx: Context) -> None:
    for name, argv, check, expected in _cold_ops(ctx):
        _, dur = ctx.attempt(f"subprocess[{argv[0]}]", lambda: _subprocess(argv))
        if dur is not None:
            ctx.record(f"cold.{name}_s", dur)
            _check_output(ctx, argv, check, expected)


WORKLOADS = {
    "box-scan": (None, box_round),
    "gaussian-channels": (gaussian_warmup, gaussian_round),
    "cold-cli": (None, cold_round),
}


# ---------------------------------------------------------------------------
# layer probes (traced run only)
# ---------------------------------------------------------------------------

def _import_times() -> dict:
    """Cumulative import time of selected modules, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import gravitas.cli"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name in ("gravitas.cli", "scipy.linalg", "scipy.integrate"):
                out.setdefault(name, int(parts[1]) * 1e-6)
    return out


def _per_call(tr: Tracer, name: str, fn, n: int) -> float:
    with tr.span(name, calls=n) as sp:
        for _ in range(n):
            fn()
    return sp["dur"] / n


def probe_layers(ctx: Context) -> dict:
    """Time calls into each layer from outside; returns the per-layer metrics."""
    from gravitas.amplitudes import m_3to3_tree, m_graviton_emission
    from gravitas.entanglement import (GaussianState, duan_witness,
                                       evolve_gaussian, log_negativity,
                                       quadratize_newton)
    from gravitas.estimators import BendingConfig, estimate_record
    from gravitas.kinematics import (FourVector, KinematicConfig,
                                     check_invariant_measure_identity, stream,
                                     two_body_batch)
    from gravitas.params import ModelParams
    from gravitas.semiclassical import (FeedbackConfig, compare_channels,
                                        run_ensemble)
    from gravitas.unitarity import (TreePoleFamily, annihilation_rhs,
                                    box_cut_im_forward, optical_tree_check,
                                    unitarity_violation_scan)

    tr = ctx.tracer
    m: dict[str, float] = {}
    med = statistics.median

    # import
    runs = []
    for _ in range(3):
        with tr.span("import.gravitas_cli[-X importtime]"):
            runs.append(_import_times())
    for mod, key in (("gravitas.cli", "import.gravitas_cli_s"),
                     ("scipy.linalg", "import.scipy_linalg_s"),
                     ("scipy.integrate", "import.scipy_integrate_s")):
        m[key] = med(r.get(mod, 0.0) for r in runs)

    # kinematics
    bp = _box_params()
    total = FourVector(math.sqrt(10.0), 0.0, 0.0, 0.0)
    rng = stream(ctx.seed, 1000)
    chunk, n_chunks = 1 << 17, 8
    spent = 0.0
    for _ in range(n_chunks):
        with tr.span("kinematics.two_body_batch", n=chunk) as sp:
            two_body_batch(total, bp.mu, bp.mu, rng, chunk)
        spent += sp["dur"]
    m["kinematics.two_body_batch.samples_per_s"] = chunk * n_chunks / spent

    o = checks.OPTICAL
    op = ModelParams(g_newton=o["g_newton"], m=o["m"], mu=o["mu"],
                     lambda_probe=o["lambda_probe"])
    family = TreePoleFamily(op)
    lo, hi = family.omega_window()
    omegas = iter(np.linspace(lo, hi, 400))
    m["kinematics.config_build_s"] = _per_call(
        tr, "kinematics.TreePoleFamily.config",
        lambda: family.config(float(next(omegas))), 400)

    mu = checks.PHASE_SPACE["mu"]
    fns = {"gaussian": lambda k4: np.exp(-np.sum(k4[:, 1:] ** 2, axis=1) / (2 * mu * mu)),
           "shell-indicator": lambda k4: (np.sum(k4[:, 1:] ** 2, axis=1) < 4 * mu * mu).astype(float),
           "rational": lambda k4: 1.0 / (1.0 + np.sum(k4[:, 1:] ** 2, axis=1) / mu**2) ** 3}
    times, results = [], {}
    for i, (name, fn) in enumerate(fns.items()):
        with tr.span("kinematics.check_invariant_measure_identity", fn=name) as sp:
            rep = check_invariant_measure_identity(
                fn, mu, stream(ctx.new_seed(), i), 200000,
                kmax=checks.PHASE_SPACE["kmax"] * mu)
        times.append(sp["dur"])
        results[name] = {"lhs": rep.lhs, "lhs_error": rep.lhs_error,
                         "rhs": rep.rhs, "rhs_error": rep.rhs_error}
    ctx.check(checks.check_phase_space({"results": results}))
    m["kinematics.measure_identity_s"] = med(times)

    # unitarity
    n = checks.BOX["n_samples"]
    for fn, key in ((box_cut_im_forward, "unitarity.box_cut_im_forward"),
                    (annihilation_rhs, "unitarity.annihilation_rhs")):
        times = []
        for i, (s, tag) in enumerate(((4.1, "s4p1"), (10.0, "s10"))):
            with tr.span(key, s=s) as sp:
                val, err = fn(s, bp, n, stream(ctx.seed, 3000 + i))
            times.append(sp["dur"])
            m[f"{key}.efficiency.{tag}"] = 1.0 / ((err / abs(val)) ** 2 * sp["dur"])
        m[f"{key}_s"] = med(times)
    scan_t = {}
    master = ctx.new_seed()
    for threads in BOX_THREADS:
        with tr.span("unitarity.unitarity_violation_scan", threads=threads) as sp:
            unitarity_violation_scan(bp, checks.BOX["s_grid"], n, master,
                                     n_threads=threads)
        scan_t[threads] = sp["dur"]
    m["unitarity.scan_speedup_2t"] = scan_t[1] / scan_t[2]

    @dataclass(frozen=True)
    class CountingFamily(TreePoleFamily):
        calls: list = field(default_factory=lambda: [0], compare=False)

        def config(self, omega: float) -> KinematicConfig:
            self.calls[0] += 1
            return super().config(omega)

    counting = CountingFamily(op)
    with tr.span("unitarity.optical_tree_check") as sp:
        optical_tree_check(counting, None, op, eps_ladder=(1e-2, 1e-3, 1e-4))
    m["unitarity.optical_tree_check_s"] = sp["dur"]
    m["unitarity.optical_tree.config_calls"] = float(counting.calls[0])

    # amplitudes, at the pole configuration the optical check uses
    q = checks.TREE_FAMILY["q_out"]
    ep = math.hypot(o["m"], q)
    omega_star = (2 * o["m"] * (ep - o["m"]) + o["mu"] ** 2) / (2 * (q + o["m"] - ep))
    cfg = family.config(omega_star)
    k, p1, p2 = cfg.incoming
    _, p1p, _ = cfg.outgoing
    emis = KinematicConfig((k, p1, p2), (k + p1 - p1p, p1p, p2),
                           (0.0, op.m, op.m, op.mu, op.m, op.m))
    m["amplitudes.m_3to3_tree_s"] = _per_call(
        tr, "amplitudes.m_3to3_tree", lambda: m_3to3_tree(cfg, op), 2000)
    m["amplitudes.m_graviton_emission_s"] = _per_call(
        tr, "amplitudes.m_graviton_emission", lambda: m_graviton_emission(emis, op), 2000)

    # entanglement, on the entangle subcommand's grid
    f = checks.ENTANGLE
    gp = ModelParams(g_newton=f["g_newton"], m=f["m"], mu=f["mu"])
    vx = f["var_x"]
    initial = GaussianState(np.zeros(4), np.diag([vx, 1 / (4 * vx), vx, 1 / (4 * vx)]))
    h = quadratize_newton(f["d"], gp, (f["m"], f["m"]), axis="transverse")
    grid = np.linspace(0.0, f["delta_t"], f["n_grid"] + 1)
    with tr.span("entanglement.evolve_gaussian", calls=grid.size) as sp:
        states = [evolve_gaussian(initial, h, float(t)) for t in grid]
    m["entanglement.evolve_gaussian_s"] = sp["dur"] / grid.size
    with tr.span("entanglement.log_negativity", calls=grid.size) as sp:
        for st in states:
            log_negativity(st)
    m["entanglement.log_negativity_s"] = sp["dur"] / grid.size
    with tr.span("entanglement.duan_witness", calls=grid.size) as sp:
        for st in states:
            duan_witness(st)
    m["entanglement.duan_witness_s"] = sp["dur"] / grid.size

    # semiclassical, in the subcommands' shapes
    c = checks.COMPARE
    horizon = c["horizon"]
    for shape, key in ((NARROW, "semiclassical"), (WIDE, "semiclassical.wide")):
        n_traj, n_steps = shape["n_traj"], shape["n_steps"]
        fb = FeedbackConfig(1.0, f["d"], (f["m"], f["m"]), gp, axis="separation",
                            meas_length=math.sqrt(vx))
        with tr.span("semiclassical.run_ensemble", **shape) as sp:
            run_ensemble(fb, initial, n_traj, n_steps, horizon / n_steps, ctx.new_seed())
        m[f"{key}.run_ensemble_s"] = sp["dur"]
        if shape is NARROW:
            m["semiclassical.step_us"] = sp["dur"] / n_steps * 1e6
    fb = FeedbackConfig(1.0, f["d"], (f["m"], f["m"]), gp, meas_length=math.sqrt(vx))
    with tr.span("semiclassical.compare_channels") as sp:
        compare_channels(fb, initial, horizon, c["n_steps"], NARROW["n_traj"], ctx.new_seed())
    m["semiclassical.compare_channels_s"] = sp["dur"]

    # estimators
    bc = BendingConfig()
    m["estimators.estimate_record_s"] = _per_call(
        tr, "estimators.estimate_record", lambda: estimate_record(bc, target_time=1.0), 1000)

    # cli: main() wall time beyond the manifest's own wall time, and bytes written
    for name, argv, _, _ in _gaussian_ops(ctx) + _cold_ops(ctx):
        with tr.span("cli.main", subcommand=name) as sp:
            _call_main(argv)
        out = Path(argv[-1])
        man = out.with_suffix(out.suffix + ".manifest.json")
        m[f"cli.overhead_s.{name}"] = sp["dur"] - _read_json(man)["wall_time_s"]
        m[f"cli.output_bytes.{name}"] = float(out.stat().st_size + man.stat().st_size)
    return m


# ---------------------------------------------------------------------------

def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def serve(args: argparse.Namespace) -> None:
    """Answer run.py's commands, one line each way: ``round`` runs one round
    of the workload, ``probe`` the layer probes, ``finish`` replies with the
    result as JSON and ends the process."""
    reply_to = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = open(os.devnull, "w")  # the CLI's own messages

    def reply(text: str) -> None:
        reply_to.write(text + "\n")
        reply_to.flush()

    ctx = Context(args.seed, Path(args.work_dir),
                  Tracer(bool(args.trace), f"{args.workload}/{args.seed}"),
                  random.Random(f"{args.workload}/{args.seed}"))
    warmup, one_round = WORKLOADS[args.workload]
    if warmup is not None:
        warmup(ctx)
    result = {"workload": args.workload, "rounds": 0}
    reply("ready")
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "round":
            with ctx.tracer.span("round", index=result["rounds"]):
                one_round(ctx)
            result["rounds"] += 1
        elif cmd == "probe":
            with ctx.tracer.span("layer-probes"):
                result["per_layer"] = probe_layers(ctx)
        elif cmd == "finish":
            result.update(attempted=ctx.attempted, failed=ctx.failed,
                          errors=ctx.errors, check_failures=ctx.check_failures,
                          samples=ctx.samples, peak_rss_mb=_peak_rss_mb(),
                          spans=ctx.tracer.spans)
            reply(json.dumps(result))
            return
        else:
            raise ValueError(f"unknown command {cmd!r}")
        reply("ok")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    serve(ap.parse_args())
    return 0


if __name__ == "__main__":
    sys.exit(main())
