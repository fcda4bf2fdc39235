"""The four benchmark workloads, their output checks and their metrics.

Every workload is a closed loop with one caller in this process.  For the
run's time budget it repeats rounds of its command (``identify``, a ``demo``
pass, or a cold ``check`` process) and of scalar and bulk membership
queries against the design space it works on.  Every output is checked
against an oracle that does not go through the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from rfuncds import cli, ds, geometry, reactor
from rfuncds import expr as expr_mod
from rfuncds.expr import And, Leaf, Not

from calib import SpeedProbe
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
FIXTURES = ("perfbench/fixtures/kelvin-alpha1.json", "perfbench/fixtures/kelvin-alpha0.json")
KELVIN_CFG = "presets/kelvin-activation.cfg"

BULK_POINTS = 1 << 20        # points per bulk evaluation call
BLOCK = 2_000                # scalar queries per timed block
BLOCKS_PER_ROUND = 5
BULK_PER_ROUND = 2
MIN_ROUNDS = 2               # byte identity needs two runs of the command
MIN_COLD_CHECKS = 5          # cold checks in a traced query run
SETUP_CHILDREN = 3
BAND = 1e-6                  # oracle margin below which a verdict is not checked
VERDICTS = ["inside", "outside", "boundary"]
CHILD_TIMEOUT_S = 60

DEMO_CASES = ("circles-4.1", "parabolas-4.2", "slabs-A1", "paraboloid-cylinders-A2")
_FILES_2D = ("and.svg", "and_field.csv", "expressions.txt", "or.svg", "or_field.csv")


def _files_3d(labels):
    return tuple(sorted([f"{lab}_slice{k:02d}.svg" for lab in labels for k in range(9)]
                        + [f"{lab}_field.csv" for lab in labels] + ["expressions.txt"]))


DEMO_FILES = {
    "circles-4.1": _FILES_2D,
    "parabolas-4.2": _FILES_2D,
    "slabs-A1": _files_3d(("and", "or")),
    "paraboloid-cylinders-A2": _files_3d(("and", "cutout")),
}


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)
        return ok

    def record_all(self, ok: np.ndarray, note: Callable[[int], str]) -> None:
        """One operation per element of ok; note(i) describes failure i."""
        bad = np.flatnonzero(~ok)
        self.attempted += ok.size - bad.size
        for i in bad:
            self.record(False, note(i))


@dataclass
class Context:
    workload: str
    seconds: float
    rng: np.random.Generator
    tally: Tally
    work: Path               # this run's scratch directory inside the checkout
    cal: SpeedProbe


def child_env() -> dict:
    """Environment for child interpreters: the package under test first."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# set-up: a fresh interpreter until rfuncds is imported and inputs loaded

_SETUP_CODE = """import sys
import rfuncds
from rfuncds import ds
reports = [ds.load_report(p) for p in sys.argv[1:]]
print(rfuncds.__file__, flush=True)
"""


def _setup_once(report_files) -> tuple[float, str, int]:
    """Seconds from spawning an interpreter until it reports ready."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", _SETUP_CODE, *report_files],
                          stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    return elapsed, line.strip(), proc.returncode


def measure_setup(ctx: Context, report_files=()) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters: (at reference speed, raw)."""
    expected = (SRC / "rfuncds" / "__init__.py").resolve()
    scaled, raw = [], []
    for _ in range(SETUP_CHILDREN):
        scale, _, (elapsed, line, code) = ctx.cal.time(_setup_once, report_files)
        if code != 0 or Path(line).resolve() != expected:
            raise RuntimeError(f"set-up child did not import {expected}: "
                               f"exit {code}, got {line!r}")
        scaled.append(elapsed * scale)
        raw.append(elapsed)
    return scaled, raw


def import_seconds(importtime_log: str) -> dict[str, float]:
    """Cumulative import seconds of rfuncds, of scipy and of every top-level
    import of the process, from -X importtime."""
    rows = []   # (depth, name, cumulative seconds), children listed before parents
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue   # header row
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    is_scipy = [n == "scipy" or n.startswith("scipy.") for _, n, _ in rows]
    rfuncds_s = scipy_s = all_s = 0.0
    for k, (depth, name, cum) in enumerate(rows):
        if name == "rfuncds":
            rfuncds_s = cum
        if depth == 0:
            all_s += cum
        # a scipy module counts unless its importer is scipy too
        parent = next((j for j in range(k + 1, len(rows)) if rows[j][0] < depth), None)
        if is_scipy[k] and not (parent is not None and is_scipy[parent]):
            scipy_s += cum
    return {"rfuncds": rfuncds_s, "scipy": scipy_s, "all": all_s}


# ----------------------------------------------------------------------
# commands

def cli_call(argv: list[str]) -> str:
    """Run ``rfuncds`` in this process; returns its stdout, raises on failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rfuncds {' '.join(argv)} exited {code}")
    return buf.getvalue()


def tree_digest(root: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def record_commands(ctx: Context, times, digests, problems: list[str]) -> list[float]:
    """Count each command run; a run fails if it raised, its output differs
    from the first run's, or the output checks found problems.  Returns the
    times with inf for the failed runs."""
    out = []
    for t, digest in zip(times, digests):
        ok = digest is not None and digest == digests[0] and not problems
        ctx.tally.record(ok, "; ".join(problems) or "command raised or output not "
                         "byte-identical across iterations")
        out.append(t if ok else math.inf)
    return out


# ----------------------------------------------------------------------
# membership queries

@dataclass
class Target:
    """A design space the workload queries, with an independent oracle."""

    name: str
    member: Callable[[list], str]        # verdict at one point
    expr: object                         # expression evaluated in bulk
    names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]
    oracle: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]  # (inside, decided)


def report_target(name: str, report) -> Target:
    """Oracle: min over constraints of metamodel prediction minus threshold."""
    def member(p):
        return ds.membership(report, p)

    def oracle(pts):
        margin = np.min([c.fit.predict(pts) - c.threshold for c in report.constraints],
                        axis=0)
        return margin > 0.0, np.abs(margin) > BAND

    return Target(name, member, report.joint.expr, tuple(a.name for a in report.box),
                  tuple((a.lo, a.hi) for a in report.box), oracle)


def _boolean(tree, env):
    """Plain Boolean combination of leaf signs, and the smallest |leaf|."""
    if isinstance(tree, Leaf):
        v = np.asarray(expr_mod.eval_arrays(tree.region.expr, env), dtype=float)
        return v >= 0.0, np.abs(v)
    if isinstance(tree, Not):
        inside, margin = _boolean(tree.child, env)
        return ~inside, margin
    parts = [_boolean(c, env) for c in tree.children]
    combine = np.logical_and if isinstance(tree, And) else np.logical_or
    inside = parts[0][0]
    for p in parts[1:]:
        inside = combine(inside, p[0])
    return inside, np.min([p[1] for p in parts], axis=0)


def region_target(name: str, region, tree, bounds) -> Target:
    """Oracle: Boolean combination of the case's leaf regions."""
    names = tuple(region.vars)

    def member(p):
        return expr_mod.sign_class(region, dict(zip(names, p)))

    def oracle(pts):
        inside, margin = _boolean(tree, {n: pts[:, k] for k, n in enumerate(names)})
        return inside, margin > BAND

    return Target(name, member, region.expr, names, tuple(bounds), oracle)


def _draw(rng, target: Target, n: int) -> np.ndarray:
    lo, hi = np.array(target.bounds).T
    return rng.uniform(lo, hi, size=(n, len(target.bounds)))


class Queries:
    """Scalar and bulk membership queries against one workload's targets."""

    def __init__(self, ctx: Context, targets: list[Target]):
        self.ctx = ctx
        self.targets = targets
        self.bulk = []       # (target, env, inside, decided), one entry per target
        envs = {}
        for t in targets:    # targets with the same box share one point set
            if t.bounds not in envs:
                pts = _draw(ctx.rng, t, BULK_POINTS)
                envs[t.bounds] = (pts, {n: np.ascontiguousarray(pts[:, i])
                                        for i, n in enumerate(t.names)})
            pts, env = envs[t.bounds]
            self.bulk.append((t, env, *t.oracle(pts)))

    def scalar_block(self) -> np.ndarray:
        """Latencies of BLOCK queries, targets in turn; inf where the answer is wrong."""
        n = len(self.targets)
        per = -(-BLOCK // n)
        batch = [(t, _draw(self.ctx.rng, t, per)) for t in self.targets]
        jobs = [(t, pts[i].tolist()) for i in range(per) for t, pts in batch]
        lat = np.empty(len(jobs))
        verdicts = [None] * len(jobs)
        for k, (t, p) in enumerate(jobs):
            t0 = perf_counter()
            try:
                verdicts[k] = t.member(p)
            except Exception:   # a raised query is a failed query
                pass
            lat[k] = perf_counter() - t0
        for j, (t, pts) in enumerate(batch):
            inside, decided = t.oracle(pts)
            got = np.array(verdicts[j::n], dtype=object)
            want = np.where(inside, "inside", "outside").astype(object)
            ok = np.where(decided, got == want, np.isin(got, VERDICTS))
            self.ctx.tally.record_all(ok, lambda i: f"{t.name}: membership at "
                                                    f"{pts[i].tolist()} gave {got[i]!r}")
            lat[j::n][~ok] = math.inf
        return lat

    def bulk_pass(self) -> float:
        """Seconds to evaluate every target once on BULK_POINTS points; inf if wrong."""
        total = 0.0
        for t, env, inside, decided in self.bulk:
            t0 = perf_counter()
            try:
                values = expr_mod.eval_arrays(t.expr, env)
            except Exception:   # a raised call is a failed call
                values = None
            total += perf_counter() - t0
            ok = (values is not None and np.shape(values) == inside.shape
                  and not np.any(((values >= 0.0) != inside) & decided))
            if not self.ctx.tally.record(ok, f"{t.name}: bulk evaluation disagrees "
                                             "with the oracle"):
                total = math.inf
        return total


def cold_check(ctx: Context, target: Target, path: str,
               importtime: bool = False) -> tuple[float, str]:
    """Wall time of a fresh ``rfuncds check`` process (inf if its exit code
    does not match the oracle) and its stderr."""
    while True:
        pt = _draw(ctx.rng, target, 1)
        inside, decided = target.oracle(pt)
        if decided[0]:
            break
    expected = 0 if inside[0] else 3
    flags = ["-X", "importtime"] if importtime else []
    argv = [sys.executable, *flags, "-m", "rfuncds.cli", "check", path,
            ",".join(repr(float(v)) for v in pt[0])]
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - t0
    ok = ctx.tally.record(proc.returncode == expected,
                          f"check {path} {argv[-1]}: exit {proc.returncode}, "
                          f"expected {expected}: {proc.stderr.strip()[-300:]}")
    return (elapsed if ok else math.inf), proc.stderr


# ----------------------------------------------------------------------
# output checks

def _grid_oracle(params, box) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """batch_cqa on a 100x100 grid over the box, cached inside the checkout."""
    key = hashlib.sha256(repr((params, box)).encode()).hexdigest()[:16]
    cache = WORK / "cache" / f"grid-oracle-{key}.npz"
    g = np.meshgrid(np.linspace(*box[0], 100), np.linspace(*box[1], 100), indexing="ij")
    T, t = g[0].ravel(), g[1].ravel()
    if cache.is_file():
        inside = np.load(cache)["inside"]
    else:
        purity, profit, _ = reactor.batch_cqa(T, t, params)
        inside = (purity >= reactor.PURITY_MIN) & (profit >= reactor.PROFIT_MIN)
        cache.parent.mkdir(parents=True, exist_ok=True)
        np.savez(cache, inside=inside)
    return T, t, inside


def _read_config(path: Path) -> dict:
    overrides = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            overrides[key.strip()] = float(value)
    return overrides


def check_identify(report_path: Path, kelvin: bool) -> tuple[list[str], object]:
    """Acceptance criteria 7 and 8 on an identify report."""
    try:
        report = ds.load_report(report_path)
    except Exception as exc:   # an unreadable report is a failed check
        return [f"report does not load: {exc!r}"], None
    problems = []
    for c in report.constraints:
        if not (c.fit.r_squared >= 0.99 and (c.validation_r_squared or 0.0) >= 0.99):
            problems.append(f"{c.name}: R2 train {c.fit.r_squared}, "
                            f"validation {c.validation_r_squared} (need >= 0.99)")
    overrides = _read_config(ROOT / KELVIN_CFG) if kelvin else {}
    params = reactor.apply_config(overrides)[0]
    box = tuple((a.lo, a.hi) for a in report.box)
    T, t, oracle = _grid_oracle(params, box)
    env = {"T": T, "t": t}
    wrong = (expr_mod.eval_arrays(report.joint.expr, env) >= 0.0) != oracle
    in_band = np.zeros(int(wrong.sum()), dtype=bool)
    for c in report.constraints:
        phi = c.fit.predict(np.column_stack([T[wrong], t[wrong]])) - c.threshold
        in_band |= np.abs(phi) <= c.fit.residual_max_abs
    if not in_band.all():
        problems.append(f"{int((~in_band).sum())} of {int(wrong.sum())} grid-oracle "
                        "disagreements lie outside the residual bands")
    return problems, report


def check_demo(out: Path) -> list[str]:
    """Expected file set, and the circles-4.1 lens area within 2 % (criterion 10)."""
    problems = []
    for case, files in DEMO_FILES.items():
        got = tuple(sorted(p.name for p in (out / case).iterdir())) \
            if (out / case).is_dir() else ()
        if got != files:
            problems.append(f"{case}: wrote {list(got)}, expected {list(files)}")
    field = out / "circles-4.1" / "and_field.csv"
    if field.is_file():
        data = np.loadtxt(field, delimiter=",", comments="#", skiprows=2)
        area = np.ptp(data[:, 0]) * np.ptp(data[:, 1]) * np.mean(data[:, 2] >= 0.0)
        d, R, r = 1.0, 1.5, 1.0
        lens = (R**2 * np.arccos((d**2 + R**2 - r**2) / (2 * d * R))
                + r**2 * np.arccos((d**2 + r**2 - R**2) / (2 * d * r))
                - 0.5 * np.sqrt((-d + R + r) * (d + R - r) * (d - R + r) * (d + R + r)))
        if not abs(area - lens) / lens <= 0.02:
            problems.append(f"circles-4.1 lens area {area} vs analytic {lens}: off by > 2 %")
    return problems


# ----------------------------------------------------------------------
# workloads

def _command(ctx: Context) -> tuple[Callable[[], str], Path]:
    """The workload's in-process command and the directory it writes."""
    out = ctx.work / "out"
    if ctx.workload == "demo-all":
        def run_once():
            return "".join(cli_call(["demo", case, "--out",
                                     str((out / case).relative_to(ROOT))])
                           for case in DEMO_CASES)
        return run_once, out
    argv = ["identify", "--out", str(out.relative_to(ROOT))]
    if ctx.workload == "identify-kelvin":
        argv += ["--config", KELVIN_CFG]
    return (lambda: cli_call(argv)), out


def _check_output(ctx: Context, out: Path) -> tuple[list[str], list[Target]]:
    """Output problems, and the design spaces the workload then queries."""
    if ctx.workload == "demo-all":
        targets = []
        for case_name in DEMO_CASES:
            first, second, case = geometry.testcase(case_name)
            for region, (label, tree) in zip((first, second), case.trees):
                targets.append(region_target(f"{case_name}/{label}", region, tree,
                                             case.bounds))
        return check_demo(out), targets
    problems, report = check_identify(out / "ds_report.json",
                                      kelvin=ctx.workload == "identify-kelvin")
    if report is None:
        raise RuntimeError("; ".join(problems))
    return problems, [report_target("report", report)]


def fixture_targets() -> list[Target]:
    return [report_target(Path(f).stem, ds.load_report(ROOT / f)) for f in FIXTURES]


def _attempt(run_once: Callable[[], str]) -> str | None:
    """The command's stdout, or None if it raised."""
    try:
        return run_once()
    except Exception as exc:   # counted by record_commands; the run goes on
        print(f"command failed: {exc!r}", file=sys.stderr)
        return None


def run(ctx: Context) -> dict:
    """Untraced run: every end-to-end metric as (value, unit, note).

    The run is a sequence of rounds until the time budget is spent: one
    command (identify, a demo pass, or a cold check), BLOCKS_PER_ROUND blocks
    of scalar queries and BULK_PER_ROUND bulk passes.  Every timed sample is
    rescaled to reference speed (see calib.py) and each metric is the
    median over its samples.
    """
    query = ctx.workload == "query"
    setup, setup_raw = measure_setup(ctx, FIXTURES if query else ())
    if query:
        queries = Queries(ctx, fixture_targets())
    else:
        run_once, out = _command(ctx)
        queries = None
    command, command_raw, digests = [], [], []
    latencies, latencies_raw, bulk, bulk_raw = [], [], [], []
    problems: list[str] = []
    start = perf_counter()
    while len(command) < MIN_ROUNDS or perf_counter() - start < ctx.seconds:
        if query:
            k = len(command) % len(FIXTURES)
            scale, elapsed, (wall, _) = ctx.cal.time(cold_check, ctx, queries.targets[k],
                                                     FIXTURES[k])
            elapsed = elapsed if math.isfinite(wall) else math.inf
        else:
            scale, elapsed, stdout = ctx.cal.time(_attempt, run_once)
            digests.append(None if stdout is None else tree_digest(out, stdout))
            if queries is None:
                problems, targets = _check_output(ctx, out)
                queries = Queries(ctx, targets)
        command.append(elapsed * scale)
        command_raw.append(elapsed)
        for _ in range(BLOCKS_PER_ROUND):
            scale, _, lat = ctx.cal.time(queries.scalar_block)
            latencies.append(lat * scale * 1e6)
            latencies_raw.append(lat * 1e6)
        points = BULK_POINTS * len(queries.bulk)
        for _ in range(BULK_PER_ROUND):
            scale, _, elapsed = ctx.cal.time(queries.bulk_pass)
            bulk.append(points / (elapsed * scale) / 1e6)
            bulk_raw.append(points / elapsed / 1e6)
    if not query:
        command = record_commands(ctx, command, digests, problems)

    latencies = np.concatenate(latencies)
    latencies_raw = np.concatenate(latencies_raw)
    # Shown but not gated: on a shared host the tail latency and the
    # memory-bound bulk rate spread by 15-40 % across runs even after
    # rescaling, more than any bound a gate can use.
    print(f"info: membership_p99_us = {np.percentile(latencies, 99):.6g} us at reference "
          f"speed, {np.percentile(latencies_raw, 99):.6g} as timed")
    print(f"info: bulk_eval_mpts_per_s = {np.median(bulk):.6g} Mpts/s at reference speed, "
          f"{np.median(bulk_raw):.6g} as timed (median of {len(bulk)} passes of "
          f"{len(queries.bulk)} x {BULK_POINTS} points)")

    def note(values, raw, what):
        return (f"median of {len(values)} {what} at reference speed; "
                f"as timed: {float(np.median(raw)):.6g}")
    return {
        "setup_s": (float(np.median(setup)), "s",
                    note(setup, setup_raw, "fresh interpreters")),
        "command_s": (float(np.median(command)), "s", note(command, command_raw, "runs")),
        "membership_p50_us": (float(np.median(latencies)), "us",
                              note(latencies, latencies_raw, "queries")),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of the workload process"),
    }


# ----------------------------------------------------------------------
# traced run

def _node_count(e) -> int:
    walk = getattr(expr_mod, "walk", None)
    return sum(1 for _ in walk(e)) if walk is not None else 0


def _query_unit(ctx: Context) -> tuple[Callable[[], list[int]], list[Target]]:
    """The in-process part of the query workload: load, query, check."""
    queries = Queries(ctx, fixture_targets())
    check_argv = [["check", f, "275.0,275.0"] for f in FIXTURES]

    def unit():
        for f in FIXTURES:
            ds.load_report(ROOT / f)
        queries.scalar_block()
        queries.bulk_pass()
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in check_argv]
    return unit, queries.targets


def run_traced(ctx: Context) -> dict:
    """One untraced and one traced iteration; every per-layer metric."""
    check_cold = 0.0
    if ctx.workload == "query":
        unit, targets = _query_unit(ctx)
        out = None
        runs = [cold_check(ctx, targets[k % len(FIXTURES)], FIXTURES[k % len(FIXTURES)],
                           importtime=True) for k in range(MIN_COLD_CHECKS)]
        check_cold = float(np.median([wall for wall, _ in runs]))
        logs = [import_seconds(stderr) for _, stderr in runs]
    else:
        unit, out = _command(ctx)
        logs = [import_seconds(subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rfuncds"], capture_output=True,
            text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True).stderr)
            for _ in range(SETUP_CHILDREN)]

    scale, untraced_s, first = ctx.cal.time(unit)
    untraced_ref = untraced_s * scale
    if out is not None:
        digests = [tree_digest(out, first)]
    tracer = Tracer()
    tracer.install()
    try:
        scale, traced_s, second = ctx.cal.time(tracer.unit, unit)
    finally:
        tracer.uninstall()
    tracer.write(ctx.work / "spans.json")
    for name in tracer.dropped:
        print(f"trace: {name} not found, its span is dropped", file=sys.stderr)

    if out is not None:   # both iterations must write the same bytes
        digests.append(tree_digest(out, second))
        problems, targets = _check_output(ctx, out)
        record_commands(ctx, [untraced_s, traced_s], digests, problems)
    else:
        ctx.tally.record(first == second and set(first) <= {0, 3, 4},
                         f"in-process check exit codes {first} then {second}")

    imports = {k: float(np.median([log[k] for log in logs]))
               for k in ("rfuncds", "scipy", "all")}
    self_by_name = tracer.self_times()
    inc = tracer.inclusive
    c = tracer.counts
    m = {
        "reactor.model_runs": (c["reactor.model_runs"], "count"),
        "reactor.model_s": (inc("reactor.simulate"), "s"),
        "reactor.steps": (c["reactor.steps"], "count"),
        "reactor.nfev": (c["reactor.nfev"], "count"),
        "reactor.worst_defect": (c["reactor.worst_defect"], "ratio"),
        "contour.marching_squares_s": (inc("contour.marching_squares"), "s"),
        "contour.cells": (c["contour.cells"], "count"),
        "contour.polyline_points": (c["contour.polyline_points"], "count"),
        "contour.slice_3d_s": (inc("contour.slice_3d"), "s"),
        "contour.grid_eval_s": (inc("contour.grid_eval"), "s"),
        "contour.grid_nodes": (c["contour.grid_nodes"], "count"),
        "emit.field_csv_s": (inc("emit.field_csv"), "s"),
        "emit.svg_s": (inc("emit.svg"), "s"),
        "emit.contours_csv_s": (inc("emit.contours_csv"), "s"),
        "emit.bytes": (c["emit.bytes"], "bytes"),
        "ds.save_report_s": (inc("ds.save_report"), "s"),
        "expr.eval_arrays_s": (inc("expr.eval_arrays"), "s"),
        "expr.eval_points": (c["expr.eval_points"], "count"),
        "ds.membership_s": (inc("ds.membership"), "s"),
        "expr.joint_nodes": (sum(_node_count(t.expr) for t in targets), "count"),
        "cli.import_s": (imports["rfuncds"], "s"),
        "cli.import_scipy_s": (imports["scipy"], "s"),
        "ds.load_report_s": (inc("ds.load_report"), "s"),
        "qmc.sobol_s": (inc("qmc.sobol", "qmc.scale"), "s"),
        "polyfit.fit_s": (inc("polyfit.fit"), "s"),
        "expr.compose_s": (inc("expr.compose"), "s"),
        "exprtext.serialize_s": (inc("exprtext.serialize", "exprtext.to_infix",
                                     "exprtext.to_tree_text"), "s"),
        "ds.identify_self_s": (self_by_name.get("ds.identify", 0.0), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_by_name.items()
                                    if k.split(".")[0] == layer), "s")
    m.update({
        "trace.unit_s": (traced_s, "s"),
        "trace.untraced_unit_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s * scale - untraced_ref, "s"),
        "trace.uncovered_s": (self_by_name.get("bench.unit", 0.0), "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.dropped": (len(tracer.dropped), "count"),
        "reactor.model_share": (m["reactor.model_s"][0] / traced_s, "ratio"),
        "contour.marching_squares_share": (m["contour.marching_squares_s"][0] / traced_s,
                                           "ratio"),
        "emit.field_csv_share": (m["emit.field_csv_s"][0] / traced_s, "ratio"),
        "cli.check_cold_s": (check_cold, "s"),
        "cli.import_share": (imports["all"] / check_cold if check_cold else 0.0, "ratio"),
    })
    return {k: (float(v), u, "traced run") for k, (v, u) in m.items()}
