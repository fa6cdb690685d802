"""Benchmark of the dkp-eup package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --out bench/baseline.json

Standard library only; everything that imports the package runs in a fresh
interpreter started from ``bench/worker.py``, so this process never loads
numpy or scipy.  Workloads (closed loop, one client):

* ``cli-cold``: each op is one fresh ``python -m dkp_eup.cli`` process,
  cycling through seeded ``spectrum``, ``spacing``, ``figures`` and
  ``wavefunction`` calls.  Outputs must match the library's closed forms,
  its own CSV writer and the pinned figure digests in ``figures.sha256``.
* ``verify-sweep``: each op is one reference verification pass at grid 8192
  and tol 1e-5 over seeded sectors of the acceptance box.
* ``eigenfunctions``: each op builds one seeded eigenfunction over
  alpha in [2e-3, 1], n <= 6, J <= 4 and checks residual, norm and nodes.
  After the timed loop, a fixed untimed audit of the whole documented
  domain (alpha in [1e-6, 1], n <= 20) gives ``pass_ratio`` and the
  failure causes of the layer's known defects.

Op and set-up times are reported at a reference host speed (see
``reference.py``); the raw wall times are printed next to them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; the last stdout line is one JSON object.
``--workload all`` runs both for every workload, prints a table, reports the
tracing overhead and, with ``--out``, writes everything to a JSON file.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import IMPORT_REF_MS, NUMERIC_REF_MS, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
PINNED = BENCH / "figures.sha256"

WORKLOADS = ("cli-cold", "verify-sweep", "eigenfunctions")
CLI_CYCLE = ("spectrum", "spacing", "figures", "wavefunction")
SETUP_REPS = 8
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 120
FAIL_CAUSES = ("GridTooCoarse", "nan", "norm", "nodes", "residual")

# per-layer metric -> (spans, statistic, ns per unit); "self" is the mean
# self time per call, "incl" the mean inclusive time per call, "per_op"
# the self time summed per op, "calls" the number of calls per op.
LEVEL_SPANS = ("spectrum.energy_natural", "spectrum.energy_natural_limit",
               "spectrum.energy_unnatural_phi", "spectrum.energy_unnatural_h0")
SPAN_METRICS = {
    "model.validate_us": (("model.validate",), "self", 1e3),
    "spectrum.calls": (LEVEL_SPANS + ("spectrum.level_spacing", "spectrum.abc"),
                       "calls", 1),
    "spectrum.level_us": (LEVEL_SPANS, "self", 1e3),
    "spectrum.abc_us": (("spectrum.abc",), "self", 1e3),
    "figures.build_ms": (("figures.build_figure",), "self", 1e6),
    "figures.write_csv_ms": (("figures.write_csv",), "self", 1e6),
    "svgplot.write_svg_ms": (("svgplot.write_svg",), "self", 1e6),
    "wavefunction.build_ms": (("wavefunction.natural_solution",
                               "wavefunction.unnatural_solution"), "self", 1e6),
    "wavefunction.norm_ms": (("wavefunction.deformed_norm",), "self", 1e6),
    "wavefunction.nodes_ms": (("wavefunction.count_nodes",), "self", 1e6),
    "wavefunction.write_csv_ms": (("wavefunction.write_csv",), "self", 1e6),
    "oracle.discretize_ms": (("oracle.discretize",), "self", 1e6),
    "oracle.solve_lowest_ms": (("oracle.solve_lowest",), "self", 1e6),
    "oracle.compare_calls": (("oracle.compare",), "calls", 1),
    "algebra.verify_ms": (("algebra.build_matrices", "algebra.verify_algebra",
                           "algebra.build_projector"), "per_op", 1e6),
    "algebra.commutators_ms": (("algebra.check_deformed_commutators",),
                               "self", 1e6),
    **{f"cli.main_ms.{sub}": ((f"cli.main.{sub}",), "incl", 1e6)
       for sub in CLI_CYCLE},
}

# Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_MAP = {
    "import.*": {"cli-cold": "op_p50_ms", "verify-sweep": "setup_s",
                 "eigenfunctions": "setup_s"},
    "cli.main_ms.*": {"cli-cold": "op_p50_ms"},
    "model.validate_us": {"cli-cold": "op_p50_ms"},
    "spectrum.*": {"cli-cold": "op_p50_ms", "verify-sweep": "ops_per_s"},
    "figures.*": {"cli-cold": "op_p50_ms"},
    "svgplot.write_svg_ms": {"cli-cold": "op_p50_ms"},
    "wavefunction.build_ms": {"eigenfunctions": "ops_per_s"},
    "wavefunction.norm_ms": {"eigenfunctions": "ops_per_s"},
    "wavefunction.nodes_ms": {"eigenfunctions": "ops_per_s"},
    "wavefunction.fail.*": {"eigenfunctions": "pass_ratio"},
    "wavefunction.write_csv_ms": {"cli-cold": "op_p50_ms"},
    "oracle.*": {"verify-sweep": "ops_per_s"},
    "algebra.*": {"verify-sweep": "ops_per_s"},
    "trace.op_p50_ms": {"cli-cold": "op_p50_ms", "verify-sweep": "op_p50_ms",
                        "eigenfunctions": "op_p50_ms"},
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


# --- processes ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _timeout(signum, frame):
    raise BenchError(f"a child process ran longer than {CHILD_TIMEOUT_S} s")


@contextlib.contextmanager
def supervised(proc: subprocess.Popen):
    """Kill and reap ``proc`` if the block raises or outlives the timeout."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        yield
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_child(argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
    """Run one process to completion: (wall ms, exit code, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        with supervised(proc):
            # wait4, unlike Popen.wait, reports this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            ms = (time.perf_counter() - t0) * 1e3
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ms, proc.returncode, usage.ru_maxrss / 1024.0


def import_ref_ms(tmp: Path) -> float:
    """One sample of the import reference (see reference.py), in ms."""
    ms, rc, _ = run_child([sys.executable, "-c", "import numpy"],
                          tmp / "ref.txt")
    if rc != 0:
        raise BenchError("the import reference failed")
    return ms


def setup_samples(measure, reps: int, tmp: Path) -> list[tuple[float, float]]:
    """(set-up seconds, import reference ms) pairs.  Half of a run's are
    taken before its timed loop and half after it, so that they do not all
    see the same minute of a shared machine."""
    return [(measure(), import_ref_ms(tmp)) for _ in range(reps)]


def run_worker(mode: str, cfg: dict, tmp: Path) -> tuple[float | None, dict]:
    """Start worker.py; returns (seconds until 'ready' or None, last line)."""
    cfg_path = tmp / f"cfg-{mode}.json"
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), mode, str(cfg_path)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env())
    with supervised(proc), proc.stdout:
        ready = None
        if mode == "run":
            if proc.stdout.readline() != "ready\n":
                raise BenchError("worker failed before its first op")
            ready = time.perf_counter() - t0
        out = proc.stdout.read()
        rc = proc.wait()
    if rc != 0:
        raise BenchError(f"worker {mode} exited with {rc}")
    lines = out.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else {})


def load_spans(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- statistics -----------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with >= 10 samples
    beyond it (nearest rank); the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return 100.0, s[-1]
    pct = math.floor(100 * (n - 10) / n)
    return float(pct), s[math.ceil(pct * n / 100) - 1]


class LayerStats:
    """Calls, self and inclusive time per span name; ops that called it."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.ops: dict[str, set] = {}

    def add(self, spans: list, op=None):
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, span_op) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + end - start - child[i]
            self.incl_ns[name] = self.incl_ns.get(name, 0) + end - start
            self.ops.setdefault(name, set()).add(span_op if op is None else op)

    def value(self, names, stat: str, unit: float, n_ops: int) -> float | None:
        calls = sum(self.calls.get(k, 0) for k in names)
        if calls == 0:
            return None
        if stat == "calls":
            return calls / n_ops
        if stat == "incl":
            return sum(self.incl_ns.get(k, 0) for k in names) / calls / unit
        total = sum(self.self_ns.get(k, 0) for k in names) / unit
        if stat == "per_op":
            return total / len(set().union(*(self.ops.get(k, set())
                                              for k in names)))
        return total / calls


# --- cli-cold -----------------------------------------------------------------------


def cli_specs(seed: int, count: int) -> list[dict]:
    """Seeded cli-cold ops over the README reference domain (m = lambdaR = 1)."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        kind = CLI_CYCLE[i % len(CLI_CYCLE)]
        spec = {"kind": kind}
        if kind == "spectrum":
            sector = rng.choice(("natural", "phi", "h0"))
            natural = sector == "natural"
            spec.update(sector=sector, branch=rng.choice(("plus", "minus")),
                        alpha=0.0 if natural and rng.random() < 0.25
                        else rng.uniform(0.05, 0.2),
                        lambda0=rng.uniform(0.0, 1.0) if natural else 0.0,
                        J=rng.randint(0, 4) if natural else 0,
                        n_max=rng.randint(0, 20))
        elif kind == "spacing":
            spec.update(alpha=rng.uniform(0.01, 0.2),
                        lambda0=rng.uniform(0.0, 1.0), J=rng.randint(0, 4),
                        n_max=rng.randint(20, 200))
        elif kind == "wavefunction":
            sector = rng.choice(("natural", "phi", "h0"))
            natural = sector == "natural"
            spec.update(sector=sector, alpha=rng.uniform(0.05, 0.2),
                        lambda0=rng.uniform(0.0, 0.5) if natural else 0.0,
                        J=rng.randint(0, 2) if natural else 0,
                        n=rng.randint(0, 3))
        specs.append(spec)
    return specs


def cli_argv(spec: dict, tmp: Path) -> list[str]:
    kind = spec["kind"]
    if kind == "figures":
        return ["figures", "--out-dir", str(tmp / "fig")]
    argv = [kind, "--m", "1", "--alpha", repr(spec["alpha"]),
            "--lambda0", repr(spec["lambda0"]), "--lambdaR", "1",
            "--J", str(spec["J"])]
    if kind == "spectrum":
        argv += ["--n-max", str(spec["n_max"]), "--sector", spec["sector"],
                 "--branch", spec["branch"]]
    elif kind == "spacing":
        argv += ["--n-max", str(spec["n_max"])]
    else:
        argv += ["--n", str(spec["n"]), "--sector", spec["sector"],
                 "--out", str(tmp / "wf.csv")]
    return argv


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned_digests() -> dict:
    pins = {}
    for line in PINNED.read_text().splitlines():
        digest, name = line.split()
        pins[name] = digest
    return pins


def check_cli(spec, expected, rc: int, stdout: Path, tmp: Path, pins) -> str | None:
    """None when the op's output is right, else the cause."""
    if rc != 0:
        return f"exit{rc}"
    kind = spec["kind"]
    if kind == "figures":
        for name, digest in pins.items():
            path = tmp / "fig" / name
            if not path.is_file() or sha256(path) != digest:
                return "digest"
        return None
    if kind == "wavefunction":
        path = tmp / "wf.csv"
        return None if path.is_file() and sha256(path) == expected else "mismatch"
    return None if stdout.read_text() == expected else "mismatch"


def cli_cold(seed, seconds, trace, tmp: Path, setup_reps: int) -> dict:
    pins = pinned_digests()
    # more ops than a run makes at today's ~0.4 s per op; they wrap around
    specs = cli_specs(seed, len(CLI_CYCLE) * max(2, math.ceil(seconds)))
    _, expected = run_worker("expect", {"ops": specs, "tmp": str(tmp)}, tmp)
    stdout = tmp / "stdout.txt"
    base = [sys.executable, "-m", "dkp_eup.cli"]

    def first_op():
        return run_child(base + cli_argv(specs[0], tmp), stdout)[0] / 1e3

    setup = setup_samples(first_op, setup_reps // 2, tmp)

    ops, refs, stats, figure_bytes = [], [], LayerStats(), []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(specs)
        spec = specs[k]
        argv = cli_argv(spec, tmp)
        # no output of an earlier op may pass this op's check
        shutil.rmtree(tmp / "fig", ignore_errors=True)
        (tmp / "wf.csv").unlink(missing_ok=True)
        spans_path = tmp / "spans.json"
        if trace:
            argv = [sys.executable, str(WORKER), "cli-trace", str(spans_path)] + argv
        else:
            argv = base + argv
        ms, rc, rss = run_child(argv, stdout)
        refs.append(import_ref_ms(tmp))
        cause = check_cli(spec, expected[k], rc, stdout, tmp, pins)
        ops.append({"ms": ms, "cause": cause, "rss": rss})
        if trace and spans_path.is_file():
            stats.add(load_spans(spans_path), op=i)
            spans_path.unlink()
        if spec["kind"] == "figures" and cause is None:
            figure_bytes.append(sum(f.stat().st_size
                                    for f in (tmp / "fig").iterdir()))
        i += 1
    wall = time.perf_counter() - start
    setup += setup_samples(first_op, setup_reps - setup_reps // 2, tmp)
    for op, ms in zip(ops, scaled([op["ms"] for op in ops], refs, IMPORT_REF_MS)):
        op["scaled_ms"] = ms
    return {"ops": ops, "wall_s": wall, "setup": setup,
            "peak_rss_mb": max(op["rss"] for op in ops), "stats": stats,
            "figure_bytes": figure_bytes}


# --- in-process workloads ---------------------------------------------------------


def in_process(workload, seed, seconds, trace, mutate, tmp: Path,
               setup_reps: int) -> dict:
    # pools are larger than a run consumes; they wrap around if not
    pool = max(1, math.ceil(seconds * (20 if workload == "verify-sweep" else 500)))
    cfg = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "mutate": mutate, "pool": pool,
           "spans": str(tmp / "spans.json")}

    def fresh_setup():
        return run_worker("run", dict(cfg, setup_only=True), tmp)[0]

    setup = setup_samples(fresh_setup, setup_reps // 2, tmp)
    _, res = run_worker("run", cfg, tmp)
    setup += setup_samples(fresh_setup, setup_reps - setup_reps // 2, tmp)
    for op, ms in zip(res["ops"], scaled([op["ms"] for op in res["ops"]],
                                         res["refs"], NUMERIC_REF_MS)):
        op["scaled_ms"] = ms
    stats = LayerStats()
    if trace:
        stats.add(load_spans(tmp / "spans.json"))
    return {"ops": res["ops"], "wall_s": res["wall_s"], "setup": setup,
            "peak_rss_mb": res["peak_rss_mb"], "stats": stats,
            "audit": res.get("audit")}


# --- per-layer probes ------------------------------------------------------------

IMPORT_PROBE = """import sys, time
m = len(sys.modules)
t = time.perf_counter()
import {target}
t = time.perf_counter() - t
print(t * 1e3, len(sys.modules) - m)"""

SCIPY_PROBE = """import sys
from dkp_eup import cli
rc = cli.main(sys.argv[1:])
print(rc, int('scipy' in sys.modules))"""


def import_probes(tmp: Path, reps: int) -> dict:
    """Fresh-process import costs (time of the import statement, i.e. the
    process minus the bare interpreter) and scipy use of cheap commands."""
    out = tmp / "probe.txt"
    metrics = {}
    for name, target in (("dkp_eup", "dkp_eup"), ("cli", "dkp_eup.cli")):
        samples = []
        for _ in range(reps):
            _, rc, _ = run_child([sys.executable, "-c",
                                  IMPORT_PROBE.format(target=target)], out)
            if rc != 0:
                raise BenchError(f"import {target} failed")
            ms, loaded = out.read_text().split()
            samples.append(float(ms))
        metrics[f"import.{name}_ms"] = statistics.median(samples)
    metrics["import.modules_loaded"] = int(loaded)
    for sub in ("spectrum", "spacing", "figures"):
        argv = (["figures", "--out-dir", str(tmp / "probe-fig")] if sub == "figures"
                else [sub, "--out", str(tmp / "probe.csv")])
        _, rc, _ = run_child([sys.executable, "-c", SCIPY_PROBE] + argv, out)
        cli_rc, flag = out.read_text().split()
        if rc != 0 or cli_rc != "0":
            raise BenchError(f"dkp-eup {sub} failed in the import probe")
        metrics[f"import.scipy_loaded.{sub}"] = int(flag)
    return metrics


def layer_metrics(workload: str, run: dict, census: dict, census_stats,
                  probes: dict) -> tuple[dict, dict]:
    """Per-layer values and where each came from ('own' ops or 'census')."""
    values, source = dict(probes), {k: "probe" for k in probes}
    own = run["stats"]
    n_ops = len(run["ops"])
    for name, (spans, stat, unit) in SPAN_METRICS.items():
        v = own.value(spans, stat, unit, n_ops)
        source[name] = "own"
        if v is None:
            v = census_stats.value(spans, stat, unit, 1)
            source[name] = "census"
        values[name] = v

    if workload == "verify-sweep":
        verify = run["ops"]
        source["oracle.levels_solved"] = source["oracle.worst_rel_err"] = "own"
    else:
        verify = [census["verify"]]
        source["oracle.levels_solved"] = source["oracle.worst_rel_err"] = "census"
    values["oracle.levels_solved"] = statistics.mean(op["levels"] for op in verify)
    values["oracle.worst_rel_err"] = max(op["worst"] for op in verify)

    if workload == "eigenfunctions":
        causes, src = run["audit"], "own"
    else:
        causes, src = census["eigen_causes"], "census"
    named = [c if c in FAIL_CAUSES else "other" for c in causes if c is not None]
    for cause in FAIL_CAUSES + ("other",):
        values[f"wavefunction.fail.{cause}"] = named.count(cause) / len(causes)
        source[f"wavefunction.fail.{cause}"] = src

    if run.get("figure_bytes"):
        values["figures.bytes_written"] = statistics.mean(run["figure_bytes"])
        source["figures.bytes_written"] = "own"
    else:
        values["figures.bytes_written"] = census["figure_bytes"]
        source["figures.bytes_written"] = "census"

    values["trace.op_p50_ms"] = statistics.median(op["scaled_ms"]
                                                  for op in run["ops"])
    source["trace.op_p50_ms"] = "own"
    return values, source


# --- one workload -------------------------------------------------------------------


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=False)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": commit, "seed": seed,
        "python": platform.python_version(), **versions,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 mutate: str | None = None, smoke: bool = False) -> dict:
    """Measure one workload; returns metrics plus everything behind them."""
    env = environment(seed)
    setup_reps = 2 if smoke else SETUP_REPS
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if workload == "cli-cold":
            run = cli_cold(seed, seconds, trace, tmp, setup_reps)
        else:
            run = in_process(workload, seed, seconds, trace, mutate, tmp,
                             setup_reps)
        if trace:
            census_cfg = {"tmp": str(tmp), "spans": str(tmp / "census.json")}
            _, census = run_worker("census", census_cfg, tmp)
            census_stats = LayerStats()
            census_stats.add(load_spans(tmp / "census.json"), op=0)
            probes = import_probes(tmp, 1 if smoke else IMPORT_REPS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    env["loadavg_end"] = os.getloadavg()

    ops = run["ops"]
    failed = [op["cause"] for op in ops if op["cause"] is not None]
    passed = len(ops) - len(failed)
    # pass_ratio: the audit grid's pass share on eigenfunctions, else the ops'
    checked = run["audit"] if workload == "eigenfunctions" else [
        op["cause"] for op in ops]
    causes: dict[str, int] = {}
    for cause in checked:
        if cause is not None:
            causes[cause] = causes.get(cause, 0) + 1
    pct, tail_ms = tail([op["scaled_ms"] for op in ops])
    setup_raw = statistics.median(s for s, _ in run["setup"])
    result = {
        "workload": workload, "env": env, "samples": len(ops),
        "attempted": len(ops), "failed": len(failed), "causes": causes,
        "checked": len(checked),
        "fail_ratio": len(failed) / len(ops), "tail_percentile": pct,
        "setup_samples": len(run["setup"]), "wall_s": run["wall_s"],
        "correct": not failed,
        "raw": {"ops_per_s": passed / sum(op["ms"] for op in ops) * 1e3,
                "op_p50_ms": statistics.median(op["ms"] for op in ops),
                "op_tail_ms": tail([op["ms"] for op in ops])[1],
                "setup_s": setup_raw},
    }
    if trace:
        result["layers"], result["layer_sources"] = layer_metrics(
            workload, run, census, census_stats, probes)
        if workload == "cli-cold":
            # the 'import' span of each traced child against its wall time
            result["import_share"] = (run["stats"].incl_ns.get("import", 0) / 1e6
                                      / sum(op["ms"] for op in ops))
    else:
        result["metrics"] = {
            "ops_per_s": passed / sum(op["scaled_ms"] for op in ops) * 1e3,
            "op_p50_ms": statistics.median(op["scaled_ms"] for op in ops),
            "op_tail_ms": tail_ms,
            "pass_ratio": checked.count(None) / len(checked),
            "setup_s": scaled([setup_raw], [r for _, r in run["setup"]],
                              IMPORT_REF_MS)[0],
            "peak_rss_mb": run["peak_rss_mb"],
        }
    return result


def emit_line(result: dict, spec: dict, trace: bool) -> dict:
    """The result line: one JSON object, metrics in the order BENCHMARK.json
    declares."""
    declared = spec["per_layer" if trace else "end_to_end"]
    values = result["layers" if trace else "metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise BenchError(f"metrics not matching BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def print_human(result: dict, spec: dict, trace: bool):
    w = result["workload"]
    print(f"# {w}: {result['attempted']} ops, {result['failed']} failed "
          f"(fail_ratio {result['fail_ratio']:.4f}) in {result['wall_s']:.2f} s")
    if result["causes"]:
        what = ("audit builds" if w == "eigenfunctions"
                else "failed ops")
        print(f"# {w}: {sum(result['causes'].values())} of {result['checked']} "
              f"{what} by cause {json.dumps(result['causes'])}")
    if trace:
        for m in spec["per_layer"]:
            print(f"# {w}: {m['name']} = {result['layers'][m['name']]:.6g} "
                  f"{m['unit']} [{result['layer_sources'][m['name']]}]")
    else:
        counts = {"setup_s": result["setup_samples"],
                  "pass_ratio": result["checked"]}
        for m in spec["end_to_end"]:
            name = m["name"]
            extra = (f", p{result['tail_percentile']:g}"
                     if name == "op_tail_ms" else "")
            if name in result["raw"]:
                extra += f"; raw wall {result['raw'][name]:.6g}"
            print(f"# {w}: {name} = {result['metrics'][name]:.6g} {m['unit']} "
                  f"(n={counts.get(name, result['samples'])}{extra})")
    print(f"# env {json.dumps(result['env'])}")


# --- all workloads ---------------------------------------------------------------------


def run_all(spec: dict, seed: int, seconds: float, smoke: bool, out: str | None):
    report = {"seed": seed, "seconds": seconds,
              "bounds": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                     "bound": m["bound"]}
                         for m in spec["end_to_end"]},
              "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
              "layer_map": LAYER_MAP, "results": {}}
    for w in WORKLOADS:
        plain = run_workload(w, seed, seconds, False, smoke=smoke)
        traced = run_workload(w, seed, seconds, True, smoke=smoke)
        print_human(plain, spec, False)
        print_human(traced, spec, True)
        p50 = plain["metrics"]["op_p50_ms"]
        overhead = traced["layers"]["trace.op_p50_ms"] / p50 - 1.0
        print(f"# {w}: tracing overhead on op_p50_ms {100 * overhead:+.1f}%")
        report["env"] = plain["env"]
        report["results"][w] = {
            "metrics": plain["metrics"], "raw": plain["raw"],
            "samples": plain["samples"],
            "tail_percentile": plain["tail_percentile"],
            "fail_ratio": plain["fail_ratio"], "causes": plain["causes"],
            "correct": plain["correct"], "layers": traced["layers"],
            "layer_sources": traced["layer_sources"],
            "trace_overhead": overhead,
        }
        if w == "cli-cold":
            report["import_share_cli_cold"] = traced["import_share"]
            print(f"# cli-cold: importing dkp_eup.cli takes "
                  f"{100 * traced['import_share']:.0f}% of the op wall time")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mutate", choices=("jj-term",),
                    help="verify-sweep only: feed wrong energies to the checks")
    ap.add_argument("--smoke", action="store_true",
                    help="fewer set-up and probe repetitions, for tests")
    ap.add_argument("--out", help="--workload all: write the report here")
    args = ap.parse_args(argv)
    if args.mutate and args.workload != "verify-sweep":
        ap.error("--mutate applies to --workload verify-sweep only")
    if not (SRC / "dkp_eup" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dkp_eup'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.workload == "all":
            run_all(spec, args.seed, seconds, args.smoke, args.out)
            return 0
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.mutate, args.smoke)
        print_human(result, spec, bool(args.trace))
        print(json.dumps(emit_line(result, spec, bool(args.trace))))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
