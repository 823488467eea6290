"""Benchmark of the sled-oam command line, end to end and layer by layer.

    python3 bench/run.py --workload surface|dm_wide|fidelity_scan|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each invocation is a real CLI run in a fresh
interpreter (users pay the import and the cold ``kappa`` cache every time),
one at a time from this one process, with ``--threads 1`` and the BLAS/OpenMP
pools pinned to one thread.  Invocations repeat until ``--seconds`` have
passed; every output is checked (see ``check.py``) and any failure counts
against the run.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported.
With ``--trace 1`` traced and untraced invocations alternate: the traced ones
time the calls into each module (see ``tracing.py``) and give the per-layer
metrics, the untraced ones give the tracing overhead.  The last line printed
is one JSON object; a full record goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

# Pinned here too, before numpy loads, so the checks in this process leave
# the second core to the invocation.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
INVOCATION_TIMEOUT_S = 120.0
# Stop starting invocations after this long, so a run exits within 180 s.
RUN_LIMIT_S = 150.0

LAYERS = ("config", "bcs", "spectral", "modes", "pair_state", "metrics", "outputs", "cli")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLED_OAM_")}
    env["PYTHONPATH"] = SRC
    env.update(THREAD_PINS)
    return env


def _stderr_tail(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines()
    except OSError:
        return ""
    return lines[-1][:300] if lines else ""


def invoke(inv, cwd: str, mode: str = "0", invocation: str = "") -> dict:
    """Run one child in a fresh ``cwd``; return its record plus exit code and rusage."""
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    record_path = os.path.join(cwd, "child.json")
    err_path = os.path.join(cwd, "stderr.txt")
    cmd = [sys.executable, CHILD, record_path, mode, invocation, "--", *inv.argv]
    with open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - spawned > INVOCATION_TIMEOUT_S:
                    timed_out = True
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"spans": []}
    try:
        with open(record_path, encoding="utf-8") as fh:
            result.update(json.load(fh))
    except (OSError, ValueError):
        pass  # a child that died early leaves no record; its exit code says why
    result.update(rc=proc.returncode, peak_rss_mb=usage.ru_maxrss / 1024.0)
    ready = result.pop("ready_monotonic", None)
    if ready is not None:
        result["setup_s"] = ready - spawned
    if timed_out:
        result["problem"] = f"timed out after {INVOCATION_TIMEOUT_S:.0f} s"
    elif proc.returncode != 0:
        result["problem"] = f"exit code {proc.returncode}: {_stderr_tail(err_path)}"
    return result


def check_invocation(inv, cwd: str, reference, rtol: float):
    """Check the outputs in ``cwd``; return (bytes written, reference deviation or None)."""
    out_dir = check.find_out_dir(cwd)
    data = check.check_outputs(inv, out_dir)
    size = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    dev = check.compare_reference(data, reference, rtol) if reference is not None else None
    return size, dev


def run_workload(name: str, seed: int, seconds: float, trace: bool, rtol: float) -> dict:
    inv = workloads.generate(name, seed)
    reference = check.load_reference(name) if seed == 0 else None
    work = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    cwd = os.path.join(work, "invocation")
    runs, problems, deviations = [], [], []
    speedup = None
    min_attempts = 2 if trace else 1  # a traced run needs one of each kind
    start = time.monotonic()
    try:
        if trace:
            speedup = invoke(workloads.generate("surface", seed), cwd, "speedup", "speedup")
            if "problem" in speedup or "speedup" not in speedup:
                problems.append(f"thread speedup: {speedup.get('problem', 'no result')}")
                speedup = None
        while True:
            elapsed = time.monotonic() - start
            if elapsed >= RUN_LIMIT_S or (elapsed >= seconds and len(runs) >= min_attempts):
                break
            traced = trace and len(runs) % 2 == 1
            rec = invoke(inv, cwd, "1" if traced else "0", f"{name}-{seed}-{len(runs)}")
            rec["traced"] = traced
            if "problem" not in rec:
                try:
                    rec["bytes"], dev = check_invocation(inv, cwd, reference, rtol)
                    if dev is not None:
                        deviations.append(dev)
                except check.CheckFailed as exc:
                    rec["problem"] = f"output check: {exc}"
            if "problem" in rec:
                problems.append(rec["problem"])
            runs.append(rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "invocation": inv,
        "runs": runs,
        "problems": problems,
        "max_reference_deviation": max(deviations) if deviations else None,
        "speedup": speedup,
    }


def tail(samples) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the minimum is reported at percentile 0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# Units of the end-to-end figures that are printed but not gated in
# BENCHMARK.json: raw times drift with the machine (see ``calib_s``) and
# ``failed_frac`` is 0 on a healthy run.
PRINTED_UNITS = {"wall_s": "s", "wall_s_tail": "s", "cpu_s": "s", "calib_s": "s", "failed_frac": "ratio"}


def end_to_end(result: dict) -> tuple:
    """(metrics, notes) from the untraced invocations that passed.

    ``wall_rel`` and ``cpu_rel`` divide the mean invocation time by the mean
    time of the calibration kernel that ran in the same processes just
    before and after each ``cli.main``.  This sandbox alternates between
    fast and slow phases (up to 1.7x, lasting seconds to minutes); the
    ratio cancels them, where the raw medians spread 10-45% between runs.
    """
    runs = result["runs"]
    ok = [r for r in runs if "problem" not in r and not r["traced"]]
    attempted = len(runs)
    failed = sum("problem" in r for r in runs)
    notes = {"failed_frac": failed / attempted if attempted else 1.0, "samples": len(ok)}
    if not ok:
        return {}, notes
    walls = [r["wall_s"] for r in ok]
    tail_value, tail_pct = tail(walls)
    notes.update(wall_s_tail_percentile=tail_pct, wall_s_tail_beyond=min(TAIL_BEYOND, len(ok) - 1))
    calib = statistics.fmean(c for r in ok for c in r["calib_s"])
    metrics = {
        "wall_rel": statistics.fmean(walls) / calib,
        "cpu_rel": statistics.fmean(r["cpu_s"] for r in ok) / calib,
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "calib_s": calib,
        "failed_frac": notes["failed_frac"],
    }
    return metrics, notes


def layer_metrics(spans, temperatures) -> dict:
    """Per-layer metrics of one traced invocation."""
    calls = Counter()
    errors = Counter()
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    layer_self = defaultdict(float)
    notes = defaultdict(list)
    for span, own in zip(spans, tracing.self_times(spans)):
        name = span[tracing.NAME]
        layer = name.split(".")[0]
        calls[name] += 1
        self_s[name] += own
        inclusive[name] += span[tracing.END] - span[tracing.START]
        layer_self[layer] += own
        errors[layer] += bool(span[tracing.ERROR])
        if span[tracing.NOTE] is not None:
            notes[name].append(span[tracing.NOTE])
    wall = inclusive["cli.main"]
    tables = calls["bcs.gap_at_temperature"]
    points = sum(notes["spectral.rate_surfaces"]) + 2 * calls["spectral.mixing_rates"]
    m = {
        "config.load_config.s": inclusive["config.load_config"],
        "bcs.gap_at_temperature.calls": tables,
        "spectral.band_table_reuse": len(set(temperatures)) / tables if tables else 0.0,
        "spectral.points_per_s": points / layer_self["spectral"] if layer_self["spectral"] else 0.0,
        "modes.kappa.distinct": len(set(notes["modes.kappa"])),
        "metrics.eigh.max_n": max(notes["metrics.eigh"], default=0),
    }
    for name in (
        "spectral.mixing_rates", "modes.kappa", "modes.lg_radial", "metrics.fidelity", "metrics.eigh",
    ):
        m[f"{name}.calls"] = calls[name]
    for name in (
        "spectral.rate_surfaces", "spectral.mixing_rates", "modes.kappa", "pair_state.rho_total",
        "pair_state.to_json_dict", "metrics.fidelity", "metrics.eigh", "outputs.write_csv",
        "outputs.write_json", "outputs.svg_matrix", "outputs.svg_heatmap", "outputs.write_manifest",
    ):
        m[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.share"] = layer_self[layer] / wall if wall else 0.0
        m[f"{layer}.errors"] = errors[layer]
    return m


def per_layer(result: dict) -> dict:
    """Medians over the traced invocations, plus overhead, bytes and thread speedup."""
    runs = [r for r in result["runs"] if "problem" not in r]
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    if not traced or not plain:
        return {}
    temps = result["invocation"].temperatures
    each = [layer_metrics(r["spans"], temps) for r in traced]
    metrics = {k: statistics.median(m[k] for m in each) for k in each[0]}
    metrics["outputs.bytes"] = statistics.median(r["bytes"] for r in runs)
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    speedup = result["speedup"] or {}
    metrics["spectral.thread_speedup"] = speedup.get("speedup", 0.0)
    return metrics


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": THREAD_PINS,
        "git_commit": _git_commit(),
    }


def _declared(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def report(name: str, seed: int, trace: bool, result: dict) -> tuple:
    """Print one workload's metrics; return (declared metrics, attempted, failed)."""
    computed, notes = end_to_end(result)
    declared = _declared("end_to_end")
    if trace:
        computed = per_layer(result)
        declared = _declared("per_layer")
    for problem in result["problems"][:5]:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    missing = [d["name"] for d in declared if d["name"] not in computed]
    if missing:
        raise SystemExit(f"{name}: no value for {missing}; see the failures above")
    metrics = {d["name"]: {"value": computed[d["name"]], "unit": d["unit"]} for d in declared}
    for key, entry in metrics.items():
        print(f"{name:<14} {key:<34} {entry['value']!r} {entry['unit']}")
    if not trace:
        for key, unit in PRINTED_UNITS.items():
            print(f"{name:<14} {key:<34} {computed[key]!r} {unit}")
        print(
            f"{name:<14} wall_s_tail is p{notes['wall_s_tail_percentile']:.1f}, "
            f"{notes['wall_s_tail_beyond']} samples beyond it, of {notes['samples']}"
        )
    dev = result["max_reference_deviation"]
    if dev is not None:
        print(f"{name:<14} largest relative deviation from the seed-0 reference: {dev!r}")
    # a traced run also attempts the thread-speedup measurement
    attempted = len(result["runs"]) + trace
    failed = sum("problem" in r for r in result["runs"]) + (trace and result["speedup"] is None)
    _save(name, seed, trace, result, metrics, notes)
    return metrics, attempted, failed


def _save(name, seed, trace, result, metrics, notes) -> None:
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    base = os.path.join(WORK_DIR, "results", f"{name}-seed{seed}-trace{int(trace)}-{stamp}")
    traced = [r for r in result["runs"] if r["traced"] and r.get("spans")]
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "argv": list(result["invocation"].argv),
        "environment": environment(),
        "metrics": metrics,
        "notes": notes,
        "max_reference_deviation": result["max_reference_deviation"],
        "thread_speedup": result["speedup"],
        "problems": result["problems"],
        "invocations": [{k: v for k, v in r.items() if k != "spans"} for r in result["runs"]],
    }
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if traced:
        with open(base + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(traced[-1]["spans"], fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sled_oam", "cli.py")):
        print(f"error: no sled_oam sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from sled_oam import spectral

    rtol = getattr(spectral, "CONVERGENCE_RTOL", 1e-3)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), rtol)
        metrics, n, bad = report(name, args.seed, bool(args.trace), result)
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
        attempted += n
        failed += bad
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
