"""lclab benchmark driver.

    python3 bench/run.py --workload theorem-mc --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --self-check

Runs one workload (see ``workloads.py``) for about ``--seconds`` seconds
as a closed loop with one client.  Each pass is a fresh worker
interpreter (``worker.py``), started one at a time, so cold costs are paid
on every pass and peak memory belongs to one workload.  The checkout's
``src/`` is the program; nothing is installed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Once no
further pass fits in ``--seconds``, run.py fills the time left with
workers that stop once set-up is done (at least MIN_SETUP_PROBES of
them), so ``setup_s`` is a median over more samples than there are passes
without taking time from the passes.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics, measured by wrappers around lclab's public functions
(``tracing.py``), plus the tracing overhead.

Every metric is printed by name with its unit and sample count; the last
line of standard output is the JSON result.  A run record (machine,
versions, seed, computed working set, source size, per-pass figures and
failure reasons) is written to ``bench/out/``.

All figures are for single-threaded BLAS: the workers run with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, which
users of the CLI do not set.  Speed-ups from BLAS-level parallelism are out
of this benchmark's scope.

``--self-check`` runs every workload at small sizes, traced and untraced,
with its gates, in a few seconds.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: a pass takes seconds; a hung one is killed early enough that the run
#: still ends within three minutes
WORKER_TIMEOUT_S = 100.0
MIN_PASSES = 3
#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
#: set-up-only workers started at the end of an untraced run, at least
MIN_SETUP_PROBES = 4
#: BLAS runs single-threaded in the workers: on a small shared machine its
#: implicit threads make pass times depend on the neighbours' load, and
#: process.cpu_s is meant to show the cost of parallelism lclab itself adds
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def _worker(args: list[str]) -> tuple[float, dict | None, str]:
    """Run one worker; return (spawn time, result or None, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return spawn, None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return spawn, None, f"worker exit code {proc.returncode}: {err.strip()[-2000:]}"
    return spawn, json.loads(lines[-1]), ""


def _setup_probe(base: list[str]) -> float:
    """Seconds from starting a set-up-only worker until its set-up is done."""
    spawn, result, err = _worker(base + ["--setup-only"])
    if result is None:
        raise RuntimeError(err)
    return result["setup_done"] - spawn


def _passes(workload: str, seed: int, seconds: float, trace: bool, small: bool):
    """Run passes until the next one would overrun ``seconds``.

    An untraced run then fills the time left with set-up-only workers.
    Returns (passes, set-up probe samples).
    """
    base = ["--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])
    _setup_probe(base)  # byte-compile and warm the file cache, untimed
    passes, probes, start, longest = [], [], time.monotonic(), 0.0
    minimum = 2 if trace else MIN_PASSES
    while len(passes) < minimum or time.monotonic() - start + longest <= seconds:
        traced = trace and len(passes) % 2 == 0
        spawn, result, err = _worker(base + ["--trace", str(int(traced))])
        if result is None:
            passes.append({"traced": traced, "error": err})
        else:
            result["setup_s"] = result.pop("setup_done") - spawn
            passes.append(result)
        longest = max(longest, time.monotonic() - spawn)
    longest = 0.0
    while not trace and (
        len(probes) < MIN_SETUP_PROBES or time.monotonic() - start + longest <= seconds
    ):
        spawn = time.monotonic()
        probes.append(_setup_probe(base))
        longest = max(longest, time.monotonic() - spawn)
    return passes, probes


def _tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  The percentile is never
    taken below the upper quartile, so a run of fewer than 4 * TAIL_BEYOND
    passes has fewer samples beyond it; the count is reported with the
    value.  The value interpolates linearly between neighbouring order
    statistics, as ``statistics.quantiles(method="inclusive")`` does.
    """
    xs = sorted(values)
    n = len(xs)
    pct = max(75.0, 100.0 * (n - TAIL_BEYOND) / n)
    pos = pct / 100.0 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, pct, sum(1 for x in xs if x > value)


def _median(values):
    return statistics.median(values) if values else 0.0


def _counts(passes):
    attempted = failed = 0
    correct = True
    reasons: dict[str, int] = {}
    for p in passes:
        if "error" in p:
            attempted += 1
            failed += 1
            correct = False
            reasons[p["error"]] = reasons.get(p["error"], 0) + 1
            continue
        for op in p["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                correct &= op["known_defect"]
                key = f"{op['op']}: {op['reason']}"
                reasons[key] = reasons.get(key, 0) + 1
    return attempted, failed, correct, reasons


def _end_to_end(passes, probes):
    ok = [p for p in passes if "error" not in p]
    attempted, failed, _, _ = _counts(passes)
    work = [p["work_s"] for p in ok]
    setups = [p["setup_s"] for p in ok] + probes
    tail, pct, beyond = _tail(work) if work else (0.0, 100.0, 0)
    metrics = {
        "setup_s": _median(setups),
        "wall_s.p50": _median(work),
        "wall_s.tail": tail,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in ok]),
        "pass_ratio": 1.0 - failed / attempted,
    }
    notes = {
        "samples": len(ok),
        "setup_s": f"n={len(setups)} ({len(ok)} passes, {len(probes)} set-up-only starts)",
        "wall_s.tail": f"p{pct:.1f} of {len(work)} passes, {beyond} beyond",
        "fail_ratio": f"{failed}/{attempted} = {failed / attempted:.4f}",
    }
    return metrics, notes


def _per_layer(passes, probes):
    ok = [p for p in passes if "error" not in p]
    traced = [p for p in ok if p["traced"]]
    plain = [p for p in ok if not p["traced"]]
    metrics = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = _median([p["layers"][name] for p in traced])
    untraced_wall = _median([p["work_s"] for p in plain])
    metrics["process.cpu_s"] = _median([p["cpu_s"] for p in plain])
    metrics["trace.overhead_ratio"] = (
        _median([p["work_s"] for p in traced]) / untraced_wall if untraced_wall else 0.0
    )
    self_s = {}
    if traced:
        for layer in traced[0]["layer_self_s"]:
            self_s[layer] = _median([p["layer_self_s"][layer] for p in traced])
    notes = {"samples": len(traced), "untraced_samples": len(plain), "layer_self_s": self_s}
    if self_s:
        notes["dominant_layer"] = max(self_s, key=self_s.get)
    return metrics, notes


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _machine() -> dict:
    model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        "unknown",
    )
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level").strip(), _read(f"{d}/type").strip()
        label = f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")
        caches[label] = {"size": _read(f"{d}/size").strip(), "shared_cpu_list": _read(f"{d}/shared_cpu_list").strip()}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_cpu0": caches,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
    }


def _source_lines() -> int:
    """Non-blank source lines under src/lclab (informational, not gated)."""
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "lclab", "*.py")):
        with open(path) as fh:
            total += sum(1 for ln in fh if ln.strip())
    return total


def _working_set(workload: str, small: bool) -> dict:
    """Largest arrays of one pass, computed from the sizes (not measured)."""
    if workload == "theorem-mc":
        n = workloads.SMALL_MC_N if small else 10**6
        return {
            "computed": True,
            "mc_values": n,
            "normals_bytes": 4 * n * 8,
            "note": "four normals per self-difference draw, float64",
        }
    cells = workloads.SMALL_CELLS if small else max(n for n, _, _ in workloads.LADDER)
    m = 1 << (2 * cells - 1).bit_length()  # transform's FFT length for this grid
    # padded input and inverse output (m doubles each), spectrum and its
    # product (m/2+1 complex each), correlation sums (2n-1 doubles)
    live = 8 * m * 2 + 16 * (m // 2 + 1) * 2 + 8 * (2 * cells - 1)
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else 0
    out = {
        "computed": True,
        "largest_grid_cells": cells,
        "largest_fft_points": m,
        "fft_input_bytes": 8 * m,
        "selfdiff_live_bytes": live,
        "l3_bytes": l3_bytes,
        "ladder_stops": (
            "2^18 cells at fixed L, 2^16 with L proportional to n: the proportional "
            "points at 2^17 and 2^18 take about 3.8 s and 32 s each"
        ),
    }
    if l3_bytes and live < l3_bytes:
        out["note"] = "the largest self-difference fits in L3: this measures compute, not DRAM bandwidth"
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Run one workload; return (result line object, run record)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    passes, probes = _passes(workload, seed, seconds, trace, small)
    attempted, failed, correct, reasons = _counts(passes)
    section = "per_layer" if trace else "end_to_end"
    measured, notes = (_per_layer if trace else _end_to_end)(passes, probes)
    missing = [m["name"] for m in spec[section] if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec[section]}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "machine": _machine(),
        "worker_env": WORKER_ENV,
        "blas": "single-threaded in the workers; BLAS-level parallelism is out of scope",
        "versions": versions,
        "source_lines_src_lclab": _source_lines(),
        "working_set": _working_set(workload, small),
        "result": result,
        "notes": notes,
        "failure_reasons": reasons,
        "unreported_metrics": sorted(set(measured) - {m["name"] for m in spec[section]}),
        "passes": [
            {k: v for k, v in p.items() if k not in ("layers", "versions")} for p in passes
        ],
        "setup_probes_s": probes,
    }
    return result, record


def _print_report(workload, result, record):
    notes = record["notes"]
    print(f"workload {workload}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"passes {len(record['passes'])}")
    for name, m in result["metrics"].items():
        extra = notes.get(name, f"n={notes['samples']}")
        print(f"  {name:55s} {m['value']:>14.6g} {m['unit']:6s} {extra}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}"
          + (f"  fail_ratio {notes['fail_ratio']}" if "fail_ratio" in notes else ""))
    for reason, count in record["failure_reasons"].items():
        print(f"  failed x{count}: {reason}")
    if "layer_self_s" in notes:
        ranked = sorted(notes["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("  traced self time by layer: " + ", ".join(f"{k} {v:.4f}s" for k, v in ranked))


def _self_check() -> int:
    """Every workload at small sizes, untraced and traced, gates included."""
    problems = []
    expect_layer = {"theorem-mc": "mc.draws", "grid-ladder": "transform.selfdiff.calls"}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, record = run(workload, 0, 0.0, trace, small=True)
            _print_report(workload, result, record)
            if not result["correct"]:
                problems.append(f"{workload}: incorrect outputs {record['failure_reasons']}")
            if record["unreported_metrics"]:
                problems.append(f"{workload}: metrics missing from BENCHMARK.json {record['unreported_metrics']}")
            if trace and not result["metrics"][expect_layer[workload]]["value"] > 0:
                problems.append(f"{workload}: traced run saw no {expect_layer[workload]}")
    for p in problems:
        print(f"SELF-CHECK PROBLEM: {p}")
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lclab benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.self_check:
        return _self_check()
    if args.workload is None:
        p.error("--workload is required")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    _print_report(args.workload, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
