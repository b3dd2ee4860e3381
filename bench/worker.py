"""One benchmark pass in a fresh interpreter.

Started by ``run.py``, one at a time.  Imports lclab from the checkout's
``src/``, builds the pass's inputs (the end of set-up), runs the workload
once, checks its outputs and prints one JSON line describing the pass.
Every pass pays the cold costs a CLI user pays on each invocation, and a
cache kept inside the program cannot outlive the pass.

    python3 bench/worker.py --workload grid-ladder --seed 1 --trace 0
    python3 bench/worker.py --workload grid-ladder --seed 1 --setup-only

With ``--setup-only`` the worker stops once set-up is done: run.py
takes these as extra set-up samples.  Scratch files and the traced pass's
spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _import_lclab():
    import lclab
    import lclab.cli  # the package does not import its CLI module

    src = os.path.join(ROOT, "src", "lclab")
    if os.path.dirname(os.path.abspath(lclab.__file__)) != src:
        raise RuntimeError(f"imported lclab from {lclab.__file__}, expected {src}")
    return lclab


def _size_curves(tracer, marks):
    own = tracer.self_times()
    names = [s[0] for s in tracer.spans]
    measured = {}
    for point, first in marks:
        idx = names.index("transform.self_difference", first)
        measured[(point["law"], point["cells"], point["nominal"])] = own[idx]
    return tracing.size_curve_metrics(
        [(law, n, hw, prop, measured.get((law, n, hw))) for law, n, hw, prop in workloads.ladder_points()]
    )


def run_pass(workload: str, seed: int, trace: bool, small: bool, setup_only: bool = False) -> dict:
    lclab = _import_lclab()
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT, prefix="pass-")
    try:
        inputs = workloads.make_inputs(workload, seed, small, tmp)
        setup_done = time.monotonic()
        if setup_only:
            return {"setup_done": setup_done}
        if trace:
            tracer = tracing.install(lclab)
        else:
            tracer = None
            leftover = tracing.installed_wrappers(lclab)
            if leftover:
                raise RuntimeError(f"untraced pass found trace wrappers: {leftover}")
        cpu0 = time.process_time()
        ops, extra = workloads.RUNNERS[workload](lclab, inputs, small, tracer)
        cpu_s = time.process_time() - cpu0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    import numpy
    import scipy

    result = {
        "setup_done": setup_done,
        "work_s": sum(op["seconds"] for op in ops),
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops": ops,
        "traced": trace,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers.update(_size_curves(tracer, extra.get("marks", [])))
        result["layers"] = layers
        result["layer_self_s"] = tracing.layer_self_times(tracer)
        result["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="self-check sizes")
    p.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    args = p.parse_args(argv)
    if args.workload is None:
        p.error("--workload is required")
    result = run_pass(args.workload, args.seed, bool(args.trace), args.small, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
