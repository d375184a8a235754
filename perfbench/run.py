"""Layered benchmark of qprolate.

    python3 perfbench/run.py --workload eigen-mp --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  One run sets up its workload, times
whole passes over the workload's fixed input list until ``--seconds`` of
op time have been spent, checks every op's output outside the timed
intervals, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, their times scaled to the host's
reference speed (see speed.py); with ``--trace 1`` the per-layer ones, from
spans recorded around the package's public calls (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# setup_s is the median of this many fresh processes that each set up the workload
SETUP_REPEATS = 5


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_s(args, rundir: Path, probe) -> float:
    """Median time from process start to a built workload, over fresh processes."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        env = {**os.environ, "PERFBENCH_WORKDIR": str(rundir / f"setup{k}")}
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            _fail(f"set-up process failed:\n{done.stderr}")
        # perf_counter is CLOCK_MONOTONIC, shared by all processes
        times.append(probe.scaled(t0, float(done.stdout.split()[-1])))
    return statistics.median(times)


def _timed_passes(args, workloads, tracing, rundir: Path):
    """Build the workload, then time whole passes over its inputs and check each output.

    Returns the workload and a dict: ``times``, the (start, end) perf_counter
    interval of every op in order; ``failed`` and ``wrong`` op counts;
    ``cache``, the lattice-cache (hits, misses) of set-up and of the timed
    ops, checks excluded, or None when the program does not expose them; and
    ``spans``, the in-process spans of a traced run.
    """
    wl = workloads.WORKLOADS[args.workload](args.seed, rundir / "main", bool(args.trace))
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    cache = tracing.cache_stats()
    times: list[tuple[float, float]] = []
    passes: list[float] = []
    failed = wrong = 0
    while sum(passes) < args.seconds or len(passes) < wl.min_passes:
        passes.append(0.0)
        for i in range(len(wl.inputs)):
            tracer.op = len(times)
            tracer.active = bool(args.trace)
            c0 = tracing.cache_stats() if args.trace else None
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # counted as a failed op, run goes on
                out, err = None, exc
            else:
                err = None
            t1 = time.perf_counter()
            tracer.active = False
            if c0 is not None and cache is not None:
                c1 = tracing.cache_stats()
                cache = (cache[0] + c1[0] - c0[0], cache[1] + c1[1] - c0[1])
            times.append((t0, t1))
            passes[-1] += t1 - t0
            if err is not None:
                failed += 1
                print(f"op {i} raised {err!r}", file=sys.stderr)
                continue
            fails = wl.check(i, out)
            if fails:
                failed += 1
                wrong += 1
                print(f"op {i} wrong: {', '.join(fails)}", file=sys.stderr)
    return wl, {"times": times, "failed": failed, "wrong": wrong, "cache": cache,
                "spans": tracer.dump()}


def main(argv=None) -> None:
    args = _parse(argv)
    if not (ROOT / "src" / "qprolate" / "__init__.py").is_file():
        _fail(f"no qprolate sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "_oracles.py").is_file():
        _fail("the output checks need tests/_oracles.py")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import speed

    # before numpy is imported, so that OpenBLAS sizes its pool to one CPU
    speed.pin_one_cpu()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, Path(os.environ["PERFBENCH_WORKDIR"]))
        print(repr(time.perf_counter()))
        return

    from perfbench import tracing
    from qprolate import TailWarning

    # the checks transform spectra whose tails the window truncates on purpose
    warnings.simplefilter("ignore", TailWarning)
    rundir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    # untraced runs scale their times to the reference speed; traced runs
    # report plain span times
    probe = None if args.trace else speed.SpeedProbe()
    try:
        with probe or contextlib.nullcontext():
            setup_s = None if args.trace else _setup_s(args, rundir, probe)
            wl, ops = _timed_passes(args, workloads, tracing, rundir)
        failed, wrong = ops["failed"], ops["wrong"]
        if args.trace:
            if isinstance(wl, workloads.CliCold):
                summaries = [json.loads(p.read_text()) for p in wl.traces]
                agg = tracing.merge(d["layers"] for d in summaries)
                caches = [d["cache"] for d in summaries]
                ops["cache"] = (None if None in caches
                                else [sum(c[j] for c in caches) for j in (0, 1)])
                import_s = statistics.fmean(d["import_s"] for d in summaries)
                spans = OUT / f"trace-{args.workload}"
                shutil.rmtree(spans, ignore_errors=True)
                spans.mkdir()
                for p in wl.traces:
                    shutil.move(f"{p}.spans.json", spans / f"{p.stem}.json")
            else:
                agg = tracing.aggregate(ops["spans"])
                import_s = 0.0
                tracing.write_json(OUT / f"trace-{args.workload}.json", ops["spans"])
            metrics = tracing.layer_metrics(agg, len(ops["times"]), ops["cache"], import_s)
        else:
            rss_kb = wl.peak_rss_kb()
            n = len(wl.inputs)
            # every op's time at the reference speed (see speed.py)
            times = [probe.scaled(t0, t1) for t0, t1 in ops["times"]]
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                # one pass in the host's fast state: each input's median scaled
                # time, summed over the input list (README, "End-to-end metrics")
                "best_pass_s": {"value": sum(statistics.median(times[i::n]) for i in range(n)),
                                "unit": "s"},
                "op_p50_s": {"value": statistics.median(times), "unit": "s"},
                "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({"correct": wrong == 0, "attempted": len(ops["times"]), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
