#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of powergeom.

Run from the repository root:

    python3 perfbench/run.py --workload grid-io --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run starts fresh interpreters with ``PYTHONPATH=src`` and without
``POWERGEOM_BACKEND``/``POWERGEOM_THREADS``, the way the tier-1 tests run
the package. Set-up-only children, before and after the measured one, time
the import of ``powergeom.cli``; the measured child runs the workload
(harness.py) and is reaped with ``wait4`` for its peak memory. The summary
lines name every metric with its unit and sample count; the last line is
one JSON object.
With ``--trace 1`` its metrics are the per-layer ones instead. A result
file with the environment, the failures and the spans is written under
``.perfbench-out/``. See README.md in this directory for the metrics.
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

from probes import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("grid-io", "transitions", "verify")
SETUP_CHILDREN = 6         # timed set-up-only children, half on each side
                           # of the worker
READY_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 160.0
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


class HarnessError(Exception):
    """The benchmark could not measure (not a wrong program output)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("POWERGEOM_BACKEND", None)
    env.pop("POWERGEOM_THREADS", None)
    env["PYTHONPATH"] = "src"
    return env


def reap(proc: subprocess.Popen, deadline: float):
    """Wait for the child with wait4; returns (exit code, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise HarnessError("worker ran past its time limit and was killed")
        time.sleep(0.02)


def run_child(args: list[str], log, timeout: float):
    """Run one worker to its end; returns (set-up seconds, exit code,
    rusage). The worker is killed and reaped if anything interrupts."""
    proc, setup = spawn(args, log)
    try:
        code, usage = reap(proc, time.monotonic() + timeout)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            reap(proc, time.monotonic() + 10.0)
        raise
    return setup, code, usage


def spawn(args: list[str], log) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it had imported
    ``powergeom.cli``."""
    read_fd, write_fd = os.pipe()
    proc = None
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, str(write_fd), *args], cwd=ROOT,
            env=child_env(), pass_fds=(write_fd,), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT)
        os.close(write_fd)
        write_fd = -1
        ready = select.select([read_fd], [], [], READY_TIMEOUT_S)[0]
        signalled = bool(ready) and os.read(read_fd, 1) == b"R"
        setup = time.perf_counter() - start
        if not signalled:
            raise HarnessError("the worker did not import powergeom.cli")
    except BaseException:
        if proc is not None:
            proc.kill()
            reap(proc, time.monotonic() + 10.0)
        raise
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)
    return proc, setup


def setup_times(count: int, log) -> list[float]:
    """Seconds from a fresh interpreter to ``powergeom.cli`` imported."""
    times = []
    for _ in range(count):
        setup, code, _ = run_child(["--setup-only"], log, READY_TIMEOUT_S)
        if code != 0:
            raise HarnessError(f"set-up child exited {code}")
        times.append(setup)
    return times


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(OUT_DIR, f"{workload}-{seed}-{int(trace)}-"
                                    f"{os.getpid()}")
    os.makedirs(workdir)
    log_path = os.path.join(workdir, "worker.log")
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            setup_times(1, log)  # a warm-up: it may compile bytecode
            setups = setup_times(SETUP_CHILDREN // 2, log)
            result_path = os.path.join(workdir, "result.json")
            setup, code, usage = run_child(
                [workload, str(seed), repr(seconds), str(int(trace)),
                 workdir, result_path], log, RUN_TIMEOUT_S)
            setups.append(setup)
            setups += setup_times(SETUP_CHILDREN - SETUP_CHILDREN // 2, log)
        if code != 0:
            with open(log_path, encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-4000:])
            raise HarnessError(f"worker exited {code}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_samples"] = setups
    result["setup_s"] = min(setups)
    result["setup_median_s"] = statistics.median(setups)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "wall_s": {"value": result["wall_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    units = {name: unit for name, unit, _ in PER_LAYER}
    units["trace_overhead_s"] = "s"
    return {name: {"value": value, "unit": units[name]}
            for name, value in result["per_layer"].items()}


def summarize(result: dict, trace: bool) -> list[str]:
    w = result["workload"]
    ops = len(result["ops_per_round"])
    plain = len(result["rounds_untraced"])
    lines = [
        f"{w}: seed {result['seed']}, {ops} operations per round, "
        f"{plain} untraced + {len(result['rounds_traced'])} traced rounds",
        f"  setup_s      {result['setup_s']:.4f} s   "
        f"fastest of {len(result['setup_samples'])} set-ups "
        f"(median {result['setup_median_s']:.4f} s)",
        f"  wall_s       {result['wall_s']:.4f} s   "
        f"one round, each operation's fastest of {plain} "
        f"(median round {result['wall_median_s']:.4f} s)",
        f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB   "
        "1 process (wait4 ru_maxrss)",
        f"  failed_ops   {result['failed'] / result['attempted']:.4f}   "
        f"{result['failed']} of {result['attempted']} operations",
    ]
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure['op']} (round {failure['round']}): "
                     f"{failure['error']}")
    if trace:
        traced = len(result["rounds_traced"])
        lines.append(f"  per layer, per traced round ({traced} rounds):")
        for name, metric in per_layer(result).items():
            lines.append(f"    {name:<50} {metric['value']:.6g} "
                         f"{metric['unit']}")
        for name in result["absent"]:
            lines.append(f"  absent: {name}")
        for name in result["uncounted"]:
            lines.append(f"  uncounted: {name} (its counters no longer fit)")
        for name in result["unreached"]:
            lines.append(f"  NOT REACHED: {name} recorded no calls")
    return lines


def write_result_file(result: dict, trace: bool) -> str:
    name = (f"result-{result['workload']}-seed{result['seed']}-"
            f"trace{int(trace)}.json")
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # a terminated benchmark still stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "powergeom", "cli.py")):
        print(f"perfbench: no powergeom sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, trace)
            path = write_result_file(result, trace)
            print("\n".join(summarize(result, trace)))
            print(f"  result file: {os.path.relpath(path, ROOT)}")
            results.append(result)
    except (HarnessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer if trace else end_to_end
    if len(results) == 1:
        shown = metrics(results[0])
    else:
        shown = {f"{r['workload']}.{name}": metric
                 for r in results for name, metric in metrics(r).items()}
    correct = all(r["failed"] == 0 and not r.get("unreached")
                  for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
