"""The measured process: runs a workload's rounds as a closed loop.

One client, no threads: each operation starts when the previous one and
its check have finished. Rounds repeat until the run's time is used up, and
a run always completes whole rounds. Checks run between operations,
outside the timed intervals.

``wall_s`` is the time to finish one round: the sum, over the round's
operations, of each operation's fastest wall time in the run. On a shared
two-vCPU host, co-tenant load slows whole stretches of seconds by up to a
half, so a median over the rounds of one run moves by 15-20% from run to
run; the fastest repetition of each operation moves by about half as much.
The median round time is kept in the result file as ``wall_median_s``.

With tracing on, untraced and traced rounds alternate. Per-layer values
come from the traced rounds, the end-to-end ``wall_s`` from the untraced
ones, and their difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time

import probes
import workloads

MAX_FAILURES_KEPT = 20


def run_round(ops, tracer, round_index: int, failures: list) -> list[float]:
    """Run every operation once; returns each one's wall time."""
    times = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = round_index * len(ops) + index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                result = op.run()
        except Exception as exc:  # a raising operation is a failed one
            failures.append(_failure(op, round_index, exc, err))
            continue
        finally:
            times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.paused = True
        try:
            op.check(result, out.getvalue())
        except Exception as exc:  # CheckFailed, or a check that broke
            failures.append(_failure(op, round_index, exc, err))
        finally:
            if tracer is not None:
                tracer.paused = False
        del result
    return times


def _failure(op, round_index: int, exc: Exception, err: io.StringIO) -> dict:
    return {"op": op.label, "round": round_index,
            "error": f"{type(exc).__name__}: {exc}",
            "stderr": err.getvalue()[-500:]}


def best_round(rounds: list[list[float]]) -> float:
    """Sum over operations of each one's fastest time across rounds."""
    return sum(min(times) for times in zip(*rounds))


def environment() -> dict:
    import numpy
    import powergeom
    from powergeom import backend

    threads = getattr(backend, "default_threads", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "powergeom.BACKEND_NAME": getattr(powergeom, "BACKEND_NAME", "absent"),
        "POWERGEOM_BACKEND": os.environ.get("POWERGEOM_BACKEND",
                                            "unset (auto)"),
        "POWERGEOM_THREADS": (threads() if threads is not None
                              else os.environ.get("POWERGEOM_THREADS",
                                                  "unset")),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> dict:
    probes.import_program()
    ops = workloads.OPS[workload](seed, workdir)
    tracer = probes.Tracer() if trace else None
    failures: list = []
    rounds: list[list[float]] = []  # with tracing, odd rounds are traced
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(ops, None, len(rounds), failures))
        if tracer is not None:
            tracer.install()
            try:
                rounds.append(run_round(ops, tracer, len(rounds), failures))
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    plain = rounds[::2] if tracer is not None else rounds
    traced = rounds[1::2] if tracer is not None else []
    result = {
        "workload": workload,
        "seed": seed,
        "ops_per_round": [op.label for op in ops],
        "rounds_untraced": [sum(times) for times in plain],
        "rounds_traced": [sum(times) for times in traced],
        "op_times": rounds,
        "wall_s": best_round(plain),
        "wall_median_s": statistics.median(sum(times) for times in plain),
        "attempted": len(rounds) * len(ops),
        "failed": len(failures),  # at most one per operation
        "failures": failures[:MAX_FAILURES_KEPT],
        "environment": environment(),
    }
    if tracer is not None:
        result["per_layer"] = probes.layer_metrics(tracer, len(traced))
        result["per_layer"]["trace_overhead_s"] = (best_round(traced)
                                                   - result["wall_s"])
        result["absent"] = tracer.absent
        result["uncounted"] = sorted(tracer.uncounted)
        result["unreached"] = [name for name in workloads.LAYERS[workload]
                               if name not in tracer.absent
                               and tracer.calls.get(name, 0) == 0]
        result["spans"] = tracer.spans
    return result


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir, out = argv
    result = run(workload, int(seed), float(seconds), trace == "1", workdir)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0
