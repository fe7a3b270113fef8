"""One fresh benchmark process: timed set-up, then the workload's ops.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS WORKDIR

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and one BLAS/OpenMP
thread.  MODE is

- ``setup``: set up once and report the set-up time;
- ``run``: set up, then untraced ops until SECONDS have passed and at least
  the ops whose frame errors are pooled into the FER have run;
- ``trace``: set up with the tracer installed, then run a fixed number of
  ops twice each, traced and untraced back to back (the order alternates from
  op to op, and every wrapped name is restored before the untraced one), and
  then the traced ops once more: their counts must agree.

The last stdout line is one JSON object; spans go to WORKDIR/spans.json.
"""

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

T0 = time.perf_counter()  # set-up is timed from before rmpsc is imported

import numpy  # noqa: E402  (imported by rmpsc anyway; versions are recorded)
import scipy  # noqa: E402
import rmpsc._kernels  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
CAL_ARRAY = numpy.linspace(0.0, 8.0, 1 << 15)


def _calibration_once() -> float:
    t = time.perf_counter()
    for i in range(20):
        numpy.random.default_rng(numpy.random.SeedSequence(i)).random(64)
    numpy.log1p(numpy.exp(-CAL_ARRAY))
    return time.perf_counter() - t


def calibration_s() -> float:
    """Time a fixed mix of small-call and vector numpy work that calls no
    rmpsc code; the fastest of three runs, so that caches an op left cold and
    single interrupts do not count.  (A tight pure-Python loop was dropped:
    its speed differs by 15% from one process to the next.)

    A shared host slows this process by up to 1.7x for seconds to minutes
    at a time, and the calibration slows alike; see ``normalize``.
    """
    return min(_calibration_once() for _ in range(3))


def run_op(wl, state, ref, seed: int, i: int, tracer=None) -> dict:
    """Time one op, check its output and calibrate; an op that raises counts
    as failed."""
    cals = []
    paused = 0.0

    def between_steps():
        nonlocal paused
        t_pause = time.perf_counter()
        cals.append(calibration_s())
        paused += time.perf_counter() - t_pause

    t = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(state, op_seed(seed, i), between_steps)
        else:
            with tracer.root("op"):
                out = wl.op(state, op_seed(seed, i), between_steps)
        wall = time.perf_counter() - t - paused
        errors, failure = wl.check(state, out, ref)
    except Exception as exc:  # the op loop must go on and report the failure
        wall = time.perf_counter() - t - paused
        errors, failure = 0, f"{type(exc).__name__}: {exc}"
    if failure:
        print(f"op {i} failed: {failure}", file=sys.stderr)
    cals.append(calibration_s())
    return {"s": wall, "cal": cals, "errors": errors, "failure": failure}


def normalize(ops, cal_ref_s: float) -> None:
    """Set each op's ``norm_s``: its time scaled by ``cal_ref_s`` over the
    median of the calibrations taken after it and after its neighbours (and
    between the steps of an analysis pass).  Times then read as times on the
    reference machine at its quiet speed, across slow phases of the host."""
    for i, op in enumerate(ops):
        around = [c for near in ops[max(0, i - 1): i + 2] for c in near["cal"]]
        op["norm_s"] = op["s"] * cal_ref_s / statistics.median(around)


def fer_ops_count(wl, seconds: float) -> int:
    """Ops pooled into the FER: a fixed count per (workload, seconds), about
    half the run at the baseline, so the FER repeats exactly for a seed."""
    return max(1, math.ceil(0.5 * seconds / wl.op_s))


def traced_ops_count(wl, seconds: float) -> int:
    """Ops per traced pass: three passes share the run's seconds."""
    return max(1, round(seconds / 3 / wl.op_s))


def counts(summary: dict) -> dict:
    return {f"{k}.calls": v for k, v in summary["calls"].items()} | {
        f"{k}.frames": v for k, v in summary["frames"].items() if v
    }


def main(argv) -> int:
    mode, name, seed, seconds, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    wl = WORKLOADS[name]
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    ref = refs["analysis"] if name == "analysis" else None
    out = {
        "backend": rmpsc._kernels.BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "frames_per_op": wl.frames,
    }
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
        with tracer.root("setup"):
            state = wl.setup(workdir)
        tracer.restore()
    else:
        state = wl.setup(workdir)
        out["setup_s"] = time.perf_counter() - T0
        cal = statistics.median(calibration_s() for _ in range(5))
        out["setup_cal"] = cal
        out["setup_norm_s"] = out["setup_s"] * refs["calibration_ref_s"] / cal
    if mode == "run":
        n_fer = fer_ops_count(wl, seconds)
        ops = []
        start = time.perf_counter()
        while len(ops) < n_fer or time.perf_counter() - start < seconds:
            ops.append(run_op(wl, state, ref, seed, len(ops)))
        normalize(ops, refs["calibration_ref_s"])
        out.update(ops=ops, fer_ops=n_fer)
    elif mode == "trace":
        n = traced_ops_count(wl, seconds)
        traced, untraced, unrestored = [], [], []
        for i in range(n):
            for is_traced in ((True, False) if i % 2 == 0 else (False, True)):
                if is_traced:
                    tracer.install()
                    traced.append(run_op(wl, state, ref, seed, i, tracer))
                    tracer.restore()
                    unrestored += tracer.unrestored()
                elif not unrestored:
                    untraced.append(run_op(wl, state, ref, seed, i))
        first_spans = tracer.spans
        tracer.clear()
        tracer.install()
        repeat = [run_op(wl, state, ref, seed, i, tracer) for i in range(n)]
        tracer.restore()
        out["unrestored"] = sorted(set(unrestored + tracer.unrestored()))
        first = spans.summarize(first_spans, "op")
        layers = spans.layer_metrics(
            first, spans.summarize(first_spans, "setup"), name != "analysis"
        )
        layers["scdec.frame_errors"] = sum(op["errors"] for op in traced)
        layers["trace.ops"] = n
        if len(untraced) == n:
            # both ops of a pair ran back to back, so they saw the same host phase
            layers["trace_overhead"] = statistics.median(
                t["s"] / u["s"] for t, u in zip(traced, untraced)
            )
        out.update(
            ops=traced + repeat + untraced,
            fer_ops=n,
            layers=layers,
            counts=[counts(first), counts(spans.summarize(tracer.spans, "op"))],
            errors=[[op["errors"] for op in p] for p in (traced, repeat, untraced)],
        )
        (workdir / "spans.json").write_text(json.dumps(first_spans), encoding="utf-8")
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
