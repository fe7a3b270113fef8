"""rmpsc benchmark: Monte Carlo FER campaigns and the analysis pipeline.

    python3 perfbench/run.py --workload fer-sc-64 --seed 1 --seconds 20 --trace 0

Run it from the repository root.  BENCHMARK.json declares the workloads and
the metric names, units and bounds; perfbench/reference.json holds the
expected outputs.  Load model: closed loop, one client, ``run_fer(...,
workers=1)`` with the default batch size.

Every workload run happens in fresh child processes (perfbench/child.py),
started one after another and never two at once, each with ``src`` on
PYTHONPATH and one BLAS/OpenMP thread in its own environment.

``--trace 0`` starts ``SETUP_CHILDREN`` children that only set up, then one
that sets up and runs the timed ops, and prints the end-to-end metrics;
``setup_s`` is the median over all of them.  Their times are calibrated
against a fixed numpy workload timed around each op (child.normalize), as
the host this was built on runs up to 1.7x slower for seconds to minutes at
a time; the raw wall-clock figures are printed too, named ``*_wall``.  ``--trace 1`` starts one traced
child and prints the per-layer metrics.  Each run writes
perfbench/out/<workload>-seed<seed>-trace<t>.json, plus the spans of a
traced run.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_CHILDREN = 4
DEADLINE_S = 170.0  # every child is stopped before the run exceeds this
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in ONE_THREAD})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(mode: str, args, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="child-", dir=OUT))
    try:
        cmd = [sys.executable, str(HERE / "child.py"), mode, args.workload,
               str(args.seed), str(args.seconds), str(workdir)]
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
        if "failed:" in proc.stderr:
            sys.stderr.write(proc.stderr)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode == "trace":
            shutil.move(workdir / "spans.json", OUT / f"{stem(args)}.spans.json")
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


# ----------------------------------------------------------------- machine


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def machine_record(child: dict) -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "scipy": child["scipy"],
        "backend": child["backend"],
        "git_commit": commit,
    }


# ------------------------------------------------------------------ checks


def fer_check(name: str, ops: list, n_pooled: int, frames_per_op: int, refs: dict):
    """Pooled FER of the first ``n_pooled`` ops against the reference: it must
    lie within ``fer_z`` binomial standard deviations of the two estimates."""
    ref = refs["fer"][name]
    frames = n_pooled * frames_per_op
    fer = sum(op["errors"] for op in ops[:n_pooled]) / frames
    p = ref["fer"]
    tol = refs["fer_z"] * math.sqrt(p * (1 - p) * (1 / frames + 1 / ref["frames"]))
    return fer, frames, abs(fer - p) <= tol, f"fer {fer:.6f} vs reference {p:.6f} +- {tol:.6f}"


def end_to_end(setups: list, main: dict) -> tuple[dict, dict]:
    """End-to-end metrics from calibrated times (child.normalize), and extra
    figures: the same in raw wall time, and a p90 where 100 ops ran."""
    norm_s = [op["norm_s"] for op in main["ops"]]
    wall_s = [op["s"] for op in main["ops"]]
    frames = main["frames_per_op"] * len(wall_s)
    metrics = {
        "frames_per_s": frames / sum(norm_s),
        "call_p50_ms": 1e3 * statistics.median(norm_s),
        "setup_s": statistics.median(s["setup_norm_s"] for s in setups),
        "peak_rss_mb": main["rss_mb"],
    }
    extra = {
        "frames_per_s_wall": (frames / sum(wall_s), "frames/s"),
        "call_p50_ms_wall": (1e3 * statistics.median(wall_s), "ms"),
        "setup_s_wall": (statistics.median(s["setup_s"] for s in setups), "s"),
    }
    if len(wall_s) >= 100:
        extra["call_p90_ms"] = (1e3 * statistics.quantiles(norm_s, n=10)[-1], "ms")
        extra["call_p90_ms_wall"] = (1e3 * statistics.quantiles(wall_s, n=10)[-1], "ms")
    return metrics, extra


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    if not (ROOT / "src" / "rmpsc" / "__init__.py").is_file():
        print(f"error: no rmpsc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            main_out = run_child("trace", args, deadline)
            setups, extra = [], {}
            if main_out["unrestored"]:
                raise ChildFailed(f"wrappers not restored: {main_out['unrestored']}")
            values = main_out["layers"]
            declared = bench["per_layer"]
        else:
            setups = [run_child("setup", args, deadline) for _ in range(SETUP_CHILDREN)]
            main_out = run_child("run", args, deadline)
            setups.append(main_out)
            values, extra = end_to_end(setups, main_out)
            declared = bench["end_to_end"]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = main_out["ops"]
    failed = {i for i, op in enumerate(ops) if op["failure"]}
    problems = []
    fer = None
    if args.workload != "analysis":
        n_pooled = main_out["fer_ops"]
        fer, frames, ok, detail = fer_check(
            args.workload, ops, n_pooled, main_out["frames_per_op"], refs)
        if not ok:
            problems.append(detail)
            failed |= set(range(n_pooled))
    if args.trace:
        first, second = main_out["counts"]
        errors = main_out["errors"]
        if first != second or not errors[0] == errors[1] == errors[2]:
            problems.append("two traced passes or the untraced pass disagree on counts")
            failed = set(range(len(ops)))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(main_out), "result": result,
        "fer": fer, "fail_frac": len(failed) / len(ops),
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        "setup_s_wall": [s["setup_s"] for s in setups],
        "setup_cal_s": [s["setup_cal"] for s in setups],
        "op_ms_wall": [1e3 * op["s"] for op in ops],
        "op_cal_s": [op["cal"] for op in ops],
        "failures": sorted({op["failure"] for op in ops if op["failure"]})[:5] + problems,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem(args)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  failed {len(failed)}  fail_frac {record['fail_frac']:g}")
    if fer is not None:
        print(f"fer {fer:.6f} over {frames} frames")
    for name, m in metrics.items():
        print(f"{name:<28}{m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name:<28}{value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
