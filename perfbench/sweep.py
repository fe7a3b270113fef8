"""Run the benchmark over several seeds, summarise it, and compare summaries.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/sweep.json
    python3 perfbench/sweep.py --seeds 1,2 --trace 1 --workloads analysis --out FILE
    python3 perfbench/sweep.py --compare OLD.json NEW.json

Runs go one after another, each through perfbench/run.py.  For every
workload and metric the summary keeps the per-seed values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance over the median; under ``extra`` the same for the raw
wall-clock figures (``*_wall``, p90s) and for ``calibration_s``, each run's
median calibration (child.calibration_s), so that the calibrated metrics can
be traced back to what was measured.  ``--compare`` refuses summaries made on
a different number of cores or with a different ``rmpsc._kernels.BACKEND``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def sweep(workloads: list, seeds: list, trace: int, seconds: int) -> dict:
    declared = {m["name"]: m for m in BENCH["per_layer" if trace else "end_to_end"]}
    summary = {"seconds": seconds, "trace": trace, "machine": None, "workloads": {}}
    for name in workloads:
        results, records = [], []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "out" / f"{name}-seed{seed}-trace{trace}.json")
                                .read_text(encoding="utf-8"))
            summary["machine"] = summary["machine"] or record["machine"]
            results.append(result)
            records.append(record)
            print(f"{name} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        metrics = {}
        for metric, spec in declared.items():
            entry = stats([r["metrics"][metric]["value"] for r in results])
            entry.update(unit=spec["unit"], better=spec["better"], bound=spec.get("bound"))
            metrics[metric] = entry
        extra = {"calibration_s": stats(
            [statistics.median(c for op in r["op_cal_s"] for c in op) for r in records]
        ) | {"unit": "s"}}
        for metric, first in records[0]["extra"].items():
            if all(metric in r["extra"] for r in records):
                extra[metric] = stats([r["extra"][metric]["value"] for r in records]) | {
                    "unit": first["unit"]}
        summary["workloads"][name] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "fail_frac": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "metrics": metrics,
            "extra": extra,
        }
    return summary


def compare(old: dict, new: dict) -> int:
    for key in ("backend", "nproc"):
        if old["machine"][key] != new["machine"][key]:
            print(f"refusing to compare: {key} {old['machine'][key]!r} vs "
                  f"{new['machine'][key]!r}", file=sys.stderr)
            return 2
    worse = 0
    for name, w_new in new["workloads"].items():
        w_old = old["workloads"].get(name)
        if w_old is None:
            continue
        for metric, m_new in w_new["metrics"].items():
            m_old = w_old["metrics"].get(metric)
            if m_old is None or not m_old["median"]:
                continue
            change = m_new["median"] / m_old["median"] - 1.0
            loss = change if m_new["better"] == "lower" else -change
            verdict = ""
            if m_new["unit"] == "count" and w_old["seeds"] == w_new["seeds"]:
                verdict = "same" if m_old["values"] == m_new["values"] else "counts differ"
            elif m_new.get("bound") is not None:
                bound = m_new["bound"]
                if max(m_old["spread"], m_new["spread"]) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "worse" if loss > bound else "within bound"
                worse += verdict == "worse"
            print(f"{name:<12} {metric:<26} {m_old['median']:>12.6g} -> "
                  f"{m_new['median']:>12.6g} {m_new['unit']:<9} {change:+8.2%}  {verdict}")
    return 1 if worse else 0


BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        return compare(old, new)
    summary = sweep(args.workloads.split(","), parse_seeds(args.seeds), args.trace, args.seconds)
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    for name, w in summary["workloads"].items():
        for metric, m in [*w["metrics"].items(), *w["extra"].items()]:
            flag = ""
            if m.get("bound") is not None and m["spread"] > m["bound"] / 3:
                flag = "  spread above a third of the bound"
            print(f"{name:<12} {metric:<26} median {m['median']:>12.6g} {m['unit']:<9} "
                  f"spread {m['spread']:7.2%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
