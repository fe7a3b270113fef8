"""Command-line front end: code analysis, symmetry atlas search, FER
simulation, and permutation sampling."""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

# PROBE_TRIALS and PROBE_SNR_DB are unused here but kept importable:
# perfbench/workloads.py reads them from this module
from .autgroup import (
    PROBE_SNR_DB,
    PROBE_TRIALS,
    absorption_structure_empirical,
    blta_size,
    compute_blta_structure,
    equivalent_class_count,
    is_code_automorphism,
    load_permutations,
    sample_distinct_class_automorphisms,
    save_permutations,
)
from .channel import SimConfig, run_fer, tub_ml_bound, write_fer_csv
from .codes import (
    MAX_N,
    CodeSpec,
    dim_rm,
    min_weight_count,
    search_max_symmetry,
)


def _echo_config(ns: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(ns).items()) if k != "func"}
    print(f"# config {json.dumps(resolved, default=str)}", file=sys.stderr)


def _build_code(ns) -> CodeSpec:
    if ns.spec is not None:
        return CodeSpec.load(ns.spec)
    if ns.imin is None or ns.n is None:
        raise ValueError("give either --spec FILE or both --imin and --n")
    return CodeSpec.from_i_min(ns.imin, ns.n)


def _output(path):
    """Context manager for the file at ``path``, or for stdout (left open)."""
    return open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout)


def _parse_imin(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"generator indices must be integers, got {text!r}"
        ) from None


def _parse_non_negative(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{what} must be non-negative, got {value}")
    return value


def _parse_seed(text: str) -> int:
    return _parse_non_negative(text, "seed")


def _parse_n(text: str) -> int:
    n = _parse_non_negative(text, "n")
    if n > MAX_N:
        raise argparse.ArgumentTypeError(f"n must be at most {MAX_N}, got {n}")
    return n


def _parse_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _parse_grid(text: str) -> tuple[float, ...]:
    """Eb/N0 points from ``a:b:step`` or a comma list; argparse shows the
    reason of a refusal."""
    grid = ":" in text
    fields = text.split(":" if grid else ",")
    if grid and len(fields) != 3:
        raise argparse.ArgumentTypeError(f"a grid a:b:step has three fields, got {text!r}")
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise argparse.ArgumentTypeError(f"Eb/N0 values must be numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError("Eb/N0 values must be finite")
    if not grid:
        return tuple(values)
    a, b, step = values
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    out = []
    v = a
    while v <= b + 1e-9:
        # a step that rounds away (1e17 + 1 == 1e17) would never reach b
        if out and round(v, 10) <= out[-1]:
            raise argparse.ArgumentTypeError(
                f"grid step {step:g} is too small to advance from {v:g}"
            )
        out.append(round(v, 10))
        v += step
    return tuple(out)


# ------------------------------------------------------------------ analyze


def _analyze_report(code: CodeSpec, ns) -> dict:
    full = compute_blta_structure(code)
    report = {
        "n": code.n,
        "N": code.N,
        "K": code.K,
        "rate": code.rate,
        "i_min": list(code.i_min),
        "min_distance": code.min_distance,
        "symmetry": code.symmetry,
        "blta_structure": list(full.blocks),
        "blta_size": blta_size(full),
        "rm_polar": code.is_rm_polar,
        "partially_symmetric": code.is_partially_symmetric,
        "rate_one": code.K == code.N,
        "extreme_dimension": code.extreme_dimension,
    }
    if ns.absorption:
        absorbed = absorption_structure_empirical(code, seed=ns.seed)
        report["absorption_structure"] = list(absorbed.blocks)
        report["equivalent_classes"] = equivalent_class_count(full, absorbed)
    return report


def cmd_analyze(ns) -> int:
    code = _build_code(ns)
    report = _analyze_report(code, ns)
    with _output(ns.out) as out:
        if ns.json:
            out.write(json.dumps(report) + "\n")
        else:
            for key, value in report.items():
                out.write(f"{key}: {value}\n")
    return 0


# ------------------------------------------------------------------- search


def cmd_search(ns) -> int:
    with _output(ns.out) as out:
        out.write("N,K,max_t,i_min,blta_structure,absorption_structure\n")
        lo, hi = dim_rm(1, ns.n), dim_rm(ns.n - 2, ns.n)
        for k in range(lo, hi + 1):
            best_t, codes = search_max_symmetry(ns.n, k)
            code = codes[0]
            full = compute_blta_structure(code)
            absorbed = absorption_structure_empirical(code, seed=ns.seed)
            imin = ";".join(str(i) for i in code.i_min)
            out.write(
                f"{1 << ns.n},{k},{best_t},{imin},"
                f"{';'.join(map(str, full.blocks))},"
                f"{';'.join(map(str, absorbed.blocks))}\n"
            )
    return 0


# ----------------------------------------------------------------- simulate


# a named step of cmd_simulate: perfbench/spans.py wraps it to time the TUB set-up
def _auto_a_dmin(code: CodeSpec) -> int:
    return min_weight_count(code)


def _replayed_perms(path, code: CodeSpec, m):
    """The AE permutations of a replay file (``sample-perms --out`` or the
    ``.perms.txt`` log of ``simulate``), each checked to be an automorphism
    of the code; ``m``, when given, must be their number."""
    perms = load_permutations(path, code.N)
    if not perms:
        raise ValueError(f"{path} holds no permutation")
    if m is not None and m != len(perms):
        raise ValueError(f"--m {m} disagrees with the {len(perms)} permutations in {path}")
    for i, p in enumerate(perms):
        if not is_code_automorphism(p, code):
            raise ValueError(f"permutation {i} in {path} is not an automorphism of the code")
    return perms


def cmd_simulate(ns) -> int:
    code = _build_code(ns)
    # validated as an SC campaign before the AE permutations are sampled
    cfg = SimConfig(
        code=code,
        ebn0_grid_db=ns.ebn0,
        max_trials=ns.max_trials,
        target_errors=ns.target_errors,
        seed=ns.seed,
    )
    if ns.perms is not None and ns.dec != "ae":
        raise ValueError("--perms replays AE permutations; give --dec ae")
    if ns.dec == "ae":
        if ns.perms is not None:
            perms = tuple(_replayed_perms(ns.perms, code, ns.m))
        else:
            perms = tuple(sample_distinct_class_automorphisms(code, ns.m, seed=ns.seed))
        if ns.out:
            replay = Path(ns.out).with_suffix(".perms.txt")
            save_permutations(perms, replay)
            print(f"# ae permutations logged to {replay}", file=sys.stderr)
        else:
            print("# no --out given; ae permutations not logged", file=sys.stderr)
        cfg = replace(cfg, decoder="ae", perms=perms)
    points = run_fer(cfg, workers=ns.workers)
    d, a_dmin, rate = code.min_distance, _auto_a_dmin(code), code.rate
    with _output(ns.out) as out:
        write_fer_csv(points, out, tub=lambda e: tub_ml_bound(d, a_dmin, rate, e))
    return 0


# -------------------------------------------------------------- sample-perms


def cmd_sample_perms(ns) -> int:
    code = _build_code(ns)
    perms = sample_distinct_class_automorphisms(code, ns.m, seed=ns.seed)
    if ns.out:
        save_permutations(perms, ns.out)
    else:
        for p in perms:
            for v in p.perm.tolist():
                print(v)
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmpsc",
        description="Reed-Muller partially symmetric polar codes: construction, "
        "automorphism groups, SC/AE decoding, FER simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_args(p):
        p.add_argument("--n", type=_parse_n, help="length exponent (N = 2^n)")
        p.add_argument("--imin", type=_parse_imin, help="comma list of generator indices")
        p.add_argument("--spec", help="JSON code file with fields n, i_min")

    p = sub.add_parser("analyze", help="report dimensions, symmetry, and groups")
    add_code_args(p)
    p.add_argument("--absorption", action="store_true", help="probe the absorption group")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--seed", type=_parse_seed, default=0, help="seeds the absorption probe only"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="per-dimension maximum-symmetry atlas as CSV")
    p.add_argument("--n", type=_parse_n, required=True)
    p.add_argument(
        "--seed", type=_parse_seed, default=0, help="seeds the absorption probe only"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate", help="Monte Carlo FER curve as CSV")
    add_code_args(p)
    p.add_argument("--dec", choices=("sc", "ae"), default="sc")
    p.add_argument(
        "--m",
        type=_parse_count,
        help="AE ensemble size (distinct classes; default 4, or the --perms count)",
    )
    p.add_argument("--perms", help="replay the AE permutations of this file instead of sampling")
    p.add_argument("--ebn0", type=_parse_grid, default=(1.0, 2.0, 3.0), help="a:b:step in dB")
    p.add_argument("--max-trials", type=_parse_count, default=100_000)
    p.add_argument("--target-errors", type=_parse_count, default=100)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--workers", type=_parse_count, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sample-perms", help="draw class-distinct automorphisms")
    add_code_args(p)
    p.add_argument("--m", type=_parse_count, required=True)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample_perms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "simulate" and ns.m is None and ns.perms is None:
        ns.m = 4  # the default AE ensemble size, echoed below
    _echo_config(ns)
    try:
        return ns.func(ns)
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
