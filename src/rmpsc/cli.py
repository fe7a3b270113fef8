"""Command-line front end: code analysis, symmetry atlas search, FER
simulation, length doubling, and permutation sampling."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .autgroup import (
    absorption_structure_empirical,
    blta_size,
    compute_blta_structure,
    equivalent_class_count,
    sample_distinct_class_automorphisms,
    save_permutations,
)
from .channel import SimConfig, run_fer, tub_ml_bound, write_fer_csv
from .codes import (
    CodeSpec,
    count_min_weight_codewords,
    dim_rm,
    load_reliability,
    min_weight_count_via_dual,
    search_max_symmetry,
)

PROBE_TRIALS = 500
PROBE_SNR_DB = 2.0


def _echo_config(ns: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(ns).items()) if k != "func"}
    print(f"# config {json.dumps(resolved, default=str)}", file=sys.stderr)


def _build_code(ns) -> CodeSpec:
    if ns.spec is not None:
        return CodeSpec.load(ns.spec)
    if ns.imin is None or ns.n is None:
        raise ValueError("give either --spec FILE or both --imin and --n")
    return CodeSpec.from_i_min(ns.imin, ns.n)


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="") if path else sys.stdout


def _parse_imin(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_grid(text: str) -> tuple[float, ...]:
    if ":" in text:
        a, b, step = (float(v) for v in text.split(":"))
        if step <= 0:
            raise ValueError("grid step must be positive")
        out = []
        v = a
        while v <= b + 1e-9:
            out.append(round(v, 10))
            v += step
        return tuple(out)
    return tuple(float(v) for v in text.split(","))


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
        absorbed = absorption_structure_empirical(
            code, trials=PROBE_TRIALS, snr_db=PROBE_SNR_DB, seed=ns.seed
        )
        report["absorption_structure"] = list(absorbed.blocks)
        report["equivalent_classes"] = equivalent_class_count(full, absorbed)
    return report


def cmd_analyze(ns) -> int:
    code = _build_code(ns)
    report = _analyze_report(code, ns)
    out = _open_out(ns.out)
    try:
        if ns.json:
            out.write(json.dumps(report) + "\n")
        else:
            for key, value in report.items():
                out.write(f"{key}: {value}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ------------------------------------------------------------------- search


def cmd_search(ns) -> int:
    mode = "exhaustive" if ns.n <= 6 else "heuristic"
    rel = load_reliability(ns.rel) if ns.rel is not None else None
    if rel is not None and rel.n != ns.n:
        raise ValueError(f"reliability file is for n={rel.n}, expected {ns.n}")
    out = _open_out(ns.out)
    try:
        out.write("N,K,max_t,i_min,blta_structure,absorption_structure\n")
        lo, hi = dim_rm(1, ns.n), dim_rm(ns.n - 2, ns.n)
        for k in range(lo, hi + 1):
            best_t, codes = search_max_symmetry(ns.n, k, mode, seed=ns.seed, rel=rel)
            code = codes[0]
            full = compute_blta_structure(code)
            absorbed = absorption_structure_empirical(
                code, trials=PROBE_TRIALS, snr_db=PROBE_SNR_DB, seed=ns.seed
            )
            imin = ";".join(str(i) for i in code.i_min)
            out.write(
                f"{1 << ns.n},{k},{best_t},{imin},"
                f"{';'.join(map(str, full.blocks))},"
                f"{';'.join(map(str, absorbed.blocks))}\n"
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ----------------------------------------------------------------- simulate


def _auto_a_dmin(code: CodeSpec):
    try:
        if code.N <= 64 and code.N - code.K <= 30:
            return min_weight_count_via_dual(code)
        if code.K <= 24:
            return count_min_weight_codewords(code)
    except (ValueError, ArithmeticError):
        return None
    return None


def cmd_simulate(ns) -> int:
    code = _build_code(ns)
    perms = ()
    if ns.dec == "ae":
        perms = tuple(
            sample_distinct_class_automorphisms(
                code, ns.m, seed=ns.seed, trials=PROBE_TRIALS, snr_db=PROBE_SNR_DB
            )
        )
        if ns.out:
            replay = Path(ns.out).with_suffix(".perms.txt")
            save_permutations(perms, replay)
            print(f"# ae permutations logged to {replay}", file=sys.stderr)
        else:
            print("# no --out given; ae permutations not logged", file=sys.stderr)
    cfg = SimConfig(
        code=code,
        decoder=ns.dec,
        perms=perms,
        ebn0_grid_db=ns.ebn0,
        max_trials=ns.max_trials,
        target_errors=ns.target_errors,
        seed=ns.seed,
    )
    points = run_fer(cfg, workers=ns.workers)
    a_dmin = ns.a_dmin if ns.a_dmin is not None else _auto_a_dmin(code)
    tub = None
    if a_dmin is not None:
        d = code.min_distance
        rate = code.rate
        tub = lambda e: tub_ml_bound(d, a_dmin, rate, e)  # noqa: E731
    out = _open_out(ns.out)
    try:
        write_fer_csv(points, out, tub=tub)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ------------------------------------------------------------------- extend


def cmd_extend(ns) -> int:
    from .codes import extend_code

    if ns.imin is None or ns.n is None:
        raise ValueError("extend needs --imin and --n")
    base = CodeSpec.from_i_min(ns.imin, ns.n)
    base_structure = compute_blta_structure(base)
    extended = extend_code(ns.imin, ns.n)
    predicted = base_structure.blocks[:-1] + (base_structure.blocks[-1] + 1,)
    computed = compute_blta_structure(extended).blocks
    print(f"base: N={base.N} K={base.K} blta={';'.join(map(str, base_structure.blocks))}")
    print(f"extended: N={extended.N} K={extended.K}")
    print(f"predicted_blta: {';'.join(map(str, predicted))}")
    print(f"computed_blta: {';'.join(map(str, computed))}")
    print(f"match: {predicted == computed}")
    if ns.out:
        extended.save(ns.out)
        print(f"# extended code written to {ns.out}", file=sys.stderr)
    return 0


# -------------------------------------------------------------- sample-perms


def cmd_sample_perms(ns) -> int:
    code = _build_code(ns)
    perms = sample_distinct_class_automorphisms(
        code, ns.m, seed=ns.seed, trials=PROBE_TRIALS, snr_db=PROBE_SNR_DB
    )
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
        p.add_argument("--n", type=int, help="length exponent (N = 2^n)")
        p.add_argument("--imin", type=_parse_imin, help="comma list of generator indices")
        p.add_argument("--spec", help="JSON code file with fields n, i_min")

    p = sub.add_parser("analyze", help="report dimensions, symmetry, and groups")
    add_code_args(p)
    p.add_argument("--absorption", action="store_true", help="probe the absorption group")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="per-dimension maximum-symmetry atlas as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rel", help="reliability sequence file (validated)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate", help="Monte Carlo FER curve as CSV")
    add_code_args(p)
    p.add_argument("--dec", choices=("sc", "ae"), default="sc")
    p.add_argument("--m", type=int, default=4, help="AE ensemble size (distinct classes)")
    p.add_argument("--ebn0", type=_parse_grid, default=(1.0, 2.0, 3.0), help="a:b:step in dB")
    p.add_argument("--max-trials", type=int, default=100_000)
    p.add_argument("--target-errors", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--a-dmin", type=int, help="minimum-weight multiplicity for the TUB column")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extend", help="double the length, reusing the generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--imin", type=_parse_imin, required=True)
    p.add_argument("--out", help="write the extended code JSON here")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("sample-perms", help="draw class-distinct automorphisms")
    add_code_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample_perms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    _echo_config(ns)
    try:
        return ns.func(ns)
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
