"""Command-line surface.

Every subcommand builds a structured document, which `main` emits as plain
text for side-by-side reading or json/csv for machines.  Output is bytewise
deterministic for identical inputs; big integers are always serialized as
decimal strings.

Exit codes: 0 ok, 1 verification violation, 2 input/environment error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import __version__
from .elliptic import an_expansion, curve_from_quintuple
from .errors import NewformError, ZeroSequence
from .eta import verify_e2_identity
from .products import block_profile, extract_exponents, infer_block
from .qseries import frac_equal_to
from .registry import builtin_table1, extend_block, load_registry
from .search import assemble, enumerate_candidates, eta_quotient_search, match_against
from .theta import (
    MonomialArg,
    theta_product,
    theta_sum,
    verify_eta256_identities,
    verify_weight4,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

BOUNDED_SEARCH_NOTE = (
    "bounded-search result: absence of a match within these bounds is not a "
    "nonexistence claim"
)


def _parse_quintuple(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ValueError(f"expected 5 comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _document(command: str, inputs: dict, results: dict, status: str, diagnostics=()):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
        "diagnostics": list(diagnostics),
    }


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(doc, out, indent=1, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(doc["results"].get("header", []))
        writer.writerows(doc["results"].get("rows", []))
    else:
        for line in doc["results"].get("lines", []):
            out.write(line + "\n")


def _status_exit(doc: dict) -> int:
    return {"ok": EXIT_OK, "violation": EXIT_VIOLATION}.get(doc["status"], EXIT_USAGE)


# -- subcommands -----------------------------------------------------------


def cmd_an(args) -> dict:
    curve = curve_from_quintuple(_parse_quintuple(args.curve))
    series = an_expansion(curve, args.order)
    coeffs = [str(c) for c in series.coeffs[1:]]
    return _document(
        "an",
        {"curve": list(curve.quintuple), "order": args.order},
        {
            "coefficients": coeffs,
            "header": ["n", "f_n"],
            "rows": [[n + 1, c] for n, c in enumerate(coeffs)],
            "lines": [f"f_{n + 1} = {c}" for n, c in enumerate(coeffs)],
        },
        "ok",
    )


def cmd_exponents(args) -> dict:
    if args.order < 3:
        raise ValueError(f"exponents needs --order >= 3, got {args.order}")
    curve = curve_from_quintuple(_parse_quintuple(args.curve))
    series = an_expansion(curve, args.order)
    g = extract_exponents(series)
    g_str = [str(v) for v in g.g]  # each big g_n is converted to decimal once
    results = {
        "g": g_str,
        "header": ["n", "g_n"],
        "rows": [[n, v] for n, v in enumerate(g_str, start=1)],
    }
    lines = [f"g_{n} = {v}" for n, v in enumerate(g_str, start=1)]
    diagnostics = []
    try:
        r, t = infer_block(g)
        profile = block_profile(g, r, t)
        results["inferred"] = {"r_check": r, "t_check": t}
        results["a"] = [str(v) for v in profile.a]
        results["gcd_prefix"] = profile.gcd_prefix
        results["violations"] = list(profile.monotone_report)
        lines.append(f"inferred (r, t) = ({r}, {t})")
        lines.append("a = " + ",".join(results["a"]))
        if profile.monotone_report:
            note = (
                "increase/positivity violated at n = "
                + ",".join(str(i) for i in profile.monotone_report)
            )
            lines.append(note)
            diagnostics.append(note)
    except ZeroSequence:
        diagnostics.append("all exponents zero in the computed range")
    results["lines"] = lines
    return _document(
        "exponents",
        {"curve": list(curve.quintuple), "order": args.order},
        results,
        "ok",
        diagnostics,
    )


def cmd_table1(args) -> dict:
    if args.extend is not None and args.extend < 12:
        raise ValueError("extension target must be >= 12")
    records = load_registry(args.registry) if args.registry else builtin_table1()
    upto = 12 if args.extend is None else args.extend
    rows = []
    lines = []
    failures = 0
    for rec in records:
        try:
            extended = extend_block(rec, upto)
            status = "PASS"
            a_shown = extended.a_extended
        except NewformError as ex:
            status = f"FAIL ({ex})"
            failures += 1
            a_shown = rec.a_printed
        rows.append([rec.conductor, rec.r_check, rec.t_check, status])
        lines.append(
            f"N={rec.conductor:5d}  r={rec.r_check} t={rec.t_check}  {status}"
            + (
                "  a=" + ",".join(str(v) for v in a_shown)
                if args.extend
                else ""
            )
        )
    lines.append(f"{len(records) - failures}/{len(records)} PASS")
    return _document(
        "table1",
        {"verify": True, "extend": args.extend, "registry": args.registry},
        {
            "rows": rows,
            "header": ["conductor", "r_check", "t_check", "status"],
            "lines": lines,
            "passed": len(records) - failures,
            "total": len(records),
        },
        "ok" if failures == 0 else "violation",
    )


TRIPLE_PAIRS = [
    ((1, 1, 1), (1, 1, 1)),
    ((1, 1, 1), (1, 3, 1)),
    ((-1, 1, 1), (-1, 3, 1)),
    ((1, 2, 1), (1, 2, 1)),
    ((1, 1, 1), (1, 5, 1)),
]


def cmd_theta(args) -> dict:
    if args.verify_e2 and args.order < 2:
        # at order 1 only the constant 1/24 is compared, which proves nothing
        raise ValueError("E2 check needs order >= 2")
    if args.verify_triple and args.order < 2:
        # likewise the triple products agree at order 1 whatever they are
        raise ValueError("triple-product check needs order >= 2")
    checks = []
    if args.verify_triple:
        for a, b in TRIPLE_PAIRS:
            s = theta_sum(MonomialArg(*a), MonomialArg(*b), args.order)
            p = theta_product(MonomialArg(*a), MonomialArg(*b), args.order)
            ok, at = frac_equal_to(s, p, args.order)
            checks.append(
                {
                    "check": f"triple-product f({_arg_str(a)},{_arg_str(b)})",
                    "ok": ok,
                    "first_mismatch": str(at) if at is not None else None,
                }
            )
    if args.verify_eta256:
        ok1, ok2, (at1, at2) = verify_eta256_identities(args.order)
        checks.append(
            {
                "check": "eta256 theta-form identity",
                "ok": ok1,
                "first_mismatch": str(at1) if at1 is not None else None,
            }
        )
        checks.append(
            {
                "check": "eta256 eta-quotient identity",
                "ok": ok2,
                "first_mismatch": str(at2) if at2 is not None else None,
            }
        )
    if args.verify_e2:
        checks.append({"check": "E2 logarithmic-derivative identity",
                       "ok": verify_e2_identity(args.order), "first_mismatch": None})
    if args.verify_weight4:
        report = verify_weight4(args.order)
        checks.append(
            {
                "check": "weight-4 printed coefficients",
                "ok": report["printed_ok"],
                "first_mismatch": str(report["printed_failures"][:1] or None),
            }
        )
        checks.append(
            {
                "check": "weight-4 multiplicativity",
                "ok": report["multiplicative_ok"],
                "first_mismatch": str(report["multiplicative_failures"][:1] or None),
            }
        )
    if not checks:
        raise ValueError("choose at least one of --verify-triple/--verify-eta256/--verify-e2/--verify-weight4")
    all_ok = all(c["ok"] for c in checks)
    return _document(
        "theta",
        {"order": args.order},
        {
            "checks": checks,
            "header": ["check", "ok"],
            "rows": [[c["check"], c["ok"]] for c in checks],
            "lines": [
                f"{'ok  ' if c['ok'] else 'FAIL'}  {c['check']}"
                + (f"  first mismatch at {c['first_mismatch']}" if not c["ok"] else "")
                for c in checks
            ],
        },
        "ok" if all_ok else "violation",
    )


def _arg_str(a) -> str:
    sign, num, den = a
    e = Fraction(num, den)
    return f"{'-' if sign < 0 else ''}q^{e}" if e != 1 else f"{'-' if sign < 0 else ''}q"


def cmd_search(args) -> dict:
    if args.max_r < 1:
        raise ValueError(f"search needs --max-r >= 1, got {args.max_r}")
    conductors = [int(v) for v in args.blocks.split(",")]
    by_id = {rec.conductor: rec for rec in builtin_table1()}
    unknown = [n for n in conductors if n not in by_id]
    if unknown:
        raise ValueError(f"no registry block for conductor(s) {unknown}")
    need = max(args.order, 12)
    blocks = [extend_block(by_id[n], need) for n in conductors]
    candidates = enumerate_candidates(blocks, args.s, args.max_r, args.max_t)
    target = None
    if args.target:
        target = an_expansion(curve_from_quintuple(_parse_quintuple(args.target)), args.order)
    entries = []
    for cand in candidates:
        entry = {"parts": [list(p) for p in cand.parts]}
        if target is not None:
            series = assemble(cand, blocks, args.order)
            verdict = match_against(cand, series, target)
            entry["verdict"] = verdict.verdict
            entry["match_order"] = verdict.match_order
            entry["mismatch_at"] = (
                str(verdict.mismatch_at) if verdict.mismatch_at is not None else None
            )
        entries.append(entry)
    lines = [
        "candidate "
        + " * ".join(f"block{p[0]}^{p[1]}(q^{p[2]})" for p in e["parts"])
        + (f"  -> {e.get('verdict', 'unmatched')}" if target is not None else "")
        for e in entries
    ] + [BOUNDED_SEARCH_NOTE]
    return _document(
        "search",
        {
            "blocks": conductors,
            "s": args.s,
            "max_r": args.max_r,
            "max_t": args.max_t,
            "order": args.order,
            "target": args.target,
        },
        {
            "candidates": entries,
            "note": BOUNDED_SEARCH_NOTE,
            "header": ["parts", "verdict"],
            "rows": [[str(e["parts"]), e.get("verdict", "")] for e in entries],
            "lines": lines,
        },
        "ok",
    )


def cmd_etaquotient(args) -> dict:
    if args.order < 3:
        raise ValueError(f"etaquotient needs --order >= 3, got {args.order}")
    if args.max_exponent < 1:
        raise ValueError(f"etaquotient needs --max-exponent >= 1, got {args.max_exponent}")
    quotients = eta_quotient_search(args.level, args.order, args.max_exponent)
    entries = [
        {"terms": [list(t) for t in eq.terms], "display": str(eq)} for eq in quotients
    ]
    lines = [e["display"] for e in entries] or ["no eta quotient within bounds"]
    lines.append(BOUNDED_SEARCH_NOTE)
    return _document(
        "etaquotient",
        {"level": args.level, "order": args.order, "max_exponent": args.max_exponent},
        {
            "quotients": entries,
            "note": BOUNDED_SEARCH_NOTE,
            "header": ["quotient"],
            "rows": [[e["display"]] for e in entries],
            "lines": lines,
        },
        "ok",
    )


def _verify_all_items() -> list[dict]:
    items = []

    def add(name: str, ok: bool, detail: str = ""):
        items.append({"item": name, "ok": bool(ok), "detail": detail})

    for rec in builtin_table1():
        try:
            extend_block(rec, 12)
            add(f"table1 row {rec.conductor}", True)
        except NewformError as ex:
            add(f"table1 row {rec.conductor}", False, str(ex))

    for rec in builtin_table1():
        if len(rec.curves) > 1:
            series = [
                an_expansion(curve_from_quintuple(c), 101).coeffs for c in rec.curves
            ]
            add(f"two-curve agreement N={rec.conductor}", series[0] == series[1])

    add("E2 identity to order 300", verify_e2_identity(300))

    for a, b in TRIPLE_PAIRS:
        s = theta_sum(MonomialArg(*a), MonomialArg(*b), 200)
        p = theta_product(MonomialArg(*a), MonomialArg(*b), 200)
        ok, _ = frac_equal_to(s, p, 200)
        add(f"triple product f({_arg_str(a)},{_arg_str(b)}) to order 200", ok)

    ok1, ok2, _ = verify_eta256_identities(50)
    add("eta256 theta-form identity to order 50", ok1)
    add("eta256 eta-quotient identity to order 50", ok2)
    w4 = verify_weight4(200)
    add("weight-4 printed coefficients", w4["printed_ok"])
    add("weight-4 multiplicativity below 200", w4["multiplicative_ok"])

    for rec in builtin_table1():
        forced = enumerate_candidates(
            [rec], 1, max(rec.r_check, 6), max(rec.t_check, 8)
        )
        add(
            f"s=1 constraint forcing N={rec.conductor}",
            [c.parts for c in forced] == [((rec.conductor, rec.r_check, rec.t_check),)],
        )

    q36 = eta_quotient_search(36, 30)
    add("eta quotient search level 36", [q.terms for q in q36] == [((6, 4),)])
    add("eta quotient search level 37 (bounded, empty)", eta_quotient_search(37, 20) == [])
    return items


def cmd_verify_all(args) -> dict:
    items = _verify_all_items()
    all_ok = all(i["ok"] for i in items)
    return _document(
        "verify-all",
        {},
        {
            "items": items,
            "header": ["item", "ok"],
            "rows": [[i["item"], i["ok"]] for i in items],
            "lines": [
                f"{'PASS' if i['ok'] else 'FAIL'}  {i['item']}"
                + (f"  ({i['detail']})" if i["detail"] else "")
                for i in items
            ]
            + [f"{sum(i['ok'] for i in items)}/{len(items)} PASS"],
        },
        "ok" if all_ok else "violation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newform-products",
        description="Weight-two newform product formulas: expansions, exponents, identities, search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")

    p = sub.add_parser("an", help="newform coefficients f_n from a curve")
    p.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6")
    p.add_argument("--order", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_an)

    p = sub.add_parser("exponents", help="product exponents g_n and block shape")
    p.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6")
    p.add_argument("--order", type=int, default=14)
    common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("table1", help="verify/extend the embedded block table")
    p.add_argument("--extend", type=int, default=None, metavar="K")
    p.add_argument("--registry", default=None, help="registry file instead of builtins")
    common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("theta", help="theta/eta identity checks")
    p.add_argument("--verify-triple", action="store_true")
    p.add_argument("--verify-eta256", action="store_true")
    p.add_argument("--verify-e2", action="store_true")
    p.add_argument("--verify-weight4", action="store_true")
    p.add_argument("--order", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("search", help="candidate product decompositions")
    p.add_argument("--blocks", required=True, help="comma-separated conductors")
    p.add_argument("--s", type=int, default=2, choices=[1, 2, 3])
    p.add_argument("--max-r", type=int, default=6)
    p.add_argument("--max-t", type=int, default=8)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--target", default=None, help="a1,a2,a3,a4,a6 of the target curve")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("etaquotient", help="classical eta-quotient search per level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--max-exponent", type=int, default=24)
    common(p)
    p.set_defaults(func=cmd_etaquotient)

    p = sub.add_parser("verify-all", help="one-shot offline verification suite")
    common(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else 0
    try:
        doc = args.func(args)
    except (NewformError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: not enough memory for this input; try a smaller --order",
              file=sys.stderr)
        return EXIT_USAGE
    _emit(doc, args.format, out)
    return _status_exit(doc)


if __name__ == "__main__":
    sys.exit(main())
