"""Command-line surface.

Every subcommand builds its records once and derives from them a
structured document, which `main` emits as plain text (the results'
`lines`) for side-by-side reading or json/csv (`header` and `rows`) for
machines.  `_sequence` renders the indexed sequences of `an` and
`exponents`; `_verdicts` renders the pass/fail records of `theta` and
`verify-all`, which share the triple-product checks.  Output is bytewise
deterministic for identical inputs; big integers are always serialized as
decimal strings.

`main` writes the document to sys.stdout, or to `out` if given, and
flushes it before it returns, so a failed write raises inside `main`.  A
write-through stream (sys.stdout under python -u or PYTHONUNBUFFERED) is
buffered while the document is written and restored afterwards.

Exit codes: 0 ok, 1 verification violation, 2 input/environment error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from typing import NamedTuple

from . import __version__
from .elliptic import an_expansion, curve_from_quintuple
from .errors import NewformError, ZeroSequence
from .eta import verify_e2_identity
from .products import block_profile, extract_exponents, infer_block
from .qseries import PowerSeries
from .registry import builtin_table1, extend_block
from .search import (
    DEFAULT_ETA_EXPONENT_BOUND,
    assemble,
    enumerate_candidates,
    eta_quotient_search,
    match_against,
)
from .theta import MonomialArg, verify_eta256_identities, verify_triple_product, verify_weight4

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

CURVE_HELP = "a1,a2,a3,a4,a6; write --curve=a1,... when a1 < 0"

BOUNDED_SEARCH_NOTE = (
    "bounded-search result: absence of a match within these bounds is not a "
    "nonexistence claim"
)


@contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion digit cap, if the build has one, while the body runs."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@contextmanager
def buffered_writes(stream):
    """The stream, with write-through off while the body runs, flushed at its end.

    Under python -u or PYTHONUNBUFFERED, sys.stdout writes through, and each
    write of the json encoder would be a write(2) of its own; buffered, the
    writes go out in chunks of about 8 KB.
    """
    write_through = getattr(stream, "write_through", False)
    if write_through:
        stream.reconfigure(write_through=False)
    try:
        yield stream
        stream.flush()
    finally:
        if write_through:
            stream.reconfigure(write_through=True)


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


# -- renderers -------------------------------------------------------------


def _sequence(symbol: str, values: list[str]) -> dict:
    """header, rows and lines of v_1, v_2, ..., each shown as `symbol_n = v`."""
    return {
        "header": ["n", f"{symbol}_n"],
        "rows": [[n, v] for n, v in enumerate(values, start=1)],
        "lines": [f"{symbol}_{n} = {v}" for n, v in enumerate(values, start=1)],
    }


class Verdicts(NamedTuple):
    """Results keys and line words for records (name, ok, note); a failing
    record with a note other than "" or None gets `failed_note`, and `tally`
    a last line."""

    records: str
    name: str
    note: str
    passed: str
    failed_note: str
    tally: bool = False


THETA_VERDICTS = Verdicts("checks", "check", "first_mismatch", "ok  ", "  first mismatch at {}")
VERIFY_ALL_VERDICTS = Verdicts("items", "item", "detail", "PASS", "  ({})", tally=True)


def _verdicts(command: str, inputs: dict, style: Verdicts, records: list[tuple]) -> dict:
    """The document of records (name, ok, note); any failure is a violation."""
    lines = [
        f"{style.passed if ok else 'FAIL'}  {name}"
        + (style.failed_note.format(note) if not ok and note not in ("", None) else "")
        for name, ok, note in records
    ]
    passed = sum(ok for _, ok, _ in records)
    if style.tally:
        lines.append(f"{passed}/{len(records)} PASS")
    results = {
        style.records: [
            {style.name: name, "ok": ok, style.note: note} for name, ok, note in records
        ],
        "header": [style.name, "ok"],
        "rows": [[name, ok] for name, ok, _ in records],
        "lines": lines,
    }
    return _document(command, inputs, results, "ok" if passed == len(records) else "violation")


def _str_or_none(value) -> str | None:
    return None if value is None else str(value)


TRIPLE_PAIRS = [
    (MonomialArg(1, 1), MonomialArg(1, 1)),
    (MonomialArg(1, 1), MonomialArg(1, 3)),
    (MonomialArg(-1, 1), MonomialArg(-1, 3)),
    (MonomialArg(1, 2), MonomialArg(1, 2)),
    (MonomialArg(1, 1), MonomialArg(1, 5)),
]


def _arg_str(a: MonomialArg) -> str:
    sign = "-" if a.sign < 0 else ""
    return f"{sign}q" if a.exponent == 1 else f"{sign}q^{a.exponent}"


def _triple_checks(order: int):
    """(f(a,b), ok, first mismatch or None) of the triple product per pair."""
    for a, b in TRIPLE_PAIRS:
        ok, at = verify_triple_product(a, b, order)
        yield f"f({_arg_str(a)},{_arg_str(b)})", ok, at


def _extensions(records, upto: int):
    """(record, error message or None, a shown) of each record extended to upto."""
    for rec in records:
        try:
            yield rec, None, extend_block(rec, upto).a_extended
        except NewformError as ex:
            yield rec, str(ex), rec.a_printed


# -- subcommands -----------------------------------------------------------


def _expansion(args) -> tuple[dict, PowerSeries]:
    """The inputs and the newform expansion of the --curve, --order command."""
    curve = curve_from_quintuple(_parse_quintuple(args.curve))
    return {"curve": list(curve.quintuple), "order": args.order}, an_expansion(curve, args.order)


def cmd_an(args) -> dict:
    inputs, series = _expansion(args)
    coeffs = [str(c) for c in series.coeffs[1:]]
    return _document("an", inputs, {"coefficients": coeffs, **_sequence("f", coeffs)}, "ok")


def cmd_exponents(args) -> dict:
    if args.order < 3:
        raise ValueError(f"exponents needs --order >= 3, got {args.order}")
    inputs, series = _expansion(args)
    g = extract_exponents(series)
    g_str = [str(v) for v in g.g]  # each big g_n is converted to decimal once
    results = {"g": g_str, **_sequence("g", g_str)}
    lines = results["lines"]
    diagnostics = []
    try:
        r, t = infer_block(g)
        profile = block_profile(g, r, t)
        results["inferred"] = {"r_check": r, "t_check": t}
        # a_n = g_{tn} / r, so at r = 1 the decimal g_n serve again
        results["a"] = g_str[t - 1 :: t] if r == 1 else [str(v) for v in profile.a]
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
    return _document("exponents", inputs, results, "ok", diagnostics)


def cmd_table1(args) -> dict:
    rows = []
    lines = []
    upto = 12 if args.extend is None else args.extend
    for rec, failure, a_shown in _extensions(builtin_table1(), upto):
        status = "PASS" if failure is None else f"FAIL ({failure})"
        rows.append([rec.conductor, rec.r_check, rec.t_check, status])
        lines.append(
            f"N={rec.conductor:5d}  r={rec.r_check} t={rec.t_check}  {status}"
            + ("  a=" + ",".join(str(v) for v in a_shown) if args.extend else "")
        )
    passed = sum(row[3] == "PASS" for row in rows)
    lines.append(f"{passed}/{len(rows)} PASS")
    return _document(
        "table1",
        {"verify": True, "extend": args.extend},
        {
            "rows": rows,
            "header": ["conductor", "r_check", "t_check", "status"],
            "lines": lines,
            "passed": passed,
            "total": len(rows),
        },
        "ok" if passed == len(rows) else "violation",
    )


def cmd_theta(args) -> dict:
    if args.verify_e2 and args.order < 2:
        # at order 1 no coefficient is compared, which proves nothing
        raise ValueError("E2 check needs order >= 2")
    if args.verify_triple and args.order < 2:
        # likewise the triple products agree at order 1 whatever they are
        raise ValueError("triple-product check needs order >= 2")
    checks = []
    if args.verify_triple:
        for pair, ok, at in _triple_checks(args.order):
            checks.append((f"triple-product {pair}", ok, _str_or_none(at)))
    if args.verify_eta256:
        ok1, ok2, (at1, at2) = verify_eta256_identities(args.order)
        checks.append(("eta256 theta-form identity", ok1, _str_or_none(at1)))
        checks.append(("eta256 eta-quotient identity", ok2, _str_or_none(at2)))
    if args.verify_e2:
        checks.append(("E2 logarithmic-derivative identity", verify_e2_identity(args.order), None))
    if args.verify_weight4:
        report = verify_weight4(args.order)
        # a passing check reports the string "None", not null; the bench
        # digests pin it, so it changes with their next refresh
        checks.append(("weight-4 printed coefficients", report["printed_ok"],
                       str(report["printed_failures"][:1] or None)))
        checks.append(("weight-4 multiplicativity", report["multiplicative_ok"],
                       str(report["multiplicative_failures"][:1] or None)))
    if not checks:
        raise ValueError("choose at least one of --verify-triple/--verify-eta256/--verify-e2/--verify-weight4")
    return _verdicts("theta", {"order": args.order}, THETA_VERDICTS, checks)


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
        if args.order < 3:
            # below q^3 the target has no g_1, so no candidate is compared
            raise ValueError(f"search --target needs --order >= 3, got {args.order}")
        target = an_expansion(curve_from_quintuple(_parse_quintuple(args.target)), args.order)
        target_exponents = extract_exponents(target)
    entries = []
    for cand in candidates:
        entry = {"parts": [list(p) for p in cand.parts]}
        if target is not None:
            exponents = assemble(cand, blocks, args.order)
            verdict = match_against(cand, exponents, target, target_exponents)
            entry["verdict"] = verdict.verdict
            entry["match_order"] = verdict.match_order
            entry["mismatch_at"] = _str_or_none(verdict.mismatch_at)
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


def _verify_all_items():
    """(item, ok, detail) of each check of the offline verification suite."""
    table = builtin_table1()
    for rec, failure, _ in _extensions(table, 12):
        yield f"table1 row {rec.conductor}", failure is None, failure or ""

    for rec in table:
        if len(rec.curves) > 1:
            series = [
                an_expansion(curve_from_quintuple(c), 101).coeffs for c in rec.curves
            ]
            yield f"two-curve agreement N={rec.conductor}", series[0] == series[1], ""

    yield "E2 identity to order 300", verify_e2_identity(300), ""
    for pair, ok, _ in _triple_checks(200):
        yield f"triple product {pair} to order 200", ok, ""

    ok1, ok2, _ = verify_eta256_identities(50)
    yield "eta256 theta-form identity to order 50", ok1, ""
    yield "eta256 eta-quotient identity to order 50", ok2, ""
    w4 = verify_weight4(200)
    yield "weight-4 printed coefficients", w4["printed_ok"], ""
    yield "weight-4 multiplicativity below 200", w4["multiplicative_ok"], ""

    for rec in table:
        forced = enumerate_candidates(
            [rec], 1, max(rec.r_check, 6), max(rec.t_check, 8)
        )
        ok = [c.parts for c in forced] == [((rec.conductor, rec.r_check, rec.t_check),)]
        yield f"s=1 constraint forcing N={rec.conductor}", ok, ""

    q36 = eta_quotient_search(36, 30)
    yield "eta quotient search level 36", [q.terms for q in q36] == [((6, 4),)], ""
    yield "eta quotient search level 37 (bounded, empty)", eta_quotient_search(37, 20) == [], ""


def cmd_verify_all(args) -> dict:
    return _verdicts("verify-all", {}, VERIFY_ALL_VERDICTS, list(_verify_all_items()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newform-products",
        description="Weight-two newform product formulas: expansions, exponents, identities, search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("an", help="newform coefficients f_n from a curve")
    p.add_argument("--curve", required=True, help=CURVE_HELP)
    p.add_argument("--order", type=int, default=20)
    p.set_defaults(func=cmd_an)

    p = sub.add_parser("exponents", help="product exponents g_n and block shape")
    p.add_argument("--curve", required=True, help=CURVE_HELP)
    p.add_argument("--order", type=int, default=14)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("table1", help="verify/extend the embedded block table")
    p.add_argument("--extend", type=int, default=None, metavar="K")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("theta", help="theta/eta identity checks")
    p.add_argument("--verify-triple", action="store_true")
    p.add_argument("--verify-eta256", action="store_true")
    p.add_argument("--verify-e2", action="store_true")
    p.add_argument("--verify-weight4", action="store_true")
    p.add_argument("--order", type=int, default=50)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("search", help="candidate product decompositions")
    p.add_argument("--blocks", required=True, help="comma-separated conductors")
    p.add_argument("--s", type=int, default=2, choices=[1, 2, 3])
    p.add_argument("--max-r", type=int, default=6)
    p.add_argument("--max-t", type=int, default=8)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--target", default=None,
                   help="a1,a2,a3,a4,a6 of the target curve; write --target=a1,... when a1 < 0")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("etaquotient", help="classical eta-quotient search per level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--max-exponent", type=int, default=DEFAULT_ETA_EXPONENT_BOUND)
    p.set_defaults(func=cmd_etaquotient)

    p = sub.add_parser("verify-all", help="one-shot offline verification suite")
    p.set_defaults(func=cmd_verify_all)

    for p in sub.choices.values():
        p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    return parser


@unlimited_int_digits()
def main(argv=None, out=None) -> int:
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
    with buffered_writes(sys.stdout if out is None else out) as stream:
        _emit(doc, args.format, stream)
    return _status_exit(doc)


if __name__ == "__main__":
    sys.exit(main())
