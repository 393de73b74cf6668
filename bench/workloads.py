"""Workload definitions, reference checks and paper anchors for bench/run.py.

A workload is a list of *rounds*; a round is a list of *units*; a unit is
the list of CLI commands whose combined cost is one sample of the
end-to-end metrics.  Everything here is derived from the workload seed, so
the same seed gives the same commands.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from typing import NamedTuple

# The t_check = 1 curves of the paper's building-block table: conductor,
# minimal model, r_check, and the printed block row a_1..a_12.  The rows are
# the paper's, copied here so that the exponent anchor does not depend on the
# program's own registry.
POOL = [
    (37, "0,0,1,-1,0", 2, (1, 2, 3, 8, 16, 41, 97, 242, 598, 1532, 3898, 10067)),
    (43, "0,1,1,0,0", 1, (2, 3, 4, 12, 22, 52, 114, 268, 608, 1448, 3418, 8210)),
    (53, "1,-1,1,0,0", 1, (1, 3, 4, 7, 13, 31, 57, 123, 259, 559, 1195, 2624)),
    (61, "1,0,0,-2,1", 1, (1, 2, 3, 7, 10, 20, 38, 77, 149, 314, 626, 1295)),
    (79, "1,1,1,-2,0", 1, (1, 1, 2, 5, 6, 11, 18, 36, 61, 118, 213, 400)),
    (83, "1,1,1,1,0", 1, (1, 1, 2, 4, 5, 11, 16, 31, 53, 97, 174, 330)),
    (89, "1,1,1,-1,0", 1, (1, 1, 2, 3, 4, 10, 13, 25, 43, 79, 135, 246)),
    (101, "0,1,1,-1,-1", 1, (0, 2, 2, 2, 4, 7, 10, 18, 30, 52, 84, 152)),
    (389, "0,1,1,-2,0", 1, (2, 3, 4, 11, 20, 51, 110, 259, 582, 1395, 3262, 7822)),
]
BY_CONDUCTOR = {row[0]: row for row in POOL}

SEARCH_BLOCKS = (37, 43)

# "full" is what the benchmark measures; "smoke" runs the same commands at
# sizes that finish in well under a second, for bench/selftest.py.
SIZES = {
    "full": {
        "exponents_order": 2000,
        "search": ("--s", "3", "--max-r", "4", "--max-t", "6", "--order", "80"),
        "table1_extend": 200,
        "theta_order": 800,
    },
    "smoke": {
        "exponents_order": 40,
        "search": ("--s", "3", "--max-r", "2", "--max-t", "2", "--order", "20"),
        "table1_extend": 12,
        "theta_order": 40,
    },
}

WORKLOADS = ("exponents", "search", "verify")


class Unit(NamedTuple):
    """CLI commands (argument tuples) whose summed cost is one sample."""

    label: str
    commands: tuple[tuple[str, ...], ...]


def exponents_argv(conductor: int, size: str) -> tuple[str, ...]:
    curve = BY_CONDUCTOR[conductor][1]
    order = SIZES[size]["exponents_order"]
    return ("exponents", "--curve", curve, "--order", str(order), "--format", "json")


def search_argv(conductor: int, size: str) -> tuple[str, ...]:
    blocks = ",".join(str(n) for n in SEARCH_BLOCKS)
    return ("search", "--blocks", blocks, *SIZES[size]["search"],
            "--target", BY_CONDUCTOR[conductor][1], "--format", "json")


def verify_argvs(size: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return (
        ("table1", "--extend", str(SIZES[size]["table1_extend"]), "--format", "json"),
        ("theta", "--verify-triple", "--verify-eta256", "--verify-weight4",
         "--verify-e2", "--order", str(SIZES[size]["theta_order"]), "--format", "json"),
    )


def rounds_for(workload: str, seed: int, size: str) -> list[Unit]:
    """One round of the workload.  Runs repeat the round until time is up.

    exponents: every pool curve once, in an order shuffled by the seed, so
    that each run measures the same set of curves whatever the seed.
    search: one target curve picked by the seed; the cost is dominated by
    enumeration and assembly, which do not depend on the target.
    verify: a fixed set of identities; the seed is ignored.
    """
    rng = random.Random(seed)
    if workload == "exponents":
        order = [row[0] for row in POOL]
        rng.shuffle(order)
        return [Unit(f"exponents N={n}", (exponents_argv(n, size),)) for n in order]
    if workload == "search":
        n = rng.choice(POOL)[0]
        return [Unit(f"search target N={n}", (search_argv(n, size),))]
    if workload == "verify":
        return [Unit("verify", verify_argvs(size))]
    raise ValueError(f"unknown workload {workload!r}")


def all_commands(size: str) -> list[tuple[str, ...]]:
    """Every command any seed can produce at this size (for --record)."""
    out = [exponents_argv(n, size) for n, *_ in POOL]
    out += [search_argv(n, size) for n, *_ in POOL]
    out += list(verify_argvs(size))
    return out


# -- paper anchors ----------------------------------------------------------
# Each anchor takes the parsed JSON document and returns an error or None.


def _option(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _conductor_of(curve: str) -> int:
    return next(n for n, c, *_ in POOL if c == curve)


def anchor_error(argv, doc: dict) -> str | None:
    """The paper's statement about this command's output, if it is violated."""
    sub = argv[0]
    if sub == "exponents":
        return exponents_anchor(_conductor_of(_option(argv, "--curve")), doc)
    if sub == "search":
        return search_anchor(_conductor_of(_option(argv, "--target")), doc)
    if sub == "table1":
        return table1_anchor(doc)
    if sub == "theta":
        return theta_anchor(doc)
    raise ValueError(f"no anchor for {sub!r}")


def exponents_anchor(conductor: int, doc: dict) -> str | None:
    """g_n = r * a_n for n <= 12 and the inferred shape is (r, 1)."""
    _, _, r, row = BY_CONDUCTOR[conductor]
    res = doc["results"]
    g = [int(v) for v in res["g"][:12]]
    if g != [r * a for a in row]:
        return f"g_1..g_12 = {g}, paper gives {r} x {list(row)}"
    if res.get("inferred") != {"r_check": r, "t_check": 1}:
        return f"inferred shape {res.get('inferred')}, paper gives r={r}, t=1"
    return None


def net_parts(parts) -> dict:
    """Multiply out equal (block, scale) factors: {(conductor, t): total r}."""
    net: dict = {}
    for conductor, r, t in parts:
        net[(conductor, t)] = net.get((conductor, t), 0) + r
    return {k: v for k, v in net.items() if v}


def search_anchor(conductor: int, doc: dict) -> str | None:
    """When the target is one of the searched blocks, every candidate that
    multiplies out to the paper's f_N = block_N^r(q) must match (for N = 37
    that is block37^1(q) * block37^1(q)), and at least one must be listed.
    Other targets are checked against their reference only."""
    if conductor not in SEARCH_BLOCKS:
        return None
    r = BY_CONDUCTOR[conductor][2]
    want = {(conductor, 1): r}
    hits = [c for c in doc["results"]["candidates"] if net_parts(c["parts"]) == want]
    if not hits:
        return f"no candidate multiplies out to block{conductor}^{r}(q)"
    bad = [c["parts"] for c in hits if c.get("verdict") != "match"]
    if bad:
        return f"block{conductor}^{r}(q) decomposition(s) not matched: {bad[:3]}"
    return None


def table1_anchor(doc: dict) -> str | None:
    res = doc["results"]
    if (res.get("passed"), res.get("total")) != (17, 17):
        return f"table1 reports {res.get('passed')}/{res.get('total')} PASS, expected 17/17"
    return None


def theta_anchor(doc: dict) -> str | None:
    checks = doc["results"].get("checks", [])
    failed = [c["check"] for c in checks if not c["ok"]]
    if len(checks) != 10 or failed:
        return f"{len(checks)} identity checks, failing: {failed}"
    return None


# -- reference records ------------------------------------------------------


def command_key(argv) -> str:
    return " ".join(argv)


def load_output(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def reference_record(exit_code: int, doc: dict | None) -> dict:
    if doc is None:
        return {"exit": exit_code, "status": None, "results_sha256": None}
    blob = json.dumps(doc.get("results"), sort_keys=True, separators=(",", ":"))
    return {"exit": exit_code, "status": doc.get("status"),
            "results_sha256": hashlib.sha256(blob.encode()).hexdigest()}


def output_error(argv, exit_code: int, out_path: str, references: dict) -> str | None:
    """Compare one command's output with its reference and its paper anchor.

    Returns an error message, or None when the output is correct.
    """
    doc = load_output(out_path)
    if doc is None:
        return f"exit {exit_code}, no readable JSON output"
    ref = references.get(command_key(argv))
    if ref is None:
        return "no reference recorded for this command"
    got = reference_record(exit_code, doc)
    for field in ("exit", "status", "results_sha256"):
        if got[field] != ref[field]:
            return f"{field} = {got[field]!r}, reference {ref[field]!r}"
    try:
        return anchor_error(argv, doc)
    except (KeyError, TypeError, ValueError, StopIteration) as ex:
        return f"paper anchor could not read the output ({ex!r})"


def main(argv: list[str]) -> int:
    """Checker process: ``workloads.py check REFERENCES JOBS``.

    JOBS is a JSON list of [argv, exit code, output path]; prints a JSON list
    with one error message or null per job.  bench/run.py checks outputs in
    this separate process so that parsing megabytes of JSON never raises its
    own peak RSS, which Linux passes on to every child it spawns afterwards.
    """
    if len(argv) != 3 or argv[0] != "check":
        raise SystemExit("usage: workloads.py check REFERENCES JOBS")
    with open(argv[1], encoding="utf-8") as fh:
        references = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        jobs = json.load(fh)
    json.dump([output_error(args, code, path, references) for args, code, path in jobs], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
