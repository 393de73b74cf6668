"""Bundled LMFDB fixture records and a regression cross-check.

The fixtures hold, for each embedded conductor, a curve's a-invariants and
its coefficient prefix f_1, f_2, ...  They were generated by this package's
own point counting, so `crosscheck` against them is a regression check on
the local computation, not an independent oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .elliptic import an_expansion
from .errors import InsufficientData, NetworkUnavailable, ParseFailure


@dataclass(frozen=True)
class RemoteRecord:
    label: str
    quintuple: tuple[int, int, int, int, int]
    coefficients: tuple[int, ...]  # f_1, f_2, ...
    fetched_at: str
    source_url: str


def _record_from_doc(doc: dict, where: str) -> RemoteRecord:
    try:
        return RemoteRecord(
            label=doc["label"],
            quintuple=tuple(int(v) for v in doc["quintuple"]),
            coefficients=tuple(int(v) for v in doc["coefficients"]),
            fetched_at=doc["fetched_at"],
            source_url=doc["source_url"],
        )
    except (KeyError, TypeError, ValueError) as ex:
        raise ParseFailure(f"{where}: malformed record ({ex})") from ex


def _load_fixtures() -> dict:
    text = resources.files("newform_products").joinpath(
        "data/lmfdb_fixtures.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


def fetch(label: str, upto: int = 30) -> RemoteRecord:
    """The bundled fixture record for a curve label, to at least upto terms."""
    fixtures = _load_fixtures()
    if label in fixtures:
        rec = _record_from_doc(fixtures[label], f"fixture {label}")
        if len(rec.coefficients) >= upto:
            return rec
    raise NetworkUnavailable(
        f"label {label!r} has no bundled fixture with {upto} coefficients"
    )


def crosscheck(rec: RemoteRecord, curve, upto: int) -> dict:
    """Per-index equality of recorded coefficients vs local point counting.

    Any mismatch is fatal-level: it means a bug, a wrong label, or a wrong
    curve model, never a tolerable discrepancy.
    """
    if len(rec.coefficients) < upto:
        raise InsufficientData(
            f"record {rec.label} has {len(rec.coefficients)} coefficients, needs {upto}"
        )
    local = an_expansion(curve, upto + 1)
    mismatches = [
        (n, rec.coefficients[n - 1], local.coeffs[n])
        for n in range(1, upto + 1)
        if rec.coefficients[n - 1] != local.coeffs[n]
    ]
    return {
        "label": rec.label,
        "checked": upto,
        "ok": not mismatches,
        "mismatches": mismatches,
    }
