"""Per-layer spans around the library's public functions, taken from outside.

Run as a script, this is the child process of a traced run:

    python bench/tracer.py SPANS.json STDOUT_FILE RUN_ID -- <cli arguments>

It imports ``newform_products``, wraps every function in ``TARGETS`` in
every module namespace that bound it (``from .products import
extract_exponents`` makes a separate binding in cli, registry, search and
theta), runs ``cli.main(argv, out=...)`` in-process and, at exit, writes
the spans it kept in memory together with a few counts.

Each span is ``[name, start_ns, end_ns, parent_index, run_id]``; the parent
index points into the same list (-1 for a root).  ``summarize`` turns the
spans into per-name self time and call counts in the parent process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute, span name).  "Class.method" attributes are wrapped on
# the class, which catches operator calls such as ``a * b`` too.
TARGETS = [
    ("elliptic", "count_points", "elliptic.count_points"),
    ("elliptic", "an_expansion", "elliptic.an_expansion"),
    ("products", "log_derivative_quotient", "products.log_derivative_quotient"),
    ("products", "extract_exponents", "products.extract_exponents"),
    ("products", "unit_product", "products.unit_product"),
    ("qseries", "PowerSeries.__mul__", "qseries.mul"),
    ("qseries", "PowerSeries.inverse", "qseries.inverse"),
    ("qseries", "PowerSeries.pow_int", "qseries.pow_int"),
    ("qseries", "frac_mul", "qseries.frac_mul"),
    ("eta", "eta_signed", "eta.eta_signed"),
    ("eta", "verify_e2_identity", "eta.verify_e2_identity"),
    ("theta", "theta_product", "theta.theta_product"),
    ("theta", "verify_eta256_identities", "theta.verify_eta256_identities"),
    ("theta", "verify_weight4", "theta.verify_weight4"),
    ("registry", "extend_block", "registry.extend_block"),
    ("search", "enumerate_candidates", "search.enumerate_candidates"),
    ("search", "assemble", "search.assemble"),
    ("search", "match_against", "search.match_against"),
    ("cli", "main", "cli"),
]

SPAN_NAMES = [name for _, _, name in TARGETS]


class Recorder:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = {
            "products.g_max_bits": 0,
            "search.combos": 0,
            "search.candidates": 0,
            "search.matches": 0,
        }

    def wrap(self, name, fn, observe=None):
        spans, stack, run_id = self.spans, self.stack, self.run_id
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, run_id]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- counts taken at the same boundaries as the spans -----------------

    def _observe_exponents(self, args, kwargs, result):
        bits = max((abs(v).bit_length() for v in result.g), default=0)
        self.counts["products.g_max_bits"] = max(self.counts["products.g_max_bits"], bits)

    def _observe_enumerate(self, args, kwargs, result):
        self.counts["search.candidates"] += len(result)

    def count_calls(self, key, fn):
        """``fn`` with each call counted under ``key``, and no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe_match(self, args, kwargs, result):
        self.counts["search.matches"] += result.verdict == "match"

    def install(self, package) -> None:
        observers = {
            "products.extract_exponents": self._observe_exponents,
            "search.enumerate_candidates": self._observe_enumerate,
            "search.match_against": self._observe_match,
        }
        prefix = package.__name__ + "."
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package.__name__ or k.startswith(prefix))]
        # Each call of search._constraints_hold tests one atom multiset, so
        # its call count is the number of multisets the enumeration tried.
        search = sys.modules[prefix + "search"]
        search._constraints_hold = self.count_calls("search.combos", search._constraints_hold)
        for module_name, attr, name in TARGETS:
            home = sys.modules[prefix + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), observers.get(name)))
                continue
            original = getattr(home, attr)
            traced = self.wrap(name, original, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path: str, exit_code: int, output_bytes: int) -> None:
        counts = dict(self.counts, **{"cli.output_bytes": output_bytes})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"exit": exit_code, "counts": counts, "spans": self.spans}, fh)


def summarize(spans) -> dict:
    """Per span name: {"self_s": total self seconds, "calls": count}.

    Self time is a span's duration minus the time its direct children cover;
    spans of one process nest strictly, so the children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
    for (name, start, end, _, _), covered in zip(spans, child_ns):
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start - covered) / 1e9
        entry["calls"] += 1
    return out


def main(argv: list[str]) -> int:
    spans_path, stdout_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json STDOUT_FILE RUN_ID -- <cli arguments>")
    import newform_products
    from newform_products import cli

    recorder = Recorder(run_id)
    recorder.install(newform_products)
    with open(stdout_path, "w", encoding="utf-8") as out:
        code = cli.main(cli_args, out=out)
    recorder.dump(spans_path, code, os.path.getsize(stdout_path))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
