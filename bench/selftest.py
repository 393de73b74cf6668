"""The benchmark's own tests, at smoke sizes (a few seconds in all).

    python3 -m pytest -q bench/selftest.py

Run from the repository root.  The file name keeps it out of the library's
default test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    doc = last_json(bench("--smoke", "--workload", workload, "--seed", "5",
                          "--seconds", "1", "--trace", "0"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_smoke_reports_every_per_layer_metric_with_parent_links():
    doc = last_json(bench("--smoke", "--workload", "verify", "--seed", "5",
                          "--seconds", "1", "--trace", "1"))
    assert doc["correct"] is True and doc["failed"] == 0
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in ("registry.extend_block.calls", "qseries.frac_mul.calls",
                 "elliptic.count_points.calls", "products.unit_product.calls"):
        assert metrics[name] > 0, name
    with open(os.path.join(ROOT, ".bench_work", "trace-verify-5.json"), encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli", "cli"]  # one per command
    assert all(s[3] < i for i, s in enumerate(spans) if s[3] >= 0)
    assert all(spans[s[3]][4] == s[4] for s in spans if s[3] >= 0)


def test_search_counts_at_smoke_size():
    doc = last_json(bench("--smoke", "--workload", "search", "--seed", "1",
                          "--seconds", "1", "--trace", "1"))
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    # 2 blocks x 2 scales x 4 nonzero r = 16 atoms; C(16 + 2, 3) multisets
    assert m["search.combos"] == 816
    assert m["search.candidates"] == m["search.assemble.calls"] > 0
    assert m["search.candidate_yield"] == m["search.candidates"] / 816


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_commands_and_exponents_cover_the_pool():
    for workload in workloads.WORKLOADS:
        assert workloads.rounds_for(workload, 7, "full") == workloads.rounds_for(workload, 7, "full")
    labels = [u.label for u in workloads.rounds_for("exponents", 3, "full")]
    assert sorted(labels) == sorted(f"exponents N={n}" for n, *_ in workloads.POOL)


def _write(tmp_path, doc) -> str:
    path = tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_checks_reject_wrong_digest_and_violated_anchor(tmp_path):
    argv = workloads.exponents_argv(37, "smoke")
    g = [str(2 * a) for a in workloads.BY_CONDUCTOR[37][3]]
    doc = {"status": "ok", "results": {"g": g, "inferred": {"r_check": 2, "t_check": 1}}}
    refs = {workloads.command_key(argv): workloads.reference_record(0, doc)}
    assert workloads.output_error(argv, 0, _write(tmp_path, doc), refs) is None
    assert "exit" in workloads.output_error(argv, 1, _write(tmp_path, doc), refs)

    bad = json.loads(json.dumps(doc))
    bad["results"]["g"][3] = "17"
    assert "results_sha256" in workloads.output_error(argv, 0, _write(tmp_path, bad), refs)
    refs_bad = {workloads.command_key(argv): workloads.reference_record(0, bad)}
    assert "paper gives" in workloads.output_error(argv, 0, _write(tmp_path, bad), refs_bad)


def test_search_anchor_needs_the_paper_decomposition_matched():
    match = {"parts": [[37, -1, 1], [37, 1, 1], [37, 2, 1]], "verdict": "match"}
    other = {"parts": [[37, -4, 1], [37, -2, 1], [43, 4, 1]], "verdict": "mismatch"}
    assert workloads.search_anchor(37, {"results": {"candidates": [match, other]}}) is None
    missed = dict(match, verdict="mismatch")
    assert "not matched" in workloads.search_anchor(37, {"results": {"candidates": [missed]}})
    assert "no candidate" in workloads.search_anchor(37, {"results": {"candidates": [other]}})


def test_summarize_subtracts_direct_children_only():
    spans = [
        ["cli", 0, 100, -1, "r"],
        ["qseries.mul", 10, 40, 0, "r"],
        ["qseries.mul", 12, 20, 1, "r"],
        ["qseries.inverse", 50, 60, 0, "r"],
    ]
    out = tracer.summarize(spans)
    assert out["cli"] == {"self_s": 60e-9, "calls": 1}
    assert out["qseries.mul"]["calls"] == 2
    assert out["qseries.mul"]["self_s"] == pytest.approx((30 - 8 + 8) * 1e-9)
    assert out["qseries.inverse"]["self_s"] == pytest.approx(10e-9)
