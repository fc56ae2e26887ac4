"""The committed benchmark records (BENCH_*.json at the repository root) are
self-consistent: every parent/change pair produced the same outputs with no
failed op, and each summary median is the median of its runs."""

import json
import statistics
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def _pairs(record):
    pairs = {}
    for run in record["runs"]:
        pairs.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run
    return pairs


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_each_pair_agrees_and_passes(path):
    for key, pair in _pairs(json.loads(path.read_text())).items():
        assert set(pair) == {"parent", "change"}, key
        assert pair["parent"]["info"]["output_digest_sha256"] == pair["change"]["info"]["output_digest_sha256"], key
        for run in pair.values():
            assert run["info"]["op_fail_ratio"] == 0, key
            assert run["result"]["correct"] is True, key


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_summary_medians_are_the_medians_of_the_runs(path):
    record = json.loads(path.read_text())
    for workload, summary in record["summary"].items():
        for metric, stats in summary["metrics"].items():
            for side in ("parent", "change"):
                values = [
                    run["result"]["metrics"][metric]["value"]
                    for run in record["runs"]
                    if run["workload"] == workload and run["side"] == side
                ]
                assert len(values) == summary["pairs"], (workload, side)
                assert stats[side]["median"] == statistics.median(values), (workload, metric, side)
