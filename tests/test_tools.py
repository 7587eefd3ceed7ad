"""The scripts under tools/, on inputs small enough for the suite."""

import sys
from importlib import metadata
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402
import iso_snapshot  # noqa: E402


def test_bench_pairs_records_a_missing_package_as_none():
    assert bench_pairs._version("numpy") == metadata.version("numpy")
    assert bench_pairs._version("no-such-package-for-reflpvi") is None


@pytest.mark.parametrize("group, residue_seed", [
    ("G336", 1), ("icosahedral", 1), ("G(4,4,3)", 3)])
def test_iso_snapshot_verdict_matches_the_frozen_benchmark_verdict(group, residue_seed):
    """An ok, an eta_check and a flow_check op of the benchmark's pool."""
    workloads = iso_snapshot.workloads
    op = iso_snapshot.snapshot_op(workloads.table_lambda_mu()[group], residue_seed)
    frozen = workloads.load_reference("isomonodromy")["verdicts"][group]
    assert op["verdict"] == frozen[str(residue_seed)]
    assert {"flow_sha256", "eta_sha256", "report", "drift", "eta"} <= set(op)


def test_iso_snapshot_records_a_refused_sample():
    lm = iso_snapshot.workloads.table_lambda_mu()["G(3,3,3)"]
    op = iso_snapshot.snapshot_op(lm, 5)
    assert op["verdict"] == "degenerate_sample"
    assert op["degenerate"].startswith("B4 has no eigenbasis")
