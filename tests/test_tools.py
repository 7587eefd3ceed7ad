"""The scripts under tools/, on inputs small enough for the suite."""

import argparse
import json
import re
import sys
from importlib import metadata
from pathlib import Path

import pytest

from reflpvi import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402
import cli_snapshot  # noqa: E402
import iso_snapshot  # noqa: E402
import rk45_parity  # noqa: E402


def test_bench_pairs_records_a_missing_package_as_none():
    assert bench_pairs._version("numpy") == metadata.version("numpy")
    assert bench_pairs._version("no-such-package-for-reflpvi") is None


def test_bench_pairs_refuses_an_odd_pair_count_before_any_run(tmp_path, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("ran a benchmark")
    monkeypatch.setattr(bench_pairs, "run_bench", unreachable)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--pr", "0", "--out", str(out),
                          "--pairs", "triples:1:2", "--pairs", "catalogue:1:3"])
    assert exc.value.code == 2
    assert "argument --pairs: COUNT must be even" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("group, residue_seed", [
    ("G336", 1), ("icosahedral", 1), ("G(4,4,3)", 3)])
def test_iso_snapshot_verdict_matches_the_frozen_benchmark_verdict(group, residue_seed):
    """An ok and an eta_check op of the benchmark's pool, and one that the
    frozen verdicts list as flow_check: its f changes sign on the path, and
    the reduced flow of the frozen code kept +|f| past the zero.  Its eta
    check, which the frozen code never reached, passes."""
    workloads = iso_snapshot.workloads
    op = iso_snapshot.snapshot_op(workloads.table_lambda_mu()[group], residue_seed)
    frozen = workloads.load_reference("isomonodromy")["verdicts"][group]
    if (group, residue_seed) == ("G(4,4,3)", 3):
        assert frozen[str(residue_seed)] == "flow_check"
        assert op["verdict"] == "ok"
        deviation = re.search(r"max_deviation=([^,]+),", op["report"]).group(1)
        assert float(deviation) < workloads.FLOW_BOUND
    else:
        assert op["verdict"] == frozen[str(residue_seed)]
    assert {"flow_sha256", "eta_sha256", "report", "drift", "eta"} <= set(op)


# The first pool seed of each row without tied (alpha, beta, gamma, delta)
# that failed the eta check when eta' and eta'' came from fourth-order
# differences at h = 1e-3.
_FIRST_FD_ETA_CHECK = {
    "G(4,4,3)": 1, "G(5,5,3)": 2, "G(6,6,3)": 4, "G(3,1,3)": 3, "G(4,1,3)": 3,
    "G(5,1,3)": 3, "G(6,1,3)": 3, "G336": 3, "G1296": 3, "G2160": 3}


@pytest.mark.parametrize("group, residue_seed", sorted(_FIRST_FD_ETA_CHECK.items()))
def test_iso_snapshot_passes_the_eta_check_of_every_untied_row(group, residue_seed):
    op = iso_snapshot.snapshot_op(iso_snapshot.workloads.table_lambda_mu()[group],
                                  residue_seed)
    assert op["verdict"] == "ok"


def test_iso_snapshot_records_a_refused_sample():
    lm = iso_snapshot.workloads.table_lambda_mu()["G(3,3,3)"]
    op = iso_snapshot.snapshot_op(lm, 5)
    assert op["verdict"] == "degenerate_sample"
    assert op["degenerate"].startswith("B4 has no eigenbasis")


def test_iso_snapshot_times_each_row_on_stderr_only(tmp_path, monkeypatch, capsys):
    """The row's end line on stderr carries its process time; OUTFILE has
    no time in it, so snapshots of two runs compare byte for byte."""
    workloads = iso_snapshot.workloads
    lm = workloads.table_lambda_mu()["G336"]
    monkeypatch.setattr(workloads, "table_lambda_mu", lambda: {"G336": lm})
    monkeypatch.setattr(workloads, "ISO_POOL", (1,))
    out = tmp_path / "iso.txt"
    assert iso_snapshot.main([str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    cpu = re.fullmatch(r"G336: done, (\d+\.\d{3}) s process time", err[0]).group(1)
    assert float(cpu) > 0
    assert err[1] == "ops: 1, ok: 1"
    (line,) = out.read_text().splitlines()
    assert json.loads(line) == {"group": "G336", "residue_seed": 1,
                                **iso_snapshot.snapshot_op(lm, 1)}


def test_rk45_parity_compares_every_integration_of_an_op(monkeypatch, capsys):
    """G336 seed 1 makes three integrations, the two matrix flows and the
    reduced flow, and each equals scipy's."""
    workloads = iso_snapshot.workloads
    lm = workloads.table_lambda_mu()["G336"]
    monkeypatch.setattr(workloads, "table_lambda_mu", lambda: {"G336": lm})
    monkeypatch.setattr(workloads, "ISO_POOL", (1,))
    assert rk45_parity.main() == 0
    counts = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert counts == {"integrations": "3", "y_differ": "0", "nfev_differ": "0",
                      "success_differ": "0", "parity": "ok"}


def test_cli_snapshot_writes_output_and_status_per_command(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_snapshot, "COMMANDS", [
        ("groups-list", ["groups", "list"]),
        ("groups-info-G2-2-3", ["groups", "info", "--spec", "G(2,2,3)"])])
    assert cli_snapshot.main([str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "groups-info-G2-2-3.err", "groups-info-G2-2-3.json", "groups-info-G2-2-3.status",
        "groups-list.err", "groups-list.json", "groups-list.status"]
    for name in ("groups-list", "groups-info-G2-2-3"):
        assert (tmp_path / f"{name}.status").read_text() == "0\n"
        assert (tmp_path / f"{name}.err").read_text() == ""
    info = json.loads((tmp_path / "groups-info-G2-2-3.json").read_text())
    assert (info["spec"], info["order"], info["reflections"]) == ("G(2,2,3)", 24, 6)
    assert "G336" in json.loads((tmp_path / "groups-list.json").read_text())["groups"]


def test_cli_snapshot_records_a_refusal_as_empty_output_and_status_2(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_snapshot, "COMMANDS", [
        ("refuse-groups-info-no-spec", ["groups", "info"])])
    assert cli_snapshot.main([str(tmp_path)]) == 0
    assert (tmp_path / "refuse-groups-info-no-spec.json").read_text() == ""
    assert (tmp_path / "refuse-groups-info-no-spec.status").read_text() == "2\n"
    assert "the following arguments are required: --spec" in \
        (tmp_path / "refuse-groups-info-no-spec.err").read_text()


def test_cli_snapshot_records_the_single_class_warning_and_refusal(tmp_path, monkeypatch):
    """The two commands that read `reflections_single_class` as False."""
    monkeypatch.setattr(cli_snapshot, "COMMANDS", [
        (name, cmd) for name, cmd in cli_snapshot.COMMANDS
        if name in ("triples-G648-fix-first", "refuse-orbits-G648-fix-first")])
    assert cli_snapshot.main([str(tmp_path)]) == 0
    warned, refused = "triples-G648-fix-first", "refuse-orbits-G648-fix-first"
    assert (tmp_path / f"{warned}.status").read_text() == "0\n"
    assert json.loads((tmp_path / f"{warned}.json").read_text())["group"] == "G648"
    assert (tmp_path / f"{warned}.err").read_text().startswith(
        "warning: reflections form more than one conjugacy class")
    assert (tmp_path / f"{refused}.status").read_text() == "1\n"
    assert (tmp_path / f"{refused}.json").read_text() == ""
    assert (tmp_path / f"{refused}.err").read_text().startswith(
        "error: G648: --fix-first needs the reflections")


def test_cli_snapshot_records_every_command_and_names_the_silent_ones(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_snapshot, "COMMANDS", [
        ("groups-info-no-spec", ["groups", "info"]),
        ("groups-list", ["groups", "list"])])
    assert cli_snapshot.main([str(tmp_path)]) == 1
    assert (tmp_path / "groups-info-no-spec.json").read_text() == ""
    assert (tmp_path / "groups-info-no-spec.status").read_text() == "2\n"
    assert (tmp_path / "groups-list.status").read_text() == "0\n"
    assert "G336" in json.loads((tmp_path / "groups-list.json").read_text())["groups"]
    assert "no output (see their .err files): groups-info-no-spec\n" in capsys.readouterr().err


def test_cli_snapshot_names_a_refuse_command_that_does_not_refuse(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_snapshot, "COMMANDS", [
        ("refuse-groups-list", ["groups", "list"]),
        ("refuse-groups-info-no-spec", ["groups", "info"])])
    assert cli_snapshot.main([str(tmp_path)]) == 1
    assert (tmp_path / "refuse-groups-list.status").read_text() == "0\n"
    assert (tmp_path / "refuse-groups-info-no-spec.status").read_text() == "2\n"
    assert "not refused (exit 0 or output on stdout): refuse-groups-list\n" in \
        capsys.readouterr().err


def test_cli_snapshot_needs_one_output_directory(capsys):
    assert cli_snapshot.main([]) == 2
    assert "usage" in capsys.readouterr().err


def _leaves(parser, path=()):
    """The command paths of a parser's leaves, such as ("groups", "list")."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return [path]
    return [leaf for action in subparsers for name, sub in action.choices.items()
            for leaf in _leaves(sub, path + (name,))]


def test_cli_snapshot_runs_every_command():
    leaves = _leaves(cli.build_parser())
    assert ("verify", "cubic") in leaves and ("orbits",) in leaves
    for leaf in leaves:
        n = len(leaf)
        assert any(list(leaf) == cmd[i:i + n] for _, cmd in cli_snapshot.COMMANDS
                   for i in range(len(cmd))), leaf
