import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reflpvi import cli, schlesinger
from reflpvi.cli import main
from reflpvi.schlesinger import DegenerateSampleError, PathError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_groups_info(capsys):
    code, out = run_cli(capsys, "groups", "info", "--spec", "G336")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"schema": 1, "spec": "G336", "order": 336,
                       "degrees": [4, 6, 14], "reflections": 21}


def test_groups_info_reproducible(capsys):
    _, out1 = run_cli(capsys, "groups", "info", "--spec", "G(3,3,3)")
    _, out2 = run_cli(capsys, "groups", "info", "--spec", "G(3,3,3)")
    assert out1 == out2


def test_groups_list(capsys):
    code, out = run_cli(capsys, "groups", "list")
    assert code == 0
    assert "G336" in json.loads(out)["groups"]


def test_bad_spec_exits_1(capsys):
    for spec in ("G999", "G(x,1,3)"):
        assert main(["groups", "info", "--spec", spec]) == 1
        assert f"error: cannot parse group spec {spec!r}" in capsys.readouterr().err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["groups"])
    assert exc.value.code == 2


def test_jobs_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "groups", "list"])
    assert exc.value.code == 2


@pytest.mark.parametrize("check, flags", [
    ("lemma-params", ["--tol", "1e-8"]), ("cubic", ["--dump", "x.csv"]),
    ("eta-pvi", ["--tol", "1e-8"]), ("eta-pvi", ["--dump", "x.csv"]),
    ("schlesinger", ["--count", "5"]), ("eta-pvi", ["--count", "5"]),
])
def test_ignored_verify_flag_is_a_usage_error(check, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", check] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the command's own usage line, which names the flags it does take
    assert err.startswith(f"usage: reflpvi verify {check} [-h]"), err
    assert f"unrecognized arguments: {' '.join(flags)}" in err


@pytest.mark.parametrize("check, flags", [
    ("lemma-params", ["--count", "-5"]), ("cubic", ["--count", "0"]),
    ("schlesinger", ["--tol", "-1"]), ("schlesinger", ["--tol", "0"]),
    ("schlesinger", ["--tol", "nan"]),
    ("lemma-params", ["--seed", "-1"]), ("cubic", ["--seed", "-1"]),
    ("schlesinger", ["--seed", "-1"]), ("eta-pvi", ["--seed", "-1"]),
])
def test_out_of_range_verify_flag_is_a_usage_error(check, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", check] + flags)
    assert exc.value.code == 2
    assert f"argument {flags[0]}: needs a value" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["groups", "list"], ["params", "table"]])
def test_ignored_spec_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--spec", "G336"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: reflpvi {' '.join(argv)} [-h]\n"), err
    assert "unrecognized arguments: --spec G336" in err


@pytest.mark.parametrize("argv", [["groups", "info"], ["params", "theta"],
                                  ["triples", "classify"], ["orbits"]])
def test_missing_spec_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --spec" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--seed", "1", "schlesinger"],
                                  ["groups", "--spec", "G336", "info"],
                                  ["verify", "--seed=1", "schlesinger"]])
def test_flag_before_its_command_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # named as a misplaced flag, not taken for the check or action name
    name = "check" if argv[0] == "verify" else "action"
    assert err.startswith(f"usage: reflpvi {argv[0]} [-h]"), err
    assert err.rstrip().endswith(f"error: {argv[1].split('=')[0]} goes after the {name} name"), err


def test_empty_spec_is_an_unparsable_spec(capsys):
    assert main(["groups", "info", "--spec", ""]) == 1
    assert "error: cannot parse group spec ''" in capsys.readouterr().err


def test_help_lists_only_the_flags_the_command_takes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "eta-pvi", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--seed" in out
    assert not any(flag in out for flag in ("--tol", "--count", "--dump"))


@pytest.mark.parametrize("argv, command", [
    (["groups", "info", "--spec", "G336"], "cmd_groups"),
    (["verify", "schlesinger", "--seed", "1"], "cmd_verify"),
])
def test_csv_without_rows_is_a_usage_error(argv, command, capsys, monkeypatch):
    """Refused before the command runs, so no flow is integrated."""
    def ran(args):
        raise AssertionError("the command ran")
    monkeypatch.setattr(cli, command, ran)
    with pytest.raises(SystemExit) as exc:
        main(["--format", "csv"] + argv)
    assert exc.value.code == 2
    assert "--format csv needs tabular rows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--output", "{missing}/out.json", "groups", "info", "--spec", "G(2,1,3)"],
    ["verify", "schlesinger", "--seed", "1", "--dump", "{missing}/traj.csv"],
])
def test_unwritable_path_is_an_error(argv, capsys, tmp_path):
    missing = tmp_path / "no-such-dir"
    assert main([a.format(missing=missing) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_params_theta(capsys):
    code, out = run_cli(capsys, "params", "theta", "--spec", "G(3,1,3)")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == ["1/18", "1/18", "1/9", "2/3"]


def test_triples_classify_csv(capsys, tmp_path):
    out_path = tmp_path / "classes.csv"
    code, _ = run_cli(capsys, "--format", "csv", "--output", str(out_path),
                      "triples", "classify", "--spec", "G(2,1,3)")
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("class,multiplicity,generated_order")
    assert len(lines) > 2


def test_verify_lemma_params(capsys):
    code, out = run_cli(capsys, "verify", "lemma-params", "--count", "10")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_cubic(capsys):
    code, out = run_cli(capsys, "verify", "cubic", "--count", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["float_max_error"] < 1e-10


def test_verify_cubic_refuses_wrong_cubic_constants(capsys, monkeypatch):
    """The residue sampler builds every float sample from `cubic_coeffs`:
    shifted constants give no B4 with the spectrum mu."""
    right = schlesinger.cubic_coeffs
    monkeypatch.setattr(schlesinger, "cubic_coeffs", lambda lm: tuple(v + 1 for v in right(lm)))
    code, out = run_cli(capsys, "verify", "cubic", "--count", "2")
    assert code == 1
    assert json.loads(out) == {"schema": 1, "check": "cubic", "ok": False, "side": "float",
                               "trial": 0, "error": "no valid sample after 50 draws"}


def test_verify_cubic_refuses_a_wrong_theta_cubic(capsys, monkeypatch):
    from reflpvi.params import CubicForm
    monkeypatch.setattr(CubicForm, "from_theta",
                        staticmethod(lambda theta: CubicForm({(2, 1): 4, (1, 2): 4, (0, 0): 1})))
    code, out = run_cli(capsys, "verify", "cubic", "--count", "2")
    assert code == 1
    assert json.loads(out) == {"schema": 1, "check": "cubic", "ok": False,
                               "side": "normal form"}


def test_text_format(capsys):
    code, out = run_cli(capsys, "--format", "text", "groups", "info", "--spec", "G(2,2,3)")
    assert code == 0
    assert out.splitlines() == ["schema: 1", "spec: G(2,2,3)", "order: 24",
                                "degrees: [2, 3, 4]", "reflections: 6"]


def test_relative_output_lands_in_the_output_dir(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REFLPVI_OUTPUT_DIR", str(tmp_path))
    code, out = run_cli(capsys, "--output", "rel.json", "groups", "info", "--spec", "G(2,2,3)")
    assert (code, out) == (0, "")
    assert json.loads((tmp_path / "rel.json").read_text())["order"] == 24


def test_verify_schlesinger_dump(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    code, _ = run_cli(capsys, "verify", "schlesinger", "--seed", "1", "--dump", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == ["t", "x", "y", "f", "eta_12", "eta_13", "eta_21",
                                   "eta_23", "eta_31", "eta_32"]
    assert len(lines) == 1 + 301


@pytest.mark.parametrize("check", ["schlesinger", "eta-pvi"])
def test_verify_float_layer(capsys, check):
    code, out = run_cli(capsys, "verify", check, "--seed", "1")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_schlesinger_follows_f_through_zero(capsys):
    # f changes sign along the seed-3 flow
    code, out = run_cli(capsys, "verify", "schlesinger", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["reduced_flow_deviation"] < 1e-6


def test_verify_eta_pvi_seed_3(capsys):
    # fourth-order differences at h = 1e-3 put a slot's residual at 99.1 here
    code, out = run_cli(capsys, "verify", "eta-pvi", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(row["residual"] < 1e-8 for row in payload["rows"] if "residual" in row)


def test_verify_eta_pvi_csv_with_a_skipped_slot(capsys):
    # seed 1 skips a slot, whose row has other keys than the checked ones
    code, out = run_cli(capsys, "--format", "csv", "verify", "eta-pvi", "--seed", "1")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert {"slot", "skipped", "residual", "perm"} <= set(header)


@pytest.mark.parametrize("error", [DegenerateSampleError, PathError])
@pytest.mark.parametrize("check", ["schlesinger", "eta-pvi"])
def test_verify_float_layer_reports_refusal(capsys, monkeypatch, check, error):
    def refuse(lm, seed):
        raise error("B4 has no eigenbasis")
    monkeypatch.setattr(schlesinger, "sample_residues", refuse)
    code, out = run_cli(capsys, "verify", check, "--seed", "1")
    assert code == 1
    assert json.loads(out) == {"schema": 1, "check": check, "ok": False,
                               "error": "B4 has no eigenbasis"}
    if check == "eta-pvi":
        # csv is admitted for eta-pvi, and a refusal there has no rows
        with pytest.raises(SystemExit) as exc:
            main(["--format", "csv", "verify", check, "--seed", "1"])
        assert exc.value.code == "error: B4 has no eigenbasis"


_SRC = Path(__file__).resolve().parents[1] / "src"
# runs cli.main on the given argv, then reports whether a module was loaded
_PROBE = """
import sys
from reflpvi.cli import main
code = main(sys.argv[2:])
print(sys.argv[1] in sys.modules, code, file=sys.stderr)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("module, argv", [
    ("numpy", ["groups", "info", "--spec", "G336"]),
    ("scipy", ["verify", "schlesinger", "--seed", "1"]),
])
def test_command_does_not_import(module, argv):
    proc = subprocess.run([sys.executable, "-c", _PROBE, module, *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == "False 0", proc.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_not_an_error(unbuffered):
    """As in `reflpvi params table | head -1`, the reader of stdout is gone.
    Unbuffered, the write fails inside the command; buffered, the table
    stays in the buffer until the flush after it."""
    env = {**_env(), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-m", "reflpvi.cli", "params", "table"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()           # before the command has written anything
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == ""


def test_orbits_fix_first_refuses_several_reflection_classes(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("classified before refusing")
    monkeypatch.setattr(cli, "classify_triples", unreachable)
    assert main(["orbits", "--spec", "G648", "--fix-first"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: G648: --fix-first needs the reflections to form "
                            "one conjugacy class, and they form more than one\n")


def test_orbits_small_group(capsys):
    code, out = run_cli(capsys, "orbits", "--spec", "G(2,2,3)")
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["partition"]) == payload["classes"]
