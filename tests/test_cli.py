import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reflpvi import schlesinger
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
    assert f"verify {check} does not take {flags[0]}" in capsys.readouterr().err


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
    assert f"verify {check} needs {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["groups", "list"], ["params", "table"]])
def test_ignored_spec_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--spec", "G336"])
    assert exc.value.code == 2
    assert f"{' '.join(argv)} does not take --spec" in capsys.readouterr().err


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


@pytest.mark.parametrize("check", ["schlesinger", "eta-pvi"])
def test_verify_float_layer(capsys, check):
    code, out = run_cli(capsys, "verify", check, "--seed", "1")
    assert code == 0
    assert json.loads(out)["ok"] is True


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


_SRC = Path(__file__).resolve().parents[1] / "src"
# runs cli.main on the given argv, then reports whether a module was loaded
_PROBE = """
import sys
from reflpvi.cli import main
code = main(sys.argv[2:])
print(sys.argv[1] in sys.modules, code, file=sys.stderr)
"""


@pytest.mark.parametrize("module, argv", [
    ("numpy", ["groups", "info", "--spec", "G336"]),
    ("scipy", ["verify", "schlesinger", "--seed", "1"]),
])
def test_command_does_not_import(module, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _PROBE, module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == "False 0", proc.stderr


def test_orbits_small_group(capsys):
    code, out = run_cli(capsys, "orbits", "--spec", "G(2,2,3)")
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["partition"]) == payload["classes"]
