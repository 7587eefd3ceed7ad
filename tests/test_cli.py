import json

import pytest

from reflpvi.cli import main


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
    code, _ = run_cli(capsys, "groups", "info", "--spec", "G999")
    assert code == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["groups"])
    assert exc.value.code == 2


def test_jobs_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "groups", "list"])
    assert exc.value.code == 2


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


def test_orbits_small_group(capsys):
    code, out = run_cli(capsys, "orbits", "--spec", "G(2,2,3)")
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["partition"]) == payload["classes"]
