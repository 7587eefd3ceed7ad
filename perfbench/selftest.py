"""Tests of the benchmark itself.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They are kept out of the library's test suite: they exercise the benchmark's
own files and take about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from reflpvi import groups, params  # noqa: E402

import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# A few ops of each workload are enough to expose state shared between
# passes; the slices keep the G2160 build out of the traced passes.
SLICES = {"catalogue": lambda ops: [op for op in ops if "G2160" not in op.label][:5],
          "triples": lambda ops: [op for op in ops if "G648" not in op.label][:2],
          "isomonodromy": lambda ops: ops[:20]}


def _sliced(name: str, seed: int) -> workloads.Workload:
    wl = workloads.generate(name, seed)
    full = wl.pass_ops
    wl.pass_ops = lambda: SLICES[name](full())
    return wl


def test_lambda_mu_reference_matches_exact_layer():
    frozen = workloads.table_lambda_mu()
    assert list(frozen) == [s.label() for s in params.DEFAULT_TABLE_SPECS]
    for spec in params.DEFAULT_TABLE_SPECS:
        group = groups.build_group(spec)
        exact = params.lambda_mu_of_triple(group.generators).with_exact_sums()
        assert frozen[spec.label()] == exact, spec.label()


def test_traced_calls_repeat_between_runs_of_one_seed():
    # two passes of one workload (as within a run) and a pass of a second
    # workload made from the same seed (as in another run) do the same work
    for name in workloads.WORKLOADS:
        wl = _sliced(name, 7)
        passes = [worker.traced_pass(w) for w in (wl, wl, _sliced(name, 7))]
        for p in passes[1:]:
            assert p["calls"] == passes[0]["calls"], name
            assert p["counts"] == passes[0]["counts"], name
        assert all(r["failure"] is None for p in passes for r in p["ops"]), name


def test_untraced_run_installs_no_wrappers():
    seen = []
    wl = _sliced("triples", 3)
    full = wl.pass_ops

    def spying_ops():
        ops = full()
        for op in ops:
            run_op = op.run
            op.run = lambda run_op=run_op: (seen.append(tracer.installed_wrappers(
                [workloads])), run_op())[1]
        return ops

    wl.pass_ops = spying_ops
    worker.run_pass(wl)
    assert seen and all(found == [] for found in seen)
    worker.traced_pass(wl)
    assert any(found for found in seen[len(seen) // 2:])
    assert tracer.installed_wrappers([workloads]) == []


def test_sampler_rescales_the_time_between_probes():
    sampler = probe.Sampler("exact")
    ref = probe.REF_S["exact"]
    sampler.samples = [(0.0, 1.0, ref), (3.0, 4.0, 2 * ref), (6.0, 7.0, 2 * ref)]
    raw, rescaled = sampler.rescale(0.5, 6.5)
    assert raw == 4.0                          # the probe inside is left out
    assert abs(rescaled - (2.0 / 1.5 + 2.0 / 2.0)) < 1e-12


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.PER_LAYER)
    assert {name.split(".")[0] for name, *_ in tracer.TARGETS if name} == set(run.LAYERS)
    assert run.TABLE1_SPECS == tuple(map(tracer.spec_name, params.DEFAULT_TABLE_SPECS))
    verdicts = workloads.load_reference("isomonodromy")["verdicts"]
    assert {v for row in verdicts.values() for v in row.values()} <= {"ok", *run.ISO_REASONS}


def test_klein_fixed_reflection_does_not_change_outputs():
    ref = workloads.load_reference("triples")["klein"]
    assert workloads.klein_summary(5) == ref


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
