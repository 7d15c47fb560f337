"""Smoke tests of the benchmark: tiny workloads through the real code paths.

Runs enum-6, random-10 (1 trial) and conjecture-8 with and without tracing,
and checks metric names, units and the output checks.  No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, LayerTracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _bench(w, 1) for w in workloads.WORKLOADS}


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.layer_metrics()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_report_every_layer_and_pass_self_test(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # every layer function is exercised by at least one workload
    for name in TARGETS:
        metric = f"{name}.calls" if f"{name}.calls" in want else next(
            m for m in want if m.startswith(name + "."))
        assert any(r["metrics"][metric]["value"] > 0 for r in traced.values()), name


def test_tracer_rebinds_aliases_and_restores_them():
    from qbip import exactla, polyalg, qmatrices, treecore

    originals = (polyalg.divexact, polyalg.Poly.__mul__, treecore.Tree.__init__)
    with LayerTracer() as tracer:
        assert exactla.divexact is qmatrices.divexact is polyalg.divexact
        assert polyalg.divexact is not originals[0]
        assert polyalg.Poly.__rmul__ is polyalg.Poly.__mul__ is not originals[1]
        assert treecore.Tree.__init__ is not originals[2]
        qmatrices.build_qL(treecore.random_nonsingular(4, 1))
        3 * polyalg.Q
    assert tracer.stats["polyalg.divexact"].calls == 0
    assert tracer.stats["qmatrices.build_qL"].calls == 1
    assert tracer.stats["treecore.tree_new"].calls == 3
    assert tracer.stats["polyalg.poly_mul"].calls > 1
    assert (polyalg.divexact, polyalg.Poly.__mul__, treecore.Tree.__init__) == originals
    assert exactla.divexact is originals[0] and polyalg.Poly.__rmul__ is originals[1]


def test_output_check_counts_failed_and_missing_checks(tmp_path, capsys):
    from qbip import cli

    w = workloads.SMOKE["enum-12"]
    out = tmp_path / "enum6.json"
    assert cli.main(w.argv(0, str(out))) == 0
    text = out.read_text()
    summary = capsys.readouterr().out
    assert w.check(0, summary, text).failed == 0

    reports = json.loads(text)
    reports[0]["checks"][0]["pass"] = False
    assert w.check(0, summary, json.dumps(reports)).failed == 1
    del reports[0]["checks"][1:]
    assert w.check(0, summary, json.dumps(reports)).failed == 13
    for rc, out in ((1, text), (0, None), (0, "[")):
        outcome = w.check(rc, summary, out)
        assert outcome.failed == outcome.expected == 52, outcome
    reports = json.loads(text)
    reports[0]["checks"][0]["skipped"] = "changed"
    assert w.check(0, summary, json.dumps(reports)).failed == 52
