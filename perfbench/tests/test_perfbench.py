"""Tests of the benchmark itself, at smoke sizes:

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from blocktoeplitz import (CoefficientTables, errors, solve, spec_to_dict,
                           validate)
from perfbench import gate, harness, workloads
from perfbench.spans import Tracer

from conftest import ROOT

WORKLOADS = ("warm-stream", "cold-fit")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
         "3", "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
        assert np.isfinite(value["value"])


def _inputs(name, seed, count=4):
    wl = workloads.make(name, seed, smoke=True)
    tracer = Tracer(False)
    wl.setup(tracer)
    cases = [wl.case(i, tracer) for i in range(count)]
    return [(spec_to_dict(c.spec), c.y) for c in cases]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    first, again, other = (_inputs(name, 5), _inputs(name, 5),
                           _inputs(name, 6))
    for (spec_a, y_a), (spec_b, y_b) in zip(first, again):
        assert spec_a == spec_b
        assert np.array_equal(y_a, y_b)
    assert any(not np.array_equal(a[1], b[1]) for a, b in zip(first, other))


def test_gate_rejects_perturbed_solution():
    spec = workloads.ColdFit(0, 64).base_specs()[2]
    y = workloads.rhs(np.random.default_rng(2), 64, spec.d)
    tables = CoefficientTables(spec)
    z = solve(spec, 64, y, tables=tables).z
    assert gate.residual_ratio(tables, 64, z, y) <= gate.RESIDUAL_TOL
    bad = z.copy()
    bad[17] *= 1.0 + 1e-6
    assert gate.residual_ratio(tables, 64, bad, y) > gate.RESIDUAL_TOL


def test_perturbed_solution_fails_the_run(monkeypatch):
    call = workloads.ColdFit.call

    def perturbed(self, case):
        rep, tables = call(self, case)
        rep.z[0] += 1e-6 * np.abs(rep.z).max()
        return rep, tables

    monkeypatch.setattr(workloads.ColdFit, "call", perturbed)
    result, detail, _ = harness.run("cold-fit", 1, 0.2, False, smoke=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_ratio"]["value"] == 0.0


def test_rotation_keeps_the_work_and_changes_the_coefficients():
    base = workloads.ColdFit(0, 64).base_specs()[5]
    turned = workloads.rotate(base, np.exp(0.7j))
    validate(turned).raise_if_failed()
    g_base, g_turned = gate.QuadratureGamma(base), gate.QuadratureGamma(turned)
    for k in (0, 1, 5):
        assert np.allclose(np.abs(g_base.gamma(k)), np.abs(g_turned.gamma(k)),
                           rtol=1e-12, atol=1e-14)
    assert not np.allclose(g_base.gamma(1), g_turned.gamma(1))
    ratio = [CoefficientTables(s).gamma_band_tail(1)
             / CoefficientTables(s).gamma_band_tail(0) for s in (base, turned)]
    assert ratio[0] == pytest.approx(ratio[1], rel=1e-9)


def test_errors_are_charged_to_the_raising_layer():
    spec = workloads.ColdFit(0, 64).base_specs()[1]
    bad = type(spec)(d=spec.d, m0=spec.m0, K=spec.K, rho00=spec.rho00,
                     rho0=spec.rho0, poles=(1.5,), mults=spec.mults,
                     rho=spec.rho)
    with pytest.raises(errors.ValidationError) as info:
        validate(bad).raise_if_failed()
    assert harness.error_layer(info.value) == "symbol"


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(40)]
    summary = harness.latency_summary(xs)
    assert summary["tail_percentile"] == 75.0
    assert summary["tail_ms"] == 1e3 * 29.0       # 30..39 lie beyond it
    few = harness.latency_summary(xs[:12])
    assert few["tail_percentile"] == 100.0 and few["tail_ms"] == 1e3 * 11.0
