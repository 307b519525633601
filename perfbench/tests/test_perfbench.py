"""Tests of the benchmark itself, on shrunken instances.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_run(capsys, workload, trace, wrap_operator=None):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--small"], wrap_operator=wrap_operator)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_emits_exactly_the_declared_metrics(capsys, workload, trace):
    code, result = _small_run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        spans = np.load(BENCH / "out" / f"{workload}.spans.npz")
        assert "compare" in set(spans["names"]) and len(spans["start"]) > 0


class SkipEverySeventh:
    """A faulty operator: every seventh MATVEC returns its input uncounted."""

    def __init__(self, op):
        self.op = op
        self.dim = op.dim
        self.calls = 0

    def matvec(self, x):
        self.calls += 1
        if self.calls % 7 == 0:
            return np.array(x, copy=True)
        return self.op.matvec(x)


@pytest.mark.parametrize("workload", ["poly-1m", "compare-750"])
def test_skipped_matvec_fails_the_run(capsys, workload):
    code, result = _small_run(capsys, workload, 0, wrap_operator=SkipEverySeventh)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_library():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "poly-1m", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_laplacian_reference_matches_the_library():
    import specdens as sd
    import workloads

    matrix = sd.generate_modified_laplacian_2d(12, 9, bumps=())
    eigenvalues = workloads.laplacian_eigenvalues(12, 9)
    np.testing.assert_allclose(eigenvalues, sd.dense_eigensolve(matrix).eigenvalues,
                               atol=1e-12)
    interval = sd.estimate_spectral_interval(matrix, seed=0)
    est = sd.estimate_dos(matrix, interval, "kpm-jackson", 40,
                          sd.ProbeVectorSource("rademacher", 0, matrix.dim), 5,
                          grid_points=400)
    ours = workloads.GaussianReference(eigenvalues, interval, workloads.SIGMA).error(est)
    library = sd.error_sup_gaussian(sd.ExactSpectrum(eigenvalues), est,
                                    workloads.SIGMA).value
    assert ours == pytest.approx(library, rel=1e-4)
