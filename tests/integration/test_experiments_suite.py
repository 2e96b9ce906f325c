"""Experiment-suite machinery tests (registry, results, cheap runners)."""

import pytest

from repro.experiments import EXPERIMENTS, run_all
from repro.experiments.result import Check, ExperimentResult


def test_registry_covers_every_paper_artifact():
    figures = {f"fig{i:02d}" for i in range(2, 13)}
    tables = {f"table{i:02d}" for i in range(1, 11)}
    assert set(EXPERIMENTS) == figures | tables


def test_run_all_rejects_unknown():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_all(["fig99"])


def test_result_check_and_render():
    result = ExperimentResult("X", "demo", paper={"v": 1},
                              measured={"v": 1.5})
    result.check("matches", True, "ok")
    result.check("fails", False)
    assert result.n_passed < len(result.checks)
    assert result.n_passed == 1
    text = result.render()
    assert "[OK ]" in text and "[DEV]" in text
    assert "paper:" in text and "measured:" in text


def test_check_render():
    assert "[OK ]" in Check("c", True).render()
    assert "(why)" in Check("c", False, "why").render()


def test_cheap_experiments_pass():
    for key in ("table01", "table07"):
        result = EXPERIMENTS[key]()
        assert result.n_passed == len(result.checks), f"{key}: {[c.claim for c in result.checks if not c.passed]}"


def test_table02_experiment_passes():
    result = EXPERIMENTS["table02"]()
    assert result.n_passed == len(result.checks)
    assert result.artifact


def test_fig10_crossover_experiment_passes():
    result = EXPERIMENTS["fig10"]()
    assert result.n_passed == len(result.checks)
    assert result.measured["memory_bound_batches"] == [16, 32]
