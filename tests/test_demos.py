"""Smoke tests: each quick demo runs to the end and prints a known line.

The two-Gaussian study demo is slow; its smoke test lives in test_sim.py.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parents[1] / "demos"


# one line of each demo's output, as printed
LINES = {
    "bounds_demo":
        "  100      11.233     0.0392      11.303     0.4160    2.000",
    "loss_shapes": "  d=0.25  eta 0 -> 1:  -----???????????+++++",
    "mixture_map": f"{'fitted rule':<38}optimal rule",
    "theory_checks": "population_path_shrinkage    pass  slack=1e-07",
    "training_path":
        "   3.00      1.0000     0.0000         0.33         0        0",
}


@pytest.mark.parametrize("name", sorted(LINES))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert LINES[name] in capsys.readouterr().out.splitlines()
