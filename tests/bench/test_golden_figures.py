"""Golden figure snapshot: every paper figure at scale 1.0.

``golden_figures.json`` stores each figure's series as
:func:`repro.bench.compare.snapshot` writes them.  A cost-model change
that moves any point by more than 1e-9 relatively, or adds or drops a
figure, series or x point, fails here.
"""

from pathlib import Path

from repro.bench.compare import compare

GOLDEN_PATH = Path(__file__).with_name("golden_figures.json")


def test_figures_match_golden_snapshot():
    """To re-record deliberately, for a reviewed change of the cost
    model, delete ``golden_figures.json`` and snapshot again from the
    repository root::

        PYTHONPATH=src python -m repro.bench --all --scale 1.0 \\
            --snapshot tests/bench/golden_figures.json
    """
    assert compare(GOLDEN_PATH, tolerance=1e-9) == []
