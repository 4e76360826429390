"""Exact estimates of the out-of-GPU strategies.

``golden_estimates.json`` holds ``repr(estimate(...).seconds)`` for the
three strategies that price GPU working sets with the scaled join
evaluators (co-processing, adaptive co-processing and streaming), under
both probe kernels, for a uniform and a Zipf join, with and without
materialization, and, for the co-processing pair, under the whole
device and under a 1 GiB grant that splits host partitions across
working sets.  Each estimate is compared with ``==``: a change to the
evaluators or to the histograms they are fed must move no simulated
second, under either kernel.

To re-record the file deliberately, for a reviewed change of the cost
model, delete it and run::

    PYTHONPATH=src python -m tests.core.test_estimate_pins
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import GpuJoinConfig, create_strategy, estimate_cache
from repro.data import unique_pair, zipf_pair

GOLDEN_PATH = Path(__file__).with_name("golden_estimates.json")

GIB = 1 << 30
SPECS = {
    "coprocessing": {
        "uniform": unique_pair(512_000_000),
        "zipf0.5-both": zipf_pair(512_000_000, 0.5, skew_side="both"),
    },
    "streaming": {
        "uniform": unique_pair(64_000_000, 1_024_000_000),
        "zipf0.5-both": zipf_pair(
            64_000_000, 0.5, skew_side="both", probe_n=1_024_000_000
        ),
    },
}
SPECS["coprocessing_adaptive"] = SPECS["coprocessing"]
#: The whole device, and a grant that splits host partitions.
GRANTS = {"whole": None, "1GiB": GIB}
CASES = [
    (f"{key}/{kernel}/{spec}/{grant}/{'mat' if materialize else 'agg'}",
     key, kernel, spec, grant, materialize)
    for key in ("coprocessing", "coprocessing_adaptive", "streaming")
    for kernel in ("hash", "nlj")
    for spec in SPECS[key]
    for grant in (GRANTS if key != "streaming" else ("whole",))
    for materialize in (False, True)
]


def estimate_repr(key: str, kernel: str, spec: str, grant: str, materialize: bool) -> str:
    """``repr`` of one cold estimate's simulated seconds."""
    extras = {} if GRANTS[grant] is None else {"device_budget": GRANTS[grant]}
    strategy = create_strategy(
        key, config=GpuJoinConfig(probe_kernel=kernel), **extras
    )
    estimate_cache.clear()
    return repr(strategy.estimate(SPECS[key][spec], materialize=materialize).seconds)


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize(
    "name, key, kernel, spec, grant, materialize",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_estimate_matches_golden(name, key, kernel, spec, grant, materialize):
    assert estimate_repr(key, kernel, spec, grant, materialize) == _golden()[name]


if __name__ == "__main__":
    with GOLDEN_PATH.open("x", encoding="utf-8") as handle:
        json.dump(
            {case[0]: estimate_repr(*case[1:]) for case in CASES},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {len(CASES)} estimates to {GOLDEN_PATH}")
