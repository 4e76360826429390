"""Argument checks of the serving workload generators."""

import math

import pytest

from repro.errors import InvalidConfigError
from repro.serve import (
    classed_workload,
    mixed_workload,
    random_workload,
    stream_workload,
)

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "make, argument",
    [
        (lambda: mixed_workload(4, scale=NAN), "scale"),
        (lambda: mixed_workload(4, scale=INF), "scale"),
        (lambda: mixed_workload(2.5), "n_queries"),
        (lambda: mixed_workload(True), "n_queries"),
        (lambda: mixed_workload(0), "n_queries"),
        (lambda: next(stream_workload(2.5)), "n_queries"),
        (lambda: next(stream_workload(True)), "n_queries"),
        (lambda: random_workload(1, max_queries=2.5), "max_queries"),
        (lambda: random_workload(1, max_queries=True), "max_queries"),
        (lambda: mixed_workload(3, spacing_seconds=-1.0), "spacing_seconds"),
        (lambda: mixed_workload(3, spacing_seconds=INF), "spacing_seconds"),
        (lambda: mixed_workload(3, spacing_seconds=NAN), "spacing_seconds"),
        (
            lambda: random_workload(1, spacing_max_seconds=NAN),
            "spacing_max_seconds",
        ),
        (
            lambda: random_workload(1, spacing_max_seconds=INF),
            "spacing_max_seconds",
        ),
        (lambda: classed_workload(4, deadline_scale=NAN), "deadline_scale"),
    ],
    ids=[
        "mixed-scale-nan", "mixed-scale-inf", "mixed-count-float",
        "mixed-count-bool", "mixed-count-zero", "stream-count-float",
        "stream-count-bool", "random-max-float", "random-max-bool",
        "mixed-spacing-negative", "mixed-spacing-inf", "mixed-spacing-nan",
        "random-spacing-nan", "random-spacing-inf", "classed-scale-nan",
    ],
)
def test_generators_name_the_argument_they_refuse(make, argument):
    """NaN or fractional counts and scales raised raw ValueError or
    TypeError, ``True`` counted as one query, a negative, NaN or
    infinite spacing blamed a request's ``submit_at`` instead of the
    argument, and a NaN deadline scale blamed the first class's
    deadline."""
    with pytest.raises(InvalidConfigError, match=f"^{argument} must be"):
        make()
