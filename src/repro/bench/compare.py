"""Figure snapshots and regression comparison.

The calibration constants are supposed to be touched rarely and as a
whole; this module makes that safe: ``snapshot()`` stores every figure's
series as JSON, and ``compare()`` reports any point that moved beyond a
tolerance — so a model change that silently bends a curve the paper
pinned down is caught in review.  The comparison is two-sided: a
snapshot whose figure names, series labels or x points differ from what
the figures produce is rejected (:class:`~repro.errors.SnapshotError`),
and ``snapshot()`` never overwrites an existing file.

CLI::

    python -m repro.bench --snapshot baseline.json
    python -m repro.bench --compare baseline.json --tolerance 0.05
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import FigureResult
from repro.errors import SnapshotError

SNAPSHOT_VERSION = 1


def figure_to_dict(result: FigureResult) -> dict:
    return {
        series.label: [[x, y] for x, y in series.points]
        for series in result.series
    }


def snapshot(
    path: str | Path,
    *,
    scale: float = 1.0,
    figures: dict | None = None,
) -> dict:
    """Run every figure and store the series to ``path`` (JSON).

    Raises :class:`~repro.errors.SnapshotError` if ``path`` exists:
    re-recording a reference means deleting it first.
    """
    path = Path(path)
    if path.exists():
        raise SnapshotError(f"snapshot {path} already exists; delete it to re-record")
    figures = figures or ALL_FIGURES
    payload = {
        "version": SNAPSHOT_VERSION,
        "scale": scale,
        "figures": {
            name: figure_to_dict(fn(scale=scale)) for name, fn in figures.items()
        },
    }
    with path.open("x") as handle:
        handle.write(json.dumps(payload, indent=1, sort_keys=True))
    return payload


@dataclass(frozen=True)
class Deviation:
    """One point that moved beyond the tolerance."""

    figure: str
    series: str
    x: float
    reference: float | None
    measured: float | None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.figure}/{self.series} @ x={self.x}: "
            f"{self.reference} -> {self.measured}"
        )


def _require_same(what: str, stored, fresh) -> None:
    """Raise unless the snapshot holds exactly the keys the figures
    produce."""
    unstored = [key for key in fresh if key not in stored]
    unproduced = [key for key in stored if key not in fresh]
    if unstored or unproduced:
        raise SnapshotError(
            f"snapshot and figures disagree on {what}: "
            f"not in the snapshot {unstored}, not produced {unproduced}"
        )


def compare(
    path: str | Path,
    *,
    tolerance: float = 0.05,
    figures: dict | None = None,
) -> list[Deviation]:
    """Re-run the figures and diff them against a stored snapshot.

    Returns every (figure, series, x) whose value moved by more than
    ``tolerance`` relatively — including points that flipped between
    "runs" and "fails".  Raises :class:`~repro.errors.SnapshotError` if
    the snapshot's version, figure names, series labels or x points
    differ from the figures'.
    """
    reference = json.loads(Path(path).read_text())
    if reference.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version mismatch: {reference.get('version')!r}"
        )
    scale = float(reference.get("scale", 1.0))
    figures = figures or ALL_FIGURES
    stored_figures = reference.get("figures", {})
    _require_same("figures", stored_figures, figures)

    deviations: list[Deviation] = []
    for name, stored in stored_figures.items():
        fresh = figure_to_dict(figures[name](scale=scale))
        _require_same(f"{name} series", stored, fresh)
        for label, stored_points in stored.items():
            fresh_points = dict(fresh[label])
            _require_same(f"{name}/{label} x points", dict(stored_points), fresh_points)
            for x, ref_y in stored_points:
                new_y = fresh_points[x]
                if ref_y is None or new_y is None:
                    if ref_y != new_y:
                        deviations.append(Deviation(name, label, x, ref_y, new_y))
                    continue
                denominator = max(abs(ref_y), 1e-12)
                if abs(new_y - ref_y) / denominator > tolerance:
                    deviations.append(Deviation(name, label, x, ref_y, new_y))
    return deviations
