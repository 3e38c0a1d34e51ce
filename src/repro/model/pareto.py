"""Pareto frontier over (predicted ticks, modeled area), fully stable.

Both the frontier membership test and the ranking are deterministic
functions of the scored points alone: ties are broken by the candidate
key (a total order over assignments and modes), never by input or dict
iteration order — shuffling the input points yields the identical
ranked frontier.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.model.analytic import ModeledPoint


def _objectives(point: ModeledPoint) -> Tuple[float, float]:
    return (point.predicted_ticks, point.area_mm2)


def pareto_frontier(points: Sequence[ModeledPoint]
                    ) -> Tuple[List[ModeledPoint], int]:
    """Non-dominated points plus the count of dominated ones.

    A point dominates another when it is no worse on both objectives
    (ticks, area) and strictly better on at least one.  Points with
    identical objectives do not dominate each other; all of them stay
    on the frontier.
    """
    ordered = sorted(points,
                     key=lambda p: (*_objectives(p), p.candidate.key()))
    frontier: List[ModeledPoint] = []
    best_area = float("inf")
    best_area_ticks = float("inf")
    for point in ordered:
        ticks, area = _objectives(point)
        if area < best_area:
            frontier.append(point)
            best_area = area
            best_area_ticks = ticks
        elif area == best_area and ticks == best_area_ticks:
            frontier.append(point)  # objective-identical twin
    return frontier, len(points) - len(frontier)


def rank_frontier(frontier: Sequence[ModeledPoint]
                  ) -> List[ModeledPoint]:
    """Rank frontier points knee-first.

    Each point's objectives are normalised to [0, 1] over the
    frontier's span and scored by distance to the ideal corner
    (min ticks, min area); the balanced "knee" designs rank ahead of
    the pure corner designs, so validating the top-k exercises the
    interesting trade-offs first.  Ties break on the candidate key.
    """
    if not frontier:
        return []
    ticks = [point.predicted_ticks for point in frontier]
    areas = [point.area_mm2 for point in frontier]
    ticks_span = max(ticks) - min(ticks) or 1.0
    area_span = max(areas) - min(areas) or 1.0

    def knee_distance(point: ModeledPoint) -> float:
        t = (point.predicted_ticks - min(ticks)) / ticks_span
        a = (point.area_mm2 - min(areas)) / area_span
        return (t * t + a * a) ** 0.5

    return sorted(frontier,
                  key=lambda p: (knee_distance(p), p.candidate.key()))
