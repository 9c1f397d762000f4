"""Parameter-grid sweeps.

``sweep_grid`` runs a callable over the cartesian product of named
parameter lists, serially by default or fanned out over processes.  The
callable must be a module-level function when ``max_workers > 1``
(pickling constraint of ``ProcessPoolExecutor``); experiment drivers in
:mod:`repro.experiments` satisfy this.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence


def grid_points(grid: Mapping[str, Sequence]) -> list[dict]:
    """Materialise the cartesian product of a parameter grid, in the
    deterministic order of ``itertools.product`` over the given axes."""
    if not grid:
        return [{}]
    names = list(grid)
    for name in names:
        if len(grid[name]) == 0:
            raise ValueError(f"grid axis {name!r} is empty")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[n] for n in names))
    ]


def sweep_grid(
    fn: Callable[..., object],
    grid: Mapping[str, Sequence],
    *,
    common: Mapping[str, object] | None = None,
    max_workers: int = 1,
) -> list[tuple[dict, object]]:
    """Evaluate ``fn(**point, **common)`` at every grid point.

    Returns ``(point, result)`` pairs in grid order (results are reordered
    after parallel execution, so output order never depends on timing).
    """
    points = grid_points(grid)
    common = dict(common or {})
    if max_workers <= 1:
        return [(p, fn(**p, **common)) for p in points]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(fn, **p, **common) for p in points]
        return [(p, f.result()) for p, f in zip(points, futures)]
