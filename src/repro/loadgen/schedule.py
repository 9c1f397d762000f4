"""Open-loop arrival schedules: rate curves and arrival-time samplers.

Closed-loop load generators (N workers, each waiting for its previous
response) self-throttle exactly when the system degrades — the
coordinated-omission trap.  An **open-loop** generator fixes arrival
*times* up front from an arrival-rate process and issues each request on
schedule regardless of completions, which is what makes near-saturation
goodput and tail latency measurable at all (Harmonia's evaluation
methodology, PAPERS.md).

Arrival times are produced by inverse-transform sampling against a
**rate curve** — a relative intensity ``r(u)`` over normalised time
``u ∈ [0, 1]``:

* ``constant`` — a homogeneous process;
* ``diurnal`` — a day/night sinusoid (``1 + amplitude·sin``), the
  slow-swell regime;
* ``flash`` — baseline 1 with a ``factor``× square spike over
  ``[start, start+width)``, the flash-crowd regime every bottleneck
  paper worries about.

Two schedulers sample against the curve's cumulative intensity:

* ``poisson`` — a (non-homogeneous) Poisson process conditioned on the
  total count: arrival times are the sorted inverse-CDF images of
  ``n`` seeded uniforms (the conditional-uniformity property of Poisson
  processes), so bursts and gaps look like real traffic;
* ``deterministic`` — the inverse-CDF images of the midpoint quantiles
  ``(i + 0.5)/n``: evenly paced *in intensity*, useful when run-to-run
  arrival jitter must be zero.

Everything is a pure function of ``(n, duration, curve, scheduler,
seed)`` — the same-seed identity ``rnb loadtest`` and ``load_soak`` pin.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import derive_rng

#: resolution of the numeric cumulative-intensity inversion
_GRID_POINTS = 4097

RateCurve = Callable[[np.ndarray], np.ndarray]

SCHEDULERS = ("poisson", "deterministic")
CURVES = ("constant", "diurnal", "flash")


def constant_curve() -> RateCurve:
    """Homogeneous arrivals: intensity 1 everywhere."""
    return lambda u: np.ones_like(u)


def diurnal_curve(*, amplitude: float = 0.6, cycles: float = 1.0) -> RateCurve:
    """Day/night sinusoid: ``1 + amplitude·sin(2π·cycles·u - π/2)``.

    Starts at the trough (night), peaks mid-window.  ``amplitude`` must
    stay below 1 so the intensity never goes negative.
    """
    if not (0.0 <= amplitude < 1.0):
        raise ConfigurationError("diurnal amplitude must be in [0, 1)")
    if cycles <= 0:
        raise ConfigurationError("diurnal cycles must be positive")

    def curve(u: np.ndarray) -> np.ndarray:
        return 1.0 + amplitude * np.sin(2.0 * np.pi * cycles * u - np.pi / 2.0)

    return curve


def flash_crowd_curve(
    *, factor: float = 8.0, start: float = 0.5, width: float = 0.15
) -> RateCurve:
    """Baseline 1 with a ``factor``× spike over ``[start, start+width)``."""
    if factor < 1.0:
        raise ConfigurationError("flash factor must be >= 1")
    if not (0.0 <= start < 1.0) or not (0.0 < width <= 1.0 - start):
        raise ConfigurationError(
            "flash window must satisfy 0 <= start < 1 and 0 < width <= 1 - start"
        )

    def curve(u: np.ndarray) -> np.ndarray:
        out = np.ones_like(u)
        out[(u >= start) & (u < start + width)] = factor
        return out

    return curve


def make_curve(name: str, **kwargs) -> RateCurve:
    """Build a named rate curve (``constant`` / ``diurnal`` / ``flash``)."""
    if name == "constant":
        if kwargs:
            raise ConfigurationError("constant curve takes no parameters")
        return constant_curve()
    if name == "diurnal":
        return diurnal_curve(**kwargs)
    if name == "flash":
        return flash_crowd_curve(**kwargs)
    raise ConfigurationError(
        f"unknown rate curve {name!r}; available: {', '.join(CURVES)}"
    )


def _inverse_cumulative(curve: RateCurve, quantiles: np.ndarray) -> np.ndarray:
    """Map intensity quantiles to normalised times via the curve's CDF."""
    grid = np.linspace(0.0, 1.0, _GRID_POINTS)
    intensity = np.asarray(curve(grid), dtype=np.float64)
    if intensity.shape != grid.shape:
        raise ConfigurationError("rate curve must be vectorised over its input")
    if np.any(intensity < 0):
        raise ConfigurationError("rate curve produced a negative intensity")
    # trapezoid cumulative integral, normalised to a CDF
    steps = (intensity[1:] + intensity[:-1]) * 0.5 * np.diff(grid)
    cdf = np.concatenate(([0.0], np.cumsum(steps)))
    if cdf[-1] <= 0:
        raise ConfigurationError("rate curve integrates to zero")
    cdf /= cdf[-1]
    return np.interp(quantiles, cdf, grid)


def arrival_times(
    n: int,
    duration: float,
    *,
    curve: "RateCurve | str" = "constant",
    scheduler: str = "poisson",
    seed: int = 0,
    **curve_kwargs,
) -> np.ndarray:
    """``n`` sorted arrival times in ``[0, duration)`` under ``curve``.

    ``curve`` is a :data:`RateCurve` or a name for :func:`make_curve`
    (extra kwargs configure a named curve).  See the module docstring
    for the two schedulers.  Pure function of its arguments.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    if isinstance(curve, str):
        curve = make_curve(curve, **curve_kwargs)
    elif curve_kwargs:
        raise ConfigurationError("curve kwargs only apply to named curves")
    if scheduler == "poisson":
        rng = derive_rng(seed, 0x4C47)  # 'LG' stream tag
        quantiles = np.sort(rng.random(n))
    elif scheduler == "deterministic":
        quantiles = (np.arange(n, dtype=np.float64) + 0.5) / n
    else:
        raise ConfigurationError(
            f"unknown scheduler {scheduler!r}; available: {', '.join(SCHEDULERS)}"
        )
    return _inverse_cumulative(curve, quantiles) * duration
