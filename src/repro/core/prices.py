"""Price computation: gradient projection updates (Section 4.3).

Prices measure congestion.  Each resource owns its price ``μ_r``; each task
controller owns the prices ``λ_p`` of its paths.  Both move opposite the
gradient of the dual objective (Low & Lapsley's method, which the paper
adopts):

    μ_r(t+1) = [ μ_r(t) − γ_r · (B_r − Σ_s share_r(s, lat_s)) ]⁺      (Eq. 8)
    λ_p(t+1) = [ λ_p(t) − γ_p · (1 − Σ_{s∈p} lat_s / C_i) ]⁺          (Eq. 9)

The ``[·]⁺`` projection onto the non-negative orthant is required by the
gradient projection method (dual variables of inequality constraints are
non-negative); the paper's formulas leave it implicit.

An overloaded resource (share sum above ``B_r``) has a negative gradient
component, so its price rises; a path with slack sees its price decay to
zero.

These are the per-price forms the distributed agents apply; the engine
(:mod:`repro.core.vectorized`) applies the same rules as array updates.
"""

from __future__ import annotations

import math

from repro.errors import OptimizationError

__all__ = [
    "update_resource_price",
    "update_path_price",
]


def update_resource_price(price: float, gamma: float, availability: float,
                          load: float) -> float:
    """One projected gradient step of Eq. 8.

    ``load`` is the share sum ``Σ share_r(s, lat_s)`` currently requested
    on the resource.
    """
    return max(0.0, price - gamma * (availability - load))


def update_path_price(price: float, gamma: float, path_latency: float,
                      critical_time: float) -> float:
    """One projected gradient step of Eq. 9.

    The gradient component is the path's *relative slack*
    ``1 − Σ lat / C_i``: positive slack decays the price, a violated path
    (latency above the critical time) raises it.

    The critical time must be positive and finite: zero would divide the
    gradient away, ``inf``/``nan`` would silently freeze it at a constant
    1.0 and the price would decay to zero regardless of the latency.
    """
    if not (critical_time > 0.0 and math.isfinite(critical_time)):
        raise OptimizationError(
            "path price update needs a positive, finite critical time, "
            f"got {critical_time!r}"
        )
    return max(0.0, price - gamma * (1.0 - path_latency / critical_time))
