"""Step-size policies for the price updates (Section 5.2).

The price adjustments (Eqs. 8–9) are gradient steps whose sizes ``γ_r``,
``γ_p`` trade convergence speed against oscillation.  The paper evaluates
fixed step sizes (Figure 5: γ = 0.1 converges in >1000 iterations, γ = 1 in
~500, γ = 10 oscillates) and proposes an adaptive heuristic:

1. start from a fixed γ;
2. at each iteration, while a resource is congested, double its step size
   and the step sizes of every path traversing it;
3. as soon as the resource becomes uncongested, revert to the initial value.

Both policies are parameter records: the iteration engine turns them into
per-round γ arrays (:func:`repro.core.vectorized.gamma_spec`), and the
distributed agents keep their own per-price doubling state
(:class:`repro.distributed.agents.LocalGamma`).
"""

from __future__ import annotations

from repro.errors import OptimizationError

__all__ = ["StepSizePolicy", "FixedStepSize", "AdaptiveStepSize"]


class StepSizePolicy:
    """Base of the step-size rules for ``γ_r`` per resource and ``γ_p`` per
    path (Eqs. 8–9)."""


class FixedStepSize(StepSizePolicy):
    """A single constant γ for all resources and paths.

    Section 5.2 assumes ``γ_r = γ_p = γ`` for a fair trade-off between
    resource allocation and latency; a distinct ``path_gamma`` is still
    supported for ablations.
    """

    def __init__(self, gamma: float, path_gamma: float | None = None) -> None:
        if gamma <= 0.0:
            raise OptimizationError(f"step size must be positive, got {gamma!r}")
        self.gamma = float(gamma)
        self.path_gamma = float(path_gamma) if path_gamma is not None \
            else self.gamma
        if self.path_gamma <= 0.0:
            raise OptimizationError(
                f"path step size must be positive, got {path_gamma!r}"
            )

    def __repr__(self) -> str:
        return f"FixedStepSize(gamma={self.gamma}, path_gamma={self.path_gamma})"


class AdaptiveStepSize(StepSizePolicy):
    """The paper's multiplicative congestion heuristic.

    While a resource stays congested its γ doubles every iteration (capped
    at ``max_gamma`` to keep the arithmetic finite); the γ of every path
    that traverses the resource doubles with it.  A path violating its own
    critical-time constraint doubles too, even when no resource on it is
    congested — path prices are driven by the same gradient-projection
    update, so a stalled latency constraint needs the same acceleration as
    a stalled capacity constraint.  The moment a trigger clears, the γ it
    was sustaining snaps back to ``initial_gamma``.

    The two path triggers keep *independent* doubling states, and a path
    is served the largest currently-active one.  The isolation matters: a
    path's constraint typically first becomes violated the instant its
    resources decongest (the price collapse lets latencies jump), and if
    the direct violation inherited the γ already escalated by several
    iterations of resource coverage, the very first Eq. 9 step would be
    taken at ``max_gamma`` — large enough to slam latencies between their
    clamps and lock the iteration into a limit cycle.  Starting each
    cause's escalation from ``initial_gamma`` keeps the first corrective
    step small and only accelerates *persistent* stalls.

    The paper obtained its best results starting from γ = 1.

    Deviation from the paper: growth is capped at ``max_gamma`` (default 8).
    With our reconstructed Figure-4 topology, unbounded doubling overshoots
    so far that latencies slam between their clamps and the iteration never
    settles; a modest cap preserves the heuristic's speedup (≈2× faster
    settling than fixed γ = 1) while keeping the prices stable.
    """

    def __init__(self, initial_gamma: float = 1.0, growth: float = 2.0,
                 max_gamma: float = 8.0) -> None:
        if initial_gamma <= 0.0:
            raise OptimizationError(
                f"initial step size must be positive, got {initial_gamma!r}"
            )
        if growth <= 1.0:
            raise OptimizationError(f"growth must exceed 1, got {growth!r}")
        self.initial_gamma = float(initial_gamma)
        self.growth = float(growth)
        self.max_gamma = float(max_gamma)

    def __repr__(self) -> str:
        return (
            f"AdaptiveStepSize(initial_gamma={self.initial_gamma}, "
            f"growth={self.growth}, max_gamma={self.max_gamma})"
        )
