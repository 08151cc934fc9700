"""Minimal-deviation safety filter.

Given a reference input and one barrier constraint per obstacle, returns
the input closest to the reference among those satisfying

    lfh_i + lgh_i . u + gamma * h_i >= 0        for every active i.

One constraint solves in closed form (a switching law on the slack psi);
several go through the kernel's exact QP on the two-dimensional input.
Optional box bounds on u join the QP as extra rows.
"""

from dataclasses import dataclass
from math import isfinite, isinf, sqrt

from ._backend import kernel
from .cbf import CbfEvaluation
from .errors import ValidationError


@dataclass(frozen=True)
class FilterConfig:
    """Filter gains and gating.

    gamma              -- linear class-K gain in h' + gamma*h >= 0
    activation_radius  -- perception boundary; constraints participate
                          only within this center distance
    regularization_eps -- ||lgh|| threshold below which a violated
                          constraint is declared degenerate
    input_bounds       -- optional ((lo0, hi0), (lo1, hi1)) box on u
    """

    gamma: float = 1.0
    activation_radius: float = float("inf")
    regularization_eps: float = 1e-10
    input_bounds: tuple = None

    def __post_init__(self):
        # `not x > 0` also rejects NaN, which would silently disable the filter
        if not 0 < self.gamma < float("inf"):
            raise ValidationError(f"gamma must be finite and > 0, got {self.gamma}")
        if not self.activation_radius > 0:
            raise ValidationError(
                f"activation_radius must be > 0, got {self.activation_radius}"
            )
        if not 0 < self.regularization_eps < float("inf"):
            raise ValidationError(
                f"regularization_eps must be finite and > 0, got {self.regularization_eps}"
            )
        if self.input_bounds is not None:
            if len(self.input_bounds) != 2:
                raise ValidationError("input_bounds must give (lo, hi) per component")
            for lo, hi in self.input_bounds:
                if not lo < hi:
                    raise ValidationError(f"empty input bound [{lo}, {hi}]")


@dataclass(frozen=True)
class FilterResult:
    """Filtered input and bookkeeping.

    u_star = u_ref + u_safe; active_set holds indices (into the supplied
    evaluations) of binding constraints; psi holds the slack of every
    constraint at the reference input. `degenerate` marks constraints
    that were violated but uncontrollable (||lgh|| below threshold);
    `infeasible` marks an empty constraint intersection, in which case
    u_star violates the constraints, summed squared, no more than u_ref.
    """

    u_star: tuple
    u_safe: tuple
    active_set: tuple = ()
    psi: tuple = ()
    degenerate: bool = False
    infeasible: bool = False


def activation_gate(dist: float, cfg: FilterConfig) -> bool:
    """Whether an obstacle at center distance `dist` participates."""
    if dist < 0:
        raise ValidationError(f"distance must be >= 0, got {dist}")
    return dist <= cfg.activation_radius


def filter_single(u_ref, e: CbfEvaluation, cfg: FilterConfig) -> FilterResult:
    """Closed-form filter for one constraint (no box bounds).

    psi >= 0 leaves the reference untouched; otherwise the correction is
    the least-norm input restoring psi = 0. A violated constraint with
    ||lgh|| below regularization_eps cannot be influenced: the result is
    flagged degenerate and the reference passes through. A non-finite
    psi (NaN or infinite h, lfh or lgh) cannot be met: the reference
    passes through flagged infeasible, as in filter_qp.
    """
    g0, g1 = e.lgh
    psi = e.lfh + g0 * u_ref[0] + g1 * u_ref[1] + cfg.gamma * e.h
    if not isfinite(psi):
        return FilterResult(tuple(u_ref), (0.0, 0.0), (), (psi,), infeasible=True)
    if psi >= 0.0:
        return FilterResult(tuple(u_ref), (0.0, 0.0), (), (psi,))
    gg = g0 * g0 + g1 * g1
    if sqrt(gg) <= cfg.regularization_eps:
        return FilterResult(tuple(u_ref), (0.0, 0.0), (), (psi,), degenerate=True)
    u_safe = (-g0 * psi / gg, -g1 * psi / gg)
    u_star = (u_ref[0] + u_safe[0], u_ref[1] + u_safe[1])
    return FilterResult(u_star, u_safe, (0,), (psi,))


def filter_qp(u_ref, evals, cfg: FilterConfig) -> FilterResult:
    """Stacked-constraint filter; exact QP on the 2-D input.

    Degenerate constraints (||lgh|| <= regularization_eps) are excluded
    from the QP -- they are input-independent, so they either hold on
    their own (psi >= 0) or cannot be fixed (flagged). A constraint whose
    h, lfh or lgh is NaN or infinite (its psi is then not finite) is
    excluded too and flags the result infeasible: it can never count as
    met. With box bounds configured, saturation can make the rest
    infeasible; that is flagged, and the input returned has a summed
    squared violation no larger than u_ref's (not always the least).
    """
    evals = list(evals)
    ur0, ur1 = u_ref
    g0s, g1s, bs, idx = [], [], [], []
    psis = []
    degenerate = nonfinite = False
    eps2 = cfg.regularization_eps * cfg.regularization_eps
    for i, e in enumerate(evals):
        g0, g1 = e.lgh
        psi = e.lfh + g0 * ur0 + g1 * ur1 + cfg.gamma * e.h
        psis.append(psi)
        if not isfinite(psi):
            nonfinite = True
            continue
        if g0 * g0 + g1 * g1 <= eps2:
            if psi < 0.0:
                degenerate = True
            continue
        g0s.append(g0)
        g1s.append(g1)
        bs.append(-(e.lfh + cfg.gamma * e.h))
        idx.append(i)
    if cfg.input_bounds is not None:
        (lo0, hi0), (lo1, hi1) = cfg.input_bounds
        for g0, g1, b in (
            (1.0, 0.0, lo0),
            (-1.0, 0.0, -hi0),
            (0.0, 1.0, lo1),
            (0.0, -1.0, -hi1),
        ):
            if not isinf(b):
                g0s.append(g0)
                g1s.append(g1)
                bs.append(b)
                idx.append(-1)
    if not bs:
        return FilterResult(
            (ur0, ur1), (0.0, 0.0), (), tuple(psis), degenerate=degenerate,
            infeasible=nonfinite,
        )
    u0, u1, active, feasible = kernel.solve_qp2(ur0, ur1, g0s, g1s, bs)
    active_set = tuple(sorted(idx[k] for k in active if idx[k] >= 0))
    return FilterResult(
        (u0, u1),
        (u0 - ur0, u1 - ur1),
        active_set,
        tuple(psis),
        degenerate=degenerate,
        infeasible=nonfinite or not feasible,
    )
