"""Minimal-deviation safety filter.

Given a reference input and one barrier constraint per obstacle, returns
the input closest to the reference among those satisfying

    lfh_i + lgh_i . u + gamma * h_i >= 0        for every active i,

that is, every i whose center distance lies within the activation radius.
One constraint solves in closed form (a switching law on the slack psi);
several go through the kernel's exact QP on the two-dimensional input.
Optional box bounds on u join the QP as rows; filter_qp answers inside them.
A run without a filter (cbf 'none') takes its tick from _unfiltered: psi
and the input refusals by the filters' own rule (_rows), and u_ref
saturated to the box.
"""

from dataclasses import dataclass
from math import inf as _INF, isfinite, isinf
from typing import NamedTuple

from ._backend import kernel
from .cbf import CbfEvaluation
from .errors import ValidationError
from .models import _require_finite, _require_vectors

# the C call that a FilterResult(...) call ends in, without the named
# tuple's Python-level __new__ frame (as the kernels build CbfEvaluation)
_tuple_new = tuple.__new__


@dataclass(frozen=True)
class FilterConfig:
    """Filter gains and gating.

    gamma              -- linear class-K gain in h' + gamma*h >= 0
    regularization_eps -- ||lgh|| threshold below which a violated
                          constraint is declared degenerate
    activation_radius  -- perception boundary; the filters enforce a
                          constraint only within this center distance
    input_bounds       -- optional ((lo0, hi0), (lo1, hi1)) box on u, kept
                          as a tuple of tuples
    """

    gamma: float = 1.0
    regularization_eps: float = 1e-10
    activation_radius: float = float("inf")
    input_bounds: tuple = None

    def __post_init__(self):
        # a NaN gain or radius would silently disable the filter
        names = ("gamma", "activation_radius", "regularization_eps")
        gains = [getattr(self, n) for n in names]
        _require_finite("FilterConfig", names, gains, inf_ok=("activation_radius",))
        for name, v in zip(names, gains):
            if not v > 0:
                raise ValidationError(f"{name} must be > 0, got {v}")
        if self.input_bounds is not None:
            bounds = _require_vectors(
                "FilterConfig.input_bounds", ("lo", "hi"), self.input_bounds, count=2, inf_ok=("lo", "hi")
            )
            for lo, hi in bounds:
                if not lo < hi:
                    raise ValidationError(f"empty input bound [{lo}, {hi}]")
            object.__setattr__(self, "input_bounds", bounds)
        # the box once per config (replace() builds it anew): its sides as
        # (lo0, hi0, lo1, hi1), infinite without input_bounds, to saturate
        # into, and its finite rows g . u >= b as (g0s, g1s, bs) for
        # filter_qp to append
        (lo0, hi0), (lo1, hi1) = self.input_bounds or ((-_INF, _INF), (-_INF, _INF))
        object.__setattr__(self, "_bounds", (lo0, hi0, lo1, hi1))
        box = ((1.0, 0.0, lo0), (-1.0, 0.0, -hi0), (0.0, 1.0, lo1), (0.0, -1.0, -hi1))
        rows = [row for row in box if not isinf(row[2])]
        object.__setattr__(self, "_box_rows", tuple(zip(*rows)) or ((), (), ()))
        # the degeneracy threshold on ||lgh||^2, also once per config; not a
        # field, so scenario documents do not carry it
        object.__setattr__(self, "_eps2", self.regularization_eps * self.regularization_eps)


class FilterResult(NamedTuple):
    """Filtered input and bookkeeping, as an immutable record (named tuple).

    u_star = u_ref + u_safe, inside the input box; active_set holds the
    ascending indices (into the supplied evaluations) of binding constraints;
    psi holds the slack of every constraint at u_ref. `degenerate` marks violated
    but uncontrollable constraints (||lgh|| below threshold); `infeasible` a
    non-finite constraint or an empty intersection, where u_star is the point of
    the box of least summed squared violation, of equals the one nearest u_ref
    on the box's edges (as filter_qp states). The filters build it with one
    `tuple.__new__` call, as CbfEvaluation is built, and pass all six fields.
    """

    u_star: tuple
    u_safe: tuple
    active_set: tuple = ()
    psi: tuple = ()
    degenerate: bool = False
    infeasible: bool = False


def activation_gate(dist: float, cfg: FilterConfig) -> bool:
    """Whether an obstacle at center distance `dist` participates.

    A distance that is not a number >= 0 (NaN, negative, a string, a bool)
    raises ValidationError: gating it out would drop the obstacle from the
    filter. So does a `cfg` that is not a FilterConfig.
    """
    try:
        if dist.__class__ is not bool and dist >= 0:
            return dist <= cfg.activation_radius
    except TypeError:
        pass
    except AttributeError as exc:
        raise ValidationError(f"activation_gate needs a FilterConfig: {exc}") from exc
    raise ValidationError(f"distance must be a number >= 0, got {dist!r}")


def _rows(u_ref, evals, cfg: FilterConfig, where: str):
    """The one rule by which both filters turn evaluations into rows.

    Computes every psi = lfh + lgh . u_ref + gamma*h and admits as a row
    g . u >= b (g = lgh, b = -(lfh + gamma*h)) each evaluation that passes
    activation_gate with a finite psi and ||lgh|| > regularization_eps.
    A degenerate one (||lgh|| <= regularization_eps) is input-independent:
    it holds on its own (psi >= 0) or cannot be fixed (flags degenerate).
    A non-finite psi flags nonfinite unless every input meets its row.
    Returns (ur0, ur1), psis, (g0s, g1s, bs), idx, box_rows, degenerate,
    nonfinite: the rows as lists with their evaluation indices, and the
    config's finite box rows. A cfg without the config's fields, a u_ref
    that is not a pair of finite numbers (a bool is none) or a malformed
    evaluation fails in the reads, the unpacking, the range test, a psi or
    the gate, and raises ValidationError naming `where`.
    """
    g0s, g1s, bs, idx, psis = [], [], [], [], []
    degenerate = nonfinite = False
    # + 0.0 turns an integer beyond the doubles into OverflowError
    try:
        gamma, eps2, box_rows = cfg.gamma, cfg._eps2, cfg._box_rows
        ur0, ur1 = u_ref
        if ur0.__class__ is bool or ur1.__class__ is bool or not (
                -_INF < ur0 + 0.0 < _INF and -_INF < ur1 + 0.0 < _INF):
            raise ValidationError(f"u_ref must be a pair of finite numbers, got {u_ref!r}")
        for i, e in enumerate(evals):
            g0, g1 = e.lgh
            lfh = e.lfh
            gh = gamma * e.h
            psi = lfh + g0 * ur0 + g1 * ur1 + gh
            psis.append(psi)
            if not activation_gate(e.dist, cfg):
                continue
            if not isfinite(psi):
                # met by every input: under a finite g, an offset lfh + gh
                # of +inf makes the row g . u >= -inf, and psi +inf. Any
                # other (psi NaN or -inf, g infinite, or psi +inf from an
                # overflowing g . u_ref) never counts as met
                if not (psi == _INF and lfh + gh == _INF and isfinite(g0) and isfinite(g1)):
                    nonfinite = True
                continue
            if g0 * g0 + g1 * g1 <= eps2:
                if psi < 0.0:
                    degenerate = True
                continue
            g0s.append(g0)
            g1s.append(g1)
            bs.append(-(lfh + gh))
            idx.append(i)
    except (TypeError, ValueError, IndexError, OverflowError, AttributeError) as exc:
        raise ValidationError(
            f"{where} needs a pair of finite numbers u_ref, CbfEvaluation records and a FilterConfig: {exc}"
        ) from exc
    return (ur0, ur1), psis, (g0s, g1s, bs), idx, box_rows, degenerate, nonfinite


def filter_single(u_ref, e: CbfEvaluation, cfg: FilterConfig) -> FilterResult:
    """Closed-form filter for one constraint (no box bounds).

    The evaluation makes a row by the rule filter_qp applies (_rows). A
    violated row is corrected by the least-norm input restoring psi = 0;
    otherwise the reference passes through, flagged as _rows flags it. A
    finite box row raises ValidationError, as does any input _rows refuses.
    """
    (ur0, ur1), (psi,), (g0s, g1s, _), _, box_rows, degenerate, nonfinite = _rows(
        u_ref, (e,), cfg, "filter_single"
    )
    if box_rows[2]:
        raise ValidationError("filter_single cannot honour input_bounds; use filter_qp")
    if not g0s or psi >= 0.0:
        return _tuple_new(FilterResult, ((ur0, ur1), (0.0, 0.0), (), (psi,), degenerate, nonfinite))
    g0, g1 = g0s[0], g1s[0]
    gg = g0 * g0 + g1 * g1
    u_safe = (-g0 * psi / gg, -g1 * psi / gg)
    u_star = (ur0 + u_safe[0], ur1 + u_safe[1])
    return _tuple_new(FilterResult, (u_star, u_safe, (0,), (psi,), False, False))


def filter_qp(u_ref, evals, cfg: FilterConfig) -> FilterResult:
    """Stacked-constraint filter; exact QP on the 2-D input.

    Every psi is reported; the rows solved are the ones _rows admits, plus
    the config's finite box rows, and _rows' flags carry over. Every answer
    is saturated into the box, which the QP meets only within its tolerance.
    If no input in the box meets every row, the step is flagged and
    kernel.least_violation answers with the least summed squared violation of
    the barrier rows: from u_ref, else on the box's finite edges (of equal
    sums the point nearest u_ref); directions no violated row pins keep
    u_ref's value. Any input _rows refuses raises ValidationError. With no
    rows to solve, u_ref passes through.
    """
    (ur0, ur1), psis, (g0s, g1s, bs), idx, (box_g0s, box_g1s, box_bs), degenerate, nonfinite = _rows(
        u_ref, evals, cfg, "filter_qp"
    )
    n_barrier = len(bs)
    if box_bs:
        g0s.extend(box_g0s)
        g1s.extend(box_g1s)
        bs.extend(box_bs)
    u0, u1, active, feasible = kernel.solve_qp2(ur0, ur1, g0s, g1s, bs)
    if box_bs or not feasible:
        lo0, hi0, lo1, hi1 = cfg._bounds
        if not feasible:
            rows = g0s[:n_barrier], g1s[:n_barrier], bs[:n_barrier]
            u0, u1 = kernel.least_violation(ur0, ur1, *rows, lo0, hi0, lo1, hi1)
        u0, u1 = min(max(u0, lo0), hi0), min(max(u1, lo1), hi1)
    # box rows follow the barrier rows and `active` ascends, so the barrier
    # rows among it map to ascending evaluation indices
    return _tuple_new(FilterResult, (
        (u0, u1),
        (u0 - ur0, u1 - ur1),
        tuple([idx[k] for k in active if k < n_barrier]) if active else (),
        tuple(psis),
        degenerate,
        nonfinite or not feasible,
    ))


def _unfiltered(u_ref, evals, cfg: FilterConfig) -> FilterResult:
    """The tick of a run that filters nothing (cbf 'none').

    psi and the refusals are those of _rows, so the run logs and refuses
    what a filtering run would; u_ref is saturated to the box, as the
    actuators would saturate it. No row binds and no flag is set.
    """
    (ur0, ur1), psis, *_ = _rows(u_ref, evals, cfg, "_unfiltered")
    lo0, hi0, lo1, hi1 = cfg._bounds
    u0, u1 = min(max(ur0, lo0), hi0), min(max(ur1, lo1), hi1)
    return _tuple_new(FilterResult, ((u0, u1), (u0 - ur0, u1 - ur1), (), tuple(psis), False, False))
