"""Safety filter: closed form, QP, gating, and the grid-search oracle."""

import math

import numpy as np
import pytest

from conecbf import (
    CbfEvaluation,
    FilterConfig,
    ValidationError,
    activation_gate,
    filter_qp,
    filter_single,
)
from conecbf._backend import kernel

CFG = FilterConfig(gamma=1.0)


def ev(h, lfh, lg, pen=False, dist=10.0):
    return CbfEvaluation(h, lfh, tuple(lg), pen, dist)


def eval_from_psi(psi, lg, u_ref, gamma=1.0):
    """Construct an evaluation whose slack at u_ref equals psi (h = 0)."""
    lfh = psi - (lg[0] * u_ref[0] + lg[1] * u_ref[1])
    return ev(0.0, lfh, lg)


def _grid_sweep(u_ref, g, b, axis, lo, hi, step):
    """Grid one input axis at `step`; solve the other exactly per line.

    On each grid line the feasible set of the free coordinate is an
    interval, so the per-line optimum is its projection of u_ref. The
    returned gridded coordinate is therefore within one step of the true
    optimum, free of point-snapping noise.
    """
    n = round((hi - lo) / step)
    ug = lo + np.arange(n + 1) * step
    gk = g[:, axis]
    gf = g[:, 1 - axis]
    lo_f = np.full(ug.shape, -np.inf)
    hi_f = np.full(ug.shape, np.inf)
    ok = np.ones(ug.shape, dtype=bool)
    for gi_k, gi_f, bi in zip(gk, gf, b):
        rhs = bi - gi_k * ug  # need gi_f * u_free >= rhs on this line
        if gi_f > 1e-15:
            lo_f = np.maximum(lo_f, rhs / gi_f)
        elif gi_f < -1e-15:
            hi_f = np.minimum(hi_f, rhs / gi_f)
        else:
            ok &= rhs <= 1e-12
    ok &= lo_f <= hi_f
    if not ok.any():
        return None
    u_free = np.clip(u_ref[1 - axis], lo_f, np.maximum(lo_f, hi_f))
    d2 = (ug - u_ref[axis]) ** 2 + (u_free - u_ref[1 - axis]) ** 2
    d2[~ok] = np.inf
    k = int(np.argmin(d2))
    if axis == 0:
        return float(d2[k]), float(ug[k]), float(u_free[k])
    return float(d2[k]), float(u_free[k]), float(ug[k])


def squared_violation(u, g0s, g1s, bs):
    """Summed squared violation of the rows g . u >= b at u."""
    return sum(min(0.0, g0 * u[0] + g1 * u[1] - b) ** 2 for g0, g1, b in zip(g0s, g1s, bs))


def grid_search(u_ref, evals, gamma, lo=-12.0, hi=12.0, step=1e-3):
    """Brute-force grid minimizer of ||u - u_ref||^2, both sweep axes.

    Returns (d2, u0, u1, u0_gridded, u1_gridded) where u*_gridded come
    from the sweep that gridded that axis (accurate to one step in it).
    """
    g = np.array([e.lgh for e in evals], dtype=float)
    b = np.array([-(e.lfh + gamma * e.h) for e in evals], dtype=float)
    sweep0 = _grid_sweep(u_ref, g, b, 0, lo, hi, step)
    sweep1 = _grid_sweep(u_ref, g, b, 1, lo, hi, step)
    if sweep0 is None or sweep1 is None:
        return None
    best = min(sweep0, sweep1)
    return best[0], best[1], best[2], sweep0[1], sweep1[2]


class TestFilterSingle:
    def test_positive_slack_passthrough(self):
        e = eval_from_psi(0.3, (1.0, 0.5), (0.2, 0.1))
        res = filter_single((0.2, 0.1), e, CFG)
        assert res.u_safe == (0.0, 0.0)
        assert res.u_star == (0.2, 0.1)
        assert res.active_set == ()
        assert res.psi == pytest.approx((0.3,))

    def test_hand_case_axis_aligned(self):
        e = eval_from_psi(-2.0, (1.0, 0.0), (0.0, 0.0))
        res = filter_single((0.0, 0.0), e, CFG)
        assert res.u_safe == pytest.approx((2.0, 0.0))

    def test_hand_case_three_four(self):
        e = eval_from_psi(-25.0, (3.0, 4.0), (0.0, 0.0))
        res = filter_single((0.0, 0.0), e, CFG)
        assert res.u_safe == pytest.approx((3.0, 4.0))

    def test_degenerate_direction(self):
        e = eval_from_psi(-1.0, (0.0, 0.0), (0.5, 0.5))
        res = filter_single((0.5, 0.5), e, CFG)
        assert res.degenerate
        assert res.u_star == (0.5, 0.5)

    def test_constraint_restored_to_boundary(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u_ref = tuple(rng.uniform(-3, 3, 2))
            lg = tuple(rng.uniform(-2, 2, 2))
            if math.hypot(*lg) < 1e-3:
                continue
            e = ev(rng.uniform(-1, 1), rng.uniform(-3, 3), lg)
            res = filter_single(u_ref, e, CFG)
            resid = e.lfh + e.lgh[0] * res.u_star[0] + e.lgh[1] * res.u_star[1] + CFG.gamma * e.h
            assert resid >= -1e-9

    def test_continuity_across_switch(self):
        # |u_safe| <= C |psi| as psi -> 0- with ||lgh|| bounded away from 0
        lg = (0.8, -0.6)
        for psi in (-1e-2, -1e-4, -1e-6, -1e-9):
            e = eval_from_psi(psi, lg, (0.0, 0.0))
            res = filter_single((0.0, 0.0), e, CFG)
            assert math.hypot(*res.u_safe) <= 2.0 * abs(psi)

    def test_idempotent(self):
        e = ev(-0.4, -1.2, (1.3, -0.7))
        res = filter_single((1.0, 1.0), e, CFG)
        res2 = filter_single(res.u_star, e, CFG)
        assert math.hypot(*res2.u_safe) <= 1e-9


class TestFilterQp:
    def test_matches_single_on_1000_instances(self):
        rng = np.random.default_rng(4)
        n = 0
        while n < 1000:
            u_ref = tuple(rng.uniform(-4, 4, 2))
            lg = tuple(rng.uniform(-3, 3, 2))
            if math.hypot(*lg) < 1e-6:
                continue
            e = ev(rng.uniform(-2, 2), rng.uniform(-4, 4), lg)
            a = filter_single(u_ref, e, CFG)
            b = filter_qp(u_ref, [e], CFG)
            assert abs(a.u_star[0] - b.u_star[0]) <= 1e-8
            assert abs(a.u_star[1] - b.u_star[1]) <= 1e-8
            n += 1

    def test_interior_reference_untouched(self):
        e1 = eval_from_psi(0.5, (1.0, 0.0), (1.5, -0.5))
        e2 = eval_from_psi(0.2, (0.0, 1.0), (1.5, -0.5))
        res = filter_qp((1.5, -0.5), [e1, e2], CFG)
        assert res.u_star == (1.5, -0.5)  # exact, not approximate
        assert res.active_set == ()

    def test_two_constraint_grid_oracle(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 50:
            u_ref = tuple(rng.uniform(-2, 2, 2))
            evals = []
            for _ in range(2):
                ang = rng.uniform(0, 2 * math.pi)
                lg = (math.cos(ang) * rng.uniform(0.5, 2), math.sin(ang) * rng.uniform(0.5, 2))
                evals.append(ev(rng.uniform(-1.5, 0.5), rng.uniform(-2, 2), lg))
            res = filter_qp(u_ref, evals, CFG)
            if res.infeasible:
                continue
            if max(abs(res.u_star[0]), abs(res.u_star[1])) > 10.0:
                continue  # near-antiparallel wedge: optimum outside the oracle box
            got = grid_search(u_ref, evals, CFG.gamma)
            assert got is not None
            d2, u0, u1, u0_grid, u1_grid = got
            assert abs(res.u_star[0] - u0_grid) <= 1e-3 + 1e-9
            assert abs(res.u_star[1] - u1_grid) <= 1e-3 + 1e-9
            # never a worse objective than the grid's best point
            d2_qp = (res.u_star[0] - u_ref[0]) ** 2 + (res.u_star[1] - u_ref[1]) ** 2
            assert d2_qp <= d2 + 1e-9
            done += 1

    def test_minimality_against_grid(self):
        # ||u* - u_ref|| <= ||u - u_ref|| for every feasible grid point u
        rng = np.random.default_rng(12)
        us = np.arange(-6, 6, 7e-3)
        u0g, u1g = np.meshgrid(us, us)
        for _ in range(10):
            u_ref = tuple(rng.uniform(-1, 1, 2))
            evals = [
                ev(rng.uniform(-1, 0.5), rng.uniform(-1, 1),
                   (rng.uniform(0.3, 1.5), rng.uniform(-1.5, 1.5)))
                for _ in range(3)
            ]
            res = filter_qp(u_ref, evals, CFG)
            if res.infeasible:
                continue
            feas = np.ones(u0g.shape, dtype=bool)
            for e in evals:
                b = -(e.lfh + CFG.gamma * e.h)
                feas &= e.lgh[0] * u0g + e.lgh[1] * u1g >= b - 1e-12
            d_star = math.hypot(res.u_star[0] - u_ref[0], res.u_star[1] - u_ref[1])
            d_grid = np.hypot(u0g - u_ref[0], u1g - u_ref[1])
            assert not feas.any() or d_star <= d_grid[feas].min() + 1e-6

    def test_complementarity(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            u_ref = tuple(rng.uniform(-3, 3, 2))
            m = rng.integers(1, 5)
            evals = [
                ev(rng.uniform(-1, 1), rng.uniform(-2, 2),
                   (rng.uniform(-2, 2), rng.uniform(-2, 2)))
                for _ in range(m)
            ]
            evals = [e for e in evals if math.hypot(*e.lgh) > 1e-6]
            if not evals:
                continue
            res = filter_qp(u_ref, evals, CFG)
            if res.infeasible:
                continue
            for i, e in enumerate(evals):
                resid = e.lfh + e.lgh[0] * res.u_star[0] + e.lgh[1] * res.u_star[1] + e.h
                if i in res.active_set:
                    assert -1e-9 <= resid <= 1e-6
                else:
                    assert resid >= -1e-9

    def test_idempotent(self):
        e1 = ev(-0.5, -1.0, (1.0, 0.2))
        e2 = ev(-0.2, -0.5, (-0.3, 1.1))
        res = filter_qp((2.0, 1.0), [e1, e2], CFG)
        res2 = filter_qp(res.u_star, [e1, e2], CFG)
        assert math.hypot(res2.u_star[0] - res.u_star[0],
                          res2.u_star[1] - res.u_star[1]) <= 1e-9

    def test_box_bounds_respected(self):
        cfg = FilterConfig(gamma=1.0, input_bounds=((-1.0, 1.0), (-0.2, 0.2)))
        e = ev(-2.0, -3.0, (1.0, 0.0))
        res = filter_qp((0.0, 0.0), [e], cfg)
        assert -1.0 - 1e-12 <= res.u_star[0] <= 1.0 + 1e-12
        assert -0.2 - 1e-12 <= res.u_star[1] <= 0.2 + 1e-12

    def test_box_bounds_can_make_infeasible(self):
        cfg = FilterConfig(gamma=1.0, input_bounds=((-0.5, 0.5), (-0.5, 0.5)))
        e = ev(0.0, -10.0, (1.0, 0.0))  # needs u0 >= 10
        res = filter_qp((0.0, 0.0), [e], cfg)
        assert res.infeasible
        # violation minimizer saturates at the box
        assert res.u_star[0] == pytest.approx(0.5, abs=1e-6)

    def test_degenerate_constraint_flagged_and_excluded(self):
        e_deg = ev(-1.0, -1.0, (0.0, 0.0))
        e_ok = ev(-0.5, -1.0, (1.0, 0.0))
        res = filter_qp((0.0, 0.0), [e_deg, e_ok], CFG)
        assert res.degenerate
        # the controllable constraint is still enforced
        resid = e_ok.lfh + e_ok.lgh[0] * res.u_star[0] + e_ok.h
        assert resid >= -1e-9

    def test_antiparallel_infeasible(self):
        e1 = ev(0.0, -2.0, (1.0, 0.0))   # u0 >= 2
        e2 = ev(0.0, -2.0, (-1.0, 0.0))  # u0 <= -2
        res = filter_qp((0.0, 0.0), [e1, e2], CFG)
        assert res.infeasible
        # least-squares violation minimizer sits in the middle
        assert res.u_star[0] == pytest.approx(0.0, abs=1e-9)


    # each row once passed u_ref through with infeasible=False
    @pytest.mark.parametrize("h, lfh, lg", [
        (math.nan, 0.0, (1.0, 0.0)),
        (0.0, math.nan, (1.0, 0.0)),
        (0.0, 0.0, (math.nan, 0.0)),
        (0.0, -math.inf, (1.0, 0.0)),
        (math.inf, 0.0, (1.0, 0.0)),
    ], ids=["h-nan", "lfh-nan", "lgh-nan", "lfh-neg-inf", "h-inf"])
    def test_non_finite_row_fails_closed(self, h, lfh, lg):
        for res in (filter_qp((0.0, 0.0), [ev(h, lfh, lg)], CFG),
                    filter_single((0.0, 0.0), ev(h, lfh, lg), CFG)):
            assert res.infeasible
            assert res.u_star == (0.0, 0.0)
        # a finite row next to it is still enforced
        e_ok = ev(0.0, -1.0, (0.0, 1.0))  # needs u1 >= 1
        res = filter_qp((0.0, 0.0), [ev(h, lfh, lg), e_ok], CFG)
        assert res.infeasible
        assert res.u_star == pytest.approx((0.0, 1.0))
        assert res.active_set == (1,)


class TestSolveQp2:
    def test_vertex_among_three_rows(self):
        # u_ref violates rows 0 and 1; neither projection is feasible
        got = kernel.solve_qp2(0.4, -0.1, [1.0, -0.3, 0.2], [0.2, 1.1, -0.9], [0.8, 0.3, -0.5])
        assert got == (0.7068965517241379, 0.46551724137931033, (0, 1), True)

    def test_nan_row_never_feasible(self):
        assert kernel.solve_qp2(0.0, 0.0, [1.0], [0.0], [math.nan])[3] is False

    def test_least_violation_hand_case(self):
        # rows 0 and 1 meet far outside row 2; Gauss-Newton passes that keep
        # every step end at (-5, 5) with 77.44 of squared violation, against
        # 0.34 at u_ref
        rows = ([0.0, -0.3, 0.1], [0.1, -2.0, 0.0], [0.5, 0.3, -0.5])
        u0, u1, active, feasible = kernel.solve_qp2(0.0, 0.0, *rows)
        assert not feasible and active == ()
        assert squared_violation((u0, u1), *rows) <= squared_violation((0.0, 0.0), *rows)

    def test_least_violation_never_worse_than_u_ref(self):
        rng = np.random.default_rng(5)
        infeasible = 0
        for _ in range(1000):
            m = int(rng.integers(2, 8))
            rows = [rng.normal(size=m).tolist() for _ in range(3)]
            u_ref = tuple(rng.normal(size=2).tolist())
            u0, u1, _, feasible = kernel.solve_qp2(*u_ref, *rows)
            if feasible:
                continue
            infeasible += 1
            assert squared_violation((u0, u1), *rows) <= squared_violation(u_ref, *rows)
        assert infeasible > 300


class TestActivationGate:
    CFG10 = FilterConfig(gamma=1.0, activation_radius=10.0)

    def test_closed_boundary(self):
        assert activation_gate(10.0, self.CFG10)

    def test_just_outside(self):
        assert not activation_gate(10.0 + 1e-9, self.CFG10)

    def test_infinite_radius_always_active(self):
        assert activation_gate(1e12, FilterConfig(gamma=1.0))

    def test_rejects_negative_distance(self):
        with pytest.raises(ValidationError):
            activation_gate(-1.0, self.CFG10)


class TestFilterConfig:
    @pytest.mark.parametrize("field", ["gamma", "activation_radius", "regularization_eps"])
    @pytest.mark.parametrize("value", [float("nan"), 0.0])
    def test_rejects_nan_and_non_positive(self, field, value):
        with pytest.raises(ValidationError, match=field):
            FilterConfig(**{field: value})

    @pytest.mark.parametrize("field", ["gamma", "regularization_eps"])
    def test_rejects_infinite(self, field):
        with pytest.raises(ValidationError, match=field):
            FilterConfig(**{field: float("inf")})
