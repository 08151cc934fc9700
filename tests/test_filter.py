"""Safety filter: closed form, QP, gating, and the exact oracle on recorded solves."""

import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conecbf import (
    CbfEvaluation,
    FilterConfig,
    FilterResult,
    ModelParams,
    Obstacle,
    UnicycleState,
    ValidationError,
    activation_gate,
    c3bf_eval,
    filter_qp,
    filter_single,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from conecbf._backend import kernel
from conftest import ev, exact_qp, rows_of, violation_gap

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from crowd import crowd_documents  # noqa: E402  (the benchmark's crowd scenes)

CFG = FilterConfig(gamma=1.0)
# least_violation's box bounds (lo0, hi0, lo1, hi1) with no box
NO_BOX = (-math.inf, math.inf, -math.inf, math.inf)


def eval_from_psi(psi, lg, u_ref, gamma=1.0):
    """Construct an evaluation whose slack at u_ref equals psi (h = 0)."""
    lfh = psi - (lg[0] * u_ref[0] + lg[1] * u_ref[1])
    return ev(0.0, lfh, lg)


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
    def test_interior_reference_untouched(self):
        e1 = eval_from_psi(0.5, (1.0, 0.0), (1.5, -0.5))
        e2 = eval_from_psi(0.2, (0.0, 1.0), (1.5, -0.5))
        res = filter_qp((1.5, -0.5), [e1, e2], CFG)
        assert res.u_star == (1.5, -0.5)  # exact, not approximate
        assert res.active_set == ()

    def test_three_rows_reach_the_exact_optimum(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u_ref = tuple(rng.uniform(-1, 1, 2))
            evals = [
                ev(rng.uniform(-1, 0.5), rng.uniform(-1, 1),
                   (rng.uniform(0.3, 1.5), rng.uniform(-1.5, 1.5)))
                for _ in range(3)
            ]
            res = filter_qp(u_ref, evals, CFG)
            got = exact_qp(u_ref, *rows_of(evals))
            assert got is not None and not res.infeasible
            d2, u0, u1 = got
            assert abs(res.u_star[0] - u0) <= 1e-12 and abs(res.u_star[1] - u1) <= 1e-12
            d2_qp = sum((Fraction(u) - Fraction(r)) ** 2 for u, r in zip(res.u_star, u_ref))
            assert abs(d2_qp - d2) <= 1e-12 * d2

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
        e = ev(-2.0, -3.0, (1.0, 0.0))  # needs u0 >= 5
        res = filter_qp((0.0, 0.0), [e], cfg)
        assert -1.0 - 1e-12 <= res.u_star[0] <= 1.0 + 1e-12
        assert -0.2 - 1e-12 <= res.u_star[1] <= 0.2 + 1e-12
        # the least violation over the box lies on the face u0 = 1; u1 is
        # pinned by no row and keeps u_ref's value
        assert res.u_star == (1.0, 0.0) and res.infeasible

    def test_box_bounds_can_make_infeasible(self):
        cfg = FilterConfig(gamma=1.0, input_bounds=((-0.5, 0.5), (-0.5, 0.5)))
        e = ev(0.0, -10.0, (1.0, 0.0))  # needs u0 >= 10
        res = filter_qp((0.0, 0.0), [e], cfg)
        assert res.infeasible
        # violation minimizer saturates at the box
        assert res.u_star[0] == pytest.approx(0.5, abs=1e-6)
        assert res.u_star == (0.5, 0.0)

    def test_equal_violations_go_to_the_edge_nearest_u_ref(self):
        # u1 >= 1 and u1 <= -1 conflict whatever u0 is; with u0 boxed to
        # [-1, 1] and u_ref = (3, 0) both faces u0 = -1 and u0 = 1 hold the
        # least violation, and the rule keeps u0 at u_ref's saturated value
        cfg = FilterConfig(gamma=1.0, input_bounds=((-1.0, 1.0), (-math.inf, math.inf)))
        evals = [ev(0.0, -1.0, (0.0, 1.0), dist=1.0), ev(0.0, -1.0, (0.0, -1.0), dist=1.0)]
        res = filter_qp((3.0, 0.0), evals, cfg)
        assert res.u_star == (1.0, 0.0) and res.infeasible
        assert filter_qp((-3.0, 0.0), evals, cfg).u_star == (-1.0, 0.0)
        # the mirror: rows u0 >= 1 and u0 <= -1, u1 boxed to [-1, 1]
        cfg = FilterConfig(gamma=1.0, input_bounds=((-math.inf, math.inf), (-1.0, 1.0)))
        evals = [ev(0.0, -1.0, (1.0, 0.0), dist=1.0), ev(0.0, -1.0, (-1.0, 0.0), dist=1.0)]
        assert filter_qp((0.0, 3.0), evals, cfg).u_star == (0.0, 1.0)
        assert filter_qp((0.0, -3.0), evals, cfg).u_star == (0.0, -1.0)

    def test_u_star_inside_box_bit_for_bit(self):
        # passthrough, feasible and infeasible answers all lie inside the
        # box exactly: the QP meets box rows only within its tolerance, and
        # an infeasible step's least violation is taken over the box
        rng = np.random.default_rng(17)
        kinds = {"passthrough": 0, "feasible": 0, "infeasible": 0}
        for _ in range(3000):
            lo = rng.uniform(-2.0, 0.0, 2)
            hi = rng.uniform(0.0, 2.0, 2) + 1e-3
            bounds = [[float(lo[k]), float(hi[k])] for k in range(2)]
            for k in range(2):
                side = rng.integers(0, 4)
                if side < 2:
                    bounds[k][side] = math.inf * (1 if side else -1)
            cfg = FilterConfig(gamma=1.0, input_bounds=tuple(map(tuple, bounds)))
            u_ref = tuple(rng.uniform(-3.0, 3.0, 2).tolist())
            evals = [ev(float(rng.uniform(-1, 1)), float(rng.uniform(-2, 2)),
                        rng.normal(size=2).tolist()) for _ in range(int(rng.integers(1, 5)))]
            res = filter_qp(u_ref, evals, cfg)
            for u, (lo_k, hi_k) in zip(res.u_star, cfg.input_bounds):
                assert lo_k <= u <= hi_k
            if res.infeasible:
                kinds["infeasible"] += 1
            elif res.u_star == u_ref:
                kinds["passthrough"] += 1
            else:
                kinds["feasible"] += 1
        assert min(kinds.values()) > 100, kinds

    def test_box_bounded_infeasible_has_the_least_violation(self):
        # on an infeasible step the answer has the least summed squared
        # violation f of the barrier rows over the box: the first-order
        # bound on f(u*) - min f over the box is at rounding level
        rng = np.random.default_rng(23)
        done = 0
        while done < 60:
            lo = rng.uniform(-2.0, -0.2, 2)
            hi = rng.uniform(0.2, 2.0, 2)
            cfg = FilterConfig(gamma=1.0, input_bounds=((lo[0], hi[0]), (lo[1], hi[1])))
            u_ref = tuple(rng.uniform(-3.0, 3.0, 2).tolist())
            evals = [ev(float(rng.uniform(-2, 0)), float(rng.uniform(-4, 1)),
                        rng.normal(size=2).tolist()) for _ in range(int(rng.integers(1, 5)))]
            res = filter_qp(u_ref, evals, cfg)
            if not res.infeasible:
                continue
            f, gap = violation_gap(res.u_star, rows_of(evals), (lo[0], hi[0], lo[1], hi[1]))
            assert f > 0 and gap <= 1e-12 * (1 + f)
            done += 1

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


    # each row once passed u_ref through with infeasible=False; an infinite
    # lgh under an offset of +inf is a row no input is known to meet
    @pytest.mark.parametrize("h, lfh, lg", [
        (math.nan, 0.0, (1.0, 0.0)),
        (0.0, math.nan, (1.0, 0.0)),
        (0.0, 0.0, (math.nan, 0.0)),
        (0.0, -math.inf, (1.0, 0.0)),
        (-math.inf, 0.0, (1.0, 0.0)),
        (math.inf, 0.0, (math.inf, 0.0)),
    ], ids=["h-nan", "lfh-nan", "lgh-nan", "lfh-neg-inf", "h-neg-inf", "h-inf-lgh-inf"])
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

    @pytest.mark.parametrize("h, lfh", [(math.inf, 0.0), (0.0, math.inf), (math.inf, math.inf)],
                             ids=["h-inf", "lfh-inf", "both-inf"])
    def test_psi_of_plus_inf_is_met(self, h, lfh):
        # lfh + gamma*h = +inf under a finite lgh is the row g . u >= -inf,
        # which every input meets: it adds no row and flags nothing
        e = CbfEvaluation(h, lfh, (1.0, 0.0), False, 1.0)
        for res in (filter_qp((1.0, 0.0), [e], FilterConfig()), filter_single((1.0, 0.0), e, FilterConfig())):
            assert res == ((1.0, 0.0), (0.0, 0.0), (), (math.inf,), False, False)
        # a finite violated row next to it is enforced alone
        e_ok = ev(0.0, -1.0, (0.0, 1.0))  # needs u1 >= 1
        res = filter_qp((0.0, 0.0), [ev(h, lfh, (1.0, 0.0)), e_ok], CFG)
        assert res == ((0.0, 1.0), (0.0, 1.0), (1,), (math.inf, -1.0), False, False)

    def test_psi_of_plus_inf_from_a_finite_offset_fails_closed(self):
        # here psi overflows in lgh . u_ref while the offset lfh + gamma*h is
        # finite: the row g . u >= 0 is real, and it is not counted as met
        e = ev(0.0, 0.0, (1e300, 0.0))
        for res in (filter_qp((1e10, 0.0), [e], CFG), filter_single((1e10, 0.0), e, CFG)):
            assert res.psi == (math.inf,) and res.infeasible


class TestSolveQp2:
    def test_vertex_among_three_rows(self):
        # u_ref violates rows 0 and 1; neither projection is feasible
        got = kernel.solve_qp2(0.4, -0.1, [1.0, -0.3, 0.2], [0.2, 1.1, -0.9], [0.8, 0.3, -0.5])
        assert got == (0.7068965517241379, 0.46551724137931033, (0, 1), True)

    def test_rows_met_within_the_relative_tolerance(self):
        # a row counts as met where u misses it by at most _FEAS_TOL (1 + |b|)
        assert kernel.solve_qp2(-1e-10, 0.0, [1.0], [0.0], [0.0]) == (-1e-10, 0.0, (), True)
        assert kernel.solve_qp2(1e6 - 1e-5, 0.0, [1.0], [0.0], [1e6]) == (1e6 - 1e-5, 0.0, (), True)
        assert kernel.solve_qp2(1e6 - 1e-3, 0.0, [1.0], [0.0], [1e6]) == (1e6, 0.0, (0,), True)

    def test_nan_row_never_feasible(self):
        assert kernel.solve_qp2(0.0, 0.0, [1.0], [0.0], [math.nan])[3] is False

    def test_closest_candidate_when_no_kkt_point(self):
        # u0 <= -8.5985251e-05 and u0 >= -8.5985250e-05 leave an empty strip
        # 7.6e-10 wide, met only within the feasibility tolerance: the
        # projection onto row 1 is the closest feasible candidate, though
        # u_ref already meets row 1 (its multiplier is negative)
        got = kernel.solve_qp2(
            2.9998280302686386, -0.0, [-0.13001373128710458, 0.6175458268877421], [0.0, -0.0],
            [1.1179362614788462e-05, -5.3099833001453664e-05],
        )
        assert got == (-8.59852511174708e-05, 0.0, (1,), True)

    def test_candidate_at_an_overflowing_distance(self):
        # the projection onto row 0 is feasible 1e200 away, a squared
        # distance beyond the floats: it ranks as inf, below the vertex of
        # rows 1 and 2, and raises nothing
        got = kernel.solve_qp2(0.0, 0.0, [1.0, -1.0, -1.0], [0.0, 1.0, -1.0], [-1e200, 1.0, 1.0])
        assert got == (-1.0, 0.0, (1, 2), True)

    def test_opposed_rows_meet_far_away(self):
        # the normals are 5.3e-14 rad from opposed, so the rows meet 4.4e13
        # away, where the exact optimum lies: the vertex is found, not
        # skipped as near-parallel
        u_ref, rows = (-0.41722454365601636, 0.19445214053672175), (
            [-0.44827371847060987, 0.448273718470713], [0.10957096148347521, -0.10957096148347521],
            [0.30841722139124067, 0.7759920341408423])
        _, e0, e1 = exact_qp(u_ref, *rows)
        u0, u1, active, feasible = kernel.solve_qp2(*u_ref, *rows)
        assert feasible and active == (0, 1)
        assert u0 == pytest.approx(float(e0), rel=1e-3) and u1 == pytest.approx(float(e1), rel=1e-3)

    def test_infeasible_returns_u_ref(self):
        # solve_qp2 only solves; the caller picks an infeasible step's input
        rows = ([1.0, -1.0], [0.0, 0.0], [2.0, 2.0])
        assert kernel.solve_qp2(0.3, -0.1, *rows) == (0.3, -0.1, (), False)

    def test_least_violation_hand_case(self):
        # rows 0 and 1 meet far outside row 2; Gauss-Newton passes that keep
        # every step end at (-5, 5) with 77.44 of squared violation, against
        # 0.34 at u_ref
        rows = ([0.0, -0.3, 0.1], [0.1, -2.0, 0.0], [0.5, 0.3, -0.5])
        _, _, active, feasible = kernel.solve_qp2(0.0, 0.0, *rows)
        u0, u1 = kernel.least_violation(0.0, 0.0, *rows, *NO_BOX)
        assert not feasible and active == ()
        assert violation_gap((u0, u1), rows, NO_BOX)[0] <= violation_gap((0.0, 0.0), rows, NO_BOX)[0]

    def test_zero_normal_rows(self):
        # a violated row with a zero normal: no candidate, no Newton step
        assert kernel.solve_qp2(0.3, -0.2, [0.0], [0.0], [1.0]) == (0.3, -0.2, (), False)
        assert kernel.least_violation(0.3, -0.2, [0.0], [0.0], [1.0], *NO_BOX) == (0.3, -0.2)
        # outside the box every edge point violates it equally: the one
        # nearest u_ref is kept
        box = (-1.0, 1.0, -math.inf, math.inf)
        assert kernel.least_violation(3.0, -0.2, [0.0], [0.0], [1.0], *box) == (1.0, -0.2)
        assert kernel.least_violation(-3.0, -0.2, [0.0], [0.0], [1.0], *box) == (-1.0, -0.2)

    def test_least_violation_never_worse_than_u_ref(self):
        # 2-7 Gaussian rows: a feasible answer is the exact optimum, within
        # GAP of exact_qp's d2, and an infeasible one has no exact optimum.
        # There the least-violation point lies inside a +-1e3 box, so it is
        # stationary: its certified gap to the minimum is at most
        # 1e-8 (1 + f). The worst of the 387 infeasible instances is
        # 1.8e-11; a Newton step that also counted the met rows reaches
        # 2.3e3, over the bound on 348 of them
        box = (-1e3, 1e3, -1e3, 1e3)
        rng = np.random.default_rng(5)
        infeasible = 0
        for _ in range(1000):
            m = int(rng.integers(2, 8))
            rows = [rng.normal(size=m).tolist() for _ in range(3)]
            u_ref = tuple(rng.normal(size=2).tolist())
            u0, u1, _, feasible = kernel.solve_qp2(*u_ref, *rows)
            exact = exact_qp(u_ref, *rows)
            if feasible:
                d2 = (Fraction(u0) - Fraction(u_ref[0])) ** 2 + (Fraction(u1) - Fraction(u_ref[1])) ** 2
                assert abs(d2 - exact[0]) <= GAP * exact[0]
                continue
            infeasible += 1
            assert exact is None
            f, gap = violation_gap(kernel.least_violation(*u_ref, *rows, *box), rows, box)
            assert f <= violation_gap(u_ref, rows, box)[0] and gap <= 1e-8 * (1 + f)
        assert infeasible > 300

    @pytest.mark.parametrize("s", [1e-150, 1e-100, 1.0, 1e100, 1e150])
    def test_least_violation_parallel_normals_at_any_scale(self, s):
        # rows s (u0 + u1) >= 1 and -0.6 s (u0 + u1) >= 1 conflict; their
        # least squares line is u0 + u1 = 0.4 / (1.36 s), and the answer is
        # u_ref projected onto it, with no division by an under- or
        # overflowed tr(A)^2
        rows = ([s, -0.6 * s], [s, -0.6 * s], [1.0, 1.0])
        _, _, active, feasible = kernel.solve_qp2(0.3, 0.2, *rows)
        u0, u1 = kernel.least_violation(0.3, 0.2, *rows, *NO_BOX)
        assert not feasible and active == ()
        shift = (0.4 / (1.36 * s) - 0.5) / 2
        assert u0 == pytest.approx(0.3 + shift, rel=1e-12, abs=1e-15)
        assert u1 == pytest.approx(0.2 + shift, rel=1e-12, abs=1e-15)
        assert violation_gap((u0, u1), rows, NO_BOX)[0] <= violation_gap((0.3, 0.2), rows, NO_BOX)[0]
        # opposed normals of that size leave u_ref, their least squares point
        assert kernel.solve_qp2(0.0, 0.0, [s, -s], [0.0, 0.0], [1.0, 1.0]) == (0.0, 0.0, (), False)
        assert kernel.least_violation(0.0, 0.0, [s, -s], [0.0, 0.0], [1.0, 1.0], *NO_BOX) == (0.0, 0.0)
        cfg = FilterConfig(gamma=1.0, regularization_eps=1e-160)
        res = filter_qp((0.0, 0.0), [ev(0.0, -1.0, (s, 0.0)), ev(0.0, -1.0, (-s, 0.0))], cfg)
        assert res.u_star == (0.0, 0.0) and res.infeasible


class TestActivationGate:
    CFG10 = FilterConfig(gamma=1.0, activation_radius=10.0)

    def test_closed_boundary(self):
        # both ends of [0, radius] are in
        assert activation_gate(10.0, self.CFG10) and activation_gate(0.0, self.CFG10)

    def test_just_outside(self):
        assert not activation_gate(10.0 + 1e-9, self.CFG10)

    def test_infinite_radius_always_active(self):
        assert activation_gate(1e12, FilterConfig(gamma=1.0))


class TestFiltersGate:
    # the filters apply the activation radius themselves: an evaluation
    # beyond it reports its psi but adds no row and flags nothing
    CFG5 = FilterConfig(gamma=1.0, activation_radius=5.0)

    def test_far_violated_row_not_enforced(self):
        far = ev(0.0, -2.0, (1.0, 0.0), dist=6.0)    # needs u0 >= 2
        near = ev(0.0, -1.0, (0.0, 1.0), dist=4.0)   # needs u1 >= 1
        res = filter_qp((0.0, 0.0), [far, near], self.CFG5)
        assert res.u_star == (0.0, 1.0)
        assert res.active_set == (1,)
        assert res.psi == (-2.0, -1.0)
        assert not res.degenerate and not res.infeasible

    @pytest.mark.parametrize("h, lfh, lg, flag", [
        (0.0, math.nan, (1.0, 0.0), "infeasible"),
        (-math.inf, 0.0, (1.0, 0.0), "infeasible"),
        (0.0, -1.0, (0.0, 0.0), "degenerate"),
    ], ids=["nan", "neg-inf", "zero-lgh"])
    def test_far_bad_row_flags_nothing(self, h, lfh, lg, flag):
        for far in (ev(h, lfh, lg, dist=5.0 + 1e-9), ev(h, lfh, lg, dist=math.inf)):
            for res in (filter_qp((0.5, 0.0), [far], self.CFG5),
                        filter_single((0.5, 0.0), far, self.CFG5)):
                assert res.u_star == (0.5, 0.0) and res.active_set == ()
                assert not res.degenerate and not res.infeasible
        # the same row on the boundary is gated in and flags the result
        near = ev(h, lfh, lg, dist=5.0)
        for res in (filter_qp((0.5, 0.0), [near], self.CFG5),
                    filter_single((0.5, 0.0), near, self.CFG5)):
            assert getattr(res, flag)

    def test_filter_single_passes_through_beyond_radius(self):
        e = ev(-0.5, -1.0, (1.0, 0.2), dist=7.0)
        res = filter_single((0.2, 0.1), e, self.CFG5)
        assert res == FilterResult((0.2, 0.1), (0.0, 0.0), (), (-1.0 + 0.2 + 0.2 * 0.1 - 0.5,))
        assert filter_single((0.2, 0.1), e, CFG).active_set == (0,)

    def test_filter_single_rejects_a_box(self):
        # one row that needs u0 >= 10 inside the box |u| <= 1: the closed
        # form would return u0 = 10 unflagged, filter_qp stops at the face
        box = FilterConfig(input_bounds=((-1.0, 1.0), (-1.0, 1.0)))
        e = ev(0.0, -10.0, (1.0, 0.0))
        with pytest.raises(ValidationError, match="input_bounds"):
            filter_single((0.0, 0.0), e, box)
        res = filter_qp((0.0, 0.0), [e], box)
        assert res.u_star == (1.0, 0.0) and res.infeasible
        # a box of infinite bounds has no row and is accepted
        inf_box = FilterConfig(input_bounds=((-math.inf, math.inf), (-math.inf, math.inf)))
        assert filter_single((0.0, 0.0), e, inf_box) == filter_single((0.0, 0.0), e, CFG)


def spy_solve_qp2(monkeypatch):
    """Route kernel.solve_qp2 through a recorder; returns the list of call args."""
    calls = []
    solve = kernel.solve_qp2

    def recorded(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(kernel, "solve_qp2", recorded)
    return calls


# every solve_qp2 call of three runs, solved again by the exact oracle: the
# ledger's two corpus runs that filter with the cone barrier, and the bicycle
# scene of the benchmark's crowd seed 2. Per run, the answers that pass u_ref
# through as it meets every row exactly, or only within _FEAS_TOL * (1 + |b|),
# that solve, within GAP of the exact least ||u - u_ref||^2 (the worst seen is
# 7.2e-16), and that are infeasible
RECORDED_SOLVES = {
    "unicycle-two-obstacles": (0, 0, 1601, 0),
    "bicycle-path-yield": (1501, 0, 500, 0),
    "crowd-bicycle-2": (1386, 80, 535, 0),
}
GAP = 1e-12


def worst_miss(u0, u1, g0s, g1s, bs):
    """The largest (b - g . u) / (1 + |b|) over the rows, exactly."""
    u0, u1 = Fraction(u0), Fraction(u1)
    return max((Fraction(b) - Fraction(g0) * u0 - Fraction(g1) * u1) / (1 + abs(Fraction(b)))
               for g0, g1, b in zip(g0s, g1s, bs))


def test_every_recorded_solve_agrees_with_the_exact_oracle(monkeypatch):
    calls = spy_solve_qp2(monkeypatch)
    runs = {}
    crowd = parse_scenario(next(d for d in crowd_documents(2) if d["model"] == "bicycle"))
    for sc in [load_scenario(ROOT / "scenarios" / f"{name}.json") for name in list(RECORDED_SOLVES)[:2]] + [crowd]:
        run_scenario(sc)
        runs[sc.name], calls[:] = calls[:], []
    monkeypatch.undo()
    counts, disagree = {}, []
    for name, solves in runs.items():
        n = counts[name] = [0, 0, 0, 0]
        for ur0, ur1, *rows in solves:
            u0, u1, _, feasible = kernel.solve_qp2(ur0, ur1, *rows)
            if feasible and (u0, u1) == (ur0, ur1):
                miss = worst_miss(u0, u1, *rows)
                n[miss > 0] += 1
                ok = miss <= kernel._FEAS_TOL
            elif not feasible:
                n[3] += 1
                ok = exact_qp((ur0, ur1), *rows) is None
            else:
                n[2] += 1
                got = exact_qp((ur0, ur1), *rows)
                d2 = (Fraction(u0) - Fraction(ur0)) ** 2 + (Fraction(u1) - Fraction(ur1)) ** 2
                ok = (got is not None and worst_miss(u0, u1, *rows) <= kernel._FEAS_TOL
                      and abs(d2 - got[0]) <= GAP * got[0])
            if not ok:
                disagree.append((name, ur0, ur1, *rows))
    assert disagree == []
    assert {name: tuple(n) for name, n in counts.items()} == RECORDED_SOLVES


class TestRecords:
    # the per-tick outputs are named tuples: immutable, and built in one step
    def test_fields_order_and_defaults(self):
        assert CbfEvaluation._fields == ("h", "lfh", "lgh", "penetration", "dist")
        assert CbfEvaluation._field_defaults == {}
        assert FilterResult._fields == (
            "u_star", "u_safe", "active_set", "psi", "degenerate", "infeasible"
        )
        assert FilterResult._field_defaults == {
            "active_set": (), "psi": (), "degenerate": False, "infeasible": False
        }
        res = FilterResult((1.0, 2.0), (0.0, 0.0))
        assert (res.active_set, res.psi, res.degenerate, res.infeasible) == ((), (), False, False)

    def test_unpack_and_compare_as_tuples(self):
        e = ev(-0.5, 0.25, (1.0, -2.0), True, 3.0)
        h, lfh, lgh, pen, dist = e
        assert (h, lfh, lgh, pen, dist) == e == (-0.5, 0.25, (1.0, -2.0), True, 3.0)
        assert filter_qp((0.0, 0.0), [e], CFG)[0] == filter_qp((0.0, 0.0), [e], CFG).u_star

    @pytest.mark.parametrize("record, field", [
        (CbfEvaluation(0.0, 0.0, (1.0, 0.0), False, 1.0), "h"),
        (CbfEvaluation(0.0, 0.0, (1.0, 0.0), False, 1.0), "lgh"),
        (FilterResult((0.0, 0.0), (0.0, 0.0)), "u_star"),
        (FilterResult((0.0, 0.0), (0.0, 0.0)), "infeasible"),
        (FilterResult((0.0, 0.0), (0.0, 0.0)), "extra"),
    ], ids=["eval-h", "eval-lgh", "result-u_star", "result-infeasible", "result-new-attr"])
    def test_assignment_refused(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)

    # one call per return path of each filter: (filter, u_ref, evaluations, config)
    RETURN_PATHS = {
        "qp-passthrough": (filter_qp, (0.5, 0.0), [ev(1.0, 0.0, (1.0, 0.0))], CFG),
        "qp-projection": (filter_qp, (0.0, 0.0), [ev(0.0, -1.0, (1.0, 0.0))], CFG),
        "qp-vertex": (filter_qp, (0.0, 0.0), [ev(0.0, -1.0, (1.0, 0.0)), ev(0.0, -1.0, (0.0, 1.0))], CFG),
        # the rows of TestSolveQp2.test_closest_candidate_when_no_kkt_point
        "qp-closest-candidate": (filter_qp, (2.9998280302686386, -0.0), [
            ev(0.0, -1.1179362614788462e-05, (-0.13001373128710458, 0.0)),
            ev(0.0, 5.3099833001453664e-05, (0.6175458268877421, -0.0)),
        ], CFG),
        "qp-least-violation": (filter_qp, (0.0, 0.0), [ev(0.0, -2.0, (1.0, 0.0)), ev(0.0, -2.0, (-1.0, 0.0))], CFG),
        "qp-box": (filter_qp, (0.0, 0.0), [ev(0.0, -0.5, (1.0, 0.0))],
                   FilterConfig(input_bounds=((-1.0, 1.0), (-1.0, 1.0)))),
        "single-pass": (filter_single, (0.5, 0.0), ev(1.0, 0.0, (1.0, 0.0)), CFG),
        "single-bind": (filter_single, (0.0, 0.0), ev(0.0, -1.0, (1.0, 0.0)), CFG),
        "single-degenerate": (filter_single, (0.0, 0.0), ev(-1.0, 0.0, (0.0, 0.0)), CFG),
        "single-non-finite": (filter_single, (0.0, 0.0), ev(math.nan, 0.0, (1.0, 0.0)), CFG),
    }

    @pytest.mark.parametrize("path", RETURN_PATHS)
    def test_every_filter_return_is_a_full_record(self, path):
        # the filters build FilterResult with tuple.__new__, which checks no
        # arity: each return path must still give all six fields
        flt, u_ref, evals, cfg = self.RETURN_PATHS[path]
        res = flt(u_ref, evals, cfg)
        assert type(res) is FilterResult and len(res) == 6
        assert res == FilterResult(*res)
        assert type(res.degenerate) is bool and type(res.infeasible) is bool
        flags = {"qp-least-violation": (False, True), "single-degenerate": (True, False),
                 "single-non-finite": (False, True)}
        assert (res.degenerate, res.infeasible) == flags.get(path, (False, False))
        binding = {"qp-projection": (0,), "qp-vertex": (0, 1), "qp-closest-candidate": (1,),
                   "qp-box": (0,), "single-bind": (0,)}
        assert res.active_set == binding.get(path, ())

    def test_filter_qp_takes_any_iterable(self):
        evals = [ev(-0.5, -1.0, (1.0, 0.2)), ev(-0.2, -0.5, (-0.3, 1.1)), ev(1.0, 0.0, (0.0, 1.0))]
        want = filter_qp((2.0, 1.0), evals, CFG)
        assert filter_qp((2.0, 1.0), (e for e in evals), CFG) == want
        assert filter_qp((2.0, 1.0), tuple(evals), CFG) == want
        assert filter_qp((2.0, 1.0), iter([]), CFG) == ((2.0, 1.0), (0.0, 0.0), (), (), False, False)


class TestActiveSetMapping:
    # active_set keeps the barrier rows of the kernel's ascending active
    # tuple; box rows come after every barrier row and never appear in it
    def test_box_row_binding_with_barrier_row(self, monkeypatch):
        calls = spy_solve_qp2(monkeypatch)
        cfg = FilterConfig(input_bounds=((-5.0, 5.0), (-5.0, 0.2)))
        loose = ev(0.0, 10.0, (1.0, 0.0))   # u0 >= -10, slack
        bind = ev(0.0, -2.0, (1.0, 1.0))    # u0 + u1 >= 2
        res = filter_qp((0.0, 1.0), [loose, bind], cfg)
        assert res.u_star == pytest.approx((1.8, 0.2))
        # the kernel bound the barrier row 1 and the box row u1 <= 0.2 (row 5)
        assert kernel.solve_qp2(*calls[0])[2] == (1, 5)
        assert res.active_set == (1,)
        assert not res.infeasible

    def test_two_barrier_rows_after_skipped_rows(self):
        cfg = FilterConfig(input_bounds=((-5.0, 5.0), (-5.0, 5.0)))
        deg = ev(-1.0, -1.0, (0.0, 0.0))        # violated, uncontrollable
        nan = ev(math.nan, 0.0, (1.0, 0.0))     # never met
        e1 = ev(0.0, -1.0, (1.0, 0.0))          # u0 >= 1
        e2 = ev(0.0, -1.0, (0.0, 1.0))          # u1 >= 1
        for evals, want in (([deg, e1, nan, e2], (1, 3)), ([nan, deg, e2, e1], (2, 3))):
            for c in (CFG, cfg):
                res = filter_qp((0.0, 0.0), evals, c)
                assert res.active_set == want
                assert res.u_star == pytest.approx((1.0, 1.0))
                assert res.degenerate and res.infeasible
                assert len(res.psi) == 4

    def test_replaced_config_enforces_its_box(self, monkeypatch):
        calls = spy_solve_qp2(monkeypatch)
        loose = ev(0.0, 10.0, (1.0, 0.0))   # u0 >= -10, slack
        cfg = FilterConfig(input_bounds=((-1.0, 1.0), (-1.0, 1.0)))
        assert filter_qp((2.0, 0.0), [loose], cfg).u_star == (1.0, 0.0)
        assert len(calls.pop()[4]) == 5
        upper = replace(cfg, input_bounds=((-math.inf, 0.5), (-math.inf, math.inf)))
        assert filter_qp((2.0, 0.0), [loose], upper).u_star == (0.5, 0.0)
        assert calls.pop()[2:] == ([1.0, -1.0], [0.0, 0.0], [-10.0, -0.5])
        lower = replace(cfg, input_bounds=((-math.inf, math.inf), (0.25, math.inf)))
        assert filter_qp((2.0, 0.0), [loose], lower).u_star == (2.0, 0.25)
        assert calls.pop()[2:] == ([1.0, 0.0], [0.0, 1.0], [-10.0, 0.25])
        # no box: a slack row passes u_ref through
        assert filter_qp((2.0, 0.0), [loose], replace(cfg, input_bounds=None)).u_star == (2.0, 0.0)
        assert len(calls.pop()[4]) == 1
        # only box rows: the QP still runs and projects u_ref into the box
        assert filter_qp((2.0, 0.0), [], upper).u_star == (0.5, 0.0)


class TestKernelLookup:
    # perfbench's tracer and StepClock patch the kernel module's attributes;
    # these calls must reach the patched functions, not import-time bindings
    def test_one_qp_call_per_filter_with_box_rows(self, monkeypatch):
        calls, cones, cone = spy_solve_qp2(monkeypatch), [], kernel.c3bf_unicycle
        monkeypatch.setattr(kernel, "c3bf_unicycle", lambda *args: cones.append(args) or cone(*args))
        s, p = UnicycleState(0.0, 0.0, 0.0, 1.0, 0.0), ModelParams()
        evals = [c3bf_eval("unicycle", s, o, p) for o in (Obstacle(3.0, 0.0), Obstacle(5.0, 0.3))]
        assert len(cones) == 2
        cfg = FilterConfig(input_bounds=((-2.0, 2.0), (-math.inf, 1.5)))
        filter_qp((0.5, 0.0), evals, cfg)
        assert len(calls) == 1
        bs = calls[0][4]
        assert len(bs) == 2 + 3
        assert bs[2:] == [-2.0, -2.0, -1.5]


class TestInputPairChecked:
    # a u_ref may be any sequence pair; tests/test_contract.py refuses the rest
    EVALS = [ev(-0.5, -1.0, (1.0, 0.2)), ev(1.0, 0.0, (0.0, 1.0))]

    def test_pairs_of_any_sequence_type_accepted(self):
        assert filter_qp([2.0, 1.0], self.EVALS, CFG) == filter_qp((2.0, 1.0), self.EVALS, CFG)
        assert filter_single([2.0, 1.0], self.EVALS[0], CFG) == filter_single(
            (2.0, 1.0), self.EVALS[0], CFG
        )

    def test_nothing_binding_gives_empty_active_set(self):
        res = filter_qp((2.0, 1.0), [ev(1.0, 0.0, (0.0, 1.0))], FilterConfig(input_bounds=((-5, 5), (-5, 5))))
        assert res.active_set == () and res.u_star == (2.0, 1.0)

    def test_no_rows_pass_u_ref_through(self):
        # with no row to solve (none given, or each degenerate) u_ref comes
        # back unchanged and u_safe is a pair of +0.0
        deg = ev(-1.0, -1.0, (0.0, 0.0))
        for evals, degenerate in (([], False), ([deg], True), ([deg, deg], True)):
            res = filter_qp((0.3, -0.2), evals, CFG)
            assert res.u_star == (0.3, -0.2) and res.active_set == ()
            assert [repr(v) for v in res.u_safe] == ["0.0", "0.0"]
            assert res.degenerate is degenerate and res.infeasible is False
