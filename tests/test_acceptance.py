"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion. Each criterion is independent; tolerances are
pinned here and nowhere else.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import cone_h_of_ext, ev, evaluate_case, exact_qp, fd_hdot, rows_of, sample_case

import conecbf
from conecbf import (
    BicycleState,
    FilterConfig,
    ModelParams,
    Obstacle,
    UnicycleState,
    c3bf_eval,
    classify_behavior,
    ellipse_cbf_eval,
    filter_qp,
    filter_single,
    hocbf_eval,
    load_scenario,
    run_scenario,
    safety_metrics,
)
from conecbf.scenario_io import write_trajectory_csv

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MODELS = ("unicycle", "bicycle", "pointmass")
RECOVERY_SCENARIOS = ("unicycle-turning", "unicycle-reversing")
CANONICAL = {
    "unicycle-turning": "turning",
    "unicycle-braking": "braking",
    "unicycle-reversing": "reversing",
    "unicycle-overtaking": "overtaking",
}


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def corpus():
    return [load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]


def test_criterion_01_lie_derivative_oracle():
    """Analytic Lie derivatives match the central-difference flow oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_per_model = 1000
    for model in MODELS:
        for _ in range(n_per_model):
            z, u, obs_vel, params, (c1, c2, r) = sample_case(rng, model)
            e = evaluate_case("c3bf", model, z, obs_vel, params, c1, c2)
            hdot_fd = fd_hdot(
                lambda zz: cone_h_of_ext(model, zz, obs_vel, params, r),
                model, z, u, obs_vel, params, eps=1e-5,
            )
            err = abs((e.lfh + e.lgh[0] * u[0] + e.lgh[1] * u[1]) - hdot_fd) / (1 + abs(hdot_fd))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, ok, f"{3 * n_per_model} samples, worst rel err {worst:.2e} "
                   f"(tol 1e-6), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_02_closed_form_qp_agreement():
    """filter_qp equals the closed-form switching law on one constraint."""
    rng = np.random.default_rng(7)
    cfg = FilterConfig(gamma=1.0)
    worst = 0.0
    n = 0
    while n < 1000:
        u_ref = tuple(rng.uniform(-4, 4, 2))
        lg = tuple(rng.uniform(-3, 3, 2))
        if math.hypot(*lg) < 1e-6:
            continue
        e = ev(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)), lg)
        a = filter_single(u_ref, e, cfg)
        b = filter_qp(u_ref, [e], cfg)
        worst = max(worst, abs(a.u_star[0] - b.u_star[0]), abs(a.u_star[1] - b.u_star[1]))
        n += 1
    ok = worst <= 1e-8
    _report(2, ok, f"{n} single-constraint instances, worst component gap "
                   f"{worst:.2e} (tol 1e-8)")


def test_criterion_03_qp_grid_oracle():
    """Two-constraint QP matches the exact rational optimum (conftest.exact_qp)."""
    rng = np.random.default_rng(8)
    cfg = FilterConfig(gamma=1.0)
    worst_pos = 0.0
    worst_obj = 0.0
    done = 0
    while done < 50:
        u_ref = tuple(rng.uniform(-2, 2, 2))
        evals = []
        for _ in range(2):
            ang = rng.uniform(0, 2 * math.pi)
            lg = (math.cos(ang) * rng.uniform(0.5, 2), math.sin(ang) * rng.uniform(0.5, 2))
            evals.append(ev(float(rng.uniform(-1.5, 0.5)), float(rng.uniform(-2, 2)), lg))
        res = filter_qp(u_ref, evals, cfg)
        if res.infeasible:
            continue
        got = exact_qp(u_ref, *rows_of(evals, cfg.gamma))
        assert got is not None
        d2, u0, u1 = got
        worst_pos = max(worst_pos, abs(res.u_star[0] - u0), abs(res.u_star[1] - u1))
        d2_qp = sum((Fraction(u) - Fraction(r)) ** 2 for u, r in zip(res.u_star, u_ref))
        worst_obj = max(worst_obj, d2_qp - d2)
        done += 1
    ok = worst_pos <= 1e-3 and worst_obj <= 1e-9
    _report(3, ok, f"{done} two-constraint instances, worst component gap "
                   f"{float(worst_pos):.2e} (tol 1e-3), objective excess {float(worst_obj):.2e} (tol 1e-9)")


def test_criterion_04_baseline_degeneracies():
    """Structural input-column degeneracies of the ellipse baselines."""
    rng = np.random.default_rng(31)
    worst_uni = 0.0
    for _ in range(10_000):
        s = UnicycleState(*rng.uniform(-8, 8, 2), rng.uniform(-3, 3),
                          rng.uniform(-3, 3), rng.uniform(-2, 2))
        o = Obstacle(*rng.uniform(-8, 8, 2), vx=rng.uniform(-1, 1), vy=rng.uniform(-1, 1),
                     c1=rng.uniform(0.3, 2), c2=rng.uniform(0.3, 2))
        e = ellipse_cbf_eval("unicycle", s, o)
        worst_uni = max(worst_uni, math.hypot(*e.lgh))
    n = 5000
    beta_nonzero = 0
    worst_a = 0.0
    for _ in range(n):
        s = BicycleState(*rng.uniform(-8, 8, 2), rng.uniform(-3, 3), rng.uniform(0.2, 3))
        o = Obstacle(*rng.uniform(-8, 8, 2), c1=rng.uniform(0.3, 2), c2=rng.uniform(0.3, 2))
        e = ellipse_cbf_eval("bicycle", s, o)
        worst_a = max(worst_a, abs(e.lgh[0]))
        if abs(e.lgh[1]) > 1e-12:
            beta_nonzero += 1
    hocbf_nonzero = 0
    for _ in range(n):
        s = UnicycleState(*rng.uniform(-8, 8, 2), rng.uniform(-3, 3),
                          rng.uniform(-3, 3), rng.uniform(-2, 2))
        o = Obstacle(*rng.uniform(-8, 8, 2), c1=rng.uniform(0.3, 2), c2=rng.uniform(0.3, 2))
        e = hocbf_eval("unicycle", s, o, 1.0)
        if math.hypot(*e.lgh) > 1e-12:
            hocbf_nonzero += 1
    ok = (worst_uni <= 1e-12 and worst_a <= 1e-12
          and beta_nonzero >= 0.99 * n and hocbf_nonzero >= 0.99 * n)
    _report(4, ok, f"ellipse unicycle max||Lgh||={worst_uni:.1e} (tol 1e-12), "
                   f"bicycle a-col max={worst_a:.1e}, beta-col nonzero "
                   f"{beta_nonzero}/{n}, hocbf nonzero {hocbf_nonzero}/{n} (>=99%)")


def _initial_h(sc):
    if not sc.obstacles:
        return float("inf")
    return min(
        c3bf_eval(sc.model, sc.initial_state, replace(o, segments=()), sc.params).h
        for o in sc.obstacles
    )


def test_criterion_05_forward_invariance():
    """Corpus at dt=1e-3: safe, positive clearance, h-bound when h(0)>=0."""
    rows = []
    ok = True
    for sc in corpus():
        h0 = _initial_h(sc)
        t0 = time.perf_counter()
        log = run_scenario(replace(sc, dt=1e-3))
        elapsed = time.perf_counter() - t0
        m = safety_metrics(log)
        this_ok = (not log.collided) and m.min_clearance_overall > 0 and elapsed < 5.0
        if h0 >= 0:
            this_ok &= m.min_h >= -1e-3
        ok &= this_ok
        rows.append((sc.name, h0, m.min_h, m.min_clearance_overall, elapsed, this_ok))
    n_sub = sum(1 for r in rows if r[1] >= 0)
    detail = (f"{len(rows)} scenarios at dt=1e-3, all safe with clearance > 0; "
              f"{n_sub} scenarios with h(0)>=0 keep min h >= -1e-3; "
              f"slowest run {max(r[4] for r in rows):.2f}s (< 5s)")
    for name, h0, minh, clear, elapsed, this_ok in rows:
        if not this_ok:
            detail += f" | FAIL {name}: h0={h0:.4f} minh={minh:.5f} clear={clear:.5f} t={elapsed:.2f}"
    _report(5, ok and n_sub >= 3, detail)


def test_criterion_06_recovery_bound():
    """h(0) < 0 runs obey h(t) >= h(0) e^(-t) - 1e-3 and cross zero."""
    ok = True
    details = []
    for name in RECOVERY_SCENARIOS:
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        assert sc.filter.gamma == 1.0
        log = run_scenario(sc)
        h0 = min(log.h[0])
        this_ok = h0 < 0
        worst_gap = float("inf")
        for k, t in enumerate(log.t):
            for i in range(len(sc.obstacles)):
                if log.h[0][i] >= 0:
                    continue
                bound = log.h[0][i] * math.exp(-t) - 1e-3
                worst_gap = min(worst_gap, log.h[k][i] - bound)
        this_ok &= worst_gap >= 0
        crossed = max(max(hs) for hs in log.h) > 0
        this_ok &= crossed
        ok &= this_ok
        details.append(f"{name}: h0={h0:.3f}, min(h - bound)={worst_gap:.2e}, "
                       f"crosses zero={crossed}")
    _report(6, ok, "; ".join(details))


def test_criterion_07_behavior_gallery():
    """Canonical labels land; unfiltered head-on variants crash."""
    ok = True
    got = {}
    for name, expected in CANONICAL.items():
        log = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        labels = classify_behavior(log)
        got[name] = labels
        ok &= (not log.collided) and expected in labels
    collided = {}
    for stem in ("unicycle-braking", "unicycle-reversing"):
        log = run_scenario(load_scenario(SCENARIO_DIR / "baseline" / f"{stem}-unfiltered.json"))
        collided[stem] = log.collided
        ok &= log.collided
    _report(7, ok, f"labels {dict((k.split('-')[1], v) for k, v in got.items())}; "
                   f"unfiltered collisions {collided}")


def test_criterion_08_slip_angle_validity():
    """Every bicycle corpus run keeps |beta| within 0.2 rad."""
    worst = 0.0
    n_bike = 0
    for sc in corpus():
        if sc.model != "bicycle":
            continue
        assert sc.params.beta_max == 0.2
        n_bike += 1
        log = run_scenario(sc)
        worst = max(worst, safety_metrics(log).max_abs_beta)
    ok = n_bike >= 3 and worst <= 0.2 + 1e-12
    _report(8, ok, f"{n_bike} bicycle scenarios, max |beta| = {worst:.6f} (cap 0.2)")


def test_criterion_09_per_step_cost():
    """Mean cost of 3 barrier evaluations + one QP stays under 50 us."""
    p = ModelParams(l=0.35, w=0.6)
    cfg = FilterConfig(gamma=1.0)
    s = UnicycleState(0, 0, 0.3, 1.4, 0.1)
    obstacles = [Obstacle(5, 0.4), Obstacle(8, -1.0, vx=-0.5), Obstacle(12, 2.0, vy=0.3)]
    u_ref = (0.4, -0.1)
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        evals = [c3bf_eval("unicycle", s, o, p) for o in obstacles]
        filter_qp(u_ref, evals, cfg)
    mean_us = (time.perf_counter() - t0) / n * 1e6
    ok = mean_us <= 50.0
    _report(9, ok, f"{n} steps with 3 obstacles on '{conecbf.kernel_backend()}' "
                   f"backend: {mean_us:.2f} us/step (budget 50 us)")


def test_criterion_10_determinism_and_step_robustness(tmp_path):
    """Byte-identical reruns; dt halving moves clearance < 1%."""
    ok = True
    worst_rel = 0.0
    for sc in corpus():
        log1 = run_scenario(sc)
        log2 = run_scenario(sc)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trajectory_csv(log1, p1)
        write_trajectory_csv(log2, p2)
        ok &= p1.read_bytes() == p2.read_bytes()
        m1 = safety_metrics(log1).min_clearance_overall
        m2 = safety_metrics(run_scenario(replace(sc, dt=sc.dt / 2))).min_clearance_overall
        rel = abs(m2 - m1) / max(abs(m1), 1e-12)
        worst_rel = max(worst_rel, rel)
        ok &= rel < 0.01
    _report(10, ok, f"byte-identical reruns across the corpus; worst clearance "
                    f"change under dt halving {worst_rel:.3%} (< 1%)")
