"""Shared fixtures and independent oracles.

The finite-difference oracle reimplements the barrier value and the
extended-state flow with numpy, independently of the package kernels,
and differentiates h along the flow by central differences. Kernel
analytic Lie derivatives are checked against it, never against
themselves.

The filter's oracles, `exact_qp` and `violation_gap`, work in exact
rationals (`fractions`), which hold every float.
"""

from fractions import Fraction
from math import inf, isfinite

import numpy as np

from conecbf import CbfEvaluation, ModelParams, Obstacle, c3bf_eval, ellipse_cbf_eval, hocbf_eval
from conecbf.models import STATE_TYPES


def ev(h, lfh, lg, pen=False, dist=10.0):
    return CbfEvaluation(h, lfh, tuple(lg), pen, dist)


def rows_of(evals, gamma=1.0):
    """The QP rows g . u >= b of the evaluations, as (g0s, g1s, bs)."""
    return [e.lgh[0] for e in evals], [e.lgh[1] for e in evals], [-(e.lfh + gamma * e.h) for e in evals]


# ---------------------------------------------------------------------------
# oracle: barrier values
# ---------------------------------------------------------------------------


def cone_h(p_rel, v_rel, r):
    """Cone barrier value, straight from its definition."""
    p = np.asarray(p_rel, dtype=float)
    v = np.asarray(v_rel, dtype=float)
    d = np.linalg.norm(p)
    if d <= r:
        return float(p @ v)
    return float(p @ v + np.linalg.norm(v) * np.sqrt(d * d - r * r))


def ellipse_h(pos, center, c1, c2):
    d = np.asarray(center, dtype=float) - np.asarray(pos, dtype=float)
    return float((d[0] / c1) ** 2 + (d[1] / c2) ** 2 - 1.0)


# ---------------------------------------------------------------------------
# oracle: extended-state flow (vehicle state + obstacle center)
# ---------------------------------------------------------------------------


def ext_derivative(model, z, u, obs_vel, params):
    """Time derivative of the extended state [vehicle..., cx, cy]."""
    z = np.asarray(z, dtype=float)
    if model == "unicycle":
        x, y, th, v, om, cx, cy = z
        return np.array(
            [v * np.cos(th), v * np.sin(th), om, u[0], u[1], obs_vel[0], obs_vel[1]]
        )
    if model == "bicycle":
        x, y, th, v, cx, cy = z
        a, be = u
        return np.array(
            [
                v * np.cos(th) - v * be * np.sin(th),
                v * np.sin(th) + v * be * np.cos(th),
                v * be / params["l_r"],
                a,
                obs_vel[0],
                obs_vel[1],
            ]
        )
    x, y, vx, vy, cx, cy = z
    return np.array([vx, vy, u[0], u[1], obs_vel[0], obs_vel[1]])


def cone_h_of_ext(model, z, obs_vel, params, r):
    """Cone barrier as a function of the extended state."""
    z = np.asarray(z, dtype=float)
    if model == "unicycle":
        x, y, th, v, om, cx, cy = z
        l = params["l"]
        p = np.array([cx - (x + l * np.cos(th)), cy - (y + l * np.sin(th))])
        vr = np.array(
            [
                obs_vel[0] - (v * np.cos(th) - l * om * np.sin(th)),
                obs_vel[1] - (v * np.sin(th) + l * om * np.cos(th)),
            ]
        )
    elif model == "bicycle":
        x, y, th, v, cx, cy = z
        p = np.array([cx - x, cy - y])
        vr = np.array([obs_vel[0] - v * np.cos(th), obs_vel[1] - v * np.sin(th)])
    else:
        x, y, vx, vy, cx, cy = z
        p = np.array([cx - x, cy - y])
        vr = np.array([obs_vel[0] - vx, obs_vel[1] - vy])
    return cone_h(p, vr, r)


def ellipse_h_of_ext(model, z, c1, c2):
    if model == "unicycle":
        x, y, th, v, om, cx, cy = z
    elif model == "bicycle":
        x, y, th, v, cx, cy = z
    else:
        x, y, vx, vy, cx, cy = z
    return ellipse_h((x, y), (cx, cy), c1, c2)


def hocbf_h_of_ext(model, z, obs_vel, params, c1, c2, gamma1):
    """h2 = Lf h1 + gamma1 h1, written out by hand for the oracle."""
    z = np.asarray(z, dtype=float)
    h1 = ellipse_h_of_ext(model, z, c1, c2)
    zdot = ext_derivative(model, z, (0.0, 0.0), obs_vel, params)
    if model == "unicycle":
        x, y = z[0], z[1]
        cx, cy = z[5], z[6]
        posdot = zdot[0:2]
        cdot = zdot[5:7]
    elif model == "bicycle":
        x, y = z[0], z[1]
        cx, cy = z[4], z[5]
        posdot = zdot[0:2]
        cdot = zdot[4:6]
    else:
        x, y = z[0], z[1]
        cx, cy = z[4], z[5]
        posdot = zdot[0:2]
        cdot = zdot[4:6]
    lfh1 = (
        2 * (cx - x) * (cdot[0] - posdot[0]) / c1**2
        + 2 * (cy - y) * (cdot[1] - posdot[1]) / c2**2
    )
    return float(lfh1 + gamma1 * h1)


def fd_hdot(h_of_ext, model, z, u, obs_vel, params, eps=1e-5):
    """Central difference of h along the extended flow at constant input."""
    z = np.asarray(z, dtype=float)
    zdot = ext_derivative(model, z, u, obs_vel, params)
    hp = h_of_ext(z + eps * zdot)
    hm = h_of_ext(z - eps * zdot)
    return (hp - hm) / (2 * eps)


# ---------------------------------------------------------------------------
# random sampling for the oracle suites
# ---------------------------------------------------------------------------


def sample_case(rng, model, min_margin=0.3):
    """Random non-penetrating (state, input, obstacle velocity, params,
    (c1, c2, r, dist)) draw; dist is measured from the body center.

    Ranges are everyday ground-vehicle magnitudes. They also keep the
    barrier's along-flow curvature small enough that the eps=1e-5
    central difference stays an order of magnitude inside the 1e-6
    relative tolerance it is compared at: velocity/turn-rate magnitudes
    are modest, and configurations with near-zero relative velocity are
    redrawn (the norm term's curvature scales like 1/||v_rel||^2 there;
    the v_rel = 0 point itself has a dedicated direct test).
    """
    params = {
        "l": float(rng.uniform(0.0, 0.6)),
        "l_r": float(rng.uniform(0.5, 2.0)),
        "w": float(rng.uniform(0.0, 1.2)),
    }
    c1 = float(rng.uniform(0.3, 1.5))
    c2 = float(rng.uniform(0.3, 1.5))
    r = max(c1, c2) + 0.5 * params["w"]
    # obstacle placed at a safe distance from the vehicle reference point
    ang = rng.uniform(-np.pi, np.pi)
    dist = r + min_margin + rng.uniform(0.0, 8.0)
    x, y = rng.uniform(-5, 5, size=2)
    th = rng.uniform(-np.pi, np.pi)
    obs_vel = tuple(rng.uniform(-1.5, 1.5, size=2))
    while True:
        if model == "unicycle":
            v, om = rng.uniform(-2.5, 2.5), rng.uniform(-1.0, 1.0)
            ref = (x + params["l"] * np.cos(th), y + params["l"] * np.sin(th))
            z = [x, y, th, v, om, ref[0] + dist * np.cos(ang), ref[1] + dist * np.sin(ang)]
            u = tuple(rng.uniform(-2.5, 2.5, size=2))
            v_rel = np.hypot(
                obs_vel[0] - (v * np.cos(th) - params["l"] * om * np.sin(th)),
                obs_vel[1] - (v * np.sin(th) + params["l"] * om * np.cos(th)),
            )
        elif model == "bicycle":
            v = rng.uniform(-2.5, 2.5)
            z = [x, y, th, v, x + dist * np.cos(ang), y + dist * np.sin(ang)]
            u = (float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-0.2, 0.2)))
            v_rel = np.hypot(obs_vel[0] - v * np.cos(th), obs_vel[1] - v * np.sin(th))
        else:
            vx, vy = rng.uniform(-2.5, 2.5, size=2)
            z = [x, y, vx, vy, x + dist * np.cos(ang), y + dist * np.sin(ang)]
            u = tuple(rng.uniform(-2.5, 2.5, size=2))
            v_rel = np.hypot(obs_vel[0] - vx, obs_vel[1] - vy)
        if v_rel >= 0.1:
            return np.array(z), u, obs_vel, params, (c1, c2, r, dist)


def evaluate_case(kind, model, z, obs_vel, params, c1, c2, gamma1=1.0):
    """The public evaluator of barrier `kind` at a sample_case draw.

    The one map from an extended-state vector [vehicle..., cx, cy] to the
    package's state, obstacle and params; the c3bf radius it derives is
    sample_case's r.
    """
    *vehicle, cx, cy = map(float, z)
    s = STATE_TYPES[model](*vehicle)
    o = Obstacle(cx, cy, float(obs_vel[0]), float(obs_vel[1]), c1, c2)
    p = ModelParams(l=params["l"], l_r=params["l_r"], w=params["w"])
    if kind == "c3bf":
        return c3bf_eval(model, s, o, p)
    if kind == "ellipse":
        return ellipse_cbf_eval(model, s, o, p)
    return hocbf_eval(model, s, o, gamma1, p)


# ---------------------------------------------------------------------------
# oracle: the filter's QP and least violation, in exact rationals
# ---------------------------------------------------------------------------


def exact_qp(u_ref, g0s, g1s, bs):
    """(d2, u0, u1) minimizing d2 = ||u - u_ref||^2 s.t. g_i . u >= b_i,
    worked out exactly, or None if no u meets every row.

    In the plane the optimum is u_ref, the projection of u_ref onto one
    row's boundary, or the vertex of two rows, so it is the closest of
    those candidates that meets every row, and none does only if no u
    does."""
    r0, r1 = Fraction(u_ref[0]), Fraction(u_ref[1])
    rows = [(Fraction(g0), Fraction(g1), Fraction(b)) for g0, g1, b in zip(g0s, g1s, bs)]
    points = [(r0, r1)]
    for i, (g0, g1, b) in enumerate(rows):
        if g0 or g1:
            lam = (b - g0 * r0 - g1 * r1) / (g0 * g0 + g1 * g1)
            points.append((r0 + lam * g0, r1 + lam * g1))
        for h0, h1, c in rows[i + 1:]:
            det = g0 * h1 - g1 * h0
            if det:
                points.append(((b * h1 - g1 * c) / det, (g0 * c - b * h0) / det))
    candidates = sorted(((u0 - r0) ** 2 + (u1 - r1) ** 2, u0, u1) for u0, u1 in points)
    return next((c for c in candidates if all(g0 * c[1] + g1 * c[2] >= b for g0, g1, b in rows)), None)


def violation_gap(u, rows, box):
    """(f(u), a bound on f(u) - min of f over the box), f = sum_i min(0,
    g_i . u - b_i)^2 over `rows` = (g0s, g1s, bs), worked out exactly; `box`
    is (lo0, hi0, lo1, hi1), sides may be infinite.

    f is convex and continuously differentiable, so f(u) - f(v) <= grad
    f(u) . (u - v) for every v, and the bound is the largest of that over
    the box, one term per axis: inf where the gradient points to an
    infinite side."""
    u = [Fraction(x) for x in u]
    f, grad, gap = 0, [0, 0], 0
    for g0, g1, b in zip(*rows):
        g = (Fraction(g0), Fraction(g1))
        r = min(0, g[0] * u[0] + g[1] * u[1] - Fraction(b))
        f, grad = f + r * r, [grad[k] + 2 * r * g[k] for k in (0, 1)]
    for k, d in enumerate(grad):
        if d:
            side = box[2 * k] if d > 0 else box[2 * k + 1]
            gap += d * (u[k] - Fraction(side)) if isfinite(side) else inf
    return f, gap
