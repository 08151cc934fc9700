"""Hot kernels: barrier evaluations, RK4 steps, tiny QP.

This module is the single source of the package's numerical core: the
cone barrier and its Lie derivatives, the baseline barriers, the RK4
steps and the 2-D QP are each defined here and nowhere else. Callers
reach it through `conecbf._backend.kernel`. Everything is scalar math
on plain floats, fast enough for real-time-style stepping.

The barrier kernels return `CbfEvaluation`, the package's barrier
record, defined here once.
"""

from math import cos, fmod, hypot, inf as _INF, isinf, pi, sin, sqrt
from typing import NamedTuple

backend_name = "pure"

_TWO_PI = 2.0 * pi


class CbfEvaluation(NamedTuple):
    """Barrier value with its Lie-derivative decomposition.

    h' along the extended flow equals lfh + lgh . u for any input u, and
    dist is the center distance used for gating. `penetration` marks
    configurations inside the effective radius, where the cone
    degenerates to a half-plane. An immutable record, made once per
    obstacle per tick: a named tuple, which the kernels build with one
    `tuple.__new__` call, as the named tuple's own constructor is a
    Python frame; that call checks no arity, so every return passes all
    five fields.
    """

    h: float
    lfh: float
    lgh: tuple
    penetration: bool
    dist: float


# CbfEvaluation(...) runs the named tuple's Python-level __new__, one more
# frame per record; this is the C call that __new__ ends in
_tuple_new = tuple.__new__


def wrap_angle(theta):
    """Normalize an angle to (-pi, pi]."""
    t = fmod(theta + pi, _TWO_PI)
    if t <= 0.0:
        t += _TWO_PI
    return t - pi


# ---------------------------------------------------------------------------
# collision-cone barrier
#
# h = <p_rel, v_rel> + ||v_rel|| * sqrt(||p_rel||^2 - r^2)
#
# with dh/dp_rel = v_rel + (||v_rel||/s) p_rel   (s = sqrt(||p_rel||^2 - r^2))
#      dh/dv_rel = p_rel + (s/||v_rel||) v_rel
#
# Inside the effective radius the square root is undefined; the cone half
# angle is clamped to pi/2 (cos phi = 0), which drops the second term and
# leaves the half-plane constraint <p_rel, v_rel> >= 0.  At v_rel = 0 the
# norm is not differentiable; the (s/n) v_rel term is dropped, matching the
# symmetric (central-difference) limit.
# ---------------------------------------------------------------------------


def _cone_terms(px, py, vx, vy, r):
    """Shared geometry: returns (h, ax, ay, bx, by, dist, penetration).

    (ax, ay) = dh/dp_rel and (bx, by) = dh/dv_rel under the clamping
    conventions above.
    """
    d2 = px * px + py * py
    dot = px * vx + py * vy
    n2 = vx * vx + vy * vy
    if d2 == _INF:
        # the squares overflow although the distance may not
        dist = hypot(px, py)
        inside = dist <= r
    else:
        dist = sqrt(d2)
        inside = d2 <= r * r
    if inside:
        # penetration: half-plane limit of the cone
        return dot, vx, vy, px, py, dist, True
    s = sqrt(dist - r) * sqrt(dist + r) if d2 == _INF else sqrt(d2 - r * r)
    n = sqrt(n2)
    h = dot + n * s
    if n == 0.0:
        return h, vx, vy, px, py, dist, False
    k1 = n / s
    k2 = s / n
    ax = vx + k1 * px
    ay = vy + k1 * py
    bx = px + k2 * vx
    by = py + k2 * vy
    return h, ax, ay, bx, by, dist, False


def c3bf_unicycle(x, y, th, v, om, l, cx, cy, cxd, cyd, r):
    """Collision-cone barrier for the acceleration-controlled unicycle.

    The reference point is the body center at offset l from the drive
    axis; obstacle coordinates are extended state with constant velocity
    (cxd, cyd).  Inputs are (a, alpha).
    """
    ct = cos(th)
    st = sin(th)
    px = cx - (x + l * ct)
    py = cy - (y + l * st)
    vx = cxd - (v * ct - l * om * st)
    vy = cyd - (v * st + l * om * ct)
    h, ax, ay, bx, by, dist, pen = _cone_terms(px, py, vx, vy, r)
    # p_rel' = v_rel for any input; v_rel' drift = v*om*e_n + l*om^2*e_t
    dfx = v * om * st + l * om * om * ct
    dfy = -v * om * ct + l * om * om * st
    lfh = ax * vx + ay * vy + bx * dfx + by * dfy
    # input columns of v_rel': a -> -e_t, alpha -> l*e_n
    lg0 = -(bx * ct + by * st)
    lg1 = l * (bx * st - by * ct)
    return _tuple_new(CbfEvaluation, (h, lfh, (lg0, lg1), pen, dist))


def c3bf_bicycle(x, y, th, v, lr, cx, cy, cxd, cyd, r):
    """Collision-cone barrier for the small-slip bicycle model.

    v_rel here is the heading-aligned approximation (obstacle velocity
    minus v along the body axis), which is deliberately not equal to the
    true relative velocity; p_rel' carries the slip contribution, so the
    beta column collects terms from both p_rel' and v_rel'.
    """
    ct = cos(th)
    st = sin(th)
    px = cx - x
    py = cy - y
    vx = cxd - v * ct
    vy = cyd - v * st
    h, ax, ay, bx, by, dist, pen = _cone_terms(px, py, vx, vy, r)
    # drift: p_rel' = v_rel, v_rel' = 0
    lfh = ax * vx + ay * vy
    # a column: v_rel' gets -e_t
    lg0 = -(bx * ct + by * st)
    # beta column: p_rel' gets v*e_n, v_rel' gets (v^2/lr)*e_n
    a_en = ax * st - ay * ct
    b_en = bx * st - by * ct
    lg1 = v * a_en + (v * v / lr) * b_en
    return _tuple_new(CbfEvaluation, (h, lfh, (lg0, lg1), pen, dist))


def c3bf_pointmass(x, y, vx_s, vy_s, cx, cy, cxd, cyd, r):
    """Collision-cone barrier for the double-integrator point mass."""
    px = cx - x
    py = cy - y
    vx = cxd - vx_s
    vy = cyd - vy_s
    h, ax, ay, bx, by, dist, pen = _cone_terms(px, py, vx, vy, r)
    return _tuple_new(CbfEvaluation, (h, ax * vx + ay * vy, (-bx, -by), pen, dist))


# ---------------------------------------------------------------------------
# elliptical distance barrier baseline
#
# h = ((cx - x)/c1)^2 + ((cy - y)/c2)^2 - 1
# ---------------------------------------------------------------------------


def _ellipse_terms(x, y, vx, vy, cx, cy, cxd, cyd, c1, c2):
    """(h, lfh, dxn, dyn, dist) for a vehicle at (x, y) moving at (vx, vy);
    (dxn, dyn) is half of dh/d(cx, cy)."""
    dxn = (cx - x) / (c1 * c1)
    dyn = (cy - y) / (c2 * c2)
    h = (cx - x) * dxn + (cy - y) * dyn - 1.0
    lfh = 2.0 * dxn * (cxd - vx) + 2.0 * dyn * (cyd - vy)
    # ** 2 differs from x * x in the last bit on some inputs, and the golden
    # ellipse digests hold the bits of ** 2; float ** raises on overflow
    try:
        d2 = (cx - x) ** 2 + (cy - y) ** 2
    except OverflowError:
        d2 = _INF
    # the squares overflow although the distance may not
    dist = hypot(cx - x, cy - y) if d2 == _INF else sqrt(d2)
    return h, lfh, dxn, dyn, dist


def ellipse_unicycle(x, y, th, v, cx, cy, cxd, cyd, c1, c2):
    """Ellipse barrier for the acceleration unicycle: no input appears."""
    h, lfh, _, _, dist = _ellipse_terms(x, y, v * cos(th), v * sin(th), cx, cy, cxd, cyd, c1, c2)
    return _tuple_new(CbfEvaluation, (h, lfh, (0.0, 0.0), False, dist))


def ellipse_bicycle(x, y, th, v, cx, cy, cxd, cyd, c1, c2):
    """Ellipse barrier for the bicycle: only the slip input survives."""
    ct = cos(th)
    st = sin(th)
    h, lfh, dxn, dyn, dist = _ellipse_terms(x, y, v * ct, v * st, cx, cy, cxd, cyd, c1, c2)
    lg1 = 2.0 * dxn * v * st - 2.0 * dyn * v * ct
    return _tuple_new(CbfEvaluation, (h, lfh, (0.0, lg1), False, dist))


def ellipse_pointmass(x, y, vx_s, vy_s, cx, cy, cxd, cyd, c1, c2):
    """Ellipse barrier for the point mass: relative degree two, no input."""
    h, lfh, _, _, dist = _ellipse_terms(x, y, vx_s, vy_s, cx, cy, cxd, cyd, c1, c2)
    return _tuple_new(CbfEvaluation, (h, lfh, (0.0, 0.0), False, dist))


# ---------------------------------------------------------------------------
# second-order extension of the ellipse barrier
#
# h2 = Lf h1 + gamma1 * h1, differentiated once more along the flow.
# ---------------------------------------------------------------------------


def _hocbf_terms(x, y, vx, vy, cx, cy, cxd, cyd, c1, c2, gamma1):
    """(h2, lfh, q1, q2, dx, dy, ax, ay, dist) for a vehicle at (x, y) moving at
    (vx, vy); lfh is the drift at constant (vx, vy), (ax, ay) = v_rel + gamma1 (dx, dy)."""
    q1 = 2.0 / (c1 * c1)
    q2 = 2.0 / (c2 * c2)
    dx = cx - x
    dy = cy - y
    vxr = cxd - vx
    vyr = cyd - vy
    h1 = 0.5 * q1 * dx * dx + 0.5 * q2 * dy * dy - 1.0
    h2 = q1 * dx * vxr + q2 * dy * vyr + gamma1 * h1
    ax = vxr + gamma1 * dx
    ay = vyr + gamma1 * dy
    lfh = q1 * ax * vxr + q2 * ay * vyr
    d2 = dx * dx + dy * dy
    # the squares overflow although the distance may not
    dist = hypot(dx, dy) if d2 == _INF else sqrt(d2)
    return h2, lfh, q1, q2, dx, dy, ax, ay, dist


def hocbf_unicycle(x, y, th, v, om, cx, cy, cxd, cyd, c1, c2, gamma1):
    """Second-order ellipse barrier for the unicycle.

    Recovers the thrust input (a) but never the steering input (alpha):
    the alpha column is structurally zero.
    """
    ct = cos(th)
    st = sin(th)
    h2, lfh, q1, q2, dx, dy, _, _, dist = _hocbf_terms(
        x, y, v * ct, v * st, cx, cy, cxd, cyd, c1, c2, gamma1
    )
    lfh += om * v * (q1 * dx * st - q2 * dy * ct)
    lg0 = -(q1 * dx * ct + q2 * dy * st)
    return _tuple_new(CbfEvaluation, (h2, lfh, (lg0, 0.0), False, dist))


def hocbf_bicycle(x, y, th, v, lr, cx, cy, cxd, cyd, c1, c2, gamma1):
    """Second-order ellipse barrier for the bicycle (static obstacles).

    Callers must reject moving obstacles: the construction is not a
    valid barrier there.
    """
    ct = cos(th)
    st = sin(th)
    h2, lfh, q1, q2, dx, dy, ax, ay, dist = _hocbf_terms(
        x, y, v * ct, v * st, cx, cy, cxd, cyd, c1, c2, gamma1
    )
    lg0 = -(q1 * dx * ct + q2 * dy * st)
    # beta column: transport through x, y plus heading rate v/lr
    lg1 = v * st * q1 * ax - v * ct * q2 * ay + (v / lr) * v * (q1 * dx * st - q2 * dy * ct)
    return _tuple_new(CbfEvaluation, (h2, lfh, (lg0, lg1), False, dist))


def hocbf_pointmass(x, y, vx_s, vy_s, cx, cy, cxd, cyd, c1, c2, gamma1):
    """Second-order ellipse barrier for the point mass."""
    h2, lfh, q1, q2, dx, dy, _, _, dist = _hocbf_terms(
        x, y, vx_s, vy_s, cx, cy, cxd, cyd, c1, c2, gamma1
    )
    return _tuple_new(CbfEvaluation, (h2, lfh, (-q1 * dx, -q2 * dy), False, dist))


# ---------------------------------------------------------------------------
# classical fixed-step RK4, control held constant over the step
# ---------------------------------------------------------------------------


def rk4_unicycle(x, y, th, v, om, a, al, dt):
    """One RK4 step of the unicycle; the heading comes back unwrapped.

    The state derivative is (v cos th, v sin th, om, a, al); its stages
    are written out as scalars. v and om are linear in time, so stages 2
    and 3 share their speed and yaw rate.
    """
    h2 = 0.5 * dt
    v2 = v + h2 * a
    om2 = om + h2 * al
    v4 = v + dt * a
    om4 = om + dt * al
    th2 = th + h2 * om
    th3 = th + h2 * om2
    th4 = th + dt * om2
    w = dt / 6.0
    return (
        x + w * (v * cos(th) + 2.0 * (v2 * cos(th2)) + 2.0 * (v2 * cos(th3)) + v4 * cos(th4)),
        y + w * (v * sin(th) + 2.0 * (v2 * sin(th2)) + 2.0 * (v2 * sin(th3)) + v4 * sin(th4)),
        th + w * (om + 2.0 * om2 + 2.0 * om2 + om4),
        v4,
        om4,
    )


def rk4_bicycle(x, y, th, v, a, be, lr, dt):
    """One RK4 step of the small-slip bicycle; the heading comes back unwrapped.

    The state derivative is (v cos th - v be sin th, v sin th + v be cos th,
    v be / lr, a); its stages are written out as scalars. v is linear in
    time, so stages 2 and 3 share their speed and heading rate.
    """
    h2 = 0.5 * dt
    v2 = v + h2 * a
    v4 = v + dt * a
    vb1 = v * be
    vb2 = v2 * be
    vb4 = v4 * be
    om1 = vb1 / lr
    om2 = vb2 / lr
    th2 = th + h2 * om1
    th3 = th + h2 * om2
    th4 = th + dt * om2
    c1 = cos(th)
    s1 = sin(th)
    c2 = cos(th2)
    s2 = sin(th2)
    c3 = cos(th3)
    s3 = sin(th3)
    c4 = cos(th4)
    s4 = sin(th4)
    w = dt / 6.0
    return (
        x + w * (
            (v * c1 - vb1 * s1) + 2.0 * (v2 * c2 - vb2 * s2)
            + 2.0 * (v2 * c3 - vb2 * s3) + (v4 * c4 - vb4 * s4)
        ),
        y + w * (
            (v * s1 + vb1 * c1) + 2.0 * (v2 * s2 + vb2 * c2)
            + 2.0 * (v2 * s3 + vb2 * c3) + (v4 * s4 + vb4 * c4)
        ),
        th + w * (om1 + 2.0 * om2 + 2.0 * om2 + vb4 / lr),
        v4,
    )


def rk4_pointmass(x, y, vx, vy, ax, ay, dt):
    """One RK4 step of the double integrator (exact for constant input)."""
    return (
        x + dt * vx + 0.5 * dt * dt * ax,
        y + dt * vy + 0.5 * dt * dt * ay,
        vx + dt * ax,
        vy + dt * ay,
    )


# ---------------------------------------------------------------------------
# minimal-deviation QP in two variables
#
#   min ||u - u_ref||^2   s.t.  g_i . u >= b_i
#
# In the plane the optimum is u_ref, the projection of u_ref onto one row's
# boundary, or the vertex of two rows, so an exact solve enumerates those
# candidates in that order.  A feasible projection of a row u_ref violates,
# and a feasible vertex with nonnegative multipliers, satisfy KKT and are
# returned at once; otherwise the closest feasible candidate wins, as when
# opposed rows leave an empty strip thinner than _FEAS_TOL (closed-loop runs
# meet such rows).  With none feasible, u_ref comes back flagged.  The rule
# for that step's input is least_violation, the least sum_i min(0, g_i . u
# - b_i)^2 over a box: Gauss-Newton passes from u_ref with exact line
# searches (Mangasarian's finite Newton method, 2002) until one no longer
# lowers the sum; if that point leaves the box, the best point of the box's
# finite edges, each searched from u_ref saturated to the box, equal sums
# going to the edge point nearest u_ref.  Directions that no violated row
# pins keep u_ref's value.
# ---------------------------------------------------------------------------

_FEAS_TOL = 1e-10


def _unmet(u0, u1, g0s, g1s, bs):
    """First row index that u fails, or -1.

    Written so that a row holding NaN never counts as met.
    """
    for i in range(len(bs)):
        b = bs[i]
        if not g0s[i] * u0 + g1s[i] * u1 - b >= -_FEAS_TOL * (1.0 + abs(b)):
            return i
    return -1


def _sq_violation(u0, u1, g0s, g1s, bs):
    """Summed squared violation of every row at u; NaN if a row holds NaN."""
    rs = (g0 * u0 + g1 * u1 - b for g0, g1, b in zip(g0s, g1s, bs))
    return sum(r * r for r in rs if not r >= 0.0)


def _line_min(p0, p1, d0, d1, g0s, g1s, bs, t0, lo, hi):
    """The t in [lo, hi] of least summed squared violation at p + t d, ties
    to the t nearest t0. Residuals a_i + t c_i keep their signs between
    roots -a_i / c_i; each such interval offers its violated rows' stationary
    point -sum(a c) / sum(c c) (else t0), kept inside it and [lo, hi]."""
    a = [g0 * p0 + g1 * p1 - b for g0, g1, b in zip(g0s, g1s, bs)]
    c = [g0 * d0 + g1 * d1 for g0, g1 in zip(g0s, g1s)]
    ks = sorted((i for i, ci in enumerate(c) if ci != 0.0), key=lambda i: -a[i] / c[i])
    cuts = [-_INF] + [-a[i] / c[i] for i in ks] + [_INF]
    best = min(max(t0, lo), hi)
    f = _sq_violation(p0 + best * d0, p1 + best * d1, g0s, g1s, bs)
    for k in range(len(ks) + 1):
        # a row with c_i > 0 is violated left of its root (j >= k), else right
        on = [i for j, i in enumerate(ks) if (j >= k) == (c[i] > 0.0)]
        scc = sum(c[i] * c[i] for i in on)
        t = -sum(a[i] * c[i] for i in on) / scc if scc > 0.0 else t0
        t = min(max(min(max(t, cuts[k]), cuts[k + 1]), lo), hi)
        ft = _sq_violation(p0 + t * d0, p1 + t * d1, g0s, g1s, bs)
        if ft < f or (ft == f and abs(t - t0) < abs(best - t0)):
            best, f = t, ft
    return best


def least_violation(ur0, ur1, g0s, g1s, bs, lo0, hi0, lo1, hi1):
    """The input in the box lo <= u <= hi (bounds may be infinite) of least
    summed squared violation, by the rule above. A pass's Newton step solves
    A d = e over the violated rows, A = sum g g^T, e = sum g (b - g . u), or
    d = A+ e with A+ = A / tr(A)^2 for parallel normals. Of the box edges'
    best points, equal sums go to the one nearest u_ref. A NaN row leaves
    u_ref, saturated to the box."""
    u0, u1 = ur0, ur1
    f = _sq_violation(u0, u1, g0s, g1s, bs)
    while f > 0.0:
        a00 = a01 = a11 = e0 = e1 = 0.0
        for g0, g1, b in zip(g0s, g1s, bs):
            r = b - (g0 * u0 + g1 * u1)
            if r > 0.0:
                a00 += g0 * g0
                a01 += g0 * g1
                a11 += g1 * g1
                e0 += g0 * r
                e1 += g1 * r
        tr = a00 + a11
        if not tr > 0.0:
            break
        # A / tr has trace 1, so no product below under- or overflows
        a00, a01, a11 = a00 / tr, a01 / tr, a11 / tr
        det = a00 * a11 - a01 * a01
        if det > 1e-14:
            d0, d1 = (a11 * e0 - a01 * e1) / det / tr, (a00 * e1 - a01 * e0) / det / tr
        else:
            d0, d1 = (a00 * e0 + a01 * e1) / tr, (a01 * e0 + a11 * e1) / tr
        # from the full Newton point, t = 1: rounding can leave it the lowest
        t = _line_min(u0, u1, d0, d1, g0s, g1s, bs, 1.0, 0.0, _INF)
        p0, p1 = u0 + t * d0, u1 + t * d1
        fp = _sq_violation(p0, p1, g0s, g1s, bs)
        if not fp < f:
            break
        u0, u1, f = p0, p1, fp
    if lo0 <= u0 <= hi0 and lo1 <= u1 <= hi1:
        return u0, u1
    s0, s1 = min(max(ur0, lo0), hi0), min(max(ur1, lo1), hi1)
    edges = [(v, _line_min(v, 0.0, 0.0, 1.0, g0s, g1s, bs, s1, lo1, hi1)) for v in (lo0, hi0) if not isinf(v)]
    edges += [(_line_min(0.0, v, 1.0, 0.0, g0s, g1s, bs, s0, lo0, hi0), v) for v in (lo1, hi1) if not isinf(v)]
    return min(edges, key=lambda e: (_sq_violation(*e, g0s, g1s, bs), hypot(e[0] - ur0, e[1] - ur1)))


def solve_qp2(ur0, ur1, g0s, g1s, bs):
    """Solve min ||u - u_ref||^2 s.t. g_i . u >= b_i over u in R^2.

    Returns (u0, u1, active, feasible) where `active` is the sorted tuple
    of binding constraint indices.  When the constraint set is empty or
    u_ref already satisfies everything, u_ref is returned unchanged.
    Otherwise the 1-row projections and then the 2-row vertices are
    enumerated (see above); the result is the exact optimum whenever the
    constraints are feasible.  With no candidate feasible, or a row holding
    NaN (never met), u_ref comes back with feasible=False and nothing more
    is computed; least_violation gives that step's input by one rule.
    """
    if _unmet(ur0, ur1, g0s, g1s, bs) < 0:
        return ur0, ur1, (), True
    m = len(bs)
    best = None
    for i in range(m):
        gg = g0s[i] * g0s[i] + g1s[i] * g1s[i]
        if gg <= 0.0:
            continue
        lam = (bs[i] - (g0s[i] * ur0 + g1s[i] * ur1)) / gg
        u0 = ur0 + lam * g0s[i]
        u1 = ur1 + lam * g1s[i]
        if _unmet(u0, u1, g0s, g1s, bs) < 0:
            if lam > 0.0:
                # the optimum over row i alone, and feasible: the optimum
                return u0, u1, (i,), True
            d2 = (u0 - ur0) ** 2 + (u1 - ur1) ** 2
            if best is None or d2 < best[0]:
                best = (d2, u0, u1, (i,))
    for i in range(m):
        for j in range(i + 1, m):
            det = g0s[i] * g1s[j] - g1s[i] * g0s[j]
            scale = abs(g0s[i]) + abs(g1s[i]) + abs(g0s[j]) + abs(g1s[j])
            if abs(det) <= 1e-14 * scale * scale:
                continue
            u0 = (bs[i] * g1s[j] - g1s[i] * bs[j]) / det
            u1 = (g0s[i] * bs[j] - bs[i] * g0s[j]) / det
            if _unmet(u0, u1, g0s, g1s, bs) < 0:
                du0 = u0 - ur0
                du1 = u1 - ur1
                li = (du0 * g1s[j] - g0s[j] * du1) / det
                lj = (g0s[i] * du1 - du0 * g1s[i]) / det
                if li >= -1e-12 and lj >= -1e-12:
                    # both multipliers nonnegative: KKT holds
                    return u0, u1, (i, j), True
                d2 = du0 * du0 + du1 * du1
                if best is None or d2 < best[0]:
                    best = (d2, u0, u1, (i, j))
    if best is None:
        return ur0, ur1, (), False
    return best[1], best[2], best[3], True
