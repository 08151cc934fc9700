"""Hot kernels: barrier evaluations, RK4 steps, tiny QP.

This module is the single source of the package's numerical core: the
cone barrier and its Lie derivatives, the baseline barriers, the RK4
steps and the 2-D QP are each defined here and nowhere else. Callers
reach it through `conecbf._backend.kernel`. Everything is scalar math
on plain floats, fast enough for real-time-style stepping.

Barrier evaluations return a flat 6-tuple
    (h, lfh, lg0, lg1, dist, penetration)
where (lg0, lg1) is the input Lie-derivative row, dist the center
distance used for gating, and penetration is 1.0 once the center
distance falls inside the effective radius.
"""

from math import cos, fmod, pi, sin, sqrt

__all__ = [
    "backend_name",
    "c3bf_unicycle",
    "c3bf_bicycle",
    "c3bf_pointmass",
    "ellipse_unicycle",
    "ellipse_bicycle",
    "ellipse_pointmass",
    "hocbf_unicycle",
    "hocbf_bicycle",
    "hocbf_pointmass",
    "rk4_unicycle",
    "rk4_bicycle",
    "rk4_pointmass",
    "solve_qp2",
    "wrap_angle",
]

backend_name = "pure"

_TWO_PI = 2.0 * pi


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
    """Shared geometry: returns (h, ax, ay, bx, by, dist, pen).

    (ax, ay) = dh/dp_rel and (bx, by) = dh/dv_rel under the clamping
    conventions above.
    """
    d2 = px * px + py * py
    dist = sqrt(d2)
    dot = px * vx + py * vy
    n2 = vx * vx + vy * vy
    if d2 <= r * r:
        # penetration: half-plane limit of the cone
        return dot, vx, vy, px, py, dist, 1.0
    s = sqrt(d2 - r * r)
    n = sqrt(n2)
    h = dot + n * s
    if n == 0.0:
        return h, vx, vy, px, py, dist, 0.0
    k1 = n / s
    k2 = s / n
    ax = vx + k1 * px
    ay = vy + k1 * py
    bx = px + k2 * vx
    by = py + k2 * vy
    return h, ax, ay, bx, by, dist, 0.0


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
    return h, lfh, lg0, lg1, dist, pen


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
    return h, lfh, lg0, lg1, dist, pen


def c3bf_pointmass(x, y, vx_s, vy_s, cx, cy, cxd, cyd, r):
    """Collision-cone barrier for the double-integrator point mass."""
    px = cx - x
    py = cy - y
    vx = cxd - vx_s
    vy = cyd - vy_s
    h, ax, ay, bx, by, dist, pen = _cone_terms(px, py, vx, vy, r)
    lfh = ax * vx + ay * vy
    return h, lfh, -bx, -by, dist, pen


# ---------------------------------------------------------------------------
# elliptical distance barrier baseline
#
# h = ((cx - x)/c1)^2 + ((cy - y)/c2)^2 - 1
# ---------------------------------------------------------------------------


def ellipse_unicycle(x, y, th, v, cx, cy, cxd, cyd, c1, c2):
    """Ellipse barrier for the acceleration unicycle: no input appears."""
    dxn = (cx - x) / (c1 * c1)
    dyn = (cy - y) / (c2 * c2)
    h = (cx - x) * dxn + (cy - y) * dyn - 1.0
    lfh = 2.0 * dxn * (cxd - v * cos(th)) + 2.0 * dyn * (cyd - v * sin(th))
    dist = sqrt((cx - x) ** 2 + (cy - y) ** 2)
    return h, lfh, 0.0, 0.0, dist, 0.0


def ellipse_bicycle(x, y, th, v, cx, cy, cxd, cyd, c1, c2):
    """Ellipse barrier for the bicycle: only the slip input survives."""
    ct = cos(th)
    st = sin(th)
    dxn = (cx - x) / (c1 * c1)
    dyn = (cy - y) / (c2 * c2)
    h = (cx - x) * dxn + (cy - y) * dyn - 1.0
    lfh = 2.0 * dxn * (cxd - v * ct) + 2.0 * dyn * (cyd - v * st)
    lg1 = 2.0 * dxn * v * st - 2.0 * dyn * v * ct
    dist = sqrt((cx - x) ** 2 + (cy - y) ** 2)
    return h, lfh, 0.0, lg1, dist, 0.0


def ellipse_pointmass(x, y, vx_s, vy_s, cx, cy, cxd, cyd, c1, c2):
    """Ellipse barrier for the point mass: relative degree two, no input."""
    dxn = (cx - x) / (c1 * c1)
    dyn = (cy - y) / (c2 * c2)
    h = (cx - x) * dxn + (cy - y) * dyn - 1.0
    lfh = 2.0 * dxn * (cxd - vx_s) + 2.0 * dyn * (cyd - vy_s)
    dist = sqrt((cx - x) ** 2 + (cy - y) ** 2)
    return h, lfh, 0.0, 0.0, dist, 0.0


# ---------------------------------------------------------------------------
# second-order extension of the ellipse barrier
#
# h2 = Lf h1 + gamma1 * h1, differentiated once more along the flow.
# ---------------------------------------------------------------------------


def hocbf_unicycle(x, y, th, v, om, cx, cy, cxd, cyd, c1, c2, gamma1):
    """Second-order ellipse barrier for the unicycle.

    Recovers the thrust input (a) but never the steering input (alpha):
    the alpha column is structurally zero.
    """
    ct = cos(th)
    st = sin(th)
    q1 = 2.0 / (c1 * c1)
    q2 = 2.0 / (c2 * c2)
    dx = cx - x
    dy = cy - y
    vxr = cxd - v * ct
    vyr = cyd - v * st
    h1 = 0.5 * q1 * dx * dx + 0.5 * q2 * dy * dy - 1.0
    h2 = q1 * dx * vxr + q2 * dy * vyr + gamma1 * h1
    lfh = (
        q1 * (vxr + gamma1 * dx) * vxr
        + q2 * (vyr + gamma1 * dy) * vyr
        + om * v * (q1 * dx * st - q2 * dy * ct)
    )
    lg0 = -(q1 * dx * ct + q2 * dy * st)
    dist = sqrt(dx * dx + dy * dy)
    return h2, lfh, lg0, 0.0, dist, 0.0


def hocbf_bicycle(x, y, th, v, lr, cx, cy, cxd, cyd, c1, c2, gamma1):
    """Second-order ellipse barrier for the bicycle (static obstacles).

    Callers must reject moving obstacles: the construction is not a
    valid barrier there.
    """
    ct = cos(th)
    st = sin(th)
    q1 = 2.0 / (c1 * c1)
    q2 = 2.0 / (c2 * c2)
    dx = cx - x
    dy = cy - y
    vxr = cxd - v * ct
    vyr = cyd - v * st
    h1 = 0.5 * q1 * dx * dx + 0.5 * q2 * dy * dy - 1.0
    h2 = q1 * dx * vxr + q2 * dy * vyr + gamma1 * h1
    lfh = q1 * (vxr + gamma1 * dx) * vxr + q2 * (vyr + gamma1 * dy) * vyr
    lg0 = -(q1 * dx * ct + q2 * dy * st)
    # beta column: transport through x, y plus heading rate v/lr
    lg1 = v * st * q1 * (vxr + gamma1 * dx) - v * ct * q2 * (vyr + gamma1 * dy) + (
        v / lr
    ) * v * (q1 * dx * st - q2 * dy * ct)
    dist = sqrt(dx * dx + dy * dy)
    return h2, lfh, lg0, lg1, dist, 0.0


def hocbf_pointmass(x, y, vx_s, vy_s, cx, cy, cxd, cyd, c1, c2, gamma1):
    """Second-order ellipse barrier for the point mass."""
    q1 = 2.0 / (c1 * c1)
    q2 = 2.0 / (c2 * c2)
    dx = cx - x
    dy = cy - y
    vxr = cxd - vx_s
    vyr = cyd - vy_s
    h1 = 0.5 * q1 * dx * dx + 0.5 * q2 * dy * dy - 1.0
    h2 = q1 * dx * vxr + q2 * dy * vyr + gamma1 * h1
    lfh = q1 * (vxr + gamma1 * dx) * vxr + q2 * (vyr + gamma1 * dy) * vyr
    lg0 = -q1 * dx
    lg1 = -q2 * dy
    dist = sqrt(dx * dx + dy * dy)
    return h2, lfh, lg0, lg1, dist, 0.0


# ---------------------------------------------------------------------------
# classical fixed-step RK4, control held constant over the step
# ---------------------------------------------------------------------------


def rk4_unicycle(x, y, th, v, om, a, al, dt):
    """One RK4 step of the unicycle; heading renormalized to (-pi, pi]."""

    # state derivative: (v cos th, v sin th, om, a, al)
    def f(xx, yy, tt, vv, oo):
        return vv * cos(tt), vv * sin(tt), oo, a, al

    k1 = f(x, y, th, v, om)
    h2 = 0.5 * dt
    k2 = f(x + h2 * k1[0], y + h2 * k1[1], th + h2 * k1[2], v + h2 * k1[3], om + h2 * k1[4])
    k3 = f(x + h2 * k2[0], y + h2 * k2[1], th + h2 * k2[2], v + h2 * k2[3], om + h2 * k2[4])
    k4 = f(x + dt * k3[0], y + dt * k3[1], th + dt * k3[2], v + dt * k3[3], om + dt * k3[4])
    w = dt / 6.0
    return (
        x + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        wrap_angle(th + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])),
        v + dt * a,
        om + dt * al,
    )


def rk4_bicycle(x, y, th, v, a, be, lr, dt):
    """One RK4 step of the small-slip bicycle; heading renormalized."""

    def f(xx, yy, tt, vv):
        ct = cos(tt)
        st = sin(tt)
        return vv * ct - vv * be * st, vv * st + vv * be * ct, vv * be / lr, a

    k1 = f(x, y, th, v)
    h2 = 0.5 * dt
    k2 = f(x + h2 * k1[0], y + h2 * k1[1], th + h2 * k1[2], v + h2 * k1[3])
    k3 = f(x + h2 * k2[0], y + h2 * k2[1], th + h2 * k2[2], v + h2 * k2[3])
    k4 = f(x + dt * k3[0], y + dt * k3[1], th + dt * k3[2], v + dt * k3[3])
    w = dt / 6.0
    return (
        x + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        wrap_angle(th + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])),
        v + dt * a,
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
# returned at once; otherwise the closest feasible candidate wins.  With
# none feasible, a descent from u_ref on the squared violation decides.
# ---------------------------------------------------------------------------

_FEAS_TOL = 1e-10


def _unmet(u0, u1, g0s, g1s, bs, start=0):
    """First row index >= start that u fails, or -1.

    Written so that a row holding NaN never counts as met.
    """
    for i in range(start, len(bs)):
        b = bs[i]
        if not g0s[i] * u0 + g1s[i] * u1 - b >= -_FEAS_TOL * (1.0 + abs(b)):
            return i
    return -1


def _sq_violation(u0, u1, g0s, g1s, bs):
    """Summed squared violation of every row at u; NaN if a row holds NaN."""
    rs = (g0 * u0 + g1 * u1 - b for g0, g1, b in zip(g0s, g1s, bs))
    return sum(r * r for r in rs if not r >= 0.0)


def _least_violation(ur0, ur1, g0s, g1s, bs):
    """An input whose summed squared violation is never above u_ref's.

    Gauss-Newton passes from u_ref over the rows violated at each point;
    a step is halved until it does not raise the violation over all rows,
    so the result need not be the minimizer but never does worse than
    u_ref (which a NaN row leaves in place). Directions not pinned by
    violated rows are left untouched.
    """
    u0, u1 = ur0, ur1
    f = _sq_violation(u0, u1, g0s, g1s, bs)
    for _ in range(12):
        i = _unmet(u0, u1, g0s, g1s, bs)
        if i < 0:
            break
        a00 = a01 = a11 = r0 = r1 = 0.0
        while i >= 0:
            a00 += g0s[i] * g0s[i]
            a01 += g0s[i] * g1s[i]
            a11 += g1s[i] * g1s[i]
            r0 += g0s[i] * bs[i]
            r1 += g1s[i] * bs[i]
            i = _unmet(u0, u1, g0s, g1s, bs, i + 1)
        det = a00 * a11 - a01 * a01
        if abs(det) > 1e-14 * (a00 + a11) ** 2:
            n0 = (a11 * r0 - a01 * r1) / det
            n1 = (a00 * r1 - a01 * r0) / det
        else:
            # violated normals are parallel: move along them only
            nrm = sqrt(a00 + a11)
            if nrm == 0.0:
                break
            # unit direction of the shared normal
            if a00 >= a11:
                gx = sqrt(a00)
                gy = a01 / gx
            else:
                gy = sqrt(a11)
                gx = a01 / gy
            gx /= nrm
            gy /= nrm
            t_star = (r0 * gx + r1 * gy) / (a00 * gx * gx + 2 * a01 * gx * gy + a11 * gy * gy)
            off = u0 * gx + u1 * gy
            n0 = u0 + (t_star - off) * gx
            n1 = u1 + (t_star - off) * gy
        # the Gauss-Newton direction descends: halve the step until the
        # summed squared violation rises no more
        for _ in range(40):
            fn = _sq_violation(n0, n1, g0s, g1s, bs)
            if fn <= f:
                break
            n0, n1 = 0.5 * (u0 + n0), 0.5 * (u1 + n1)
        else:
            break
        f = fn
        if abs(n0 - u0) <= 1e-14 * (1 + abs(u0)) and abs(n1 - u1) <= 1e-14 * (1 + abs(u1)):
            u0, u1 = n0, n1
            break
        u0, u1 = n0, n1
    return u0, u1


def solve_qp2(ur0, ur1, g0s, g1s, bs):
    """Solve min ||u - u_ref||^2 s.t. g_i . u >= b_i over u in R^2.

    Returns (u0, u1, active, feasible) where `active` is the sorted tuple
    of binding constraint indices.  When the constraint set is empty or
    u_ref already satisfies everything, u_ref is returned unchanged.
    Otherwise the 1-row projections and then the 2-row vertices are
    enumerated (see above); the result is the exact optimum whenever the
    constraints are feasible.  Infeasible systems yield feasible=False
    and an input whose summed squared violation is no larger than
    u_ref's (see _least_violation); a row holding NaN is never met, so it
    also yields feasible=False.
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
        u0, u1 = _least_violation(ur0, ur1, g0s, g1s, bs)
        return u0, u1, (), False
    return best[1], best[2], best[3], True
