"""Seeded generator of the crowded scenes run by the `crowd` workload.

One scene per vehicle model. Each scene has 24 moving elliptical
obstacles whose velocity is re-pointed at 3 segment times, spread over
a field ahead of a vehicle that drives straight at 1.5 m/s.
The scenes are scenario documents, so they pass through the same
`parse_scenario` validation as the committed corpus.
"""

import math
import random

N_SEGMENTS = 3
# segment times fall in this window [s], while every obstacle is still
# several metres from the vehicle: the cone barrier lets the vehicle
# graze an obstacle at zero margin, and a velocity change at that moment
# would turn the graze into contact
SEGMENT_WINDOW = (0.5, 5.0)
DURATION = 20.0
DT = 0.01
ACTIVATION_RADIUS = 8.0
V_DES = 1.5
# a fast class-K gain: obstacles that enter the activation radius inside
# their cone (h < 0) must leave it well before contact
GAMMA = 5.0
# obstacle grid: COLUMNS x ROWS cells of CELL_X by CELL_Y metres from x = X0
COLUMNS = 6
ROWS = 4
CELL_X = 6.5
CELL_Y = 7.5
X0 = 12.0
CELL_JITTER = 0.5
# per-obstacle velocity jitter around the scene's flow [m/s]
JITTER = 0.02
# flow heading spread around the lane axis [rad]
FLOW_SPREAD = math.pi / 6

_MODELS = {
    "unicycle": (
        {"l": 0.4, "w": 0.6},
        {"x": 0.0, "y": 0.0, "theta": 0.0, "v": V_DES, "omega": 0.0},
        {"kind": "p", "k1": 2.0, "k2": 0.3, "v_des": V_DES},
    ),
    "bicycle": (
        {"l_f": 1.0, "l_r": 1.0, "w": 0.6, "beta_max": 0.2},
        {"x": 0.0, "y": 0.0, "theta": 0.0, "v": V_DES},
        {"kind": "p", "k1": 2.0, "v_des": V_DES},
    ),
    "pointmass": (
        {"w": 0.6},
        {"x": 0.0, "y": 0.0, "vx": V_DES, "vy": 0.0},
        {"kind": "p", "k1": 2.0, "v_des_vec": [V_DES, 0.0]},
    ),
}


def _velocity(rng, flow):
    # obstacles drift with a shared flow plus a small jitter, so the gaps
    # between them stay open: two obstacles closing on the vehicle from
    # opposite sides would make the filter infeasible
    return [round(flow[0] + rng.uniform(-JITTER, JITTER), 6),
            round(flow[1] + rng.uniform(-JITTER, JITTER), 6)]


def _obstacles(rng):
    # the flow runs along the vehicle's lane, with or against it: a flow
    # across the lane sweeps obstacles sideways into a vehicle that can
    # only brake or accelerate (the slip-limited bicycle) from both sides
    speed = rng.uniform(0.1, 0.25)
    heading = rng.choice((0.0, math.pi)) + rng.uniform(-FLOW_SPREAD, FLOW_SPREAD)
    flow = (speed * math.cos(heading), speed * math.sin(heading))
    obstacles = []
    # one obstacle per cell of a COLUMNS x ROWS grid ahead of the vehicle,
    # jittered inside its cell, odd columns shifted half a cell so that
    # some obstacles sit in the vehicle's lane: the field is dense but
    # every gap between neighbours stays wider than the vehicle
    for col in range(COLUMNS):
        for row in range(ROWS):
            cx = X0 + (col + 0.5) * CELL_X + rng.uniform(-CELL_JITTER, CELL_JITTER)
            cy = ((row + 0.5 - ROWS / 2 + 0.5 * (col % 2)) * CELL_Y
                  + rng.uniform(-CELL_JITTER, CELL_JITTER))
            times = sorted(rng.sample(range(int(SEGMENT_WINDOW[0] * 100),
                                            int(SEGMENT_WINDOW[1] * 100)), N_SEGMENTS))
            obstacles.append({
                "center": [round(cx, 6), round(cy, 6)],
                "velocity": _velocity(rng, flow),
                "semi_axes": [round(rng.uniform(0.25, 0.6), 6), round(rng.uniform(0.25, 0.6), 6)],
                "segments": [{"t": t / 100, "velocity": _velocity(rng, flow)} for t in times],
            })
    return obstacles


def crowd_documents(seed):
    """Scenario documents for `seed`, one per model, in a fixed order."""
    docs = []
    for model, (params, state, controller) in _MODELS.items():
        rng = random.Random(f"crowd-{seed}-{model}")
        docs.append({
            "name": f"crowd-{model}-{seed}",
            "model": model,
            "params": dict(params),
            "initial_state": dict(state),
            "obstacles": _obstacles(rng),
            "controller": dict(controller),
            "filter": {"gamma": GAMMA, "activation_radius": ACTIVATION_RADIUS},
            "sim": {"dt": DT, "duration": DURATION},
            "cbf": "c3bf",
        })
    return docs
