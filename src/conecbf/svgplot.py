"""Static SVG plots of logged runs: paths, barrier traces, inputs.

Hand-rolled emitter (no plotting dependency) so batch outputs are
deterministic text files. Trace segments where the filter was active are
drawn in a highlight color, matching the convention of coloring the
portions of a run where the safe input differs from the reference.
Non-finite samples are skipped: they neither frame a plot nor join a trace.
"""

from itertools import repeat
from math import ceil, floor, isfinite, log10

from .cbf import effective_radius
from .errors import ValidationError
from .scenario_io import parse_scenario

W, H = 760, 520
MARGIN = 56
ACTIVE = "#d9541e"
INACTIVE = "#3567a6"
REF = "#8a8a8a"
OBSTACLE = "#2e8b57"
GRID = "#d8d8d8"


class _Frame:
    """Maps world coordinates into the pixel viewport framing the finite ones."""

    def __init__(self, xs, ys, equal_aspect=False, pad=0.08):
        xs = [v for v in xs if isfinite(v)] or [0.0]
        ys = [v for v in ys if isfinite(v)] or [0.0]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        dx = (xmax - xmin) or 1.0
        dy = (ymax - ymin) or 1.0
        xmin -= pad * dx
        xmax += pad * dx
        ymin -= pad * dy
        ymax += pad * dy
        if equal_aspect:
            w_avail = W - 2 * MARGIN
            h_avail = H - 2 * MARGIN
            sx = w_avail / (xmax - xmin)
            sy = h_avail / (ymax - ymin)
            s = min(sx, sy)
            cx = 0.5 * (xmin + xmax)
            cy = 0.5 * (ymin + ymax)
            xmin, xmax = cx - 0.5 * w_avail / s, cx + 0.5 * w_avail / s
            ymin, ymax = cy - 0.5 * h_avail / s, cy + 0.5 * h_avail / s
        if not (isfinite(xmax - xmin) and isfinite(ymax - ymin)):
            raise ValidationError("the samples span more than the float range")
        self.xmin, self.xmax, self.ymin, self.ymax = xmin, xmax, ymin, ymax

    def px(self, x):
        return MARGIN + (x - self.xmin) / (self.xmax - self.xmin) * (W - 2 * MARGIN)

    def py(self, y):
        return H - MARGIN - (y - self.ymin) / (self.ymax - self.ymin) * (H - 2 * MARGIN)

    def scale(self):
        return (W - 2 * MARGIN) / (self.xmax - self.xmin)


def _ticks(lo, hi, n=6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / n
    mag = 10 ** floor(log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = ceil(lo / step) * step
    out = []
    x = first
    while x <= hi + 1e-12 * span:
        out.append(round(x, 10))
        x += step
    return out


def _fmt(v):
    return f"{v:.6g}"


class _Svg:
    def __init__(self, title):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}" font-family="Helvetica, Arial, sans-serif">',
            f'<rect width="{W}" height="{H}" fill="white"/>',
            f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        ]

    def line(self, x1, y1, x2, y2, color, width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>'
        )

    def polyline(self, pts, color, width=1.6, dash=None):
        if len(pts) < 2:
            return
        d = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>'
        )

    def circle(self, cx, cy, r, stroke, fill="none", width=1.5, dash=None, opacity=1.0):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" stroke="{stroke}" '
            f'fill="{fill}" fill-opacity="{opacity}" stroke-width="{width}"{d}/>'
        )

    def text(self, x, y, s, size=11, anchor="middle", color="#333"):
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" '
            f'font-size="{size}" fill="{color}">{s}</text>'
        )

    def axes(self, frame, xlabel, ylabel):
        self.line(MARGIN, H - MARGIN, W - MARGIN, H - MARGIN, "#222")
        self.line(MARGIN, MARGIN, MARGIN, H - MARGIN, "#222")
        for tx in _ticks(frame.xmin, frame.xmax):
            px = frame.px(tx)
            self.line(px, MARGIN, px, H - MARGIN, GRID, 0.6)
            self.text(px, H - MARGIN + 16, _fmt(tx))
        for ty in _ticks(frame.ymin, frame.ymax):
            py = frame.py(ty)
            self.line(MARGIN, py, W - MARGIN, py, GRID, 0.6)
            self.text(MARGIN - 6, py + 4, _fmt(ty), anchor="end")
        self.text((W) / 2, H - 12, xlabel, size=12)
        self.parts.append(
            f'<text x="16" y="{H / 2:.1f}" text-anchor="middle" font-size="12" '
            f'fill="#333" transform="rotate(-90 16 {H / 2:.1f})">{ylabel}</text>'
        )

    def tostring(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _trace(svg, frame, xs, ys, flags, styles):
    """One polyline per run of equal flag, in styles[flag] = (color, width, dash).

    The sample where the flag switches closes one run and opens the next; a
    non-finite sample is not drawn and ends the run.
    """
    run, flag = [], False
    for x, y, f in zip(xs, ys, flags):
        if not (isfinite(x) and isfinite(y)):
            svg.polyline(run, *styles[flag])
            run = []
            continue
        pt = (frame.px(x), frame.py(y))
        if run and f != flag:
            svg.polyline(run + [pt], *styles[flag])
            run = []
        if not run:
            flag = f
        run.append(pt)
    svg.polyline(run, *styles[flag])


def _legend(svg, entries):
    """(text, color) lines, right-aligned under the title."""
    for i, (text, color) in enumerate(entries):
        svg.text(W - MARGIN, 40 + 14 * i, text, anchor="end", color=color)


FILTER_LEGEND = (("filter active", ACTIVE), ("filter inactive", INACTIVE))


def _any_active(data):
    n = len(data["t"])
    cols = [c for c in data if c.startswith("active_")]
    return [any(data[c][k] > 0.5 for c in cols) for k in range(n)]


def plot_path(data, summary, title="vehicle path"):
    """Top-down trace with obstacle discs at effective radius."""
    xs = data["x"]
    ys = data["y"]
    all_x = list(xs)
    all_y = list(ys)
    t_end = data["t"][-1]
    sc = parse_scenario(summary.get("scenario"))
    discs = []
    for o in sc.obstacles:
        r = effective_radius(o, sc.params)
        start, end = o.state_at(0.0)[:2], o.state_at(t_end)[:2]
        discs.append((start, end, r))
        for (px, py) in (start, end):
            all_x += [px - r, px + r]
            all_y += [py - r, py + r]
    frame = _Frame(all_x, all_y, equal_aspect=True)
    svg = _Svg(title)
    svg.axes(frame, "x [m]", "y [m]")
    s = frame.scale()
    for (sx, sy), (ex, ey), r in discs:
        moving = abs(ex - sx) + abs(ey - sy) > 1e-9
        svg.circle(frame.px(sx), frame.py(sy), r * s, OBSTACLE, fill=OBSTACLE, opacity=0.25)
        if moving:
            svg.line(frame.px(sx), frame.py(sy), frame.px(ex), frame.py(ey), OBSTACLE, 1.0, dash="4 3")
            svg.circle(frame.px(ex), frame.py(ey), r * s, OBSTACLE, dash="4 3")
    _trace(svg, frame, xs, ys, _any_active(data), ((INACTIVE, 1.6), (ACTIVE, 2.2)))
    if isfinite(xs[0]) and isfinite(ys[0]):
        svg.circle(frame.px(xs[0]), frame.py(ys[0]), 4, "#111", fill="#111")
        svg.text(frame.px(xs[0]) + 8, frame.py(ys[0]) - 6, "start", anchor="start")
    _legend(svg, FILTER_LEGEND)
    return svg.tostring()


def plot_hvalue(data, title="barrier value over time"):
    """h(t) per obstacle, highlighted where the filter was active."""
    t = data["t"]
    h_cols = sorted((c for c in data if c.startswith("h_")), key=lambda c: int(c.split("_")[1]))
    if not h_cols:
        raise ValidationError("no h columns in CSV (scenario had no obstacles)")
    frame = _Frame(t, [v for c in h_cols for v in data[c]] + [0.0])
    svg = _Svg(title)
    svg.axes(frame, "t [s]", "h")
    if frame.ymin < 0 < frame.ymax:
        svg.line(MARGIN, frame.py(0), W - MARGIN, frame.py(0), "#555", 1.0, dash="6 4")
    active = _any_active(data)
    for c in h_cols:
        _trace(svg, frame, t, data[c], active, ((INACTIVE, 1.4), (ACTIVE, 2.0)))
    _legend(svg, FILTER_LEGEND)
    return svg.tostring()


def plot_inputs(data, title="reference vs filtered input"):
    """Both input components: reference dashed, filtered solid."""
    t = data["t"]
    series = [
        ("u_ref_0", REF, "4 3"),
        ("u_star_0", INACTIVE, None),
        ("u_ref_1", REF, "4 3"),
        ("u_star_1", ACTIVE, None),
    ]
    vals = [v for name, _, _ in series for v in data[name]]
    frame = _Frame(t, vals)
    svg = _Svg(title)
    svg.axes(frame, "t [s]", "u")
    for name, color, dash in series:
        _trace(svg, frame, t, data[name], repeat(False), ((color, 1.6, dash),))
    _legend(svg, (("u*[0]", INACTIVE), ("u*[1]", ACTIVE), ("reference (dashed)", REF)))
    return svg.tostring()
