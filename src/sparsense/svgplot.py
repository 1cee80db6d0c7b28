"""Minimal self-contained SVG line plots for benchmark CSVs.

No plotting dependency: axes, ticks, a legend and one polyline per series,
with an optional log10 y axis for error curves.
"""

import math

from .errors import InvalidParams

WIDTH, HEIGHT = 760, 520
MARGIN = {"top": 48, "right": 32, "bottom": 64, "left": 76}
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#17becf", "#7f7f7f",
)


def _escape(text: str) -> str:
    """text as XML character data (xml.sax.saxutils would import MBs of urllib)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis(lo: float, hi: float, below: float, above: float, name: str) -> tuple[float, float]:
    """An axis range with a finite, positive span. A single value v becomes
    [v - below, v + above], the pads scaled to v's magnitude from 2**40 up, where
    adding them would soon round away; a span that overflows raises InvalidParams."""
    if hi == lo:
        scale = max(1.0, abs(lo) * 2.0**-40)
        lo, hi = lo - below * scale, hi + above * scale
    if not 0.0 < hi - lo < math.inf:
        raise InvalidParams(f"cannot plot the {name} axis from {lo!r} to {hi!r}: its span overflows")
    return lo, hi


def _ticks(lo: float, hi: float, count: int = 6) -> tuple[list[float], float]:
    """Round tick values covering [lo, hi], and the step between them."""
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / max(count - 1, 1)))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * span:
        if v + step == v:  # a step below half an ulp of v never reaches hi
            return [lo, hi], span
        out.append(round(v, 12))
        v += step
    return (out, step) if out else ([lo, hi], span)


def _fmt(v: float, step: float) -> str:
    """Tick label of v: 6 significant digits, more where adjacent ticks need them."""
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    digits = math.floor(math.log10(max(abs(v), step))) - math.floor(math.log10(step)) + 1
    return f"{v:.{max(digits, 6)}g}"


def line_plot(
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    logy: bool = False,
) -> str:
    """SVG document with one line per series, keyed by legend label. Points
    with a non-finite coordinate, or y <= 0 on a log axis, are left out."""

    def drawable(pts):
        return [(x, y) for (x, y) in pts
                if math.isfinite(x) and math.isfinite(y) and (y > 0 or not logy)]

    pts_all = [p for pts in series.values() for p in drawable(pts)]

    def ty(y):
        return math.log10(y) if logy else y

    if not pts_all:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    else:
        xs = [p[0] for p in pts_all]
        ys = [ty(p[1]) for p in pts_all]
    x_lo, x_hi = _axis(min(xs), max(xs), 0.0, 1.0, "x")
    y_lo, y_hi = _axis(min(ys), max(ys), 0.5, 0.5, "y")

    plot_w = WIDTH - MARGIN["left"] - MARGIN["right"]
    plot_h = HEIGHT - MARGIN["top"] - MARGIN["bottom"]

    def px(x):
        return MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return HEIGHT - MARGIN["bottom"] - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="16">'
            f'{_escape(title)}</text>'
        )

    # gridlines and ticks
    x_ticks, x_step = _ticks(x_lo, x_hi)
    for xv in x_ticks:
        x = px(xv)
        out.append(
            f'<line x1="{x:.1f}" y1="{MARGIN["top"]}" x2="{x:.1f}" '
            f'y2="{HEIGHT - MARGIN["bottom"]}" stroke="#e0e0e0"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{HEIGHT - MARGIN["bottom"] + 18}" text-anchor="middle" '
            f'font-size="11" fill="#444">{_fmt(xv, x_step)}</text>'
        )
    if logy:
        y_tick_vals, y_step = range(math.floor(y_lo), math.ceil(y_hi) + 1), 1.0
    else:
        y_tick_vals, y_step = _ticks(y_lo, y_hi)
    for yv in y_tick_vals:
        y = py(yv)
        if y < MARGIN["top"] - 1 or y > HEIGHT - MARGIN["bottom"] + 1:
            continue
        label = f"1e{yv}" if logy else _fmt(yv, y_step)
        out.append(
            f'<line x1="{MARGIN["left"]}" y1="{y:.1f}" x2="{WIDTH - MARGIN["right"]}" '
            f'y2="{y:.1f}" stroke="#e0e0e0"/>'
        )
        out.append(
            f'<text x="{MARGIN["left"] - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" fill="#444">{label}</text>'
        )

    # axes
    out.append(
        f'<rect x="{MARGIN["left"]}" y="{MARGIN["top"]}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>'
    )
    if x_label:
        out.append(
            f'<text x="{MARGIN["left"] + plot_w / 2}" y="{HEIGHT - 16}" text-anchor="middle" '
            f'font-size="13">{_escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 20, MARGIN["top"] + plot_h / 2
        out.append(
            f'<text x="{cx}" y="{cy}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 {cx} {cy})">{_escape(y_label)}{" (log)" if logy else ""}</text>'
        )

    # series
    for idx, (label, pts) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        kept = drawable(pts)
        coords = " ".join(f"{px(x):.1f},{py(ty(y)):.1f}" for x, y in sorted(kept))
        if coords:
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            for x, y in kept:
                out.append(
                    f'<circle cx="{px(x):.1f}" cy="{py(ty(y)):.1f}" r="3" fill="{color}"/>'
                )
        ly = MARGIN["top"] + 10 + 18 * idx
        lx = WIDTH - MARGIN["right"] - 150
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-size="12" fill="#333">'
            f'{_escape(label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
