"""Interpretation figures as standalone SVG plus companion CSV data.

Charts are assembled by hand as SVG strings: no display server, no
rendering library, and byte-identical output for identical inputs. Every
figure writes a CSV holding the plotted series together with a JSON
metadata comment line, and re-rendering from that CSV reproduces the SVG
byte for byte. Coordinates use fixed two-decimal formatting; the data CSV
keeps full shortest round-trip precision.
"""

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import fpca as fpca_mod
from .dataio import _format_rows, _parse_json, _write_lines, read_table_csv
from .sim import Dataset, class_conditional_means

KINDS = ("eigenfunction", "mean-pm-eigenfunction", "extreme-bundles",
         "score-scatter", "correlation-heatmap", "group-means")

DEFAULT_MULTIPLIER = 2.0
DEFAULT_BUNDLE_SIZE = 50
DEFAULT_HEATMAP_STRIDE = 25

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 20, 40, 50
N_TICKS = 5

PALETTE = ("#1b6ca8", "#c0392b", "#2d8a4e", "#8e44ad", "#e67e22", "#555555")
UNDEFINED_FILL = "#bbbbbb"


@dataclass
class Series:
    name: str
    values: np.ndarray


@dataclass
class PlotSpec:
    """Complete description of one figure.

    `x` and every series share a length. Scatter figures additionally
    carry a per-point group index; heatmaps carry a definedness mask for
    cells whose correlation does not exist. `extras` holds small
    JSON-serializable facts about how the data was selected (component
    index, bundle membership, multiplier) for the companion CSV.
    """
    kind: str
    title: str
    x_label: str
    y_label: str
    x: np.ndarray
    series: list
    groups: np.ndarray | None = None
    group_names: list = field(default_factory=list)
    defined: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown plot kind {self.kind!r}")
        self.x = np.asarray(self.x, dtype=np.float64)
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite x values")
        for s in self.series:
            s.values = np.asarray(s.values, dtype=np.float64)
            if s.values.shape != self.x.shape:
                raise ValueError(f"series {s.name!r} length {s.values.size} "
                                 f"!= x length {self.x.size}")
            if not np.all(np.isfinite(s.values)):
                raise ValueError(f"non-finite values in series {s.name!r}")
            if "," in s.name or "\n" in s.name:
                raise ValueError(f"series name {s.name!r} not CSV-safe")


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _range(values, include_zero: bool = False):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if include_zero:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    span = hi - lo
    pad = 0.05 * span if span > 0 else max(0.5, 0.05 * abs(lo))
    return lo - pad, hi + pad


class _Frame:
    """Affine map from data coordinates to the SVG plot rectangle."""

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.px = MARGIN_LEFT
        self.py = MARGIN_TOP
        self.pw = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self.ph = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(self, x):
        return self.px + (x - self.x0) / (self.x1 - self.x0) * self.pw

    def sy(self, y):
        return self.py + self.ph - (y - self.y0) / (self.y1 - self.y0) * self.ph

    def polyline(self, xs, ys) -> str:
        """SVG `points` of the mapped (x, y) pairs; `sx` and `sy` map whole
        arrays by the same float operations as single values."""
        px = self.sx(np.asarray(xs, dtype=np.float64))
        py = self.sy(np.asarray(ys, dtype=np.float64))
        return " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))


def _axes(out: list, frame: _Frame, title: str, x_label: str, y_label: str):
    out.append(f'<rect x="{frame.px}" y="{frame.py}" width="{frame.pw}" '
               f'height="{frame.ph}" fill="#ffffff" stroke="#333333" '
               'stroke-width="1"/>')
    for tx in np.linspace(frame.x0, frame.x1, N_TICKS):
        px = frame.sx(float(tx))
        y1 = frame.py + frame.ph
        out.append(f'<line x1="{px:.2f}" y1="{y1}" x2="{px:.2f}" '
                   f'y2="{y1 + 5}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{y1 + 18}" font-size="11" '
                   f'text-anchor="middle" font-family="monospace">'
                   f'{tx:.3f}</text>')
    for ty in np.linspace(frame.y0, frame.y1, N_TICKS):
        py = frame.sy(float(ty))
        out.append(f'<line x1="{frame.px - 5}" y1="{py:.2f}" x2="{frame.px}" '
                   f'y2="{py:.2f}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{frame.px - 8}" y="{py + 4:.2f}" font-size="11" '
                   f'text-anchor="end" font-family="monospace">{ty:.3f}</text>')
    out.append(f'<text x="{WIDTH // 2}" y="24" font-size="14" '
               f'text-anchor="middle" font-family="sans-serif">'
               f'{_escape(title)}</text>')
    out.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif">'
               f'{_escape(x_label)}</text>')
    out.append(f'<text x="16" y="{HEIGHT // 2}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'transform="rotate(-90 16 {HEIGHT // 2})">'
               f'{_escape(y_label)}</text>')


def _legend(out: list, items):
    x = MARGIN_LEFT + 10
    y = MARGIN_TOP + 14
    for label, color, dash in items:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                   f'stroke="{color}" stroke-width="2"{dash_attr}/>')
        out.append(f'<text x="{x + 28}" y="{y}" font-size="11" '
                   f'font-family="sans-serif">{_escape(label)}</text>')
        y += 16


def _curve_styles(spec: PlotSpec):
    """Per-series (color, width, dash, opacity) plus the legend items."""
    styles = []
    legend = []
    if spec.kind == "eigenfunction":
        styles = [(PALETTE[0], 1.6, "", 1.0)] * len(spec.series)
        legend = [(spec.series[0].name, PALETTE[0], "")]
    elif spec.kind == "mean-pm-eigenfunction":
        by_name = {"mean": ("#000000", 2.0, "", 1.0),
                   "plus": (PALETTE[1], 1.4, "6 3", 1.0),
                   "minus": (PALETTE[0], 1.4, "6 3", 1.0)}
        c = spec.extras.get("multiplier", DEFAULT_MULTIPLIER)
        names = {"mean": "mean", "plus": f"mean + {c:g} sd",
                 "minus": f"mean - {c:g} sd"}
        for s in spec.series:
            styles.append(by_name[s.name])
            legend.append((names[s.name], by_name[s.name][0], by_name[s.name][2]))
    elif spec.kind == "extreme-bundles":
        m = spec.extras.get("m", DEFAULT_BUNDLE_SIZE)
        for s in spec.series:
            if s.name == "mean":
                styles.append(("#000000", 2.2, "", 1.0))
            elif s.name.startswith("high"):
                styles.append((PALETTE[1], 0.7, "", 0.3))
            else:
                styles.append((PALETTE[0], 0.7, "", 0.3))
        legend = [("mean", "#000000", ""),
                  (f"top {m} scores", PALETTE[1], ""),
                  (f"bottom {m} scores", PALETTE[0], "")]
    elif spec.kind == "group-means":
        for i, s in enumerate(spec.series):
            color = PALETTE[(i // 3) % len(PALETTE)]
            if s.name.endswith("mean"):
                styles.append((color, 1.8, "", 1.0))
                legend.append((s.name, color, ""))
            else:
                styles.append((color, 0.9, "4 3", 0.8))
    return styles, legend


def _render_curves(spec: PlotSpec) -> list:
    include_zero = spec.kind == "eigenfunction"
    all_y = np.concatenate([s.values for s in spec.series])
    frame = _Frame(_range(spec.x), _range(all_y, include_zero=include_zero))
    out = []
    _axes(out, frame, spec.title, spec.x_label, spec.y_label)
    if include_zero or (frame.y0 < 0.0 < frame.y1):
        zy = frame.sy(0.0)
        out.append(f'<line x1="{frame.px}" y1="{zy:.2f}" '
                   f'x2="{frame.px + frame.pw}" y2="{zy:.2f}" '
                   'stroke="#999999" stroke-width="1" stroke-dasharray="3 3"/>')
    styles, legend = _curve_styles(spec)
    for s, (color, width, dash, opacity) in zip(spec.series, styles):
        attrs = f'fill="none" stroke="{color}" stroke-width="{width}"'
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        if opacity < 1.0:
            attrs += f' stroke-opacity="{opacity}"'
        out.append(f'<polyline {attrs} points="'
                   f'{frame.polyline(spec.x, s.values)}"/>')
    if legend:
        _legend(out, legend)
    return out


def _marker(out: list, cls: int, px: float, py: float, color: str):
    if cls == 1:
        out.append(f'<path d="M {px - 3:.2f} {py - 3:.2f} L {px + 3:.2f} '
                   f'{py + 3:.2f} M {px - 3:.2f} {py + 3:.2f} L {px + 3:.2f} '
                   f'{py - 3:.2f}" stroke="{color}" stroke-width="1.2" '
                   'stroke-opacity="0.7"/>')
    else:
        out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" '
                   f'fill="{color}" fill-opacity="0.55"/>')


def _render_scatter(spec: PlotSpec) -> list:
    ys = spec.series[0].values
    frame = _Frame(_range(spec.x), _range(ys))
    out = []
    _axes(out, frame, spec.title, spec.x_label, spec.y_label)
    groups = spec.groups
    for i in range(spec.x.size):
        cls = int(groups[i]) if groups is not None else 0
        color = PALETTE[cls % len(PALETTE)]
        _marker(out, cls if groups is not None else 0,
                frame.sx(float(spec.x[i])), frame.sy(float(ys[i])), color)
    if spec.group_names:
        legend = [(name, PALETTE[c % len(PALETTE)], "")
                  for c, name in enumerate(spec.group_names)]
        _legend(out, legend)
    return out


def _cell_color(value: float) -> str:
    v = max(-1.0, min(1.0, value))
    if v >= 0:
        r, g, b = 255 - v * (255 - 178), 255 - v * (255 - 24), 255 - v * (255 - 43)
    else:
        w = -v
        r, g, b = 255 - w * (255 - 33), 255 - w * (255 - 102), 255 - w * (255 - 172)
    return f"#{int(round(r)):02x}{int(round(g)):02x}{int(round(b)):02x}"


def _render_heatmap(spec: PlotSpec) -> list:
    q = spec.x.size
    side = min(WIDTH - MARGIN_LEFT - MARGIN_RIGHT,
               HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
    cell = side / q
    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    out = [f'<text x="{WIDTH // 2}" y="24" font-size="14" '
           f'text-anchor="middle" font-family="sans-serif">'
           f'{_escape(spec.title)}</text>']
    for i in range(q):
        for j in range(q):
            defined = spec.defined[i, j] if spec.defined is not None else True
            fill = (_cell_color(float(spec.series[i].values[j]))
                    if defined else UNDEFINED_FILL)
            out.append(f'<rect x="{x0 + j * cell:.2f}" '
                       f'y="{y0 + i * cell:.2f}" width="{cell:.2f}" '
                       f'height="{cell:.2f}" fill="{fill}"/>')
    out.append(f'<rect x="{x0}" y="{y0}" width="{q * cell:.2f}" '
               f'height="{q * cell:.2f}" fill="none" stroke="#333333" '
               'stroke-width="1"/>')
    step = max(1, q // 8)
    for k in range(0, q, step):
        cx = x0 + (k + 0.5) * cell
        cy = y0 + (k + 0.5) * cell
        out.append(f'<text x="{cx:.2f}" y="{y0 + q * cell + 14:.2f}" '
                   f'font-size="10" text-anchor="middle" '
                   f'font-family="monospace">{spec.x[k]:.2f}</text>')
        out.append(f'<text x="{x0 - 6}" y="{cy + 3:.2f}" font-size="10" '
                   f'text-anchor="end" font-family="monospace">'
                   f'{spec.x[k]:.2f}</text>')
    out.append(f'<text x="{x0}" y="{HEIGHT - 10}" font-size="11" '
               f'font-family="sans-serif">blue = -1, white = 0, '
               f'red = +1, gray = undefined</text>')
    return out


def _svg_lines(spec: PlotSpec) -> list:
    if spec.kind == "score-scatter":
        body = _render_scatter(spec)
    elif spec.kind == "correlation-heatmap":
        body = _render_heatmap(spec)
    else:
        body = _render_curves(spec)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    background = f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#fafafa"/>'
    return [head, background, *body, "</svg>"]


def render_svg(spec: PlotSpec) -> str:
    """Serialize a PlotSpec to a self-contained SVG document."""
    return "\n".join(_svg_lines(spec)) + "\n"


# the shape of the JSON metadata line that opens a figure CSV
_FIGURE_META = {"kind": "", "title": "", "x_label": "", "y_label": "",
                "series_names": [""], "has_groups": False,
                "group_names": [""], "has_defined": False, "extras": {}}


def _figure_csv_lines(spec: PlotSpec):
    meta = {
        "kind": spec.kind,
        "title": spec.title,
        "x_label": spec.x_label,
        "y_label": spec.y_label,
        "series_names": [s.name for s in spec.series],
        "has_groups": spec.groups is not None,
        "group_names": spec.group_names,
        "has_defined": spec.defined is not None,
        "extras": spec.extras,
    }
    header = ["x"] + [s.name for s in spec.series]
    columns = [spec.x] + [s.values for s in spec.series]
    if spec.groups is not None:
        header.append("group")
        columns.append(spec.groups.astype(np.float64))
    if spec.defined is not None:
        for i in range(spec.defined.shape[0]):
            header.append(f"defined_{i + 1}")
            columns.append(spec.defined[i].astype(np.float64))
    return chain(["# " + json.dumps(meta, sort_keys=True), ",".join(header)],
                 _format_rows(np.column_stack(columns)))


def save_figure(spec: PlotSpec, outdir: Path, name: str) -> tuple[Path, Path]:
    """Write `<name>.svg` and `<name>.csv`; returns both paths."""
    outdir = Path(outdir)
    svg_path = outdir / f"{name}.svg"
    csv_path = outdir / f"{name}.csv"
    _write_lines(svg_path, _svg_lines(spec))
    _write_lines(csv_path, _figure_csv_lines(spec))
    return svg_path, csv_path


def load_figure_spec(csv_path: Path) -> PlotSpec:
    """Rebuild a PlotSpec from its companion CSV; rendering the result
    reproduces the original SVG byte-identically."""
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise FileNotFoundError(f"missing artifact: {csv_path}")
    with open(csv_path, encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith("# "):
        raise ValueError(f"{csv_path} lacks the figure metadata line")
    meta = _parse_json(first[2:], csv_path, _FIGURE_META)
    header, rows = read_table_csv(csv_path, skiprows=1)
    cols = dict(zip(header, rows.T))

    def column(name: str) -> np.ndarray:
        if name not in cols:
            raise ValueError(f"{csv_path}: no column {name!r}, which the "
                             "figure metadata calls for")
        return cols[name]

    series = [Series(name, column(name)) for name in meta["series_names"]]
    groups = column("group").astype(np.int64) if meta["has_groups"] else None
    defined = None
    if meta["has_defined"]:
        defined = np.array([column(f"defined_{i + 1}") != 0.0
                            for i in range(rows.shape[0])])
    return PlotSpec(kind=meta["kind"], title=meta["title"],
                    x_label=meta["x_label"], y_label=meta["y_label"],
                    x=column("x"), series=series, groups=groups,
                    group_names=meta["group_names"], defined=defined,
                    extras=meta["extras"])


def eigenfunction_plot(model: fpca_mod.FpcaModel, j: int) -> PlotSpec:
    """Curve of eigenfunction j (1-based) over the grid with a zero line;
    sign contrasts between positive and negative stretches identify the
    mode of variability."""
    if not 1 <= j <= model.n_components:
        raise ValueError(f"component {j} out of range 1..{model.n_components}")
    return PlotSpec(kind="eigenfunction",
                    title=f"Eigenfunction {j}",
                    x_label="log time", y_label="weight",
                    x=model.grid.points,
                    series=[Series(f"eigenfunction_{j}",
                                   model.eigenfunctions[j - 1])],
                    extras={"component": j})


def mean_pm_eigenfunction(model: fpca_mod.FpcaModel, j: int,
                          c: float = DEFAULT_MULTIPLIER) -> PlotSpec:
    """Mean curve with mean +/- c * sqrt(eigenvalue_j) * eigenfunction_j.

    The plus and minus curves are mirror images about the mean by
    construction: both add the same offset column, which the CSV stores.
    """
    if not 1 <= j <= model.n_components:
        raise ValueError(f"component {j} out of range 1..{model.n_components}")
    if c <= 0:
        raise ValueError("multiplier must be positive")
    lam = float(model.eigenvalues[j - 1])
    if lam == 0.0:
        raise ValueError(f"component {j} has zero variance, nothing to display")
    offset = (c * np.sqrt(lam)) * model.eigenfunctions[j - 1]
    return PlotSpec(kind="mean-pm-eigenfunction",
                    title=f"Mean with component {j} variation",
                    x_label="log time", y_label="intensity",
                    x=model.grid.points,
                    series=[Series("mean", model.mean),
                            Series("plus", model.mean + offset),
                            Series("minus", model.mean - offset)],
                    extras={"component": j, "multiplier": float(c),
                            "eigenvalue": lam})


def _check_bundle_size(n: int, m: int) -> None:
    if m < 1:
        raise ValueError("bundle size must be >= 1")
    if n < 2 * m:
        raise ValueError(f"bundles of {m} need at least {2 * m} signatures, "
                         f"got {n}")


def extreme_score_bundles(model: fpca_mod.FpcaModel, dataset: Dataset, j: int,
                          m: int = DEFAULT_BUNDLE_SIZE) -> PlotSpec:
    """Raw signatures with the m highest and m lowest component-j scores,
    plus the pointwise mean of the whole dataset. Signatures are ranked
    by the strict key (score, signature index), so tied scores resolve
    by index and the two bundles are always disjoint."""
    _check_bundle_size(dataset.n, m)
    scores = fpca_mod.transform(model, dataset)
    if not 1 <= j <= scores.shape[1]:
        raise ValueError(f"component {j} out of range 1..{scores.shape[1]}")
    col = scores[:, j - 1]
    order = np.lexsort((np.arange(dataset.n), col))
    bottom = order[:m]
    top = order[dataset.n - m:]
    width = len(str(m))
    series = [Series("mean", dataset.values.mean(axis=0))]
    series += [Series(f"low_{k + 1:0{width}d}", dataset.values[i])
               for k, i in enumerate(bottom)]
    series += [Series(f"high_{k + 1:0{width}d}", dataset.values[i])
               for k, i in enumerate(top)]
    return PlotSpec(kind="extreme-bundles",
                    title=f"Extreme component {j} scores",
                    x_label="log time", y_label="intensity",
                    x=dataset.grid.points, series=series,
                    extras={"component": j, "m": m,
                            "bottom_indices": [int(i) for i in bottom],
                            "top_indices": [int(i) for i in top]})


def score_scatter(scores: np.ndarray, targets: np.ndarray, components,
                  target_name: str = "target") -> PlotSpec:
    """Scatter of two score columns (binary target: one marker class per
    label) or of one score column against a continuous target."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64).ravel()
    components = tuple(int(c) for c in np.atleast_1d(components))
    if len(components) == 0:
        raise ValueError("no components selected")
    if len(components) > 2:
        raise ValueError("select one or two components")
    r = scores.shape[1]
    for c in components:
        if not 1 <= c <= r:
            raise ValueError(f"component {c} out of range 1..{r}")
    if targets.size != scores.shape[0]:
        raise ValueError("targets do not match score rows")
    binary = np.all(np.isin(targets, (0.0, 1.0)))
    if len(components) == 2:
        if not binary:
            raise ValueError("component pair requires a binary target; "
                             "pass one component for a continuous target")
        a, b = components
        return PlotSpec(kind="score-scatter",
                        title=f"fPC {a} vs fPC {b} by {target_name}",
                        x_label=f"fPC {a} score", y_label=f"fPC {b} score",
                        x=scores[:, a - 1],
                        series=[Series("y", scores[:, b - 1])],
                        groups=targets.astype(np.int64),
                        group_names=[f"{target_name} = 0",
                                     f"{target_name} = 1"],
                        extras={"components": [a, b]})
    a = components[0]
    return PlotSpec(kind="score-scatter",
                    title=f"{target_name} vs fPC {a}",
                    x_label=f"fPC {a} score", y_label=target_name,
                    x=scores[:, a - 1],
                    series=[Series("y", targets)],
                    extras={"components": [a]})


def correlation_matrix(dataset: Dataset, stride: int = DEFAULT_HEATMAP_STRIDE):
    """Pearson correlations between intensity columns sampled every
    `stride` grid points. Returns (sampled times, matrix, defined mask);
    the diagonal is exactly 1 and pairs involving a zero-variance column
    are marked undefined instead of propagating NaN."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    cols = dataset.values[:, ::stride]
    times = dataset.grid.points[::stride]
    centered = cols - cols.mean(axis=0)
    ss = np.einsum("ij,ij->j", centered, centered)
    denom = np.sqrt(np.outer(ss, ss))
    dot = centered.T @ centered
    defined = denom > 0.0
    corr = np.where(defined, dot / np.where(defined, denom, 1.0), 0.0)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    np.fill_diagonal(defined, True)
    return times, corr, defined


def correlation_heatmap(dataset: Dataset,
                        stride: int = DEFAULT_HEATMAP_STRIDE) -> PlotSpec:
    times, corr, defined = correlation_matrix(dataset, stride)
    series = [Series(f"t_{i + 1}", corr[i]) for i in range(times.size)]
    return PlotSpec(kind="correlation-heatmap",
                    title=f"Intensity correlations, every point {stride}",
                    x_label="log time", y_label="log time",
                    x=times, series=series, defined=defined,
                    extras={"stride": int(stride)})


def group_means_plot(dataset: Dataset, grouping: str) -> PlotSpec:
    """Pointwise mean plus/minus one pointwise standard deviation per
    label group."""
    curves = class_conditional_means(dataset, grouping)
    series = []
    for group in curves:
        series.append(Series(f"{group.name} mean", group.mean))
        series.append(Series(f"{group.name} lower", group.mean - group.sd))
        series.append(Series(f"{group.name} upper", group.mean + group.sd))
    return PlotSpec(kind="group-means",
                    title=f"Group means ({grouping})",
                    x_label="log time", y_label="intensity",
                    x=dataset.grid.points, series=series,
                    extras={"grouping": grouping})
