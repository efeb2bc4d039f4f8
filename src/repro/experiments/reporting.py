"""Paper-vs-measured comparison tables, terminal charts and reports.

Every experiment runner returns a :class:`ComparisonTable`: rows of
(configuration, paper value, measured value).  The same table renders
the console output of the benchmarks and feeds EXPERIMENTS.md.

The rest renders the paper's other figure types without a plotting
stack: ASCII line charts of timelines (Fig. 9/10/12), Table-I-style
min/avg/max CPU tables, the crash-timeline report, and the
energy-proportionality index behind Finding 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ComparisonRow", "ComparisonTable", "ascii_chart",
           "ascii_multi_chart", "cpu_usage_table", "crash_timeline_report",
           "energy_proportionality_index"]


@dataclass
class ComparisonRow:
    """One (configuration, paper value, measured value) point."""
    label: str
    paper: Optional[float]
    measured: Optional[float]
    unit: str = ""
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """measured/paper, or None when either side is missing."""
        if not self.paper or self.measured is None:
            return None
        return self.measured / self.paper


@dataclass
class ComparisonTable:
    """One figure/table's worth of paper-vs-measured points."""

    experiment_id: str  # e.g. "Fig. 5"
    title: str
    rows: List[ComparisonRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, label: str, paper: Optional[float],
            measured: Optional[float], unit: str = "",
            note: str = "") -> None:
        """Append one comparison point."""
        self.rows.append(ComparisonRow(label, paper, measured, unit, note))

    def note(self, text: str) -> None:
        """Attach a caveat shown under the table."""
        self.notes.append(text)

    def measured_series(self) -> List[float]:
        """All measured values, in row order."""
        return [r.measured for r in self.rows if r.measured is not None]

    def paper_series(self) -> List[float]:
        """All paper values, in row order."""
        return [r.paper for r in self.rows if r.paper is not None]

    def render(self) -> str:
        """Fixed-width console table."""
        width = max([len(r.label) for r in self.rows] + [13])
        lines = [f"== {self.experiment_id}: {self.title} =="]
        header = (f"{'configuration':<{width}}  {'paper':>12}  "
                  f"{'measured':>12}  {'ratio':>6}  note")
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            paper = _fmt(row.paper, row.unit)
            measured = _fmt(row.measured, row.unit)
            ratio = f"{row.ratio:.2f}" if row.ratio is not None else "-"
            lines.append(f"{row.label:<{width}}  {paper:>12}  "
                         f"{measured:>12}  {ratio:>6}  {row.note}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Markdown table for EXPERIMENTS.md."""
        lines = [f"### {self.experiment_id}: {self.title}", "",
                 "| configuration | paper | measured | ratio |",
                 "|---|---|---|---|"]
        for row in self.rows:
            ratio = f"{row.ratio:.2f}" if row.ratio is not None else "—"
            lines.append(
                f"| {row.label} | {_fmt(row.paper, row.unit)} "
                f"| {_fmt(row.measured, row.unit)} | {ratio} |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)


def _fmt(value: Optional[float], unit: str) -> str:
    if value is None:
        return "—"
    if abs(value) >= 1000:
        text = f"{value:,.0f}"
    elif abs(value) >= 10:
        text = f"{value:.1f}"
    else:
        text = f"{value:.2f}"
    return f"{text}{unit}"


# -- plain-text line charts for time series -------------------------------

Series = Sequence[Tuple[float, float]]

_MARKS = "*o+x#@"


def _bucketize(series: Series, x_min: float, x_max: float,
               width: int) -> List[Optional[float]]:
    """Average the series into ``width`` buckets over [x_min, x_max]."""
    sums = [0.0] * width
    counts = [0] * width
    span = max(x_max - x_min, 1e-12)
    for x, y in series:
        if not x_min <= x <= x_max:
            continue
        bucket = min(width - 1, int((x - x_min) / span * width))
        sums[bucket] += y
        counts[bucket] += 1
    return [sums[i] / counts[i] if counts[i] else None
            for i in range(width)]


def ascii_chart(series: Series, title: str = "", width: int = 68,
                height: int = 14, y_label: str = "",
                x_label: str = "") -> str:
    """Render one series as an ASCII line chart."""
    return ascii_multi_chart({y_label or "y": series}, title=title,
                             width=width, height=height, x_label=x_label)


def ascii_multi_chart(named_series: Dict[str, Series], title: str = "",
                      width: int = 68, height: int = 14,
                      x_label: str = "") -> str:
    """Render several series on shared axes, one mark per series."""
    if not named_series:
        raise ValueError("no series to plot")
    points = [p for series in named_series.values() for p in series]
    if not points:
        raise ValueError("all series are empty")
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, series) in enumerate(named_series.items()):
        mark = _MARKS[index % len(_MARKS)]
        buckets = _bucketize(series, x_min, x_max, width)
        for col, value in enumerate(buckets):
            if value is None:
                continue
            frac = (value - y_min) / (y_max - y_min)
            row = height - 1 - int(frac * (height - 1))
            grid[row][col] = mark

    lines = []
    if title:
        lines.append(title)
    label_width = max(len(f"{y_max:.4g}"), len(f"{y_min:.4g}"))
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_max:.4g}"
        elif i == height - 1:
            label = f"{y_min:.4g}"
        else:
            label = ""
        lines.append(f"{label:>{label_width}} |" + "".join(row))
    axis = f"{'':>{label_width}} +" + "-" * width
    lines.append(axis)
    x_axis = (f"{'':>{label_width}}  {x_min:<.4g}"
              + " " * max(1, width - len(f"{x_min:<.4g}")
                          - len(f"{x_max:.4g}"))
              + f"{x_max:.4g}")
    lines.append(x_axis)
    if x_label:
        lines.append(f"{'':>{label_width}}  ({x_label})")
    if len(named_series) > 1:
        legend = "  ".join(f"{_MARKS[i % len(_MARKS)]} {name}"
                           for i, name in enumerate(named_series))
        lines.append(f"{'':>{label_width}}  {legend}")
    return "\n".join(lines)


# -- reports over experiment results --------------------------------------


def cpu_usage_table(results_by_config: Dict[str, Dict[str, float]]) -> str:
    """A Table-I-style report: per configuration, the min/avg/max of the
    per-node CPU utilizations.

    ``results_by_config`` maps a configuration label to a
    ``{node_name: cpu_percent}`` dict (e.g.
    :attr:`~repro.cluster.experiment.ExperimentResult.cpu_util_per_node`).
    """
    if not results_by_config:
        raise ValueError("no configurations")
    width = max(len(label) for label in results_by_config)
    lines = [f"{'configuration':<{width}}  {'min':>6}  {'avg':>6}  {'max':>6}",
             "-" * (width + 24)]
    for label, per_node in results_by_config.items():
        values = list(per_node.values())
        if not values:
            raise ValueError(f"no per-node values for {label!r}")
        lines.append(
            f"{label:<{width}}  {min(values):>5.1f}%  "
            f"{sum(values) / len(values):>5.1f}%  {max(values):>5.1f}%")
    return "\n".join(lines)


def crash_timeline_report(result, width: int = 68) -> str:
    """Render a crash-experiment result the way the paper presents §VII:
    Fig. 9a (cluster CPU), Fig. 9b (per-node power) and Fig. 12
    (aggregate disk activity) as charts, plus the recovery summary."""
    sections = []
    recovery = result.recovery
    header = [f"crash of {result.crashed_server} "
              f"at t={result.spec.kill_at:.0f} s"]
    if recovery is not None and recovery.finished_at is not None:
        header.append(
            f"recovered {recovery.bytes_to_recover / 2**20:.0f} MB in "
            f"{recovery.duration:.1f} s across "
            f"{len(recovery.recovery_masters)} recovery masters "
            f"({recovery.segments} segments)")
    sections.append("\n".join(header))

    sections.append(ascii_chart(result.cluster_cpu.items(),
                                title="cluster average CPU (%)  [Fig. 9a]",
                                width=width, x_label="seconds"))
    survivors = {name: series.items()
                 for name, series in result.per_node_power.items()
                 if name != result.crashed_server}
    if survivors:
        # Average the survivors into one power curve (Fig. 9b).
        merged = {}
        for series in survivors.values():
            for t, v in series:
                merged.setdefault(t, []).append(v)
        avg_power = sorted((t, sum(v) / len(v)) for t, v in merged.items())
        sections.append(ascii_chart(
            avg_power, title="average surviving-node power (W)  [Fig. 9b]",
            width=width, x_label="seconds"))
    sections.append(ascii_multi_chart(
        {"read": result.disk_read_mbps.items(),
         "write": result.disk_write_mbps.items()},
        title="aggregate disk activity (MB/s)  [Fig. 12]",
        width=width, x_label="seconds"))
    if result.client_latencies:
        named = {}
        for i, recorder in enumerate(result.client_latencies):
            named[f"client {i + 1}"] = [(t, lat * 1e6) for t, lat in recorder]
        sections.append(ascii_multi_chart(
            named, title="per-op latency (µs, bucket means)  [Fig. 10]",
            width=width, x_label="seconds"))
    return "\n\n".join(sections)


def energy_proportionality_index(loads: Sequence[float],
                                 watts: Sequence[float]) -> float:
    """How proportional is power to load, 0..1?

    1 means perfectly proportional (power scales linearly from 0 at
    idle); 0 means completely flat (the paper's Finding 1 pathology).
    Defined as ``1 - idle_watts / peak_watts`` interpolated over the
    measured (load, watts) curve, the standard EP metric.
    """
    if len(loads) != len(watts) or len(loads) < 2:
        raise ValueError("need matched load/watts series of length >= 2")
    pairs = sorted(zip(loads, watts))
    idle = pairs[0][1]
    peak = pairs[-1][1]
    if peak <= 0:
        raise ValueError("peak power must be positive")
    return max(0.0, 1.0 - idle / peak)
