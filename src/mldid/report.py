"""Output tables, run manifests and the event-study SVG plot.

All CSVs are RFC-4180 (csv module defaults), UTF-8, '.' decimal
separator; floats are written with repr so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_cells_csv(path, cells) -> None:
    _write_rows(
        path,
        ["g", "t", "e", "att", "se", "n_treated", "n_control"],
        [
            (c.g, c.t, c.e, c.att, c.se, c.n_treated, c.n_control)
            for c in cells
        ],
    )


def write_dr_cells_csv(path, dr_cells) -> None:
    _write_rows(
        path,
        ["g", "t", "e", "att", "se", "n_treated", "n_control"],
        [
            (c.g, c.t, c.e, c.att_dr, c.se, c.n_treated, c.n_control)
            for c in dr_cells
        ],
    )


def write_dynamics_csv(path, dynamics) -> None:
    _write_rows(
        path,
        ["e", "theta", "se"],
        [(d.e, d.theta, d.se) for d in dynamics],
    )


# Most catt panel rows formatted at once, which bounds the text held.
CATT_CHUNK_ROWS = 512


def _csv_field(value) -> str:
    """``value`` as csv.writer writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow((value, "x"))
    return buf.getvalue()[:-len(",x\r\n")]


def _plain(text: str) -> bool:
    """Whether csv writes the string as it is, unquoted."""
    return (text != "" and text.isprintable() and text.strip(" ") == text
            and "," not in text and '"' not in text)


def _id_fields(ids: list) -> list[str]:
    """csv's fields of a column of unit ids, quoted where csv quotes them.

    A plain string or int is its own field; any other id goes through
    csv itself.
    """
    if not all(type(u) is str or type(u) is int for u in ids):
        return [_csv_field(u) for u in ids]
    text = list(map(str, ids))
    joined = "".join(text)
    if all(text) and " " not in joined and _plain(joined):
        return text
    return [s if _plain(s) else _csv_field(s) for s in text]


def _number_fields(values: np.ndarray) -> list[str]:
    """csv's fields of a numeric column: the element reprs of its list's repr."""
    return repr(values.tolist())[1:-1].split(", ") if values.size else []


def _catt_rows(panel, rows: slice) -> str:
    """The csv lines of ``rows`` of the per-unit effect panel."""
    columns = [_id_fields(panel.unit_ids[rows].tolist()),
               *(_number_fields(c[rows]) for c in (panel.e, panel.tau, panel.score))]
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def write_catt_panel_csv(path, panel) -> None:
    """The per-unit effect panel, formatted column by column in chunks of rows.

    The bytes are those of csv.writer writing each row: a Python float's
    field is its repr, and the repr of a list holds its elements' reprs.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["unit", "e", "tau_hat", "score"])
        for lo in range(0, panel.n_rows, CATT_CHUNK_ROWS):
            fh.write(_catt_rows(panel, slice(lo, lo + CATT_CHUNK_ROWS)))


def write_blp_csv(path, results) -> None:
    rows = []
    for res in results:
        for c in res.coefficients:
            e_label = c.e if c.e is not None else "pooled"
            rows.append((res.target, e_label, c.covariate, c.coef, c.se, c.t, c.p))
    _write_rows(path, ["target", "e", "covariate", "coef", "se", "t", "p"], rows)


def write_clan_csv(path, results) -> None:
    rows = []
    for res in results:
        for r in res.rows:
            rows.append(
                (res.target, res.e, r.covariate, r.delta_low, r.delta_high,
                 r.diff, r.ci_low, r.ci_high)
            )
    _write_rows(
        path,
        ["target", "e", "covariate", "delta1", "deltaK", "diff", "ci_lo", "ci_hi"],
        rows,
    )


def write_rmse_csv(path, rows) -> None:
    _write_rows(
        path,
        ["g", "t", "rmse_ml", "rmse_dr", "bias_ml", "bias_dr", "n_reps"],
        [
            (r.g, r.t, r.rmse_ml, r.rmse_dr, r.bias_ml, r.bias_dr, r.n_reps)
            for r in rows
        ],
    )


def write_oracle_cells_csv(path, oracle_cells: dict) -> None:
    _write_rows(
        path,
        ["g", "t", "e", "att_oracle"],
        [(g, t, t - g, v) for (g, t), v in sorted(oracle_cells.items())],
    )


def write_oracle_catt_csv(path, oracle, unit_ids) -> None:
    rows = []
    for e, (idx, vals) in oracle.items():
        for i, v in zip(idx, vals):
            rows.append((unit_ids[i], e, v))
    _write_rows(path, ["unit", "e", "catt_oracle"], rows)


def write_blp_avg_csv(path, rows) -> None:
    """Benchmark BLP summary: average coefficients by target and event time."""
    _write_rows(
        path,
        ["target", "e", "covariate", "avg_coef", "avg_se", "sig_frac_5pct"],
        rows,
    )


def write_benchmark_clan_csv(path, rows) -> None:
    _write_rows(
        path,
        ["target", "e", "covariate", "delta1", "deltaK", "diff", "ci_lo", "ci_hi"],
        rows,
    )


def write_coverage_csv(path, rows) -> None:
    _write_rows(path, ["g", "t", "coverage_95", "n_reps"], rows)


def write_manifest(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def environment_versions() -> dict:
    from . import __version__

    return {
        "mldid": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Event-study plot
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_MARGIN = 56


def _scale(value, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def event_study_svg(path, dynamics) -> None:
    """Minimal event-study plot: points, 95% whiskers, zero line, and a
    dotted reference line at e = -1."""
    pts = [(d.e, d.theta, d.se) for d in dynamics]
    if not pts:
        raise ValueError("no dynamic effects to plot")
    es = [p[0] for p in pts]
    ys = []
    for _, theta, se in pts:
        ys.append(theta)
        if se is not None:
            ys.extend([theta - 1.96 * se, theta + 1.96 * se])
    ys.append(0.0)
    e_lo, e_hi = min(es) - 0.5, max(es) + 0.5
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(e):
        return _scale(e, e_lo, e_hi, _MARGIN, _SVG_W - _MARGIN)

    def sy(v):
        return _scale(v, y_lo, y_hi, _SVG_H - _MARGIN, _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        # Axes
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        # Zero line
        f'<line x1="{_MARGIN}" y1="{sy(0.0):.2f}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{sy(0.0):.2f}" stroke="#999" stroke-width="0.8"/>',
        # Reference period
        f'<line x1="{sx(-1):.2f}" y1="{_MARGIN}" x2="{sx(-1):.2f}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="#666" stroke-dasharray="4,4"/>',
    ]
    for e in sorted(set(es)):
        x = sx(e)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_SVG_H - _MARGIN}" x2="{x:.2f}" '
            f'y2="{_SVG_H - _MARGIN + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_SVG_H - _MARGIN + 20}" font-size="12" '
            f'text-anchor="middle">{e}</text>'
        )
    for v in np.linspace(y_lo, y_hi, 5):
        y = sy(v)
        parts.append(
            f'<line x1="{_MARGIN - 5}" y1="{y:.2f}" x2="{_MARGIN}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{v:.2f}</text>'
        )
    for e, theta, se in pts:
        x, y = sx(e), sy(theta)
        if se is not None:
            y1, y2 = sy(theta - 1.96 * se), sy(theta + 1.96 * se)
            parts.append(
                f'<line x1="{x:.2f}" y1="{y1:.2f}" x2="{x:.2f}" y2="{y2:.2f}" '
                f'stroke="#1f77b4" stroke-width="1.5"/>'
            )
            for yy in (y1, y2):
                parts.append(
                    f'<line x1="{x - 4:.2f}" y1="{yy:.2f}" x2="{x + 4:.2f}" '
                    f'y2="{yy:.2f}" stroke="#1f77b4" stroke-width="1.5"/>'
                )
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#1f77b4"/>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 12}" font-size="13" '
        f'text-anchor="middle">event time</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
