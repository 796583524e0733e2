"""Self-contained HTML reports for outlier query results (paper §8).

Section 8 suggests visualizing outliers "to provide more insight"; beyond
the terminal views in :mod:`repro.viz`, analysts share results.  This
module renders an :class:`~repro.core.results.OutlierResult` into a single
HTML file with no external assets: the ranked table with score bars, the
candidate Ω distribution, per-feature breakdowns when available, and the
query text for provenance.
"""

from __future__ import annotations

import html
from pathlib import Path

import numpy as np

from repro.core.results import OutlierResult

__all__ = ["render_html_report", "write_html_report"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 0.35rem 0.6rem;
         border-bottom: 1px solid #e0e0ea; font-size: 0.92rem; }
th { background: #f4f4fa; }
.bar { display: inline-block; height: 0.75rem; background: #5661b3;
       border-radius: 2px; vertical-align: middle; }
.hist .bar { background: #9aa3d4; }
.hist .outlier .bar { background: #d4564e; }
.mono { font-family: ui-monospace, Menlo, Consolas, monospace;
        background: #f4f4fa; padding: 0.8rem; border-radius: 4px;
        white-space: pre-wrap; font-size: 0.85rem; }
.muted { color: #71718a; font-size: 0.85rem; }
"""


def _bar(fraction: float, max_width_px: int = 220) -> str:
    width = max(1, int(round(fraction * max_width_px)))
    return f'<span class="bar" style="width:{width}px"></span>'


def render_html_report(
    result: OutlierResult,
    *,
    title: str = "Outlier query result",
    query_text: str | None = None,
) -> str:
    """Render ``result`` as a standalone HTML document (returned as text)."""
    scores = result.omega
    peak = float(scores.max()) if scores.size and scores.max() > 0 else 1.0

    parts: list[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="muted">measure: {html.escape(result.measure)} '
        f"(lower Ω = more outlying) &middot; {result.candidate_count} "
        f"candidates &middot; {result.reference_count} reference vertices</p>",
    ]
    if query_text:
        parts.append("<h2>Query</h2>")
        parts.append(f'<div class="mono">{html.escape(query_text.strip())}</div>')

    # Ranked table.  Bars show *outlyingness*: 1 - score/peak.
    parts.append(f"<h2>Top {len(result)} outliers</h2>")
    headers = ["#", "Name", "Ω", "Outlyingness"]
    feature_paths = sorted(result.feature_scores) if result.feature_scores else []
    headers.extend(f"Ω({path})" for path in feature_paths)
    parts.append("<table><thead><tr>")
    parts.extend(f"<th>{html.escape(header)}</th>" for header in headers)
    parts.append("</tr></thead><tbody>")
    for entry in result.outliers:
        outlyingness = 1.0 - (entry.score / peak if peak else 0.0)
        cells = [
            f"<td>{entry.rank}</td>",
            f"<td>{html.escape(entry.name)}</td>",
            f"<td>{entry.score:.4g}</td>",
            f"<td>{_bar(max(outlyingness, 0.0))}</td>",
        ]
        for path in feature_paths:
            value = result.feature_scores[path].get(entry.vertex)
            cells.append(f"<td>{value:.4g}</td>" if value is not None else "<td></td>")
        parts.append("<tr>" + "".join(cells) + "</tr>")
    parts.append("</tbody></table>")

    # Score distribution histogram.
    if scores.size:
        parts.append("<h2>Candidate Ω distribution</h2>")
        counts, edges = np.histogram(scores, bins=min(12, max(3, scores.size // 4)))
        outlier_scores = {entry.score for entry in result.outliers}
        top = counts.max() if counts.max() > 0 else 1
        parts.append('<table class="hist"><tbody>')
        for count, low, high in zip(counts, edges, edges[1:]):
            has_outlier = any(
                low <= score < high or (high == edges[-1] and score == high)
                for score in outlier_scores
            )
            row_class = ' class="outlier"' if has_outlier else ""
            parts.append(
                f"<tr{row_class}><td>[{low:.3g}, {high:.3g})</td>"
                f"<td>{_bar(count / top)}</td><td>{count}</td></tr>"
            )
        parts.append("</tbody></table>")
        parts.append(
            '<p class="muted">red bins contain the reported top-k outliers</p>'
        )

    parts.append("</body></html>")
    return "\n".join(parts)


def write_html_report(
    result: OutlierResult,
    path: str | Path,
    *,
    title: str = "Outlier query result",
    query_text: str | None = None,
) -> None:
    """Write the HTML report to ``path``."""
    document = render_html_report(result, title=title, query_text=query_text)
    Path(path).write_text(document, encoding="utf-8")
