"""The README's paper-grid table is rendered from ``results/paper_grid.csv``
and must equal that rendering, so the two cannot drift apart. After the CSV
changes, ``python tests/test_readme.py`` rewrites the README block.

The README's Library import block is run against the package, so an export
it names that is dropped or renamed fails here.
"""
from __future__ import annotations

import csv
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PAPER_GRID = ROOT / "results" / "paper_grid.csv"
LIBRARY = "## Library"
BEGIN = "<!-- paper-grid table: rendered from results/paper_grid.csv -->"
END = "<!-- end paper-grid table -->"


def render_table(csv_text: str) -> str:
    """One row per N and failure %, one column per scheme (in CSV order);
    each cell reads recovery rate % / mean displacement / high-energy %."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    schemes = list(dict.fromkeys(r["scheme"] for r in rows))
    cells = {
        (r["N"], r["failure_pct"], r["scheme"]):
        f"{float(r['recovery_rate']):.1f} / {float(r['avg_total_displacement']):.1f}"
        f" / {float(r['high_energy_pct']):.1f}"
        for r in rows
    }
    keys = list(dict.fromkeys((r["N"], r["failure_pct"]) for r in rows))
    keys.sort(key=lambda k: (int(k[0]), float(k[1])))
    lines = [
        "| N | failed % | " + " | ".join(f"`{s}`" for s in schemes) + " |",
        "|---|---|" + "---|" * len(schemes),
    ]
    for n, pct in keys:
        lines.append(f"| {n} | {pct} | "
                     + " | ".join(cells[n, pct, s] for s in schemes) + " |")
    return "\n".join(lines) + "\n"


def readme_block(text: str) -> str:
    start = text.index(BEGIN) + len(BEGIN) + 1
    return text[start:text.index(END, start)]


def test_readme_table_equals_rendering_of_paper_grid():
    assert readme_block(README.read_text()) == render_table(PAPER_GRID.read_text())


def library_block(text: str) -> str:
    """The first ``python`` code block under the Library heading."""
    fence = "```python\n"
    start = text.index(fence, text.index(LIBRARY)) + len(fence)
    return text[start:text.index("```", start)]


def test_readme_library_imports_run():
    block = library_block(README.read_text())
    assert "from barrier_restore import" in block
    exec(compile(block, str(README), "exec"), {})


if __name__ == "__main__":
    text = README.read_text()
    old = readme_block(text)
    README.write_text(text.replace(BEGIN + "\n" + old, BEGIN + "\n" + render_table(PAPER_GRID.read_text()), 1))
