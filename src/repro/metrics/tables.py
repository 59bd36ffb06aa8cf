"""Fixed-width table rendering for benchmark output.

Every benchmark prints its experiment's rows through :class:`Table` so the
output format is uniform and easy to diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, List, Sequence


def _format_cell(value: Any) -> str:
    """Render one cell: floats get 4 significant digits, rest is str()."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


class Table:
    """A simple fixed-width text table.

    >>> t = Table("E2", ["protocol", "replicas"], title="Hybrid BFT cost")
    >>> t.add_row(["PBFT", 4])
    >>> t.add_row(["MinBFT", 3])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, experiment: str, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.experiment = experiment
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, values: Sequence[Any]) -> None:
        """Append a data row; must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table {self.experiment!r} "
                f"has {len(self.columns)} columns"
            )
        self.rows.append([_format_cell(v) for v in values])

    def column(self, name: str) -> List[str]:
        """All cell strings for a named column (for assertions in benches)."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """Render the table as fixed-width text with a header rule."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        lines = []
        header = f"[{self.experiment}] {self.title}".rstrip()
        lines.append(header)
        lines.append(fmt_line(self.columns))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt_line(row) for row in self.rows)
        return "\n".join(lines)

    def print(self) -> None:
        """Print the table framed by blank lines (bench harness entry point).

        The rendered table is also appended to the file named by the
        ``REPRO_TABLE_LOG`` environment variable (set by the benchmark
        harness) so experiment tables survive pytest's output capture —
        they are the benchmark's artifact, not debug noise.
        """
        import os

        text = f"\n{self.render()}\n"
        print(text)
        log_path = os.environ.get("REPRO_TABLE_LOG")
        if log_path:
            with open(log_path, "a", encoding="utf-8") as log:
                log.write(text + "\n")
