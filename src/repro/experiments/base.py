"""Shared result types for the experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured comparison for a single metric."""

    metric: str
    measured: float | None
    paper: float | None = None
    unit: str = ""
    note: str = ""

    def format(self) -> str:
        """Return a one-line human-readable rendering."""
        def fmt(value: float | None) -> str:
            if value is None:
                return "n/a"
            if self.unit == "%":
                return f"{value * 100:.1f}%"
            if isinstance(value, float) and not value.is_integer():
                return f"{value:.3f}"
            return f"{int(value)}"

        line = f"{self.metric}: measured={fmt(self.measured)} paper={fmt(self.paper)}"
        if self.note:
            line += f" ({self.note})"
        return line


@dataclass
class ExperimentResult:
    """The outcome of regenerating one paper artefact."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    comparisons: list[Comparison] = field(default_factory=list)
    notes: str = ""

    def add_comparison(
        self,
        metric: str,
        measured: float | None,
        paper: float | None = None,
        unit: str = "",
        note: str = "",
    ) -> None:
        """Append one paper-vs-measured comparison."""
        self.comparisons.append(
            Comparison(metric=metric, measured=measured, paper=paper, unit=unit, note=note)
        )

    def comparison(self, metric: str) -> Comparison:
        """Return the comparison for ``metric``, raising when absent."""
        for comparison in self.comparisons:
            if comparison.metric == metric:
                return comparison
        raise KeyError(metric)

    def measured(self, metric: str) -> float | None:
        """Return the measured value of one comparison."""
        return self.comparison(metric).measured

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def format_rows(self, limit: int | None = 20) -> str:
        """Render the result rows as a fixed-width text table."""
        if not self.rows:
            return "(no rows)"
        rows = self.rows if limit is None else self.rows[:limit]
        columns = list(rows[0])
        widths = {
            column: max(len(str(column)), *(len(self._cell(row.get(column))) for row in rows))
            for column in columns
        }
        header = "  ".join(str(column).ljust(widths[column]) for column in columns)
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                "  ".join(self._cell(row.get(column)).ljust(widths[column]) for column in columns)
            )
        if limit is not None and len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    @staticmethod
    def _cell(value: Any) -> str:
        if value is None:
            return "NA"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def to_text(self, row_limit: int | None = 20) -> str:
        """Render the full experiment report as text."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.notes:
            lines.append(self.notes)
        if self.rows:
            lines.append(self.format_rows(row_limit))
        if self.comparisons:
            lines.append("paper vs measured:")
            lines.extend(f"  {comparison.format()}" for comparison in self.comparisons)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """Serialise the result (for JSON export)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "notes": self.notes,
            "rows": self.rows,
            "comparisons": [
                {
                    "metric": c.metric,
                    "measured": c.measured,
                    "paper": c.paper,
                    "unit": c.unit,
                    "note": c.note,
                }
                for c in self.comparisons
            ],
        }
