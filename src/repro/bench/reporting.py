"""Render experiment tables as aligned text / markdown."""

from __future__ import annotations

from typing import Iterable, List

from .harness import ExperimentTable


def format_table(table: ExperimentTable) -> str:
    """Monospace-aligned rendering of an :class:`ExperimentTable`."""
    header = ["dataset"] + list(table.columns)
    body: List[List[str]] = []
    for row_name, cells in table.rows.items():
        row = [row_name]
        for column in table.columns:
            cell = cells.get(column)
            row.append(str(cell) if cell is not None else "-")
        body.append(row)
    widths = [
        max(len(line[i]) for line in [header] + body) for i in range(len(header))
    ]
    lines = [
        f"# {table.exp_id}: {table.title} [{table.unit}]",
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_markdown(table: ExperimentTable) -> str:
    """GitHub-flavoured markdown rendering (used for EXPERIMENTS.md)."""
    header = ["dataset"] + list(table.columns)
    lines = [
        f"**{table.exp_id}: {table.title}** (unit: {table.unit})",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row_name, cells in table.rows.items():
        row = [row_name] + [
            str(cells.get(column, "-")) for column in table.columns
        ]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def print_tables(tables: Iterable[ExperimentTable]) -> None:
    for table in tables:
        print(format_table(table))
        print()


def flatten(result) -> List[ExperimentTable]:
    """Experiment functions return a table or a dict of tables; flatten."""
    if isinstance(result, ExperimentTable):
        return [result]
    if isinstance(result, dict):
        return list(result.values())
    raise TypeError(f"unexpected experiment result type {type(result)!r}")
