"""Serialisation of datasets to JSON and CSV."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from repro.datasets.store import Dataset

#: Schema version written into exported files.
SCHEMA_VERSION = 1


def dataset_to_dict(dataset: Dataset) -> dict[str, Any]:
    """Serialise a dataset to plain dictionaries/lists."""
    return {
        "schema_version": SCHEMA_VERSION,
        "instances": [record.to_dict() for record in dataset.instances.values()],
        "policy_settings": [record.to_dict() for record in dataset.policy_settings],
        "reject_edges": [edge.to_dict() for edge in dataset.reject_edges],
        "users": [record.to_dict() for record in dataset.users.values()],
        "posts": [record.to_dict() for record in dataset.posts],
    }


def dataset_to_json(dataset: Dataset, indent: int | None = None) -> str:
    """Serialise a dataset to a JSON string."""
    return json.dumps(dataset_to_dict(dataset), indent=indent)


def save_dataset(dataset: Dataset, path: str | Path, indent: int | None = None) -> Path:
    """Write a dataset to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dataset_to_json(dataset, indent=indent), encoding="utf-8")
    return path


def write_csv_tables(dataset: Dataset, directory: str | Path) -> dict[str, Path]:
    """Write one CSV file per record type into ``directory``.

    Returns a mapping from table name to file path.  CSV is handy for
    loading the crawl into spreadsheet or dataframe tooling.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    tables: dict[str, list[dict[str, Any]]] = {
        "instances": [record.to_dict() for record in dataset.instances.values()],
        "policy_settings": [
            {
                "domain": record.domain,
                "policy": record.policy,
                "config": json.dumps(record.config, sort_keys=True),
            }
            for record in dataset.policy_settings
        ],
        "reject_edges": [edge.to_dict() for edge in dataset.reject_edges],
        "users": [record.to_dict() for record in dataset.users.values()],
        "posts": [record.to_dict() for record in dataset.posts],
    }

    for name, rows in tables.items():
        path = directory / f"{name}.csv"
        if not rows:
            path.write_text("", encoding="utf-8")
            written[name] = path
            continue
        fieldnames = list(rows[0])
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                flat = {
                    key: json.dumps(value) if isinstance(value, (list, dict)) else value
                    for key, value in row.items()
                }
                writer.writerow(flat)
        written[name] = path
    return written
