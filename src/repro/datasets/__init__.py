"""Dataset schema and storage shared by the crawler and the analysis.

The paper's analysis works on a crawled dataset: instance metadata snapshots
(including MRF policy settings), the peer graph, user accounts and public
posts.  This package defines flat record types for each of those, a
:class:`~repro.datasets.store.Dataset` container with the lookups the
analysis needs, and JSON/CSV export so a crawl can be saved.
"""

from repro.datasets.schema import (
    InstanceRecord,
    PolicySettingRecord,
    PostRecord,
    RejectEdge,
    UserRecord,
)
from repro.datasets.store import Dataset
from repro.datasets.export import (
    dataset_to_dict,
    dataset_to_json,
    save_dataset,
    write_csv_tables,
)

__all__ = [
    "InstanceRecord",
    "PolicySettingRecord",
    "PostRecord",
    "RejectEdge",
    "UserRecord",
    "Dataset",
    "dataset_to_dict",
    "dataset_to_json",
    "save_dataset",
    "write_csv_tables",
]
