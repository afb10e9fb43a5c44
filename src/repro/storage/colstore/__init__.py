"""Compressed, memory-mapped columnar partition storage.

One ``.gcp`` file per shuffled mini-batch (64-byte-aligned column
segments behind a JSON footer), per-chunk zone maps consulted by the
filter and uncertain-set pruning hooks, and partial-aggregate
projections that let recurring queries warm-start from persisted fold
state.  See ``docs/storage.md`` for the format and semantics.
"""

from .codecs import CODECS, EncodedColumn, decode_column, encode_column
from .dataset import (
    ColstoreDataset,
    convert_table,
    is_dataset_dir,
    open_dataset,
)
from .format import (
    DEFAULT_CHUNK_ROWS,
    PartitionReader,
    compute_zones,
    write_partition,
)
from .projections import ProjectionStore, projection_key
from .prune import (
    ColumnZones,
    ZoneMapIndex,
    chunk_decisions,
    pruned_filter_mask,
)

__all__ = [
    "CODECS",
    "ColstoreDataset",
    "ColumnZones",
    "DEFAULT_CHUNK_ROWS",
    "EncodedColumn",
    "PartitionReader",
    "ProjectionStore",
    "ZoneMapIndex",
    "chunk_decisions",
    "compute_zones",
    "convert_table",
    "decode_column",
    "encode_column",
    "is_dataset_dir",
    "open_dataset",
    "projection_key",
    "pruned_filter_mask",
    "write_partition",
]
