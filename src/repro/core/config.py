"""UniKV configuration.

The defaults are the paper's parameters scaled down uniformly (the paper
runs 4 MB memtables, 2 MB UnsortedStore tables, a 4 GB UnsortedLimit and a
40 GB partitionSizeLimit on 100 GB datasets; we keep the same *ratios* at
kilobyte scale so merges, GCs and splits occur at the same relative
frequency per byte written).
"""

from __future__ import annotations

from dataclasses import dataclass

_KB = 1024


@dataclass
class UniKVConfig:
    """Structural and policy parameters of a UniKV store."""

    # -- memtable / tables --------------------------------------------------------
    memtable_size: int = 16 * _KB
    block_size: int = 1 * _KB
    #: target size of SortedStore SSTables written by merges/GC
    sstable_size: int = 8 * _KB

    # -- differentiated indexing ---------------------------------------------------
    #: UnsortedStore size per partition that triggers a merge into the
    #: SortedStore (the paper's UnsortedLimit, a size threshold configured
    #: from available memory; ~4 memtable-sized tables at these defaults,
    #: keeping the paper's 1:10 ratio to partition_size_limit)
    unsorted_limit_bytes: int = 64 * _KB
    #: number of cuckoo candidate buckets (hash functions) per key
    hash_functions: int = 4
    #: hash-index buckets per partition; sized for ~80% utilization at
    #: unsorted_limit full tables of small records
    hash_buckets: int = 4096

    # -- partial KV separation / GC ---------------------------------------------------
    #: ablation switch: when False, merges rewrite every value into the new
    #: log instead of carrying old pointers (full re-separation each merge)
    partial_kv_separation: bool = True
    #: selective KV separation (the paper's suggested extension for small
    #: KV pairs): values strictly smaller than this stay inline in the
    #: SortedStore SSTables instead of moving to a value log.  0 separates
    #: everything (the paper's base design).
    inline_value_threshold: int = 0
    #: a partition garbage-collects once its value logs exceed this
    vlog_gc_limit: int = 256 * _KB
    #: GC is skipped while a partition's dead-byte fraction is below this
    gc_min_garbage_ratio: float = 0.35

    # -- dynamic range partitioning ------------------------------------------------------
    #: a partition splits in two once its data size exceeds this
    partition_size_limit: int = 640 * _KB

    # -- scan optimization -------------------------------------------------------------
    #: merge all UnsortedStore tables into one once this many accumulate
    #: (the paper's scanMergeLimit); 0 disables the size-based merge
    scan_merge_limit: int = 3

    # -- crash consistency ----------------------------------------------------------------
    #: checkpoint a partition's hash index every N flushes
    #: (the paper checkpoints every UnsortedLimit/2 flushed tables)
    index_checkpoint_interval: int = 2
    #: disable the WAL (benchmark option; recovery tests keep it on)
    wal_enabled: bool = True

    # -- maintenance scheduler (repro.runtime) --------------------------------------------
    #: background lanes for maintenance device time (flush/merge/GC/
    #: scan-merge/split); 0 = synchronous foreground maintenance (the
    #: paper-calibrated default, bit-identical to the pre-scheduler code)
    background_threads: int = 0
    #: in-flight background jobs at which foreground writes slow down
    slowdown_trigger: int = 4
    #: in-flight background jobs at which the foreground stalls until drain
    stop_trigger: int = 8
    #: per-excess-job foreground penalty while slowed down
    slowdown_penalty_us: float = 200.0

    # -- observability (repro.obs) --------------------------------------------------------
    #: per-op latency spans: the store reads its virtual clock around each
    #: put/delete/batch/get/scan and records ``unikv_op_seconds``.  False
    #: skips only those clock reads and records; every counter, gauge and
    #: maintenance/stall histogram is kept either way, and store behaviour
    #: is bit-identical (pinned by tests/test_obs_equivalence.py).
    metrics_enabled: bool = True

    # -- misc ---------------------------------------------------------------------------
    #: LevelDB-style shared-prefix key encoding inside data blocks
    #: (shrinks the key-dense SortedStore tables; off by default so the
    #: calibrated benchmark shapes stay byte-identical)
    block_prefix_compression: bool = False
    block_cache_bytes: int = 32 * _KB
    #: open-table (metadata) cache entries.  UniKV keeps table metadata
    #: memory-resident (the paper: index-block metadata "is usually cached
    #: in memory" — affordable because Bloom filters were removed), so the
    #: default effectively pins every table; the resident bytes are
    #: reported via UniKV.table_metadata_bytes().
    table_cache_size: int = 4096
    seed: int = 0

    def validate(self) -> None:
        if self.unsorted_limit_bytes < self.memtable_size:
            raise ValueError("unsorted_limit_bytes must hold at least one flush")
        if self.hash_functions < 1:
            raise ValueError("hash_functions must be >= 1")
        if self.hash_buckets < self.hash_functions:
            raise ValueError("hash_buckets must exceed hash_functions")
        if self.partition_size_limit <= 0:
            raise ValueError("partition_size_limit must be positive")
        if self.background_threads < 0:
            raise ValueError("background_threads must be >= 0")
        if not 1 <= self.slowdown_trigger <= self.stop_trigger:
            raise ValueError("need 1 <= slowdown_trigger <= stop_trigger")
