//! The names and units the benchmark reports, as `BENCHMARK.json` lists
//! them (a test holds the two together).

/// End-to-end metrics, printed by every untraced run. What the operation
/// behind `ops_s`, `p50_us` and `p99_us` is depends on the workload; see
/// the README.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run; 0 where the workload
/// does not exercise the layer.
pub const PER_LAYER: [(&str, &str); 40] = [
    // The public API, per kind of operation.
    ("api.ingest_p50_us", "us"),
    ("api.retire_p50_us", "us"),
    ("api.path_open_p50_us", "us"),
    ("api.lookup_p50_us", "us"),
    ("api.lookup_p99_us", "us"),
    ("api.search_p50_us", "us"),
    ("api.scan_mb_s", "MB/s"),
    ("api.random_reads_s", "1/s"),
    // hfad_core.
    ("core.lookup_self_us", "us"),
    ("core.add_tags_us", "us"),
    ("core.index_content_us", "us"),
    ("core.delete_us", "us"),
    ("core.names_after_reopen_ratio", "ratio"),
    // hfad_index.
    ("index.term_lookup_us", "us"),
    ("index.intersect_self_us", "us"),
    ("index.fulltext_term_us", "us"),
    ("index.search_intersect_self_us", "us"),
    ("index.postings_per_hit", "ratio"),
    ("index.drain_s", "s"),
    // hfad_btree.
    ("btree.get_us", "us"),
    ("btree.insert_us", "us"),
    // hfad_osd.
    ("osd.txn_build_us", "us"),
    ("osd.txn_commit_us", "us"),
    ("osd.read_us", "us"),
    ("osd.checkpoint_ms", "ms"),
    ("osd.close_ms", "ms"),
    ("osd.reopen_ms", "ms"),
    ("osd.recover_ms", "ms"),
    ("osd.recover_replayed_ops", "count"),
    // hfad_storage and the device beneath it.
    ("storage.fsync_us", "us"),
    ("storage.group_commit_1_us", "us"),
    ("storage.group_commit_2_us", "us"),
    ("storage.cache_hit_us", "us"),
    ("storage.cache_miss_us", "us"),
    ("device.flushes_per_commit", "ratio"),
    ("device.write_amp", "ratio"),
    ("device.reads_per_read_op", "ratio"),
    // hfad_engine.
    ("engine.roundtrip_us", "us"),
    // The hierarchical reference and the cost of tracing itself.
    ("ref.hierfs_path_open_p50_us", "us"),
    ("trace_overhead_pct", "%"),
];
