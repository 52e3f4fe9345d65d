//! The experiment implementations.
//!
//! Each function reproduces one row of the experiment index in `DESIGN.md`
//! and returns a [`Table`] whose rows the harness prints. The hFAD paper is
//! a position paper without an evaluation section, so the "paper" column of
//! every table is the qualitative claim the experiment tests, quoted or
//! paraphrased from the paper.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfad_core::{Hfad, HfadConfig, Tag, TagValue, INDEX_SHARDS};
use hfad_engine::{Engine, EnginePrefetcher, Priority};
use hfad_hierfs::HierConfig;
use hfad_index::{FullTextIndex, IndexStore, KeyValueIndex, LazyIndexer};

use hfad_osd::{unix_now, ObjectId, ObjectMeta, ObjectStore, StoreConfig};
use hfad_storage::{BlockDevice, MemDevice};
use hfad_workload::{documents, mail_store, photo_library, CorpusConfig, Item};

use crate::results::{ops_per_sec, us, Table};
use crate::setup::{build_hfad, build_hierfs, build_posix};

/// Experiment scale: `Quick` keeps every run under a few seconds (used by
/// the self-tests and CI); `Full` uses the sizes reported in
/// `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small corpora, few iterations.
    Quick,
    /// The sizes recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    fn pick(&self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Mean latency of `iters` invocations of `f`.
fn mean_latency(iters: usize, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

// ---------------------------------------------------------------------
// T1 — Table 1: tag classes.
// ---------------------------------------------------------------------

/// T1: every tag class from Table 1 of the paper is exercised and its
/// lookup latency measured on a populated file system.
pub fn t1_tag_classes(scale: Scale) -> Table {
    let n = scale.pick(500, 5_000);
    let items = photo_library(n, 11);
    let (fs, oids) = build_hfad(&items, HfadConfig::default());
    let iters = scale.pick(200, 2_000);

    let mut table = Table::new(
        "T1",
        "Tag/value pairs for different API uses (Table 1)",
        "every use case (POSIX, search, manual, applications, FastPath) maps to a tag lookup",
        &["use", "tag", "example value", "hits", "lookup µs"],
    );

    let probe_oid = oids[n / 2];
    let probe_item = &items[n / 2];
    let cases: Vec<(&str, TagValue)> = vec![
        ("POSIX", TagValue::posix(probe_item.path.clone())),
        ("Search", TagValue::fulltext("photo")),
        ("Manual", TagValue::udef("beach")),
        ("Manual", TagValue::user("margo")),
        ("Applications", TagValue::app("photo-manager")),
        (
            "FastPath",
            TagValue::new(Tag::Id, probe_oid.as_u64().to_string()),
        ),
    ];
    for (use_case, tv) in cases {
        let hits = fs.lookup(std::slice::from_ref(&tv)).unwrap().len();
        let latency = mean_latency(iters, || {
            fs.lookup(std::slice::from_ref(&tv)).unwrap();
        });
        table.push_row(vec![
            use_case.to_string(),
            tv.tag.to_string(),
            tv.value.chars().take(28).collect(),
            hits.to_string(),
            us(latency),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// F1 — Figure 1: layering.
// ---------------------------------------------------------------------

/// F1: the cost of each layer in Figure 1 — native hFAD naming, the POSIX
/// veneer on top of it, and the hierarchical baseline — for a
/// lookup-then-read of the same corpus.
pub fn f1_layering(scale: Scale) -> Table {
    let n = scale.pick(300, 3_000);
    let items = documents(&CorpusConfig {
        items: n,
        dir_depth: 3,
        ..Default::default()
    });
    let iters = scale.pick(200, 2_000);
    let (hfad, oids) = build_hfad(&items, HfadConfig::default());
    let posix = build_posix(&items, HfadConfig::default());
    let (hier, _) = build_hierfs(&items, HierConfig::default());

    let mut table = Table::new(
        "F1",
        "Layering overhead: native API vs POSIX veneer vs hierarchical baseline",
        "a POSIX interface can easily be implemented on top of the native services (Figure 1)",
        &["system", "operation", "mean µs"],
    );

    let probe = &items[n / 2];
    let probe_oid = oids[n / 2];

    let native_lookup = mean_latency(iters, || {
        hfad.lookup(&[TagValue::posix(probe.path.clone())]).unwrap();
    });
    let native_read = mean_latency(iters, || {
        hfad.read(probe_oid, 0, 4096).unwrap();
    });
    let posix_read = mean_latency(iters, || {
        posix.read(&probe.path, 0, 4096).unwrap();
    });
    let hier_read = mean_latency(iters, || {
        hier.read(&probe.path, 0, 4096).unwrap();
    });
    table.push_row(vec![
        "hfad-native".into(),
        "lookup(POSIX/path)".into(),
        us(native_lookup),
    ]);
    table.push_row(vec![
        "hfad-native".into(),
        "read 4 KiB by oid".into(),
        us(native_read),
    ]);
    table.push_row(vec![
        "posix-veneer".into(),
        "open+read 4 KiB by path".into(),
        us(posix_read),
    ]);
    table.push_row(vec![
        "hierfs".into(),
        "open+read 4 KiB by path".into(),
        us(hier_read),
    ]);
    table.push_derived(
        "veneer_vs_hierfs_read_speedup",
        hier_read.as_secs_f64() / posix_read.as_secs_f64(),
        "x",
    );
    table
}

// ---------------------------------------------------------------------
// E1 — §2.3 index traversals from search term to data block.
// ---------------------------------------------------------------------

/// E1: number of index traversals and physical block reads between a search
/// term and the first data block, as a function of path depth.
pub fn e1_traversals(scale: Scale) -> Table {
    let per_depth = scale.pick(60, 400);
    let iters = scale.pick(50, 400);
    let mut table = Table::new(
        "E1",
        "Search term → data block: index traversals and block reads vs path depth",
        "\"at a minimum, we encountered four index traversals; at a maximum, many more\" (§2.3); \
         hFAD needs only the search index and the object extent map",
        &[
            "path depth",
            "system",
            "logical traversals",
            "block reads",
            "mean µs",
        ],
    );

    for &depth in &[1usize, 2, 4, 6, 8] {
        // A corpus whose files all sit `depth` directories down and contain
        // a unique marker term per file.
        let mut items = Vec::new();
        for i in 0..per_depth {
            let mut path = String::new();
            for level in 0..depth {
                path.push_str(&format!("/level{level}"));
            }
            path.push_str(&format!("/file-{i:05}.txt"));
            items.push(Item {
                path,
                text: format!("marker{i:05} payload words storage system"),
                size: 4096,
                tags: vec![("UDEF".to_string(), format!("item{i}"))],
            });
        }
        let probe_term = format!("marker{:05}", per_depth / 2);

        // Hierarchical: desktop search index → pathname → namespace walk →
        // inode → extent map → data.
        let (hier, hier_index) = build_hierfs(&items, HierConfig::noatime());
        // Warm the probe once, then count.
        hier_index
            .search_and_read(&hier, &[&probe_term], 4096)
            .unwrap();
        let trav_before = hier.counters();
        let dev_before = hier.device_counters();
        let hier_lat = mean_latency(iters, || {
            hier_index
                .search_and_read(&hier, &[&probe_term], 4096)
                .unwrap();
        });
        let trav = hier.counters().delta_since(&trav_before);
        let dev = hier.device_counters().delta_since(&dev_before);
        table.push_row(vec![
            depth.to_string(),
            "hierfs+searchidx".into(),
            format!("{:.1}", trav.total_traversals() as f64 / iters as f64),
            format!("{:.1}", dev.reads as f64 / iters as f64),
            us(hier_lat),
        ]);

        // hFAD: full-text index → OID → extent map → data.
        let (hfad, _) = build_hfad(&items, HfadConfig::default());
        hfad.search_text(&[&probe_term]).unwrap();
        let dev_before = hfad.store().stats().device;
        let hfad_lat = mean_latency(iters, || {
            let hits = hfad.search_text(&[&probe_term]).unwrap();
            hfad.read(hits[0], 0, 4096).unwrap();
        });
        let dev = hfad.store().stats().device.delta_since(&dev_before);
        table.push_row(vec![
            depth.to_string(),
            "hfad".into(),
            "2.0".into(),
            format!("{:.1}", dev.reads as f64 / iters as f64),
            us(hfad_lat),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// E2 — §2.3 concurrency through shared ancestors.
// ---------------------------------------------------------------------

/// E2: multi-threaded throughput of operations on unrelated files
/// (`/home/nick/*` vs `/home/margo/*`).
pub fn e2_concurrency(scale: Scale) -> Table {
    let files_per_user = scale.pick(100, 500);
    let duration = Duration::from_millis(scale.pick(150, 800) as u64);
    let users = ["nick", "margo", "alex", "rivka"];

    let mut items = Vec::new();
    for user in &users {
        for i in 0..files_per_user {
            items.push(Item {
                path: format!("/home/{user}/file-{i:05}.txt"),
                text: format!("{user} file {i} contents"),
                size: 1024,
                tags: vec![("USER".to_string(), user.to_string())],
            });
        }
    }

    let mut table = Table::new(
        "E2",
        "Throughput of unrelated accesses vs thread count",
        "\"/home/nick and /home/margo are functionally unrelated … yet accessing them requires \
         synchronizing … through a shared ancestor directory\" (§2.3)",
        &["threads", "system", "ops/s"],
    );

    let run_threads = |threads: usize, op: Arc<dyn Fn(usize, usize) + Send + Sync>| -> u64 {
        let counter = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..threads {
            let op = Arc::clone(&op);
            let counter = Arc::clone(&counter);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0usize;
                while stop.load(Ordering::Relaxed) == 0 {
                    op(t, i);
                    i += 1;
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        std::thread::sleep(duration);
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        counter.load(Ordering::Relaxed)
    };

    for &threads in &[1usize, 2, 4, 8] {
        // Hierarchical baseline with POSIX atime semantics: every stat
        // write-locks and dirties the shared ancestors.
        let (hier, _) = build_hierfs(&items, HierConfig::default());
        let hier = Arc::clone(&hier);
        let users_owned: Vec<String> = users.iter().map(|u| u.to_string()).collect();
        let fpu = files_per_user;
        let op = {
            let hier = Arc::clone(&hier);
            let users = users_owned.clone();
            Arc::new(move |t: usize, i: usize| {
                let user = &users[t % users.len()];
                let path = format!("/home/{user}/file-{:05}.txt", i % fpu);
                hier.stat(&path).unwrap();
            }) as Arc<dyn Fn(usize, usize) + Send + Sync>
        };
        let ops = run_threads(threads, op);
        table.push_row(vec![
            threads.to_string(),
            "hierfs (atime)".into(),
            ops_per_sec(ops, duration),
        ]);

        // Hierarchical baseline with noatime: read locks only.
        let (hier_noatime, _) = build_hierfs(&items, HierConfig::noatime());
        let op = {
            let hier = Arc::clone(&hier_noatime);
            let users = users_owned.clone();
            Arc::new(move |t: usize, i: usize| {
                let user = &users[t % users.len()];
                let path = format!("/home/{user}/file-{:05}.txt", i % fpu);
                hier.stat(&path).unwrap();
            }) as Arc<dyn Fn(usize, usize) + Send + Sync>
        };
        let ops = run_threads(threads, op);
        table.push_row(vec![
            threads.to_string(),
            "hierfs (noatime)".into(),
            ops_per_sec(ops, duration),
        ]);

        // hFAD: the same logical operation is a single sharded-index lookup;
        // no shared ancestor exists.
        let (hfad, _) = build_hfad(&items, HfadConfig::default());
        let hfad = Arc::new(hfad);
        let op = {
            let hfad = Arc::clone(&hfad);
            let users = users_owned.clone();
            Arc::new(move |t: usize, i: usize| {
                let user = &users[t % users.len()];
                let path = format!("/home/{user}/file-{:05}.txt", i % fpu);
                let hits = hfad.lookup(&[TagValue::posix(path)]).unwrap();
                hfad.meta(hits[0]).unwrap();
            }) as Arc<dyn Fn(usize, usize) + Send + Sync>
        };
        let ops = run_threads(threads, op);
        table.push_row(vec![
            threads.to_string(),
            "hfad".into(),
            ops_per_sec(ops, duration),
        ]);

        // The same claim one layer down: raw object-store create/open
        // throughput with the single-shard (global-lock-equivalent)
        // configuration vs the sharded hot path. The shard count is the
        // only variable; the workload is `setup::store_churn_op`.
        for store_shards in [1usize, 8] {
            let (store, pool) = crate::setup::build_sharded_store(store_shards, 256);
            let op = {
                let store = Arc::clone(&store);
                Arc::new(move |t: usize, i: usize| {
                    crate::setup::store_churn_op(&store, &pool, t, i);
                }) as Arc<dyn Fn(usize, usize) + Send + Sync>
            };
            let ops = run_threads(threads, op);
            table.push_row(vec![
                threads.to_string(),
                format!("hfad-osd ({} shard)", store.shard_count()),
                ops_per_sec(ops, duration),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------
// E3 — §3.1.2 insert / range truncate.
// ---------------------------------------------------------------------

/// E3: mid-file insert and range truncate latency vs file size — the
/// extent-map splice against the POSIX read-modify-rewrite.
pub fn e3_insert_truncate(scale: Scale) -> Table {
    let sizes: &[u64] = match scale {
        Scale::Quick => &[64 * 1024, 256 * 1024, 1024 * 1024],
        Scale::Full => &[
            64 * 1024,
            256 * 1024,
            1024 * 1024,
            4 * 1024 * 1024,
            16 * 1024 * 1024,
        ],
    };
    let iters = scale.pick(5, 20);
    let payload = vec![0xA5u8; 4096];

    let mut table = Table::new(
        "E3",
        "Mid-file insert and range truncate vs file size",
        "\"the use of btrees gives us the capability to insert and truncate with little \
         implementation effort\" (§3.4); a POSIX file must be rewritten",
        &["file size", "operation", "system", "mean µs"],
    );

    for &size in sizes {
        let body = vec![0x5Au8; size as usize];

        // hFAD: splice into the extent map.
        let fs = Hfad::in_memory(crate::setup::DEFAULT_CAPACITY, HfadConfig::default()).unwrap();
        let oid = fs.create(&[]).unwrap();
        fs.write(oid, 0, &body).unwrap();
        let insert_lat = mean_latency(iters, || {
            fs.insert(oid, size / 2, &payload).unwrap();
        });
        let truncate_lat = mean_latency(iters, || {
            fs.truncate_range(oid, size / 2, payload.len() as u64)
                .unwrap();
        });

        // Baseline: read tail, rewrite shifted.
        let (hier, _) = build_hierfs(&[], HierConfig::noatime());
        hier.create_file("/victim").unwrap();
        hier.write("/victim", 0, &body).unwrap();
        let hier_insert_lat = mean_latency(iters, || {
            hier.insert_via_rewrite("/victim", size / 2, &payload)
                .unwrap();
        });
        let hier_truncate_lat = mean_latency(iters, || {
            hier.remove_range_via_rewrite("/victim", size / 2, payload.len() as u64)
                .unwrap();
        });

        let size_label = format!("{} KiB", size / 1024);
        table.push_row(vec![
            size_label.clone(),
            "insert 4 KiB mid-file".into(),
            "hfad".into(),
            us(insert_lat),
        ]);
        table.push_row(vec![
            size_label.clone(),
            "insert 4 KiB mid-file".into(),
            "hierfs (rewrite)".into(),
            us(hier_insert_lat),
        ]);
        table.push_row(vec![
            size_label.clone(),
            "truncate 4 KiB mid-file".into(),
            "hfad".into(),
            us(truncate_lat),
        ]);
        table.push_row(vec![
            size_label,
            "truncate 4 KiB mid-file".into(),
            "hierfs (rewrite)".into(),
            us(hier_truncate_lat),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// E4 — §3.2/§3.4 full-text index scaling and lazy indexing.
// ---------------------------------------------------------------------

/// A standalone full-text index with `shards` shards over `device`, for
/// the experiments that build indexing baselines at the index layer (E4,
/// E10).
fn standalone_fulltext(device: MemDevice, shards: usize) -> Arc<FullTextIndex> {
    let device = Arc::new(device);
    let allocator = Arc::new(hfad_storage::BuddyAllocator::new(
        1,
        device.block_count() - 1,
    ));
    Arc::new(FullTextIndex::new(hfad_btree::TreeContext::new(device, allocator), shards).unwrap())
}

/// E4: full-text query latency vs corpus size, and the indexing
/// throughput of inline [`FullTextIndex::index_document`] calls vs a
/// [`LazyIndexer`] on the engine's Index class, drained.
pub fn e4_fulltext(scale: Scale) -> Table {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[200, 1_000],
        Scale::Full => &[1_000, 5_000, 20_000],
    };
    let query_iters = scale.pick(100, 500);
    // Shaped like the index `Hfad` builds: same shard count, a device the
    // size of the hFAD fixtures.
    let new_index = || {
        standalone_fulltext(
            MemDevice::with_capacity(crate::setup::DEFAULT_CAPACITY),
            INDEX_SHARDS,
        )
    };

    let mut table = Table::new(
        "E4",
        "Full-text search scaling and lazy background indexing",
        "an extensible full-text index store with \"background threads to perform lazy full-text \
         indexing\" (§3.2, §3.4)",
        &["corpus", "metric", "value"],
    );

    for &n in sizes {
        let items = mail_store(n, 5);
        let texts: Vec<(ObjectId, String)> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let text = String::from_utf8_lossy(&item.content()).into_owned();
                (ObjectId(i as u64), text)
            })
            .collect();
        // Eager baseline: index every document inline at the index layer.
        let inline = new_index();
        let (_, inline_elapsed) = time(|| {
            for (oid, text) in &texts {
                inline.index_document(*oid, text).unwrap();
            }
        });
        // Lazy: enqueue every document on the engine's Index class (as
        // `Hfad::index_content` does), then wait for the backlog to drain.
        let engine = Engine::new(Arc::new(MemDevice::new(64, 512)));
        let lazy = LazyIndexer::with_executor(new_index(), engine.executor(Priority::Index));
        let (_, lazy_elapsed) = time(|| {
            for (oid, text) in &texts {
                lazy.enqueue(*oid, text.clone()).unwrap();
            }
            lazy.drain();
        });
        assert_eq!(lazy.index().documents_indexed(), inline.documents_indexed());
        engine.shutdown();

        // Query latency through the full stack.
        let (fs, _oids) = build_hfad(&items, HfadConfig::default());
        let q1 = mean_latency(query_iters, || {
            fs.search_text(&["storage"]).unwrap();
        });
        let q3 = mean_latency(query_iters, || {
            fs.search_text(&["storage", "index", "system"]).unwrap();
        });
        table.push_row(vec![
            n.to_string(),
            "inline index docs/s".into(),
            ops_per_sec(n as u64, inline_elapsed),
        ]);
        table.push_row(vec![n.to_string(), "1-term query µs".into(), us(q1)]);
        table.push_row(vec![n.to_string(), "3-term conjunction µs".into(), us(q3)]);
        table.push_row(vec![
            n.to_string(),
            "lazy enqueue+drain docs/s".into(),
            ops_per_sec(n as u64, lazy_elapsed),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// E5 — §2 backwards compatibility: POSIX metadata workload.
// ---------------------------------------------------------------------

/// E5: a POSIX metadata workload (mkdir/create/stat/readdir/rename/unlink)
/// on the veneer vs the hierarchical baseline.
pub fn e5_posix_compat(scale: Scale) -> Table {
    let dirs = scale.pick(20, 100);
    let files_per_dir = scale.pick(20, 100);

    let mut table = Table::new(
        "E5",
        "POSIX metadata workload: veneer over hFAD vs hierarchical baseline",
        "\"a storage system is not useful without some support for backwards compatibility in \
         interface if not in disk layout\" (§2)",
        &["operation", "count", "posix-veneer ops/s", "hierfs ops/s"],
    );

    let hfad =
        Arc::new(Hfad::in_memory(crate::setup::DEFAULT_CAPACITY, HfadConfig::default()).unwrap());
    let posix = hfad_posix::PosixFs::new(hfad).unwrap();
    let (hier, _) = build_hierfs(&[], HierConfig::default());

    let paths: Vec<(String, String)> = (0..dirs)
        .flat_map(|d| {
            (0..files_per_dir).map(move |f| {
                (
                    format!("/work/dir{d:03}"),
                    format!("/work/dir{d:03}/file{f:03}"),
                )
            })
        })
        .collect();

    // mkdir.
    let (_, posix_mkdir) = time(|| {
        posix.mkdir_all("/work").unwrap();
        for d in 0..dirs {
            posix.mkdir(&format!("/work/dir{d:03}")).unwrap();
        }
    });
    let (_, hier_mkdir) = time(|| {
        hier.mkdir_all("/work").unwrap();
        for d in 0..dirs {
            hier.mkdir(&format!("/work/dir{d:03}")).unwrap();
        }
    });
    table.push_row(vec![
        "mkdir".into(),
        dirs.to_string(),
        ops_per_sec(dirs as u64, posix_mkdir),
        ops_per_sec(dirs as u64, hier_mkdir),
    ]);

    // create.
    let (_, posix_create) = time(|| {
        for (_, file) in &paths {
            posix.create(file).unwrap();
        }
    });
    let (_, hier_create) = time(|| {
        for (_, file) in &paths {
            hier.create_file(file).unwrap();
        }
    });
    table.push_row(vec![
        "create".into(),
        paths.len().to_string(),
        ops_per_sec(paths.len() as u64, posix_create),
        ops_per_sec(paths.len() as u64, hier_create),
    ]);

    // stat.
    let (_, posix_stat) = time(|| {
        for (_, file) in &paths {
            posix.stat(file).unwrap();
        }
    });
    let (_, hier_stat) = time(|| {
        for (_, file) in &paths {
            hier.stat(file).unwrap();
        }
    });
    table.push_row(vec![
        "stat".into(),
        paths.len().to_string(),
        ops_per_sec(paths.len() as u64, posix_stat),
        ops_per_sec(paths.len() as u64, hier_stat),
    ]);

    // readdir.
    let (_, posix_readdir) = time(|| {
        for d in 0..dirs {
            posix.readdir(&format!("/work/dir{d:03}")).unwrap();
        }
    });
    let (_, hier_readdir) = time(|| {
        for d in 0..dirs {
            hier.readdir(&format!("/work/dir{d:03}")).unwrap();
        }
    });
    table.push_row(vec![
        "readdir".into(),
        dirs.to_string(),
        ops_per_sec(dirs as u64, posix_readdir),
        ops_per_sec(dirs as u64, hier_readdir),
    ]);

    // rename.
    let renames = paths.len().min(dirs * 10);
    let (_, posix_rename) = time(|| {
        for (_, file) in paths.iter().take(renames) {
            posix.rename(file, &format!("{file}.renamed")).unwrap();
        }
    });
    let (_, hier_rename) = time(|| {
        for (_, file) in paths.iter().take(renames) {
            hier.rename(file, &format!("{file}.renamed")).unwrap();
        }
    });
    table.push_row(vec![
        "rename".into(),
        renames.to_string(),
        ops_per_sec(renames as u64, posix_rename),
        ops_per_sec(renames as u64, hier_rename),
    ]);

    // unlink.
    let (_, posix_unlink) = time(|| {
        for (_, file) in paths.iter().take(renames) {
            posix.unlink(&format!("{file}.renamed")).unwrap();
        }
        for (_, file) in paths.iter().skip(renames) {
            posix.unlink(file).unwrap();
        }
    });
    let (_, hier_unlink) = time(|| {
        for (_, file) in paths.iter().take(renames) {
            hier.unlink(&format!("{file}.renamed")).unwrap();
        }
        for (_, file) in paths.iter().skip(renames) {
            hier.unlink(file).unwrap();
        }
    });
    table.push_row(vec![
        "unlink".into(),
        paths.len().to_string(),
        ops_per_sec(paths.len() as u64, posix_unlink),
        ops_per_sec(paths.len() as u64, hier_unlink),
    ]);
    table
}

// ---------------------------------------------------------------------
// E6 — §3.4 implementation ablations.
// ---------------------------------------------------------------------

/// E6: ablations of the implementation choices: buddy-allocator churn,
/// extent size, index shard count, and the optional transactional OSD.
pub fn e6_ablation(scale: Scale) -> Table {
    let objects = scale.pick(200, 2_000);
    let object_size = 64 * 1024usize;
    let body = vec![0x42u8; object_size];

    let mut table = Table::new(
        "E6",
        "Ablations of §3.4 implementation choices",
        "the OSD uses a buddy allocator, variable-sized extents, B-trees and an optionally \
         transactional store (§3.3–3.4)",
        &["dimension", "setting", "write MB/s", "note"],
    );

    // Allocator: the buddy allocator under write + delete churn (freed
    // extents are reclaimed).
    {
        let device = Arc::new(MemDevice::with_capacity(crate::setup::DEFAULT_CAPACITY));
        let store = ObjectStore::create(device, StoreConfig::default()).unwrap();
        let (result, elapsed) = time(|| {
            for i in 0..objects {
                let oid = store.create_default(0).unwrap();
                store.write(oid, 0, &body).unwrap();
                if i % 2 == 1 {
                    store.delete(oid).unwrap();
                }
            }
            store.stats().allocator
        });
        let mb = (objects * object_size) as f64 / (1024.0 * 1024.0);
        table.push_row(vec![
            "allocator".into(),
            "buddy".into(),
            format!("{:.1}", mb / elapsed.as_secs_f64()),
            format!(
                "utilization {:.2}, failed allocs {}",
                result.utilization(),
                result.failed_allocs
            ),
        ]);
    }

    // Extent size sweep.
    for extent_kib in [16u64, 64, 256, 1024] {
        let device = Arc::new(MemDevice::with_capacity(crate::setup::DEFAULT_CAPACITY));
        let config = StoreConfig {
            max_extent_bytes: extent_kib * 1024,
            ..Default::default()
        };
        let store = ObjectStore::create(device, config).unwrap();
        let (_, elapsed) = time(|| {
            for _ in 0..objects.min(500) {
                let oid = store.create_default(0).unwrap();
                store.write(oid, 0, &body).unwrap();
            }
        });
        let mb = (objects.min(500) * object_size) as f64 / (1024.0 * 1024.0);
        let oid = store.create_default(0).unwrap();
        store.write(oid, 0, &body).unwrap();
        let insert_lat = mean_latency(10, || {
            store
                .insert(oid, (object_size / 2) as u64, b"splice")
                .unwrap();
        });
        table.push_row(vec![
            "max extent".into(),
            format!("{extent_kib} KiB"),
            format!("{:.1}", mb / elapsed.as_secs_f64()),
            format!("mid-file insert {} µs", us(insert_lat)),
        ]);
    }

    // Store lock shards: the tentpole ablation — create/open throughput of
    // the object store itself with a sharded vs a global-lock
    // (single-shard) table and open-object map.
    for shards in [1usize, 4, 16] {
        let (store, pool) = crate::setup::build_sharded_store(shards, 128);
        let threads = 4usize;
        let per_thread = objects;
        let (_, elapsed) = time(|| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let store = Arc::clone(&store);
                    let pool = Arc::clone(&pool);
                    std::thread::spawn(move || {
                        for i in 0..per_thread {
                            crate::setup::store_churn_op(&store, &pool, t, i);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        table.push_row(vec![
            "store shards".into(),
            store.shard_count().to_string(),
            "-".into(),
            format!(
                "{} create/open ops/s across {threads} threads",
                ops_per_sec((threads * per_thread) as u64, elapsed)
            ),
        ]);
    }

    // Index shards: tagged creates against a key/value index built with
    // `shards` shards over the store's own tree context.
    for shards in [1usize, 4, 16] {
        let device = Arc::new(MemDevice::with_capacity(crate::setup::DEFAULT_CAPACITY));
        let store = ObjectStore::create(device, StoreConfig::default()).unwrap();
        let index = KeyValueIndex::new(
            store.context().clone(),
            "keyvalue",
            Some(vec![Tag::Udef]),
            shards,
        )
        .unwrap();
        let (_, elapsed) = time(|| {
            for i in 0..objects {
                let oid = store.create_default(0).unwrap();
                index.insert(&Tag::Udef, &format!("tag-{i}"), oid).unwrap();
            }
        });
        table.push_row(vec![
            "index shards".into(),
            shards.to_string(),
            String::from("-"),
            format!("{} tagged creates/s", ops_per_sec(objects as u64, elapsed)),
        ]);
    }

    // Transactional vs plain OSD.
    {
        let device = Arc::new(MemDevice::with_capacity(crate::setup::DEFAULT_CAPACITY));
        let plain = ObjectStore::create(device, StoreConfig::default()).unwrap();
        let oid = plain.create_default(0).unwrap();
        let (_, plain_elapsed) = time(|| {
            for i in 0..objects {
                plain
                    .write(oid, (i * 4096) as u64 % (1 << 20), &body[..4096])
                    .unwrap();
            }
        });

        let device = Arc::new(MemDevice::with_capacity(crate::setup::DEFAULT_CAPACITY));
        let journaled = Arc::new(
            ObjectStore::create(
                device,
                StoreConfig {
                    journal_blocks: 4096,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let txn_store = hfad_osd::TxnStore::new(Arc::clone(&journaled)).unwrap();
        let oid = journaled.create_default(0).unwrap();
        let (_, txn_elapsed) = time(|| {
            for i in 0..objects {
                let mut txn = txn_store.begin();
                txn.write(oid, (i * 4096) as u64 % (1 << 20), &body[..4096])
                    .unwrap();
                txn.commit().unwrap();
                if i % 64 == 63 {
                    txn_store.checkpoint().unwrap();
                }
            }
        });
        let mb = (objects * 4096) as f64 / (1024.0 * 1024.0);
        table.push_row(vec![
            "osd transactionality".into(),
            "plain".into(),
            format!("{:.1}", mb / plain_elapsed.as_secs_f64()),
            "no journal".into(),
        ]);
        table.push_row(vec![
            "osd transactionality".into(),
            "journaled".into(),
            format!("{:.1}", mb / txn_elapsed.as_secs_f64()),
            "write-ahead log + commit per op".into(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// E7 — §2.2 one object, many collections.
// ---------------------------------------------------------------------

/// E7: the cost of making one object a member of N collections — adding N
/// tags in hFAD vs copying the file into N directories on the baseline
/// (the baseline has no multi-naming primitive short of links, and links
/// still require one directory entry per membership).
pub fn e7_multinaming(scale: Scale) -> Table {
    let object_size = 64 * 1024usize;
    let body = vec![0x33u8; object_size];
    let memberships: &[usize] = match scale {
        Scale::Quick => &[1, 4, 16],
        Scale::Full => &[1, 4, 16, 64, 256],
    };

    let mut table = Table::new(
        "E7",
        "One object in N collections",
        "\"a single piece of data may belong to multiple collections\"; imposing one canonical \
         hierarchy conflates naming with access (§2.2)",
        &["memberships", "system", "total ms", "extra bytes stored"],
    );

    for &n in memberships {
        // hFAD: one object, N tags.
        let fs = Hfad::in_memory(crate::setup::DEFAULT_CAPACITY, HfadConfig::default()).unwrap();
        let oid = fs.create(&[]).unwrap();
        fs.write(oid, 0, &body).unwrap();
        let before_alloc = fs.stats().store.allocator.allocated_blocks;
        let (_, elapsed) = time(|| {
            for c in 0..n {
                fs.add_tags(oid, &[TagValue::udef(format!("collection-{c:04}"))])
                    .unwrap();
            }
        });
        let extra_blocks = fs.stats().store.allocator.allocated_blocks - before_alloc;
        table.push_row(vec![
            n.to_string(),
            "hfad (tags)".into(),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
            format!("{}", extra_blocks * 4096),
        ]);

        // Baseline: copy the file into each collection directory.
        let (hier, _) = build_hierfs(&[], HierConfig::noatime());
        hier.create_file("/original").unwrap();
        hier.write("/original", 0, &body).unwrap();
        let before_alloc = hier.store().stats().allocator.allocated_blocks;
        let (_, elapsed) = time(|| {
            for c in 0..n {
                let dir = format!("/collection-{c:04}");
                hier.mkdir_all(&dir).unwrap();
                let copy = format!("{dir}/member");
                hier.create_file(&copy).unwrap();
                hier.write(&copy, 0, &body).unwrap();
            }
        });
        let extra_blocks = hier.store().stats().allocator.allocated_blocks - before_alloc;
        table.push_row(vec![
            n.to_string(),
            "hierfs (copies)".into(),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
            format!("{}", extra_blocks * 4096),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// E8 — §3.3 group commit: amortising the transactional flush.
// ---------------------------------------------------------------------

/// The flush latency E8 charges the journal device, emulating a storage
/// device whose FLUSH CACHE takes ~0.3 ms and executes serially.
pub const E8_FLUSH_DELAY: Duration = Duration::from_micros(300);

/// Builds the transactional store E8 measures: an [`ObjectStore`] whose
/// device pays [`E8_FLUSH_DELAY`] per sync, wrapped by a [`hfad_osd::TxnStore`]
/// with the given group-commit policy.
pub fn e8_txn_store(config: hfad_storage::GroupCommitConfig) -> Arc<hfad_osd::TxnStore> {
    let device = Arc::new(hfad_storage::FaultDevice::flush_delay(
        MemDevice::with_capacity(64 * 1024 * 1024),
        E8_FLUSH_DELAY,
    ));
    let store = Arc::new(
        ObjectStore::create(
            device,
            StoreConfig {
                journal_blocks: 2048,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    Arc::new(hfad_osd::TxnStore::with_config(store, config).unwrap())
}

/// Runs `threads` committers, each committing `per_thread` small
/// transactions, and returns the elapsed wall-clock time.
pub fn e8_commit_storm(
    ts: &Arc<hfad_osd::TxnStore>,
    threads: usize,
    per_thread: usize,
) -> Duration {
    let oids: Vec<_> = (0..threads)
        .map(|_| ts.store().create_default(0).unwrap())
        .collect();
    let (_, elapsed) = time(|| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ts = Arc::clone(ts);
                let oid = oids[t];
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let mut txn = ts.begin();
                        txn.write(
                            oid,
                            (i % 64 * 64) as u64,
                            format!("c{t:02}-{i:04}").as_bytes(),
                        )
                        .unwrap();
                        txn.commit().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    elapsed
}

/// E8: group-commit throughput — commits/sec at 1..N concurrent
/// committers, batched vs the sync-per-commit baseline, on a device with
/// a realistic (serialised, ~0.3 ms) flush latency.
pub fn e8_group_commit(scale: Scale) -> Table {
    let per_thread = scale.pick(40, 200);

    let mut table = Table::new(
        "E8",
        "Group commit: commits/s vs concurrent committers, batched vs sync-per-commit",
        "the OSD \"may be transactional\" (§3.3); group commit makes the transactional choice \
         scale by amortising one journal flush across every concurrently committing txn",
        &[
            "committers",
            "batching",
            "commits/s",
            "flushes",
            "mean batch",
        ],
    );

    let mut rates = std::collections::HashMap::new();
    for &threads in &[1usize, 2, 4, 8] {
        for (label, config) in [
            (
                "sync-per-commit",
                hfad_storage::GroupCommitConfig::unbatched(),
            ),
            (
                "group-commit(64)",
                hfad_storage::GroupCommitConfig::default(),
            ),
        ] {
            let ts = e8_txn_store(config);
            let elapsed = e8_commit_storm(&ts, threads, per_thread);
            let stats = ts.group_commit_stats();
            let mean_batch = stats.commits as f64 / stats.batches.max(1) as f64;
            rates.insert(
                (threads, label),
                (threads * per_thread) as f64 / elapsed.as_secs_f64(),
            );
            table.push_row(vec![
                threads.to_string(),
                label.to_string(),
                ops_per_sec((threads * per_thread) as u64, elapsed),
                stats.flushes.to_string(),
                format!("{mean_batch:.1}"),
            ]);
        }
    }
    table.push_derived(
        "batched_speedup_8_committers",
        rates[&(8, "group-commit(64)")] / rates[&(8, "sync-per-commit")],
        "x",
    );
    table
}

// ---------------------------------------------------------------------
// E9 — the two-tier read cache (block cache shards × node cache).
// ---------------------------------------------------------------------

/// Blocks of block-cache capacity for the E9 fixture (holds the whole
/// tree, matching the paper's "indexes in memory" premise: the sweep
/// measures per-access overhead and lock contention, not miss servicing).
const E9_CACHE_BLOCKS: usize = 8192;

/// Decoded-node cache capacity used by E9's "node cache on" rows.
pub const E9_NODE_CACHE_PAGES: usize = 16384;

/// Block-cache shard count used by E9's "sharded" rows (explicit, so the
/// sweep is meaningful even on narrow CI machines where auto-sizing
/// would resolve to one shard).
pub const E9_CACHE_SHARDS: usize = 8;

/// The E9 key for entry `i` of `n`.
fn e9_key(i: usize) -> Vec<u8> {
    format!("object/extent/{i:08}").into_bytes()
}

/// Builds the E9 fixture: a B+tree over a block-cache-fronted device,
/// with `cache_shards` block-cache lock stripes (`1` = the global-lock
/// seed cache) and a decoded-node cache of `node_cache_pages` (`0` =
/// decode on every read), fully warmed so every descent runs in memory.
pub fn e9_tree(
    cache_shards: usize,
    node_cache_pages: usize,
    entries: usize,
) -> (
    Arc<hfad_btree::BTree>,
    Arc<hfad_storage::CachedDevice<Arc<dyn hfad_storage::BlockDevice>>>,
) {
    let inner: Arc<dyn hfad_storage::BlockDevice> = Arc::new(MemDevice::new(16384, 4096));
    let device = Arc::new(hfad_storage::CachedDevice::with_shards(
        inner,
        E9_CACHE_BLOCKS,
        cache_shards,
    ));
    let allocator = Arc::new(hfad_storage::BuddyAllocator::new(1, 16383));
    let ctx =
        hfad_btree::TreeContext::new(device.clone(), allocator).with_node_cache(node_cache_pages);
    let mut tree = hfad_btree::BTree::create(ctx).unwrap();
    for i in 0..entries {
        tree.insert(&e9_key(i), format!("extent metadata for {i}").as_bytes())
            .unwrap();
    }
    // Warm both tiers: after this pass every node image is a block-cache
    // frame and (when enabled) a decoded node-cache entry.
    for i in 0..entries {
        tree.get(&e9_key(i)).unwrap();
    }
    tree.reset_stats();
    (Arc::new(tree), device)
}

/// Runs `threads` readers, each performing `per_thread` point lookups
/// spread pseudo-randomly over the tree, and returns the elapsed
/// wall-clock time.
pub fn e9_descent_storm(
    tree: &Arc<hfad_btree::BTree>,
    entries: usize,
    threads: usize,
    per_thread: usize,
) -> Duration {
    let (_, elapsed) = time(|| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let tree = Arc::clone(tree);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let id = (i.wrapping_mul(2654435761) + t * 97) % entries;
                        tree.get(&e9_key(id)).unwrap().expect("key present");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    elapsed
}

/// E9: read-path cache contention — concurrent warm B+tree descent
/// throughput across the two-tier cache ablation: block-cache lock
/// shards 1 vs N, decoded-node cache off vs on.
pub fn e9_cache_contention(scale: Scale) -> Table {
    let entries = scale.pick(2_000, 20_000);
    let per_thread = scale.pick(4_000, 20_000);

    let mut table = Table::new(
        "E9",
        "Two-tier read cache: warm descent throughput vs cache shards x node cache",
        "\"a system can capture all the indexes in memory\" (§2.3) only pays off if in-memory \
         traversals are cheap: the sharded block cache removes the read path's last global \
         lock and the decoded-node cache removes the per-level decode",
        &[
            "threads",
            "cache shards",
            "node cache",
            "gets/s",
            "blk hit%",
            "node hits/read",
        ],
    );

    let mut rates = std::collections::HashMap::new();
    for &threads in &[1usize, 4, 8] {
        for &(cache_shards, node_cache_pages) in &[
            (1usize, 0usize), // the seed: global cache lock, decode every read
            (E9_CACHE_SHARDS, 0),
            (1, E9_NODE_CACHE_PAGES),
            (E9_CACHE_SHARDS, E9_NODE_CACHE_PAGES),
        ] {
            let (tree, device) = e9_tree(cache_shards, node_cache_pages, entries);
            let elapsed = e9_descent_storm(&tree, entries, threads, per_thread);
            rates.insert(
                (threads, cache_shards, node_cache_pages),
                (threads * per_thread) as f64 / elapsed.as_secs_f64(),
            );
            let cache = device.cache_stats();
            let stats = tree.stats();
            table.push_row(vec![
                threads.to_string(),
                cache_shards.to_string(),
                if node_cache_pages == 0 {
                    "off".into()
                } else {
                    node_cache_pages.to_string()
                },
                ops_per_sec((threads * per_thread) as u64, elapsed),
                format!("{:.1}", cache.hit_ratio() * 100.0),
                format!(
                    "{:.2}",
                    stats.node_cache_hits as f64 / stats.nodes_read.max(1) as f64
                ),
            ]);
        }
    }
    table.push_derived(
        "tiered_speedup_8_readers",
        rates[&(8, E9_CACHE_SHARDS, E9_NODE_CACHE_PAGES)] / rates[&(8, 1, 0)],
        "x",
    );
    table
}

// ---------------------------------------------------------------------
// E10 — the background-job engine: read-ahead scan + query-during-ingest.
// ---------------------------------------------------------------------

/// Per-read latency E10 charges the scan device. Reads overlap (no
/// serialisation), emulating a device with command queueing: the win the
/// engine harvests is submitting several reads at once, not making any
/// single read faster.
pub const E10_READ_DELAY: Duration = Duration::from_micros(150);

/// Read-ahead window (blocks prefetched beyond the run head).
pub const E10_RA_WINDOW: u64 = 32;

/// Run length that triggers prefetching.
pub const E10_RA_TRIGGER: u64 = 2;

/// Block size of the E10 scan device.
pub const E10_BLOCK_SIZE: usize = 4096;

/// Cold sequential scan of `blocks` blocks through a block cache over a
/// device that pays [`E10_READ_DELAY`] per read. With `engine_on`, an
/// 8-worker engine prefetches at ReadAhead priority via the cache's
/// sequential-run detector; otherwise every block is a synchronous miss.
/// Returns the elapsed scan time and the cache counters.
pub fn e10_cold_scan(blocks: u64, engine_on: bool) -> (Duration, hfad_storage::CacheStats) {
    let device: Arc<dyn hfad_storage::BlockDevice> =
        Arc::new(hfad_storage::FaultDevice::read_delay(
            MemDevice::new(blocks, E10_BLOCK_SIZE),
            E10_READ_DELAY,
        ));
    let cache = Arc::new(hfad_storage::CachedDevice::new(
        Arc::clone(&device),
        blocks as usize,
    ));
    let engine = engine_on.then(|| {
        let engine = Engine::with_workers(device, 8);
        EnginePrefetcher::attach(Arc::clone(&engine), &cache, E10_RA_WINDOW, E10_RA_TRIGGER);
        engine
    });
    let mut buf = vec![0u8; E10_BLOCK_SIZE];
    let (_, elapsed) = time(|| {
        for block in 0..blocks {
            cache.read_block(block, &mut buf).unwrap();
        }
    });
    if let Some(engine) = &engine {
        engine.wait_idle();
    }
    (elapsed, cache.cache_stats())
}

/// The E10 document corpus: every document shares the probe term.
fn e10_doc(i: usize) -> String {
    format!("document {i} shared corpus about engines alpha beta gamma item{i}")
}

/// Full-text fixture with `seed_docs` documents pre-indexed so queries
/// during ingest have hits from the start.
fn e10_fulltext(seed_docs: usize) -> Arc<FullTextIndex> {
    let index = standalone_fulltext(MemDevice::new(65536, 512), 4);
    for i in 0..seed_docs {
        index
            .index_document(hfad_osd::ObjectId(i as u64), &e10_doc(i))
            .unwrap();
    }
    index
}

/// Ingests `docs` documents while a foreground thread queries the index
/// continuously. Eager mode indexes inline on the ingest path; engine
/// mode enqueues through a [`hfad_index::LazyIndexer`] riding the
/// engine's Index class ([`Engine::executor`]). Returns
/// `(ingest elapsed, queries served, mean query latency, drain time)` —
/// drain is how long the background backlog took to finish after the
/// ingest loop returned (zero for eager).
pub fn e10_query_during_ingest(
    docs: usize,
    engine_on: bool,
) -> (Duration, u64, Duration, Duration) {
    let seed_docs = docs / 4;
    let index = e10_fulltext(seed_docs);
    let engine = engine_on.then(|| Engine::new(Arc::new(MemDevice::new(64, 512))));
    let indexer = engine.as_ref().map(|e| {
        hfad_index::LazyIndexer::with_executor(Arc::clone(&index), e.executor(Priority::Index))
    });

    let stop = Arc::new(AtomicBool::new(false));
    let query_thread = {
        let stop = Arc::clone(&stop);
        let index = Arc::clone(&index);
        std::thread::spawn(move || {
            let mut served = 0u64;
            let start = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                index.lookup_term("shared").unwrap();
                served += 1;
            }
            (served, start.elapsed())
        })
    };

    let (_, ingest_elapsed) = time(|| {
        for i in 0..docs {
            let oid = hfad_osd::ObjectId((seed_docs + i) as u64);
            let text = e10_doc(seed_docs + i);
            match &indexer {
                Some(lazy) => lazy.enqueue(oid, text).unwrap(),
                None => {
                    index.index_document(oid, &text).unwrap();
                }
            }
        }
    });
    let (_, drain) = time(|| {
        if let Some(lazy) = &indexer {
            lazy.drain();
        }
    });
    stop.store(true, Ordering::Relaxed);
    let (served, query_window) = query_thread.join().unwrap();
    let mean_query = query_window / served.max(1) as u32;
    (ingest_elapsed, served, mean_query, drain)
}

/// E10: the background-job engine — cold sequential scan throughput with
/// engine read-ahead off/on, and foreground query service while ingest
/// rides the engine's Index class vs eager inline indexing.
pub fn e10_async_engine(scale: Scale) -> Table {
    let blocks = scale.pick(256, 2048) as u64;
    let docs = scale.pick(300, 2_000);

    let mut table = Table::new(
        "E10",
        "Async I/O engine: read-ahead scan throughput; query service during lazy ingest",
        "the paper's background work (lazy indexing §3.4, write-back, prefetch) belongs on one \
         prioritised submission/completion engine: read-ahead overlaps a cold scan's device \
         reads, and lazy indexing rides a bounded background class without stalling queries",
        &["workload", "engine", "elapsed ms", "rate", "detail"],
    );

    let (off_elapsed, off_stats) = e10_cold_scan(blocks, false);
    let (on_elapsed, on_stats) = e10_cold_scan(blocks, true);
    let scan_mb = (blocks as f64 * E10_BLOCK_SIZE as f64) / (1024.0 * 1024.0);
    for (label, elapsed, stats) in [
        ("off", off_elapsed, &off_stats),
        ("on", on_elapsed, &on_stats),
    ] {
        table.push_row(vec![
            format!("cold seq scan, {blocks} blocks"),
            label.to_string(),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
            format!("{:.1} MB/s", scan_mb / elapsed.as_secs_f64()),
            format!(
                "misses {}, prefetch hits {}",
                stats.misses, stats.prefetch_hits
            ),
        ]);
    }
    table.push_derived(
        "scan_speedup",
        off_elapsed.as_secs_f64() / on_elapsed.as_secs_f64(),
        "x",
    );

    let mut ingest_rates = [0.0f64; 2];
    for engine_on in [false, true] {
        let (ingest, served, mean_query, drain) = e10_query_during_ingest(docs, engine_on);
        ingest_rates[engine_on as usize] = docs as f64 / ingest.as_secs_f64();
        table.push_row(vec![
            format!("ingest {docs} docs + queries"),
            if engine_on {
                "on (lazy, Index class)".to_string()
            } else {
                "off (eager inline)".to_string()
            },
            format!("{:.2}", ingest.as_secs_f64() * 1e3),
            format!("{:.0} docs/s", docs as f64 / ingest.as_secs_f64()),
            format!(
                "queries served {served} (mean {:.0} µs), drain {:.1} ms",
                mean_query.as_secs_f64() * 1e6,
                drain.as_secs_f64() * 1e3
            ),
        ]);
    }
    table.push_derived(
        "ingest_call_speedup",
        ingest_rates[1] / ingest_rates[0],
        "x",
    );
    table
}

// ---------------------------------------------------------------------
// E11 — circular journal + background checkpointing: steady-state writes.
// ---------------------------------------------------------------------

/// Journal region blocks for the E11 fixture. The ring is deliberately
/// small (`E11_JOURNAL_BLOCKS - 2` header blocks, ~120 KiB) so the
/// workload laps it several times and checkpointing is on the critical
/// path, not a rare event.
pub const E11_JOURNAL_BLOCKS: u64 = 32;

/// Bytes written per E11 commit.
pub const E11_PAYLOAD: usize = 512;

/// Outcome of one [`e11_sustained_run`].
pub struct E11Run {
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Commits/s in each of the run's equal time windows.
    pub window_rates: Vec<f64>,
    /// Checkpoint and commit-stall counters after the run.
    pub checkpoint: hfad_osd::CheckpointStats,
    /// How many times the workload lapped the ring (total journalled
    /// bytes over ring capacity).
    pub ring_laps: f64,
    /// Commit errors surfaced to committers. The steady-state contract
    /// is that this is zero: a full ring means backpressure or an inline
    /// checkpoint, never a caller-visible `JournalFull`.
    pub errors: u64,
}

/// Drives `threads` committers for `per_thread` commits each over an
/// [`E11_JOURNAL_BLOCKS`]-block circular journal on a device paying
/// [`E8_FLUSH_DELAY`] per flush.
///
/// With `watermark_pct` `Some`, a background
/// [`Checkpointer`](hfad_osd::Checkpointer) reclaims the ring off the
/// commit path; with `None`, the ring fills and the unlucky committer
/// runs the stop-the-world inline checkpoint — the seed's behaviour and
/// E11's baseline. Commit completion times are bucketed into `windows`
/// equal slices so the table shows throughput *over time*, where the
/// baseline's periodic stalls are visible.
pub fn e11_sustained_run(
    threads: usize,
    per_thread: usize,
    watermark_pct: Option<u8>,
    windows: usize,
) -> E11Run {
    let device = Arc::new(hfad_storage::FaultDevice::flush_delay(
        MemDevice::with_capacity(64 * 1024 * 1024),
        E8_FLUSH_DELAY,
    ));
    let store = Arc::new(
        ObjectStore::create(
            device,
            StoreConfig {
                journal_blocks: E11_JOURNAL_BLOCKS,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let ts = Arc::new(hfad_osd::TxnStore::new(store).unwrap());
    let checkpointer = watermark_pct.map(|pct| {
        hfad_osd::Checkpointer::start(
            Arc::clone(&ts),
            None,
            hfad_osd::CheckpointConfig {
                watermark_pct: pct,
                ..Default::default()
            },
        )
    });
    let oids: Vec<_> = (0..threads)
        .map(|_| ts.store().create_default(0).unwrap())
        .collect();
    let errors = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let ts = Arc::clone(&ts);
            let errors = Arc::clone(&errors);
            let oid = oids[t];
            std::thread::spawn(move || {
                let mut stamps = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let mut txn = ts.begin();
                    txn.write(
                        oid,
                        ((i % 64) * E11_PAYLOAD) as u64,
                        &[t as u8; E11_PAYLOAD],
                    )
                    .unwrap();
                    match txn.commit() {
                        Ok(()) => stamps.push(start.elapsed()),
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                stamps
            })
        })
        .collect();
    let mut stamps: Vec<Duration> = Vec::new();
    for h in handles {
        stamps.extend(h.join().unwrap());
    }
    let elapsed = start.elapsed();
    drop(checkpointer);
    let window = elapsed.as_secs_f64() / windows as f64;
    let mut counts = vec![0u64; windows];
    for s in &stamps {
        let idx = (s.as_secs_f64() / window) as usize;
        counts[idx.min(windows - 1)] += 1;
    }
    let journal = ts.journal();
    E11Run {
        elapsed,
        window_rates: counts.iter().map(|&c| c as f64 / window).collect(),
        checkpoint: ts.checkpoint_stats(),
        ring_laps: journal.mark().head as f64 / journal.capacity_bytes() as f64,
        errors: errors.load(Ordering::Relaxed),
    }
}

/// E11: steady-state sustained writes over the circular journal — commit
/// throughput over time plus the commit-stall histogram, stop-the-world
/// inline checkpointing (the seed baseline) vs watermark-driven
/// background checkpointing.
pub fn e11_steady_state(scale: Scale) -> Table {
    let threads = 4usize;
    let per_thread = scale.pick(128, 512);
    let windows = 8usize;

    let mut table = Table::new(
        "E11",
        "Steady-state writes: commits/s over time + stall histogram, inline vs watermark checkpointing",
        "a continuously operated transactional OSD (§3.3) cannot stop the world to reclaim its \
         log: with a circular journal and watermark checkpointing, reclaim runs off the commit \
         path and a full ring is brief backpressure instead of a foreground flush stall",
        &["mode", "window", "commits/s", "stalls", "max stall µs"],
    );

    let mut max_stall_ns = [0u64; 2];
    let mut total_rates = [0.0f64; 2];
    for (mode, (label, watermark)) in [("inline-checkpoint", None), ("watermark(50)", Some(50u8))]
        .into_iter()
        .enumerate()
    {
        let run = e11_sustained_run(threads, per_thread, watermark, windows);
        assert_eq!(run.errors, 0, "{label}: a commit surfaced JournalFull");
        assert!(
            run.ring_laps >= 2.0,
            "{label}: workload must lap the ring at least twice (got {:.1})",
            run.ring_laps
        );
        for (w, rate) in run.window_rates.iter().enumerate() {
            table.push_row(vec![
                label.to_string(),
                format!("w{w}"),
                format!("{rate:.0}"),
                String::new(),
                String::new(),
            ]);
        }
        let cp = run.checkpoint;
        table.push_row(vec![
            label.to_string(),
            "total".to_string(),
            ops_per_sec((threads * per_thread) as u64, run.elapsed),
            format!(
                "{} (ckpts {}, {} inline, hist {:?})",
                cp.commit_stalls, cp.checkpoints_completed, cp.auto_checkpoints, cp.stall_histogram
            ),
            format!("{:.0}", cp.max_commit_stall_ns as f64 / 1e3),
        ]);
        max_stall_ns[mode] = cp.max_commit_stall_ns;
        total_rates[mode] = (threads * per_thread) as f64 / run.elapsed.as_secs_f64();
    }
    table.push_derived(
        "watermark_max_stall_vs_inline",
        max_stall_ns[1] as f64 / max_stall_ns[0].max(1) as f64,
        "x",
    );
    table.push_derived(
        "steady_state_throughput_ratio",
        total_rates[1] / total_rates[0],
        "x",
    );
    table
}

// ---------------------------------------------------------------------
// E12 — crash-safe file-backed persistence: commit cost and recovery.
// ---------------------------------------------------------------------

/// Bytes written per E12 commit.
pub const E12_PAYLOAD: usize = 512;

/// Store file capacity for the E12 fixtures.
pub const E12_CAPACITY: u64 = 16 * 1024 * 1024;

/// A scratch store path under the system temp dir, cleared of any stale
/// store file and lock directory from a previous run.
pub fn e12_scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hfad-e12-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join(name);
    std::fs::remove_file(&store).ok();
    let mut lck = store.file_name().unwrap().to_os_string();
    lck.push(".lck");
    std::fs::remove_dir_all(store.with_file_name(lck)).ok();
    store
}

/// Simulates `kill -9` on a file-backed writer: the store is leaked (no
/// final checkpoint, no cache writeback) and its lockfiles are swept the
/// way the next opener's dead-holder healing would.
pub fn e12_crash(ts: Arc<hfad_osd::TxnStore>, path: &std::path::Path) {
    std::mem::forget(ts);
    let mut lck = path.file_name().unwrap().to_os_string();
    lck.push(".lck");
    std::fs::remove_dir_all(path.with_file_name(lck)).unwrap();
}

/// Commits `n` small transactions (one [`E12_PAYLOAD`]-byte write each,
/// over a 64-slot rotating window) and returns the elapsed time.
pub fn e12_commit_burst(
    ts: &Arc<hfad_osd::TxnStore>,
    oid: hfad_osd::ObjectId,
    n: usize,
) -> Duration {
    let payload = vec![0xE1u8; E12_PAYLOAD];
    let (_, elapsed) = time(|| {
        for i in 0..n {
            let mut txn = ts.begin();
            txn.write(oid, ((i % 64) * E12_PAYLOAD) as u64, &payload)
                .unwrap();
            txn.commit().unwrap();
        }
    });
    elapsed
}

/// Builds a file-backed store with one transactionally created (hence
/// durable) object, returning the handle, the path and the oid.
pub fn e12_file_store(
    name: &str,
) -> (
    Arc<hfad_osd::TxnStore>,
    std::path::PathBuf,
    hfad_osd::ObjectId,
) {
    let path = e12_scratch(name);
    let ts = hfad_osd::create_file(
        &path,
        E12_CAPACITY,
        StoreConfig::default(),
        hfad_storage::GroupCommitConfig::default(),
    )
    .unwrap();
    let mut txn = ts.begin();
    let oid = txn
        .create(ObjectMeta::new(0, 0, 0o644, unix_now()))
        .unwrap();
    txn.commit().unwrap();
    ts.checkpoint().unwrap();
    (ts, path, oid)
}

/// One E12 recovery measurement: commit `fill` transactions past the
/// last checkpoint, crash, and time the reopen. Returns `(replayed
/// operations, recovery elapsed)`.
pub fn e12_recovery_run(fill: usize) -> (u64, Duration) {
    let (ts, path, oid) = e12_file_store(&format!("recovery-{fill}.hfad"));
    e12_commit_burst(&ts, oid, fill);
    e12_crash(ts, &path);
    let ((ts, replayed), elapsed) = time(|| {
        hfad_osd::open_file(
            &path,
            StoreConfig::default(),
            hfad_storage::GroupCommitConfig::default(),
        )
        .unwrap()
    });
    drop(ts);
    std::fs::remove_file(&path).ok();
    (replayed, elapsed)
}

/// E12: the crash-safe file-backed mode — the commit-path cost of real
/// durability (journal fsync + doublewrite checkpoints) against the
/// in-memory engine, and recovery time as a function of how much
/// journal the crash left unreplayed.
pub fn e12_persistence(scale: Scale) -> Table {
    let burst = scale.pick(300, 2_000);
    let fills: &[usize] = match scale {
        Scale::Quick => &[32, 128],
        Scale::Full => &[64, 256, 1024],
    };

    let mut table = Table::new(
        "E12",
        "File-backed persistence: commit cost vs in-memory; recovery time vs journal fill",
        "the transactional OSD (§3.3) only means something if it survives real process \
         death: commits pay one fsync'd journal append, checkpoints stage home pages \
         through a doublewrite region, and reopen replays only the checkpoint-floored \
         journal suffix",
        &["metric", "setting", "value", "detail"],
    );

    // Commit throughput: the same burst on an in-memory journaled store
    // (flush is a no-op) and on the file-backed store (real fsync per
    // group-commit flush, doublewrite checkpoints when the ring fills).
    let device = Arc::new(MemDevice::with_capacity(E12_CAPACITY));
    let mem_store = Arc::new(
        ObjectStore::create(
            device,
            StoreConfig {
                journal_blocks: hfad_osd::DEFAULT_PERSIST_JOURNAL_BLOCKS,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let mem_ts = Arc::new(
        hfad_osd::TxnStore::with_config(
            Arc::clone(&mem_store),
            hfad_storage::GroupCommitConfig::default(),
        )
        .unwrap(),
    );
    let mem_oid = mem_store.create_default(0).unwrap();
    let mem_elapsed = e12_commit_burst(&mem_ts, mem_oid, burst);
    table.push_row(vec![
        "commit burst".into(),
        "in-memory".into(),
        format!("{} commits/s", ops_per_sec(burst as u64, mem_elapsed)),
        "journal appends, no-op flush".into(),
    ]);

    let (file_ts, file_path, file_oid) = e12_file_store("throughput.hfad");
    let file_elapsed = e12_commit_burst(&file_ts, file_oid, burst);
    table.push_row(vec![
        "commit burst".into(),
        "file-backed".into(),
        format!("{} commits/s", ops_per_sec(burst as u64, file_elapsed)),
        "fsync per group-commit flush".into(),
    ]);
    drop(file_ts);
    std::fs::remove_file(&file_path).ok();
    table.push_derived(
        "file_backed_commit_cost",
        file_elapsed.as_secs_f64() / mem_elapsed.as_secs_f64(),
        "x",
    );

    // Recovery time vs journal fill: everything past the checkpoint
    // floor replays on reopen.
    let mut last_rate = 0.0;
    for &fill in fills {
        let (replayed, elapsed) = e12_recovery_run(fill);
        last_rate = replayed as f64 / elapsed.as_secs_f64().max(1e-9);
        table.push_row(vec![
            "recovery".into(),
            format!("{fill} unreplayed txns"),
            format!("{:.2} ms", elapsed.as_secs_f64() * 1e3),
            format!("{replayed} ops replayed"),
        ]);
    }
    table.push_derived("replay_ops_per_sec_largest_fill", last_rate, "ops/s");

    // A clean close checkpoints on drop, so reopen replays nothing —
    // recovery work is a function of crash timing, not store size.
    let (ts, path, oid) = e12_file_store("clean.hfad");
    e12_commit_burst(&ts, oid, fills[0]);
    drop(ts);
    let ((ts, replayed), elapsed) = time(|| {
        hfad_osd::open_file(
            &path,
            StoreConfig::default(),
            hfad_storage::GroupCommitConfig::default(),
        )
        .unwrap()
    });
    table.push_row(vec![
        "recovery".into(),
        "clean close".into(),
        format!("{:.2} ms", elapsed.as_secs_f64() * 1e3),
        format!("{replayed} ops replayed"),
    ]);
    drop(ts);
    std::fs::remove_file(&path).ok();
    table
}

/// Runs every experiment at the given scale, in declaration order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    vec![
        t1_tag_classes(scale),
        f1_layering(scale),
        e1_traversals(scale),
        e2_concurrency(scale),
        e3_insert_truncate(scale),
        e4_fulltext(scale),
        e5_posix_compat(scale),
        e6_ablation(scale),
        e7_multinaming(scale),
        e8_group_commit(scale),
        e9_cache_contention(scale),
        e10_async_engine(scale),
        e11_steady_state(scale),
        e12_persistence(scale),
    ]
}

/// Looks an experiment up by id (`t1`, `f1`, `e1` … `e11`).
pub fn run_one(id: &str, scale: Scale) -> Option<Table> {
    match id.to_ascii_lowercase().as_str() {
        "t1" => Some(t1_tag_classes(scale)),
        "f1" => Some(f1_layering(scale)),
        "e1" => Some(e1_traversals(scale)),
        "e2" => Some(e2_concurrency(scale)),
        "e3" => Some(e3_insert_truncate(scale)),
        "e4" => Some(e4_fulltext(scale)),
        "e5" => Some(e5_posix_compat(scale)),
        "e6" => Some(e6_ablation(scale)),
        "e7" => Some(e7_multinaming(scale)),
        "e8" => Some(e8_group_commit(scale)),
        "e9" => Some(e9_cache_contention(scale)),
        "e10" => Some(e10_async_engine(scale)),
        "e11" => Some(e11_steady_state(scale)),
        "e12" => Some(e12_persistence(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs all fourteen experiments end to end at quick scale (~30 s): the
    /// full-coverage smoke test for the experiment table. Too slow for the
    /// default test run, so it is gated behind `--ignored`; run it with
    /// `cargo test -p hfad_bench -- --ignored` (CI runs the cheap
    /// single-experiment tests below on every push instead).
    #[test]
    #[ignore = "runs every experiment at quick scale (~30 s); use cargo test -- --ignored"]
    fn every_experiment_id_resolves() {
        for id in [
            "t1", "f1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
        ] {
            assert!(run_one(id, Scale::Quick).is_some() || id.is_empty());
        }
        assert!(run_one("e99", Scale::Quick).is_none());
    }

    /// The tentpole claim of the group-commit PR: with four or more
    /// concurrent committers on a device with real flush latency, batched
    /// commits must deliver at least twice the sync-per-commit
    /// throughput, because one flush is amortised across the batch.
    ///
    /// Wall-clock sensitive, so it only runs in release builds (CI's
    /// release test step); under debug + `--ignored` it is skipped.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive; run with cargo test --release -p hfad_bench"
    )]
    fn e8_batched_at_least_doubles_unbatched_at_four_committers() {
        let threads = 4usize;
        let per_thread = 30usize;
        let unbatched = e8_txn_store(hfad_storage::GroupCommitConfig::unbatched());
        let unbatched_elapsed = e8_commit_storm(&unbatched, threads, per_thread);
        let batched = e8_txn_store(hfad_storage::GroupCommitConfig::default());
        let batched_elapsed = e8_commit_storm(&batched, threads, per_thread);
        let speedup = unbatched_elapsed.as_secs_f64() / batched_elapsed.as_secs_f64();
        assert!(
            speedup >= 2.0,
            "group commit speedup at {threads} committers was only {speedup:.2}x \
             (unbatched {unbatched_elapsed:?}, batched {batched_elapsed:?})"
        );
        // And it must flush strictly less often for the same commits.
        let u = unbatched.group_commit_stats();
        let b = batched.group_commit_stats();
        assert_eq!(u.commits, b.commits);
        assert!(b.flushes < u.flushes);
    }

    /// The tentpole claim of the circular-journal PR: under sustained
    /// commit traffic that laps the ring, watermark background
    /// checkpointing must cut the worst foreground commit stall to at
    /// most a fifth of the stop-the-world inline baseline (the issue's
    /// p99 ≤ 20% acceptance bound, asserted on the max, which bounds
    /// p99 from above) — or eliminate stalls entirely.
    ///
    /// Wall-clock sensitive, so it only runs in release builds (CI's
    /// release test step); under debug + `--ignored` it is skipped.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive; run with cargo test --release -p hfad_bench"
    )]
    fn e11_watermark_checkpointing_cuts_max_commit_stall_fivefold() {
        let threads = 4usize;
        let per_thread = 128usize;
        let base = e11_sustained_run(threads, per_thread, None, 4);
        let wm = e11_sustained_run(threads, per_thread, Some(50), 4);
        // The steady-state contract first: the workload lapped the ring
        // and not one commit surfaced JournalFull in either mode.
        assert_eq!(base.errors, 0, "inline mode surfaced commit errors");
        assert_eq!(wm.errors, 0, "watermark mode surfaced commit errors");
        assert!(base.ring_laps >= 2.0 && wm.ring_laps >= 2.0);
        assert!(
            base.checkpoint.auto_checkpoints >= 1,
            "the baseline must have checkpointed inline"
        );
        assert!(
            wm.checkpoint.checkpoints_completed >= 1,
            "the watermark run must have checkpointed in the background"
        );
        let base_max = base.checkpoint.max_commit_stall_ns;
        let wm_max = wm.checkpoint.max_commit_stall_ns;
        assert!(
            wm_max == 0 || wm_max * 5 <= base_max,
            "watermark max stall {wm_max} ns vs inline {base_max} ns \
             (histograms: wm {:?}, inline {:?})",
            wm.checkpoint.stall_histogram,
            base.checkpoint.stall_histogram
        );
    }

    #[test]
    fn unknown_experiment_id_rejected() {
        assert!(run_one("e99", Scale::Quick).is_none());
        assert!(run_one("", Scale::Quick).is_none());
    }

    /// The tentpole claim of the two-tier cache PR: with four or more
    /// concurrent readers on a fully warmed tree, the sharded block cache
    /// plus decoded-node cache must deliver at least twice the descent
    /// throughput of the seed configuration (one global cache lock, a
    /// decode per node read).
    ///
    /// Wall-clock sensitive, so it only runs in release builds (CI's
    /// release test step); under debug + `--ignored` it is skipped.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive; run with cargo test --release -p hfad_bench"
    )]
    fn e9_two_tier_cache_at_least_doubles_seed_throughput() {
        let entries = 2_000usize;
        let threads = 4usize;
        let per_thread = 6_000usize;
        let (seed_tree, _) = e9_tree(1, 0, entries);
        let seed_elapsed = e9_descent_storm(&seed_tree, entries, threads, per_thread);
        let (tiered_tree, _) = e9_tree(E9_CACHE_SHARDS, E9_NODE_CACHE_PAGES, entries);
        let tiered_elapsed = e9_descent_storm(&tiered_tree, entries, threads, per_thread);
        let speedup = seed_elapsed.as_secs_f64() / tiered_elapsed.as_secs_f64();
        assert!(
            speedup >= 2.0,
            "two-tier cache speedup at {threads} readers was only {speedup:.2}x \
             (seed {seed_elapsed:?}, tiered {tiered_elapsed:?})"
        );
        // And the warm storms must have been served entirely in memory.
        assert_eq!(seed_tree.stats().node_cache_hits, 0);
        let tiered = tiered_tree.stats();
        assert_eq!(tiered.node_cache_hits, tiered.nodes_read);
    }

    /// The E9 ablation's accounting invariant: the cache configurations
    /// must agree on what happened. Identical operation sequences produce
    /// identical `CacheStats` hit/miss/eviction totals at 1 and N block
    /// cache shards, and identical `TreeStats::nodes_read` with the node
    /// cache off and on (the node cache changes *where* a read is served,
    /// never how many logical reads happen).
    #[test]
    fn e9_stats_account_identically_across_configurations() {
        let entries = 500usize;
        let mut block_stats = Vec::new();
        let mut tree_reads = Vec::new();
        for (cache_shards, node_cache_pages) in
            [(1, 0), (E9_CACHE_SHARDS, 0), (1, E9_NODE_CACHE_PAGES)]
        {
            let (tree, device) = e9_tree(cache_shards, node_cache_pages, entries);
            for i in 0..entries {
                tree.get(&e9_key(i)).unwrap().expect("present");
                tree.get(&e9_key((i * 31) % entries)).unwrap();
            }
            let cache = device.cache_stats();
            assert_eq!(cache.evictions, 0, "fixture must fit in cache");
            block_stats.push((cache_shards, node_cache_pages, cache));
            tree_reads.push(tree.stats().nodes_read);
        }
        // Same node-cache setting, different shard counts: identical
        // block-cache accounting.
        assert_eq!(
            (block_stats[0].2.hits, block_stats[0].2.misses),
            (block_stats[1].2.hits, block_stats[1].2.misses),
            "1-shard and {E9_CACHE_SHARDS}-shard caches must account identically"
        );
        // Node cache on or off: identical logical traversal counts.
        assert_eq!(
            tree_reads[0], tree_reads[2],
            "node cache must not change nodes_read accounting"
        );
    }

    #[test]
    fn e6_reports_store_shard_ablation() {
        let table = e6_ablation(Scale::Quick);
        let shard_rows: Vec<_> = table
            .rows
            .iter()
            .filter(|r| r[0] == "store shards")
            .collect();
        // 1 (the global-lock baseline), 4 and 16 shards must all be
        // measured so the sharded-vs-global comparison is in the table.
        let settings: Vec<&str> = shard_rows.iter().map(|r| r[1].as_str()).collect();
        assert_eq!(settings, vec!["1", "4", "16"]);
    }

    #[test]
    fn t1_covers_all_table_1_uses() {
        let table = t1_tag_classes(Scale::Quick);
        let uses: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        for expected in ["POSIX", "Search", "Manual", "Applications", "FastPath"] {
            assert!(uses.contains(&expected), "missing {expected}");
        }
        // Every lookup must have found at least one object.
        for row in &table.rows {
            assert!(row[3].parse::<u64>().unwrap() >= 1, "{row:?}");
        }
    }

    #[test]
    fn e3_hfad_insert_beats_rewrite_on_largest_size() {
        let table = e3_insert_truncate(Scale::Quick);
        // Find the largest size's insert rows.
        let hfad: f64 = table
            .rows
            .iter()
            .rfind(|r| r[1].starts_with("insert") && r[2] == "hfad")
            .unwrap()[3]
            .parse()
            .unwrap();
        let hier: f64 = table
            .rows
            .iter()
            .rfind(|r| r[1].starts_with("insert") && r[2].starts_with("hierfs"))
            .unwrap()[3]
            .parse()
            .unwrap();
        assert!(
            hfad < hier,
            "extent splice ({hfad} µs) should beat rewrite ({hier} µs)"
        );
    }

    /// The tentpole claim of the async-engine PR: on a cold sequential
    /// scan over a device with per-read latency, engine read-ahead must
    /// deliver at least 1.5x the engine-off throughput, because prefetch
    /// workers overlap the reads the synchronous path serialises.
    ///
    /// Wall-clock sensitive, so it only runs in release builds (CI's
    /// release test step); under debug + `--ignored` it is skipped.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive; run with cargo test --release -p hfad_bench"
    )]
    fn e10_readahead_at_least_1_5x_on_cold_sequential_scan() {
        let blocks = 256u64;
        let (off_elapsed, _) = e10_cold_scan(blocks, false);
        let (on_elapsed, on_stats) = e10_cold_scan(blocks, true);
        let speedup = off_elapsed.as_secs_f64() / on_elapsed.as_secs_f64();
        assert!(
            speedup >= 1.5,
            "read-ahead scan speedup was only {speedup:.2}x \
             (off {off_elapsed:?}, on {on_elapsed:?})"
        );
        // The win must come from prefetching, not noise: most of the scan
        // was served from frames the engine populated.
        assert!(
            on_stats.prefetch_hits > blocks / 2,
            "only {} of {blocks} reads hit prefetched frames",
            on_stats.prefetch_hits
        );
    }

    /// E10's accounting invariant (cheap enough for debug CI): with the
    /// engine on, every scanned block is served exactly once — as a
    /// foreground miss or a cache hit — and prefetch hits are a subset of
    /// hits backed by frames the engine populated.
    #[test]
    fn e10_scan_accounting_is_closed() {
        let blocks = 64u64;
        let (_, stats) = e10_cold_scan(blocks, true);
        assert_eq!(stats.hits + stats.misses, blocks, "{stats:?}");
        assert!(stats.prefetch_hits <= stats.hits, "{stats:?}");
        assert!(stats.prefetch_hits <= stats.prefetched, "{stats:?}");
        // The run detector must have fired on a pure sequential scan.
        assert!(stats.prefetched > 0, "{stats:?}");
    }

    /// E10's ingest modes must agree on the final index contents: lazy
    /// indexing on the engine's Index class is a scheduling change, not a
    /// semantic one.
    #[test]
    fn e10_lazy_and_eager_ingest_converge() {
        let docs = 60usize;
        for engine_on in [false, true] {
            let (_, _, _, _) = e10_query_during_ingest(docs, engine_on);
        }
        // Build both ways explicitly and compare postings for the probe term.
        let eager = e10_fulltext(docs);
        let lazy_index = e10_fulltext(0);
        let engine = Engine::new(Arc::new(MemDevice::new(64, 512)));
        let lazy = hfad_index::LazyIndexer::with_executor(
            Arc::clone(&lazy_index),
            engine.executor(Priority::Index),
        );
        for i in 0..docs {
            lazy.enqueue(hfad_osd::ObjectId(i as u64), e10_doc(i))
                .unwrap();
        }
        lazy.drain();
        assert_eq!(
            eager.lookup_term("shared").unwrap().len(),
            lazy_index.lookup_term("shared").unwrap().len()
        );
    }

    #[test]
    fn e1_hfad_uses_fewer_traversals() {
        let table = e1_traversals(Scale::Quick);
        // At the deepest path, the baseline's logical traversals must exceed
        // hFAD's (which is constant at 2).
        let base: f64 = table
            .rows
            .iter()
            .rfind(|r| r[1].starts_with("hierfs"))
            .unwrap()[2]
            .parse()
            .unwrap();
        assert!(base > 2.0, "baseline traversals {base} should exceed 2");
    }
}
