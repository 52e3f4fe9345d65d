//! Floors for the layers a workload cannot time from outside: each probe
//! drives one crate's public type directly, on a scratch file with the
//! store's geometry (4 KiB blocks, 256-block journal, 4096-block cache).
//! A traced run reports them beside the spans, so a layer's share of an
//! operation can be set against what that layer costs alone.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hfad_btree::{BTree, TreeContext};
use hfad_engine::{Engine, Priority};
use hfad_storage::{
    Allocator, BlockDevice, BuddyAllocator, CachedDevice, FileDevice, GroupCommit,
    GroupCommitConfig, Journal, MemDevice,
};

use rand::Rng;

use crate::rng::{seeded, StdRng};
use crate::stats::{median, Latencies};
use crate::workloads::Values;
use crate::Res;

const BLOCK: usize = 4096;
const PROBE_BLOCKS: u64 = 16 * 1024;
const JOURNAL_BLOCKS: u64 = 256;
const CACHE_BLOCKS: usize = 4096;

/// The probes' stream of the seed.
const PROBE_STREAM: u64 = 0x7072_6f62;

/// Bytes of one probe commit: a document-sized payload.
const COMMIT_BYTES: usize = 2048;

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64 / 1000.0)
}

/// `FileDevice` write + flush: what one durable block costs here.
fn fsync_us(device: &FileDevice, rng: &mut StdRng) -> Res<f64> {
    let block = vec![0x5au8; BLOCK];
    let mut samples = Vec::new();
    for _ in 0..200 {
        let target = rng.gen_range(0..PROBE_BLOCKS);
        let (result, us) = time_us(|| {
            device.write_block(target, &block)?;
            device.flush()
        });
        result?;
        samples.push(us);
    }
    Ok(median(&samples))
}

/// Group commit over a `FileDevice` journal with `committers` threads;
/// median latency of one commit.
fn group_commit_us(device: Arc<FileDevice>, committers: usize) -> Res<f64> {
    let journal = Journal::new(device, 0, JOURNAL_BLOCKS)?;
    journal.reset_full()?;
    let group = GroupCommit::new(journal, GroupCommitConfig::default());
    // All commits of a probe fit the ring, so it needs no checkpointer.
    let per_thread = 240 / committers;
    let latencies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..committers)
            .map(|k| {
                let group = &group;
                scope.spawn(move || -> Res<Latencies> {
                    let mut latencies = Latencies::default();
                    for i in 0..per_thread {
                        let txn = (k * per_thread + i) as u64 + 1;
                        let start = Instant::now();
                        group.commit(txn, vec![vec![0xc3u8; COMMIT_BYTES]])?;
                        latencies.push(start.elapsed().as_nanos() as u64);
                    }
                    Ok(latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("committer panicked"))
            .collect::<Res<Vec<_>>>()
    })?;
    let mut all = Latencies::default();
    for l in latencies {
        all.merge(l);
    }
    Ok(all.sorted().p50_us())
}

/// Block-cache read of a block it does not hold, then of one it does.
fn cache_us(device: Arc<FileDevice>, rng: &mut StdRng) -> Res<(f64, f64)> {
    let cache = CachedDevice::new(device, CACHE_BLOCKS);
    let mut buf = vec![0u8; BLOCK];
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    // Distinct, scattered blocks: no sequential run for read-ahead to
    // find, and fewer than the cache holds.
    let mut blocks: Vec<u64> = (0..PROBE_BLOCKS).step_by(8).collect();
    for i in (1..blocks.len()).rev() {
        blocks.swap(i, rng.gen_range(0..=i));
    }
    for &block in &blocks {
        let (result, us) = time_us(|| cache.read_block(block, &mut buf));
        result?;
        miss.push(us);
    }
    for &block in &blocks {
        let (result, us) = time_us(|| cache.read_block(block, &mut buf));
        result?;
        hit.push(us);
    }
    Ok((median(&hit), median(&miss)))
}

/// `Engine::read` at `Foreground` minus a direct `read_block`: the cost
/// of the submission queue, a worker hand-off and the completion.
fn engine_roundtrip_us(device: Arc<FileDevice>, rng: &mut StdRng) -> Res<f64> {
    let engine = Engine::new(Arc::clone(&device) as Arc<dyn BlockDevice>);
    let mut buf = vec![0u8; BLOCK];
    let (mut direct, mut routed) = (Vec::new(), Vec::new());
    let outcome = (|| -> Res<()> {
        for _ in 0..2000 {
            let block = rng.gen_range(0..PROBE_BLOCKS);
            let (result, us) = time_us(|| device.read_block(block, &mut buf));
            result?;
            direct.push(us);
            let (result, us) = time_us(|| engine.read(Priority::Foreground, block)?.wait_read());
            result?;
            routed.push(us);
        }
        Ok(())
    })();
    engine.shutdown();
    outcome?;
    Ok(median(&routed) - median(&direct))
}

/// A standalone B-tree holding `keys` keys shaped like the key/value
/// index's: median `get` of a present key and `insert` of a fresh one.
fn btree_us(keys: usize, rng: &mut StdRng) -> Res<(f64, f64)> {
    let blocks = (keys as u64 / 16).max(1024);
    let device: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(blocks, BLOCK));
    let allocator: Arc<dyn Allocator> = Arc::new(BuddyAllocator::new(0, blocks));
    let mut tree = BTree::create(TreeContext::new(device, allocator).with_node_cache(1024))?;
    let key = |n: u64| {
        format!(
            "UDEF\u{0}value-{:012x}\u{0}{n:016x}",
            n.wrapping_mul(0x9e37_79b9)
        )
    };
    for n in 0..keys as u64 {
        tree.insert(key(n).as_bytes(), &[])?;
    }
    let mut gets = Vec::new();
    for _ in 0..2000 {
        let probe = key(rng.gen_range(0..keys.max(1) as u64));
        let (found, us) = time_us(|| tree.get(probe.as_bytes()));
        if found?.is_none() {
            return Err("B-tree probe lost a key".into());
        }
        gets.push(us);
    }
    let mut inserts = Vec::new();
    for n in 0..2000u64 {
        let fresh = key(keys as u64 + n);
        let (result, us) = time_us(|| tree.insert(fresh.as_bytes(), &[]));
        result?;
        inserts.push(us);
    }
    Ok((median(&gets), median(&inserts)))
}

/// Runs every probe and records its layer metric. `index_keys` sizes the
/// B-tree probe like one tree of the key/value index the workload built.
pub fn run(scratch: &Path, seed: u64, index_keys: usize, out: &mut Values) -> Res<()> {
    let path = scratch.join("probe");
    let mut rng = seeded(seed, PROBE_STREAM);
    let device = Arc::new(FileDevice::create(&path, PROBE_BLOCKS, BLOCK)?);
    // Materialise the file, so reads are served from written pages as
    // they are in a populated store, not from a hole.
    let block = vec![0xa5u8; BLOCK];
    for b in 0..PROBE_BLOCKS {
        device.write_block(b, &block)?;
    }
    device.flush()?;
    out.insert("storage.fsync_us", fsync_us(&device, &mut rng)?);
    out.insert(
        "storage.group_commit_1_us",
        group_commit_us(Arc::clone(&device), 1)?,
    );
    out.insert(
        "storage.group_commit_2_us",
        group_commit_us(Arc::clone(&device), 2)?,
    );
    let (hit, miss) = cache_us(Arc::clone(&device), &mut rng)?;
    out.insert("storage.cache_hit_us", hit);
    out.insert("storage.cache_miss_us", miss);
    out.insert(
        "engine.roundtrip_us",
        engine_roundtrip_us(Arc::clone(&device), &mut rng)?,
    );
    drop(device);
    std::fs::remove_file(&path)?;
    let (get, insert) = btree_us(index_keys.max(1024), &mut rng)?;
    out.insert("btree.get_us", get);
    out.insert("btree.insert_us", insert);
    Ok(())
}
