//! The system under test as the benchmark's clients see it: a file-backed
//! `Hfad` with the default configuration, written through its
//! transactional store.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfad_core::{Hfad, HfadConfig, ObjectId, ObjectMeta};
use hfad_osd::TxnStore;
use hfad_storage::DeviceCounters;

use crate::corpus::{Doc, Photo};
use crate::trace::Tracer;
use crate::Res;

/// Backing-file size of every store the benchmark creates.
pub const CAPACITY_BYTES: u64 = 1 << 30;

/// Largest payload of one transaction. The default journal ring is 1 MiB;
/// 64 KiB per commit leaves the checkpointer room to keep up.
pub const TXN_BYTES: usize = 64 * 1024;

pub struct Store {
    pub fs: Hfad,
    ts: Arc<TxnStore>,
    path: PathBuf,
}

/// The configuration under test: the default, taken whole. No field is
/// named, so a change that removes a knob still compiles the benchmark.
fn config() -> HfadConfig {
    HfadConfig::default()
}

fn meta() -> ObjectMeta {
    ObjectMeta::new(1000, 1000, 0o644, hfad_osd::unix_now())
}

impl Store {
    pub fn create(path: &Path) -> Res<Store> {
        remove_files(path);
        let fs = Hfad::create_file(path, CAPACITY_BYTES, config())?;
        let ts = fs.txn_store()?;
        Ok(Store {
            fs,
            ts,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing store, running recovery; returns the number of
    /// journal operations replayed (0 after a clean close).
    pub fn open(path: &Path) -> Res<(Store, u64)> {
        let (fs, replayed) = Hfad::open_file(path, config())?;
        let ts = fs.txn_store()?;
        let store = Store {
            fs,
            ts,
            path: path.to_path_buf(),
        };
        Ok((store, replayed))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Clean close: the last transactional handle runs the final
    /// checkpoint as it drops, so it must go before the instance.
    pub fn close(self) -> Duration {
        let start = Instant::now();
        let Store { fs, ts, .. } = self;
        drop(ts);
        drop(fs);
        start.elapsed()
    }

    /// Operation counts of the raw device beneath the block cache.
    pub fn device_counters(&self) -> DeviceCounters {
        self.fs
            .store()
            .block_cache()
            .expect("a file-backed store runs over the block cache")
            .inner()
            .counters()
    }

    /// Runs one explicit checkpoint and returns how long it took.
    pub fn checkpoint(&self) -> Res<Duration> {
        let start = Instant::now();
        self.ts.checkpoint()?;
        Ok(start.elapsed())
    }

    /// Ingests one document: an fsync-acknowledged transaction that
    /// creates the object and writes its bytes, then its names, then its
    /// text to the full-text index.
    pub fn ingest(
        &self,
        doc: &Doc,
        content: &[u8],
        tracer: &mut Tracer,
        op: Option<u64>,
    ) -> Res<ObjectId> {
        const PARENT: Option<&str> = Some("api.ingest");
        let start = Instant::now();
        let (txn, oid) = tracer.span(op, "osd.txn_build", PARENT, || -> Res<_> {
            let mut txn = self.ts.begin();
            let oid = txn.create(meta())?;
            txn.write(oid, 0, content)?;
            Ok((txn, oid))
        })?;
        tracer.span(op, "osd.txn_commit", PARENT, || txn.commit())?;
        tracer.span(op, "core.add_tags", PARENT, || {
            self.fs.add_tags(oid, &doc.tags)
        })?;
        tracer.span(op, "core.index_content", PARENT, || {
            self.fs.index_content(oid, doc.text.as_bytes())
        })?;
        if let Some(op) = op {
            tracer.record(op, "api.ingest", None, start, Instant::now());
        }
        Ok(oid)
    }

    /// Retires an object: its names and postings, then its storage.
    pub fn retire(&self, oid: ObjectId, tracer: &mut Tracer, op: Option<u64>) -> Res<()> {
        tracer.span(op, "core.delete", None, || self.fs.delete(oid))?;
        Ok(())
    }

    /// Commits one document's bytes only: what the crash phase
    /// acknowledges and later looks for.
    pub fn commit_bytes(&self, content: &[u8]) -> Res<ObjectId> {
        let mut txn = self.ts.begin();
        let oid = txn.create(meta())?;
        txn.write(oid, 0, content)?;
        txn.commit()?;
        Ok(oid)
    }

    /// Stores one photo object in transactions of at most [`TXN_BYTES`].
    pub fn put_photo(&self, photo: &Photo, buf: &mut Vec<u8>) -> Res<ObjectId> {
        let mut oid = None;
        let mut offset = 0usize;
        while offset < photo.size {
            let len = TXN_BYTES.min(photo.size - offset);
            buf.resize(len, 0);
            photo.fill(offset as u64, buf);
            let mut txn = self.ts.begin();
            let target = match oid {
                Some(oid) => oid,
                None => *oid.insert(txn.create(meta())?),
            };
            txn.write(target, offset as u64, buf)?;
            txn.commit()?;
            offset += len;
        }
        oid.ok_or_else(|| "a photo has at least one byte".into())
    }

    /// Bytes the store file occupies on disk (`st_blocks` × 512).
    pub fn disk_bytes(path: &Path) -> Res<u64> {
        use std::os::unix::fs::MetadataExt;
        Ok(std::fs::metadata(path)?.blocks() * 512)
    }
}

/// Removes a store file and its lock directory, if present.
pub fn remove_files(path: &Path) {
    let _ = std::fs::remove_file(path);
    if let Some(name) = path.file_name() {
        let mut lock = name.to_os_string();
        lock.push(".lck");
        let _ = std::fs::remove_dir_all(path.with_file_name(lock));
    }
}
