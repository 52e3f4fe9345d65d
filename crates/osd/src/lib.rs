//! # hfad-osd
//!
//! The object-based storage device layer of the hFAD reproduction
//! ("Hierarchical File Systems Are Dead", Seltzer & Murphy, HotOS 2009,
//! §3.3–3.4).
//!
//! Objects are uniquely identified, fully byte-accessible containers:
//! besides POSIX-style `read`/`write`, they support `insert` (splice bytes
//! into the middle) and range `truncate` (remove bytes from anywhere).
//! Each object is a B-tree extent map — keys are logical offsets, values
//! are device extents — with the object metadata stored under a reserved
//! "NULL" key, exactly as the paper's §3.4 sketch describes.
//!
//! * [`store::ObjectStore`] — OID allocation, the sharded object table,
//!   per-object locking, create/delete and all data operations.
//! * [`shard`] — the lock-striping primitives behind the store's hot path
//!   ([`ShardedMap`], shard-count resolution and key routing).
//! * [`object::Object`] — the extent-map object itself.
//! * [`meta::ObjectMeta`] — security attributes, times and size.
//! * [`txn::TxnStore`] — the optional transactional wrapper (write-ahead
//!   logged commits over a circular journal), ablated in experiment E6.
//! * [`checkpoint::Checkpointer`] — watermark-driven background journal
//!   reclaim, so sustained write traffic never sees a stop-the-world
//!   checkpoint stall (experiment E11).
//! * [`persist`] — the crash-safe file-backed mode: doublewrite-protected
//!   checkpoints of retain-dirty cache pages, checksummed metadata
//!   ping-pong slots, floored journal replay on reopen, and single-writer
//!   / multi-reader multi-process arbitration.

pub mod checkpoint;
pub mod error;
pub mod meta;
pub mod object;
pub mod oid;
pub mod persist;
pub mod shard;
pub mod store;
pub mod txn;

pub use checkpoint::{CheckpointConfig, Checkpointer};
pub use error::{OsdError, Result};
pub use meta::{unix_now, ObjectMeta, Security};
pub use object::{Object, ObjectStats, DEFAULT_MAX_EXTENT_BYTES};
pub use oid::{ObjectId, OidAllocator, OID_RANGE};
pub use persist::{
    create_file, open_file, open_file_reader, StoreMeta, DEFAULT_PERSIST_JOURNAL_BLOCKS,
};
pub use shard::ShardedMap;
pub use store::{ObjectStore, StoreConfig, StoreStats};
pub use txn::{
    CheckpointStats, Transaction, TxnOp, TxnStore, TxnStoreStats, STALL_BUCKETS,
    STALL_BUCKET_BOUNDS_NS,
};
