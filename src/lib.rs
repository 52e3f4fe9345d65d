//! # hfad
//!
//! Umbrella crate for the hFAD reproduction ("Hierarchical File Systems Are
//! Dead", Seltzer & Murphy, HotOS 2009). It re-exports every workspace
//! crate under one name so examples, integration tests and downstream users
//! can depend on a single package:
//!
//! * [`core`] — the hFAD file system (tagged, search-based namespace).
//! * [`posix`] — the POSIX compatibility veneer.
//! * [`osd`] — the object-based storage device layer.
//! * [`index`] — the extensible index stores.
//! * [`btree`] — the B+tree substrate.
//! * [`storage`] — devices, allocators, extents, journal.
//! * [`engine`] — the background-job engine (priority job scheduler,
//!   read-ahead, checkpoint and lazy-index services).
//! * [`hierfs`] — the hierarchical baseline used in experiments.
//! * [`workload`] — synthetic corpora and distributions.

pub use hfad_btree as btree;
pub use hfad_core as core;
pub use hfad_engine as engine;
pub use hfad_hierfs as hierfs;
pub use hfad_index as index;
pub use hfad_osd as osd;
pub use hfad_posix as posix;
pub use hfad_storage as storage;
pub use hfad_workload as workload;

pub use hfad_core::{Hfad, HfadConfig, HfadError, ObjectId, Query, Tag, TagValue};
pub use hfad_osd::{ObjectStore, StoreConfig, StoreStats};
