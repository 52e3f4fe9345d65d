//! # hfad-core
//!
//! The hFAD file system — the primary contribution of "Hierarchical File
//! Systems Are Dead" (Seltzer & Murphy, HotOS 2009): a file system that
//! "eschews a hierarchical namespace, instead using a tagged, search-based
//! namespace".
//!
//! The architecture follows Figure 1 of the paper:
//!
//! ```text
//!        Native API  =  naming interfaces  +  access interfaces
//!             │                                     │
//!     index stores (keyvalue, fulltext, plug-ins)   │
//!             └──────────────┬──────────────────────┘
//!                           OSD (byte-accessible objects)
//!                            │
//!                      stable storage
//! ```
//!
//! * [`fs::Hfad`] — construction, statistics, plug-in registration.
//! * [`naming`] — names are vectors of tag/value pairs; lookups are
//!   conjunctions of index lookups; the `ID` tag is a FastPath.
//! * [`access`] — POSIX-compatible `read`/`write` plus the paper's
//!   `insert` and two-argument `truncate`.
//! * [`refine::SearchCursor`] — the "current directory as iterative search
//!   refinement" extension (open question 2).
//! * [`plugin::AttributeIndex`] — a reference plug-in index store (open
//!   question 1).
//!
//! # Example
//!
//! ```
//! use hfad_core::{Hfad, HfadConfig};
//! use hfad_index::TagValue;
//!
//! let fs = Hfad::in_memory(16 * 1024 * 1024, HfadConfig::default()).unwrap();
//! let photo = fs
//!     .create_with_content(
//!         &[
//!             TagValue::posix("/photos/2009/beach.jpg"),
//!             TagValue::udef("beach"),
//!             TagValue::user("margo"),
//!         ],
//!         b"sand sun surf",
//!     )
//!     .unwrap();
//! // Find it by what it is, not where it lives.
//! assert_eq!(fs.lookup(&[TagValue::udef("beach")]).unwrap(), vec![photo]);
//! // Content is indexed lazily in the background; wait for it.
//! fs.sync_index();
//! assert_eq!(fs.search_text(&["surf"]).unwrap(), vec![photo]);
//! ```

pub mod access;
pub mod config;
pub mod error;
pub mod fs;
pub mod naming;
pub mod plugin;
pub mod refine;

pub use config::{HfadConfig, INDEX_SHARDS};
pub use error::{HfadError, Result};
pub use fs::{Hfad, HfadStats};
pub use plugin::AttributeIndex;
pub use refine::SearchCursor;

// Re-export the vocabulary types callers need to name and address objects,
// so `hfad-core` is usable without importing the substrate crates.
pub use hfad_index::{Query, Tag, TagValue};
pub use hfad_osd::{ObjectId, ObjectMeta, Security, StoreConfig, StoreStats};
pub use hfad_storage::{GroupCommitConfig, GroupCommitStats, Health};
