//! # hfad-index
//!
//! The extensible index stores of the hFAD reproduction ("Hierarchical File
//! Systems Are Dead", Seltzer & Murphy, HotOS 2009, §3.2).
//!
//! hFAD replaces the hierarchical namespace with indices mapping tag/value
//! pairs to object ids:
//!
//! * [`tag`] — the tag vocabulary of Table 1 (`POSIX`, `FULLTEXT`, `USER`,
//!   `UDEF`, `APP`, `ID`) plus custom plug-in tags.
//! * [`store`] — the [`store::IndexStore`] trait and the
//!   [`store::IndexRegistry`] that routes tags to stores.
//! * [`keyvalue`] — a sharded, B-tree backed key/value index for simple
//!   attributes.
//! * [`fulltext`] — an inverted full-text index (the Lucene role in the
//!   paper) with a simple tokenizer and conjunctive queries.
//! * [`query`] — conjunctive queries (the paper's semantics) plus the
//!   boolean-query extension from §4.
//! * [`lazy`] — background lazy indexing on a shared executor (§3.4).

pub mod error;
pub mod fulltext;
pub mod keyvalue;
pub mod lazy;
pub mod query;
pub mod store;
pub mod tag;

pub use error::{IndexError, Result};
pub use fulltext::{tokenize, unique_terms, FullTextIndex};
pub use keyvalue::{KeyValueIndex, DEFAULT_SHARDS};
pub use lazy::{LazyIndexer, LazyStats};
pub use query::Query;
pub use store::{IndexRegistry, IndexStats, IndexStore};
pub use tag::{Tag, TagValue};
