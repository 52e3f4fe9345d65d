//! Shared fixtures: populated hFAD / hierarchical / POSIX instances, plus
//! the raw object-store fixture and workload used by the E2/E6 store-shard
//! ablations.

use std::sync::Arc;

use hfad_core::{Hfad, HfadConfig, ObjectId, Tag, TagValue};
use hfad_hierfs::{HierConfig, HierFs, SearchIndex};
use hfad_osd::{ObjectStore, StoreConfig};
use hfad_posix::PosixFs;
use hfad_storage::MemDevice;
use hfad_workload::Item;

/// Default backing-store capacity for experiment instances.
pub const DEFAULT_CAPACITY: u64 = 512 * 1024 * 1024;

/// One create+delete per this many operations in [`store_churn_op`]; the
/// rest are opens. Keeping the ratio in one place guarantees the E2 and
/// E6 experiment tables measure the same mix.
pub const STORE_CHURN_EVERY: usize = 32;

/// Builds a raw [`ObjectStore`] with `shards` lock shards (0 = auto) and a
/// pool of `pool_size` pre-created objects for the open side of the
/// shard-ablation workload.
pub fn build_sharded_store(
    shards: usize,
    pool_size: usize,
) -> (Arc<ObjectStore>, Arc<Vec<ObjectId>>) {
    let device = Arc::new(MemDevice::with_capacity(64 * 1024 * 1024));
    let store = Arc::new(
        ObjectStore::create(
            device,
            StoreConfig {
                shards,
                ..Default::default()
            },
        )
        .expect("create sharded store"),
    );
    let pool = Arc::new(
        (0..pool_size)
            .map(|_| store.create_default(0).expect("create pool object"))
            .collect::<Vec<_>>(),
    );
    (store, pool)
}

/// One iteration of the store shard-ablation workload for thread `t`,
/// iteration `i`: a create+delete every [`STORE_CHURN_EVERY`]th operation
/// (so storage stays bounded), otherwise an open (`meta`) of a pooled
/// object. The single-shard configuration funnels every iteration through
/// one lock; the sharded configuration spreads them.
pub fn store_churn_op(store: &ObjectStore, pool: &[ObjectId], t: usize, i: usize) {
    if i.is_multiple_of(STORE_CHURN_EVERY) {
        let oid = store.create_default(t as u32).expect("churn create");
        store.delete(oid).expect("churn delete");
    } else {
        store
            .meta(pool[(t * 31 + i) % pool.len()])
            .expect("churn open");
    }
}

/// Converts a corpus item's `(tag, value)` pairs into hFAD tag values,
/// including the item's POSIX path.
pub fn item_tags(item: &Item) -> Vec<TagValue> {
    let mut tags = vec![TagValue::posix(item.path.clone())];
    for (tag, value) in &item.tags {
        tags.push(TagValue::new(Tag::parse(tag), value.clone()));
    }
    tags
}

/// Builds an hFAD instance populated with `items`. Returns the instance and
/// the object id assigned to each item (in order).
pub fn build_hfad(items: &[Item], config: HfadConfig) -> (Arc<Hfad>, Vec<ObjectId>) {
    let fs = Arc::new(Hfad::in_memory(DEFAULT_CAPACITY, config).expect("create hfad"));
    let mut oids = Vec::with_capacity(items.len());
    for item in items {
        let oid = fs
            .create_with_content(&item_tags(item), &item.content())
            .expect("create item");
        oids.push(oid);
    }
    fs.sync_index();
    (fs, oids)
}

/// Builds a hierarchical baseline populated with `items` (directories are
/// created as needed) plus a desktop-search index over their contents.
pub fn build_hierfs(items: &[Item], config: HierConfig) -> (Arc<HierFs>, SearchIndex) {
    let fs = Arc::new(HierFs::in_memory(DEFAULT_CAPACITY, config).expect("create hierfs"));
    for dir in hfad_workload::directories(items) {
        fs.mkdir_all(&dir).expect("mkdir");
    }
    let index = SearchIndex::new(&fs).expect("search index");
    for item in items {
        fs.create_file(&item.path).expect("create file");
        fs.write(&item.path, 0, &item.content()).expect("write");
        index.index_file(&fs, &item.path).expect("index file");
    }
    (fs, index)
}

/// Builds a POSIX veneer over a fresh hFAD instance populated with `items`.
pub fn build_posix(items: &[Item], config: HfadConfig) -> PosixFs {
    let fs = Arc::new(Hfad::in_memory(DEFAULT_CAPACITY, config).expect("create hfad"));
    let posix = PosixFs::new(fs).expect("posix veneer");
    for dir in hfad_workload::directories(items) {
        posix.mkdir_all(&dir).expect("mkdir");
    }
    for item in items {
        posix.create(&item.path).expect("create");
        posix.write(&item.path, 0, &item.content()).expect("write");
    }
    posix
}

#[cfg(test)]
mod tests {
    use hfad_workload::CorpusConfig;

    use super::*;

    fn small_corpus() -> Vec<Item> {
        hfad_workload::documents(&CorpusConfig {
            items: 30,
            words_per_item: 10,
            dir_depth: 2,
            ..Default::default()
        })
    }

    #[test]
    fn hfad_fixture_is_searchable() {
        let items = small_corpus();
        let (fs, oids) = build_hfad(&items, HfadConfig::default());
        assert_eq!(oids.len(), items.len());
        assert_eq!(fs.object_count(), items.len() as u64);
        // Every item is reachable through its POSIX tag.
        for (item, oid) in items.iter().zip(&oids) {
            assert_eq!(
                fs.lookup(&[TagValue::posix(item.path.clone())]).unwrap(),
                vec![*oid]
            );
        }
    }

    #[test]
    fn hierfs_fixture_matches_corpus() {
        let items = small_corpus();
        let (fs, index) = build_hierfs(&items, HierConfig::default());
        for item in &items {
            assert_eq!(fs.read_all(&item.path).unwrap(), item.content());
        }
        assert!(index.posting_count().unwrap() > 0);
    }

    #[test]
    fn posix_fixture_matches_corpus() {
        let items = small_corpus();
        let posix = build_posix(&items, HfadConfig::default());
        for item in &items {
            assert_eq!(posix.read_all(&item.path).unwrap(), item.content());
        }
    }
}
