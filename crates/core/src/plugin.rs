//! Plug-in index stores.
//!
//! Open question 1 of §4: "Should hFAD support arbitrary types of indexing
//! through, for example, a plug-in model?" This module answers with a
//! reference implementation: [`AttributeIndex`], an in-memory index for a
//! custom tag namespace (e.g. `IMAGE/640x480`, `SOUND/44khz`) that can be
//! registered on a live file system with
//! [`Hfad::register_index`](crate::fs::Hfad::register_index). The paper's
//! key/value and full-text stores are persistent; plug-ins may choose their
//! own representation, which is exactly the point of the extension.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use hfad_index::{IndexStats, IndexStore, Result as IndexResult, Tag, TagValue};
use hfad_osd::ObjectId;

/// An in-memory plug-in index over one custom tag namespace.
pub struct AttributeIndex {
    tag: Tag,
    name: String,
    postings: RwLock<BTreeMap<String, Vec<ObjectId>>>,
    lookups: AtomicU64,
    inserts: AtomicU64,
    removes: AtomicU64,
}

impl AttributeIndex {
    /// Creates a plug-in index handling the custom tag `tag_name`
    /// (e.g. `"IMAGE"`).
    pub fn new(tag_name: &str) -> Self {
        AttributeIndex {
            tag: Tag::Custom(tag_name.to_string()),
            name: format!("plugin:{}", tag_name.to_lowercase()),
            postings: RwLock::new(BTreeMap::new()),
            lookups: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            removes: AtomicU64::new(0),
        }
    }

    /// The custom tag this plug-in serves.
    pub fn tag(&self) -> &Tag {
        &self.tag
    }

    /// Values currently present in the index, in sorted order.
    pub fn values(&self) -> Vec<String> {
        self.postings.read().keys().cloned().collect()
    }
}

impl IndexStore for AttributeIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn handles(&self, tag: &Tag) -> bool {
        *tag == self.tag
    }

    fn insert(&self, _tag: &Tag, value: &str, oid: ObjectId) -> IndexResult<()> {
        let mut postings = self.postings.write();
        let list = postings.entry(value.to_string()).or_default();
        if !list.contains(&oid) {
            list.push(oid);
            list.sort_unstable();
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn remove(&self, _tag: &Tag, value: &str, oid: ObjectId) -> IndexResult<()> {
        if let Some(list) = self.postings.write().get_mut(value) {
            list.retain(|&o| o != oid);
        }
        self.removes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn lookup(&self, _tag: &Tag, value: &str) -> IndexResult<Vec<ObjectId>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        Ok(self.postings.read().get(value).cloned().unwrap_or_default())
    }

    fn remove_object(&self, oid: ObjectId) -> IndexResult<()> {
        for list in self.postings.write().values_mut() {
            list.retain(|&o| o != oid);
        }
        Ok(())
    }

    fn tags_of(&self, oid: ObjectId) -> IndexResult<Vec<TagValue>> {
        Ok(self
            .postings
            .read()
            .iter()
            .filter(|(_, oids)| oids.contains(&oid))
            .map(|(value, _)| TagValue::new(self.tag.clone(), value.clone()))
            .collect())
    }

    fn stats(&self) -> IndexStats {
        let postings = self.postings.read().values().map(|v| v.len() as u64).sum();
        IndexStats {
            postings,
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hfad_index::TagValue;

    use crate::config::HfadConfig;
    use crate::fs::Hfad;

    use super::*;

    #[test]
    fn plugin_index_standalone_behaviour() {
        let idx = AttributeIndex::new("IMAGE");
        assert!(idx.handles(&Tag::Custom("IMAGE".into())));
        assert!(!idx.handles(&Tag::Posix));
        idx.insert(&idx.tag().clone(), "640x480", ObjectId(1))
            .unwrap();
        idx.insert(&idx.tag().clone(), "640x480", ObjectId(2))
            .unwrap();
        idx.insert(&idx.tag().clone(), "1920x1080", ObjectId(3))
            .unwrap();
        assert_eq!(
            idx.lookup(&idx.tag().clone(), "640x480").unwrap(),
            vec![ObjectId(1), ObjectId(2)]
        );
        assert_eq!(idx.values(), vec!["1920x1080", "640x480"]);
        idx.remove_object(ObjectId(2)).unwrap();
        assert_eq!(
            idx.lookup(&idx.tag().clone(), "640x480").unwrap(),
            vec![ObjectId(1)]
        );
        assert_eq!(idx.stats().postings, 2);
    }

    #[test]
    fn registered_plugin_participates_in_naming() {
        let fs = Hfad::in_memory(32 * 1024 * 1024, HfadConfig::default()).unwrap();
        fs.register_index(Arc::new(AttributeIndex::new("IMAGE")));
        let image_tag = Tag::Custom("IMAGE".to_string());
        let photo = fs
            .create(&[
                TagValue::posix("/photos/sunset.jpg"),
                TagValue::new(image_tag.clone(), "1920x1080"),
            ])
            .unwrap();
        // The plug-in resolves its namespace…
        assert_eq!(
            fs.lookup(&[TagValue::new(image_tag.clone(), "1920x1080")])
                .unwrap(),
            vec![photo]
        );
        // …and composes with built-in tags in a conjunction.
        assert_eq!(
            fs.lookup(&[
                TagValue::new(image_tag.clone(), "1920x1080"),
                TagValue::posix("/photos/sunset.jpg"),
            ])
            .unwrap(),
            vec![photo]
        );
        // Deleting the object clears the plug-in postings too.
        fs.delete(photo).unwrap();
        assert!(fs
            .lookup(&[TagValue::new(image_tag, "1920x1080")])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unregistered_custom_tag_errors() {
        let fs = Hfad::in_memory(16 * 1024 * 1024, HfadConfig::default()).unwrap();
        let err = fs
            .create(&[TagValue::new(Tag::Custom("SOUND".into()), "44khz")])
            .unwrap_err();
        assert!(matches!(err, crate::error::HfadError::Index(_)));
    }
}
