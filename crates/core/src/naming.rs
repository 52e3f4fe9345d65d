//! The naming interfaces of the native API.
//!
//! "The naming interfaces map tagged search-terms to objects" (§3.1.1). A
//! name is a vector of tag/value pairs; resolution is the conjunction of
//! one index lookup per pair. Names need not be unique — a lookup can
//! return any number of objects — and a single object can carry any number
//! of names (§2.2's argument against a single canonical categorisation).
//!
//! The special `ID` tag is the FastPath of Table 1: it bypasses every index
//! and goes straight to the OSD.

use hfad_index::{Query, Tag, TagValue};
use hfad_osd::{unix_now, ObjectId, ObjectMeta};

use crate::error::{HfadError, Result};
use crate::fs::Hfad;

impl Hfad {
    /// Creates an empty object named by `tags` and returns its id.
    ///
    /// The tag vector may be empty: an object with no names is reachable
    /// only through its id (and through whatever names are added later).
    pub fn create(&self, tags: &[TagValue]) -> Result<ObjectId> {
        self.create_with_meta(tags, ObjectMeta::new(0, 0, 0o644, unix_now()))
    }

    /// Creates an empty object with explicit metadata.
    pub fn create_with_meta(&self, tags: &[TagValue], meta: ObjectMeta) -> Result<ObjectId> {
        self.check_writable()?;
        let oid = self.store.create_object(meta)?;
        self.add_tags(oid, tags)?;
        Ok(oid)
    }

    /// Creates an object, writes `content`, and queues the content for
    /// background full-text indexing.
    pub fn create_with_content(&self, tags: &[TagValue], content: &[u8]) -> Result<ObjectId> {
        let oid = self.create(tags)?;
        self.write(oid, 0, content)?;
        self.index_content(oid, content)?;
        Ok(oid)
    }

    /// Adds naming tags to an existing object.
    pub fn add_tags(&self, oid: ObjectId, tags: &[TagValue]) -> Result<()> {
        for tv in tags {
            if tv.tag == Tag::Id {
                // ID is not a stored tag; it is the identifier itself.
                continue;
            }
            self.registry.insert(&tv.tag, &tv.value, oid)?;
        }
        Ok(())
    }

    /// Removes one naming tag from an object (a no-op if absent).
    pub fn remove_tag(&self, oid: ObjectId, tag: &Tag, value: &str) -> Result<()> {
        Ok(self.registry.remove(tag, value, oid)?)
    }

    /// Every tag/value pair currently naming `oid`.
    pub fn tags_of(&self, oid: ObjectId) -> Result<Vec<TagValue>> {
        Ok(self.registry.tags_of(oid)?)
    }

    /// Resolves a name — a vector of tag/value pairs — to the set of
    /// matching object ids (the conjunction of the per-pair lookups).
    ///
    /// Results are returned in ascending id order; the paper leaves the
    /// order unspecified.
    pub fn lookup(&self, pairs: &[TagValue]) -> Result<Vec<ObjectId>> {
        if pairs.is_empty() {
            return Err(HfadError::EmptyName);
        }
        // FastPath: a name containing an ID pair resolves directly and the
        // remaining pairs act as a filter.
        let mut id_filter: Option<ObjectId> = None;
        let mut indexed_pairs = Vec::new();
        for pair in pairs {
            if pair.tag == Tag::Id {
                id_filter = Some(Self::parse_id_value(&pair.value)?);
            } else {
                indexed_pairs.push(pair.clone());
            }
        }
        if let Some(oid) = id_filter {
            // Verify existence via the OSD, then apply remaining pairs.
            self.store.meta(oid)?;
            if indexed_pairs.is_empty() {
                return Ok(vec![oid]);
            }
            let hits = Query::conjunction(indexed_pairs).evaluate(&self.registry)?;
            return Ok(hits.into_iter().filter(|&o| o == oid).collect());
        }
        Ok(Query::conjunction(indexed_pairs).evaluate(&self.registry)?)
    }

    /// Resolves a name that is expected to match exactly one object.
    ///
    /// Returns [`HfadError::NotFound`] when nothing matches; when several
    /// objects match, the lowest id wins (callers that care about
    /// uniqueness, such as the POSIX layer, guarantee it by construction).
    pub fn lookup_one(&self, pairs: &[TagValue]) -> Result<ObjectId> {
        self.lookup(pairs)?
            .into_iter()
            .next()
            .ok_or_else(|| HfadError::NotFound(Self::format_name(pairs)))
    }

    /// Keyword search: the conjunction of `FULLTEXT/term` pairs.
    pub fn search_text(&self, terms: &[&str]) -> Result<Vec<ObjectId>> {
        if terms.is_empty() {
            return Err(HfadError::EmptyName);
        }
        Ok(self.fulltext.query_all(terms)?)
    }

    /// Deletes an object: every index posting is removed, then the object
    /// and its storage are released.
    ///
    /// Queued full-text items for `oid` are indexed first, so none can
    /// re-add postings afterwards: the object is out of every search when
    /// this returns.
    pub fn delete(&self, oid: ObjectId) -> Result<()> {
        self.check_writable()?;
        self.lazy.wait_for(oid);
        self.registry.remove_object(oid)?;
        Ok(self.store.delete(oid)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HfadConfig;

    fn fs() -> Hfad {
        Hfad::in_memory(32 * 1024 * 1024, HfadConfig::default()).unwrap()
    }

    #[test]
    fn create_and_lookup_by_single_tag() {
        let fs = fs();
        let oid = fs
            .create(&[TagValue::udef("vacation"), TagValue::user("margo")])
            .unwrap();
        assert_eq!(fs.lookup(&[TagValue::udef("vacation")]).unwrap(), vec![oid]);
        assert_eq!(fs.lookup(&[TagValue::user("margo")]).unwrap(), vec![oid]);
        assert!(fs.lookup(&[TagValue::user("nick")]).unwrap().is_empty());
    }

    #[test]
    fn conjunction_of_pairs() {
        let fs = fs();
        let a = fs
            .create(&[TagValue::udef("beach"), TagValue::user("margo")])
            .unwrap();
        let _b = fs
            .create(&[TagValue::udef("beach"), TagValue::user("nick")])
            .unwrap();
        assert_eq!(
            fs.lookup(&[TagValue::udef("beach"), TagValue::user("margo")])
                .unwrap(),
            vec![a]
        );
        assert_eq!(fs.lookup(&[TagValue::udef("beach")]).unwrap().len(), 2);
    }

    #[test]
    fn object_may_have_many_names() {
        let fs = fs();
        let oid = fs.create(&[]).unwrap();
        fs.add_tags(
            oid,
            &[
                TagValue::posix("/photos/2009/beach.jpg"),
                TagValue::udef("beach"),
                TagValue::udef("family"),
                TagValue::app("photo-manager"),
            ],
        )
        .unwrap();
        let tags = fs.tags_of(oid).unwrap();
        assert_eq!(tags.len(), 4);
        for name in [
            vec![TagValue::posix("/photos/2009/beach.jpg")],
            vec![TagValue::udef("beach")],
            vec![TagValue::udef("family"), TagValue::app("photo-manager")],
        ] {
            assert_eq!(fs.lookup(&name).unwrap(), vec![oid], "name {name:?}");
        }
    }

    #[test]
    fn id_fastpath_bypasses_indices() {
        let fs = fs();
        let oid = fs.create(&[TagValue::udef("tagged")]).unwrap();
        let hits = fs
            .lookup(&[TagValue::new(Tag::Id, oid.as_u64().to_string())])
            .unwrap();
        assert_eq!(hits, vec![oid]);
        // ID plus a matching filter keeps the object…
        let hits = fs
            .lookup(&[
                TagValue::new(Tag::Id, oid.as_u64().to_string()),
                TagValue::udef("tagged"),
            ])
            .unwrap();
        assert_eq!(hits, vec![oid]);
        // …and ID plus a non-matching filter drops it.
        let hits = fs
            .lookup(&[
                TagValue::new(Tag::Id, oid.as_u64().to_string()),
                TagValue::udef("absent"),
            ])
            .unwrap();
        assert!(hits.is_empty());
        // Garbage and dangling IDs are errors.
        assert!(matches!(
            fs.lookup(&[TagValue::new(Tag::Id, "xyz")]),
            Err(HfadError::InvalidIdValue(_))
        ));
        assert!(fs.lookup(&[TagValue::new(Tag::Id, "99999")]).is_err());
    }

    #[test]
    fn lookup_one_and_not_found() {
        let fs = fs();
        let oid = fs.create(&[TagValue::posix("/etc/passwd")]).unwrap();
        assert_eq!(
            fs.lookup_one(&[TagValue::posix("/etc/passwd")]).unwrap(),
            oid
        );
        assert!(matches!(
            fs.lookup_one(&[TagValue::posix("/etc/shadow")]),
            Err(HfadError::NotFound(_))
        ));
        assert!(matches!(fs.lookup(&[]), Err(HfadError::EmptyName)));
    }

    #[test]
    fn content_search_finds_created_objects() {
        let fs = fs();
        let report = fs
            .create_with_content(
                &[TagValue::posix("/docs/report.txt")],
                b"quarterly sales report for the storage division",
            )
            .unwrap();
        let _memo = fs
            .create_with_content(
                &[TagValue::posix("/docs/memo.txt")],
                b"memo about the holiday schedule",
            )
            .unwrap();
        fs.sync_index();
        assert_eq!(
            fs.search_text(&["storage", "report"]).unwrap(),
            vec![report]
        );
        assert!(fs.search_text(&["storage", "holiday"]).unwrap().is_empty());
        assert!(matches!(fs.search_text(&[]), Err(HfadError::EmptyName)));
    }

    #[test]
    fn remove_tag_removes_single_name() {
        let fs = fs();
        let oid = fs
            .create(&[TagValue::udef("draft"), TagValue::udef("final")])
            .unwrap();
        fs.remove_tag(oid, &Tag::Udef, "draft").unwrap();
        assert!(fs.lookup(&[TagValue::udef("draft")]).unwrap().is_empty());
        assert_eq!(fs.lookup(&[TagValue::udef("final")]).unwrap(), vec![oid]);
    }

    #[test]
    fn delete_removes_object_and_all_names() {
        let fs = fs();
        let oid = fs
            .create_with_content(
                &[TagValue::posix("/tmp/scratch"), TagValue::udef("temp")],
                b"scratch space contents",
            )
            .unwrap();
        fs.delete(oid).unwrap();
        assert!(fs
            .lookup(&[TagValue::posix("/tmp/scratch")])
            .unwrap()
            .is_empty());
        assert!(fs.lookup(&[TagValue::udef("temp")]).unwrap().is_empty());
        assert!(fs.search_text(&["scratch"]).unwrap().is_empty());
        assert!(fs.meta(oid).is_err());
        assert_eq!(fs.object_count(), 0);
    }

    #[test]
    fn lazy_indexing_becomes_visible_after_sync() {
        let fs = Hfad::in_memory(32 * 1024 * 1024, HfadConfig::default()).unwrap();
        let oid = fs
            .create_with_content(&[TagValue::udef("note")], b"eventually consistent indexing")
            .unwrap();
        fs.sync_index();
        assert_eq!(fs.search_text(&["eventually"]).unwrap(), vec![oid]);
    }
}
