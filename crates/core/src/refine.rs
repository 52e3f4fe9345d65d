//! Iterative search refinement.
//!
//! Open question 2 of §4 asks whether "the notion of a 'current directory'"
//! could become "an iterative refinement of a search". [`SearchCursor`] is
//! that notion: each call to [`refine`](SearchCursor::refine) adds another
//! tag/value constraint and narrows the current result set, the way `cd`
//! narrows the part of a hierarchy in view — except the constraints can be
//! any tags, in any order, and can be popped again.

use hfad_index::{Query, TagValue};
use hfad_osd::ObjectId;

use crate::error::Result;
use crate::fs::Hfad;

/// A progressively refined search over an [`Hfad`] instance.
///
/// The cursor re-evaluates lazily: results are computed when
/// [`results`](Self::results) is called, so a cursor stays consistent with
/// tags added or removed since the previous call.
pub struct SearchCursor<'a> {
    fs: &'a Hfad,
    constraints: Vec<TagValue>,
}

impl<'a> SearchCursor<'a> {
    pub(crate) fn new(fs: &'a Hfad) -> Self {
        SearchCursor {
            fs,
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint (like descending one level of a directory tree).
    pub fn refine(mut self, constraint: TagValue) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Adds a full-text term constraint.
    pub fn refine_text(self, term: &str) -> Self {
        self.refine(TagValue::fulltext(term))
    }

    /// Removes the most recent constraint (like `cd ..`). A no-op on an
    /// unconstrained cursor.
    pub fn back(mut self) -> Self {
        self.constraints.pop();
        self
    }

    /// The constraints applied so far, oldest first.
    pub fn constraints(&self) -> &[TagValue] {
        &self.constraints
    }

    /// The current depth of refinement (number of constraints).
    pub fn depth(&self) -> usize {
        self.constraints.len()
    }

    /// Evaluates the current refinement.
    ///
    /// With no constraints the result is every object in the file system
    /// (the analogue of listing the root).
    pub fn results(&self) -> Result<Vec<ObjectId>> {
        if self.constraints.is_empty() {
            return Ok(self.fs.store().list()?);
        }
        self.fs
            .query(&Query::conjunction(self.constraints.to_vec()))
    }

    /// Number of objects currently matched.
    pub fn count(&self) -> Result<usize> {
        Ok(self.results()?.len())
    }
}

#[cfg(test)]
mod tests {
    use hfad_index::TagValue;

    use crate::config::HfadConfig;
    use crate::fs::Hfad;

    fn photo_library() -> (Hfad, Vec<hfad_osd::ObjectId>) {
        let fs = Hfad::in_memory(32 * 1024 * 1024, HfadConfig::default()).unwrap();
        let mut oids = Vec::new();
        for (person, place, year) in [
            ("margo", "beach", "2008"),
            ("margo", "beach", "2009"),
            ("margo", "office", "2009"),
            ("nick", "beach", "2009"),
            ("nick", "mountains", "2008"),
        ] {
            let oid = fs
                .create(&[
                    TagValue::user(person),
                    TagValue::udef(place),
                    TagValue::udef(year),
                ])
                .unwrap();
            oids.push(oid);
        }
        (fs, oids)
    }

    #[test]
    fn unconstrained_cursor_lists_everything() {
        let (fs, oids) = photo_library();
        let cursor = fs.search();
        assert_eq!(cursor.depth(), 0);
        assert_eq!(cursor.results().unwrap().len(), oids.len());
    }

    #[test]
    fn refinement_narrows_progressively() {
        let (fs, oids) = photo_library();
        let cursor = fs.search().refine(TagValue::udef("beach"));
        assert_eq!(cursor.count().unwrap(), 3);
        let cursor = cursor.refine(TagValue::user("margo"));
        assert_eq!(cursor.count().unwrap(), 2);
        let cursor = cursor.refine(TagValue::udef("2009"));
        assert_eq!(cursor.results().unwrap(), vec![oids[1]]);
        assert_eq!(cursor.depth(), 3);
    }

    #[test]
    fn back_widens_again() {
        let (fs, _) = photo_library();
        let cursor = fs
            .search()
            .refine(TagValue::udef("beach"))
            .refine(TagValue::user("nick"));
        assert_eq!(cursor.count().unwrap(), 1);
        let cursor = cursor.back();
        assert_eq!(cursor.count().unwrap(), 3);
        assert_eq!(cursor.depth(), 1);
        // Backing out of everything behaves like the root listing.
        let cursor = cursor.back().back();
        assert_eq!(cursor.count().unwrap(), 5);
    }

    #[test]
    fn cursor_sees_concurrent_modifications() {
        let (fs, _) = photo_library();
        let cursor = fs.search().refine(TagValue::udef("beach"));
        assert_eq!(cursor.count().unwrap(), 3);
        fs.create(&[TagValue::udef("beach"), TagValue::user("guest")])
            .unwrap();
        // The cursor re-evaluates lazily, so the new object appears.
        assert_eq!(cursor.count().unwrap(), 4);
    }

    #[test]
    fn text_refinement_composes_with_tags() {
        let fs = Hfad::in_memory(32 * 1024 * 1024, HfadConfig::default()).unwrap();
        let hit = fs
            .create_with_content(&[TagValue::user("margo")], b"trip itinerary for the beach")
            .unwrap();
        let _miss = fs
            .create_with_content(&[TagValue::user("margo")], b"budget spreadsheet")
            .unwrap();
        fs.sync_index();
        let cursor = fs
            .search()
            .refine(TagValue::user("margo"))
            .refine_text("beach");
        assert_eq!(cursor.results().unwrap(), vec![hit]);
    }
}
