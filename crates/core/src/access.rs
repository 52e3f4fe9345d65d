//! The access interfaces of the native API.
//!
//! "The access interfaces manipulate an object, once it has been located"
//! (§3.1). `read` and `write` are POSIX-compatible; `insert` and the
//! two-argument `truncate` are the paper's extensions enabled by the
//! B-tree extent representation (§3.1.2).

use hfad_osd::ObjectId;

use crate::error::Result;
use crate::fs::Hfad;

impl Hfad {
    /// Reads up to `len` bytes at `offset`.
    pub fn read(&self, oid: ObjectId, offset: u64, len: u64) -> Result<Vec<u8>> {
        Ok(self.store.read(oid, offset, len)?)
    }

    /// Reads the entire object.
    pub fn read_all(&self, oid: ObjectId) -> Result<Vec<u8>> {
        let size = self.store.len(oid)?;
        Ok(self.store.read(oid, 0, size)?)
    }

    /// Writes `data` at `offset` (POSIX-compatible semantics; also usable
    /// for appends).
    pub fn write(&self, oid: ObjectId, offset: u64, data: &[u8]) -> Result<()> {
        self.check_writable()?;
        Ok(self.store.write(oid, offset, data)?)
    }

    /// Appends `data` at the end of the object.
    pub fn append(&self, oid: ObjectId, data: &[u8]) -> Result<()> {
        self.check_writable()?;
        Ok(self.store.append(oid, data)?)
    }

    /// Inserts `data` at `offset`, growing the object by `data.len()` bytes
    /// — the paper's `insert` call, which "takes arguments identical to the
    /// write call" but splices rather than overwrites.
    pub fn insert(&self, oid: ObjectId, offset: u64, data: &[u8]) -> Result<()> {
        self.check_writable()?;
        Ok(self.store.insert(oid, offset, data)?)
    }

    /// Removes `len` bytes at `offset` — the paper's extended `truncate`,
    /// which "takes two off_t's, an offset and length, indicating exactly
    /// which bytes to remove from the file".
    pub fn truncate_range(&self, oid: ObjectId, offset: u64, len: u64) -> Result<()> {
        self.check_writable()?;
        Ok(self.store.truncate_range(oid, offset, len)?)
    }

    /// POSIX-style truncate to an absolute size.
    pub fn truncate(&self, oid: ObjectId, new_size: u64) -> Result<()> {
        self.check_writable()?;
        Ok(self.store.truncate(oid, new_size)?)
    }

    /// Queues `content` for background full-text indexing as the body of
    /// `oid` (§3.4's lazy indexing); [`search_text`](Self::search_text)
    /// finds it after [`sync_index`](Self::sync_index).
    pub fn index_content(&self, oid: ObjectId, content: &[u8]) -> Result<()> {
        let text = String::from_utf8_lossy(content).into_owned();
        Ok(self.lazy.enqueue(oid, text)?)
    }

    /// Re-reads the object's current content and re-indexes it. Used after
    /// in-place rewrites.
    ///
    /// Stale postings are dropped synchronously, once every queued item
    /// for `oid` has been indexed, so no old job can re-add them; the new
    /// content is queued like [`index_content`](Self::index_content).
    pub fn reindex(&self, oid: ObjectId) -> Result<()> {
        let content = self.read_all(oid)?;
        self.lazy.wait_for(oid);
        self.fulltext.remove_document(oid)?;
        self.index_content(oid, &content)
    }
}

#[cfg(test)]
mod tests {
    use hfad_index::TagValue;

    use crate::config::HfadConfig;
    use crate::fs::Hfad;

    fn fs() -> Hfad {
        Hfad::in_memory(32 * 1024 * 1024, HfadConfig::default()).unwrap()
    }

    #[test]
    fn read_write_round_trip() {
        let fs = fs();
        let oid = fs.create(&[TagValue::posix("/data/blob")]).unwrap();
        fs.write(oid, 0, b"some opaque application bytes").unwrap();
        assert_eq!(
            fs.read_all(oid).unwrap(),
            b"some opaque application bytes".to_vec()
        );
        assert_eq!(fs.read(oid, 5, 6).unwrap(), b"opaque".to_vec());
        assert_eq!(fs.len(oid).unwrap(), 29);
    }

    #[test]
    fn insert_and_range_truncate_through_api() {
        let fs = fs();
        let oid = fs.create(&[]).unwrap();
        fs.write(oid, 0, b"hierarchical systems").unwrap();
        fs.insert(oid, 13, b"file ").unwrap();
        assert_eq!(
            fs.read_all(oid).unwrap(),
            b"hierarchical file systems".to_vec()
        );
        fs.truncate_range(oid, 0, 13).unwrap();
        assert_eq!(fs.read_all(oid).unwrap(), b"file systems".to_vec());
        fs.truncate(oid, 4).unwrap();
        assert_eq!(fs.read_all(oid).unwrap(), b"file".to_vec());
    }

    #[test]
    fn append_is_write_at_end() {
        let fs = fs();
        let oid = fs.create(&[]).unwrap();
        fs.append(oid, b"first ").unwrap();
        fs.append(oid, b"second").unwrap();
        assert_eq!(fs.read_all(oid).unwrap(), b"first second".to_vec());
    }

    #[test]
    fn reindex_replaces_stale_terms() {
        let fs = fs();
        let oid = fs
            .create_with_content(&[], b"the original draft text")
            .unwrap();
        fs.sync_index();
        assert_eq!(fs.search_text(&["draft"]).unwrap(), vec![oid]);
        fs.truncate(oid, 0).unwrap();
        fs.write(oid, 0, b"the final published text").unwrap();
        fs.reindex(oid).unwrap();
        // Stale terms are gone as soon as reindex returns…
        assert!(fs.search_text(&["draft"]).unwrap().is_empty());
        // …and the new ones are searchable once indexed.
        fs.sync_index();
        assert_eq!(fs.search_text(&["published"]).unwrap(), vec![oid]);
    }

    #[test]
    fn binary_content_is_stored_verbatim() {
        let fs = fs();
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oid = fs.create(&[]).unwrap();
        fs.write(oid, 0, &data).unwrap();
        assert_eq!(fs.read_all(oid).unwrap(), data);
    }
}
