//! The POSIX veneer over the hFAD native API.
//!
//! "We support POSIX naming as a thin layer atop the native API. A naming
//! operation on POSIX path P translates into a lookup on the tag/value
//! pair: POSIX/P" (§3.1.1). That one sentence is this module: every path
//! operation becomes a tag lookup, every directory is just another tagged
//! object, and `readdir` is a lookup on a `PARENT/<dir>` tag rather than a
//! walk of on-disk directory blocks.
//!
//! The layer exists for the paper's backwards-compatibility requirement
//! (§2: "a storage system is not useful without some support for backwards
//! compatibility in interface if not in disk layout") and is exercised by
//! experiments F1 and E5.

use std::sync::Arc;

use hfad_core::{Hfad, HfadError, ObjectId, Tag, TagValue, INDEX_SHARDS};
use hfad_index::KeyValueIndex;

use crate::error::{PosixError, Result};
use crate::path::{join, normalize, split_parent};

/// Flag bit in [`ObjectMeta::flags`](hfad_core::ObjectMeta) marking a
/// directory object.
pub const FLAG_DIRECTORY: u32 = 0x1;

/// The tag used to record each object's parent directory, enabling
/// `readdir` as a single index lookup.
pub fn parent_tag() -> Tag {
    Tag::Custom("PARENT".to_string())
}

/// Metadata returned by [`PosixFs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Backing object id.
    pub oid: ObjectId,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Whether the path names a directory.
    pub is_dir: bool,
    /// Last modification time (seconds since the Unix epoch).
    pub modified: u64,
}

/// A directory entry returned by [`PosixFs::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosixDirEntry {
    /// Entry name (final component).
    pub name: String,
    /// Backing object id.
    pub oid: ObjectId,
    /// Whether the entry is a directory.
    pub is_dir: bool,
}

/// A POSIX-style file system interface over [`Hfad`].
pub struct PosixFs {
    fs: Arc<Hfad>,
}

impl PosixFs {
    /// Wraps an hFAD instance, registering the `PARENT` index it needs and
    /// creating the root directory if it does not already exist.
    pub fn new(fs: Arc<Hfad>) -> Result<Self> {
        // The PARENT tag is served by a dedicated persistent key/value
        // index, registered through the ordinary plug-in mechanism.
        let ctx = fs.store().context().clone();
        let parent_index =
            KeyValueIndex::new(ctx, "posix-parent", Some(vec![parent_tag()]), INDEX_SHARDS)
                .map_err(HfadError::from)?;
        fs.register_index(Arc::new(parent_index));
        let posix = PosixFs { fs };
        if posix.lookup("/").is_err() {
            let oid = posix.fs.create(&[TagValue::posix("/")])?;
            posix.mark_directory(oid)?;
        }
        Ok(posix)
    }

    /// The underlying hFAD instance.
    pub fn hfad(&self) -> &Arc<Hfad> {
        &self.fs
    }

    fn mark_directory(&self, oid: ObjectId) -> Result<()> {
        let mut meta = self.fs.meta(oid)?;
        meta.flags |= FLAG_DIRECTORY;
        self.fs.set_meta(oid, meta)?;
        Ok(())
    }

    fn lookup(&self, path: &str) -> Result<ObjectId> {
        let canonical = normalize(path)?;
        self.fs
            .lookup_one(&[TagValue::posix(canonical.clone())])
            .map_err(|e| match e {
                HfadError::NotFound(_) => PosixError::NotFound(canonical),
                other => PosixError::Hfad(other),
            })
    }

    fn is_dir(&self, oid: ObjectId) -> Result<bool> {
        Ok(self.fs.meta(oid)?.flags & FLAG_DIRECTORY != 0)
    }

    fn require_dir(&self, path: &str) -> Result<ObjectId> {
        let oid = self.lookup(path)?;
        if !self.is_dir(oid)? {
            return Err(PosixError::NotADirectory(path.to_string()));
        }
        Ok(oid)
    }

    fn require_file(&self, path: &str) -> Result<ObjectId> {
        let oid = self.lookup(path)?;
        if self.is_dir(oid)? {
            return Err(PosixError::IsADirectory(path.to_string()));
        }
        Ok(oid)
    }

    /// Returns `true` if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// `stat`: path metadata.
    pub fn stat(&self, path: &str) -> Result<Stat> {
        let oid = self.lookup(path)?;
        let meta = self.fs.meta(oid)?;
        Ok(Stat {
            oid,
            size: meta.size,
            is_dir: meta.flags & FLAG_DIRECTORY != 0,
            modified: meta.modified,
        })
    }

    /// Creates a directory. The parent must exist and be a directory.
    pub fn mkdir(&self, path: &str) -> Result<ObjectId> {
        let canonical = normalize(path)?;
        let (parent, _) = split_parent(&canonical)?;
        self.require_dir(&parent)?;
        if self.exists(&canonical) {
            return Err(PosixError::AlreadyExists(canonical));
        }
        let oid = self.fs.create(&[
            TagValue::posix(canonical.clone()),
            TagValue::new(parent_tag(), parent),
        ])?;
        self.mark_directory(oid)?;
        Ok(oid)
    }

    /// Creates every missing directory along `path`.
    pub fn mkdir_all(&self, path: &str) -> Result<()> {
        let canonical = normalize(path)?;
        let comps = crate::path::components(&canonical)?;
        let mut so_far = String::from("/");
        for comp in comps {
            so_far = join(&so_far, &comp);
            match self.mkdir(&so_far) {
                Ok(_) | Err(PosixError::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Creates an empty regular file. The parent directory must exist.
    pub fn create(&self, path: &str) -> Result<ObjectId> {
        let canonical = normalize(path)?;
        let (parent, _) = split_parent(&canonical)?;
        self.require_dir(&parent)?;
        if self.exists(&canonical) {
            return Err(PosixError::AlreadyExists(canonical));
        }
        Ok(self.fs.create(&[
            TagValue::posix(canonical),
            TagValue::new(parent_tag(), parent),
        ])?)
    }

    /// Opens an existing file, returning its object id (the veneer's file
    /// descriptor analogue — applications can cache it and use the `ID`
    /// FastPath afterwards).
    pub fn open(&self, path: &str) -> Result<ObjectId> {
        self.require_file(path)
    }

    /// Writes `data` at `offset`.
    pub fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        let oid = self.require_file(path)?;
        Ok(self.fs.write(oid, offset, data)?)
    }

    /// Reads up to `len` bytes at `offset`.
    pub fn read(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let oid = self.require_file(path)?;
        Ok(self.fs.read(oid, offset, len)?)
    }

    /// Reads an entire file.
    pub fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        let oid = self.require_file(path)?;
        Ok(self.fs.read_all(oid)?)
    }

    /// Appends `data` to a file.
    pub fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        let oid = self.require_file(path)?;
        Ok(self.fs.append(oid, data)?)
    }

    /// POSIX truncate to an absolute size.
    pub fn truncate(&self, path: &str, size: u64) -> Result<()> {
        let oid = self.require_file(path)?;
        Ok(self.fs.truncate(oid, size)?)
    }

    /// Lists the entries of a directory, in name order — a single lookup on
    /// the `PARENT/<dir>` tag rather than a namespace walk.
    pub fn readdir(&self, path: &str) -> Result<Vec<PosixDirEntry>> {
        let canonical = normalize(path)?;
        self.require_dir(&canonical)?;
        let children = self
            .fs
            .lookup(&[TagValue::new(parent_tag(), canonical.clone())])?;
        let mut out = Vec::new();
        for oid in children {
            let Some(full_path) = self.posix_path_of(oid)? else {
                continue;
            };
            let (_, name) = split_parent(&full_path)?;
            out.push(PosixDirEntry {
                name,
                oid,
                is_dir: self.is_dir(oid)?,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn posix_path_of(&self, oid: ObjectId) -> Result<Option<String>> {
        Ok(self
            .fs
            .tags_of(oid)?
            .into_iter()
            .find(|tv| tv.tag == Tag::Posix)
            .map(|tv| tv.value))
    }

    /// Removes a regular file.
    pub fn unlink(&self, path: &str) -> Result<()> {
        let oid = self.require_file(path)?;
        Ok(self.fs.delete(oid)?)
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        let canonical = normalize(path)?;
        if canonical == "/" {
            return Err(PosixError::InvalidPath(canonical));
        }
        let oid = self.require_dir(&canonical)?;
        if !self.readdir(&canonical)?.is_empty() {
            return Err(PosixError::DirectoryNotEmpty(canonical));
        }
        Ok(self.fs.delete(oid)?)
    }

    /// Renames a file or directory.
    ///
    /// Because a POSIX path is just one name, renaming is re-tagging: the
    /// old `POSIX`/`PARENT` pairs are removed and new ones added. Renaming
    /// a directory re-tags its descendants as well (their names embed the
    /// path, the price the veneer pays for keeping full paths as values).
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let from = normalize(from)?;
        let to = normalize(to)?;
        let oid = self.lookup(&from)?;
        if self.exists(&to) {
            return Err(PosixError::AlreadyExists(to));
        }
        let (to_parent, _) = split_parent(&to)?;
        self.require_dir(&to_parent)?;
        let is_dir = self.is_dir(oid)?;
        self.retag(oid, &from, &to)?;
        if is_dir {
            // Recursively re-tag descendants.
            let children = self
                .fs
                .lookup(&[TagValue::new(parent_tag(), from.clone())])?;
            for child in children {
                if let Some(child_path) = self.posix_path_of(child)? {
                    let (_, name) = split_parent(&child_path)?;
                    let child_is_dir = self.is_dir(child)?;
                    if child_is_dir {
                        self.rename(&child_path, &join(&to, &name))?;
                    } else {
                        self.retag(child, &child_path, &join(&to, &name))?;
                    }
                }
            }
        }
        Ok(())
    }

    fn retag(&self, oid: ObjectId, from: &str, to: &str) -> Result<()> {
        let (from_parent, _) = split_parent(from).unwrap_or(("/".into(), String::new()));
        let (to_parent, _) = split_parent(to)?;
        self.fs.remove_tag(oid, &Tag::Posix, from)?;
        self.fs.remove_tag(oid, &parent_tag(), &from_parent)?;
        self.fs.add_tags(
            oid,
            &[TagValue::posix(to), TagValue::new(parent_tag(), to_parent)],
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use hfad_core::HfadConfig;

    use super::*;

    fn posix() -> PosixFs {
        let fs = Arc::new(Hfad::in_memory(32 * 1024 * 1024, HfadConfig::default()).unwrap());
        PosixFs::new(fs).unwrap()
    }

    #[test]
    fn root_exists() {
        let p = posix();
        assert!(p.exists("/"));
        assert!(p.stat("/").unwrap().is_dir);
        assert!(p.readdir("/").unwrap().is_empty());
    }

    #[test]
    fn mkdir_create_write_read() {
        let p = posix();
        p.mkdir("/home").unwrap();
        p.mkdir("/home/margo").unwrap();
        p.create("/home/margo/mail.mbox").unwrap();
        p.write("/home/margo/mail.mbox", 0, b"Subject: hFAD\n")
            .unwrap();
        assert_eq!(
            p.read_all("/home/margo/mail.mbox").unwrap(),
            b"Subject: hFAD\n".to_vec()
        );
        assert_eq!(
            p.read("/home/margo/mail.mbox", 9, 4).unwrap(),
            b"hFAD".to_vec()
        );
        let st = p.stat("/home/margo/mail.mbox").unwrap();
        assert!(!st.is_dir);
        assert_eq!(st.size, 14);
    }

    #[test]
    fn path_normalisation_makes_names_equal() {
        let p = posix();
        p.mkdir("/dir").unwrap();
        p.create("/dir//file").unwrap();
        assert!(p.exists("/dir/./file"));
        assert_eq!(p.read_all("/dir/file/").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn readdir_lists_children_only() {
        let p = posix();
        p.mkdir_all("/a/b").unwrap();
        p.create("/a/one").unwrap();
        p.create("/a/two").unwrap();
        p.create("/a/b/nested").unwrap();
        let entries = p.readdir("/a").unwrap();
        let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["b", "one", "two"]);
        assert!(entries[0].is_dir);
        assert!(!entries[1].is_dir);
        assert_eq!(p.readdir("/a/b").unwrap().len(), 1);
    }

    #[test]
    fn missing_parent_and_duplicates_rejected() {
        let p = posix();
        assert!(matches!(
            p.create("/no/such/dir/file"),
            Err(PosixError::NotFound(_))
        ));
        p.mkdir("/d").unwrap();
        assert!(matches!(p.mkdir("/d"), Err(PosixError::AlreadyExists(_))));
        p.create("/d/f").unwrap();
        assert!(matches!(
            p.create("/d/f"),
            Err(PosixError::AlreadyExists(_))
        ));
        // Files are not directories and vice versa.
        assert!(matches!(
            p.readdir("/d/f"),
            Err(PosixError::NotADirectory(_))
        ));
        assert!(matches!(p.read_all("/d"), Err(PosixError::IsADirectory(_))));
    }

    #[test]
    fn unlink_and_rmdir() {
        let p = posix();
        p.mkdir("/d").unwrap();
        p.create("/d/f").unwrap();
        assert!(matches!(
            p.rmdir("/d"),
            Err(PosixError::DirectoryNotEmpty(_))
        ));
        p.unlink("/d/f").unwrap();
        assert!(!p.exists("/d/f"));
        p.rmdir("/d").unwrap();
        assert!(!p.exists("/d"));
        assert!(matches!(p.rmdir("/"), Err(PosixError::InvalidPath(_))));
    }

    #[test]
    fn rename_file_and_directory_tree() {
        let p = posix();
        p.mkdir_all("/old/sub").unwrap();
        p.create("/old/a.txt").unwrap();
        p.write("/old/a.txt", 0, b"contents").unwrap();
        p.create("/old/sub/deep.txt").unwrap();
        p.mkdir("/newparent").unwrap();
        p.rename("/old", "/newparent/renamed").unwrap();
        assert!(!p.exists("/old"));
        assert!(p.exists("/newparent/renamed"));
        assert_eq!(
            p.read_all("/newparent/renamed/a.txt").unwrap(),
            b"contents".to_vec()
        );
        assert!(p.exists("/newparent/renamed/sub/deep.txt"));
        let names: Vec<_> = p
            .readdir("/newparent/renamed")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a.txt", "sub"]);
    }

    #[test]
    fn truncate_and_append() {
        let p = posix();
        p.mkdir("/d").unwrap();
        p.create("/d/f").unwrap();
        p.append("/d/f", b"hello ").unwrap();
        p.append("/d/f", b"world").unwrap();
        assert_eq!(p.read_all("/d/f").unwrap(), b"hello world".to_vec());
        p.truncate("/d/f", 5).unwrap();
        assert_eq!(p.read_all("/d/f").unwrap(), b"hello".to_vec());
    }

    #[test]
    fn posix_path_is_one_name_among_many() {
        // The same object can be reached through POSIX and through tags —
        // the core of the paper's argument.
        let p = posix();
        p.mkdir("/photos").unwrap();
        let oid = p.create("/photos/beach.jpg").unwrap();
        p.hfad()
            .add_tags(oid, &[TagValue::udef("beach"), TagValue::user("margo")])
            .unwrap();
        assert_eq!(
            p.hfad().lookup(&[TagValue::udef("beach")]).unwrap(),
            vec![oid]
        );
        assert_eq!(p.stat("/photos/beach.jpg").unwrap().oid, oid);
    }
}
