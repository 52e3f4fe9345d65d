//! Quickstart: create a tagged, search-based file system, store a few
//! objects, and find them by describing *what* they are instead of *where*
//! they live.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hfad::core::{Hfad, HfadConfig};
use hfad::TagValue;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 64 MiB in-memory file system. Content is indexed lazily, by
    // background jobs (§3.4).
    let fs = Hfad::in_memory(64 * 1024 * 1024, HfadConfig::default())?;

    // Store a document. The POSIX path is just one of its names.
    let report = fs.create_with_content(
        &[
            TagValue::posix("/docs/2009/quarterly-report.txt"),
            TagValue::udef("finance"),
            TagValue::udef("q2"),
            TagValue::user("margo"),
            TagValue::app("word-processor"),
        ],
        b"Quarterly report: storage revenue grew while tape declined.",
    )?;

    // Store a photo with completely different names.
    let photo = fs.create_with_content(
        &[
            TagValue::posix("/photos/2009/beach/img-0001.jpg"),
            TagValue::udef("beach"),
            TagValue::udef("vacation"),
            TagValue::user("margo"),
            TagValue::user("nick"),
        ],
        b"synthetic jpeg bytes: sand sun surf",
    )?;

    // 1. Find by tag conjunction: everything of Margo's about finance.
    let hits = fs.lookup(&[TagValue::user("margo"), TagValue::udef("finance")])?;
    println!("margo ∧ finance        -> {hits:?}");
    assert_eq!(hits, vec![report]);

    // 2. Full-text search, Google-style, once the background indexer has
    //    caught up.
    fs.sync_index();
    let hits = fs.search_text(&["storage", "revenue"])?;
    println!("fulltext storage+revenue -> {hits:?}");
    assert_eq!(hits, vec![report]);

    // 3. The POSIX path still works — it is just another tag.
    let hits = fs.lookup(&[TagValue::posix("/photos/2009/beach/img-0001.jpg")])?;
    println!("POSIX path             -> {hits:?}");
    assert_eq!(hits, vec![photo]);

    // 4. Iterative refinement: narrow like `cd`, but along any dimension.
    let cursor = fs
        .search()
        .refine(TagValue::user("margo"))
        .refine(TagValue::udef("vacation"));
    println!("refine margo -> vacation -> {} object(s)", cursor.count()?);

    // 5. Byte-level access: read, splice into the middle, remove a range.
    fs.insert(report, 18, b"(draft) ")?;
    let head = fs.read(report, 0, 30)?;
    println!("after insert: {}", String::from_utf8_lossy(&head));
    fs.truncate_range(report, 18, 8)?;
    let head = fs.read(report, 0, 30)?;
    println!("after range-truncate: {}", String::from_utf8_lossy(&head));

    println!(
        "objects: {}, fulltext documents: {}",
        fs.object_count(),
        fs.stats().fulltext_documents
    );
    Ok(())
}
