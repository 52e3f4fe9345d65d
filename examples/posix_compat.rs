//! POSIX backwards compatibility: run a classic hierarchical workflow
//! (mkdir/create/write/readdir/rename/unlink) against the POSIX veneer,
//! then show that the very same objects are simultaneously reachable
//! through tags and full-text search — the hierarchy is one view, not the
//! canonical one (§2.2, §3.1.1).
//!
//! ```sh
//! cargo run --example posix_compat
//! ```

use std::sync::Arc;

use hfad::core::{Hfad, HfadConfig};
use hfad::posix::PosixFs;
use hfad::TagValue;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hfad = Arc::new(Hfad::in_memory(64 * 1024 * 1024, HfadConfig::default())?);
    let fs = PosixFs::new(Arc::clone(&hfad))?;

    // A perfectly ordinary POSIX session.
    fs.mkdir_all("/home/margo/projects/hfad")?;
    fs.create("/home/margo/projects/hfad/notes.txt")?;
    fs.write(
        "/home/margo/projects/hfad/notes.txt",
        0,
        b"hierarchical namespaces conflate naming with access",
    )?;
    fs.create("/home/margo/projects/hfad/todo.txt")?;
    fs.append("/home/margo/projects/hfad/todo.txt", b"- write the paper\n")?;
    fs.append(
        "/home/margo/projects/hfad/todo.txt",
        b"- bury the hierarchy\n",
    )?;

    println!("ls /home/margo/projects/hfad:");
    for entry in fs.readdir("/home/margo/projects/hfad")? {
        let stat = fs.stat(&format!("/home/margo/projects/hfad/{}", entry.name))?;
        println!(
            "  {}{:<12} {:>5} bytes",
            if entry.is_dir { "d " } else { "- " },
            entry.name,
            stat.size
        );
    }

    // mv and rm behave as expected.
    fs.rename(
        "/home/margo/projects/hfad/todo.txt",
        "/home/margo/projects/hfad/TODO",
    )?;
    assert!(fs.exists("/home/margo/projects/hfad/TODO"));
    fs.unlink("/home/margo/projects/hfad/TODO")?;
    assert!(!fs.exists("/home/margo/projects/hfad/TODO"));

    // Renaming a whole directory re-tags the subtree.
    fs.rename("/home/margo/projects", "/home/margo/work")?;
    println!(
        "after mv projects work: notes at /home/margo/work/hfad/notes.txt -> {}",
        fs.exists("/home/margo/work/hfad/notes.txt")
    );

    // The same object, through the native API: tag it and find it by
    // content — no path needed.
    let notes = fs.stat("/home/margo/work/hfad/notes.txt")?.oid;
    hfad.add_tags(notes, &[TagValue::udef("position-paper")])?;
    hfad.index_content(notes, &hfad.read_all(notes)?)?;
    hfad.sync_index(); // indexing runs in the background
    println!(
        "lookup UDEF/position-paper -> {:?}",
        hfad.lookup(&[TagValue::udef("position-paper")])?
    );
    println!(
        "search 'conflate naming'   -> {:?}",
        hfad.search_text(&["conflate", "naming"])?
    );

    // Where is the file "physically"? Nobody needs to know (§2.1) — but
    // every name it carries is one call away.
    for tag in hfad.tags_of(notes)? {
        println!("  name: {tag}");
    }
    Ok(())
}
