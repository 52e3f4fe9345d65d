//! Photo library: the paper's motivating workload (§1) — "users may have
//! many gigabytes worth of photo, video, and audio libraries", and "one
//! might want to access a picture … based on who is in it, when it was
//! taken, where it was taken".
//!
//! The example builds a synthetic photo library, registers a plug-in image
//! index (open question 1 of §4), and answers exactly those questions.
//!
//! ```sh
//! cargo run --example photo_library
//! ```

use std::sync::Arc;

use hfad::core::{AttributeIndex, Hfad, HfadConfig};
use hfad::workload::photo_library;
use hfad::{Tag, TagValue};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = Hfad::in_memory(256 * 1024 * 1024, HfadConfig::default())?;

    // A plug-in index for image dimensions — an "arbitrary index type" the
    // built-in key/value and full-text stores do not cover.
    let image_index = Arc::new(AttributeIndex::new("IMAGE"));
    fs.register_index(image_index);
    let image_tag = Tag::Custom("IMAGE".to_string());

    // Import a synthetic library of 2 000 photos with people/place/year tags.
    let photos = photo_library(2_000, 42);
    let mut imported = 0usize;
    for (i, photo) in photos.iter().enumerate() {
        let mut tags: Vec<TagValue> = vec![TagValue::posix(photo.path.clone())];
        for (tag, value) in &photo.tags {
            tags.push(TagValue::new(Tag::parse(tag), value.clone()));
        }
        // Alternate between two synthetic resolutions for the plug-in index.
        let resolution = if i % 3 == 0 { "1920x1080" } else { "640x480" };
        tags.push(TagValue::new(image_tag.clone(), resolution));
        fs.create_with_content(&tags, photo.text.as_bytes())?;
        imported += 1;
    }
    // Captions are indexed by background jobs; let them finish so the
    // posting count below is complete.
    fs.sync_index();
    println!("imported {imported} photos");

    // Who is in it? Where was it taken? When?
    let margo_beach = fs.lookup(&[TagValue::user("margo"), TagValue::udef("beach")])?;
    println!("photos of margo at the beach: {}", margo_beach.len());

    let margo_beach_2008 = fs.lookup(&[
        TagValue::user("margo"),
        TagValue::udef("beach"),
        TagValue::udef("2008"),
    ])?;
    println!("…taken in 2008:               {}", margo_beach_2008.len());

    // Combine a plug-in index with built-in tags: high-resolution museum shots.
    let hires_museum = fs.lookup(&[
        TagValue::new(image_tag.clone(), "1920x1080"),
        TagValue::udef("museum"),
    ])?;
    println!("high-res museum photos:       {}", hires_museum.len());

    // Iterative refinement, the "current directory" of a search-based world.
    let cursor = fs.search().refine(TagValue::udef("mountain"));
    println!("mountain photos:              {}", cursor.count()?);
    let cursor = cursor.refine(TagValue::user("nick"));
    println!("…with nick:                   {}", cursor.count()?);

    // The hierarchy never went away for legacy tools: every photo still has
    // its POSIX name.
    let by_path = fs.lookup(&[TagValue::posix(photos[0].path.clone())])?;
    println!("lookup by POSIX path:         {:?}", by_path);

    // A photo can join a new "album" (collection) without being copied or
    // moved: membership is a tag.
    if let Some(&first) = margo_beach.first() {
        fs.add_tags(first, &[TagValue::udef("album-best-of-2009")])?;
        let album = fs.lookup(&[TagValue::udef("album-best-of-2009")])?;
        println!("album best-of-2009 size:      {}", album.len());
    }

    let stats = fs.stats();
    println!(
        "objects: {}, index postings: {}",
        stats.store.objects,
        stats.indices.iter().map(|(_, s)| s.postings).sum::<u64>()
    );
    Ok(())
}
