//! Cross-crate integration tests: the full stack (storage → B-tree → OSD →
//! indices → hFAD → POSIX veneer) exercised end to end, plus equivalence
//! checks against the hierarchical baseline.

use std::sync::Arc;

use hfad::btree::TreeContext;
use hfad::core::{AttributeIndex, Hfad, HfadConfig, INDEX_SHARDS};
use hfad::hierfs::{HierConfig, HierFs, SearchIndex};
use hfad::index::FullTextIndex;
use hfad::posix::PosixFs;
use hfad::storage::{BlockDevice, BuddyAllocator, MemDevice};
use hfad::workload::{documents, mail_store, photo_library, CorpusConfig};
use hfad::{Tag, TagValue};

fn new_fs(capacity_mb: u64) -> Hfad {
    Hfad::in_memory(capacity_mb * 1024 * 1024, HfadConfig::default()).unwrap()
}

#[test]
fn full_stack_photo_workflow() {
    let fs = new_fs(128);
    let photos = photo_library(500, 3);
    let mut oids = Vec::new();
    for photo in &photos {
        let mut tags = vec![TagValue::posix(photo.path.clone())];
        for (tag, value) in &photo.tags {
            tags.push(TagValue::new(Tag::parse(tag), value.clone()));
        }
        oids.push(fs.create_with_content(&tags, &photo.content()).unwrap());
    }
    assert_eq!(fs.object_count(), 500);

    // Every photo is reachable by path and by at least one tag.
    for (photo, oid) in photos.iter().zip(&oids) {
        assert_eq!(
            fs.lookup(&[TagValue::posix(photo.path.clone())]).unwrap(),
            vec![*oid]
        );
    }
    // Conjunctions behave like set intersection over the library.
    let beach = fs.lookup(&[TagValue::udef("beach")]).unwrap();
    let margo = fs.lookup(&[TagValue::user("margo")]).unwrap();
    let both = fs
        .lookup(&[TagValue::udef("beach"), TagValue::user("margo")])
        .unwrap();
    assert!(both.len() <= beach.len().min(margo.len()));
    for oid in &both {
        assert!(beach.contains(oid) && margo.contains(oid));
    }
    // Deleting every beach photo removes them from all indices.
    for oid in &beach {
        fs.delete(*oid).unwrap();
    }
    assert!(fs.lookup(&[TagValue::udef("beach")]).unwrap().is_empty());
    assert_eq!(fs.object_count(), 500 - beach.len() as u64);
}

/// Lazy indexing through `Hfad` finds, term by term, exactly the objects
/// that a `FullTextIndex` fed eagerly (inline, at the index layer) finds.
#[test]
fn lazy_and_eager_indexing_agree() {
    let docs = documents(&CorpusConfig {
        items: 200,
        words_per_item: 20,
        ..Default::default()
    });
    let device = Arc::new(MemDevice::with_capacity(128 * 1024 * 1024));
    let allocator = Arc::new(BuddyAllocator::new(0, device.block_count()));
    let inline = FullTextIndex::new(TreeContext::new(device, allocator), INDEX_SHARDS).unwrap();
    let lazy = new_fs(128);
    for item in &docs {
        let content = item.content();
        let oid = lazy
            .create_with_content(&[TagValue::posix(item.path.clone())], &content)
            .unwrap();
        inline
            .index_document(oid, &String::from_utf8_lossy(&content))
            .unwrap();
    }
    lazy.sync_index();
    for term in ["storage", "index", "cache", "network"] {
        let expected = inline.query_all(&[term]).unwrap();
        assert!(!expected.is_empty(), "term {term} occurs in the corpus");
        assert_eq!(lazy.search_text(&[term]).unwrap(), expected, "term {term}");
    }
}

/// A ~400-term text: `marker` once, then 399 words shared by every text.
fn long_text(marker: &str) -> String {
    let mut words = vec![marker.to_string()];
    words.extend((1..400).map(|w| format!("common{w}")));
    words.join(" ")
}

/// `delete` and `reindex` drop postings while the object's own indexing
/// job may still be queued on the engine; neither may let that job re-add
/// them afterwards.
#[test]
fn delete_and_reindex_win_over_queued_lazy_indexing() {
    let fs = new_fs(128);
    let mut ghosts = 0;
    for round in 0..200 {
        let marker = format!("ghost{round}");
        let oid = fs.create(&[]).unwrap();
        fs.index_content(oid, long_text(&marker).as_bytes())
            .unwrap();
        fs.delete(oid).unwrap();
        fs.sync_index();
        if !fs.search_text(&[&marker]).unwrap().is_empty() {
            ghosts += 1;
        }
    }
    assert_eq!(ghosts, 0, "deleted objects still found, of 200");
    assert!(fs.search_text(&["common1"]).unwrap().is_empty());

    let mut stale = 0;
    for round in 0..200 {
        let (old, new) = (format!("stale{round}"), format!("fresh{round}"));
        let oid = fs
            .create_with_content(&[], long_text(&old).as_bytes())
            .unwrap();
        fs.truncate(oid, 0).unwrap();
        fs.write(oid, 0, long_text(&new).as_bytes()).unwrap();
        fs.reindex(oid).unwrap();
        fs.sync_index();
        if !fs.search_text(&[&old]).unwrap().is_empty() {
            stale += 1;
        }
        assert_eq!(fs.search_text(&[&new]).unwrap(), vec![oid]);
    }
    assert_eq!(
        stale, 0,
        "reindexed objects still found by old terms, of 200"
    );
}

#[test]
fn posix_veneer_and_hierfs_agree_on_a_mail_corpus() {
    let mail = mail_store(300, 9);
    let hfad = Arc::new(new_fs(128));
    let posix = PosixFs::new(hfad).unwrap();
    let hier = HierFs::in_memory(128 * 1024 * 1024, HierConfig::default()).unwrap();

    for dir in hfad::workload::directories(&mail) {
        posix.mkdir_all(&dir).unwrap();
        hier.mkdir_all(&dir).unwrap();
    }
    for item in &mail {
        posix.create(&item.path).unwrap();
        posix.write(&item.path, 0, &item.content()).unwrap();
        hier.create_file(&item.path).unwrap();
        hier.write(&item.path, 0, &item.content()).unwrap();
    }
    // Same contents, same directory listings, same stat sizes.
    for item in mail.iter().step_by(17) {
        assert_eq!(
            posix.read_all(&item.path).unwrap(),
            hier.read_all(&item.path).unwrap(),
            "{}",
            item.path
        );
        assert_eq!(
            posix.stat(&item.path).unwrap().size,
            hier.stat(&item.path).unwrap().size
        );
    }
    for folder in ["/mail/inbox", "/mail/sent", "/mail/archive", "/mail/drafts"] {
        let posix_names: Vec<String> = posix
            .readdir(folder)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        let hier_names: Vec<String> = hier
            .readdir(folder)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(posix_names, hier_names, "{folder}");
    }
}

#[test]
fn search_results_match_between_hfad_and_baseline_search_index() {
    let docs = documents(&CorpusConfig {
        items: 150,
        words_per_item: 30,
        dir_depth: 2,
        ..Default::default()
    });
    // hFAD with lazy content indexing, synced before the queries.
    let fs = new_fs(128);
    let mut path_of = std::collections::HashMap::new();
    for item in &docs {
        let oid = fs
            .create_with_content(&[TagValue::posix(item.path.clone())], &item.content())
            .unwrap();
        path_of.insert(oid, item.path.clone());
    }
    // Baseline with the layered search index.
    let hier = HierFs::in_memory(128 * 1024 * 1024, HierConfig::noatime()).unwrap();
    for dir in hfad::workload::directories(&docs) {
        hier.mkdir_all(&dir).unwrap();
    }
    let idx = SearchIndex::new(&hier).unwrap();
    for item in &docs {
        hier.create_file(&item.path).unwrap();
        hier.write(&item.path, 0, &item.content()).unwrap();
        idx.index_file(&hier, &item.path).unwrap();
    }
    fs.sync_index();
    // Both systems must find exactly the same set of documents.
    for query in [vec!["storage"], vec!["cache", "memory"], vec!["nosuchterm"]] {
        let mut hfad_paths: Vec<String> = fs
            .search_text(&query)
            .unwrap()
            .into_iter()
            .map(|oid| path_of[&oid].clone())
            .collect();
        hfad_paths.sort();
        let mut hier_paths = idx.query_all(&query).unwrap();
        hier_paths.sort();
        assert_eq!(hfad_paths, hier_paths, "query {query:?}");
    }
}

#[test]
fn byte_level_operations_survive_mixed_use() {
    let fs = new_fs(64);
    let oid = fs
        .create_with_content(&[TagValue::posix("/log")], b"0123456789")
        .unwrap();
    fs.insert(oid, 5, b"abcde").unwrap();
    fs.append(oid, b"XYZ").unwrap();
    fs.truncate_range(oid, 0, 5).unwrap();
    assert_eq!(fs.read_all(oid).unwrap(), b"abcde56789XYZ".to_vec());
    fs.truncate(oid, 5).unwrap();
    assert_eq!(fs.read_all(oid).unwrap(), b"abcde".to_vec());
    // The object is still reachable by its name after all that surgery.
    assert_eq!(fs.lookup(&[TagValue::posix("/log")]).unwrap(), vec![oid]);
}

#[test]
fn plugin_index_composes_with_posix_veneer() {
    let hfad = Arc::new(new_fs(64));
    hfad.register_index(Arc::new(AttributeIndex::new("IMAGE")));
    let posix = PosixFs::new(Arc::clone(&hfad)).unwrap();
    posix.mkdir_all("/photos").unwrap();
    let oid = posix.create("/photos/sunset.jpg").unwrap();
    posix.write("/photos/sunset.jpg", 0, b"jpeg bytes").unwrap();
    hfad.add_tags(
        oid,
        &[TagValue::new(Tag::Custom("IMAGE".into()), "1920x1080")],
    )
    .unwrap();
    // Reachable through the plug-in tag, the POSIX veneer and readdir.
    assert_eq!(
        hfad.lookup(&[TagValue::new(Tag::Custom("IMAGE".into()), "1920x1080")])
            .unwrap(),
        vec![oid]
    );
    assert_eq!(posix.readdir("/photos").unwrap().len(), 1);
    assert_eq!(posix.stat("/photos/sunset.jpg").unwrap().oid, oid);
}

#[test]
fn concurrent_mixed_workload_is_consistent() {
    let fs = Arc::new(new_fs(256));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let tag = format!("worker-{t}");
                let oid = fs
                    .create_with_content(
                        &[
                            TagValue::posix(format!("/w{t}/item-{i}")),
                            TagValue::udef(tag.clone()),
                        ],
                        format!("content {t} {i} shared corpus").as_bytes(),
                    )
                    .unwrap();
                assert_eq!(fs.read(oid, 0, 7).unwrap(), b"content".to_vec());
                if i % 10 == 9 {
                    fs.delete(oid).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(fs.object_count(), 4 * 45);
    fs.sync_index();
    for t in 0..4u64 {
        assert_eq!(
            fs.lookup(&[TagValue::udef(format!("worker-{t}"))])
                .unwrap()
                .len(),
            45
        );
    }
    assert_eq!(fs.search_text(&["shared", "corpus"]).unwrap().len(), 180);
}
