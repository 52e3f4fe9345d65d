//! Smoke test for the umbrella crate's public surface: the re-exports named
//! in the crate docs must construct and round-trip a tagged object without
//! reaching into any sub-crate directly.

use hfad::{Hfad, HfadConfig, HfadError, ObjectId, Query, Tag, TagValue};

#[test]
fn umbrella_reexports_round_trip_a_tagged_object() {
    let fs = Hfad::in_memory(64 * 1024 * 1024, HfadConfig::default()).unwrap();

    let oid: ObjectId = fs
        .create_with_content(
            &[
                TagValue::posix("/reports/q3.txt"),
                TagValue::new(Tag::parse("UDEF"), "finance"),
            ],
            b"quarterly revenue exceeded the storage budget",
        )
        .unwrap();

    // Reachable through every name it carries.
    assert_eq!(
        fs.lookup(&[TagValue::posix("/reports/q3.txt")]).unwrap(),
        vec![oid]
    );
    assert_eq!(fs.lookup(&[TagValue::udef("finance")]).unwrap(), vec![oid]);

    // Content is indexed in the background; wait for it before searching.
    fs.sync_index();

    // The structured query API agrees with direct lookup.
    let query = Query::And(vec![
        Query::term(Tag::Udef, "finance"),
        Query::fulltext(&["revenue", "storage"]),
    ]);
    assert_eq!(fs.query(&query).unwrap(), vec![oid]);

    // Content round-trips bytewise.
    assert_eq!(
        fs.read_all(oid).unwrap(),
        b"quarterly revenue exceeded the storage budget".to_vec()
    );

    // Errors surface through the umbrella error type.
    assert!(matches!(
        fs.lookup_one(&[TagValue::posix("/no/such/path")]),
        Err(HfadError::NotFound(_))
    ));

    // Deleting removes every name.
    fs.delete(oid).unwrap();
    assert!(fs.lookup(&[TagValue::udef("finance")]).unwrap().is_empty());
    assert_eq!(fs.object_count(), 0);
}
