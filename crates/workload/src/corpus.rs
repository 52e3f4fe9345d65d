//! Synthetic corpora.
//!
//! The paper's motivation is the modern desktop: "users may have many
//! gigabytes worth of photo, video, and audio libraries on a single pc"
//! (§1), plus mail and documents, all of which users find by describing
//! what they want rather than where it lives. The paper publishes no
//! traces, so the experiments run on synthetic corpora whose shape follows
//! that motivation: Zipf-skewed tag and term popularity, a mix of small
//! documents and larger media objects, and realistic path layouts for the
//! hierarchical baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::names::{app_name, sentence, user_name, word};
use crate::zipf::Zipf;

/// One synthetic item: content plus every name it should carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// A POSIX path for the hierarchical baseline / POSIX veneer.
    pub path: String,
    /// Textual content (used for full-text indexing).
    pub text: String,
    /// Binary payload size in bytes (content is padded to this size).
    pub size: usize,
    /// `(tag name, value)` pairs, e.g. `("UDEF", "beach")`.
    pub tags: Vec<(String, String)>,
}

impl Item {
    /// The content bytes: the text followed by zero padding up to `size`.
    pub fn content(&self) -> Vec<u8> {
        let mut bytes = self.text.clone().into_bytes();
        if bytes.len() < self.size {
            bytes.resize(self.size, 0);
        }
        bytes
    }
}

/// Parameters for the document corpus generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusConfig {
    /// Number of items to generate.
    pub items: usize,
    /// Words of text per item.
    pub words_per_item: usize,
    /// Number of distinct user tags drawn per item (0..=this).
    pub max_tags_per_item: usize,
    /// Directory depth for generated paths.
    pub dir_depth: usize,
    /// Files per directory (directory fan-out).
    pub files_per_dir: usize,
    /// Zipf skew for term and tag popularity.
    pub theta: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            items: 1000,
            words_per_item: 40,
            max_tags_per_item: 4,
            dir_depth: 3,
            files_per_dir: 32,
            theta: 0.9,
            seed: 42,
        }
    }
}

/// Generates a mixed document corpus (mail, documents, notes).
pub fn documents(config: &CorpusConfig) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let term_dist = Zipf::new(crate::names::VOCABULARY.len(), config.theta);
    let tag_dist = Zipf::new(24, config.theta);
    let mut items = Vec::with_capacity(config.items);
    for i in 0..config.items {
        let dir_index = i / config.files_per_dir.max(1);
        let mut path = String::new();
        for level in 0..config.dir_depth {
            path.push_str(&format!("/dir{level}-{}", dir_index % (7 + level)));
        }
        path.push_str(&format!("/doc-{i:06}.txt"));
        let text = sentence(config.words_per_item, || term_dist.sample(&mut rng));
        let ntags = rng.gen_range(0..=config.max_tags_per_item);
        let mut tags = Vec::with_capacity(ntags + 2);
        for _ in 0..ntags {
            tags.push((
                "UDEF".to_string(),
                word(tag_dist.sample(&mut rng)).to_string(),
            ));
        }
        tags.push(("USER".to_string(), user_name(&mut rng).to_string()));
        tags.push(("APP".to_string(), app_name(&mut rng).to_string()));
        tags.sort();
        tags.dedup();
        let size = text.len() + rng.gen_range(0..2048);
        items.push(Item {
            path,
            text,
            size,
            tags,
        });
    }
    items
}

/// Generates a photo-library corpus: larger objects, few text terms, rich
/// manual tags (people, places, years) — the §1 motivating workload.
pub fn photo_library(photos: usize, seed: u64) -> Vec<Item> {
    const PEOPLE: &[&str] = &["margo", "nick", "alex", "rivka", "sam", "jo"];
    const PLACES: &[&str] = &["beach", "mountain", "city", "museum", "garden", "concert"];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::with_capacity(photos);
    for i in 0..photos {
        let year = 2005 + (i % 5);
        let place = PLACES[rng.gen_range(0..PLACES.len())];
        let person_count = rng.gen_range(1..=3);
        let mut tags = vec![
            ("UDEF".to_string(), place.to_string()),
            ("UDEF".to_string(), year.to_string()),
            ("APP".to_string(), "photo-manager".to_string()),
        ];
        for _ in 0..person_count {
            tags.push((
                "USER".to_string(),
                PEOPLE[rng.gen_range(0..PEOPLE.len())].to_string(),
            ));
        }
        tags.sort();
        tags.dedup();
        let text = format!("photo {place} {year} img{i:06}");
        items.push(Item {
            path: format!("/photos/{year}/{place}/img-{i:06}.jpg"),
            text,
            size: rng.gen_range(64 * 1024..256 * 1024),
            tags,
        });
    }
    items
}

/// Generates a mail-store corpus: many small text-heavy objects in a flat
/// hierarchy.
pub fn mail_store(messages: usize, seed: u64) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed);
    let term_dist = Zipf::new(crate::names::VOCABULARY.len(), 0.8);
    let mut items = Vec::with_capacity(messages);
    for i in 0..messages {
        let folder = ["inbox", "sent", "archive", "drafts"][i % 4];
        let from = user_name(&mut rng);
        let body = sentence(60, || term_dist.sample(&mut rng));
        let text = format!("from {from} subject {} body {body}", word(i % 50));
        items.push(Item {
            path: format!("/mail/{folder}/msg-{i:07}.eml"),
            text,
            size: 512 + rng.gen_range(0..4096),
            tags: vec![
                ("USER".to_string(), from.to_string()),
                ("APP".to_string(), "mail-client".to_string()),
                ("UDEF".to_string(), folder.to_string()),
            ],
        });
    }
    items
}

/// Distinct directories required by a corpus, shallowest first (for
/// `mkdir -p` setup on the hierarchical baseline and POSIX veneer).
pub fn directories(items: &[Item]) -> Vec<String> {
    let mut dirs = std::collections::BTreeSet::new();
    for item in items {
        let mut prefix = String::new();
        let comps: Vec<&str> = item.path.split('/').filter(|c| !c.is_empty()).collect();
        for comp in &comps[..comps.len().saturating_sub(1)] {
            prefix.push('/');
            prefix.push_str(comp);
            dirs.insert(prefix.clone());
        }
    }
    let mut out: Vec<String> = dirs.into_iter().collect();
    out.sort_by_key(|d| (d.matches('/').count(), d.clone()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_are_deterministic_for_a_seed() {
        let config = CorpusConfig {
            items: 50,
            ..Default::default()
        };
        let a = documents(&config);
        let b = documents(&config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let other = documents(&CorpusConfig {
            seed: 7,
            items: 50,
            ..Default::default()
        });
        assert_ne!(a, other);
    }

    #[test]
    fn document_paths_have_requested_depth() {
        let config = CorpusConfig {
            items: 10,
            dir_depth: 4,
            ..Default::default()
        };
        for item in documents(&config) {
            assert_eq!(item.path.matches('/').count(), 5, "{}", item.path);
            assert!(!item.text.is_empty());
            assert!(item.content().len() >= item.text.len());
        }
    }

    #[test]
    fn photo_library_tags_are_rich() {
        let photos = photo_library(100, 1);
        assert_eq!(photos.len(), 100);
        for photo in &photos {
            assert!(photo.tags.len() >= 3);
            assert!(photo.path.starts_with("/photos/"));
            assert!(photo.size >= 64 * 1024);
            assert!(photo.tags.iter().any(|(t, _)| t == "UDEF"));
        }
    }

    #[test]
    fn mail_store_is_text_heavy() {
        let mail = mail_store(40, 3);
        assert_eq!(mail.len(), 40);
        for msg in &mail {
            assert!(msg.text.split(' ').count() > 50);
            assert!(msg.path.starts_with("/mail/"));
            assert_eq!(msg.tags.len(), 3);
        }
    }

    #[test]
    fn directories_cover_all_parents() {
        let items = photo_library(20, 9);
        let dirs = directories(&items);
        assert!(dirs.contains(&"/photos".to_string()));
        // Parent always sorts before child.
        for (i, dir) in dirs.iter().enumerate() {
            if let Some(parent) = dir.rfind('/').filter(|&p| p > 0).map(|p| &dir[..p]) {
                assert!(
                    dirs[..i].iter().any(|d| d == parent),
                    "{dir} before {parent}"
                );
            }
        }
    }

    #[test]
    fn item_content_pads_to_size() {
        let item = Item {
            path: "/x".into(),
            text: "abc".into(),
            size: 10,
            tags: vec![],
        };
        assert_eq!(item.content().len(), 10);
        assert_eq!(&item.content()[..3], b"abc");
    }
}
