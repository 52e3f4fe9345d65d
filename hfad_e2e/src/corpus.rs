//! The benchmark's inputs and its shadow model of them.
//!
//! Documents come from `hfad_workload::documents` (Zipf-skewed terms and
//! tags, 1–3 KiB), each extended with two long-tail tokens so that a
//! full-text conjunction can be selective. Photo objects take their sizes
//! from `hfad_workload::photo_library`; their bytes are a hash of the
//! position, so any range can be regenerated and checked without keeping
//! a copy.

use std::collections::HashMap;

use hfad_core::{Tag, TagValue};
use hfad_index::tokenize;
use hfad_storage::fnv1a;
use hfad_workload::{documents, photo_library, CorpusConfig, Item};

use crate::rng::mix;

/// Documents generated up front; document `i` reuses the text and tags of
/// pool entry `i % POOL` under its own path and long-tail tokens, so an
/// unbounded ingest stream needs no unbounded generation.
const POOL: usize = 4096;

/// One document as the benchmark stores it.
#[derive(Debug, Clone)]
pub struct Doc {
    pub path: String,
    pub text: String,
    /// Every name the object carries, the `POSIX` path first.
    pub tags: Vec<TagValue>,
    /// Content length: the text, zero-padded.
    pub size: usize,
}

impl Doc {
    pub fn content(&self) -> Vec<u8> {
        let mut bytes = self.text.clone().into_bytes();
        bytes.resize(self.size, 0);
        bytes
    }
}

/// A seeded, indexable stream of documents.
pub struct DocSource {
    pool: Vec<Item>,
    seed: u64,
    /// Size of the long-tail vocabulary; each token names about
    /// `2 × documents / long_tail` documents.
    long_tail: u64,
}

impl DocSource {
    pub fn new(seed: u64, long_tail: u64) -> Self {
        let pool = documents(&CorpusConfig {
            items: POOL,
            seed,
            ..CorpusConfig::default()
        });
        DocSource {
            pool,
            seed,
            long_tail: long_tail.max(1),
        }
    }

    /// The two long-tail tokens of document `i`.
    pub fn long_tail_tokens(&self, i: u64) -> [String; 2] {
        let token = |k: u64| format!("lt{}", mix(self.seed, 2 * i + k) % self.long_tail);
        [token(0), token(1)]
    }

    pub fn doc(&self, i: u64) -> Doc {
        let item = &self.pool[(i % POOL as u64) as usize];
        let dir = item.path.rsplit_once('/').map_or("", |(dir, _)| dir);
        let path = format!("{dir}/doc-{i:08}.txt");
        let [a, b] = self.long_tail_tokens(i);
        let text = format!("{} {a} {b}", item.text);
        let mut tags = Vec::with_capacity(item.tags.len() + 1);
        tags.push(TagValue::posix(path.clone()));
        for (tag, value) in &item.tags {
            tags.push(TagValue::new(Tag::parse(tag), value.clone()));
        }
        let size = item.size.max(text.len());
        Doc {
            path,
            text,
            tags,
            size,
        }
    }

    /// Hash of documents `0..n`: two runs with the same seed ingest the
    /// same bytes under the same names.
    pub fn hash(&self, n: u64) -> u64 {
        let mut bytes = Vec::new();
        for i in 0..n {
            let doc = self.doc(i);
            bytes.extend_from_slice(&doc.content());
            for tag in &doc.tags {
                bytes.extend_from_slice(tag.to_string().as_bytes());
            }
        }
        fnv1a(&bytes)
    }
}

/// What the benchmark expects of a fixed set of documents `0..n`: for
/// every tag/value pair and every term, the documents that carry it.
/// Terms are cut by the index's own tokenizer, so the model and the
/// system agree on what a term is.
pub struct Shadow {
    pub docs: Vec<Doc>,
    by_tag: HashMap<String, Vec<u32>>,
    by_term: HashMap<String, Vec<u32>>,
}

impl Shadow {
    pub fn new(source: &DocSource, n: usize) -> Self {
        let docs: Vec<Doc> = (0..n as u64).map(|i| source.doc(i)).collect();
        let mut by_tag: HashMap<String, Vec<u32>> = HashMap::new();
        let mut by_term: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, doc) in docs.iter().enumerate() {
            for tag in &doc.tags {
                by_tag.entry(tag.to_string()).or_default().push(i as u32);
            }
            let mut terms = tokenize(&doc.text);
            terms.sort_unstable();
            terms.dedup();
            for term in terms {
                by_term.entry(term).or_default().push(i as u32);
            }
        }
        Shadow {
            docs,
            by_tag,
            by_term,
        }
    }

    /// Documents carrying every one of `pairs`, ascending.
    pub fn with_tags(&self, pairs: &[TagValue]) -> Vec<u32> {
        intersect(pairs.iter().map(|p| self.by_tag.get(&p.to_string())))
    }

    /// Documents containing every one of `terms`, ascending.
    pub fn with_terms(&self, terms: &[&str]) -> Vec<u32> {
        intersect(terms.iter().map(|t| self.by_term.get(*t)))
    }

    /// The term of document `i` that the most documents contain: the
    /// head term of a search aimed at it.
    pub fn head_term(&self, i: usize) -> String {
        tokenize(&self.docs[i].text)
            .into_iter()
            .filter(|t| !is_long_tail(t))
            .max_by_key(|t| (self.by_term.get(t).map_or(0, Vec::len), t.clone()))
            .expect("a document has at least one vocabulary term")
    }

    /// Total tag/value postings: how many keys the key/value index holds.
    pub fn tag_postings(&self) -> usize {
        self.by_tag.values().map(Vec::len).sum()
    }
}

/// Whether `term` is one of the benchmark-added tokens (`lt<number>`).
fn is_long_tail(term: &str) -> bool {
    term.strip_prefix("lt")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

fn intersect<'a>(lists: impl Iterator<Item = Option<&'a Vec<u32>>>) -> Vec<u32> {
    let mut result: Option<Vec<u32>> = None;
    for list in lists {
        let Some(list) = list else {
            return Vec::new();
        };
        result = Some(match result {
            None => list.clone(),
            Some(acc) => acc
                .into_iter()
                .filter(|d| list.binary_search(d).is_ok())
                .collect(),
        });
    }
    result.unwrap_or_default()
}

/// A photo object: a size and the key its bytes derive from.
#[derive(Debug, Clone, Copy)]
pub struct Photo {
    pub size: usize,
    key: u64,
}

/// `n` photo objects of 64–256 KiB.
pub fn photos(seed: u64, n: usize) -> Vec<Photo> {
    photo_library(n, seed)
        .iter()
        .enumerate()
        .map(|(i, item)| Photo {
            // Whole words, so any 8-aligned range regenerates exactly.
            size: item.size & !7,
            key: mix(seed ^ 0x70_686f_746f, i as u64),
        })
        .collect()
}

impl Photo {
    /// Fills `buf` with the photo's bytes from `offset`; both `offset`
    /// and `buf.len()` are multiples of 8.
    pub fn fill(&self, offset: u64, buf: &mut [u8]) {
        debug_assert!(offset.is_multiple_of(8) && buf.len().is_multiple_of(8));
        for (k, word) in buf.chunks_exact_mut(8).enumerate() {
            word.copy_from_slice(&mix(self.key, offset / 8 + k as u64).to_le_bytes());
        }
    }

    /// Whether `data` is exactly the photo's bytes from `offset`.
    pub fn matches(&self, offset: u64, data: &[u8]) -> bool {
        offset.is_multiple_of(8)
            && data.len().is_multiple_of(8)
            && data
                .chunks_exact(8)
                .enumerate()
                .all(|(k, word)| word == mix(self.key, offset / 8 + k as u64).to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_are_a_function_of_the_seed() {
        let a = DocSource::new(11, 64);
        let b = DocSource::new(11, 64);
        let c = DocSource::new(12, 64);
        assert_eq!(a.hash(50), b.hash(50));
        assert_ne!(a.hash(50), c.hash(50));
        // Past the pool, text repeats but names and long-tail tokens do not.
        let (near, far) = (a.doc(3), a.doc(3 + POOL as u64));
        assert_ne!(near.path, far.path);
        assert_eq!(near.tags[1..], far.tags[1..]);
        assert_eq!(near.content().len(), near.size);
        assert!(near.size >= near.text.len());
    }

    #[test]
    fn shadow_model_answers_by_the_index_tokenizer() {
        let source = DocSource::new(3, 8);
        let shadow = Shadow::new(&source, 40);
        let doc = &shadow.docs[7];
        // Its own names find it.
        assert_eq!(shadow.with_tags(&doc.tags[..1]), vec![7]);
        assert!(shadow.with_tags(&doc.tags).contains(&7));
        let [lt, _] = source.long_tail_tokens(7);
        let head = shadow.head_term(7);
        let hits = shadow.with_terms(&[&head, &lt]);
        assert!(hits.contains(&7));
        assert!(hits.len() <= shadow.with_terms(&[&head]).len());
        assert!(shadow.with_terms(&["no-such-term"]).is_empty());
        assert!(shadow.tag_postings() >= 3 * 40);
    }

    #[test]
    fn photo_bytes_regenerate_at_any_aligned_offset() {
        let photos = photos(9, 4);
        let photo = photos[2];
        assert!(photo.size >= 64 * 1024 && photo.size.is_multiple_of(8));
        let mut whole = vec![0u8; 4096];
        photo.fill(0, &mut whole);
        let mut part = vec![0u8; 1024];
        photo.fill(2048, &mut part);
        assert_eq!(whole[2048..3072], part[..]);
        assert!(photo.matches(2048, &part));
        part[5] ^= 1;
        assert!(!photo.matches(2048, &part));
        assert!(!photos[1].matches(0, &whole));
    }
}
