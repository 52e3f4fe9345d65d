//! The closed-loop clients: a writer that ingests and retires documents
//! over a retention window, and a reader that resolves names against a
//! fixed set of documents and checks every answer against the shadow
//! model.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use hfad_core::{ObjectId, Query, TagValue};
use hfad_storage::fnv1a;
use hfad_workload::Zipf;
use rand::Rng;

use crate::corpus::{DocSource, Shadow};
use crate::rng::{permutation, seeded};
use crate::stats::Latencies;
use crate::store::Store;
use crate::trace::Tracer;
use crate::Res;

/// Bytes a `path_open` reads from the start of the object.
pub const OPEN_BYTES: u64 = 4096;

/// Skew of object, tag and term popularity.
const THETA: f64 = 0.9;

/// Streams of the seed: the popularity ranking, and one per reader.
const POPULARITY_STREAM: u64 = 0x7a6b;
const READER_STREAM: u64 = 0xc11e_0000;

/// One document in this many can be the target of a `path_open`: with an
/// extent map and a data block each, a quarter of 4000 documents is a
/// read set of 2000 blocks, half the 4096-block cache.
const OPEN_SET_SHARE: usize = 4;

/// Counts of operations attempted and failed; a wrong answer is a failed
/// operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `problem` says what went wrong, if anything.
    /// The first few problems are shown, the rest only counted.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("hfad_e2e: failed op: {problem}");
            }
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A writer client. Documents `first, first + stride, …` of the source
/// are its own, so writers never collide on a name.
pub struct Writer {
    next: u64,
    stride: u64,
    /// Live documents, oldest first: `(object, document index)`.
    pub window: VecDeque<(ObjectId, u64)>,
    /// Retired documents, oldest first: `(object, document index)`.
    pub retired: Vec<(ObjectId, u64)>,
    pub pair_ns: Latencies,
    pub ingest_ns: Latencies,
    pub retire_ns: Latencies,
    pub tally: Tally,
    /// User bytes written and transactions committed by timed pairs.
    pub bytes: u64,
    pub commits: u64,
    pub tracer: Tracer,
}

impl Writer {
    pub fn new(first: u64, stride: u64) -> Self {
        Writer {
            next: first,
            stride,
            window: VecDeque::new(),
            retired: Vec::new(),
            pair_ns: Latencies::default(),
            ingest_ns: Latencies::default(),
            retire_ns: Latencies::default(),
            tally: Tally::default(),
            bytes: 0,
            commits: 0,
            tracer: Tracer::default(),
        }
    }

    /// Index of the next document this writer would ingest.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Set-up: ingests `n` documents into the window, untimed per
    /// operation. Any failure aborts the run.
    pub fn fill(&mut self, store: &Store, source: &DocSource, n: usize) -> Res<()> {
        for _ in 0..n {
            let index = self.next;
            self.next += self.stride;
            let doc = source.doc(index);
            let oid = store.ingest(&doc, &doc.content(), &mut self.tracer, None)?;
            self.window.push_back((oid, index));
        }
        Ok(())
    }

    /// One timed ingest-and-retire pair: the next document goes in, the
    /// oldest goes out.
    pub fn pair(&mut self, store: &Store, source: &DocSource) {
        let index = self.next;
        self.next += self.stride;
        let doc = source.doc(index);
        let content = doc.content();
        let op = self.tracer.sample();

        let start = Instant::now();
        let ingested = store.ingest(&doc, &content, &mut self.tracer, op);
        let mid = Instant::now();
        let ingest_ns = (mid - start).as_nanos() as u64;
        match ingested {
            Ok(oid) => {
                self.window.push_back((oid, index));
                self.bytes += content.len() as u64;
                self.commits += 1;
                self.ingest_ns.push(ingest_ns);
                self.tally.check(None);
            }
            Err(e) => {
                self.tally
                    .check(Some(format!("ingest of document {index}: {e}")));
                return;
            }
        }
        let Some((oldest, oldest_index)) = self.window.pop_front() else {
            return;
        };
        let start = Instant::now();
        let retired = store.retire(oldest, &mut self.tracer, op);
        let retire_ns = start.elapsed().as_nanos() as u64;
        match retired {
            Ok(()) => {
                self.retired.push((oldest, oldest_index));
                self.retire_ns.push(retire_ns);
                self.pair_ns.push(ingest_ns + retire_ns);
                self.tally.check(None);
            }
            Err(e) => self
                .tally
                .check(Some(format!("retire of document {oldest_index}: {e}"))),
        }
    }

    pub fn run_until(&mut self, store: &Store, source: &DocSource, deadline: Instant) {
        while Instant::now() < deadline {
            self.pair(store, source);
        }
    }
}

/// A fixed set of documents `0..n` in a store, with everything needed to
/// check an answer about them.
pub struct StaticSet {
    pub shadow: Shadow,
    /// Object of each document, by document index.
    pub oids: Vec<ObjectId>,
    /// Content of each document, by document index.
    pub contents: Vec<Vec<u8>>,
    members: HashSet<ObjectId>,
}

impl StaticSet {
    pub fn new(shadow: Shadow, oids: Vec<ObjectId>) -> Self {
        let contents = shadow.docs.iter().map(|d| d.content()).collect();
        let members = oids.iter().copied().collect();
        StaticSet {
            shadow,
            oids,
            contents,
            members,
        }
    }

    pub fn live_bytes(&self) -> u64 {
        self.contents.iter().map(|c| c.len() as u64).sum()
    }

    fn objects(&self, docs: &[u32]) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = docs.iter().map(|&d| self.oids[d as usize]).collect();
        out.sort_unstable();
        out
    }
}

/// One resolve round before objects are known: which document to open,
/// which names to look up, which terms to search.
#[derive(Debug, Clone)]
pub struct RoundPlan {
    pub open_doc: u32,
    pub lookup: Vec<TagValue>,
    pub lookup_docs: Vec<u32>,
    pub search: [String; 2],
    pub search_docs: Vec<u32>,
}

fn open_set_len(documents: usize) -> usize {
    (documents / OPEN_SET_SHARE).max(1)
}

/// Documents by popularity rank, the same for every client of a seed.
fn popularity(seed: u64, documents: usize) -> Vec<usize> {
    permutation(documents, &mut seeded(seed, POPULARITY_STREAM))
}

/// The documents `path_open` can target, most popular first.
fn open_set(seed: u64, documents: usize) -> Vec<usize> {
    let mut rank = popularity(seed, documents);
    rank.truncate(open_set_len(documents));
    rank
}

/// Reads what every `path_open` target will be read for, once, so the
/// timed region starts with the read set in the block cache.
pub fn warm_open_set(store: &Store, set: &StaticSet, seed: u64) -> Res<()> {
    for doc in open_set(seed, set.oids.len()) {
        store.fs.read(set.oids[doc], 0, OPEN_BYTES)?;
    }
    Ok(())
}

/// A client's list of rounds, a pure function of the seed.
pub fn plan_rounds(
    seed: u64,
    client: u64,
    source: &DocSource,
    shadow: &Shadow,
    len: usize,
) -> Vec<RoundPlan> {
    let n = shadow.docs.len();
    let mut rng = seeded(seed, READER_STREAM + client);
    let zipf = Zipf::new(n, THETA);
    let open_zipf = Zipf::new(open_set_len(n), THETA);
    // Popularity rank → document, so the popular ones are not simply the
    // first ingested.
    let rank = popularity(seed, n);
    let with_udef: Vec<usize> = (0..n)
        .filter(|&d| shadow.docs[d].tags.iter().any(|t| t.tag.name() == "UDEF"))
        .collect();
    (0..len)
        .map(|_| {
            let open_doc = rank[open_zipf.sample(&mut rng)] as u32;
            // A UDEF ∧ USER conjunction taken from one document, so at
            // least that document matches. Documents are drawn evenly;
            // the corpus already gives its tags Zipf popularity.
            let lookup = if with_udef.is_empty() {
                // A set so small that no document carries a UDEF tag.
                vec![shadow.docs[0].tags[0].clone()]
            } else {
                let tags = &shadow.docs[with_udef[rng.gen_range(0..with_udef.len())]].tags;
                let named = |name: &str| -> Vec<&TagValue> {
                    tags.iter().filter(|t| t.tag.name() == name).collect()
                };
                let (udef, user) = (named("UDEF"), named("USER"));
                let mut pairs = vec![udef[rng.gen_range(0..udef.len())].clone()];
                pairs.extend(user.first().map(|&t| t.clone()));
                pairs
            };
            let lookup_docs = shadow.with_tags(&lookup);
            // One head term and one long-tail term of one document, in
            // that order: the order the query is evaluated in.
            let target = rank[zipf.sample(&mut rng)];
            let [long_tail, _] = source.long_tail_tokens(target as u64);
            let search = [shadow.head_term(target), long_tail];
            let search_docs = shadow.with_terms(&[&search[0], &search[1]]);
            RoundPlan {
                open_doc,
                lookup,
                lookup_docs,
                search,
                search_docs,
            }
        })
        .collect()
}

/// Hash of the rounds of one or more clients: the same seed gives the
/// same hash.
pub fn hash_rounds<'a>(rounds: impl IntoIterator<Item = &'a RoundPlan>) -> u64 {
    let mut bytes = Vec::new();
    for round in rounds {
        bytes.extend(round.open_doc.to_le_bytes());
        for pair in &round.lookup {
            bytes.extend_from_slice(pair.to_string().as_bytes());
        }
        for term in &round.search {
            bytes.extend_from_slice(term.as_bytes());
        }
        bytes.extend((round.lookup_docs.len() as u64).to_le_bytes());
        bytes.extend((round.search_docs.len() as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

/// How a reader judges a result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The store holds only the fixed set: the answer is exactly the
    /// model's.
    Exact,
    /// Other documents come and go beside the fixed set: the answer
    /// holds the model's, and nothing else from the fixed set.
    Superset,
}

struct Round {
    path: [TagValue; 1],
    open_doc: usize,
    lookup: Vec<TagValue>,
    lookup_hits: Vec<ObjectId>,
    search: [String; 2],
    search_hits: Vec<ObjectId>,
}

/// A reader client: each round opens one object by path, resolves one
/// tag conjunction and runs one two-term search.
pub struct Reader<'a> {
    store: &'a Store,
    set: &'a StaticSet,
    rounds: Vec<Round>,
    expect: Expect,
    next: usize,
    pub round_ns: Latencies,
    pub open_ns: Latencies,
    pub lookup_ns: Latencies,
    pub search_ns: Latencies,
    pub tally: Tally,
    /// `read` calls issued.
    pub reads: u64,
    /// Postings the traced ladders fetched, and hits they returned.
    pub postings: u64,
    pub hits: u64,
    pub tracer: Tracer,
}

impl<'a> Reader<'a> {
    pub fn new(store: &'a Store, set: &'a StaticSet, plans: &[RoundPlan], expect: Expect) -> Self {
        let rounds = plans
            .iter()
            .map(|plan| Round {
                path: [set.shadow.docs[plan.open_doc as usize].tags[0].clone()],
                open_doc: plan.open_doc as usize,
                lookup: plan.lookup.clone(),
                lookup_hits: set.objects(&plan.lookup_docs),
                search: plan.search.clone(),
                search_hits: set.objects(&plan.search_docs),
            })
            .collect();
        Reader {
            store,
            set,
            rounds,
            expect,
            next: 0,
            round_ns: Latencies::default(),
            open_ns: Latencies::default(),
            lookup_ns: Latencies::default(),
            search_ns: Latencies::default(),
            tally: Tally::default(),
            reads: 0,
            postings: 0,
            hits: 0,
            tracer: Tracer::default(),
        }
    }

    /// Ends the warm-up: what was measured so far is dropped (the tally
    /// of checked answers is kept) and `tracer` records from here on.
    pub fn start_measuring(&mut self, tracer: Tracer) {
        self.round_ns = Latencies::default();
        self.open_ns = Latencies::default();
        self.lookup_ns = Latencies::default();
        self.search_ns = Latencies::default();
        self.reads = 0;
        self.tracer = tracer;
    }

    /// The paths this reader opens, in order (for the hierarchical
    /// reference).
    pub fn open_paths(&self) -> impl Iterator<Item = (&str, usize)> {
        self.rounds
            .iter()
            .map(|r| (r.path[0].value.as_str(), r.open_doc))
    }

    fn judge(&self, what: &str, got: &[ObjectId], want: &[ObjectId]) -> Option<String> {
        let ok = match self.expect {
            Expect::Exact => got == want,
            Expect::Superset => {
                want.iter().all(|o| got.binary_search(o).is_ok())
                    && got
                        .iter()
                        .all(|o| !self.set.members.contains(o) || want.binary_search(o).is_ok())
            }
        };
        (!ok).then(|| {
            format!(
                "{what}: {} objects returned, {} expected ({:?})",
                got.len(),
                want.len(),
                self.expect
            )
        })
    }

    /// One timed round. Answers are checked outside the timed spans.
    pub fn round(&mut self) {
        let store: &'a Store = self.store;
        let fs = &store.fs;
        let round = &self.rounds[self.next % self.rounds.len()];
        self.next += 1;
        let op = self.tracer.sample();

        // path_open: the POSIX name to the object, then its first bytes.
        let start = Instant::now();
        let resolved = self
            .tracer
            .span(op, "core.lookup_one", Some("api.path_open"), || {
                fs.lookup_one(&round.path)
            });
        let opened = resolved.and_then(|oid| {
            // `Hfad::read` only forwards to the object store; a traced
            // operation calls the store itself so the span is the OSD's.
            let data = match op {
                Some(_) => self
                    .tracer
                    .span(op, "osd.read", Some("api.path_open"), || {
                        fs.store().read(oid, 0, OPEN_BYTES)
                    })
                    .map_err(Into::into),
                None => fs.read(oid, 0, OPEN_BYTES),
            };
            data.map(|data| (oid, data))
        });
        let end = Instant::now();
        if let Some(op) = op {
            self.tracer.record(op, "api.path_open", None, start, end);
        }
        let open_ns = (end - start).as_nanos() as u64;
        self.reads += 1;
        let want = &self.set.contents[round.open_doc];
        let want = &want[..want.len().min(OPEN_BYTES as usize)];
        let problem = match &opened {
            Ok((oid, _)) if *oid != self.set.oids[round.open_doc] => {
                Some(format!("path_open {}: wrong object", round.path[0]))
            }
            Ok((_, data)) if data != want => {
                Some(format!("path_open {}: wrong bytes", round.path[0]))
            }
            Ok(_) => None,
            Err(e) => Some(format!("path_open {}: {e}", round.path[0])),
        };
        self.tally.check(problem);

        // lookup: a conjunction of two tag/value pairs.
        let start = Instant::now();
        let hits = fs.lookup(&round.lookup);
        let lookup_ns = start.elapsed().as_nanos() as u64;
        let problem = match &hits {
            Ok(hits) => self.judge("lookup", hits, &round.lookup_hits),
            Err(e) => Some(format!("lookup: {e}")),
        };
        self.tally.check(problem);

        // search: a conjunction of a head term and a long-tail term.
        let terms = [round.search[0].as_str(), round.search[1].as_str()];
        let start = Instant::now();
        let hits = fs.search_text(&terms);
        let search_ns = start.elapsed().as_nanos() as u64;
        let problem = match &hits {
            Ok(hits) => self.judge("search", hits, &round.search_hits),
            Err(e) => Some(format!("search: {e}")),
        };
        self.tally.check(problem);

        self.open_ns.push(open_ns);
        self.lookup_ns.push(lookup_ns);
        self.search_ns.push(search_ns);
        self.round_ns.push(open_ns + lookup_ns + search_ns);

        if let Some(op) = op {
            let (mut postings, mut returned) = (0u64, 0u64);
            self.tracer.ladder(|tracer| {
                // Hfad::lookup → Query::evaluate → one index lookup per
                // pair, each level called with the round's own input.
                let full = tracer.span(Some(op), "core.lookup", None, || fs.lookup(&round.lookup));
                let query = Query::conjunction(round.lookup.clone());
                let _ = tracer.span(Some(op), "index.evaluate", Some("core.lookup"), || {
                    query.evaluate(fs.registry())
                });
                for pair in &round.lookup {
                    let found = tracer.span(
                        Some(op),
                        "index.term_lookup",
                        Some("index.evaluate"),
                        || fs.registry().lookup(&pair.tag, &pair.value),
                    );
                    postings += found.map_or(0, |f| f.len() as u64);
                }
                returned += full.map_or(0, |f| f.len() as u64);
                // Hfad::search_text → one full-text lookup per term.
                let full = tracer.span(Some(op), "core.search_text", None, || {
                    fs.search_text(&terms)
                });
                for term in terms {
                    let found = tracer.span(
                        Some(op),
                        "index.fulltext_term",
                        Some("core.search_text"),
                        || fs.fulltext().lookup_term(term),
                    );
                    postings += found.map_or(0, |f| f.len() as u64);
                }
                returned += full.map_or(0, |f| f.len() as u64);
            });
            self.postings += postings;
            self.hits += returned;
        }
    }

    pub fn run_until(&mut self, deadline: Instant) {
        while Instant::now() < deadline {
            self.round();
        }
    }
}
