//! # hfad-bench
//!
//! The benchmark harness for the hFAD reproduction. Every table and figure
//! in `EXPERIMENTS.md` is regenerated by the `experiments` binary
//! (`cargo run --release -p hfad_bench --bin experiments`), which calls
//! the implementations in [`experiments`] and prints each [`results::Table`]
//! as text or JSON.

pub mod experiments;
pub mod results;
pub mod setup;
