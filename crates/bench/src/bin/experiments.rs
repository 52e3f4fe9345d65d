//! The experiment harness.
//!
//! Regenerates every table and figure listed in `DESIGN.md` /
//! `EXPERIMENTS.md`:
//!
//! ```text
//! experiments                        # run everything at full scale
//! experiments --quick                # run everything at reduced scale
//! experiments --exp e10              # run a single experiment
//! experiments --exp e10 --json       # additionally dump JSON to stdout
//! experiments --json-out results/    # write one BENCH_<ID>.json per table
//! ```
//!
//! `--json-out` is the machine-readable interface for CI and plot
//! scripts: each table is written as `BENCH_<ID>.json` (e.g.
//! `BENCH_E10.json`) containing the raw rows plus the `derived` headline
//! metrics (speedups, ratios) so downstream tooling never parses
//! formatted cells.

use std::process::ExitCode;

use hfad_bench::experiments::{run_all, run_one, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut exp: Option<String> = None;
    let mut json = false;
    let mut json_out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--json" => json = true,
            "--json-out" => {
                json_out = iter.next().cloned();
                if json_out.is_none() {
                    eprintln!("--json-out requires a directory path");
                    return ExitCode::FAILURE;
                }
            }
            "--exp" => {
                exp = iter.next().cloned();
                if exp.is_none() {
                    eprintln!("--exp requires an experiment id (t1, f1, e1..e12)");
                    return ExitCode::FAILURE;
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--quick|--full] [--exp <t1|f1|e1..e12>] [--json] \
                     [--json-out <dir>]\n\
                     Regenerates the hFAD experiment tables (see EXPERIMENTS.md).\n\
                     --json-out writes one machine-readable BENCH_<ID>.json per table."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let tables = match &exp {
        Some(id) => match run_one(id, scale) {
            Some(table) => vec![table],
            None => {
                eprintln!("unknown experiment id: {id} (expected t1, f1, e1..e12)");
                return ExitCode::FAILURE;
            }
        },
        None => run_all(scale),
    };

    for table in &tables {
        println!("{}", table.render());
    }
    if json {
        match hfad_bench::results::tables_to_json(&tables) {
            Ok(payload) => println!("{payload}"),
            Err(err) => {
                eprintln!("failed to serialise results: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = json_out {
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("failed to create {dir}: {err}");
            return ExitCode::FAILURE;
        }
        for table in &tables {
            let path = format!("{}/BENCH_{}.json", dir.trim_end_matches('/'), table.id);
            let payload = match table.to_json() {
                Ok(payload) => payload,
                Err(err) => {
                    eprintln!("failed to serialise {}: {err}", table.id);
                    return ExitCode::FAILURE;
                }
            };
            if let Err(err) = std::fs::write(&path, payload + "\n") {
                eprintln!("failed to write {path}: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}
