//! `hfad_e2e`: the end-to-end benchmark of the hFAD stack. Four workloads
//! through the public `Hfad` API on a file-backed store with the default
//! configuration, two closed-loop client threads, every answer checked
//! against a shadow model; a traced run adds per-layer numbers from
//! spans the benchmark records around calls into each crate.
//!
//! ```text
//! hfad_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--scale <f>] [--scratch <dir>] [--out <file.json>]
//! hfad_e2e suite --out <file.json> [--runs <n>] [--seed <n>] [--seconds <s>]
//! hfad_e2e compare <a.json> <b.json> [--bench <BENCHMARK.json>]
//! ```
//!
//! See `README.md` beside this package for what each workload and metric
//! is for.

mod clients;
mod compare;
mod corpus;
mod json;
mod metrics;
mod probes;
mod rng;
mod stats;
mod store;
mod suite;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use workloads::{Ctx, Outcome};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("suite") => suite::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("crash-child") => crash_child(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hfad_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs.
pub struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    pub fn parse(args: &'a [String], known: &[&str]) -> Res<Self> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name, value.as_str()));
        }
        Ok(Flags(pairs))
    }

    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn required(&self, name: &str) -> Res<&'a str> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required").into())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Res<T> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: {text:?} is not a valid number").into()),
        }
    }
}

/// The commit of the working directory, if it is a git checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where store files go unless `--scratch` says otherwise: inside the
/// directory the benchmark is run from.
const DEFAULT_SCRATCH: &str = ".hfad_e2e_scratch";

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The default parent is the benchmark's own; leave it only if
        // another run is using it.
        if let Some(parent) = self.0.parent().filter(|p| p.ends_with(DEFAULT_SCRATCH)) {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &[String]) -> Res<ExitCode> {
    let flags = Flags::parse(
        args,
        &[
            "workload", "seed", "seconds", "trace", "scale", "scratch", "out",
        ],
    )?;
    let workload = flags.required("workload")?;
    let seconds: f64 = flags.number("seconds", 15.0)?;
    let scale: f64 = flags.number("scale", 1.0)?;
    if !(seconds > 0.0 && seconds <= 600.0 && scale > 0.0 && scale <= 4.0) {
        return Err("--seconds must be in (0, 600] and --scale in (0, 4]".into());
    }
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
    };
    // `HfadConfig::default()` reads this variable; with it set, the
    // configuration under test would not be the default stack.
    if std::env::var_os("HFAD_DEFAULT_CONFIG").is_some() {
        return Err("HFAD_DEFAULT_CONFIG is set; the benchmark measures the default stack".into());
    }
    let scratch = match flags.get("scratch") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(DEFAULT_SCRATCH),
    }
    .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let guard = Scratch(scratch.clone());
    let ctx = Ctx {
        seed: flags.number("seed", 1)?,
        seconds,
        scale,
        trace,
        scratch,
        exe: std::env::current_exe()?,
    };

    let (_, run_workload) = workloads::ALL
        .iter()
        .find(|(name, _)| *name == workload)
        .ok_or_else(|| {
            let names: Vec<&str> = workloads::ALL.iter().map(|(name, _)| *name).collect();
            format!(
                "unknown workload {workload:?}; the workloads are {}",
                names.join(", ")
            )
        })?;
    let mut outcome = run_workload(&ctx)?;
    if ctx.trace {
        probes::run(
            &ctx.scratch,
            ctx.seed,
            outcome.index_keys,
            &mut outcome.layer,
        )?;
    }
    outcome.e2e.insert("peak_rss_mb", workloads::peak_rss_mb()?);
    drop(guard);

    let report = Report::new(workload, &ctx, &outcome)?;
    report.print();
    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.detail().encode_pretty())?;
    }
    // The last line of standard output is the result.
    println!("{}", report.result_line().encode());
    Ok(ExitCode::SUCCESS)
}

/// One run's result, ready to print.
struct Report<'a> {
    workload: &'a str,
    ctx: &'a Ctx,
    outcome: &'a Outcome,
    commit: String,
    /// The metrics of this run's mode: name, value, unit.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl<'a> Report<'a> {
    fn new(workload: &'a str, ctx: &'a Ctx, outcome: &'a Outcome) -> Res<Self> {
        let metrics = if ctx.trace {
            // A layer the workload does not exercise reads 0.
            metrics::PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, outcome.layer.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            metrics::END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let value = outcome
                        .e2e
                        .get(name)
                        .copied()
                        .filter(|v| v.is_finite() && *v > 0.0)
                        .ok_or_else(|| format!("{workload} measured no {name}"))?;
                    Ok((name, value, unit))
                })
                .collect::<Res<_>>()?
        };
        Ok(Report {
            workload,
            ctx,
            outcome,
            commit: commit(),
            metrics,
        })
    }

    fn print(&self) {
        let (ctx, outcome) = (self.ctx, self.outcome);
        println!(
            "hfad_e2e workload={} seed={} seconds={} scale={} trace={} clients={} nproc={} commit={} scratch={}",
            self.workload,
            ctx.seed,
            ctx.seconds,
            ctx.scale,
            u8::from(ctx.trace),
            workloads::CLIENTS,
            nproc(),
            self.commit,
            ctx.scratch.display(),
        );
        for &(name, value, unit) in &self.metrics {
            let remark = match name {
                "p50_us" => format!("  (n={})", outcome.samples),
                "p99_us" => format!(
                    "  (p{:.4}, n={})",
                    outcome.tail_percentile * 100.0,
                    outcome.samples
                ),
                _ => String::new(),
            };
            println!("  {name:<32} {value:>16.4} {unit}{remark}");
        }
        for (name, value) in &outcome.notes {
            println!("  note {name:<27} {value}");
        }
        println!(
            "  ops attempted={} failed={}",
            outcome.tally.attempted, outcome.tally.failed
        );
    }

    fn metric_values(&self) -> Value {
        Value::obj(self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Value::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        }))
    }

    fn result_line(&self) -> Value {
        let tally = self.outcome.tally;
        Value::obj([
            ("correct", Value::Bool(tally.failed == 0)),
            ("attempted", Value::Num(tally.attempted.max(1) as f64)),
            ("failed", Value::Num(tally.failed as f64)),
            ("metrics", self.metric_values()),
        ])
    }

    /// Everything the run knows, for `--out`.
    fn detail(&self) -> Value {
        let (ctx, outcome) = (self.ctx, self.outcome);
        Value::obj([
            ("workload", Value::Str(self.workload.to_string())),
            ("commit", Value::Str(self.commit.clone())),
            ("nproc", Value::Num(nproc() as f64)),
            ("clients", Value::Num(workloads::CLIENTS as f64)),
            ("seed", Value::Num(ctx.seed as f64)),
            ("seconds", Value::Num(ctx.seconds)),
            ("scale", Value::Num(ctx.scale)),
            ("trace", Value::Bool(ctx.trace)),
            ("scratch", Value::Str(ctx.scratch.display().to_string())),
            ("attempted", Value::Num(outcome.tally.attempted as f64)),
            ("failed", Value::Num(outcome.tally.failed as f64)),
            ("latency_samples", Value::Num(outcome.samples as f64)),
            ("tail_percentile", Value::Num(outcome.tail_percentile)),
            ("metrics", self.metric_values()),
            (
                "notes",
                Value::obj(
                    outcome
                        .notes
                        .iter()
                        .map(|(k, v)| (k.as_str(), Value::Str(v.clone()))),
                ),
            ),
        ])
    }
}

/// The crash phase's child process (see `workloads::ingest`).
fn crash_child(args: &[String]) -> Res<ExitCode> {
    let flags = Flags::parse(args, &["store", "seed", "long-tail", "first", "count"])?;
    let source = corpus::DocSource::new(flags.number("seed", 1)?, flags.number("long-tail", 1)?);
    workloads::ingest::crash_child(
        Path::new(flags.required("store")?),
        &source,
        flags.number("first", 0)?,
        flags.number("count", 0)?,
    )?;
    Ok(ExitCode::SUCCESS)
}
