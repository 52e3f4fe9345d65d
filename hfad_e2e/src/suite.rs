//! `hfad_e2e suite`: runs every workload several times, each run in a
//! process of its own (so `peak_rss_mb` is that run's), and writes one
//! result set: per workload and metric the values, their median and
//! quartiles, plus one traced run's per-layer metrics. Two result sets
//! are what `compare` takes.

use std::process::{Command, ExitCode};

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};
use crate::workloads;
use crate::{commit, nproc, Flags, Res};

/// Runs the benchmark once in a child process and returns the result
/// object of its last output line.
fn run_once(workload: &str, seed: u64, seconds: f64, scale: f64, trace: bool) -> Res<Value> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!("{workload} (seed {seed}) exited with {}", output.status).into());
    }
    let stdout = String::from_utf8(output.stdout)?;
    let last = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("{workload} (seed {seed}) printed nothing"))?;
    Ok(json::parse(last)?)
}

/// `name → (value, unit)` of one result object.
fn metrics_of(result: &Value) -> Res<Vec<(String, f64, String)>> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(Value::as_f64);
            let unit = metric.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("metric {name} lacks a value or a unit").into()),
            }
        })
        .collect()
}

fn count(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

pub fn main(args: &[String]) -> Res<ExitCode> {
    let flags = Flags::parse(args, &["out", "runs", "seed", "seconds", "scale"])?;
    let out = flags.required("out")?;
    let runs: u64 = flags.number("runs", 3)?;
    let seed: u64 = flags.number("seed", 1)?;
    let seconds: f64 = flags.number("seconds", 15.0)?;
    let scale: f64 = flags.number("scale", 1.0)?;
    if runs < 2 {
        return Err("--runs must be at least 2: a spread needs two values".into());
    }

    let mut workloads = Vec::new();
    for (workload, _) in workloads::ALL {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for run in 0..runs {
            eprintln!("suite: {workload} run {} of {runs}", run + 1);
            let result = run_once(workload, seed + run, seconds, scale, false)?;
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (name, value, unit) in metrics_of(&result)? {
                match values.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, list)) => list.push(value),
                    None => values.push((name, unit, vec![value])),
                }
            }
        }
        eprintln!("suite: {workload} traced run");
        let traced = run_once(workload, seed, seconds, scale, true)?;
        attempted += count(&traced, "attempted");
        failed += count(&traced, "failed");

        let end_to_end = Value::obj(values.into_iter().map(|(name, unit, list)| {
            let [q1, _, q3] = quartiles(&list).expect("at least two runs");
            eprintln!(
                "suite: {workload:<16} {name:<12} median {:>14.4} {unit:<6} spread {:>5.1}%",
                median(&list),
                spread(&list).unwrap_or(0.0) * 100.0
            );
            let metric = Value::obj([
                ("unit", Value::Str(unit)),
                ("median", Value::Num(median(&list))),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
                (
                    "values",
                    Value::Arr(list.into_iter().map(Value::Num).collect()),
                ),
            ]);
            (name, metric)
        }));
        let per_layer = Value::obj(metrics_of(&traced)?.into_iter().map(|(name, value, unit)| {
            let metric = Value::obj([("unit", Value::Str(unit)), ("value", Value::Num(value))]);
            (name, metric)
        }));
        workloads.push((
            workload,
            Value::obj([
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ]),
        ));
    }

    let set = Value::obj([
        ("commit", Value::Str(commit())),
        ("nproc", Value::Num(nproc() as f64)),
        ("seed", Value::Num(seed as f64)),
        ("runs", Value::Num(runs as f64)),
        ("seconds", Value::Num(seconds)),
        ("scale", Value::Num(scale)),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::write(out, set.encode_pretty())?;
    eprintln!("suite: wrote {out}");
    Ok(ExitCode::SUCCESS)
}
