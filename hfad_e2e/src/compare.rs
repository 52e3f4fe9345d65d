//! `hfad_e2e compare <a.json> <b.json>`: sets two result sets written by
//! `suite` side by side. For every workload and end-to-end metric it
//! prints how much worse `b`'s median is than `a`'s, against the bound
//! `BENCHMARK.json` fixes for the metric:
//!
//! * `unresolved` — either set's spread (interquartile range over its
//!   median) is wider than the bound, so the runs cannot tell;
//! * `regressed` — `b` is worse than `a` by more than the bound;
//! * `ok` — otherwise.
//!
//! Exits non-zero if any metric regressed or `b` had failed operations.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::{Flags, Res};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

/// Median and quartiles of one metric in one result set.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Cell {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when `b`
/// is better), and the verdict against `bound`.
pub fn judge(a: Cell, b: Cell, higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let worse = if higher_is_better {
        (a.median - b.median) / a.median.abs()
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let spread = a.spread().max(b.spread());
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, spread, verdict)
}

fn load(path: &str) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn cell(set: &Value, workload: &str, metric: &str) -> Option<Cell> {
    let m = set
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Cell {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

pub fn main(args: &[String]) -> Res<ExitCode> {
    let (files, rest) = args.split_at(args.len().min(2));
    let [a_path, b_path] = files else {
        return Err("usage: hfad_e2e compare <a.json> <b.json> [--bench <BENCHMARK.json>]".into());
    };
    let flags = Flags::parse(rest, &["bench"])?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bench = load(flags.get("bench").unwrap_or("BENCHMARK.json"))?;
    let metrics = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{a_path} has no workloads"))?;

    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "spread", "bound"
    );
    let mut regressed = 0;
    for (workload, _) in workloads {
        for metric in metrics {
            let (Some(name), Some(better), Some(bound)) = (
                metric.get("name").and_then(Value::as_str),
                metric.get("better").and_then(Value::as_str),
                metric.get("bound").and_then(Value::as_f64),
            ) else {
                return Err("an end_to_end entry lacks name, better or bound".into());
            };
            let (Some(ca), Some(cb)) = (cell(&a, workload, name), cell(&b, workload, name)) else {
                return Err(format!("{workload}/{name} is missing from a result set").into());
            };
            let (worse, spread, verdict) = judge(ca, cb, better == "higher", bound);
            regressed += u32::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<16} {name:<12} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                ca.median,
                cb.median,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "regressed",
                }
            );
        }
        let failed = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("failed"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if failed > 0.0 {
            println!("{workload:<16} {failed} failed operations in {b_path}");
            regressed += 1;
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(median: f64, iqr: f64) -> Cell {
        Cell {
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
        }
    }

    #[test]
    fn a_slowdown_beyond_the_bound_regresses_and_direction_matters() {
        // Latency (lower is better) up 20 % against a 10 % bound.
        let (worse, _, verdict) = judge(cell(100.0, 2.0), cell(120.0, 2.0), false, 0.10);
        assert!((worse - 0.20).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
        // The same numbers as throughput (higher is better) are a gain.
        let (worse, _, verdict) = judge(cell(100.0, 2.0), cell(120.0, 2.0), true, 0.10);
        assert!(worse < 0.0);
        assert_eq!(verdict, Verdict::Ok);
        // Within the bound.
        assert_eq!(
            judge(cell(100.0, 2.0), cell(108.0, 2.0), false, 0.10).2,
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let (_, spread, verdict) = judge(cell(100.0, 2.0), cell(101.0, 30.0), false, 0.10);
        assert!(spread > 0.29);
        assert_eq!(verdict, Verdict::Unresolved);
        // Even when the medians differ by more than the bound.
        assert_eq!(
            judge(cell(100.0, 30.0), cell(150.0, 2.0), false, 0.10).2,
            Verdict::Unresolved
        );
    }
}
