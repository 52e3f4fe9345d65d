//! Drives the built binary the way the benchmark driver does, at a small
//! scale: every workload must finish with no failed operation and print
//! exactly the metrics `BENCHMARK.json` lists; inputs must be a function
//! of the seed; `suite` and `compare` must agree on a file format.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_hfad_e2e");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(workload: &str, seed: u64, trace: bool, scratch: &Path) -> Output {
    Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.4", "--scale", "0.02"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--scratch")
        .arg(scratch)
        .env_remove("HFAD_DEFAULT_CONFIG")
        .output()
        .expect("the benchmark binary runs")
}

/// The result object on the last line of a successful run's output.
fn result_of(output: &Output) -> Value {
    assert!(
        output.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().next_back().expect("a last line")).expect("the last line is JSON")
}

fn note(output: &Output, name: &str) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("note") && words.next() == Some(name))
                .then(|| words.collect::<Vec<_>>().join(" "))
        })
        .unwrap_or_else(|| panic!("no note {name}"))
}

/// `(name, unit)` of every entry of a metric list in `BENCHMARK.json`.
fn listed(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn printed(result: &Value) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn workloads(bench: &Value) -> Vec<String> {
    bench
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_is_correct_and_prints_the_listed_metrics() {
    let bench = benchmark_json();
    let dir = scratch("workloads");
    for workload in workloads(&bench) {
        let plain = run(&workload, 5, false, &dir);
        let result = result_of(&plain);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{workload}");
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(printed(&result), listed(&bench, "end_to_end"), "{workload}");
        for (name, metric) in result.get("metrics").and_then(Value::as_obj).unwrap() {
            let value = metric.get("value").and_then(Value::as_f64).unwrap();
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }

        let traced = run(&workload, 5, true, &dir);
        let result = result_of(&traced);
        assert_eq!(
            result.get("failed"),
            Some(&Value::Num(0.0)),
            "{workload} traced"
        );
        assert_eq!(printed(&result), listed(&bench, "per_layer"), "{workload}");

        // Inputs are a function of the seed alone.
        let other = run(&workload, 6, false, &dir);
        result_of(&other);
        assert_eq!(
            note(&plain, "input_hash"),
            note(&traced, "input_hash"),
            "{workload}"
        );
        assert_ne!(
            note(&plain, "input_hash"),
            note(&other, "input_hash"),
            "{workload}"
        );
    }
    // Every run removed its own scratch directory.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}

#[test]
fn benchmark_json_keeps_to_its_contract() {
    let bench = benchmark_json();
    let keys: Vec<&str> = bench
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = Vec::new();
    let listed_workloads = bench.get("workloads").and_then(Value::as_arr).unwrap();
    assert!((2..=8).contains(&listed_workloads.len()));
    for w in listed_workloads {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
        assert_eq!(w.as_obj().unwrap().len(), 2);
        names.push(w.get("name").and_then(Value::as_str).unwrap().to_string());
    }
    for m in bench.get("end_to_end").and_then(Value::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(matches!(
            m.get("better").and_then(Value::as_str),
            Some("lower" | "higher")
        ));
        assert_eq!(m.as_obj().unwrap().len(), 4);
    }
    for m in bench.get("per_layer").and_then(Value::as_arr).unwrap() {
        assert_eq!(m.as_obj().unwrap().len(), 3);
    }
    for list in ["end_to_end", "per_layer"] {
        for (name, unit) in listed(&bench, list) {
            assert!(unit_ok(&unit), "unit {unit:?} of {name}");
            names.push(name);
        }
    }
    assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let setup = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let seconds = bench.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    let dir = scratch("bad");
    let refused = |cmd: &mut Command| {
        let out = cmd.arg("--scratch").arg(&dir).output().unwrap();
        assert!(!out.status.success());
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"metrics\""),
            "a refused run must not print a result"
        );
    };
    refused(Command::new(BIN).args(["--workload", "no-such-workload"]));
    refused(Command::new(BIN).args(["--workload", "scan-cold", "--trace", "2"]));
    refused(Command::new(BIN).args(["--seed", "1"]));
    // The default configuration must be the one under test.
    refused(
        Command::new(BIN)
            .args([
                "--workload",
                "scan-cold",
                "--scale",
                "0.02",
                "--seconds",
                "0.2",
            ])
            .env("HFAD_DEFAULT_CONFIG", "seed"),
    );
}

#[test]
fn suite_writes_what_compare_reads() {
    let bench = benchmark_json();
    let dir = scratch("suite");
    let set = dir.join("set.json");
    let out = Command::new(BIN)
        .args([
            "suite",
            "--runs",
            "2",
            "--seed",
            "9",
            "--seconds",
            "0.3",
            "--scale",
            "0.02",
        ])
        .arg("--out")
        .arg(&set)
        .current_dir(&dir)
        .env_remove("HFAD_DEFAULT_CONFIG")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed = json::parse(&std::fs::read_to_string(&set).unwrap()).unwrap();
    for workload in workloads(&bench) {
        let w = parsed
            .get("workloads")
            .and_then(|w| w.get(&workload))
            .unwrap();
        assert_eq!(w.get("failed"), Some(&Value::Num(0.0)));
        for (name, _) in listed(&bench, "end_to_end") {
            let values = w.get("end_to_end").and_then(|e| e.get(&name)).unwrap();
            assert_eq!(
                values.get("values").and_then(Value::as_arr).unwrap().len(),
                2
            );
        }
        assert_eq!(
            w.get("per_layer").and_then(Value::as_obj).unwrap().len(),
            listed(&bench, "per_layer").len()
        );
    }

    // A set never regresses against itself. Spreads of two tiny runs may
    // well be unresolved; that is not a failure.
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let compare = |a: &Path, b: &Path| {
        Command::new(BIN)
            .arg("compare")
            .args([a, b])
            .arg("--bench")
            .arg(&bench_path)
            .output()
            .unwrap()
    };
    let same = compare(&set, &set);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // Halve every throughput and double every latency, with no spread:
    // each bounded metric regresses and the exit code says so.
    let text = std::fs::read_to_string(&set).unwrap();
    let steady = |factor_of: &dyn Fn(&str) -> f64| -> Value {
        let mut set = json::parse(&text).unwrap();
        let Value::Obj(top) = &mut set else {
            unreachable!()
        };
        let Some((_, Value::Obj(ws))) = top.iter_mut().find(|(k, _)| k == "workloads") else {
            unreachable!()
        };
        for (_, w) in ws {
            let Value::Obj(fields) = w else {
                unreachable!()
            };
            let Some((_, Value::Obj(metrics))) = fields.iter_mut().find(|(k, _)| k == "end_to_end")
            else {
                unreachable!()
            };
            for (name, metric) in metrics {
                let base = 100.0 * factor_of(name);
                *metric = Value::obj([
                    ("unit", Value::Str("x".into())),
                    ("median", Value::Num(base)),
                    ("q1", Value::Num(base)),
                    ("q3", Value::Num(base)),
                ]);
            }
        }
        set
    };
    let (base, worse) = (dir.join("base.json"), dir.join("worse.json"));
    std::fs::write(&base, steady(&|_| 1.0).encode_pretty()).unwrap();
    let higher_is_better = |name: &str| {
        bench
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .any(|m| {
                m.get("name").and_then(Value::as_str) == Some(name)
                    && m.get("better").and_then(Value::as_str) == Some("higher")
            })
    };
    std::fs::write(
        &worse,
        steady(&|name| if higher_is_better(name) { 0.5 } else { 2.0 }).encode_pretty(),
    )
    .unwrap();
    let ok = compare(&base, &base);
    assert!(ok.status.success());
    assert!(!String::from_utf8_lossy(&ok.stdout).contains("regressed"));
    let bad = compare(&base, &worse);
    assert_eq!(bad.status.code(), Some(1));
    let table = String::from_utf8_lossy(&bad.stdout);
    assert_eq!(
        table.matches("regressed").count(),
        workloads(&bench).len() * listed(&bench, "end_to_end").len(),
        "{table}"
    );
    // And the other way round it is a gain, not a regression.
    assert!(compare(&worse, &base).status.success());
}
