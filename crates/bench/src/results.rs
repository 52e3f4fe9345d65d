//! Result tables printed by the experiment harness, as aligned text and
//! as JSON.

/// A named scalar an experiment derives from its raw rows (a speedup, a
/// ratio) — the value a regression gate or plot script wants without
/// re-parsing formatted cells. Serialised into the `BENCH_<ID>.json`
/// emitted by `experiments --json-out`.
#[derive(Debug, Clone)]
pub struct DerivedMetric {
    /// Metric name, e.g. "scan_speedup".
    pub name: String,
    /// The value.
    pub value: f64,
    /// Unit or kind, e.g. "x", "ratio", "ops/s".
    pub unit: String,
}

/// A single experiment result table (one per paper table/figure/claim).
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. "E1").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The paper's qualitative prediction for this experiment.
    pub paper_claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Headline scalars derived from the rows (speedups, ratios).
    pub derived: Vec<DerivedMetric>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, paper_claim: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            paper_claim: paper_claim.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            derived: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Records a derived headline metric.
    pub fn push_derived(&mut self, name: &str, value: f64, unit: &str) {
        self.derived.push(DerivedMetric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        out.push_str(&format!("paper: {}\n", self.paper_claim));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for m in &self.derived {
            out.push_str(&format!(
                "derived: {} = {:.3} {}\n",
                m.name, m.value, m.unit
            ));
        }
        out
    }
}

/// A float JSON cannot represent (NaN or an infinity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteFloat(pub f64);

impl std::fmt::Display for NonFiniteFloat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "non-finite float {} is not valid JSON", self.0)
    }
}

impl std::error::Error for NonFiniteFloat {}

/// Renders `tables` as a two-space-indented JSON array of
/// [`Table::to_json`] objects.
pub fn tables_to_json(tables: &[Table]) -> Result<String, NonFiniteFloat> {
    let items = tables.iter().map(|t| t.json(1));
    Ok(json_block('[', items.collect::<Result<_, _>>()?, ']', 0))
}

impl Table {
    /// Renders the table as a two-space-indented JSON object keyed by its
    /// fields in declaration order. Integral floats below 1e15 keep a
    /// `.0`; a NaN or infinite derived value is an error.
    pub fn to_json(&self) -> Result<String, NonFiniteFloat> {
        self.json(0)
    }

    fn json(&self, depth: usize) -> Result<String, NonFiniteFloat> {
        let strings =
            |v: &[String], d| json_block('[', v.iter().map(|s| json_str(s)).collect(), ']', d);
        let object = |fields: Vec<(&str, String)>, d| {
            let entries = fields.into_iter().map(|(k, v)| format!("\"{k}\": {v}"));
            json_block('{', entries.collect(), '}', d)
        };
        let mut derived = Vec::with_capacity(self.derived.len());
        for m in &self.derived {
            let value = json_f64(m.value)?;
            derived.push(object(
                vec![
                    ("name", json_str(&m.name)),
                    ("value", value),
                    ("unit", json_str(&m.unit)),
                ],
                depth + 2,
            ));
        }
        let rows = self.rows.iter().map(|r| strings(r, depth + 2)).collect();
        Ok(object(
            vec![
                ("id", json_str(&self.id)),
                ("title", json_str(&self.title)),
                ("paper_claim", json_str(&self.paper_claim)),
                ("headers", strings(&self.headers, depth + 1)),
                ("rows", json_block('[', rows, ']', depth + 1)),
                ("derived", json_block('[', derived, ']', depth + 1)),
            ],
            depth,
        ))
    }
}

/// `open` items `close` with one item per line, nested `depth` levels
/// deep; an empty block stays on one line.
fn json_block(open: char, items: Vec<String>, close: char, depth: usize) -> String {
    if items.is_empty() {
        return format!("{open}{close}");
    }
    let indent = "  ".repeat(depth + 1);
    let body = items.join(&format!(",\n{indent}"));
    format!("{open}\n{indent}{body}\n{}{close}", "  ".repeat(depth))
}

fn json_f64(x: f64) -> Result<String, NonFiniteFloat> {
    if !x.is_finite() {
        return Err(NonFiniteFloat(x));
    }
    // Integral values keep a fractional digit so they read as floats.
    Ok(if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        x.to_string()
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a duration in microseconds with three significant decimals.
pub fn us(duration: std::time::Duration) -> String {
    format!("{:.2}", duration.as_secs_f64() * 1e6)
}

/// Formats an operations-per-second rate.
pub fn ops_per_sec(ops: u64, elapsed: std::time::Duration) -> String {
    format!("{:.0}", ops as f64 / elapsed.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("E9", "demo", "claim text", &["a", "metric"]);
        t.push_row(vec!["x".into(), "1".into()]);
        t.push_row(vec!["longer".into(), "2".into()]);
        let rendered = t.render();
        assert!(rendered.contains("E9: demo"));
        assert!(rendered.contains("claim text"));
        assert!(rendered.lines().count() >= 6);
    }

    /// Golden output for the tables below, captured from the JSON
    /// serialiser the harness used before this writer, so
    /// `BENCH_<ID>.json` files keep their exact bytes.
    const ONE: &str = r#"{
  "id": "E0",
  "title": "say \"hi\" \\ then\nbreak",
  "paper_claim": "claim",
  "headers": [
    "a",
    "b"
  ],
  "rows": [],
  "derived": [
    {
      "name": "speedup",
      "value": 2.0,
      "unit": "x"
    },
    {
      "name": "ratio",
      "value": 0.125,
      "unit": "ratio"
    }
  ]
}"#;
    const TWO: &str = r#"[
  {
    "id": "E0",
    "title": "say \"hi\" \\ then\nbreak",
    "paper_claim": "claim",
    "headers": [
      "a",
      "b"
    ],
    "rows": [],
    "derived": [
      {
        "name": "speedup",
        "value": 2.0,
        "unit": "x"
      },
      {
        "name": "ratio",
        "value": 0.125,
        "unit": "ratio"
      }
    ]
  },
  {
    "id": "E1",
    "title": "second",
    "paper_claim": "tab\there\u0001\r",
    "headers": [
      "only"
    ],
    "rows": [
      [
        "1"
      ],
      [
        "é"
      ]
    ],
    "derived": [
      {
        "name": "big",
        "value": 1000000000000000,
        "unit": "count"
      },
      {
        "name": "neg",
        "value": -3.0,
        "unit": "x"
      }
    ]
  }
]"#;

    #[test]
    fn json_output_matches_the_golden_bytes() {
        let mut t = Table::new("E0", "say \"hi\" \\ then\nbreak", "claim", &["a", "b"]);
        t.push_derived("speedup", 2.0, "x");
        t.push_derived("ratio", 0.125, "ratio");
        let mut u = Table::new("E1", "second", "tab\there\u{1}\r", &["only"]);
        u.push_row(vec!["1".into()]);
        u.push_row(vec!["é".into()]);
        u.push_derived("big", 1e15, "count");
        u.push_derived("neg", -3.0, "x");
        assert_eq!(t.to_json().unwrap(), ONE);
        assert_eq!(tables_to_json(&[t.clone(), u]).unwrap(), TWO);
        assert_eq!(tables_to_json(&[]).unwrap(), "[]");
        t.push_derived("nan", f64::NAN, "x");
        assert!(t.to_json().is_err());
        assert!(tables_to_json(&[t]).is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(std::time::Duration::from_micros(1500)), "1500.00");
        assert_eq!(ops_per_sec(1000, std::time::Duration::from_secs(2)), "500");
    }
}
