//! The machine-readable run record every experiment binary writes with
//! `--out`, and the regression gate behind `--check-against`.
//!
//! A record is flat JSON in one fixed layout: an optional row array
//! (`"runs"` or `"sweep"`) with one object per line, then the top-level
//! summary keys, one per line. Hand-rolled: every value is a number, a
//! bare identifier or fixed prose, so there is nothing to escape, and the
//! one-row-per-line layout is what lets [`baseline`] read a committed
//! record back without a JSON parser.

use std::fmt;

/// A JSON object rendered on one line, keys in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(&'static str, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds `key` with `value` written as is: integers, `null`, a nested
    /// [`Obj`] or an already formatted number.
    pub fn raw(mut self, key: &'static str, value: impl fmt::Display) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// Adds a float with `prec` decimal places.
    pub fn num(self, key: &'static str, value: f64, prec: usize) -> Self {
        self.raw(key, format!("{value:.prec$}"))
    }

    /// Adds a quoted string (written unescaped).
    pub fn text(self, key: &'static str, value: &str) -> Self {
        self.raw(key, format!("\"{value}\""))
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        write!(f, "{{{}}}", fields.join(", "))
    }
}

/// One run record: the row array, then the summary keys.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Name of the row array; `None` writes the summary keys alone.
    pub array: Option<&'static str>,
    /// One object per swept point, each written on its own line.
    pub rows: Vec<Obj>,
    /// Top-level keys after the array.
    pub summary: Obj,
}

impl Record {
    /// A record whose `rows` go under the array `array`.
    pub fn new(array: &'static str, rows: Vec<Obj>) -> Self {
        Record { array: Some(array), rows, summary: Obj::new() }
    }

    /// Renders the record as JSON text.
    fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(name) = self.array {
            let mut array = format!("  \"{name}\": [\n");
            for (i, row) in self.rows.iter().enumerate() {
                let sep = if i + 1 < self.rows.len() { "," } else { "" };
                array.push_str(&format!("    {row}{sep}\n"));
            }
            array.push_str("  ]");
            parts.push(array);
        }
        parts.extend(self.summary.0.iter().map(|(k, v)| format!("  \"{k}\": {v}")));
        format!("{{\n{}\n}}\n", parts.join(",\n"))
    }

    /// Writes the record to `path` and reports it on stdout.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Reads a baseline record, panicking with the path if it is missing.
fn load(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"))
}

/// The number stored under `field` on the first line of a record that
/// contains both `row` and `field`. `row` is a row's leading key text,
/// e.g. `"shards": 4,`; an empty `row` reads a top-level summary key.
fn baseline(json: &str, row: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let line = json.lines().find(|l| l.contains(row) && l.contains(&key))?;
    let tail = &line[line.find(&key)? + key.len()..];
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

/// One gated cell: its current value and its committed baseline.
#[derive(Debug, Clone)]
struct Check {
    /// Cell label in the gate output (empty for a single-cell gate).
    cell: String,
    /// This run's value.
    current: f64,
    /// The baseline's value for the same cell, if the record has one.
    baseline: Option<f64>,
}

/// The CI regression gate: every cell must stay at or above 70% of its
/// baseline, and a cell the baseline lacks fails too, so a format drift
/// cannot silently disable the gate. Prints one line per cell and the
/// verdict; returns whether the gate passed.
fn gate(label: &str, unit: &str, checks: &[Check]) -> bool {
    let mut passed = true;
    for c in checks {
        let name = if c.cell.is_empty() { String::new() } else { format!(" {}", c.cell) };
        let Some(base) = c.baseline else {
            println!("{label} gate{name}: no baseline for this cell FAILED");
            passed = false;
            continue;
        };
        let floor = base * 0.70;
        let ok = c.current >= floor;
        let verdict = if ok { "ok" } else { "FAILED" };
        println!(
            "{label} gate{name}: current {:.0} {unit} vs baseline {base:.0} (floor {floor:.0}) \
             {verdict}",
            c.current
        );
        passed &= ok;
    }
    if passed {
        println!("{label} gate passed");
    } else {
        eprintln!(
            "{label} gate FAILED: {unit} regressed more than 30% below baseline or lacks one"
        );
    }
    passed
}

/// `--check-against path`: gates each `(cell, row, current)` against
/// the `field` of the baseline line matching `row` (see [`baseline`]),
/// exiting 1 if the [`gate`] fails.
pub fn check_against(
    path: &str,
    label: &str,
    unit: &str,
    field: &str,
    cells: impl IntoIterator<Item = (String, String, f64)>,
) {
    let json = load(path);
    let checks: Vec<Check> = cells
        .into_iter()
        .map(|(cell, row, current)| Check { cell, current, baseline: baseline(&json, &row, field) })
        .collect();
    if !gate(label, unit, &checks) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(current: f64, baseline: Option<f64>) -> Check {
        Check { cell: "x=1".into(), current, baseline }
    }

    #[test]
    fn record_layout_reads_back_through_baseline() {
        let rows = vec![
            Obj::new().raw("shards", 1).num("queries_per_sec", 1004.4, 0).text("mode", "ssmr"),
            Obj::new().raw("shards", 4).num("queries_per_sec", 3149.0, 0).text("mode", "ssmr"),
        ];
        let mut rec = Record::new("sweep", rows);
        rec.summary = Obj::new().num("speedup", 3.456, 2).raw("peak", "null");
        let json = rec.render();
        assert_eq!(
            json,
            "{\n  \"sweep\": [\n    {\"shards\": 1, \"queries_per_sec\": 1004, \"mode\": \"ssmr\"},\n    \
             {\"shards\": 4, \"queries_per_sec\": 3149, \"mode\": \"ssmr\"}\n  ],\n  \
             \"speedup\": 3.46,\n  \"peak\": null\n}\n"
        );
        assert_eq!(baseline(&json, "\"shards\": 1,", "queries_per_sec"), Some(1004.0));
        assert_eq!(baseline(&json, "\"shards\": 4,", "queries_per_sec"), Some(3149.0));
        assert_eq!(baseline(&json, "", "speedup"), Some(3.46));
        assert_eq!(baseline(&json, "\"shards\": 2,", "queries_per_sec"), None);
        assert_eq!(baseline(&json, "", "peak"), None);
    }

    #[test]
    fn summary_only_and_empty_array_layouts() {
        let flat = Record { summary: Obj::new().raw("completed", 7), ..Record::default() };
        assert_eq!(flat.render(), "{\n  \"completed\": 7\n}\n");
        assert_eq!(Record::new("runs", vec![]).render(), "{\n  \"runs\": [\n  ]\n}\n");
    }

    #[test]
    fn gate_floor_is_seventy_percent() {
        assert!(!gate("t", "ops/s", &[check(69.0, Some(100.0))]));
        assert!(gate("t", "ops/s", &[check(71.0, Some(100.0))]));
        assert!(!gate("t", "ops/s", &[check(71.0, Some(100.0)), check(69.0, Some(100.0))]));
    }

    #[test]
    fn gate_fails_on_a_missing_cell() {
        assert!(!gate("t", "ops/s", &[check(1e9, None)]));
    }

    /// Every cell a CI smoke gate looks up is in the committed baseline it
    /// checks against (see the perf-smoke job in `.github/workflows`).
    #[test]
    fn committed_baselines_cover_every_ci_cell() {
        let read = |name: &str| {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/").to_string() + name;
            load(&path)
        };
        let perf = read("BENCH_perf_ci_baseline.json");
        assert!(baseline(&perf, "", "best_events_per_sec").is_some());
        let partitioner = read("BENCH_partitioner.json");
        assert!(baseline(&partitioner, "\"vertices\": 100000,", "elements_per_sec").is_some());
        let oracle = read("BENCH_oracle.json");
        for shards in [1, 2, 4] {
            let row = format!("\"shards\": {shards},");
            assert!(baseline(&oracle, &row, "queries_per_sec").is_some(), "O={shards}");
        }
        let exec = read("BENCH_exec.json");
        for workers in [1, 8] {
            let row = format!("\"workers\": {workers}, \"theta\": 0.90,");
            assert!(baseline(&exec, &row, "cmds_per_sim_sec").is_some(), "workers={workers}");
        }
    }
}
