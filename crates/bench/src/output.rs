//! Result presentation: aligned console tables, CSV files under
//! `results/` so every figure can be re-plotted, and JSON emission for
//! sweep results. Experiments return structured values ([`Table`]s and
//! [`crate::sweep::Summary`]s); everything that prints or writes files
//! lives here.

use crate::sweep::SweepResult;
use std::fmt::Display;
use std::path::PathBuf;

/// A simple result table: header + rows, printable and CSV-dumpable.
pub struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let head: Vec<String> =
            self.columns.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", head.join("  "));
        println!("{}", "-".repeat(head.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            println!("{}", line.join("  "));
        }
    }

    /// Write as CSV into `results/<name>.csv` (relative to the workspace
    /// root when run via cargo, else the current directory).
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let mut csv = self.columns.join(",");
        for row in &self.rows {
            csv.push('\n');
            csv.push_str(&row.join(","));
        }
        csv.push('\n');
        write_results_file(&format!("{name}.csv"), &csv)
    }
}

/// Print a batch of tables and write each as `results/<prefix>_<i>.csv` —
/// the presentation step for every `repro` experiment run.
pub fn emit(tables: &[Table], csv_prefix: &str) {
    for (i, t) in tables.iter().enumerate() {
        t.print();
        let name = format!("{csv_prefix}_{i}");
        match t.write_csv(&name) {
            Ok(path) => println!("  → {}", path.display()),
            Err(e) => eprintln!("  (csv write failed: {e})"),
        }
    }
}

/// Render a sweep as two tables: per-trial statistics (one column per
/// trial) and the cross-trial aggregate (mean ± stderr, min, max).
pub fn sweep_tables(result: &SweepResult) -> Vec<Table> {
    let mut cols: Vec<String> = vec!["stat".to_string()];
    cols.extend(result.trials.iter().map(|t| format!("t{}", t.trial)));
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut per_trial = Table::new(
        &format!(
            "Sweep '{}' at {} scale: per-trial statistics ({} trials, base seed {:#x})",
            result.experiment,
            result.scale.name(),
            result.trials.len(),
            result.base_seed
        ),
        &col_refs,
    );
    if let Some(first) = result.trials.first() {
        for key in first.summary.keys() {
            let mut row = vec![s(key)];
            for t in &result.trials {
                row.push(f(t.summary.get(key).unwrap_or(f64::NAN), 3));
            }
            per_trial.row(row);
        }
    }

    let mut agg = Table::new(
        &format!("Sweep '{}': cross-trial aggregate", result.experiment),
        &["stat", "mean", "stderr", "min", "max"],
    );
    for a in &result.aggregates {
        agg.row(vec![s(&a.key), f(a.mean, 3), f(a.stderr, 3), f(a.min, 3), f(a.max, 3)]);
    }
    vec![per_trial, agg]
}

/// A JSON number: finite floats print with full round-trip precision,
/// non-finite values become `null` (JSON has no NaN/inf).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Serialize a sweep result (per-trial stats + aggregates) as JSON.
pub fn sweep_json(result: &SweepResult) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", result.experiment));
    out.push_str(&format!("  \"scale\": \"{}\",\n", result.scale.name()));
    out.push_str(&format!("  \"base_seed\": {},\n", result.base_seed));
    out.push_str(&format!("  \"trials\": {},\n", result.trials.len()));
    out.push_str(&format!("  \"jobs\": {},\n", result.jobs));
    out.push_str("  \"per_trial\": [\n");
    for (i, t) in result.trials.iter().enumerate() {
        out.push_str(&format!("    {{\"trial\": {}, \"seed\": {}, ", t.trial, t.seed));
        // Wall-clock rides along outside `stats`: statistics are the
        // deterministic payload, timing is telemetry about this run.
        if let Some(tm) = result.timings.get(i) {
            out.push_str(&format!(
                "\"wall_s\": {}, \"events_per_s\": {}, ",
                json_num(tm.wall_s),
                json_num(tm.events_per_s)
            ));
        }
        out.push_str("\"stats\": {");
        let stats: Vec<String> =
            t.summary.iter().map(|(k, v)| format!("\"{k}\": {}", json_num(v))).collect();
        out.push_str(&stats.join(", "));
        out.push_str(&format!("}}}}{}\n", if i + 1 == result.trials.len() { "" } else { "," }));
    }
    out.push_str("  ],\n");
    out.push_str("  \"aggregate\": {\n");
    for (i, a) in result.aggregates.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"mean\": {}, \"stderr\": {}, \"min\": {}, \"max\": {}}}{}\n",
            a.key,
            json_num(a.mean),
            json_num(a.stderr),
            json_num(a.min),
            json_num(a.max),
            if i + 1 == result.aggregates.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Write a sweep result as `results/sweep_<experiment>_<scale>.json`.
pub fn write_sweep_json(result: &SweepResult) -> std::io::Result<PathBuf> {
    let name =
        format!("sweep_{}_{}.json", result.experiment.replace('-', "_"), result.scale.name());
    write_results_file(&name, &sweep_json(result))
}

/// Serialize a phase-profile snapshot (plus any per-shard kernel window
/// telemetry) as JSON: total wall-clock, per-phase inclusive/self seconds
/// and counts, and per-shard window/drain/cross-send/barrier counters.
pub fn profile_json(obs: &pier_trace::Obs) -> Option<String> {
    let prof = obs.profiler.as_ref()?;
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"elapsed_s\": {},\n", json_num(prof.elapsed_s())));
    out.push_str("  \"phases\": {\n");
    let snap = prof.snapshot();
    for (i, (name, st)) in snap.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"total_s\": {}, \"self_s\": {}, \"count\": {}}}{}\n",
            name,
            json_num(st.total_s),
            json_num(st.self_s),
            st.count,
            if i + 1 == snap.len() { "" } else { "," }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"shards\": [\n");
    let shards = obs.kernel.as_ref().map(|k| k.shard_stats()).unwrap_or_default();
    for (i, (ix, st)) in shards.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shard\": {}, \"windows\": {}, \"drained\": {}, \"cross_sends\": {}, \
             \"barrier_wait_s\": {}}}{}\n",
            ix,
            st.windows,
            st.drained,
            st.cross_sends,
            json_num(st.barrier_wait_s),
            if i + 1 == shards.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    Some(out)
}

/// Print the phase table to stderr, sorted by self-time (descending) —
/// the `repro --profile` summary a human reads first.
pub fn print_profile(obs: &pier_trace::Obs) {
    let Some(prof) = obs.profiler.as_ref() else { return };
    let mut snap = prof.snapshot();
    snap.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let covered: f64 = snap.iter().map(|(_, st)| st.self_s).sum();
    let elapsed = prof.elapsed_s();
    eprintln!("\n[profile] {:>9}  {:>9}  {:>6}  phase", "self_s", "total_s", "count");
    for (name, st) in &snap {
        eprintln!("[profile] {:>9.3}  {:>9.3}  {:>6}  {}", st.self_s, st.total_s, st.count, name);
    }
    eprintln!(
        "[profile] phase self-times cover {:.1}s of {:.1}s wall-clock ({:.0}%)",
        covered,
        elapsed,
        100.0 * covered / elapsed.max(1e-9)
    );
    for (ix, st) in obs.kernel.as_ref().map(|k| k.shard_stats()).unwrap_or_default() {
        eprintln!(
            "[profile] shard {ix}: {} windows, {} events drained, {} cross-sends, \
             {:.3}s barrier wait",
            st.windows, st.drained, st.cross_sends, st.barrier_wait_s
        );
    }
}

/// Write `contents` as `results/<name>`, returning the path.
pub fn write_results_file(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// `results/` next to the workspace root when available.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        // crates/bench → workspace root.
        let p = PathBuf::from(dir);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            return root.join("results");
        }
    }
    PathBuf::from("results")
}

/// Format a float with fixed precision for table cells.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format any display value.
pub fn s(v: impl Display) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec![s(1), f(0.5, 2)]);
        t.row(vec![s(22), f(1.0, 2)]);
        assert_eq!(t.rows.len(), 2);
        t.print();
        let path = t.write_csv("test_demo").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n1,0.50\n"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec![s(1)]);
    }

    fn demo_sweep() -> SweepResult {
        use crate::sweep::{run_sweep_with, Summary, SweepConfig, DEFAULT_BASE_SEED};
        let cfg = SweepConfig {
            scale: crate::Scale::Quick,
            trials: 3,
            jobs: 2,
            base_seed: DEFAULT_BASE_SEED,
            shards: 1,
        };
        run_sweep_with("demo", &cfg, |_, seed| {
            let mut s = Summary::new();
            s.set("value", (seed % 97) as f64);
            s.set("constant", 1.5);
            s
        })
    }

    #[test]
    fn sweep_json_shape() {
        let result = demo_sweep();
        let json = sweep_json(&result);
        assert!(json.contains("\"experiment\": \"demo\""));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"trials\": 3"));
        assert!(json.contains("\"per_trial\": ["));
        // Aggregates carry all four moments for every stat.
        assert!(json.contains("\"value\": {\"mean\": "));
        assert!(json.contains("\"stderr\": "));
        assert!(json.contains("\"min\": "));
        assert!(json.contains("\"max\": "));
        // A constant stat aggregates to stderr 0.
        assert!(json.contains(
            "\"constant\": {\"mean\": 1.5, \"stderr\": 0.0, \"min\": 1.5, \"max\": 1.5}"
        ));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("NaN"), "non-finite values must become null");
    }

    #[test]
    fn sweep_json_written_to_results() {
        let mut result = demo_sweep();
        result.experiment = "test-demo".into();
        let path = write_sweep_json(&result).unwrap();
        assert!(path.ends_with("sweep_test_demo_quick.json"), "{path:?}");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"experiment\": \"test-demo\""));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn sweep_tables_have_one_column_per_trial() {
        let result = demo_sweep();
        let tables = sweep_tables(&result);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].columns.len(), 1 + 3, "stat column + one per trial");
        assert_eq!(tables[0].rows.len(), 2, "one row per stat");
        assert_eq!(tables[1].columns, vec!["stat", "mean", "stderr", "min", "max"]);
        tables[0].print();
        tables[1].print();
    }

    #[test]
    fn json_num_handles_non_finite() {
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
