//! One repetition's raw results, the medians over repetitions, and the
//! printed forms: human-readable lines and the final JSON object.

use crate::check::SimOutcome;
use crate::END_TO_END;
use pier_trace::Obs;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one repetition of a workload measured.
pub struct Rep {
    /// Host seconds from workload start until the first operation is issued.
    pub setup_s: f64,
    /// Host seconds from the first operation to the end of the drain,
    /// result collection included (output checking excluded).
    pub run_s: f64,
    /// Kernel shards the workload ran on.
    pub shards: usize,
    /// Simulated outcome of the operations, checked against ground truth.
    pub sim: SimOutcome,
    /// Per-layer values read from the program's own counters (kernel event
    /// stats, metric classes, actor statistics) after the run.
    pub counts: BTreeMap<&'static str, f64>,
    /// The instruments this repetition ran under (inert when untraced).
    pub obs: Obs,
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending sample (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Rep {
    /// Everything the parent process needs from this repetition.
    pub fn into_line(self) -> RepLine {
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        let mut put = |name: &str, v: f64| values.insert(name.to_string(), v);
        put("setup_s", self.setup_s);
        put("run_s", self.run_s);
        put("peak_rss_mb", peak_rss_mb());
        let mut problems: Vec<String> = self
            .sim
            .failures
            .iter()
            .map(|(why, n)| format!("{n} operations failed: {why}"))
            .collect();
        if self.obs.profiler.is_some() {
            for (name, v) in crate::layers::rep_values(&self, &mut problems) {
                put(name, v);
            }
        }
        let fingerprint = self.sim.fingerprint();
        RepLine { values, sim: self.sim, fingerprint, problems }
    }
}

/// What one repetition's process reports to the parent: named host and
/// per-layer values, the simulated outcome with a fingerprint of it, and
/// the problems the repetition found.
pub struct RepLine {
    pub values: BTreeMap<String, f64>,
    /// Failure reasons travel as `problems`; `sim.failures` stays empty.
    pub sim: SimOutcome,
    pub fingerprint: String,
    pub problems: Vec<String>,
}

impl RepLine {
    /// The value of `name` (0 when this repetition did not report it).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Line-oriented form: `value <name> <v>`, `sim <attempted> <failed>
    /// <goal> <found> <net_bytes>`, `samples <s>…`, `fingerprint <hex>` and
    /// `problem <text>` lines.
    pub fn write(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.values {
            let _ = writeln!(s, "value {name} {v:?}");
        }
        let o = &self.sim;
        let _ =
            writeln!(s, "sim {} {} {} {} {}", o.attempted, o.failed, o.goal, o.found, o.net_bytes);
        s.push_str("samples");
        for t in &o.first_result_s {
            let _ = write!(s, " {t:?}");
        }
        s.push('\n');
        let _ = writeln!(s, "fingerprint {}", self.fingerprint);
        for p in &self.problems {
            let _ = writeln!(s, "problem {p}");
        }
        s
    }

    pub fn parse(text: &str) -> Result<RepLine, String> {
        let mut line = RepLine {
            values: BTreeMap::new(),
            sim: SimOutcome::default(),
            fingerprint: String::new(),
            problems: vec![],
        };
        let bad = |l: &str| format!("bad line {l:?}");
        for l in text.lines() {
            let (kind, rest) = l.split_once(' ').unwrap_or((l, ""));
            match kind {
                "value" => {
                    let (name, v) = rest.split_once(' ').ok_or_else(|| bad(l))?;
                    line.values.insert(name.to_string(), v.parse().map_err(|_| bad(l))?);
                }
                "sim" => {
                    let n: Vec<u64> = rest
                        .split(' ')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad(l))?;
                    let [attempted, failed, goal, found, net_bytes] = n[..] else {
                        return Err(bad(l));
                    };
                    line.sim = SimOutcome { attempted, failed, goal, found, net_bytes, ..line.sim };
                }
                "samples" => {
                    line.sim.first_result_s = rest
                        .split_whitespace()
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad(l))?;
                }
                "fingerprint" => line.fingerprint = rest.to_string(),
                "problem" => line.problems.push(rest.to_string()),
                _ => return Err(bad(l)),
            }
        }
        if line.fingerprint.is_empty() || line.sim.attempted == 0 {
            return Err("a repetition reported no fingerprint or no operations".into());
        }
        Ok(line)
    }
}

/// End-to-end metrics over the untraced repetitions.
pub struct Summary {
    values: BTreeMap<&'static str, f64>,
    sim: SimOutcome,
    reps: usize,
}

impl Summary {
    /// Host metrics are medians over repetitions. Simulated metrics pool
    /// the outcomes of the distinct sub-seeds (repetitions of one sub-seed
    /// are identical, which `check::consistency` verifies).
    pub fn of(reps: &[(u64, RepLine)]) -> Summary {
        let med = |name: &str| median(&reps.iter().map(|(_, r)| r.get(name)).collect::<Vec<_>>());
        let mut sim = SimOutcome::default();
        let mut pooled = Vec::new();
        for (sub_seed, r) in reps {
            if !pooled.contains(sub_seed) {
                pooled.push(*sub_seed);
                sim.pool(&r.sim);
            }
        }
        let samples = &sim.first_result_s;
        let values = END_TO_END
            .iter()
            .map(|&(name, _)| {
                let v = match name {
                    "sim.recall" => sim.recall(),
                    "sim.net_kb_per_op" => sim.net_kb_per_op(),
                    "sim.first_result_s.p50" => quantile(samples, 0.50),
                    "sim.first_result_s.p95" => quantile(samples, 0.95),
                    _ => med(name),
                };
                (name, v)
            })
            .collect();
        Summary { values, sim, reps: reps.len() }
    }

    /// Every end-to-end metric, in `END_TO_END` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        END_TO_END.iter().map(|&(name, unit)| (name, self.values[name], unit)).collect()
    }

    pub fn human_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics()
            .into_iter()
            .map(|(name, v, unit)| format!("{name:<28} {v:>14.6} {unit}"))
            .collect();
        let fail_rate = self.sim.failed as f64 / self.sim.attempted.max(1) as f64;
        out.push(format!("{:<28} {:>14.6} ratio", "fail_rate", fail_rate));
        out.push(format!(
            "{:<28} {:>14} count  (operations behind the first_result quantiles)",
            "sim.first_result_s.n",
            self.sim.first_result_s.len()
        ));
        out.push(format!("{:<28} {:>14} count", "repetitions", self.reps));
        out
    }

    /// Reasons the end-to-end result cannot be trusted.
    pub fn problems(&self) -> Vec<String> {
        self.metrics()
            .into_iter()
            .filter(|(_, v, _)| !(v.is_finite() && *v > 0.0))
            .map(|(name, v, _)| format!("{name} is {v}, expected a positive number"))
            .collect()
    }
}

/// The final JSON line.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; they are also reported as check
        // failures, so writing 0 here cannot pass silently.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.95), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rep_lines_round_trip() {
        let mut values = BTreeMap::new();
        values.insert("run_s".to_string(), 0.1 + 0.2);
        values.insert("netsim.events".to_string(), 1e6);
        let sim = SimOutcome {
            attempted: 5,
            failed: 1,
            goal: 9,
            found: 4,
            net_bytes: 12_345,
            first_result_s: vec![0.1, 1.0 / 3.0, 7.25],
            ..SimOutcome::default()
        };
        let line =
            RepLine { values, fingerprint: sim.fingerprint(), sim, problems: vec!["x y".into()] };
        let back = RepLine::parse(&line.write()).unwrap();
        assert_eq!(back.values, line.values);
        assert_eq!(back.sim.fingerprint(), line.fingerprint, "every simulated bit survives");
        assert_eq!(back.fingerprint, line.fingerprint);
        assert_eq!(back.problems, vec!["x y".to_string()]);
        assert!(RepLine::parse("value run_s 1.0\n").is_err(), "a report needs a fingerprint");
    }

    #[test]
    fn json_has_exactly_the_result_keys() {
        let j = result_json(true, 3, 0, &[("run_s", 1.5, "s"), ("setup_s", 0.25, "s")]);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": \
             {\"value\": 1.5, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
