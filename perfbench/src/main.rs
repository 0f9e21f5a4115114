//! `perfbench` — the simulator's benchmark.
//!
//! One process runs one workload (`lab`, `hybrid` or `churn`) for a fixed
//! host-time budget, repeating the workload's fixed batch of simulated work
//! as often as the budget allows, and prints every metric by name and unit.
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! perfbench --workload <lab|hybrid|churn> --seed <n> --seconds <s> --trace <0|1> [--shards <k>]
//! perfbench --list
//! ```
//!
//! Every repetition runs in a fresh child process (`--rep`), so each starts
//! from a cold heap and reports its own peak RSS. With `--trace 0` the
//! metrics are the end-to-end ones, taken from untraced repetitions. With
//! `--trace 1` they are the per-layer ones, taken from traced repetitions
//! that alternate with untraced ones (the pair gives `trace.overhead_pct`).
//! See `README.md` for what each metric means.

mod check;
mod churn;
mod hybrid;
mod lab;
mod layers;
mod micro;
mod report;
mod stamp;

use layers::Layers;
use report::{Rep, RepLine};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Seed of every workload's content: its file catalog and query trace.
/// Content is fixed per workload so that recall and traffic compare
/// across seeds; `--seed` draws the network the content runs on.
pub const CONTENT_SEED: u64 = 0x6AB;

/// Each run pools the simulated outcome of this many sub-seeds derived from
/// `--seed`, one network per sub-seed, so that tail quantiles and recall
/// rest on three networks' worth of operations.
const SUB_SEEDS: usize = 3;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["lab", "hybrid", "churn"];

/// End-to-end metrics: name and unit. `fail_rate` is printed on its own
/// line but carried in the JSON by `attempted`/`failed`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim.recall", "ratio"),
    ("sim.net_kb_per_op", "KB"),
    ("sim.first_result_s.p50", "s"),
    ("sim.first_result_s.p95", "s"),
];

/// Run one repetition of a workload on a seed and a kernel shard count:
/// build it, issue its operations, drain, collect and check. `obs` is inert
/// for untraced repetitions.
type RunRep = fn(u64, usize, &pier_trace::Obs) -> Rep;

/// A workload's repetition and its default kernel shard count.
fn workload(name: &str) -> (RunRep, usize) {
    match name {
        "lab" => (lab::rep, lab::SHARDS),
        "hybrid" => (hybrid::rep, 1),
        _ => (churn::rep, 1),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Kernel shards; the workload's own default unless `--shards` is
    /// given. Simulated results are identical for every shard count.
    shards: usize,
    /// Run exactly one repetition in this process and report it on stdout
    /// (how the benchmark runs each repetition in a fresh process).
    rep: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut rep) =
        (None, None, None, false, false);
    let mut shards = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--list" => return Ok(None),
            "--rep" => {
                rep = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--shards" => {
                let n = value.parse::<usize>().map_err(|e| format!("--shards: {e}"))?;
                shards = Some(n.clamp(1, pier_netsim::MAX_SHARDS));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (known: {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let shards = shards.unwrap_or(self::workload(&workload).1);
    let seed = seed.ok_or("--seed is required")?;
    Ok(Some(Args { workload, seed, seconds, trace, shards, rep }))
}

/// Print the workload and metric names the runner reports.
fn list() {
    println!("workloads: {}", WORKLOADS.join(" "));
    for (name, unit) in END_TO_END {
        println!("end_to_end {name} {unit}");
    }
    for (name, unit) in layers::PER_LAYER {
        println!("per_layer {name} {unit}");
    }
}

/// One repetition in this process: print its report and exit without
/// tearing the simulation down.
fn child(args: &Args) -> ! {
    let (run, _) = workload(&args.workload);
    let obs = if args.trace { layers::traced_obs() } else { pier_trace::Obs::default() };
    let line = run(args.seed, args.shards, &obs).into_line();
    let mut out = std::io::stdout().lock();
    let ok = out.write_all(line.write().as_bytes()).and_then(|()| out.flush()).is_ok();
    std::process::exit(if ok { 0 } else { 1 })
}

/// Run one repetition in a fresh process, so that every repetition starts
/// from the same cold heap and its peak RSS is its own.
fn spawn_rep(args: &Args, sub_seed: u64, traced: bool) -> Result<RepLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--rep", "--workload", &args.workload])
        .args(["--seed", &sub_seed.to_string(), "--shards", &args.shards.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("a repetition exited with {}", out.status));
    }
    RepLine::parse(&String::from_utf8_lossy(&out.stdout))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            list();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.rep {
        child(&args);
    }
    println!(
        "{}",
        stamp::Stamp::collect(&args.workload, args.seed, args.shards, args.trace).line()
    );

    // Repeat until the budget is spent, never starting a repetition that
    // the mean one so far says would overrun it. Repetition `r` runs
    // sub-seed `r % SUB_SEEDS`; an untraced run makes at least one
    // repetition per sub-seed, a traced run at least one traced/untraced
    // pair (both on the same sub-seed).
    let t0 = Instant::now();
    let mut plain: Vec<(u64, RepLine)> = Vec::new();
    let mut traced: Vec<(u64, RepLine)> = Vec::new();
    let min = if args.trace { 1 } else { SUB_SEEDS };
    for r in 0.. {
        let sub_seed = pier_netsim::derive_seed(args.seed, (r % SUB_SEEDS) as u64);
        for traced_rep in [false, true] {
            if traced_rep && !args.trace {
                continue;
            }
            match spawn_rep(&args, sub_seed, traced_rep) {
                Ok(line) if traced_rep => traced.push((sub_seed, line)),
                Ok(line) => plain.push((sub_seed, line)),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let done = r + 1;
        if done >= min
            && t0.elapsed().as_secs_f64() * (done + 1) as f64 / done as f64 > args.seconds
        {
            break;
        }
    }
    for (i, (sub_seed, r)) in plain.iter().chain(&traced).enumerate() {
        eprintln!(
            "rep {i}: sub-seed {sub_seed:016x} setup {:.3}s run {:.3}s rss {:.0}MB ops {} failed {}",
            r.get("setup_s"),
            r.get("run_s"),
            r.get("peak_rss_mb"),
            r.sim.attempted,
            r.sim.failed
        );
    }

    let all: Vec<(u64, &RepLine)> = plain.iter().chain(&traced).map(|(s, r)| (*s, r)).collect();
    let mut problems = check::consistency(&all);
    let summary = report::Summary::of(&plain);
    for line in summary.human_lines() {
        println!("{line}");
    }
    problems.extend(summary.problems());
    let metrics = if args.trace {
        let layers = Layers::finish(&plain, &traced);
        for line in layers.human_lines() {
            println!("{line}");
        }
        layers.metrics()
    } else {
        summary.metrics()
    };
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let attempted: u64 = all.iter().map(|(_, r)| r.sim.attempted).sum();
    let failed: u64 = all.iter().map(|(_, r)| r.sim.failed).sum();
    let correct = problems.is_empty() && failed == 0;
    println!("{}", report::result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
