//! Command-line parsing for the harness bins (`repro`, `shard_bench`,
//! `mem_bench`). Flags are taken out of the argument list by name, at any
//! position; whatever no flag claims must be exactly what the command
//! expects. A missing or bad value, a repeated flag and an unknown argument
//! are all errors, so a mistyped flag can never run a different experiment
//! than the one asked for.

use crate::experiments::{self, Experiment};
use crate::lab::Scale;
use crate::sweep::DEFAULT_BASE_SEED;

/// Flags not yet taken from an argument list.
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags { args: args.into_iter().collect() }
    }

    /// Take the boolean `flag`, returning whether it was present.
    pub fn switch(&mut self, flag: &str) -> Result<bool, String> {
        let found = self.position(flag)?;
        if let Some(i) = found {
            self.args.remove(i);
        }
        Ok(found.is_some())
    }

    /// Take `flag <value>`, parsed by `parse`; `expected` describes a
    /// valid value for the error message.
    pub fn value<T>(
        &mut self,
        flag: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(i) = self.position(flag)? else { return Ok(None) };
        let Some(v) = self.args.get(i + 1) else {
            return Err(format!("{flag} needs a value ({expected})"));
        };
        let parsed =
            parse(v).ok_or_else(|| format!("bad value for {flag}: '{v}' (expected {expected})"))?;
        self.args.drain(i..=i + 1);
        Ok(Some(parsed))
    }

    /// The first argument not yet taken.
    pub fn peek(&self) -> Option<&str> {
        self.args.first().map(String::as_str)
    }

    /// The arguments no flag claimed; any left-over `--flag` is an error.
    pub fn rest(self) -> Result<Vec<String>, String> {
        match self.args.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unknown flag '{flag}'")),
            None => Ok(self.args),
        }
    }

    /// Require that every argument was claimed.
    pub fn finish(self) -> Result<(), String> {
        match self.rest()?.first() {
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
            None => Ok(()),
        }
    }

    fn position(&self, flag: &str) -> Result<Option<usize>, String> {
        let mut hits = self.args.iter().enumerate().filter(|(_, a)| *a == flag).map(|(i, _)| i);
        let first = hits.next();
        if hits.next().is_some() {
            return Err(format!("{flag} given more than once"));
        }
        Ok(first)
    }
}

/// A positive integer (shard, trial and job counts).
fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n >= 1)
}

/// A `u64` in decimal or `0x`-prefixed hex (seeds print as hex, so they
/// must round-trip).
fn number(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

const SCALES: &str = "quick, sparse, full, metro or metro-lite";

/// `--scale <name>`, defaulting to quick.
pub fn scale(flags: &mut Flags) -> Result<Scale, String> {
    Ok(flags.value("--scale", SCALES, Scale::parse)?.unwrap_or(Scale::Quick))
}

pub const REPRO_USAGE: &str = "\
usage: repro [<experiment> | all] [--scale S] [--shards N] [--profile] [--trace-queries N] [--progress]
       repro sweep <experiment> [--trials N] [--jobs J] [--seed S] [same flags]";

/// What one `repro` invocation runs.
pub enum Command {
    All,
    Run(&'static Experiment),
    Sweep { experiment: &'static Experiment, trials: usize, jobs: Option<usize>, base_seed: u64 },
}

/// A parsed `repro` command line.
pub struct Repro {
    pub scale: Scale,
    pub shards: usize,
    pub profile: bool,
    pub progress: bool,
    pub trace_queries: usize,
    pub command: Command,
}

/// Parse `repro`'s arguments (without the program name).
pub fn parse_repro(args: impl IntoIterator<Item = String>) -> Result<Repro, String> {
    let mut flags = Flags::new(args);
    let scale = scale(&mut flags)?;
    let shards = flags.value("--shards", "a positive integer", positive)?.unwrap_or(1);
    let profile = flags.switch("--profile")?;
    let progress = flags.switch("--progress")?;
    let trace_queries =
        flags.value("--trace-queries", "a non-negative integer", |v| v.parse().ok())?.unwrap_or(0);
    let sweep = if flags.peek() == Some("sweep") {
        Some((
            flags.value("--trials", "a positive integer", positive)?.unwrap_or(4),
            flags.value("--jobs", "a positive integer", positive)?,
            flags
                .value("--seed", "a number, e.g. 4 or 0x5eed", number)?
                .unwrap_or(DEFAULT_BASE_SEED),
        ))
    } else {
        None
    };
    let command = match (flags.rest()?.as_slice(), sweep) {
        ([], _) => Command::All,
        ([id], None) if id == "all" => Command::All,
        ([id], None) => Command::Run(find(id)?),
        ([_, id], Some((trials, jobs, base_seed))) => {
            let experiment = find(id)?;
            if !experiment.sweepable {
                return Err(format!("'{id}' has no random component to sweep"));
            }
            Command::Sweep { experiment, trials, jobs, base_seed }
        }
        ([_], Some(_)) => return Err("sweep needs an experiment".to_string()),
        ([_, extra, ..], _) => return Err(format!("unexpected argument '{extra}'")),
    };
    Ok(Repro { scale, shards, profile, progress, trace_queries, command })
}

fn find(id: &str) -> Result<&'static Experiment, String> {
    experiments::find(id).ok_or_else(|| {
        let known: Vec<&str> = experiments::REGISTRY.iter().map(|e| e.name).collect();
        format!("unknown experiment '{id}' (known: {}, all, sweep)", known.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Repro, String> {
        parse_repro(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_anywhere_and_aliases_resolve() {
        let r = parse("--shards 2 fig5 --scale sparse --profile").unwrap();
        assert_eq!((r.scale, r.shards, r.profile, r.progress), (Scale::Sparse, 2, true, false));
        assert!(matches!(r.command, Command::Run(e) if e.name == "figs4to7"));
        assert!(matches!(parse("").unwrap().command, Command::All));
        assert!(matches!(parse("all --trace-queries 8").unwrap().command, Command::All));
        let r = parse("sweep crawl --seed 0x5eed --trials 2 --jobs 3").unwrap();
        match r.command {
            Command::Sweep { experiment, trials, jobs, base_seed } => {
                assert_eq!(
                    (experiment.name, trials, jobs, base_seed),
                    ("fig8", 2, Some(3), 0x5eed)
                );
            }
            _ => panic!("expected a sweep"),
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse("horizon --shards").is_err());
        assert!(parse("sweep horizon --trials").is_err());
    }

    #[test]
    fn bad_value_is_an_error() {
        assert!(parse("horizon --shards 0").is_err());
        assert!(parse("horizon --scale huge").is_err());
        assert!(parse("horizon --trace-queries -1").is_err());
        assert!(parse("sweep horizon --seed 0xZZ").is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse("model-params --seed 7 --bogus").is_err());
        assert!(parse("horizon --trials 3").is_err(), "sweep flags outside a sweep");
        assert!(parse("--bogus").is_err());
        assert!(parse("horizon churn").is_err());
        assert!(parse("nonsense").is_err());
        assert!(parse("sweep model-params").is_err(), "model-params has nothing to sweep");
    }

    #[test]
    fn duplicated_flag_is_an_error() {
        assert!(parse("horizon --profile --profile").is_err());
        assert!(parse("horizon --shards 2 --shards 2").is_err());
        assert!(parse("sweep churn --jobs 1 --jobs 2").is_err());
    }

    #[test]
    fn finish_rejects_leftovers() {
        let mut flags = Flags::new(["--scale", "full", "extra"].map(String::from));
        assert_eq!(scale(&mut flags), Ok(Scale::Full));
        assert!(flags.finish().is_err());
        assert!(Flags::new(Vec::new()).finish().is_ok());
    }
}
