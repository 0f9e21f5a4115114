//! Output checking: every result an operation returns is judged against the
//! generated ground truth, and the per-operation verdicts are folded into
//! the simulated end-to-end metrics.
//!
//! An operation *fails* when it has no record, is not finished when the
//! drain ends, or returns any result that is not a true matching replica.

use crate::report::RepLine;
use pier_vocab::TermId;
use pier_workload::{Catalog, Evaluator, GroundTruth, Query};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// The verdict on one distinct returned result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A true match that the ground truth counts (adds to recall).
    Goal,
    /// A true match under the returning layer's own query semantics that
    /// the ground truth does not count. PIERSearch drops non-indexable
    /// terms (stop words) before planning, and its InvertedCache plan
    /// matches one term as a keyword and the others as case-insensitive
    /// substrings of the cached filename, so it may return files that a
    /// Gnutella matcher, which needs every term as a keyword, would not.
    Extra,
    /// Not a true matching replica: a wrong file, a host that does not
    /// share it, or an unknown name.
    Invalid,
}

/// How an operation ended, as read back from the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The program kept no record of the operation.
    Missing,
    /// The record exists but the operation had not finished at drain end.
    Unfinished,
    Done,
}

/// One operation, ready to be tallied.
pub struct Op {
    pub status: Status,
    /// Ground-truth matches for this operation.
    pub goal: u64,
    /// One verdict per *distinct* returned result.
    pub verdicts: Vec<Verdict>,
    /// Simulated seconds from issue to the first result, if any arrived.
    pub first_result_s: Option<f64>,
}

/// The simulated outcome of one repetition. Deterministic for a seed: the
/// benchmark checks it is bit-identical across repetitions.
#[derive(Clone, Debug, Default)]
pub struct SimOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Σ ground-truth matches over operations.
    pub goal: u64,
    /// Σ distinct correct results that the ground truth counts.
    pub found: u64,
    /// Issue-to-first-result times of successful operations that got a
    /// result, ascending.
    pub first_result_s: Vec<f64>,
    /// Simulated wire bytes sent during the run phase.
    pub net_bytes: u64,
    /// Failed operations by reason.
    pub failures: BTreeMap<&'static str, u64>,
}

impl SimOutcome {
    pub fn tally(&mut self, op: Op) {
        self.attempted += 1;
        let invalid = op.verdicts.iter().filter(|v| **v == Verdict::Invalid).count();
        let reason = match op.status {
            Status::Missing => Some("no record"),
            Status::Unfinished => Some("not finished at drain end"),
            Status::Done if invalid > 0 => Some("returned a result that is not a true match"),
            Status::Done => None,
        };
        if let Some(reason) = reason {
            self.failed += 1;
            *self.failures.entry(reason).or_default() += 1;
        } else if let Some(t) = op.first_result_s {
            self.first_result_s.push(t);
        }
        self.goal += op.goal;
        self.found += op.verdicts.iter().filter(|v| **v == Verdict::Goal).count() as u64;
    }

    /// Sort the latency sample; call once after the last `tally`.
    pub fn finish(mut self, net_bytes: u64) -> SimOutcome {
        self.first_result_s.sort_by(f64::total_cmp);
        self.net_bytes = net_bytes;
        self
    }

    pub fn recall(&self) -> f64 {
        self.found as f64 / self.goal.max(1) as f64
    }

    pub fn net_kb_per_op(&self) -> f64 {
        self.net_bytes as f64 / 1024.0 / self.attempted.max(1) as f64
    }

    /// Add another repetition's outcome (a different sub-seed) to this one.
    pub fn pool(&mut self, other: &SimOutcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.goal += other.goal;
        self.found += other.found;
        self.net_bytes += other.net_bytes;
        self.first_result_s.extend(&other.first_result_s);
        self.first_result_s.sort_by(f64::total_cmp);
    }

    /// A hash of every simulated quantity, bit for bit, for the check
    /// that repetitions of one seed agree.
    pub fn fingerprint(&self) -> String {
        let mut h = DefaultHasher::new();
        (self.attempted, self.failed, self.goal, self.found, self.net_bytes).hash(&mut h);
        for t in &self.first_result_s {
            t.to_bits().hash(&mut h);
        }
        format!("{:016x}", h.finish())
    }
}

/// Problems that make a run untrustworthy: whatever a repetition found
/// (failed operations among them), and any simulated outcome that differs
/// from an earlier repetition of the same sub-seed, traced or not.
pub fn consistency(reps: &[(u64, &RepLine)]) -> Vec<String> {
    let mut out = Vec::new();
    let mut first: BTreeMap<u64, (usize, &str)> = BTreeMap::new();
    for (i, (sub_seed, r)) in reps.iter().enumerate() {
        out.extend(r.problems.iter().map(|p| format!("repetition {i}: {p}")));
        let (j, fingerprint) = *first.entry(*sub_seed).or_insert((i, &r.fingerprint));
        if fingerprint != r.fingerprint {
            out.push(format!(
                "repetition {i}: simulated outcome differs from repetition {j} of the same sub-seed"
            ));
        }
    }
    out
}

/// Ground truth over a catalog whose files are shared by catalog hosts
/// (the Gnutella leaves of `lab` and `hybrid`).
pub struct ReplicaOracle<'a> {
    catalog: &'a Catalog,
    eval: Evaluator<'a>,
    by_name: HashMap<&'a str, u32>,
}

impl<'a> ReplicaOracle<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        let by_name =
            catalog.files.iter().enumerate().map(|(i, f)| (f.name.as_str(), i as u32)).collect();
        ReplicaOracle { catalog, eval: Evaluator::new(catalog), by_name }
    }

    /// Files matching every term, with their replica count.
    pub fn truth(&self, terms: &[TermId]) -> GroundTruth {
        self.eval.eval(&Query { terms: terms.to_vec() })
    }

    /// Judge one returned replica: file `name` on catalog host `host`
    /// (`None` when the responding node is not a catalog host). A replica
    /// outside `truth` is still a true match when `pier_terms` is given and
    /// the file matches them the way an InvertedCache search does: one of
    /// them as a keyword, every one as a substring of the filename.
    pub fn verdict(
        &self,
        truth: &GroundTruth,
        pier_terms: Option<&[TermId]>,
        name: &str,
        host: Option<u32>,
    ) -> Verdict {
        let (Some(&file), Some(host)) = (self.by_name.get(name), host) else {
            return Verdict::Invalid;
        };
        let shared = self.catalog.host_files.get(host as usize).is_some_and(|s| s.contains(&file))
            && self.catalog.files[file as usize].hosts.contains(&host);
        if !shared {
            Verdict::Invalid
        } else if truth.files.binary_search(&file).is_ok() {
            Verdict::Goal
        } else if pier_terms.is_some_and(|terms| self.cache_match(file, terms)) {
            Verdict::Extra
        } else {
            Verdict::Invalid
        }
    }

    /// InvertedCache semantics (see [`Verdict::Extra`]).
    fn cache_match(&self, file: u32, terms: &[TermId]) -> bool {
        let f = &self.catalog.files[file as usize];
        let name = f.name.to_ascii_lowercase();
        terms.iter().any(|t| f.tokens.contains(t))
            && terms.iter().all(|t| name.contains(&pier_vocab::text(*t).to_ascii_lowercase()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_workload::{CatalogConfig, QueryConfig, QueryTrace};

    fn small_catalog() -> Catalog {
        Catalog::generate(CatalogConfig {
            hosts: 60,
            distinct_files: 300,
            max_replicas: 12,
            vocab: 200,
            phrases: 60,
            seed: 7,
            ..Default::default()
        })
    }

    fn done(goal: u64, verdicts: Vec<Verdict>) -> Op {
        Op { status: Status::Done, goal, verdicts, first_result_s: Some(0.5) }
    }

    #[test]
    fn oracle_accepts_true_replicas_and_rejects_planted_ones() {
        let catalog = small_catalog();
        let oracle = ReplicaOracle::new(&catalog);
        let trace =
            QueryTrace::generate(&catalog, QueryConfig { queries: 50, ..Default::default() });
        let (query, truth) = trace
            .queries
            .iter()
            .map(|q| (q, oracle.truth(&q.terms)))
            .find(|(_, t)| !t.files.is_empty() && t.files.len() < catalog.files.len())
            .expect("some query matches part of the catalog");
        let hit = truth.files[0] as usize;
        let good = &catalog.files[hit];
        assert_eq!(oracle.verdict(&truth, None, &good.name, Some(good.hosts[0])), Verdict::Goal);

        // A file that does not match the query, on a host that shares it.
        let wrong = (0..catalog.files.len())
            .find(|f| truth.files.binary_search(&(*f as u32)).is_err())
            .map(|f| &catalog.files[f])
            .expect("some file does not match");
        assert_eq!(
            oracle.verdict(&truth, None, &wrong.name, Some(wrong.hosts[0])),
            Verdict::Invalid
        );
        // A matching file, on a host that does not share it.
        let not_host = (0..catalog.host_files.len() as u32)
            .find(|h| !good.hosts.contains(h))
            .expect("some host lacks the file");
        assert_eq!(oracle.verdict(&truth, None, &good.name, Some(not_host)), Verdict::Invalid);
        // A name the catalog never had, and a responder that is no host.
        assert_eq!(oracle.verdict(&truth, None, "no_such_file.mp3", Some(0)), Verdict::Invalid);
        assert_eq!(oracle.verdict(&truth, None, &good.name, None), Verdict::Invalid);
        // PIER semantics accept a file carrying every indexable term.
        assert_eq!(
            oracle.verdict(&truth, Some(&query.terms), &good.name, Some(good.hosts[0])),
            Verdict::Goal
        );
    }

    #[test]
    fn inverted_cache_matches_are_true_matches_only_for_pier() {
        let catalog = small_catalog();
        let oracle = ReplicaOracle::new(&catalog);
        // A file with a keyword and a second token long enough to cut.
        let (f, long) = catalog
            .files
            .iter()
            .find_map(|f| {
                let long = f.tokens.iter().skip(1).find(|t| pier_vocab::text(**t).len() >= 4)?;
                Some((f, *long))
            })
            .expect("some file has a long second token");
        let cut = pier_vocab::intern(&pier_vocab::text(long)[1..]);
        let terms = [f.tokens[0], cut];
        let truth = oracle.truth(&terms);
        assert!(!truth.files.iter().any(|&g| catalog.files[g as usize].name == f.name));
        let host = Some(f.hosts[0]);
        assert_eq!(oracle.verdict(&truth, Some(&terms), &f.name, host), Verdict::Extra);
        assert_eq!(oracle.verdict(&truth, None, &f.name, host), Verdict::Invalid);
    }

    #[test]
    fn a_planted_wrong_result_fails_its_operation() {
        let mut out = SimOutcome::default();
        out.tally(done(4, vec![Verdict::Goal, Verdict::Goal]));
        out.tally(done(3, vec![Verdict::Goal, Verdict::Invalid]));
        let out = out.finish(2048);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!((out.goal, out.found), (7, 3));
        // Only the successful operation's latency is sampled.
        assert_eq!(out.first_result_s, vec![0.5]);
        assert_eq!(out.net_kb_per_op(), 1.0);
    }

    #[test]
    fn missing_and_unfinished_operations_fail() {
        let mut out = SimOutcome::default();
        out.tally(Op { status: Status::Missing, goal: 2, verdicts: vec![], first_result_s: None });
        out.tally(Op {
            status: Status::Unfinished,
            goal: 2,
            verdicts: vec![Verdict::Goal],
            first_result_s: Some(1.0),
        });
        out.tally(done(1, vec![Verdict::Extra]));
        assert_eq!((out.attempted, out.failed), (3, 2));
        assert_eq!(out.failures.len(), 2);
    }
}
