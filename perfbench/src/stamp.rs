//! The run stamp: what produced a result, printed before it.

/// Commit, host, core count, workload, shard count and seed of one run.
pub struct Stamp {
    commit: String,
    host: String,
    nproc: usize,
    workload: String,
    shards: usize,
    seed: u64,
    trace: bool,
}

impl Stamp {
    pub fn collect(workload: &str, seed: u64, shards: usize, trace: bool) -> Stamp {
        Stamp {
            commit: commit().unwrap_or_else(|| "unknown".into()),
            host: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map(|h| h.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workload: workload.to_string(),
            shards,
            seed,
            trace,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "# perfbench commit={} host={} nproc={} workload={} shards={} seed={} trace={}",
            self.commit,
            self.host,
            self.nproc,
            self.workload,
            self.shards,
            self.seed,
            self.trace as u8
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory when
/// there is one (a source export has none).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}
