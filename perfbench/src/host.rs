//! Host provenance and memory figures: no number is read without the
//! host that produced it.

use crate::Config;
use pdceval_campaign::json::escape;

/// Where and how a run was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// The kernel's `Cpus_allowed_list` for this process.
    pub cpus_allowed_list: String,
    /// `std::thread::available_parallelism` (affinity and quotas).
    pub available_parallelism: usize,
    /// The checkout's commit, when it is a git repository.
    pub git_sha: Option<String>,
    /// The workload run.
    pub workload: &'static str,
    /// The workload seed.
    pub seed: u64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Length of the measured phase.
    pub seconds: f64,
}

impl Provenance {
    /// Reads the host's figures for a run of `cfg`.
    pub fn capture(cfg: &Config) -> Provenance {
        let cpus_allowed_list = proc_status_field("Cpus_allowed_list").unwrap_or_default();
        Provenance {
            nproc: count_cpu_list(&cpus_allowed_list).unwrap_or_else(available_parallelism),
            cpus_allowed_list,
            available_parallelism: available_parallelism(),
            git_sha: pdceval_campaign::store::git_sha(),
            workload: cfg.workload.name(),
            seed: cfg.seed,
            traced: cfg.trace,
            seconds: cfg.seconds,
        }
    }

    /// One flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpus_allowed_list\": \"{}\", \"available_parallelism\": {}, \
             \"git_sha\": {}, \"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"seconds\": {}}}",
            self.nproc,
            escape(&self.cpus_allowed_list),
            self.available_parallelism,
            self.git_sha
                .as_deref()
                .map(|s| format!("\"{}\"", escape(s)))
                .unwrap_or_else(|| "null".to_string()),
            self.workload,
            self.seed,
            self.traced,
            self.seconds,
        )
    }
}

/// The worker count the CLI defaults to.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn proc_status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key == name).then(|| value.trim().to_string())
    })
}

/// Counts the CPUs in a list such as `0-3,8,10-11`.
fn count_cpu_list(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.split(',').filter(|p| !p.is_empty()) {
        n += match part.split_once('-') {
            Some((a, b)) => {
                b.parse::<usize>()
                    .ok()?
                    .checked_sub(a.parse::<usize>().ok()?)?
                    + 1
            }
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    (n > 0).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count() {
        assert_eq!(count_cpu_list("0-3,8,10-11"), Some(7));
        assert_eq!(count_cpu_list("1"), Some(1));
        assert_eq!(count_cpu_list(""), None);
        assert_eq!(count_cpu_list("3-1"), None);
    }
}
