//! # pdceval-perfbench
//!
//! The repository's benchmark: the paper's two-level method (primitive
//! level and application level) applied to the simulator itself. One
//! process drives the public APIs of `campaign`, `mpt`, `apps` and
//! `core` through three workloads:
//!
//! * `tpl-sweep` — a cold [`run_campaign`] over a primitive-level grid
//!   (engine, scheduler and per-run cost; almost no real compute);
//! * `apl-paper` — a cold [`run_campaign`] over the four paper-scale
//!   application campaigns (real compute and payload bytes; few events);
//! * `serve-mixed` — two closed-loop TCP clients against an in-process
//!   [`pdceval_campaign::Server`] (cache, single-flight, ND-JSON).
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run records spans around each public call and reports the
//! per-layer metrics ([`PER_LAYER`]), writing a Chrome trace and a
//! self-time table beside it. Every run checks the workload's outputs.
//!
//! [`run_campaign`]: pdceval_campaign::run_campaign

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod host;
mod probes;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("sim_events_per_s", "events/s"),
    ("req_per_s", "req/s"),
    ("rtt_p50_ms", "ms"),
    ("rtt_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("table3_log_err", "ratio"),
];

/// The golden store of the `quick` campaign, which every workload's
/// set-up runs.
pub(crate) const QUICK_GOLDEN: &str = include_str!("../../tests/golden/quick.jsonl");

/// The campaign kernels whose per-point host time is reported, as
/// scenario-key slugs: the four TPL kernels of `tpl-sweep`, then the
/// four paper-scale applications of `apl-paper`.
pub const KERNELS: [&str; 8] = [
    "sendrecv-i2",
    "broadcast",
    "ring-x1",
    "globalsum",
    "fft-paper",
    "jpeg-paper",
    "montecarlo-paper",
    "sorting-paper",
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("simnet.engine.events_scheduled", "count"),
    ("simnet.engine.host_ns_per_event", "ns"),
    ("simnet.calq.peak_queue_depth", "count"),
    ("simnet.sched.direct_handoffs", "count"),
    ("simnet.sched.inline_resumes", "count"),
    ("simnet.sched.handoff_ratio", "ratio"),
    ("simnet.mailbox.fast_path_hits", "count"),
    ("simnet.mailbox.fast_path_rate", "ratio"),
    ("simnet.fabric.messages_delivered", "count"),
    ("simnet.fabric.wire_bytes", "bytes"),
    ("mpt.runtime.harness_build_us", "us"),
    ("mpt.runtime.run_floor_us.n2", "us"),
    ("mpt.runtime.run_floor_us.n4", "us"),
    ("mpt.runtime.run_floor_us.n8", "us"),
    ("apps.seq_ms.jpeg", "ms"),
    ("apps.seq_ms.fft", "ms"),
    ("apps.seq_ms.montecarlo", "ms"),
    ("apps.seq_ms.sorting", "ms"),
    ("campaign.exec.point_ms.sendrecv-i2.p50", "ms"),
    ("campaign.exec.point_ms.sendrecv-i2.p90", "ms"),
    ("campaign.exec.point_ms.broadcast.p50", "ms"),
    ("campaign.exec.point_ms.broadcast.p90", "ms"),
    ("campaign.exec.point_ms.ring-x1.p50", "ms"),
    ("campaign.exec.point_ms.ring-x1.p90", "ms"),
    ("campaign.exec.point_ms.globalsum.p50", "ms"),
    ("campaign.exec.point_ms.globalsum.p90", "ms"),
    ("campaign.exec.point_ms.fft-paper.p50", "ms"),
    ("campaign.exec.point_ms.fft-paper.p90", "ms"),
    ("campaign.exec.point_ms.jpeg-paper.p50", "ms"),
    ("campaign.exec.point_ms.jpeg-paper.p90", "ms"),
    ("campaign.exec.point_ms.montecarlo-paper.p50", "ms"),
    ("campaign.exec.point_ms.montecarlo-paper.p90", "ms"),
    ("campaign.exec.point_ms.sorting-paper.p50", "ms"),
    ("campaign.exec.point_ms.sorting-paper.p90", "ms"),
    ("campaign.runner.busy_frac", "ratio"),
    ("campaign.store.render_ms", "ms"),
    ("campaign.store.bytes", "bytes"),
    ("campaign.cache.fingerprint_ms", "ms"),
    ("campaign.cache.open_ms", "ms"),
    ("campaign.cache.lookup_us", "us"),
    ("campaign.cache.insert_us", "us"),
    ("campaign.cache.hits", "count"),
    ("campaign.cache.misses", "count"),
    ("campaign.serve.handle_us.query", "us"),
    ("campaign.serve.handle_us.run", "us"),
    ("campaign.serve.handle_us.sweep", "us"),
    ("campaign.serve.transport_ms.query", "ms"),
    ("campaign.serve.transport_ms.run", "ms"),
    ("campaign.serve.transport_ms.sweep", "ms"),
    ("campaign.serve.executed", "count"),
    ("campaign.serve.joined", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_samples", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold campaign over the primitive-level grid.
    TplSweep,
    /// Cold campaign over the four paper-scale application campaigns.
    AplPaper,
    /// Mixed closed-loop traffic against an in-process TCP server.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::TplSweep, Workload::AplPaper, Workload::ServeMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TplSweep => "tpl-sweep",
            Workload::AplPaper => "apl-paper",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for the workload's generated inputs.
    pub seed: u64,
    /// How long the measured phase lasts. At least one pass (one block
    /// of requests for `serve-mixed`) always runs, so a tiny value gives
    /// a smoke pass.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Where the trace files and the server's cache directories go.
    pub out_dir: PathBuf,
}

/// Measured values by metric name, with their units.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, keyed by name.
    pub metrics: Metrics,
    /// Operations attempted (scenario points, or requests).
    pub attempted: u64,
    /// Operations that failed: error records, error responses and
    /// transport failures.
    pub failed: u64,
    /// Output checks that did not hold; empty when the outputs are
    /// correct.
    pub check_failures: Vec<String>,
    /// Human-readable provenance and side figures, printed before the
    /// result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records `setup_s` as the median of the set-up times, and every
    /// sample in the notes.
    pub fn set_setup(&mut self, setups: &[f64]) {
        self.set("setup_s", median(setups), "s");
        let ms: Vec<String> = setups.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
        self.notes.push(format!("# set-up ms: {}", ms.join(" ")));
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Records a failed output check.
    pub fn fail_check(&mut self, what: String) {
        self.check_failures.push(what);
    }

    /// The single-line JSON result.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Renders a finite number in full precision; non-finite values (which
/// only an empty sample can produce) render as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload: the measured phase, the output checks, and — when
/// traced — the span export. Returns an error only when the workload
/// could not run at all (a server that cannot bind, a cache directory
/// that cannot be created).
///
/// # Errors
///
/// A description of the set-up failure.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let provenance = host::Provenance::capture(cfg);
    let tracer = cfg.trace.then(spans::Tracer::new);
    let mut report = match cfg.workload {
        Workload::TplSweep | Workload::AplPaper => campaign::run(cfg, tracer.as_ref()),
        Workload::ServeMixed => serve::run(cfg, tracer.as_ref())?,
    };
    report.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    report
        .metrics
        .retain(|name, _| wanted.iter().any(|(n, _)| n == name));
    for (name, unit) in wanted {
        report
            .metrics
            .entry(name.to_string())
            .or_insert((0.0, unit));
    }
    report
        .notes
        .insert(0, format!("# provenance {}", provenance.to_json()));
    if let Some(tracer) = &tracer {
        let stem = cfg
            .out_dir
            .join(format!("{}-seed{}", cfg.workload.name(), cfg.seed));
        let trace_path = stem.with_extension("trace.json");
        let table_path = stem.with_extension("layers.txt");
        let title = format!("perfbench {} seed {}", cfg.workload.name(), cfg.seed);
        std::fs::write(
            &trace_path,
            tracer.render_chrome(&title, &provenance.to_json()),
        )
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        let table = format!("{}\n{}", provenance.to_json(), tracer.layer_table());
        std::fs::write(&table_path, &table)
            .map_err(|e| format!("cannot write {}: {e}", table_path.display()))?;
        report
            .notes
            .push(format!("# trace {}", trace_path.display()));
        report
            .notes
            .push(format!("# layers {}", table_path.display()));
    }
    Ok(report)
}

/// The median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty sample).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The mean of the sorted `values` whose ranks lie between the `lo`- and
/// `hi`-quantiles, both included (0 for an empty sample).
pub fn band_mean(values: &[f64], lo: f64, hi: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = |q: f64| (q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize;
    let band = &v[rank(lo)..=rank(hi).max(rank(lo))];
    band.iter().sum::<f64>() / band.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn band_mean_averages_the_ranks_between_its_quantiles() {
        let v: Vec<f64> = (0..11).rev().map(f64::from).collect();
        assert_eq!(band_mean(&v, 0.4, 0.6), 5.0);
        assert_eq!(band_mean(&v, 0.8, 1.0), 9.0);
        assert_eq!(band_mean(&v, 0.5, 0.5), 5.0);
        assert_eq!(band_mean(&[], 0.4, 0.6), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("wall_s", 1.25, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
