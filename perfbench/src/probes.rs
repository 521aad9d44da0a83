//! Layer probes that time one public call in isolation, and the
//! fidelity figure every workload reports.

use crate::spans::Tracer;
use crate::{median, Report};
use pdceval_apps::fft::Fft2d;
use pdceval_apps::jpeg::JpegCompression;
use pdceval_apps::monte_carlo::MonteCarlo;
use pdceval_apps::psrs::PsrsSort;
use pdceval_apps::workload::Workload as App;
use pdceval_core::experiments::paper_data;
use pdceval_mpt::runtime::SpmdHarness;
use pdceval_mpt::ToolKind;
use pdceval_simnet::platform::Platform;
use std::collections::HashMap;
use std::hint::black_box;

/// Barrier-only runs per process count for the run-floor probe.
const FLOOR_RUNS: usize = 50;

/// Repetitions of each sequential application reference.
const SEQ_REPS: usize = 3;

/// `mpt.runtime.run_floor_us.n{2,4,8}`: the host cost of one
/// `SpmdHarness::run` whose ranks do nothing but a barrier.
pub fn run_floor(tracer: &Tracer, report: &mut Report) {
    for n in [2usize, 4, 8] {
        let mut harness =
            SpmdHarness::new(Platform::SUN_ETHERNET, n).expect("sun-eth hosts 8 nodes");
        let samples: Vec<f64> = (0..FLOOR_RUNS)
            .map(|_| {
                let (out, us) =
                    tracer.time(None, "mpt.runtime", format!("run barrier n{n}"), || {
                        harness.run(ToolKind::P4, |node| node.barrier().expect("barrier failed"))
                    });
                black_box(out.expect("barrier-only run failed"));
                us
            })
            .collect();
        report.set(
            &format!("mpt.runtime.run_floor_us.n{n}"),
            median(&samples),
            "us",
        );
    }
}

/// `apps.seq_ms.*`: each paper-scale application's sequential
/// reference, the real compute inside an `apl-paper` point.
pub fn app_sequential(tracer: &Tracer, report: &mut Report) {
    fn time_app<W: App>(tracer: &Tracer, report: &mut Report, slug: &str, app: W) {
        let samples: Vec<f64> = (0..SEQ_REPS)
            .map(|_| {
                let (out, us) = tracer.time(None, "apps", format!("{slug} sequential"), || {
                    app.sequential()
                });
                black_box(out);
                us / 1e3
            })
            .collect();
        report.set(&format!("apps.seq_ms.{slug}"), median(&samples), "ms");
    }
    time_app(tracer, report, "jpeg", JpegCompression::paper());
    time_app(tracer, report, "fft", Fft2d::paper());
    time_app(tracer, report, "montecarlo", MonteCarlo::paper());
    time_app(tracer, report, "sorting", PsrsSort::paper());
}

/// Table 3's scenario key for one cell.
fn table3_key(tool: ToolKind, platform: &str, kb: u64) -> String {
    format!("sendrecv-i2/{}/{platform}/n2/s{}", tool.slug(), kb * 1024)
}

/// `table3_log_err`: the geometric mean of |ln(sim / paper)| over every
/// cell of the paper's Table 3, given the simulated means by scenario
/// key. Errors name the first cell with no usable value.
pub fn table3_log_err(means: &HashMap<String, f64>) -> Result<f64, String> {
    let blocks = [
        ("sun-eth", paper_data::table3_ethernet()),
        ("sun-atm-lan", paper_data::table3_atm_lan()),
        ("sun-atm-wan", paper_data::table3_atm_wan()),
    ];
    let mut sum_ln = 0.0;
    let mut cells = 0usize;
    for (platform, rows) in blocks {
        for (tool, paper) in rows {
            for (kb, want) in paper_data::TABLE3_SIZES_KB.iter().zip(paper) {
                let key = table3_key(tool, platform, *kb);
                let got = means
                    .get(&key)
                    .copied()
                    .filter(|v| *v > 0.0)
                    .ok_or_else(|| format!("table 3 cell {key} has no positive mean"))?;
                sum_ln += (got / want).ln().abs().max(f64::MIN_POSITIVE).ln();
                cells += 1;
            }
        }
    }
    Ok((sum_ln / cells as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_err_of_the_paper_itself_is_tiny_and_a_missing_cell_errors() {
        let mut means = HashMap::new();
        for (platform, rows) in [
            ("sun-eth", paper_data::table3_ethernet()),
            ("sun-atm-lan", paper_data::table3_atm_lan()),
            ("sun-atm-wan", paper_data::table3_atm_wan()),
        ] {
            for (tool, paper) in rows {
                for (kb, v) in paper_data::TABLE3_SIZES_KB.iter().zip(paper) {
                    means.insert(table3_key(tool, platform, *kb), v * std::f64::consts::E);
                }
            }
        }
        // Every cell off by a factor e: |ln| = 1 everywhere.
        assert!((table3_log_err(&means).unwrap() - 1.0).abs() < 1e-12);
        means.remove("sendrecv-i2/p4/sun-eth/n2/s0");
        assert!(table3_log_err(&means).unwrap_err().contains("p4/sun-eth"));
    }
}
