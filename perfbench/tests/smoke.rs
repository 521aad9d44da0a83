//! A short pass of every workload, with its output checks: catches a
//! build that breaks a workload or a check before anyone times it.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use pdceval_perfbench::{run, Config, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool) {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-smoke-{}-{trace}", workload.name())),
    };
    let report = run(&cfg).expect("workload runs");
    assert!(
        report.correct(),
        "checks failed: {:?}",
        report.check_failures
    );
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(report.metrics.len(), wanted.len());
    for (name, unit) in wanted {
        let (value, got_unit) = report.metrics[*name];
        assert_eq!(got_unit, *unit, "{name}");
        assert!(value.is_finite(), "{name} = {value}");
        // End-to-end metrics are never 0: the regression bound is a
        // share of the parent's value.
        assert!(trace || value > 0.0, "{name} = {value}");
    }
    let line = report.result_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    if trace {
        let stem = cfg.out_dir.join(format!("{}-seed7", workload.name()));
        let trace = std::fs::read_to_string(stem.with_extension("trace.json")).unwrap();
        assert!(trace.starts_with("{\"traceEvents\": ["));
        let table = std::fs::read_to_string(stem.with_extension("layers.txt")).unwrap();
        assert!(table.contains("self_ms"), "{table}");
    }
}

#[test]
fn tpl_sweep() {
    smoke(Workload::TplSweep, false);
}

#[test]
fn tpl_sweep_traced() {
    smoke(Workload::TplSweep, true);
}

#[test]
fn apl_paper() {
    smoke(Workload::AplPaper, false);
}

#[test]
fn serve_mixed() {
    smoke(Workload::ServeMixed, false);
}

#[test]
fn serve_mixed_traced() {
    smoke(Workload::ServeMixed, true);
}
