//! `tpl-sweep` and `apl-paper`: cold campaign passes.
//!
//! A pass is one cold [`run_campaign`] over the workload's grid with the
//! CLI's default worker count. Untraced passes time each point from the
//! runner's completion callback (the gap since the same worker's
//! previous completion). Traced passes drive [`run_point`] on the same
//! number of benchmark threads instead, so each point gets a span whose
//! arguments are the record's engine counters. Traced runs alternate
//! untraced and traced passes, and report the ratio of their median wall
//! times as the tracing overhead.

use crate::spans::Tracer;
use crate::{band_mean, median, percentile, probes, Config, Report, Workload};
use pdceval_campaign::campaigns::{self, figure4_vector_sizes, table3_sizes_bytes};
use pdceval_campaign::runner::run_point;
use pdceval_campaign::store::{render_jsonl, StoreMeta};
use pdceval_campaign::{
    run_campaign, run_campaign_with, CampaignOptions, Executor, Kernel, RecordStatus, Scale,
    Scenario, ScenarioGrid, ScenarioRecord,
};
use pdceval_mpt::hash::{fnv1a_64, hex16};
use pdceval_mpt::runtime::SpmdHarness;
use pdceval_mpt::ToolKind;
use pdceval_simnet::perturb::SplitMix64;
use pdceval_simnet::platform::Platform;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The paper's TPL campaigns, byte-identical to their golden stores.
const TPL_GOLDEN: [(&str, &str); 4] = [
    (
        "table3-sendrecv",
        include_str!("../../tests/golden/table3-sendrecv.jsonl"),
    ),
    (
        "fig2-broadcast",
        include_str!("../../tests/golden/fig2-broadcast.jsonl"),
    ),
    (
        "fig3-ring",
        include_str!("../../tests/golden/fig3-ring.jsonl"),
    ),
    (
        "fig4-globalsum",
        include_str!("../../tests/golden/fig4-globalsum.jsonl"),
    ),
];

/// FNV-1a digests of the paper-scale application campaigns' stores
/// (rendered with `StoreMeta::none()`), recorded from the commit the
/// benchmark was introduced on. The checked-in goldens cover only the
/// quick scale.
const APL_DIGESTS: [(&str, u64); 4] = [
    ("fig5-apps-alpha", 0xaa79_4f2c_4e06_2de1),
    ("fig6-apps-sp1", 0xb65e_e63a_5e01_5014),
    ("fig7-apps-nynet", 0x3c21_684f_5dc1_dd96),
    ("fig8-apps-ethernet", 0x0817_e97e_65dc_58aa),
];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// What a pass's records must match.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Golden(&'static str),
    Digest(u64),
}

/// A workload's scenario list and the checks on slices of its records.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Every point of one pass, in order.
    pub scenarios: Vec<Scenario>,
    checks: Vec<(&'static str, Range<usize>, Expect)>,
}

fn paper_campaign(name: &str) -> campaigns::Campaign {
    campaigns::by_name(name, Scale::Paper).expect("built-in campaign")
}

impl Plan {
    /// `tpl-sweep`: the four paper TPL campaigns unchanged, then the rest
    /// of `sendrecv-i2`/`broadcast`/`ring-x1` over the Table 3 sizes and
    /// `globalsum` over the Figure 4 sizes, for every built-in tool and
    /// platform at 2, 4 and 8 processes (validity-filtered), in an order
    /// shuffled by `seed`.
    pub fn tpl(seed: u64) -> Plan {
        let mut plan = Plan {
            scenarios: Vec::new(),
            checks: Vec::new(),
        };
        for (name, golden) in TPL_GOLDEN {
            plan.push_campaign(name, Expect::Golden(golden));
        }
        let grid = |kernels: Vec<Kernel>, sizes: Vec<u64>| {
            ScenarioGrid::new()
                .kernels(kernels)
                .tools(ToolKind::builtin())
                .platforms(Platform::builtin())
                .nprocs([2, 4, 8])
                .sizes(sizes)
                .scenarios()
        };
        let seen: HashSet<Scenario> = plan.scenarios.iter().copied().collect();
        let mut rest: Vec<Scenario> = grid(
            vec![
                Kernel::SendRecv { iters: 2 },
                Kernel::Broadcast,
                Kernel::Ring { shifts: 1 },
            ],
            table3_sizes_bytes(),
        )
        .into_iter()
        .chain(grid(vec![Kernel::GlobalSum], figure4_vector_sizes()))
        .filter(|sc| !seen.contains(sc))
        .collect();
        shuffle(&mut rest, seed);
        plan.scenarios.extend(rest);
        plan
    }

    /// `apl-paper`: Figures 5-8 at paper scale, in the paper's order.
    pub fn apl() -> Plan {
        let mut plan = Plan {
            scenarios: Vec::new(),
            checks: Vec::new(),
        };
        for (name, digest) in APL_DIGESTS {
            plan.push_campaign(name, Expect::Digest(digest));
        }
        plan
    }

    fn push_campaign(&mut self, name: &'static str, expect: Expect) {
        let start = self.scenarios.len();
        self.scenarios.extend(paper_campaign(name).scenarios);
        self.checks
            .push((name, start..self.scenarios.len(), expect));
    }

    /// Where the named paper campaign's points sit in a pass.
    fn range(&self, name: &str) -> Option<Range<usize>> {
        self.checks
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, r, _)| r.clone())
    }

    /// Checks a pass's records; returns one message per failed check.
    pub fn check(&self, records: &[ScenarioRecord]) -> Vec<String> {
        let mut failures = Vec::new();
        for (name, range, expect) in &self.checks {
            let store = render_jsonl(&records[range.clone()], &StoreMeta::none());
            match expect {
                Expect::Golden(golden) if store != *golden => {
                    let line = store
                        .lines()
                        .zip(golden.lines())
                        .position(|(a, b)| a != b)
                        .unwrap_or(store.lines().count().min(golden.lines().count()));
                    failures.push(format!(
                        "{name}: store differs from tests/golden/{name}.jsonl at line {}",
                        line + 1
                    ));
                }
                Expect::Digest(want) if fnv1a_64(store.as_bytes()) != *want => {
                    failures.push(format!(
                        "{name}: store digest {} differs from the recorded {}",
                        hex16(fnv1a_64(store.as_bytes())),
                        hex16(*want)
                    ));
                }
                _ => {}
            }
        }
        failures
    }
}

/// Seeded Fisher-Yates shuffle.
pub(crate) fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One pass's records, wall time and per-point host times.
struct Pass {
    records: Vec<ScenarioRecord>,
    wall_s: f64,
    point_ms: Vec<(Scenario, f64)>,
}

impl Pass {
    /// Engine events the pass simulated (every repetition counts).
    fn events(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| {
                Some(r.counters.as_ref()?.events_scheduled * u64::from(r.scenario.reps.max(1)))
            })
            .sum()
    }
}

/// A cold `run_campaign`, timing each point from the completion
/// callback: a worker's next completion minus its previous one.
fn untraced_pass(scenarios: &[Scenario], workers: usize) -> Pass {
    let start = Instant::now();
    let last: Mutex<HashMap<std::thread::ThreadId, Instant>> = Mutex::new(HashMap::new());
    let times: Mutex<Vec<(Scenario, f64)>> = Mutex::new(Vec::with_capacity(scenarios.len()));
    let on_done = |_: usize, _: usize, r: &ScenarioRecord| {
        let now = Instant::now();
        let prev = last
            .lock()
            .expect("timing map poisoned")
            .insert(std::thread::current().id(), now)
            .unwrap_or(start);
        times
            .lock()
            .expect("timing list poisoned")
            .push((r.scenario, (now - prev).as_secs_f64() * 1e3));
    };
    let opts = CampaignOptions {
        on_scenario_done: Some(&on_done),
        ..CampaignOptions::default()
    };
    let records = run_campaign_with(scenarios, workers, &opts);
    let wall_s = start.elapsed().as_secs_f64();
    Pass {
        records,
        wall_s,
        point_ms: times.into_inner().expect("timing list poisoned"),
    }
}

/// The same pass driven by the benchmark: `workers` threads, each with
/// its own executor, claiming points in order; one span per point with
/// the record's counters as arguments, under one span for the pass.
fn traced_pass(scenarios: &[Scenario], workers: usize, tracer: &Tracer) -> Pass {
    let pass_id = tracer.id();
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(ScenarioRecord, f64)>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, scenarios.len().max(1)) {
            scope.spawn(|| {
                let mut exec = Executor::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(sc) = scenarios.get(i) else { break };
                    let t = Instant::now();
                    let record = run_point(&mut exec, sc);
                    let end = Instant::now();
                    let args = record
                        .counters
                        .as_ref()
                        .map(|c| {
                            vec![
                                ("events_scheduled", c.events_scheduled),
                                ("peak_queue_depth", c.peak_queue_depth),
                                ("direct_handoffs", c.direct_handoffs),
                                ("inline_resumes", c.inline_resumes),
                                ("mailbox_fast_path_hits", c.mailbox_fast_path_hits),
                                ("messages_delivered", c.messages_delivered),
                                ("wire_bytes", c.wire_bytes),
                            ]
                        })
                        .unwrap_or_default();
                    tracer.record(
                        tracer.id(),
                        Some(pass_id),
                        "campaign.exec",
                        sc.key(),
                        t,
                        end,
                        args,
                    );
                    let ms = (end - t).as_secs_f64() * 1e3;
                    *slots[i].lock().expect("result slot poisoned") = Some((record, ms));
                }
            });
        }
    });
    let end = Instant::now();
    tracer.record(
        pass_id,
        None,
        "campaign.runner",
        "pass",
        start,
        end,
        Vec::new(),
    );
    let (records, point_ms): (Vec<_>, Vec<_>) = slots
        .into_iter()
        .map(|slot| {
            let (r, ms) = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("every point claimed");
            let scenario = r.scenario;
            (r, (scenario, ms))
        })
        .unzip();
    Pass {
        records,
        wall_s: (end - start).as_secs_f64(),
        point_ms,
    }
}

/// Set-up: enumerate the plan, build one cluster skeleton for each
/// distinct `(platform, nprocs)` pair it touches, and warm the runner
/// with one cold `quick` campaign — what a cold campaign pays before its
/// first timed point. Returns the plan, the set-up time, each skeleton's
/// build time in µs, and the warm-up's store.
fn setup(workload: Workload, seed: u64, workers: usize) -> (Plan, f64, Vec<f64>, String) {
    let start = Instant::now();
    let plan = match workload {
        Workload::TplSweep => Plan::tpl(seed),
        _ => Plan::apl(),
    };
    let mut pairs: Vec<(Platform, usize)> = plan
        .scenarios
        .iter()
        .map(|sc| (sc.platform, sc.nprocs))
        .collect();
    pairs.sort_by_key(|(p, n)| (p.slug(), *n));
    pairs.dedup();
    let builds: Vec<f64> = pairs
        .into_iter()
        .map(|(platform, n)| {
            let t = Instant::now();
            let harness = SpmdHarness::new(platform, n).expect("grid points are valid");
            std::hint::black_box(&harness);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let warm = run_campaign(&campaigns::quick().scenarios, workers);
    let secs = start.elapsed().as_secs_f64();
    (plan, secs, builds, render_jsonl(&warm, &StoreMeta::none()))
}

/// Runs `tpl-sweep` or `apl-paper`.
pub fn run(cfg: &Config, tracer: Option<&Tracer>) -> Report {
    let mut report = Report::default();
    let workers = crate::host::available_parallelism();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut plan = None;
    for _ in 0..SETUP_REPS {
        let (p, secs, b, warm) = setup(cfg.workload, cfg.seed, workers);
        setups.push(secs);
        builds.extend(b);
        plan = Some(p);
        if warm != crate::QUICK_GOLDEN {
            report.fail_check("quick: warm-up store differs from tests/golden/quick.jsonl".into());
        }
    }
    let plan = plan.expect("at least one set-up");
    report.set_setup(&setups);

    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut check_failures = HashSet::new();
    loop {
        let trace_this = tracer.is_some() && plain.len() > traced.len();
        let pass = match tracer {
            Some(t) if trace_this => traced_pass(&plan.scenarios, workers, t),
            _ => untraced_pass(&plan.scenarios, workers),
        };
        report.attempted += pass.records.len() as u64;
        report.failed += pass
            .records
            .iter()
            .filter(|r| r.status == RecordStatus::Error)
            .count() as u64;
        check_failures.extend(plan.check(&pass.records));
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        let enough = !plain.is_empty() && (tracer.is_none() || !traced.is_empty());
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let mut check_failures: Vec<String> = check_failures.into_iter().collect();
    check_failures.sort();
    for f in check_failures {
        report.fail_check(f);
    }

    let table3 = match plan.range("table3-sendrecv") {
        Some(range) => plain[0].records[range].to_vec(),
        None => run_campaign(&paper_campaign("table3-sendrecv").scenarios, workers),
    };
    let means: HashMap<String, f64> = table3
        .iter()
        .filter_map(|r| Some((r.scenario.key(), r.stats?.mean)))
        .collect();
    match probes::table3_log_err(&means) {
        Ok(err) => report.set("table3_log_err", err, "ratio"),
        Err(e) => report.fail_check(e),
    }

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let wall = median(&walls);
    // Each point's median over the passes, so one preempted run of a
    // point does not move the tail.
    let mut by_point: HashMap<Scenario, Vec<f64>> = HashMap::new();
    for (sc, ms) in plain.iter().flat_map(|p| p.point_ms.iter()) {
        by_point.entry(*sc).or_default().push(*ms);
    }
    let point_medians: Vec<f64> = by_point.values().map(|ms| median(ms)).collect();
    report.set("wall_s", wall, "s");
    report.set(
        "sim_events_per_s",
        plain[0].events() as f64 / wall,
        "events/s",
    );
    report.set("req_per_s", plan.scenarios.len() as f64 / wall, "req/s");
    // Point times cluster by kernel with wide gaps between the clusters
    // (apl-paper's median falls between the 11 ms and the 18 ms points),
    // so a plain percentile jumps across a gap from run to run; the mean
    // of a band around it does not.
    report.set("rtt_p50_ms", band_mean(&point_medians, 0.4, 0.6), "ms");
    report.set("rtt_p90_ms", band_mean(&point_medians, 0.85, 0.95), "ms");
    let pass_walls: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    report.notes.push(format!(
        "# {} passes of {} points, {} workers; pass wall s: {}",
        plain.len(),
        plan.scenarios.len(),
        workers,
        pass_walls.join(" ")
    ));

    if let Some(tracer) = tracer {
        layer_metrics(&mut report, &plain, &traced, workers, &builds);
        match cfg.workload {
            Workload::TplSweep => probes::run_floor(tracer, &mut report),
            _ => probes::app_sequential(tracer, &mut report),
        }
        let (store, us) = tracer.time(None, "campaign.store", "render_jsonl", || {
            render_jsonl(&traced[0].records, &StoreMeta::none())
        });
        report.set("campaign.store.render_ms", us / 1e3, "ms");
        report.set("campaign.store.bytes", store.len() as f64, "bytes");
    }
    report
}

/// Per-layer figures from the traced passes.
fn layer_metrics(
    report: &mut Report,
    plain: &[Pass],
    traced: &[Pass],
    workers: usize,
    builds: &[f64],
) {
    let pass = &traced[0];
    let sum = |f: fn(&pdceval_simnet::trace::CounterSummary) -> u64| -> u64 {
        pass.records
            .iter()
            .filter_map(|r| r.counters.as_ref().map(f))
            .sum()
    };
    let events = sum(|c| c.events_scheduled);
    let direct = sum(|c| c.direct_handoffs);
    let inline = sum(|c| c.inline_resumes);
    let fast = sum(|c| c.mailbox_fast_path_hits);
    let delivered = sum(|c| c.messages_delivered);
    let peak = pass
        .records
        .iter()
        .filter_map(|r| r.counters.as_ref().map(|c| c.peak_queue_depth))
        .max()
        .unwrap_or(0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.set("simnet.engine.events_scheduled", events as f64, "count");
    report.set("simnet.calq.peak_queue_depth", peak as f64, "count");
    report.set("simnet.sched.direct_handoffs", direct as f64, "count");
    report.set("simnet.sched.inline_resumes", inline as f64, "count");
    report.set(
        "simnet.sched.handoff_ratio",
        ratio(direct, direct + inline),
        "ratio",
    );
    report.set("simnet.mailbox.fast_path_hits", fast as f64, "count");
    report.set(
        "simnet.mailbox.fast_path_rate",
        ratio(fast, delivered),
        "ratio",
    );
    report.set(
        "simnet.fabric.messages_delivered",
        delivered as f64,
        "count",
    );
    report.set(
        "simnet.fabric.wire_bytes",
        sum(|c| c.wire_bytes) as f64,
        "bytes",
    );

    let point_ns: f64 = traced
        .iter()
        .flat_map(|p| p.point_ms.iter().map(|(_, ms)| ms * 1e6))
        .sum();
    let all_events: u64 = traced.iter().map(Pass::events).sum();
    report.set(
        "simnet.engine.host_ns_per_event",
        point_ns / all_events.max(1) as f64,
        "ns",
    );
    report.set("mpt.runtime.harness_build_us", mean(builds), "us");
    for slug in crate::KERNELS {
        let ms: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.point_ms.iter())
            .filter(|(sc, _)| sc.kernel.slug() == slug)
            .map(|(_, ms)| *ms)
            .collect();
        if !ms.is_empty() {
            let name = format!("campaign.exec.point_ms.{slug}");
            report.set(&format!("{name}.p50"), percentile(&ms, 0.5), "ms");
            report.set(&format!("{name}.p90"), percentile(&ms, 0.9), "ms");
        }
    }
    let busy: Vec<f64> = traced
        .iter()
        .map(|p| {
            p.point_ms.iter().map(|(_, ms)| ms / 1e3).sum::<f64>() / (p.wall_s * workers as f64)
        })
        .collect();
    report.set("campaign.runner.busy_frac", median(&busy), "ratio");
    let wall = |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    report.set(
        "bench.trace_overhead_ratio",
        wall(traced) / wall(plain),
        "ratio",
    );
    report.set("bench.traced_samples", traced.len() as f64, "count");
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
