//! `serve-mixed`: closed-loop clients against an in-process server.
//!
//! Set-up starts a [`Server`] on `127.0.0.1:0` (TCP, the default
//! transport) over a fresh cache and an executor pool of `nproc`
//! executors, and fills the cache by running the `quick` campaign
//! through [`serve::handle_request`]. Two clients then send blocks of
//! ten requests until the time is up, each waiting for its reply before
//! the next request: seven `query`s of a cached `quick` key, two `run`s
//! of the cached `quick` campaign and one `sweep` of 2-4 fresh TPL
//! points, in an order the seed shuffles per block. Both clients' n-th
//! sweeps start at the same fresh points, so the later one hits the
//! cache or joins the other's execution.

use crate::spans::Tracer;
use crate::{median, percentile, probes, Config, Report};
use pdceval_campaign::cache::code_fingerprint;
use pdceval_campaign::json::{parse_object, Json};
use pdceval_campaign::runner::run_point;
use pdceval_campaign::serve::{self, ServeState, Server};
use pdceval_campaign::store::{parse_jsonl, StoreMeta};
use pdceval_campaign::{campaigns, CampaignCache, Executor, Kernel, Scale, Scenario};
use pdceval_mpt::ToolKind;
use pdceval_simnet::perturb::SplitMix64;
use pdceval_simnet::platform::Platform;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Fresh points whose served means are re-run locally and compared.
const VERIFY_POINTS: usize = 32;

const RUN_QUICK: &str = "{\"op\": \"run\", \"campaign\": \"quick\"}";
const RUN_TABLE3: &str = "{\"op\": \"run\", \"campaign\": \"table3-sendrecv\"}";

/// A request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Query,
    Run,
    Sweep,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Run => "run",
            Op::Sweep => "sweep",
        }
    }
}

/// One client block: the 70/20/10 mix, exactly.
const DECK: [Op; 10] = [
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Query,
    Op::Run,
    Op::Run,
    Op::Sweep,
];

/// Sweep n uses template n mod 4 at a fresh message size.
const TEMPLATES: [(Kernel, ToolKind, Platform, usize); 4] = [
    (
        Kernel::Ring { shifts: 1 },
        ToolKind::P4,
        Platform::SUN_ETHERNET,
        4,
    ),
    (Kernel::Broadcast, ToolKind::PVM, Platform::SUN_ATM_LAN, 4),
    (
        Kernel::SendRecv { iters: 2 },
        ToolKind::EXPRESS,
        Platform::SUN_ETHERNET,
        2,
    ),
    (
        Kernel::Ring { shifts: 1 },
        ToolKind::PVM,
        Platform::SUN_ATM_WAN,
        4,
    ),
];

/// Fresh sizes are `FRESH_BASE + k` for a seeded permutation of
/// `k < FRESH_SLOTS`, four slots per sweep round; none is a size the
/// `quick` campaign uses. Past the last round the sizes repeat and
/// sweeps turn into hits.
const FRESH_BASE: u64 = 1025;
const FRESH_SLOTS: u64 = 400;
const SLOTS_PER_SWEEP: u64 = 4;

/// Sweeps numbered from here on are the in-process probes', never a
/// client's.
const PROBE_SWEEPS: u64 = 1 << 20;

/// The fresh points of sweep `n` (the first `width` of its round).
/// Probe sweeps take sizes just past the clients' range.
fn sweep_points(seed: u64, n: u64, width: u64) -> Vec<Scenario> {
    let t = (n % TEMPLATES.len() as u64) as usize;
    let (kernel, tool, platform, nprocs) = TEMPLATES[t];
    let mut slots: Vec<u64> = (0..FRESH_SLOTS).collect();
    crate::campaign::shuffle(&mut slots, seed ^ t as u64);
    (0..width)
        .map(|k| {
            let size = match n.checked_sub(PROBE_SWEEPS) {
                Some(i) => FRESH_BASE + FRESH_SLOTS + i * SLOTS_PER_SWEEP + k,
                None => {
                    let round = n / TEMPLATES.len() as u64;
                    let slot = (round * SLOTS_PER_SWEEP + k) % FRESH_SLOTS;
                    FRESH_BASE + slots[slot as usize]
                }
            };
            Scenario {
                kernel,
                tool,
                platform,
                nprocs,
                size,
                reps: 1,
                perturb: None,
            }
        })
        .collect()
}

fn sweep_line(points: &[Scenario]) -> String {
    let p = &points[0];
    let sizes: Vec<String> = points.iter().map(|sc| sc.size.to_string()).collect();
    format!(
        "{{\"op\": \"sweep\", \"kernels\": \"{}\", \"tools\": \"{}\", \"platforms\": \"{}\", \
         \"nprocs\": \"{}\", \"sizes\": \"{}\"}}",
        p.kernel.slug(),
        p.tool.slug(),
        p.platform.slug(),
        p.nprocs,
        sizes.join(" ")
    )
}

fn query_line(key: &str) -> String {
    format!("{{\"op\": \"query\", \"key\": \"{key}\"}}")
}

/// A running server.
struct Up {
    state: Arc<ServeState>,
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Up {
    fn stop(self) -> Result<(), String> {
        self.state.request_shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server failed: {e}"))
    }
}

/// Starts a server over a fresh cache at `dir` and fills the cache.
fn start(dir: &Path, workers: usize) -> Result<Up, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = CampaignCache::open(dir)?;
    let meta = StoreMeta {
        emit_counters: true,
        ..StoreMeta::none()
    };
    let state = Arc::new(ServeState::new(
        cache,
        workers,
        campaigns::all(Scale::Paper),
        Scale::Paper,
        meta,
    ));
    let fill = serve::handle_request(&state, RUN_QUICK);
    let summary = fill.last().map(String::as_str).unwrap_or_default();
    if !summary.starts_with("{\"done\": true") {
        return Err(format!("filling the cache failed: {summary}"));
    }
    let mut server = Server::new(state.clone());
    let addr = server
        .bind_tcp("127.0.0.1:0")
        .map_err(|e| format!("cannot bind 127.0.0.1:0: {e}"))?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Up {
        state,
        addr,
        thread,
    })
}

/// What one load phase observed.
#[derive(Debug, Default)]
struct Log {
    /// `(op, round trip ms)` per completed request.
    rtts: Vec<(Op, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    hits: u64,
    executed: u64,
    joined: u64,
    /// Served fresh points: key -> (scenario, mean).
    fresh: HashMap<String, (Scenario, f64)>,
    /// Engine events of each fresh point, from its counter fields.
    events: HashMap<String, u64>,
    sweeps: u64,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.rtts.extend(other.rtts);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.hits += other.hits;
        self.executed += other.executed;
        self.joined += other.joined;
        self.sweeps = self.sweeps.max(other.sweeps);
        for (key, (sc, mean)) in other.fresh {
            match self.fresh.get(&key) {
                Some((_, m)) if *m != mean => self.failures.push(format!(
                    "{key}: clients were served different means ({m} vs {mean})"
                )),
                _ => {
                    self.fresh.insert(key, (sc, mean));
                }
            }
        }
        self.events.extend(other.events);
    }
}

/// The golden `quick` store as `(key, mean)` pairs, in order.
fn quick_golden() -> Vec<(String, f64)> {
    parse_jsonl(crate::QUICK_GOLDEN)
        .expect("golden quick store parses")
        .into_iter()
        .map(|r| (r.key, r.mean.expect("golden quick points are ok")))
        .collect()
}

/// Sends one request line and reads its reply: one line for `query`,
/// lines up to the summary (or an error) for `run` and `sweep`.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
    multi: bool,
) -> std::io::Result<Vec<String>> {
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut lines = Vec::new();
    loop {
        let mut buf = String::new();
        if reader.read_line(&mut buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let buf = buf.trim_end().to_string();
        let last = !multi || buf.starts_with("{\"done\"") || buf.starts_with("{\"error\"");
        lines.push(buf);
        if last {
            return Ok(lines);
        }
    }
}

fn summary_field(pairs: &[(String, Json)], key: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or(0.0) as u64
}

/// Checks a `run` or `sweep` reply: records, then the summary line.
/// Returns the records, or why the reply is wrong.
fn check_records(
    lines: &[String],
    log: &mut Log,
) -> Result<Vec<pdceval_campaign::store::StoredRecord>, String> {
    let (summary, body) = lines.split_last().ok_or("empty reply")?;
    let pairs = parse_object(summary).map_err(|e| format!("bad summary: {e}"))?;
    let records = parse_jsonl(&body.join("\n")).map_err(|e| format!("bad record: {e}"))?;
    if summary_field(&pairs, "points") != records.len() as u64 {
        return Err(format!("summary does not count the records: {summary}"));
    }
    if let Some(r) = records.iter().find(|r| r.status != "ok") {
        return Err(format!("{} came back {}", r.key, r.status));
    }
    log.hits += summary_field(&pairs, "hits");
    log.executed += summary_field(&pairs, "executed");
    log.joined += summary_field(&pairs, "joined");
    Ok(records)
}

/// One closed-loop client.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    c: usize,
    seed: u64,
    first_sweep: u64,
    seconds: f64,
    golden: &[(String, f64)],
    tracer: Option<&Tracer>,
) -> Log {
    let mut log = Log::default();
    let connected = TcpStream::connect(addr).and_then(|s| Ok((s.try_clone()?, s)));
    let (mut stream, read) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            log.attempted += 1;
            log.failed += 1;
            log.failures.push(format!("client {c} cannot connect: {e}"));
            return log;
        }
    };
    let mut reader = BufReader::new(read);
    let mut rng = SplitMix64::new(seed ^ (0xC1E7 + c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let start = Instant::now();
    let mut block = 0u64;
    let mut sweep = first_sweep;
    while block == 0 || start.elapsed().as_secs_f64() < seconds {
        // Both clients shuffle each block the same way, so their n-th
        // sweeps are sent close together.
        let mut deck = DECK;
        crate::campaign::shuffle(
            &mut deck,
            seed.wrapping_add(block.wrapping_mul(0x2545_F491_4F6C_DD1D)),
        );
        block += 1;
        for op in deck {
            let (line, points) = match op {
                Op::Query => {
                    let key = &golden[(rng.next_u64() % golden.len() as u64) as usize].0;
                    (query_line(key), Vec::new())
                }
                Op::Run => (RUN_QUICK.to_string(), Vec::new()),
                Op::Sweep => {
                    let width = 2 + rng.next_u64() % 3;
                    let points = sweep_points(seed, sweep, width);
                    sweep += 1;
                    (sweep_line(&points), points)
                }
            };
            log.attempted += 1;
            let t = Instant::now();
            let reply = exchange(&mut stream, &mut reader, &line, op != Op::Query);
            let end = Instant::now();
            if let Some(tracer) = tracer {
                tracer.record(tracer.id(), None, "client", op.name(), t, end, Vec::new());
            }
            let lines = match reply {
                Ok(lines) => lines,
                Err(e) => {
                    log.failed += 1;
                    log.failures
                        .push(format!("client {c}: transport error: {e}"));
                    return log;
                }
            };
            if lines.last().is_some_and(|l| l.starts_with("{\"error\"")) {
                log.failed += 1;
                log.failures
                    .push(format!("{line} -> {}", lines[lines.len() - 1]));
                continue;
            }
            log.rtts.push((op, (end - t).as_secs_f64() * 1e3));
            if let Err(e) = check_reply(op, &line, &lines, &points, golden, &mut log) {
                log.failures.push(format!("{line}: {e}"));
            }
        }
    }
    log.sweeps = sweep;
    log
}

fn check_reply(
    op: Op,
    line: &str,
    lines: &[String],
    points: &[Scenario],
    golden: &[(String, f64)],
    log: &mut Log,
) -> Result<(), String> {
    match op {
        Op::Query => {
            let pairs = parse_object(&lines[0]).map_err(|e| format!("bad reply: {e}"))?;
            let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
            let key = get("key").and_then(Json::as_str).unwrap_or_default();
            let mean = get("mean").and_then(Json::as_f64);
            let want = golden.iter().find(|(k, _)| k == key).map(|(_, m)| *m);
            if line != query_line(key) || want.is_none() || want != mean {
                return Err(format!(
                    "reply {} does not match the golden quick store",
                    lines[0]
                ));
            }
        }
        Op::Run => {
            let records = check_records(lines, log)?;
            let got: Vec<(String, f64)> = records
                .into_iter()
                .map(|r| (r.key, r.mean.unwrap_or(f64::NAN)))
                .collect();
            if got != golden {
                return Err("keys or means differ from tests/golden/quick.jsonl".to_string());
            }
        }
        Op::Sweep => {
            let records = check_records(lines, log)?;
            if records.len() != points.len() {
                return Err(format!(
                    "{} records for {} points",
                    records.len(),
                    points.len()
                ));
            }
            for (r, sc) in records.into_iter().zip(points) {
                if r.key != sc.key() {
                    return Err(format!("record {} answers point {}", r.key, sc.key()));
                }
                let mean = r.mean.ok_or_else(|| format!("{} has no mean", r.key))?;
                if let Some(c) = r.counters {
                    log.events.insert(r.key.clone(), c.events_scheduled);
                }
                match log.fresh.get(&r.key) {
                    Some((_, m)) if *m != mean => {
                        return Err(format!("{} served {mean}, earlier {m}", r.key))
                    }
                    _ => {
                        log.fresh.insert(r.key, (*sc, mean));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Runs every client for `seconds`; returns the merged log and the
/// phase's wall time.
fn load(
    addr: SocketAddr,
    seed: u64,
    first_sweep: u64,
    seconds: f64,
    golden: &[(String, f64)],
    tracer: Option<&Tracer>,
) -> (Log, f64) {
    let start = Instant::now();
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || client(addr, c, seed, first_sweep, seconds, golden, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut merged = Log::default();
    for log in logs {
        merged.merge(log);
    }
    (merged, wall)
}

/// Runs `serve-mixed`.
///
/// # Errors
///
/// A server that cannot start.
pub fn run(cfg: &Config, tracer: Option<&Tracer>) -> Result<Report, String> {
    let mut report = Report::default();
    let workers = crate::host::available_parallelism();
    let work = cfg.out_dir.join(format!("serve-{}", std::process::id()));
    let t = Instant::now();
    code_fingerprint();
    let fingerprint_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut setups = Vec::new();
    let mut up = None;
    for i in 0..SETUP_REPS {
        if let Some(prev) = up.take() {
            Up::stop(prev)?;
        }
        let t = Instant::now();
        up = Some(start(&work.join(format!("cache{i}")), workers)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let up = up.expect("at least one set-up");
    let cache_dir = work.join(format!("cache{}", SETUP_REPS - 1));
    report.set_setup(&setups);

    let golden = quick_golden();
    let result = measure(cfg, tracer, &up, &cache_dir, &golden, &mut report);
    let stopped = up.stop();
    let _ = std::fs::remove_dir_all(&work);
    result?;
    stopped?;
    report.set("campaign.cache.fingerprint_ms", fingerprint_ms, "ms");
    Ok(report)
}

fn measure(
    cfg: &Config,
    tracer: Option<&Tracer>,
    up: &Up,
    cache_dir: &Path,
    golden: &[(String, f64)],
    report: &mut Report,
) -> Result<(), String> {
    // A traced run loads twice, untraced then traced, for the overhead
    // ratio; each half starts at fresh sweeps.
    let (log, wall, traced) = match tracer {
        None => {
            let (log, wall) = load(up.addr, cfg.seed, 0, cfg.seconds, golden, None);
            (log, wall, None)
        }
        Some(_) => {
            let (plain, wall) = load(up.addr, cfg.seed, 0, cfg.seconds / 2.0, golden, None);
            let (traced, _) = load(
                up.addr,
                cfg.seed,
                plain.sweeps,
                cfg.seconds / 2.0,
                golden,
                tracer,
            );
            (plain, wall, Some(traced))
        }
    };
    let mut all = Log::default();
    let samples = rtts(&log, None);
    let plain_p50 = percentile(&samples, 0.5);
    let events: u64 = log.events.values().sum();
    report.set("wall_s", median(&rtts(&log, Some(Op::Run))) / 1e3, "s");
    report.set("sim_events_per_s", events as f64 / wall, "events/s");
    report.set("req_per_s", samples.len() as f64 / wall, "req/s");
    report.set("rtt_p50_ms", plain_p50, "ms");
    report.set("rtt_p90_ms", percentile(&samples, 0.9), "ms");
    all.merge(log);
    if let Some(traced) = traced {
        let traced_p50 = percentile(&rtts(&traced, None), 0.5);
        report.set(
            "bench.trace_overhead_ratio",
            traced_p50 / plain_p50,
            "ratio",
        );
        report.set("bench.traced_samples", traced.rtts.len() as f64, "count");
        all.merge(traced);
    }
    report.attempted = all.attempted;
    report.failed = all.failed;
    report.notes.push(format!(
        "# {} requests from {CLIENTS} clients, {} executor(s); hits {}, executed {}, joined {}",
        all.attempted,
        crate::host::available_parallelism(),
        all.hits,
        all.executed,
        all.joined
    ));

    // Fresh points: the served means equal a local execution.
    let mut fresh: Vec<&(Scenario, f64)> = all.fresh.values().collect();
    fresh.sort_by_key(|(sc, _)| sc.key());
    let mut exec = Executor::new();
    for (sc, mean) in fresh.into_iter().take(VERIFY_POINTS) {
        let local = run_point(&mut exec, sc).stats.map(|s| s.mean);
        if local != Some(*mean) {
            all.failures.push(format!(
                "{}: served {mean}, local run gives {local:?}",
                sc.key()
            ));
        }
    }
    // Fidelity, through the server.
    let table3 = TcpStream::connect(up.addr)
        .and_then(|s| {
            let mut reader = BufReader::new(s.try_clone()?);
            exchange(&mut s.try_clone()?, &mut reader, RUN_TABLE3, true)
        })
        .map_err(|e| format!("table 3 request failed: {e}"))?;
    let records = check_records(&table3, &mut Log::default())?;
    let means: HashMap<String, f64> = records
        .into_iter()
        .filter_map(|r| Some((r.key, r.mean?)))
        .collect();
    match probes::table3_log_err(&means) {
        Ok(err) => report.set("table3_log_err", err, "ratio"),
        Err(e) => all.failures.push(e),
    }
    all.failures.sort();
    all.failures.dedup();
    for f in all.failures.drain(..) {
        report.fail_check(f);
    }

    if let Some(tracer) = tracer {
        layer_metrics(tracer, up, cache_dir, &all, cfg.seed, report)?;
    }
    Ok(())
}

fn rtts(log: &Log, op: Option<Op>) -> Vec<f64> {
    log.rtts
        .iter()
        .filter(|(o, _)| op.is_none_or(|want| *o == want))
        .map(|(_, ms)| *ms)
        .collect()
}

/// In-process probes: `handle_request` per op, and the cache calls
/// behind it on a second handle of the server's cache.
fn layer_metrics(
    tracer: &Tracer,
    up: &Up,
    cache_dir: &Path,
    log: &Log,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let golden = quick_golden();
    let mut rng = SplitMix64::new(seed);
    let handle = |op: Op, n: usize, line: &mut dyn FnMut(usize) -> String| -> f64 {
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let request = line(i);
                let (reply, us) = tracer.time(None, "campaign.serve", op.name(), || {
                    serve::handle_request(&up.state, &request)
                });
                std::hint::black_box(reply);
                us
            })
            .collect();
        median(&samples)
    };
    let handle_query = handle(Op::Query, 200, &mut |_| {
        query_line(&golden[(rng.next_u64() % golden.len() as u64) as usize].0)
    });
    let handle_run = handle(Op::Run, 20, &mut |_| RUN_QUICK.to_string());
    let handle_sweep = handle(Op::Sweep, 10, &mut |i| {
        sweep_line(&sweep_points(seed, PROBE_SWEEPS + i as u64, 3))
    });
    for (op, us) in [
        (Op::Query, handle_query),
        (Op::Run, handle_run),
        (Op::Sweep, handle_sweep),
    ] {
        let name = op.name();
        report.set(&format!("campaign.serve.handle_us.{name}"), us, "us");
        let rtt = median(&rtts(log, Some(op)));
        report.set(
            &format!("campaign.serve.transport_ms.{name}"),
            rtt - us / 1e3,
            "ms",
        );
    }
    report.set("campaign.serve.executed", log.executed as f64, "count");
    report.set("campaign.serve.joined", log.joined as f64, "count");
    report.set("campaign.cache.hits", log.hits as f64, "count");
    report.set(
        "campaign.cache.misses",
        (log.executed + log.joined) as f64,
        "count",
    );

    let (cache, open_us) = tracer.time(None, "campaign.cache", "open", || {
        CampaignCache::open(cache_dir)
    });
    let cache = cache?;
    report.set("campaign.cache.open_ms", open_us / 1e3, "ms");
    let scenarios: Vec<Scenario> = campaigns::quick()
        .scenarios
        .into_iter()
        .chain(log.fresh.values().map(|(sc, _)| *sc).take(200))
        .collect();
    let mut records = Vec::new();
    let lookups: Vec<f64> = scenarios
        .iter()
        .map(|sc| {
            let (hit, us) = tracer.time(None, "campaign.cache", "lookup", || cache.lookup(sc));
            records.extend(hit);
            us
        })
        .collect();
    report.set("campaign.cache.lookup_us", median(&lookups), "us");
    let mut sink = CampaignCache::open(&cache_dir.with_extension("insert-probe"))?;
    let inserts: Vec<f64> = records
        .iter()
        .map(|r| {
            let (res, us) = tracer.time(None, "campaign.cache", "insert", || {
                sink.insert(r, &StoreMeta::none())
            });
            res.map(|_| us)
        })
        .collect::<Result<_, _>>()?;
    sink.flush()?;
    report.set("campaign.cache.insert_us", median(&inserts), "us");
    Ok(())
}
