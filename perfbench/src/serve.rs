//! A run of one workload: `serve_mixed`, `serve_churn` or `serve_tiny`.
//!
//! Each run starts a `WireServer` in this process, warms the workload's
//! catalogue, drives it over loopback with the generator of [`crate::gen`]
//! and checks every response against an in-process `EncodedModel::forward`
//! of the same request. The paper reproduction pass of [`crate::paper`]
//! runs between serving rounds, or after the serving part in a traced
//! run, while the server idles. A traced run (`--trace 1`)
//! streams the server's request traces to a file, reads the stage stamps
//! back through the public trace format, checks that they telescope, and
//! replays the served models' layers through the public kernel API.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use dsstc_serve::{
    CacheBudget, EncodedModel, InferRequest, ModelId, ModelRepository, Priority, ServeConfig,
    ServerStats, WireServer, WireStats,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

use crate::gen::{self, Outcome, PhaseResult, RequestPool, Rng};
use crate::report::{median, peak_rss_mib, quantile, Report};
use crate::{paper, Args, Workload};

/// Feature width of every request: the server's default proxy dimension.
const FEATURES: usize = 64;
/// Distinct inputs per key; every response is checked against the
/// reference output of its input.
const INPUTS: usize = 128;
/// Share of zeros in the request features.
const FEATURE_SPARSITY: f64 = 0.5;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Probes of the `max_rps` search per run; they take 40% of it.
const PROBES: usize = 9;
/// Windows each probe is judged over.
const PROBE_WINDOWS: usize = 4;
/// Light and heavy chunks per run; they take another 40%.
const CHUNKS: usize = 8;
/// Closed-loop slices per run, one in every round but the first; they take
/// 20% of it.
const SLICES: usize = PROBES - 1;

/// What a serving workload sends and how the server is configured.
struct ServeSpec {
    keys: Vec<(ModelId, Option<f64>)>,
    rows: usize,
    max_batch: usize,
    /// In-memory encode-cache budget (entries); `None` keeps the default.
    cache_entries: Option<usize>,
    /// Back the repository with a fresh on-disk store.
    disk_store: bool,
    light_rps: f64,
    heavy_rps: f64,
    /// The rate range `max_rps` is searched in.
    search: (f64, f64),
    /// The latency limit of `max_rps`: p99 at or below it.
    limit_ms: f64,
    /// Requests in flight in the closed loop.
    window: usize,
}

impl ServeSpec {
    fn for_workload(workload: Workload) -> ServeSpec {
        let two = vec![(ModelId::ResNet50, None), (ModelId::BertBase, None)];
        match workload {
            Workload::ServeMixed => ServeSpec {
                keys: two,
                rows: 4,
                max_batch: 8,
                cache_entries: None,
                disk_store: false,
                light_rps: 1000.0,
                heavy_rps: 6000.0,
                search: (4000.0, 24000.0),
                limit_ms: 25.0,
                window: 64,
            },
            Workload::ServeChurn => ServeSpec {
                keys: [0.5, 0.7, 0.8, 0.9]
                    .iter()
                    .flat_map(|&s| [(ModelId::ResNet50, Some(s)), (ModelId::BertBase, Some(s))])
                    .collect(),
                rows: 4,
                max_batch: 8,
                cache_entries: Some(3),
                disk_store: true,
                light_rps: 1000.0,
                heavy_rps: 1500.0,
                search: (2000.0, 16000.0),
                // Restores put churn's p99 near 25 ms well below overload;
                // 50 ms puts the limit where its backlog starts to grow.
                limit_ms: 50.0,
                window: 64,
            },
            Workload::ServeTiny => ServeSpec {
                keys: vec![(ModelId::BertBase, None)],
                rows: 1,
                max_batch: 32,
                cache_entries: None,
                disk_store: false,
                light_rps: 1000.0,
                heavy_rps: 20000.0,
                search: (15000.0, 120000.0),
                limit_ms: 25.0,
                window: 128,
            },
        }
    }
}

/// The reference repository and kernel, independent of any server.
fn reference_models(spec: &ServeSpec) -> (ModelRepository, Vec<std::sync::Arc<EncodedModel>>) {
    let repository =
        ModelRepository::new(GpuConfig::v100(), FEATURES).with_budget(CacheBudget::unbounded());
    let models = spec
        .keys
        .iter()
        .map(|&(model, sparsity)| repository.get(dsstc_serve::ModelKey::new(model, sparsity)))
        .collect();
    (repository, models)
}

/// The requests of a run and their reference outputs, made from the seed.
fn request_pool(
    spec: &ServeSpec,
    seed: u64,
    repository: &ModelRepository,
    models: &[std::sync::Arc<EncodedModel>],
) -> RequestPool {
    let mut rng = Rng::new(seed, 0x9001);
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for (&(model, sparsity), encoded) in spec.keys.iter().zip(models) {
        let mut key_requests = Vec::with_capacity(INPUTS);
        let mut key_expected = Vec::with_capacity(INPUTS);
        for _ in 0..INPUTS {
            let features = Matrix::random_sparse(
                spec.rows,
                FEATURES,
                FEATURE_SPARSITY,
                SparsityPattern::Uniform,
                rng.next_u64(),
            );
            key_expected.push(encoded.forward(repository.kernel(), &features));
            let mut request = InferRequest::new(model, features);
            if let Some(s) = sparsity {
                request = request.with_weight_sparsity(s);
            }
            let high = request.clone().with_priority(Priority::High);
            key_requests.push([request.with_priority(Priority::Normal), high]);
        }
        requests.push(key_requests);
        expected.push(key_expected);
    }
    RequestPool { requests, expected }
}

/// Set-up cost of one server.
struct Setup {
    server: WireServer,
    seconds: f64,
    encode_ms: f64,
    price_ms: f64,
}

/// Starts a server and warms every key of the catalogue: encode plus sim
/// pricing of every batch bucket on every device.
fn set_up(spec: &ServeSpec, work: &Path, index: usize, trace_out: Option<&Path>) -> Setup {
    let started = Instant::now();
    let mut config = ServeConfig::default()
        .with_max_batch(spec.max_batch)
        .with_drain_timeout(Duration::from_secs(5));
    if let Some(entries) = spec.cache_entries {
        config = config
            .with_encode_cache_budget(CacheBudget { max_entries: entries, max_bytes: u64::MAX });
    }
    if spec.disk_store {
        config = config.with_encode_cache_dir(work.join(format!("store-{index}")));
    }
    if let Some(path) = trace_out {
        config = config.with_trace_out(path);
    }
    let server = WireServer::start(config).expect("start the benchmark server");
    let mut encode_ms = 0.0;
    let mut price_ms = 0.0;
    for &(model, sparsity) in &spec.keys {
        let warm_started = Instant::now();
        let encode = server.server().warm_model(model, sparsity);
        encode_ms += encode;
        price_ms += warm_started.elapsed().as_secs_f64() * 1e3 - encode;
    }
    Setup { server, seconds: started.elapsed().as_secs_f64(), encode_ms, price_ms }
}

/// The server's counters, read before and after the measured phase.
struct Snapshot {
    stats: ServerStats,
    /// Timing-cache hits and misses, summed over the devices.
    timing: (u64, u64),
}

impl Snapshot {
    fn read(server: &WireServer) -> Snapshot {
        let dispatcher = server.server().dispatcher();
        let timing = (0..dispatcher.len())
            .map(|d| (dispatcher.timing(d).hit_count(), dispatcher.timing(d).miss_count()))
            .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm));
        Snapshot { stats: server.stats(), timing }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        f64::NAN
    } else {
        part as f64 / whole as f64
    }
}

/// Adds a phase's requests to the run's accounting.
fn account(report: &mut Report, result: &PhaseResult, what: &str) {
    report.attempted += result.outcome.len() as u64;
    report.failed += result.failed();
    let mismatches = result.count(Outcome::Mismatch);
    if mismatches > 0 {
        report.problems.push(format!("{what}: {mismatches} responses differ from the reference"));
    }
    println!(
        "  {what}: sent {} ok {} mismatched {mismatches} shed {} errors {} timed out {}",
        result.outcome.len(),
        result.count(Outcome::Ok),
        result.count(Outcome::Shed),
        result.count(Outcome::Error),
        result.count(Outcome::Timeout)
    );
}

/// One open-loop phase at `rate` for `seconds`.
fn phase(
    server: &WireServer,
    pool: &RequestPool,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
) -> (PhaseResult, Vec<gen::Arrival>) {
    let schedule = gen::poisson_schedule(rng, rate, seconds, pool.requests.len(), pool.inputs());
    (gen::open_loop(server.local_addr(), pool, &schedule), schedule)
}

/// The `q` latency quantile of a phase, ms, counting failures as missing
/// any limit.
fn latency(result: &PhaseResult, q: f64) -> f64 {
    quantile(&mut result.latencies(0..result.outcome.len()), q)
}

/// The `max_rps` search: the highest offered rate the server sustains
/// within the workload's latency limit. A probe is split in send order into
/// [`PROBE_WINDOWS`] windows. It passes when no request failed, when the
/// p99 of every window but one is within the limit, so one stall of the
/// host spoils a window and not the probe, and when the median latency of
/// the last window is within the limit too, which a growing backlog would
/// push past it. A miss without a failure or a backlog far past the limit
/// is tried once more before it counts. The first probe is at the bottom
/// of the range, which moves down by a factor of four until a rate passes;
/// then the range is halved in log space. The result interpolates, in log
/// latency, between the highest passing and the lowest missing rate.
struct Search {
    limit_ms: f64,
    lo: f64,
    hi: f64,
    lo_p99: f64,
    hi_p99: f64,
    /// Some rate has passed, so `lo` is a passing rate.
    passed: bool,
    /// The current rate missed once and is being tried again.
    retried: bool,
}

impl Search {
    fn new((lo, hi): (f64, f64), limit_ms: f64) -> Search {
        Search {
            limit_ms,
            lo,
            hi,
            lo_p99: f64::NAN,
            hi_p99: f64::INFINITY,
            passed: false,
            retried: false,
        }
    }

    fn rate(&self) -> f64 {
        if self.passed {
            (self.lo * self.hi).sqrt()
        } else {
            self.lo
        }
    }

    /// Probes the next rate.
    fn probe(
        &mut self,
        server: &WireServer,
        pool: &RequestPool,
        rng: &mut Rng,
        report: &mut Report,
        seconds: f64,
    ) {
        let rate = self.rate();
        let (result, _) = phase(server, pool, rng, rate, seconds);
        account(report, &result, &format!("probe {rate:.0} req/s"));
        let n = result.outcome.len();
        let w = n / PROBE_WINDOWS;
        let mut p99s: Vec<f64> = (0..PROBE_WINDOWS)
            .map(|k| quantile(&mut result.latencies(k * w..(k + 1) * w), 0.99))
            .collect();
        let p99 = quantile(&mut p99s, 1.0 - 1.0 / PROBE_WINDOWS as f64);
        let backlog = quantile(&mut result.latencies(n - w..n), 0.5);
        let limit = self.limit_ms;
        let pass = result.failed() == 0 && p99 <= limit && backlog <= limit;
        println!(
            "    window p99s {p99s:.2?} ms, last-window p50 {backlog:.2} ms: {}",
            if pass { "pass" } else { "miss" }
        );
        // A miss with no failure and no backlog far past the limit may be a
        // spell of host stalls rather than overload: try the rate once more.
        let overloaded = result.failed() > 0 || backlog > 2.0 * limit;
        if !pass && !overloaded && !self.retried {
            self.retried = true;
            return;
        }
        self.retried = false;
        let p99 = p99.max(backlog);
        match (pass, self.passed) {
            (true, _) => (self.lo, self.lo_p99, self.passed) = (rate, p99, true),
            // Nothing has passed yet: move the range down.
            (false, false) => (self.lo, self.hi, self.hi_p99) = (self.lo / 4.0, self.lo, p99),
            (false, true) => (self.hi, self.hi_p99) = (rate, p99),
        }
    }

    fn result(self) -> f64 {
        if !self.passed {
            return 0.0;
        }
        if !self.hi_p99.is_finite() || self.hi <= self.lo {
            return self.lo;
        }
        let share = (self.limit_ms.ln() - self.lo_p99.ln()) / (self.hi_p99.ln() - self.lo_p99.ln());
        self.lo + (self.hi - self.lo) * share.clamp(0.0, 1.0)
    }
}

/// Runs one workload: the serving part and the paper reproduction pass.
pub fn run(args: &Args, work: &Path) -> Report {
    let spec = ServeSpec::for_workload(args.workload);
    let mut report = Report::default();
    let (repository, models) = reference_models(&spec);
    let pool = request_pool(&spec, args.seed, &repository, &models);
    let trace_path = work.join("trace.jsonl");
    let mut setups = Vec::new();
    let mut untraced_reference = f64::NAN;
    let mut last = None;
    for index in 0..SETUPS {
        let traced = args.trace && index + 1 == SETUPS;
        let setup = set_up(&spec, work, index, traced.then_some(trace_path.as_path()));
        let started = Instant::now();
        let simulator = std::hint::black_box(paper::set_up(args.seed));
        let simulator_s = started.elapsed().as_secs_f64();
        setups.push(setup.seconds + simulator_s);
        println!(
            "setup {index}: {:.3} s (encode {:.1} ms, pricing {:.1} ms, simulator {:.1} ms)",
            setup.seconds + simulator_s,
            setup.encode_ms,
            setup.price_ms,
            simulator_s * 1e3
        );
        if index + 1 == SETUPS {
            last = Some((setup, simulator));
        } else if args.trace && index + 2 == SETUPS {
            // The untraced reference for the tracing overhead: the same
            // phase on an identically warmed server without a trace file.
            let mut rng = Rng::new(args.seed, 0x0ef);
            untraced_reference =
                overhead_phase(&spec, &setup.server, &pool, &mut rng, args.seconds, &mut report);
        }
    }
    let (setup, simulator) = last.expect("at least one setup");
    report.put("setup_s", median(&mut setups));
    let mut pass = paper::Pass::new(&simulator);
    if args.trace {
        traced_run(
            &spec,
            args,
            setup,
            &pool,
            &models,
            &repository,
            &trace_path,
            untraced_reference,
            &mut report,
        );
    } else {
        measure(&spec, args, &setup.server, &pool, &mut pass, &mut report);
        drop(setup);
    }
    pass.finish(args.trace, &mut report);
    report
}

/// The untraced serving part. Short light and heavy chunks, closed-loop
/// slices and the search probes alternate, so each metric samples the
/// whole run and a slow spell of the host moves a few samples, not the
/// medians over them. Each round ends with a block of the paper pass's
/// kernel passes, and every other round with one of its sweeps, while the
/// server idles, for the same reason.
fn measure(
    spec: &ServeSpec,
    args: &Args,
    server: &WireServer,
    pool: &RequestPool,
    pass: &mut paper::Pass,
    report: &mut Report,
) {
    let mut rng = Rng::new(args.seed, 0x11);
    let chunk_s = 0.4 * args.seconds / (2 * CHUNKS) as f64;
    let slice_s = 0.2 * args.seconds / SLICES as f64;
    let probe_s = 0.4 * args.seconds / PROBES as f64;
    let mut search = Search::new(spec.search, spec.limit_ms);
    let (mut light, mut heavy) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
    let mut closed = Vec::new();
    for round in 0..PROBES {
        if round < CHUNKS {
            for (rate, stats, what) in
                [(spec.light_rps, &mut light, "light"), (spec.heavy_rps, &mut heavy, "heavy")]
            {
                let (result, _) = phase(server, pool, &mut rng, rate, chunk_s);
                account(report, &result, what);
                stats[0].push(latency(&result, 0.5));
                stats[1].push(latency(&result, 0.9));
            }
        }
        if round == 0 {
            // Peak memory of set-up and steady serving, read before any
            // probe overloads the server on purpose.
            report.put("rss_mb", peak_rss_mib());
        }
        if round > 0 {
            let result =
                gen::closed_loop(server.local_addr(), pool, &mut rng, spec.window, slice_s);
            account(report, &result, "closed loop");
            closed.push(throughput(&result, slice_s));
        }
        search.probe(server, pool, &mut rng, report, probe_s);
        pass.kernel_block(report);
        if round % 2 == 1 {
            pass.sweep();
        }
    }
    report.put("p50_ms.light", median(&mut light[0]));
    report.put("p90_ms.light", median(&mut light[1]));
    report.put("p50_ms.heavy", median(&mut heavy[0]));
    report.put("p90_ms.heavy", median(&mut heavy[1]));
    report.put("max_rps", search.result());
    report.put("throughput_rps", median(&mut closed));
}

/// Completions per second inside the closed loop's window.
fn throughput(result: &PhaseResult, seconds: f64) -> f64 {
    result.count(Outcome::Ok) as f64 / result.elapsed.as_secs_f64().max(seconds)
}

/// The phase whose traced and untraced runs give the tracing overhead:
/// the heavy rate for a fifth of the run. Returns its p50 latency (ms).
fn overhead_phase(
    spec: &ServeSpec,
    server: &WireServer,
    pool: &RequestPool,
    rng: &mut Rng,
    seconds: f64,
    report: &mut Report,
) -> f64 {
    let (result, _) = phase(server, pool, rng, spec.heavy_rps, 0.2 * seconds);
    account(report, &result, "heavy, untraced");
    latency(&result, 0.5)
}

/// Stage stamps of one request, read back from the trace file.
#[derive(Clone, Debug, Default)]
struct Stamps {
    at: [Option<u64>; 10],
    model: String,
    priority: String,
    device: u64,
    /// A span's end disagreed with the next span's start.
    inconsistent: bool,
}

/// The trace file's spans and the stages they join (see
/// `RequestTrace::to_chrome_events`).
const SPANS: [(&str, usize, usize); 7] = [
    ("wire_decode", 0, 1),
    ("queue", 2, 3),
    ("schedule", 3, 4),
    ("cache", 4, 5),
    ("execute", 6, 7),
    ("respond", 7, 8),
    ("wire_flush", 8, 9),
];

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn number(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// Parses chrome-trace lines into per-request stamps, keyed by server id.
fn parse_traces(text: &str) -> BTreeMap<u64, Stamps> {
    let mut traces: BTreeMap<u64, Stamps> = BTreeMap::new();
    for line in text.lines() {
        let (Some(name), Some(ts), Some(dur), Some(id)) = (
            field(line, "\"name\":\""),
            number(line, "\"ts\":"),
            number(line, "\"dur\":"),
            number(line, "\"id\":"),
        ) else {
            continue;
        };
        let Some(&(_, from, to)) = SPANS.iter().find(|s| s.0 == name) else { continue };
        let stamps = traces.entry(id).or_default();
        stamps.model = field(line, "\"model\":\"").unwrap_or("").to_string();
        stamps.priority = field(line, "\"priority\":\"").unwrap_or("").to_string();
        stamps.device = number(line, "\"tid\":").unwrap_or(0);
        for (stage, value) in [(from, ts), (to, ts + dur)] {
            match stamps.at[stage] {
                Some(old) if old != value => stamps.inconsistent = true,
                _ => stamps.at[stage] = Some(value),
            }
        }
    }
    traces
}

/// Per-request stage durations (µs) of a phase, with the checks of the
/// traced run applied.
#[derive(Debug, Default)]
struct StageSpans {
    wire_decode: Vec<f64>,
    admit: Vec<f64>,
    queue: Vec<f64>,
    schedule: Vec<f64>,
    cache: Vec<f64>,
    worker_wait: Vec<f64>,
    execute_per_batch: Vec<f64>,
    respond: Vec<f64>,
    wire_flush: Vec<f64>,
}

/// Matches a phase's traces to its requests (server ids follow the send
/// order on the phase's one connection) and checks each: every stage
/// stamped, the stage spans adding up exactly to admitted→responded, the
/// same model and priority as sent, and the client's send→receive time
/// no shorter than the server's admitted→responded.
fn check_traces(
    traces: &BTreeMap<u64, Stamps>,
    pool: &RequestPool,
    sent: &[gen::Arrival],
    result: &PhaseResult,
    report: &mut Report,
) -> StageSpans {
    let mut spans = StageSpans::default();
    let mut bad = Vec::new();
    if traces.len() != sent.len() {
        bad.push(format!("{} traces for {} requests", traces.len(), sent.len()));
    }
    let mut batches = BTreeMap::new();
    for ((id, t), (i, a)) in traces.iter().zip(sent.iter().enumerate()) {
        let Some(s) = t.at.iter().copied().collect::<Option<Vec<u64>>>() else {
            bad.push(format!("trace {id} lacks a stage"));
            continue;
        };
        let request = pool.request(a);
        let d = |from: usize, to: usize| s[to] as i64 - s[from] as i64;
        let parts = [d(1, 2), d(2, 3), d(3, 4), d(4, 5), d(5, 6), d(6, 7), d(7, 8)];
        if t.inconsistent || parts.iter().any(|&p| p < 0) || parts.iter().sum::<i64>() != d(1, 8) {
            bad.push(format!("trace {id}: stage spans do not telescope to admitted->responded"));
        }
        if t.model != request.model.slug() || t.priority != request.priority.name() {
            bad.push(format!(
                "trace {id} is {} {}, request {i} was {} {}",
                t.model,
                t.priority,
                request.model.slug(),
                request.priority.name()
            ));
        }
        if result.client_us[i].is_finite() && result.client_us[i] < d(1, 8) as f64 {
            bad.push(format!(
                "request {i}: client e2e {:.0} us < server e2e {} us",
                result.client_us[i],
                d(1, 8)
            ));
        }
        spans.wire_decode.push(d(0, 1) as f64);
        spans.admit.push(parts[0] as f64);
        spans.queue.push(parts[1] as f64);
        spans.schedule.push(parts[2] as f64);
        spans.cache.push(parts[3] as f64);
        spans.worker_wait.push(parts[4] as f64);
        spans.respond.push(parts[6] as f64);
        spans.wire_flush.push(d(8, 9) as f64);
        batches.insert((t.device, s[6]), parts[5] as f64);
    }
    spans.execute_per_batch = batches.into_values().collect();
    report.attempted += traces.len() as u64;
    println!("  traces checked: {} ({} problems)", traces.len(), bad.len());
    for line in bad.iter().take(5) {
        println!("    {line}");
    }
    report.failed += bad.len() as u64;
    if !bad.is_empty() {
        report.problems.push(format!("{} trace checks failed", bad.len()));
    }
    spans
}

/// The `q` quantile of spans measured between whole-µs trace stamps. A
/// span that reads `v` took between `v` and `v + 1` µs, so the quantile
/// is interpolated inside the tied values: `v + (q·n − below) / at`, with
/// `below` spans under `v` and `at` spans equal to it.
fn stamp_quantile(values: &mut [f64], q: f64) -> f64 {
    let v = quantile(values, q);
    let below = values.partition_point(|&x| x < v);
    let at = values[below..].partition_point(|&x| x <= v);
    v + ((q * values.len() as f64 - below as f64) / at as f64).clamp(0.0, 1.0)
}

/// Reads the trace file from `offset` once the server has recorded
/// `expected` traces in total.
fn read_traces(server: &WireServer, path: &Path, offset: &mut usize, expected: u64) -> String {
    let telemetry = server.server().telemetry();
    let deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.traces_recorded() < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    telemetry.sink().flush();
    let bytes = std::fs::read(path).expect("read the trace file");
    let text = String::from_utf8_lossy(&bytes[*offset..]).into_owned();
    *offset = bytes.len();
    text
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    spec: &ServeSpec,
    args: &Args,
    setup: Setup,
    pool: &RequestPool,
    models: &[std::sync::Arc<EncodedModel>],
    repository: &ModelRepository,
    trace_path: &Path,
    untraced_reference: f64,
    report: &mut Report,
) {
    let server = &setup.server;
    let mut offset = 0;
    let mut sent_total = 0u64;
    let mut late = Vec::new();
    let mut gen_sent = 0;
    let mut gen_ok = 0;
    let (light, schedule) =
        phase(server, pool, &mut Rng::new(args.seed, 0x11), spec.light_rps, 0.2 * args.seconds);
    account(report, &light, "light, traced");
    sent_total += light.outcome.len() as u64;
    let text = read_traces(server, trace_path, &mut offset, sent_total);
    let mut light_spans = check_traces(&parse_traces(&text), pool, &schedule, &light, report);
    report.put("queue.light_p50_us", stamp_quantile(&mut light_spans.queue, 0.5));
    late.extend_from_slice(&light.late_ms);
    gen_sent += light.outcome.len();
    gen_ok += light.count(Outcome::Ok);
    let before = Snapshot::read(server);
    let (result, sent) =
        phase(server, pool, &mut Rng::new(args.seed, 0x0ef), spec.heavy_rps, 0.2 * args.seconds);
    let after = Snapshot::read(server);
    let count = |f: &dyn Fn(&ServerStats) -> u64| f(&after.stats) - f(&before.stats);
    let wire = |f: fn(&WireStats) -> u64| count(&|s| s.wire.as_ref().map_or(0, f));
    account(report, &result, "measured phase, traced");
    sent_total += result.outcome.len() as u64;
    let text = read_traces(server, trace_path, &mut offset, sent_total);
    let mut spans = check_traces(&parse_traces(&text), pool, &sent, &result, report);
    late.extend_from_slice(&result.late_ms);
    gen_sent += result.outcome.len();
    gen_ok += result.count(Outcome::Ok);

    let traced = latency(&result, 0.5);
    let overhead = traced / untraced_reference - 1.0;
    println!(
        "  tracing overhead: {:.1}% (traced {traced:.3}, untraced {untraced_reference:.3})",
        overhead * 100.0
    );
    report.put("trace.overhead_pct", overhead * 100.0);

    report.put("wire_decode.p50_us", stamp_quantile(&mut spans.wire_decode, 0.5));
    report.put("wire_decode.p99_us", stamp_quantile(&mut spans.wire_decode, 0.99));
    report.put("wire_flush.p50_us", stamp_quantile(&mut spans.wire_flush, 0.5));
    report.put("wire_flush.p99_us", stamp_quantile(&mut spans.wire_flush, 0.99));
    report.put("wire.frames_in", wire(|w| w.frames_received) as f64);
    report.put("wire.bytes_out", wire(|w| w.bytes_sent) as f64);
    report.put("admit.p50_us", stamp_quantile(&mut spans.admit, 0.5));
    report.put("shed", count(&|s| s.total_shed()) as f64);
    report.put("queue.p50_us", stamp_quantile(&mut spans.queue, 0.5));
    report.put("queue.p99_us", stamp_quantile(&mut spans.queue, 0.99));
    let batches = count(&|s| s.executed_batches);
    let mean_batch = ratio(count(&|s| s.completed_requests), batches);
    report.put("batch.mean_size", mean_batch);
    report.put("batches", batches as f64);
    report.put("schedule.p50_us", stamp_quantile(&mut spans.schedule, 0.5));
    report.put("schedule.p99_us", stamp_quantile(&mut spans.schedule, 0.99));
    let (timing_hits, timing_misses) =
        (after.timing.0 - before.timing.0, after.timing.1 - before.timing.1);
    report.put("timing.hit_ratio", ratio(timing_hits, timing_hits + timing_misses));
    report.put("setup.price_ms", setup.price_ms);
    report.put("cache.p50_us", stamp_quantile(&mut spans.cache, 0.5));
    report.put("cache.p99_us", stamp_quantile(&mut spans.cache, 0.99));
    let misses = count(&|s| s.encode_misses);
    report.put(
        "cache.hit_ratio",
        ratio(count(&|s| s.encode_hits), count(&|s| s.encode_hits) + misses),
    );
    report.put("cache.misses", misses as f64);
    report.put("cache.restores", count(&|s| s.encode_disk_loads) as f64);
    report.put("cache.fresh_encodes", count(&|s| s.encode_fresh) as f64);
    report.put("cache.evictions", count(&|s| s.encode_evictions) as f64);
    // Over the server's life: the measured phase itself encodes nothing.
    report.put("cache.encode_ms_total", after.stats.encode_fresh_ms);
    report.put("cache.restore_ms_total", after.stats.encode_disk_ms - before.stats.encode_disk_ms);
    report.put("setup.encode_ms", setup.encode_ms);
    report.put("worker_wait.p50_us", stamp_quantile(&mut spans.worker_wait, 0.5));
    report.put("worker_wait.p99_us", stamp_quantile(&mut spans.worker_wait, 0.99));
    report.put("execute.p50_us", stamp_quantile(&mut spans.execute_per_batch, 0.5));
    report.put("execute.p99_us", stamp_quantile(&mut spans.execute_per_batch, 0.99));
    report.put("respond.p50_us", stamp_quantile(&mut spans.respond, 0.5));
    report.put("gen.late_p99_ms", quantile(&mut late, 0.99));
    report.put("gen.sent", gen_sent as f64);
    report.put("gen.ok", gen_ok as f64);
    report.put("gen.failed", (gen_sent as u64 - gen_ok) as f64);
    drop(setup);

    let rows = (mean_batch.round().max(1.0) as usize) * spec.rows;
    replay_kernels(models, repository, rows, args.seed, report);
}

/// Replays every layer of the served models through the public kernel
/// API at `rows` batch rows (the measured phase's mean batch), timing
/// each `encode_a` and `execute_encoded` call, and the weights'
/// `encode_b`. MACs and bytes are computed from the tensor sizes.
fn replay_kernels(
    models: &[std::sync::Arc<EncodedModel>],
    repository: &ModelRepository,
    rows: usize,
    seed: u64,
    report: &mut Report,
) {
    const REPS: usize = 15;
    let kernel = repository.kernel();
    let mut encode_us = Vec::new();
    let mut execute_us = Vec::new();
    let mut encode_b_ms = Vec::new();
    let mut macs = 0u64;
    let mut bytes = 0u64;
    let input =
        Matrix::random_sparse(rows, FEATURES, FEATURE_SPARSITY, SparsityPattern::Uniform, seed);
    let dense: Vec<Vec<Matrix>> =
        models.iter().map(|m| m.layers.iter().map(|l| l.weights.decode()).collect()).collect();
    for rep in 0..REPS {
        for model in models {
            let mut x = input.clone();
            for layer in &model.layers {
                let started = Instant::now();
                let a = std::hint::black_box(kernel.encode_a(&x));
                let encoded = Instant::now();
                let out = std::hint::black_box(kernel.execute_encoded(&a, &layer.weights));
                encode_us.push((encoded - started).as_secs_f64() * 1e6);
                execute_us.push(encoded.elapsed().as_secs_f64() * 1e6);
                if rep == 0 {
                    macs += (x.rows() * x.cols() * out.cols()) as u64;
                    bytes += (x.as_slice().len() + out.as_slice().len()) as u64 * 4
                        + a.storage().total()
                        + layer.weights.storage().total();
                }
                x = if layer.relu { out.relu() } else { out };
            }
        }
        let started = Instant::now();
        for w in dense.iter().flatten() {
            std::hint::black_box(kernel.encode_b(w));
        }
        encode_b_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    report.put("kernel.rows", rows as f64);
    report.put("kernel.encode_a_us", median(&mut encode_us));
    report.put("kernel.execute_us", median(&mut execute_us));
    report.put("kernel.encode_b_ms", median(&mut encode_b_ms));
    report.put("kernel.macs_computed", macs as f64);
    report.put("kernel.bytes_computed", bytes as f64);
}
