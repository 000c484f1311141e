//! `lightweb-load`: the open-loop load harness.
//!
//! The closed-loop bench (`reproduce bench`) measures *unloaded* cost:
//! a handful of clients, each waiting for its previous answer before
//! sending the next request, can never expose queueing collapse. This
//! module drives a fleet of simulated clients over real TCP at
//! **configured arrival rates** — Poisson or paced-browser schedules
//! from [`lightweb_workload::openloop`] and [`lightweb_browser::Pacer`]
//! — and measures each request's latency from its *intended* start
//! time, so time the server spends drowning is charged to the requests
//! that queued behind it (the coordinated-omission correction).
//!
//! [`run_sweep`] walks a list of arrival rates and produces one
//! [`LoadPoint`] per rate: offered vs achieved throughput, exact
//! latency percentiles, and error/timeout counts. [`detect_knee`] finds
//! the saturation knee in the resulting curve, and [`LoadSnapshot`]
//! serializes the whole sweep as a schema-versioned
//! `BENCH_load_<engine>.json` that `bench-compare` diffs point by
//! point.
//!
//! While a sweep is live, the harness exports saturation telemetry
//! through the global registry (and therefore the `/metrics` scrape
//! endpoint): `load.inflight.requests` and `load.connections.open`
//! gauges, `load.offered.rps` vs `load.achieved.rps`, per-second
//! `load.errors.per_second` / `load.timeouts.per_second` gauges, and
//! the `load.request.ns` / `load.sched.lag.ns` log₂ histograms. Server-
//! side queue waits ride the existing trace phases
//! (`zltp.server.batch.wait`).

use crate::perf::{git_commit, git_describe, percentile_exact};
use lightweb_browser::Pacer;
use lightweb_core::{TwoServerZltp, ZltpError};
use lightweb_universe::{parse_json, Value};
use lightweb_workload::openloop::{ArrivalProcess, OpenLoopPlan, PageSource, PlannedView};
use lightweb_workload::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version stamp of the load snapshot schema. Bump when a field is
/// added, removed, or changes meaning; parsers refuse unknown versions.
///
/// v2: added `io_model`, when the server had a thread-per-connection
/// front end beside the reactor. The reactor is now the only one, so the
/// key is no longer written; [`LoadSnapshot::from_json`] still accepts
/// `"reactor"` (checked-in baselines carry it) and refuses anything else.
pub const LOAD_SCHEMA_VERSION: u64 = 2;

/// The `kind` discriminator written into load snapshots (scalar bench
/// snapshots carry [`crate::perf::BENCH_SNAPSHOT_KIND`]).
pub const LOAD_SNAPSHOT_KIND: &str = "load_curve";

/// How the fleet spreads its arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Independent Poisson arrivals per connection (superposed, the
    /// aggregate is Poisson at the configured rate).
    Poisson,
    /// Each connection is a constant-rate paced browser
    /// ([`lightweb_browser::Pacer`]), phases staggered so the fleet
    /// aggregates to a smooth fixed rate.
    Paced,
}

impl ScheduleKind {
    /// Stable name used in snapshots and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleKind::Poisson => "poisson",
            ScheduleKind::Paced => "paced",
        }
    }

    /// Parse a stable name back.
    pub fn from_name(s: &str) -> Option<ScheduleKind> {
        match s {
            "poisson" => Some(ScheduleKind::Poisson),
            "paced" => Some(ScheduleKind::Paced),
            _ => None,
        }
    }
}

/// Configuration of one open-loop sweep against a two-server pair.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Offered GET rates to walk, requests/second, ascending.
    pub rates_rps: Vec<f64>,
    /// Seconds each rate step offers load for.
    pub duration_s: f64,
    /// Simulated clients (each one ZLTP session per server).
    pub connections: usize,
    /// Arrival schedule shape.
    pub schedule: ScheduleKind,
    /// Published pages the Zipf page mix draws from (keys
    /// `load/page-<rank>`).
    pub pages: usize,
    /// Data GETs per page view (the paper's §4 model uses 5).
    pub gets_per_page: usize,
    /// Zipf exponent for page popularity.
    pub zipf_exponent: f64,
    /// Socket read timeout; an elapsed timeout counts the request as a
    /// timeout and retires that connection.
    pub io_timeout: Duration,
    /// Seed for arrival times and page choice.
    pub seed: u64,
}

impl LoadConfig {
    /// CI-sized sweep: a short three-point walk with a small fleet.
    pub fn quick() -> LoadConfig {
        LoadConfig {
            rates_rps: vec![50.0, 100.0, 200.0],
            duration_s: 1.5,
            connections: 16,
            schedule: ScheduleKind::Poisson,
            pages: 64,
            gets_per_page: 5,
            zipf_exponent: 1.0,
            io_timeout: Duration::from_secs(5),
            seed: 0x10ad,
        }
    }

    /// Full sweep: walks past the expected knee with a big fleet.
    pub fn full() -> LoadConfig {
        LoadConfig {
            rates_rps: vec![100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0],
            duration_s: 5.0,
            connections: 1024,
            schedule: ScheduleKind::Poisson,
            pages: 64,
            gets_per_page: 5,
            zipf_exponent: 1.0,
            io_timeout: Duration::from_secs(10),
            seed: 0x10ad,
        }
    }
}

/// One point of a throughput-vs-latency curve: everything measured at a
/// single offered rate.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadPoint {
    /// Nominal offered GET rate (requests/second) — the sweep grid key.
    pub offered_rps: f64,
    /// GETs the schedule intended to issue.
    pub planned_requests: u64,
    /// The rate the schedule *realized* (planned requests over the step
    /// duration) — differs from `offered_rps` by Poisson sampling noise
    /// at short durations, and is what achieved throughput is judged
    /// against.
    pub planned_rps: f64,
    /// GETs answered successfully.
    pub requests: u64,
    /// Failed GETs (protocol or transport errors, including the rest of
    /// a retired connection's schedule).
    pub errors: u64,
    /// GETs abandoned after the socket read timeout.
    pub timeouts: u64,
    /// Completed GETs per wall second over the step.
    pub achieved_rps: f64,
    /// Median latency from intended start, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// 99th percentile of client-side scheduling lag (intended start to
    /// actual send), milliseconds — how far the generator itself fell
    /// behind the open-loop schedule.
    pub sched_lag_p99_ms: f64,
}

/// Per-point curve metrics `bench-compare` diffs, with direction
/// (`true` = lower is better).
pub const LOAD_COMPARED_METRICS: &[(&str, bool)] = &[
    ("achieved_rps", false),
    ("p50_ms", true),
    ("p95_ms", true),
    ("p99_ms", true),
    ("errors", true),
    ("timeouts", true),
];

impl LoadPoint {
    /// Look up a compared metric by its [`LOAD_COMPARED_METRICS`] name.
    pub fn field(&self, name: &str) -> Option<f64> {
        Some(match name {
            "offered_rps" => self.offered_rps,
            "achieved_rps" => self.achieved_rps,
            "planned_requests" => self.planned_requests as f64,
            "planned_rps" => self.planned_rps,
            "requests" => self.requests as f64,
            "errors" => self.errors as f64,
            "timeouts" => self.timeouts as f64,
            "p50_ms" => self.p50_ms,
            "p95_ms" => self.p95_ms,
            "p99_ms" => self.p99_ms,
            "mean_ms" => self.mean_ms,
            "max_ms" => self.max_ms,
            "sched_lag_p99_ms" => self.sched_lag_p99_ms,
            _ => return None,
        })
    }

    fn to_value(&self) -> Value {
        Value::object([
            ("offered_rps", self.offered_rps.into()),
            ("planned_requests", (self.planned_requests as i64).into()),
            ("planned_rps", self.planned_rps.into()),
            ("requests", (self.requests as i64).into()),
            ("errors", (self.errors as i64).into()),
            ("timeouts", (self.timeouts as i64).into()),
            ("achieved_rps", self.achieved_rps.into()),
            ("p50_ms", self.p50_ms.into()),
            ("p95_ms", self.p95_ms.into()),
            ("p99_ms", self.p99_ms.into()),
            ("mean_ms", self.mean_ms.into()),
            ("max_ms", self.max_ms.into()),
            ("sched_lag_p99_ms", self.sched_lag_p99_ms.into()),
        ])
    }

    fn from_value(v: &Value) -> Result<LoadPoint, String> {
        let num = |name: &str| -> Result<f64, String> {
            v.get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric point field {name:?}"))
        };
        Ok(LoadPoint {
            offered_rps: num("offered_rps")?,
            planned_requests: num("planned_requests")? as u64,
            planned_rps: num("planned_rps")?,
            requests: num("requests")? as u64,
            errors: num("errors")? as u64,
            timeouts: num("timeouts")? as u64,
            achieved_rps: num("achieved_rps")?,
            p50_ms: num("p50_ms")?,
            p95_ms: num("p95_ms")?,
            p99_ms: num("p99_ms")?,
            mean_ms: num("mean_ms")?,
            max_ms: num("max_ms")?,
            sched_lag_p99_ms: num("sched_lag_p99_ms")?,
        })
    }
}

/// Detect the saturation knee of a rate-sorted curve: the lowest
/// offered rate at which the system stops keeping up — achieved
/// throughput falls >10% short of the rate the schedule actually
/// realized (nominal rate capped by `planned_rps`, so Poisson sampling
/// noise at short durations cannot fake a shortfall), p99 exceeds 5×
/// the p99 at the lowest swept rate, or ≥5% of planned requests
/// error/time out. Returns `0.0` when no swept point saturates.
pub fn detect_knee(points: &[LoadPoint]) -> f64 {
    let Some(first) = points.first() else {
        return 0.0;
    };
    let base_p99 = first.p99_ms;
    for p in points {
        let realized = if p.planned_rps > 0.0 {
            p.offered_rps.min(p.planned_rps)
        } else {
            p.offered_rps
        };
        let shortfall = p.achieved_rps < 0.9 * realized;
        let blowup = base_p99 > 0.0 && p.p99_ms > 5.0 * base_p99;
        let failing = p.planned_requests > 0
            && (p.errors + p.timeouts) as f64 >= 0.05 * p.planned_requests as f64;
        if shortfall || blowup || failing {
            return p.offered_rps;
        }
    }
    0.0
}

/// A schema-versioned rate-sweep snapshot (`BENCH_load_<engine>.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSnapshot {
    /// Schema version ([`LOAD_SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Experiment name (`load_two_server`).
    pub experiment: String,
    /// Engine name as reported by the server.
    pub engine: String,
    /// `git describe` of the producing tree.
    pub git_describe: String,
    /// Commit hash of the producing tree.
    pub git_commit: String,
    /// Arrival schedule shape ([`ScheduleKind::name`]).
    pub schedule: String,
    /// Fleet size the sweep ran with.
    pub connections: u64,
    /// Seconds each rate step offered load for.
    pub duration_seconds: f64,
    /// GETs per page view.
    pub gets_per_page: u64,
    /// Detected saturation knee, requests/second (`0` = none within the
    /// swept range).
    pub knee_rps: f64,
    /// The curve, ascending by offered rate.
    pub points: Vec<LoadPoint>,
}

impl LoadSnapshot {
    /// Assemble a snapshot from sweep output (computes the knee; sorts
    /// the points by offered rate).
    pub fn from_sweep(
        experiment: &str,
        engine: &str,
        cfg: &LoadConfig,
        mut points: Vec<LoadPoint>,
    ) -> LoadSnapshot {
        points.sort_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps));
        LoadSnapshot {
            schema_version: LOAD_SCHEMA_VERSION,
            experiment: experiment.to_string(),
            engine: engine.to_string(),
            git_describe: git_describe().to_string(),
            git_commit: git_commit().to_string(),
            schedule: cfg.schedule.name().to_string(),
            connections: cfg.connections as u64,
            duration_seconds: cfg.duration_s,
            gets_per_page: cfg.gets_per_page as u64,
            knee_rps: detect_knee(&points),
            points,
        }
    }

    /// Serialize to compact JSON (object keys sorted, deterministic).
    pub fn to_json(&self) -> String {
        Value::object([
            ("schema_version", (self.schema_version as i64).into()),
            ("kind", LOAD_SNAPSHOT_KIND.into()),
            ("experiment", self.experiment.as_str().into()),
            ("engine", self.engine.as_str().into()),
            ("git_describe", self.git_describe.as_str().into()),
            ("git_commit", self.git_commit.as_str().into()),
            ("schedule", self.schedule.as_str().into()),
            ("connections", (self.connections as i64).into()),
            ("duration_seconds", self.duration_seconds.into()),
            ("gets_per_page", (self.gets_per_page as i64).into()),
            ("knee_rps", self.knee_rps.into()),
            (
                "points",
                Value::Array(self.points.iter().map(LoadPoint::to_value).collect()),
            ),
        ])
        .to_json()
    }

    /// Parse a load snapshot. Strict: unknown schema versions or kinds
    /// fail loudly instead of misdiffing.
    pub fn from_json(text: &str) -> Result<LoadSnapshot, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        let num = |name: &str| -> Result<f64, String> {
            v.get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field {name:?}"))
        };
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {name:?}"))
        };
        let version = num("schema_version")? as u64;
        if version != LOAD_SCHEMA_VERSION {
            return Err(format!(
                "unsupported load snapshot schema v{version} (this build reads \
                 v{LOAD_SCHEMA_VERSION}); regenerate the snapshot with a matching harness"
            ));
        }
        let kind = str_field("kind")?;
        if kind != LOAD_SNAPSHOT_KIND {
            return Err(format!(
                "snapshot kind {kind:?} is not {LOAD_SNAPSHOT_KIND:?}"
            ));
        }
        if let Some(other) = v.get("io_model").filter(|m| m.as_str() != Some("reactor")) {
            return Err(format!(
                "snapshot was recorded under io_model {}; only the reactor exists now, \
                 so its curve is not comparable",
                other.to_json()
            ));
        }
        let points = v
            .get("points")
            .and_then(Value::as_array)
            .ok_or_else(|| "missing array field \"points\"".to_string())?
            .iter()
            .map(LoadPoint::from_value)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LoadSnapshot {
            schema_version: version,
            experiment: str_field("experiment")?,
            engine: str_field("engine")?,
            git_describe: str_field("git_describe")?,
            git_commit: str_field("git_commit")?,
            schedule: str_field("schedule")?,
            connections: num("connections")? as u64,
            duration_seconds: num("duration_seconds")?,
            gets_per_page: num("gets_per_page")? as u64,
            knee_rps: num("knee_rps")?,
            points,
        })
    }
}

/// One compared curve value from [`compare_load_snapshots`]. Like
/// [`crate::perf::MetricDiff`] but labelled per point
/// (`p99_ms@200rps`).
#[derive(Clone, Debug, PartialEq)]
pub struct CurveDiff {
    /// `metric@raterps` label.
    pub label: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change in the *bad* direction.
    pub worsening: f64,
    /// Whether this value regressed beyond tolerance.
    pub regressed: bool,
}

fn diff_one(label: String, b: f64, c: f64, lower_is_better: bool, tolerance: f64) -> CurveDiff {
    let worsening = if b <= 0.0 {
        0.0 // no meaningful baseline to regress from
    } else if lower_is_better {
        c / b - 1.0
    } else {
        b / c.max(f64::MIN_POSITIVE) - 1.0
    };
    CurveDiff {
        label,
        baseline: b,
        current: c,
        worsening,
        regressed: worsening > tolerance,
    }
}

/// Diff two load curves point by point. Points pair by offered rate;
/// differing rate grids (or schedules, fleets, versions) are an error —
/// such curves are not comparable, and pretending otherwise is the
/// misdiff this schema exists to prevent.
pub fn compare_load_snapshots(
    baseline: &LoadSnapshot,
    current: &LoadSnapshot,
    tolerance: f64,
) -> Result<Vec<CurveDiff>, String> {
    if baseline.schema_version != current.schema_version {
        return Err(format!(
            "schema version mismatch: baseline v{} vs current v{}",
            baseline.schema_version, current.schema_version
        ));
    }
    if baseline.schedule != current.schedule {
        return Err(format!(
            "schedule mismatch: {} vs {}",
            baseline.schedule, current.schedule
        ));
    }
    if baseline.points.len() != current.points.len() {
        return Err(format!(
            "rate grid mismatch: {} vs {} points",
            baseline.points.len(),
            current.points.len()
        ));
    }
    let mut out = Vec::new();
    for (b, c) in baseline.points.iter().zip(&current.points) {
        if (b.offered_rps - c.offered_rps).abs() > 1e-9 * b.offered_rps.max(1.0) {
            return Err(format!(
                "rate grid mismatch: baseline swept {} rps where current swept {} rps",
                b.offered_rps, c.offered_rps
            ));
        }
        for &(name, lower_is_better) in LOAD_COMPARED_METRICS {
            let label = format!("{name}@{}rps", b.offered_rps);
            let bv = b.field(name).expect("known metric");
            let cv = c.field(name).expect("known metric");
            out.push(diff_one(label, bv, cv, lower_is_better, tolerance));
        }
    }
    // The knee moving *down* is the canonical capacity regression. A
    // knee of 0 means "no saturation in range" — nothing to regress
    // from (or to), so it only compares when both runs found one.
    if baseline.knee_rps > 0.0 && current.knee_rps > 0.0 {
        out.push(diff_one(
            "knee_rps".to_string(),
            baseline.knee_rps,
            current.knee_rps,
            false,
            tolerance,
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The fleet driver.
// ---------------------------------------------------------------------

/// Blob key for a page rank, matching what `reproduce load` publishes.
pub fn page_key(rank: usize) -> String {
    format!("load/page-{rank}")
}

/// What one worker brought home from a rate step.
#[derive(Default)]
struct WorkerOut {
    latencies_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    ok: u64,
    errors: u64,
    timeouts: u64,
}

fn is_timeout(e: &ZltpError) -> bool {
    matches!(
        e,
        ZltpError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

/// Per-connection intended schedule for one rate step.
fn connection_plan(cfg: &LoadConfig, rate_rps: f64, step: usize, conn: usize) -> Vec<PlannedView> {
    let view_rate = rate_rps / cfg.gets_per_page as f64;
    let zipf = Zipf::new(cfg.pages, cfg.zipf_exponent);
    let seed = cfg
        .seed
        .wrapping_add((step as u64) << 32)
        .wrapping_add(conn as u64);
    match cfg.schedule {
        ScheduleKind::Poisson => {
            // Independent thinned streams: superposing `connections`
            // Poisson processes at rate/n yields Poisson at rate.
            let process = ArrivalProcess::Poisson {
                rate_per_s: view_rate / cfg.connections as f64,
            };
            OpenLoopPlan::generate(
                process,
                PageSource::Zipf(&zipf),
                cfg.duration_s,
                cfg.gets_per_page,
                seed,
            )
            .views
        }
        ScheduleKind::Paced => {
            // Each client is a constant-rate paced browser; stagger the
            // phases so the fleet offers a smooth aggregate rate.
            let interval = cfg.connections as f64 / view_rate;
            let phase = conn as f64 * interval / cfg.connections as f64;
            let times = Pacer::new(interval).slot_times(phase, cfg.duration_s);
            let mut rng = StdRng::seed_from_u64(seed);
            times
                .into_iter()
                .map(|t| PlannedView {
                    intended_s: t,
                    page_rank: zipf.sample(&mut rng),
                })
                .collect()
        }
    }
}

/// Execute one connection's schedule against the pair. Latency for
/// every GET of a view is measured from the view's *intended* start —
/// a request that queued behind a slow server is charged its full wait.
#[allow(clippy::too_many_arguments)]
fn run_connection(
    addr0: SocketAddr,
    addr1: SocketAddr,
    views: Vec<PlannedView>,
    gets_per_page: usize,
    blob_len: usize,
    io_timeout: Duration,
    start: Instant,
) -> WorkerOut {
    let registry = lightweb_telemetry::registry();
    let inflight = registry.gauge("load.inflight.requests");
    let open = registry.gauge("load.connections.open");
    let ok_counter = registry.counter("load.requests");
    let err_counter = registry.counter("load.errors");
    let timeout_counter = registry.counter("load.timeouts");
    let lat_hist = registry.histogram("load.request.ns");
    let lag_hist = registry.histogram("load.sched.lag.ns");

    let mut out = WorkerOut::default();
    let planned: u64 = (views.len() * gets_per_page) as u64;
    let connect = || -> Result<TwoServerZltp<TcpStream>, ZltpError> {
        let s0 = TcpStream::connect(addr0).map_err(ZltpError::Io)?;
        let s1 = TcpStream::connect(addr1).map_err(ZltpError::Io)?;
        for s in [&s0, &s1] {
            // Queries are small; Nagle would serialize them behind ACKs.
            s.set_nodelay(true).map_err(ZltpError::Io)?;
            s.set_read_timeout(Some(io_timeout))
                .map_err(ZltpError::Io)?;
        }
        TwoServerZltp::connect(s0, s1)
    };
    let mut client = match connect() {
        Ok(c) => c,
        Err(e) => {
            // A fleet that cannot even connect fails the whole schedule.
            let n = if is_timeout(&e) {
                timeout_counter.add(planned);
                &mut out.timeouts
            } else {
                err_counter.add(planned);
                &mut out.errors
            };
            *n = planned;
            return out;
        }
    };
    open.add(1);
    let mut issued: u64 = 0;
    'schedule: for view in &views {
        let intended = start + Duration::from_secs_f64(view.intended_s);
        for _ in 0..gets_per_page {
            let wait = intended.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let lag = Instant::now().saturating_duration_since(intended);
            lag_hist.record(lag.as_nanos() as u64);
            out.lag_ms.push(lag.as_secs_f64() * 1e3);
            inflight.add(1);
            let res = client.private_get(&page_key(view.page_rank));
            inflight.add(-1);
            let latency = intended.elapsed();
            issued += 1;
            match res {
                Ok(blob) => {
                    debug_assert_eq!(blob.len(), blob_len);
                    out.ok += 1;
                    ok_counter.inc();
                    lat_hist.record(latency.as_nanos() as u64);
                    out.latencies_ms.push(latency.as_secs_f64() * 1e3);
                }
                Err(e) => {
                    // The session is unusable after a transport error;
                    // the rest of this connection's schedule is lost
                    // offered load and must be accounted, not dropped.
                    let rest = planned - issued;
                    if is_timeout(&e) {
                        out.timeouts += 1 + rest;
                        timeout_counter.add(1 + rest);
                    } else {
                        out.errors += 1 + rest;
                        err_counter.add(1 + rest);
                    }
                    break 'schedule;
                }
            }
        }
    }
    let _ = client.close();
    open.add(-1);
    out
}

/// Run one rate step: spawn the fleet, keep the live saturation gauges
/// fresh while it runs, and fold the workers' observations into a
/// [`LoadPoint`].
fn run_step(
    addr0: SocketAddr,
    addr1: SocketAddr,
    cfg: &LoadConfig,
    rate_rps: f64,
    step: usize,
    blob_len: usize,
) -> LoadPoint {
    let registry = lightweb_telemetry::registry();
    registry
        .gauge("load.offered.rps")
        .set(rate_rps.round() as i64);

    // Connect setup happens inside the workers, so give the fleet a
    // grace window before the schedule epoch.
    let slack = Duration::from_millis(150) + Duration::from_micros(500) * cfg.connections as u32;
    let start = Instant::now() + slack;

    let handles: Vec<_> = (0..cfg.connections)
        .map(|conn| {
            let views = connection_plan(cfg, rate_rps, step, conn);
            let io_timeout = cfg.io_timeout;
            let gets_per_page = cfg.gets_per_page;
            std::thread::Builder::new()
                .name(format!("load-conn-{conn}"))
                .spawn(move || {
                    run_connection(
                        addr0,
                        addr1,
                        views,
                        gets_per_page,
                        blob_len,
                        io_timeout,
                        start,
                    )
                })
                .expect("spawn load worker")
        })
        .collect();

    // Live achieved-rate / error-rate gauges: a sidecar samples the
    // counters while the fleet runs, so `/metrics` shows saturation as
    // it happens.
    let done = Arc::new(AtomicBool::new(false));
    let monitor = {
        let done = done.clone();
        let ok = registry.counter("load.requests");
        let errs = registry.counter("load.errors");
        let tos = registry.counter("load.timeouts");
        let achieved = registry.gauge("load.achieved.rps");
        let err_rate = registry.gauge("load.errors.per_second");
        let to_rate = registry.gauge("load.timeouts.per_second");
        std::thread::spawn(move || {
            let mut prev = (ok.get(), errs.get(), tos.get(), Instant::now());
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                let now = Instant::now();
                let dt = now.duration_since(prev.3).as_secs_f64().max(1e-3);
                let (o, e, t) = (ok.get(), errs.get(), tos.get());
                achieved.set(((o - prev.0) as f64 / dt).round() as i64);
                err_rate.set(((e - prev.1) as f64 / dt).round() as i64);
                to_rate.set(((t - prev.2) as f64 / dt).round() as i64);
                prev = (o, e, t, now);
            }
        })
    };

    let outs: Vec<WorkerOut> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed = Instant::now()
        .saturating_duration_since(start)
        .as_secs_f64();
    done.store(true, Ordering::Relaxed);
    let _ = monitor.join();

    let mut latencies: Vec<f64> = outs.iter().flat_map(|o| o.latencies_ms.clone()).collect();
    latencies.sort_by(f64::total_cmp);
    let mut lags: Vec<f64> = outs.iter().flat_map(|o| o.lag_ms.clone()).collect();
    lags.sort_by(f64::total_cmp);
    let ok: u64 = outs.iter().map(|o| o.ok).sum();
    let errors: u64 = outs.iter().map(|o| o.errors).sum();
    let timeouts: u64 = outs.iter().map(|o| o.timeouts).sum();
    let mean_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let planned = ok + errors + timeouts;
    LoadPoint {
        offered_rps: rate_rps,
        planned_requests: planned,
        planned_rps: planned as f64 / cfg.duration_s,
        requests: ok,
        errors,
        timeouts,
        achieved_rps: ok as f64 / elapsed.max(cfg.duration_s).max(1e-3),
        p50_ms: percentile_exact(&latencies, 0.50),
        p95_ms: percentile_exact(&latencies, 0.95),
        p99_ms: percentile_exact(&latencies, 0.99),
        mean_ms,
        max_ms: latencies.last().copied().unwrap_or(0.0),
        sched_lag_p99_ms: percentile_exact(&lags, 0.99),
    }
}

/// Walk the configured arrival rates against a live two-server pair
/// (`addr0`/`addr1` accept ZLTP over TCP and must already have the
/// [`page_key`] content published at `blob_len` bytes per blob).
/// Returns one [`LoadPoint`] per rate, in sweep order.
pub fn run_sweep(
    addr0: SocketAddr,
    addr1: SocketAddr,
    cfg: &LoadConfig,
    blob_len: usize,
) -> Result<Vec<LoadPoint>, String> {
    if cfg.rates_rps.is_empty() {
        return Err("sweep needs at least one rate".to_string());
    }
    if cfg.connections == 0 || cfg.gets_per_page == 0 || cfg.pages == 0 {
        return Err("connections, gets_per_page, and pages must be positive".to_string());
    }
    if !cfg.duration_s.is_finite() || cfg.duration_s <= 0.0 {
        return Err("duration must be positive".to_string());
    }
    Ok(cfg
        .rates_rps
        .iter()
        .enumerate()
        .map(|(step, &rate)| run_step(addr0, addr1, cfg, rate, step, blob_len))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(rate: f64) -> LoadPoint {
        LoadPoint {
            offered_rps: rate,
            planned_requests: (rate * 2.0) as u64,
            planned_rps: rate,
            requests: (rate * 2.0) as u64,
            errors: 0,
            timeouts: 0,
            achieved_rps: rate,
            p50_ms: 4.0,
            p95_ms: 9.0,
            p99_ms: 12.0,
            mean_ms: 5.0,
            max_ms: 20.0,
            sched_lag_p99_ms: 0.2,
        }
    }

    fn sample() -> LoadSnapshot {
        LoadSnapshot::from_sweep(
            "load_two_server",
            "two_server_pir",
            &LoadConfig::quick(),
            vec![point(50.0), point(100.0), point(200.0)],
        )
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample();
        let text = snap.to_json();
        assert!(text.contains("\"kind\":\"load_curve\""), "{text}");
        assert!(text.contains("\"schema_version\":2"), "{text}");
        assert!(!text.contains("io_model"), "{text}");
        assert_eq!(LoadSnapshot::from_json(&text).unwrap(), snap);
    }

    #[test]
    fn unknown_versions_and_kinds_fail_loudly() {
        let good = sample().to_json();
        let v99 = good.replace("\"schema_version\":2", "\"schema_version\":99");
        let err = LoadSnapshot::from_json(&v99).unwrap_err();
        assert!(
            err.contains("unsupported load snapshot schema v99"),
            "{err}"
        );
        let wrong_kind = good.replace("\"kind\":\"load_curve\"", "\"kind\":\"bench\"");
        assert!(LoadSnapshot::from_json(&wrong_kind).is_err());
        let truncated = good.replace("\"p99_ms\":12,", "");
        assert!(LoadSnapshot::from_json(&truncated)
            .unwrap_err()
            .contains("p99_ms"));
    }

    #[test]
    fn self_compare_is_clean_at_zero_tolerance() {
        let snap = sample();
        let diffs = compare_load_snapshots(&snap, &snap, 0.0).unwrap();
        assert_eq!(
            diffs.len(),
            snap.points.len() * LOAD_COMPARED_METRICS.len(),
            "healthy curve has no knee entry"
        );
        assert!(diffs.iter().all(|d| !d.regressed), "{diffs:?}");
    }

    #[test]
    fn per_point_regression_is_labelled_with_its_rate() {
        let base = sample();
        let mut cur = base.clone();
        cur.points[2].p99_ms *= 3.0;
        let diffs = compare_load_snapshots(&base, &cur, 0.25).unwrap();
        let bad: Vec<_> = diffs.iter().filter(|d| d.regressed).collect();
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].label, "p99_ms@200rps");
        assert!((bad[0].worsening - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_grids_and_schedules_refuse_to_diff() {
        let base = sample();
        let mut fewer = base.clone();
        fewer.points.pop();
        assert!(compare_load_snapshots(&base, &fewer, 0.0)
            .unwrap_err()
            .contains("rate grid"));
        let mut shifted = base.clone();
        shifted.points[0].offered_rps = 51.0;
        assert!(compare_load_snapshots(&base, &shifted, 0.0)
            .unwrap_err()
            .contains("rate grid"));
        let mut paced = base.clone();
        paced.schedule = "paced".into();
        assert!(compare_load_snapshots(&base, &paced, 0.0)
            .unwrap_err()
            .contains("schedule"));
    }

    #[test]
    fn io_model_key_is_tolerated_only_as_reactor() {
        let snap = sample();
        let with = |model: &str| {
            snap.to_json()
                .replacen('{', &format!("{{\"io_model\":{model},"), 1)
        };
        assert_eq!(LoadSnapshot::from_json(&with("\"reactor\"")).unwrap(), snap);
        for bad in ["\"threads\"", "\"\"", "7"] {
            let err = LoadSnapshot::from_json(&with(bad)).unwrap_err();
            assert!(err.contains("io_model"), "{bad}: {err}");
        }
    }

    #[test]
    fn knee_regression_is_compared_when_both_runs_saturate() {
        let mut base = sample();
        base.knee_rps = 200.0;
        let mut cur = base.clone();
        cur.knee_rps = 100.0; // capacity halved
        let diffs = compare_load_snapshots(&base, &cur, 0.25).unwrap();
        let knee = diffs.iter().find(|d| d.label == "knee_rps").unwrap();
        assert!(knee.regressed, "{knee:?}");
        assert!((knee.worsening - 1.0).abs() < 1e-9);
        // No knee in the current run = no saturation = nothing regressed.
        cur.knee_rps = 0.0;
        assert!(!compare_load_snapshots(&base, &cur, 0.25)
            .unwrap()
            .iter()
            .any(|d| d.label == "knee_rps"));
    }

    #[test]
    fn knee_detection_fires_on_shortfall_blowup_or_failures() {
        // Healthy curve: no knee.
        assert_eq!(detect_knee(&[point(50.0), point(100.0)]), 0.0);
        assert_eq!(detect_knee(&[]), 0.0);
        // Throughput shortfall.
        let mut p = point(200.0);
        p.achieved_rps = 150.0;
        assert_eq!(detect_knee(&[point(50.0), point(100.0), p]), 200.0);
        // p99 blowup relative to the lowest rate.
        let mut p = point(100.0);
        p.p99_ms = 120.0; // 10x the 12 ms base
        assert_eq!(detect_knee(&[point(50.0), p, point(200.0)]), 100.0);
        // Error budget blown.
        let mut p = point(400.0);
        p.errors = p.planned_requests / 10;
        assert_eq!(detect_knee(&[point(50.0), p]), 400.0);
    }

    #[test]
    fn schedule_kind_names_round_trip() {
        for k in [ScheduleKind::Poisson, ScheduleKind::Paced] {
            assert_eq!(ScheduleKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ScheduleKind::from_name("bursty"), None);
    }

    #[test]
    fn connection_plans_are_deterministic_and_partition_the_rate() {
        let cfg = LoadConfig {
            connections: 4,
            duration_s: 2.0,
            ..LoadConfig::quick()
        };
        for schedule in [ScheduleKind::Poisson, ScheduleKind::Paced] {
            let cfg = LoadConfig {
                schedule,
                ..cfg.clone()
            };
            let total: usize = (0..cfg.connections)
                .map(|c| connection_plan(&cfg, 100.0, 0, c).len())
                .sum();
            // 100 GETs/s at 5 GETs/view over 2 s ≈ 40 views.
            assert!(
                (25..=55).contains(&total),
                "{schedule:?}: {total} views far from 40"
            );
            let again: usize = (0..cfg.connections)
                .map(|c| connection_plan(&cfg, 100.0, 0, c).len())
                .sum();
            assert_eq!(total, again, "{schedule:?} not deterministic");
        }
    }
}
