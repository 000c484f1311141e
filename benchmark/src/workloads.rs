//! The five workloads. Each one sets up, warms up, measures a timed window,
//! then publishes and verifies in the warm-down (and sets up a few more times,
//! for `setup_s`), and reports every end-to-end metric.

use crate::fixture::{Dataset, DbSpec, ServerPair, Target, BLOB_LEN};
use crate::host;
use crate::manifest::{GETS_PER_PAGE, LOAD_RATE_PER_S};
use crate::pages;
use crate::pipeline::PipelinedPair;
use crate::rng::{blob_for, poisson_schedule, Rng, Zipf};
use crate::span::{Recorder, Span};
use crate::stats::{highest_supported, median, percentile, sliced_percentile, sorted};
use lightweb_core::server::ServerStats;
use lightweb_core::{BatchConfig, TwoServerZltp};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One GET in this many asks for a key that was never published.
const ABSENT_EVERY: u64 = 64;
/// A `load_16m` GET answered later than this counts as failed.
pub const LOAD_LIMIT_MS: f64 = 100.0;
/// Closed-loop users kept outstanding on `saturate_16m`.
const SATURATE_USERS: usize = 32;
/// Publishes of the warm-down on the private-GET workloads: two overwrites in
/// place, then one new key, repeated.
const PUBLISHES: usize = 300;
/// How long past the window's end a load thread waits for stragglers.
const GIVE_UP_NS: u64 = 2_000_000_000;

#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Record a benchmark-owned span around every other client-visible call.
    pub trace: bool,
}

impl Opts {
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.quick { 0.5 } else { 2.0 })
    }

    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set up once, timed; the run uses this one.
pub fn first_setup<T>(obs: &mut Observed, build: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let built = build();
    obs.setup_s.push(t.elapsed().as_secs_f64());
    built
}

/// Set up and tear down again, timed, until `setup_s` is the median of at
/// least three set-ups and a second's worth of them, so that a set-up of a few
/// milliseconds is not judged from three samples. Runs after the measured
/// part of the run, which therefore always starts from a fresh process.
pub fn more_setups<T>(
    opts: &Opts,
    obs: &mut Observed,
    mut build: impl FnMut() -> T,
    stop: impl Fn(T),
) {
    let begun = Instant::now();
    // A traced run reports no set-up time.
    while !(opts.quick || opts.trace)
        && obs.setup_s.len() < 12
        && (obs.setup_s.len() < 3 || begun.elapsed() < Duration::from_secs(1))
    {
        stop(first_setup(obs, &mut build));
    }
}

/// The database of a private-GET workload; `None` for `page_churn_4m`, whose
/// database is a `Universe`.
pub fn spec(workload: &str) -> Option<DbSpec> {
    let single_client = |id, records, domain_bits, one_cpu| DbSpec {
        id,
        records,
        domain_bits,
        batch: BatchConfig::unbatched(),
        scan_threads: 0,
        one_cpu,
    };
    let pipelined = |id| DbSpec {
        id,
        records: 16_384,
        domain_bits: 16,
        batch: BatchConfig {
            max_batch: 16,
            window: Duration::from_millis(4),
        },
        scan_threads: 1,
        one_cpu: false,
    };
    match workload {
        "scan_64m" => Some(single_client("scan_64m", 65_536, 18, false)),
        // On one CPU: a GET this small is a chain of thread wake-ups, and on a
        // 2-vCPU guest a wake-up that crosses CPUs costs three times one that
        // does not — 0.25 ms or 0.07 ms a GET, whichever way the scheduler
        // happened to place the threads of that run. Pinned, the workload
        // measures the layers' own work, and repeats.
        "small_256k" => Some(single_client("small_256k", 256, 10, true)),
        "saturate_16m" => Some(pipelined("saturate_16m")),
        "load_16m" => Some(pipelined("load_16m")),
        _ => None,
    }
}

/// Everything a run observed, before it is boiled down to metrics.
#[derive(Default)]
pub struct Observed {
    pub setup_s: Vec<f64>,
    /// Latency of every verified GET of the timed window.
    pub get_ms: Vec<f64>,
    /// Page views: `browse()` on `page_churn_4m`, elsewhere five GETs of one
    /// user back to back (what a page view costs against this database).
    pub page_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
    /// Verified GETs that completed inside the window (and the limit).
    pub gets_ok: u64,
    pub window_s: f64,
    pub cpu_ms: f64,
    pub wire_bytes: u64,
    pub wire_gets: u64,
    pub peak_rss_mib: f64,
    /// Client-visible operations attempted, and how they failed.
    pub ops: u64,
    pub wrong: u64,
    pub transport_errors: u64,
    pub limit_missed: u64,
    /// Extra numbers for the human-readable report and the traced run.
    pub diag: BTreeMap<&'static str, f64>,
    pub provenance: Vec<String>,
    /// With `Opts::trace`: the spans, and the GET latencies taken with a span
    /// on or around them and without.
    pub spans: Vec<Span>,
    pub spanned_get_ms: Vec<f64>,
    pub plain_get_ms: Vec<f64>,
}

impl Observed {
    pub fn failed(&self) -> u64 {
        self.wrong + self.transport_errors + self.limit_missed
    }

    /// Outputs were correct: nothing wrong came back and no transport broke.
    /// A `load_16m` answer past the limit is a failed operation, not a wrong one.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.transport_errors == 0
    }

    /// The end-to-end metrics, by the names `BENCHMARK.json` lists.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let get = sorted(self.get_ms.clone());
        let page = sorted(self.page_ms.clone());
        let publish = sorted(self.publish_ms.clone());
        let gets = self.gets_ok.max(1) as f64;
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("get_p50_ms", percentile(&get, 50.0)),
            // One slice per second of the window.
            (
                "get_p99_ms",
                sliced_percentile(&self.get_ms, self.window_s.round() as usize, 99.0),
            ),
            ("gets_per_s", self.gets_ok as f64 / self.window_s),
            ("cpu_ms_per_get", self.cpu_ms / gets),
            (
                "wire_bytes_per_get",
                self.wire_bytes as f64 / self.wire_gets.max(1) as f64,
            ),
            ("peak_rss_mib", self.peak_rss_mib),
            ("page_p50_ms", percentile(&page, 50.0)),
            ("page_p90_ms", percentile(&page, 90.0)),
            ("publish_p50_ms", percentile(&publish, 50.0)),
            ("publish_p90_ms", percentile(&publish, 90.0)),
        ])
    }

    /// What the batcher did between two `ZltpServer::stats()` snapshots: mean
    /// queue wait of a batched GET and mean GETs per scan pass.
    pub fn batcher(&mut self, before: &ServerStats, after: &ServerStats) {
        let batched = (after.batched_requests - before.batched_requests) as f64;
        self.diag.insert(
            "core.server.batch_wait_us",
            (after.batch_wait_ns - before.batch_wait_ns) as f64 / batched.max(1.0) / 1e3,
        );
        self.diag.insert(
            "core.server.batch_occupancy",
            batched / (after.batches - before.batches).max(1) as f64,
        );
    }

    /// Sample counts behind the percentiles, and the highest percentile each
    /// sample supports (at least ten samples beyond it).
    pub fn support(&self) -> String {
        let one = |name: &str, n: usize| {
            format!(
                "{name}: n={n} supports p{}",
                highest_supported(n).map_or("-".into(), |p| p.to_string())
            )
        };
        format!(
            "{}; {}; {}",
            one("get", self.get_ms.len()),
            one("page", self.page_ms.len()),
            one("publish", self.publish_ms.len())
        )
    }
}

/// Run one of `manifest::WORKLOADS`.
pub fn run(workload: &str, opts: &Opts) -> Observed {
    match (workload, spec(workload)) {
        ("page_churn_4m", _) => pages::run(opts),
        ("load_16m", Some(spec)) => pipelined(&spec, opts, Some(LOAD_RATE_PER_S)),
        ("saturate_16m", Some(spec)) => pipelined(&spec, opts, None),
        (_, Some(spec)) => closed_loop(&spec, opts),
        (other, None) => panic!("'{other}' is not a workload"),
    }
}

/// Build the database, start and fill both servers, connect, and verify a
/// first GET: one set-up.
fn setup_pair(spec: &DbSpec, seed: u64) -> (Dataset, ServerPair) {
    let data = Dataset::new(spec, seed);
    let pair = ServerPair::start(spec, &data);
    let mut client = pair.client();
    let got = client.private_get(&data.keys[0]).expect("first GET");
    assert!(
        data.answer_is_right(Target::Item(0), &got),
        "first GET is wrong"
    );
    let _ = client.close();
    (data, pair)
}

fn stop_pair((_, pair): (Dataset, ServerPair)) {
    pair.stop();
}

/// The seeded stream of keys a workload asks for: Zipf(1.0) over the
/// published keys, and one key in [`ABSENT_EVERY`] that was never published.
pub struct KeyStream {
    zipf: Zipf,
    rng: Rng,
    absent: usize,
}

impl KeyStream {
    pub fn new(data: &Dataset, seed: u64, purpose: &str) -> Self {
        Self {
            zipf: Zipf::new(data.len(), seed),
            rng: Rng::stream(seed, purpose),
            absent: data.absent.len(),
        }
    }

    pub fn draw(&mut self) -> Target {
        if self.rng.below(ABSENT_EVERY) == 0 {
            Target::Absent(self.rng.below(self.absent as u64) as usize)
        } else {
            Target::Item(self.zipf.sample(&mut self.rng))
        }
    }
}

/// `scan_64m`, `small_256k`: one client, one GET at a time.
fn closed_loop(spec: &DbSpec, opts: &Opts) -> Observed {
    let mut obs = Observed::default();
    // Before any server thread exists: they inherit the pin.
    let pin = spec.one_cpu.then(host::OneCpu::pin).flatten();
    if spec.one_cpu {
        obs.provenance.push(match &pin {
            Some(p) => format!("client and servers pinned to CPU {}", p.cpu),
            None => "could not pin to one CPU: running unpinned".into(),
        });
    }
    let (data, pair) = first_setup(&mut obs, || setup_pair(spec, opts.seed));
    obs.provenance
        .push(format!("servers: {} transport=loopback", pair.describe()));
    let mut client = pair.client();
    let mut keys = KeyStream::new(&data, opts.seed, "keys");

    let mut rec = Recorder::new();
    // `span`: the page span this GET belongs to, when spans are on.
    let mut get = |client: &mut TwoServerZltp<TcpStream>,
                   obs: &mut Observed,
                   rec: &mut Recorder,
                   record: bool,
                   span: Option<usize>| {
        let target = keys.draw();
        let t = Instant::now();
        let id = span.map(|page| rec.open("get", Some(page), obs.ops));
        let result = client.private_get(data.key(target));
        if let Some(id) = id {
            rec.close(id);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !record {
            return;
        }
        obs.ops += 1;
        match result {
            Ok(blob) if data.answer_is_right(target, &blob) => {
                obs.gets_ok += 1;
                obs.get_ms.push(ms);
                if opts.trace {
                    match span {
                        Some(_) => obs.spanned_get_ms.push(ms),
                        None => obs.plain_get_ms.push(ms),
                    }
                }
            }
            Ok(_) => obs.wrong += 1,
            Err(_) => obs.transport_errors += 1,
        }
    };

    let warm = Instant::now();
    let mut warmed = 0;
    while warmed < 50 || warm.elapsed() < opts.warmup() {
        get(&mut client, &mut obs, &mut rec, false, None);
        warmed += 1;
    }

    let wire0 = client.stats();
    let cpu0 = host::process_cpu_ms();
    let start = Instant::now();
    let mut spans_on = false;
    while start.elapsed() < opts.window() {
        // A page view against this database: the browser's fixed budget of
        // GETs, in series, from the first call to the last verified blob.
        // When tracing, every other page view carries spans.
        spans_on = opts.trace && !spans_on;
        let page = Instant::now();
        let span = spans_on.then(|| rec.open("page", None, obs.ops));
        for _ in 0..GETS_PER_PAGE {
            get(&mut client, &mut obs, &mut rec, true, span);
        }
        if let Some(id) = span {
            rec.close(id);
        }
        obs.page_ms.push(page.elapsed().as_secs_f64() * 1e3);
    }
    obs.window_s = start.elapsed().as_secs_f64();
    obs.cpu_ms = host::process_cpu_ms() - cpu0;
    let wire1 = client.stats();
    obs.wire_bytes =
        (wire1.bytes_sent - wire0.bytes_sent) + (wire1.bytes_received - wire0.bytes_received);
    obs.wire_gets = wire1.requests - wire0.requests;
    obs.peak_rss_mib = host::peak_rss_mib();
    obs.spans = rec.spans;
    // Unbatched: nothing waits in the batcher, and these stay zero.
    obs.batcher(&ServerStats::default(), &pair.served[0].server.stats());

    publish_phase(&pair, &data, opts, &mut obs, &mut client);
    let _ = client.close();
    pair.stop();
    more_setups(opts, &mut obs, || setup_pair(spec, opts.seed), stop_pair);
    drop(pin);
    obs
}

/// Warm-down of the private-GET workloads: publish to both servers (two
/// overwrites in place, then one new key, repeated), then check every publish
/// with a private GET, then put the database back.
fn publish_phase(
    pair: &ServerPair,
    data: &Dataset,
    opts: &Opts,
    obs: &mut Observed,
    client: &mut TwoServerZltp<TcpStream>,
) {
    let servers = [&pair.served[0].server, &pair.served[1].server];
    let mut rng = Rng::stream(opts.seed, "publishes");
    let mut written: Vec<(String, Vec<u8>, Option<usize>)> = Vec::new();
    let mut fresh = 0;
    for n in 0..PUBLISHES {
        let (key, item) = if n % 3 == 2 {
            fresh += 1;
            (data.absent[fresh - 1].clone(), None)
        } else {
            let j = rng.below(data.len() as u64) as usize;
            (data.keys[j].clone(), Some(j))
        };
        let mut blob = vec![0u8; BLOB_LEN];
        blob_for(opts.seed ^ 0x7075_626c, n as u64, &mut blob);
        let t = Instant::now();
        let result = servers
            .iter()
            .try_for_each(|s| s.publish(&key, &blob).map_err(|e| e.to_string()));
        obs.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        obs.ops += 1;
        match result {
            Ok(()) => written.push((key, blob, item)),
            Err(_) => obs.wrong += 1,
        }
    }
    // Last write wins: check each key against the newest blob published to it.
    let mut newest: BTreeMap<&str, &[u8]> = BTreeMap::new();
    for (key, blob, _) in &written {
        newest.insert(key, blob);
    }
    for (key, blob) in &newest {
        obs.ops += 1;
        match client.private_get(key) {
            Ok(got) if got == *blob => {}
            Ok(_) => obs.wrong += 1,
            Err(_) => obs.transport_errors += 1,
        }
    }
    for (key, _, item) in &written {
        for s in servers {
            match item {
                Some(j) => s.publish(key, &data.blob(*j)).expect("restore a record"),
                None => {
                    s.unpublish(key).expect("remove a new key");
                }
            }
        }
    }
    assert_eq!(
        servers[0].num_blobs() * BLOB_LEN,
        pair.spec.bytes(),
        "database not restored"
    );
}

/// `saturate_16m` (closed loop, [`SATURATE_USERS`] GETs kept outstanding) and
/// `load_16m` (open loop, Poisson arrivals at `rate`): two threads, each
/// driving one pipelined session pair.
fn pipelined(spec: &DbSpec, opts: &Opts, rate: Option<f64>) -> Observed {
    let mut obs = Observed::default();
    let (data, pair) = first_setup(&mut obs, || setup_pair(spec, opts.seed));
    obs.provenance
        .push(format!("servers: {} transport=loopback", pair.describe()));
    let threads = 2.min(host::nproc()).max(1);
    let warm_ns = opts.warmup().as_nanos() as u64;
    let end_ns = warm_ns + opts.window().as_nanos() as u64;
    if let Some(r) = rate {
        obs.provenance.push(format!(
            "open loop: Poisson arrivals, R={r}/s over {threads} session pairs, limit {LOAD_LIMIT_MS} ms, latency from the intended send time"
        ));
    } else {
        obs.provenance.push(format!(
            "closed loop: {SATURATE_USERS} users over {threads} session pairs"
        ));
    }

    let origin = Instant::now();
    let edge = |at_ns: u64| {
        std::thread::sleep(Duration::from_nanos(at_ns).saturating_sub(origin.elapsed()));
        (host::process_cpu_ms(), pair.served[0].server.stats())
    };
    let (parts, (cpu0, stats0), (cpu1, stats1)) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (data, pair) = (&data, &pair);
                scope.spawn(move || {
                    let conn = PipelinedPair::connect(pair.dial_pair(), origin)
                        .expect("ZLTP hello with both servers");
                    let mut d = Driver {
                        conn,
                        data,
                        keys: KeyStream::new(data, opts.seed, &format!("keys-{t}")),
                        part: Part::default(),
                        warm_ns,
                        end_ns,
                        users: Vec::new(),
                        trace: opts.trace,
                        spans_on: false,
                    };
                    match rate {
                        None => d.closed(SATURATE_USERS / threads),
                        // The superposition of the threads' Poisson processes
                        // is one Poisson process of rate R.
                        Some(r) => d.open(&poisson_schedule(
                            opts.seed.wrapping_add(t as u64),
                            r / threads as f64,
                            end_ns,
                        )),
                    }
                    d.part.wire_bytes = d.conn.bytes_sent + d.conn.bytes_received;
                    d.part.errors += d.conn.errors;
                    d.part
                })
            })
            .collect();
        // The load threads do the work; this one reads the process CPU clock
        // and the server's counters at the window's edges.
        let (first, last) = (edge(warm_ns), edge(end_ns));
        let parts: Vec<Part> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
        (parts, first, last)
    });
    obs.cpu_ms = cpu1 - cpu0;
    obs.window_s = (end_ns - warm_ns) as f64 / 1e9;
    obs.peak_rss_mib = host::peak_rss_mib();
    let mut lag = Vec::new();
    for p in parts {
        obs.ops += p.ops;
        obs.gets_ok += p.ok;
        obs.wrong += p.wrong;
        obs.limit_missed += p.limit_missed;
        obs.transport_errors += p.errors;
        obs.get_ms.extend(p.get_ms);
        obs.page_ms.extend(p.page_ms);
        obs.spans.extend(p.spans);
        obs.spanned_get_ms.extend(p.spanned_get_ms);
        obs.plain_get_ms.extend(p.plain_get_ms);
        obs.wire_bytes += p.wire_bytes;
        obs.wire_gets += p.sent;
        lag.extend(p.lag_ms);
    }
    if rate.is_some() {
        let lag = sorted(lag);
        obs.diag
            .insert("bench.sched_lag_p50_ms", percentile(&lag, 50.0));
        obs.diag
            .insert("bench.sched_lag_p99_ms", percentile(&lag, 99.0));
    }
    obs.batcher(&stats0, &stats1);

    let mut client = pair.client();
    publish_phase(&pair, &data, opts, &mut obs, &mut client);
    let _ = client.close();
    pair.stop();
    more_setups(opts, &mut obs, || setup_pair(spec, opts.seed), stop_pair);
    obs
}

/// What one load thread saw.
#[derive(Default)]
struct Part {
    ops: u64,
    ok: u64,
    wrong: u64,
    limit_missed: u64,
    errors: u64,
    sent: u64,
    wire_bytes: u64,
    get_ms: Vec<f64>,
    page_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    spans: Vec<Span>,
    spanned_get_ms: Vec<f64>,
    plain_get_ms: Vec<f64>,
}

struct Driver<'a> {
    conn: PipelinedPair,
    data: &'a Dataset,
    keys: KeyStream,
    part: Part,
    warm_ns: u64,
    end_ns: u64,
    /// Per closed-loop user: GETs done of its current page, and when the page began.
    users: Vec<(usize, u64)>,
    trace: bool,
    spans_on: bool,
}

impl Driver<'_> {
    fn send(&mut self, user: usize, intended_ns: u64) {
        let target = self.keys.draw();
        self.conn
            .send(target, self.data.key(target), user, intended_ns);
        self.part.sent += 1;
    }

    /// Account every GET the last `wait` completed: latency for GETs due
    /// inside the timed window, throughput for GETs completed inside it.
    /// Returns the users whose GET completed.
    fn collect(&mut self, limit_ms: Option<f64>) -> Vec<usize> {
        let mut finished = Vec::new();
        let window = self.warm_ns..self.end_ns;
        for d in self.conn.take_done() {
            finished.push(d.user);
            let ms = (d.done_ns - d.intended_ns) as f64 / 1e6;
            let right = self.data.answer_is_right(d.target, &d.blob);
            let late = limit_ms.is_some_and(|l| ms > l);
            if window.contains(&d.intended_ns) {
                self.part.ops += 1;
                if !right {
                    self.part.wrong += 1;
                } else if late {
                    self.part.limit_missed += 1;
                } else {
                    self.part.get_ms.push(ms);
                    if self.trace {
                        // Spans on every other GET, built from the times the
                        // client takes anyway; the rest are the comparison.
                        self.spans_on = !self.spans_on;
                        if self.spans_on {
                            self.part.spans.push(Span {
                                name: "get",
                                start_ns: d.intended_ns,
                                end_ns: d.done_ns,
                                parent: None,
                                request: self.part.ops,
                            });
                            self.part.spanned_get_ms.push(ms);
                        } else {
                            self.part.plain_get_ms.push(ms);
                        }
                    }
                }
            }
            if right && !late && window.contains(&d.done_ns) {
                self.part.ok += 1;
            }
        }
        finished
    }

    /// Closed loop: each of `users` sends its next GET when its last completes.
    fn closed(&mut self, users: usize) {
        self.users = vec![(0, 0); users];
        for u in 0..users {
            let now = self.conn.now_ns();
            self.users[u] = (0, now);
            self.send(u, now);
        }
        let give_up_ns = self.end_ns + GIVE_UP_NS;
        while self.conn.errors == 0 {
            self.conn.wait(Duration::from_millis(50));
            let now = self.conn.now_ns();
            for u in self.collect(None) {
                // A page view: this user's fixed budget of GETs in series.
                let (done, began) = &mut self.users[u];
                *done += 1;
                if *done == GETS_PER_PAGE {
                    if *began >= self.warm_ns && now < self.end_ns {
                        self.part.page_ms.push((now - *began) as f64 / 1e6);
                    }
                    (*done, *began) = (0, now);
                }
                if now < self.end_ns {
                    self.send(u, now);
                }
            }
            if now >= self.end_ns && (self.conn.outstanding() == 0 || now >= give_up_ns) {
                break;
            }
        }
        // Sent and never answered.
        self.part.errors += self.conn.outstanding() as u64;
    }

    /// Open loop: send each GET when it is due, however the servers are doing.
    fn open(&mut self, schedule: &[u64]) {
        let mut next = 0;
        let mut recent: Vec<f64> = Vec::new();
        let give_up_ns = self.end_ns + GIVE_UP_NS;
        while self.conn.errors == 0 {
            while next < schedule.len() && schedule[next] <= self.conn.now_ns() {
                let due = schedule[next];
                if due >= self.warm_ns {
                    // How late the generator got to it.
                    self.part
                        .lag_ms
                        .push((self.conn.now_ns() - due) as f64 / 1e6);
                }
                self.send(0, due);
                next += 1;
            }
            let now = self.conn.now_ns();
            let until = match schedule.get(next) {
                Some(&due) => due.saturating_sub(now),
                None if now >= self.end_ns
                    && (self.conn.outstanding() == 0 || now >= give_up_ns) =>
                {
                    break
                }
                None => 1_000_000,
            };
            self.conn.wait(Duration::from_nanos(until));
            let before = self.part.get_ms.len();
            self.collect(Some(LOAD_LIMIT_MS));
            // A page view at this load: five GETs' worth of latency in series.
            recent.extend_from_slice(&self.part.get_ms[before..]);
            while recent.len() >= GETS_PER_PAGE {
                self.part.page_ms.push(recent.drain(..GETS_PER_PAGE).sum());
            }
        }
        // Due inside the window and still unanswered well past the limit.
        self.part.limit_missed += self.conn.outstanding() as u64;
        self.part.ops += self.conn.outstanding() as u64;
    }
}
