//! `page_churn_4m`: one `LightwebBrowser` viewing pages of a `Universe` on its
//! shipped defaults while a second thread publishes beside it.
//!
//! The universe's data pair is served over loopback TCP (`data_servers()`);
//! its code pair is only reachable through `connect_code()`, so code blobs
//! travel in memory — each domain's code is fetched once and cached.
//!
//! What the publisher writes is chosen so that no read can come back wrong
//! (README, "Found while building"): at this commit the two servers of a pair
//! are updated one after the other and a GET asks them about 10 ms apart, so a
//! publish that *changes* a record between the two hops garbles the answer to
//! whatever key was being read. The publisher therefore re-publishes a path's
//! current value in place, and removes and re-inserts paths whose value is
//! empty (an all-zero record, which reads the same as no record). Both hold
//! the engine write lock and move memory exactly as a changing publish would.

use crate::fixture::{dial, serve, Served};
use crate::host;
use crate::manifest::GETS_PER_PAGE;
use crate::rng::{Rng, Zipf};
use crate::span::Span;
use crate::tap::{get_intervals, Tap, TappedStream};
use crate::workloads::{first_setup, more_setups, Observed, Opts};
use lightweb_browser::LightwebBrowser;
use lightweb_core::TwoServerZltp;
use lightweb_pir::KeywordMap;
use lightweb_universe::json::Value;
use lightweb_universe::{decode_blob, Tier, Universe, UniverseConfig};
use std::collections::HashSet;
use std::net::TcpStream;
use std::time::{Duration, Instant};

pub const DOMAINS: usize = 8;
pub const ROUTES: usize = 64;
pub const VALUES: usize = 4096;
const PUBLISHER: &str = "lwbench";
/// The publisher's fixed schedule: one publish every 50 ms.
const PUBLISH_EVERY: Duration = Duration::from_millis(50);

fn hex(rng: &mut Rng, chars: usize) -> String {
    let mut s = String::with_capacity(chars);
    while s.len() < chars {
        s.push_str(&format!("{:016x}", rng.next_u64()));
    }
    s.truncate(chars);
    s
}

/// The value published under `tag`: `v` is what pages render, `body` is there
/// so the blob is as full as a real one.
fn value(seed: u64, tag: u64) -> (String, Value) {
    let mut rng = Rng::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let v = hex(&mut rng, 32);
    let body = hex(&mut rng, 448);
    (
        v.clone(),
        Value::object([("v", v.into()), ("body", body.into())]),
    )
}

fn domain(d: usize) -> String {
    format!("d{d}.example")
}

/// The universe, its pages and the paths the publisher writes.
pub struct PageFixture {
    pub universe: Universe,
    served: Vec<Served>,
    seed: u64,
    /// Route ids of each domain's pages (`/p/<id>`).
    pub routes: Vec<Vec<u64>>,
    /// Published paths no page reads, with the value each holds: the
    /// publisher overwrites these in place.
    pub filler: Vec<(String, Value)>,
    /// Paths holding the empty value: the publisher unpublishes one, then
    /// publishes it again as a new path. They are part of the 4 096 values
    /// because the shipped enclave engine has room for exactly that many keys
    /// at this slot load, and never forgets one.
    pub churn: Vec<String>,
}

impl PageFixture {
    pub fn build(seed: u64) -> Self {
        let cfg = UniverseConfig {
            tier: Tier::Small,
            data_domain_bits: 14,
            ..UniverseConfig::small_test("lwbench")
        };
        assert_eq!(cfg.fetches_per_page, GETS_PER_PAGE);
        let universe = Universe::new(cfg).expect("universe");
        let hash_key = universe.data_servers()[0].config().keyword_hash_key;
        let map = KeywordMap::new(&hash_key, 14);
        let mut taken = HashSet::new();
        let mut claim = |paths: &[String]| {
            let slots: Vec<u64> = paths.iter().map(|p| map.slot(p.as_bytes())).collect();
            let distinct: HashSet<&u64> = slots.iter().collect();
            if distinct.len() < slots.len() || slots.iter().any(|s| taken.contains(s)) {
                return false; // the rename rule: pick another name
            }
            taken.extend(slots);
            true
        };

        // (slot order is restored below) path -> value tag
        let mut to_publish: Vec<(String, u64)> = Vec::new();
        let mut routes = vec![Vec::new(); DOMAINS];
        for (d, ids) in routes.iter_mut().enumerate() {
            let mut r = 0u64;
            while ids.len() < ROUTES {
                let paths: Vec<String> = (0..GETS_PER_PAGE)
                    .map(|i| format!("{}/p/{r}/{i}", domain(d)))
                    .collect();
                if claim(&paths) {
                    ids.push(r);
                    for (i, p) in paths.into_iter().enumerate() {
                        to_publish.push((p, page_tag(d, r, i)));
                    }
                }
                r += 1;
            }
        }
        let mut churn = Vec::new();
        let mut n = 0u64;
        while churn.len() < CHURN_PATHS {
            let p = format!("{}/n/{n}", domain(n as usize % DOMAINS));
            if claim(std::slice::from_ref(&p)) {
                to_publish.push((p.clone(), EMPTY_TAG));
                churn.push(p);
            }
            n += 1;
        }
        let mut filler = Vec::new();
        let mut n = 0u64;
        while to_publish.len() < VALUES {
            let p = format!("{}/f/{n}", domain(n as usize % DOMAINS));
            if claim(std::slice::from_ref(&p)) {
                to_publish.push((p.clone(), FILLER_TAG | n));
                filler.push((p, value(seed, FILLER_TAG | n).1));
            }
            n += 1;
        }

        for d in 0..DOMAINS {
            let dom = domain(d);
            universe
                .register_domain(&dom, PUBLISHER)
                .expect("register domain");
            let fetches: String = (0..GETS_PER_PAGE)
                .map(|i| format!("    fetch \"{dom}/p/{{r}}/{i}\"\n"))
                .collect();
            let render: Vec<String> = (0..GETS_PER_PAGE)
                .map(|i| format!("{{data.{i}.v}}"))
                .collect();
            let code = format!(
                "route \"/p/:r\" {{\n{fetches}    title \"{dom} {{r}}\"\n    render \"{}\"\n}}\ndefault {{\n    render \"no such page\"\n}}\n",
                render.join(" ")
            );
            universe
                .publish_code(PUBLISHER, &dom, &code)
                .expect("publish code");
        }
        // Ascending slot order, so every insert appends.
        to_publish.sort_by_key(|(p, _)| map.slot(p.as_bytes()));
        for (path, tag) in &to_publish {
            if *tag == EMPTY_TAG {
                universe.publish_data(PUBLISHER, path, b"")
            } else {
                universe.publish_json(PUBLISHER, path, &value(seed, *tag).1)
            }
            .expect("publish into a free slot");
        }
        assert_eq!(universe.num_data_values(), VALUES);
        for s in universe.data_servers() {
            assert_eq!(
                s.num_blobs() * s.config().blob_len,
                VALUES * 1024,
                "page_churn_4m: database is not the stated size"
            );
        }
        let served = universe.data_servers().iter().map(|s| serve(s)).collect();
        Self {
            universe,
            served,
            seed,
            routes,
            filler,
            churn,
        }
    }

    pub fn describe(&self) -> String {
        let c = self.universe.data_servers()[0].config();
        format!(
            "values={} blob_len={} domain_bits={} term_bits={} batch.max={} batch.window_us={} modes={} fetches_per_page={} (ServerConfig::small as shipped)",
            self.universe.num_data_values(),
            c.blob_len,
            c.domain_bits,
            c.term_bits,
            c.batch.max_batch,
            c.batch.window.as_micros(),
            c.modes.modes().len(),
            self.universe.config().fetches_per_page,
        )
    }

    /// A browser whose data pair crosses loopback TCP, and the tap on its I/O.
    pub fn browser(&self, origin: Instant) -> (LightwebBrowser<TappedStream>, Tap) {
        let tap = Tap::default();
        let (c0, c1) = self.universe.connect_code();
        let browser = LightwebBrowser::connect(
            (
                TappedStream::mem(c0, 0, &tap, origin),
                TappedStream::mem(c1, 1, &tap, origin),
            ),
            (
                TappedStream::tcp(dial(self.served[0].addr), 2, &tap, origin),
                TappedStream::tcp(dial(self.served[1].addr), 3, &tap, origin),
            ),
            self.universe.config().fetches_per_page,
            self.universe.config().max_chain_parts,
        )
        .expect("browser connects");
        (browser, tap)
    }

    /// A plain two-server client on the data pair, to check publishes with.
    pub fn data_client(&self) -> TwoServerZltp<TcpStream> {
        TwoServerZltp::connect(dial(self.served[0].addr), dial(self.served[1].addr))
            .expect("ZLTP hello with the data pair")
    }

    /// Path of page number `page` and the body it must render.
    pub fn page(&self, page: usize) -> (String, String) {
        let (d, idx) = (page / ROUTES, page % ROUTES);
        let r = self.routes[d][idx];
        let body: Vec<String> = (0..GETS_PER_PAGE)
            .map(|i| value(self.seed, page_tag(d, r, i)).0)
            .collect();
        (format!("{}/p/{r}", domain(d)), body.join(" "))
    }

    pub fn stop(self) {
        for s in self.served {
            s.stop();
        }
    }
}

const FILLER_TAG: u64 = 1 << 40;
const EMPTY_TAG: u64 = 1 << 41;
/// Paths the publisher removes and re-inserts, in turn.
const CHURN_PATHS: usize = 8;

fn page_tag(d: usize, r: u64, i: usize) -> u64 {
    ((d as u64) << 32) | (r << 8) | i as u64
}

/// What the publisher thread did.
struct Published {
    /// `(start_ns, end_ns)` of every publish call due inside the window.
    calls: Vec<(u64, u64)>,
    /// Indices into `filler` of the paths overwritten, and into `churn` of the
    /// paths re-inserted.
    overwritten: HashSet<usize>,
    reinserted: HashSet<usize>,
    failed: u64,
}

/// Publish on a fixed schedule until `end_ns`: two overwrites in place, then
/// one path removed and published anew, repeated. The publish call is timed.
fn publisher(fx: &PageFixture, origin: Instant, warm_ns: u64, end_ns: u64) -> Published {
    let mut out = Published {
        calls: Vec::new(),
        overwritten: HashSet::new(),
        reinserted: HashSet::new(),
        failed: 0,
    };
    let mut rng = Rng::stream(fx.seed, "publisher");
    for k in 0u64.. {
        let due = PUBLISH_EVERY * k as u32;
        if due.as_nanos() as u64 >= end_ns {
            break;
        }
        std::thread::sleep(due.saturating_sub(origin.elapsed()));
        let now = || origin.elapsed().as_nanos() as u64;
        let (t0, result) = if k % 3 == 2 {
            let j = (k / 3) as usize % fx.churn.len();
            let path = &fx.churn[j];
            if !matches!(fx.universe.unpublish_data(PUBLISHER, path), Ok(true)) {
                out.failed += 1;
            }
            out.reinserted.insert(j);
            let t0 = now();
            (t0, fx.universe.publish_data(PUBLISHER, path, b""))
        } else {
            let j = rng.below(fx.filler.len() as u64) as usize;
            let (path, json) = &fx.filler[j];
            out.overwritten.insert(j);
            let t0 = now();
            (t0, fx.universe.publish_json(PUBLISHER, path, json))
        };
        let t1 = now();
        if t0 >= warm_ns {
            out.calls.push((t0, t1));
        }
        if result.is_err() {
            out.failed += 1;
        }
    }
    out
}

/// Build and fill the universe, serve its data pair, connect a browser and
/// render a first page right: one set-up.
fn setup(seed: u64) -> PageFixture {
    let t = Instant::now();
    let fx = PageFixture::build(seed);
    let (mut browser, _) = fx.browser(t);
    let (path, body) = fx.page(0);
    let page = browser.browse(&path).expect("first page");
    assert_eq!(page.body, body, "first page rendered wrong");
    fx
}

pub fn run(opts: &Opts) -> Observed {
    let mut obs = Observed::default();
    let fx = first_setup(&mut obs, || setup(opts.seed));
    obs.provenance.push(format!(
        "universe: {} data pair over loopback TCP, code pair in memory",
        fx.describe()
    ));
    obs.provenance.push(format!(
        "closed loop: 1 browser, Zipf(1.0) over {DOMAINS} domains x {ROUTES} routes; publisher: 1 thread, every {} ms",
        PUBLISH_EVERY.as_millis()
    ));
    let warm_ns = opts.warmup().as_nanos() as u64;
    let end_ns = warm_ns + (opts.seconds * 1e9) as u64;
    let zipf = Zipf::new(DOMAINS * ROUTES, opts.seed);
    let mut rng = Rng::stream(opts.seed, "pages");

    let origin = Instant::now();
    let (mut browser, tap) = fx.browser(origin);
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut overhead_us = Vec::new();
    let mut gets_in_series = Vec::new();
    let mut marks = None;
    let mut window_gets = 0u64;
    let mut traced_page = false;
    let mut stats_at_warm = fx.universe.data_servers()[0].stats();

    let published = std::thread::scope(|scope| {
        let writer = scope.spawn(|| publisher(&fx, origin, warm_ns, end_ns));
        // Every domain's code is cached before the window opens.
        for d in 0..DOMAINS {
            let (path, body) = fx.page(d * ROUTES);
            let page = browser.browse(&path).expect("warm-up page");
            assert_eq!(page.body, body, "warm-up page rendered wrong");
        }
        loop {
            let began = now_ns();
            if began >= end_ns {
                break;
            }
            let timed = began >= warm_ns;
            if timed && marks.is_none() {
                let s = (browser.data_stats(), browser.code_stats());
                marks = Some((host::process_cpu_ms(), began, s));
                stats_at_warm = fx.universe.data_servers()[0].stats();
            }
            let (path, body) = fx.page(zipf.sample(&mut rng));
            tap.lock().expect("tap").clear();
            let result = browser.browse(&path);
            let ended = now_ns();
            if !timed {
                continue;
            }
            obs.ops += 1;
            match result {
                Ok(page) if page.body == body && page.real_fetches == GETS_PER_PAGE => {
                    let ms = (ended - began) as f64 / 1e6;
                    obs.page_ms.push(ms);
                    let gets = get_intervals(&tap.lock().expect("tap"));
                    let in_gets: u64 = gets.iter().map(|(a, b)| b - a).sum();
                    overhead_us.push(((ended - began) - in_gets) as f64 / 1e3);
                    gets_in_series.push(gets.len() as f64);
                    window_gets += gets.len() as u64;
                    let get_ms = gets.iter().map(|(a, b)| (b - a) as f64 / 1e6);
                    if opts.trace {
                        // Spans on every other page; the GETs of the rest are
                        // what the overhead is measured against.
                        traced_page = !traced_page;
                        if traced_page {
                            let root = obs.spans.len();
                            obs.spans.push(Span {
                                name: "page",
                                start_ns: began,
                                end_ns: ended,
                                parent: None,
                                request: obs.ops,
                            });
                            obs.spans.extend(gets.iter().map(|&(a, b)| Span {
                                name: "get",
                                start_ns: a,
                                end_ns: b,
                                parent: Some(root),
                                request: obs.ops,
                            }));
                            obs.spanned_get_ms.extend(get_ms.clone());
                        } else {
                            obs.plain_get_ms.extend(get_ms.clone());
                        }
                    }
                    obs.get_ms.extend(get_ms);
                }
                Ok(_) => obs.wrong += 1,
                Err(_) => obs.transport_errors += 1,
            }
        }
        writer.join().expect("publisher thread")
    });
    let (cpu0, began, (data0, code0)) = marks.expect("the window opened");
    obs.window_s = (now_ns() - began) as f64 / 1e9;
    obs.cpu_ms = host::process_cpu_ms() - cpu0;
    obs.gets_ok = window_gets;
    let (data1, code1) = (browser.data_stats(), browser.code_stats());
    obs.wire_bytes = (data1.bytes_sent - data0.bytes_sent)
        + (data1.bytes_received - data0.bytes_received)
        + (code1.bytes_sent - code0.bytes_sent)
        + (code1.bytes_received - code0.bytes_received);
    obs.wire_gets = (data1.requests - data0.requests) + (code1.requests - code0.requests);
    obs.peak_rss_mib = host::peak_rss_mib();
    let stats1 = fx.universe.data_servers()[0].stats();
    obs.batcher(&stats_at_warm, &stats1);
    obs.diag.insert(
        "browser.page_overhead_us",
        crate::stats::median(&overhead_us),
    );
    obs.diag.insert(
        "browser.gets_in_series",
        crate::stats::median(&gets_in_series),
    );

    obs.ops += published.calls.len() as u64;
    obs.wrong += published.failed;
    obs.publish_ms = published
        .calls
        .iter()
        .map(|(a, b)| (b - a) as f64 / 1e6)
        .collect();
    if opts.trace {
        obs.spans.extend(published.calls.iter().map(|&(a, b)| Span {
            name: "publish",
            start_ns: a,
            end_ns: b,
            parent: None,
            request: 0,
        }));
    }

    // Warm-down: every published path is checked with a private GET — the
    // value of an overwritten path, the zero blob of an empty one.
    let mut client = fx.data_client();
    let mut check = |path: &str, want: Option<&str>| {
        obs.ops += 1;
        match client.private_get(path) {
            Err(_) => obs.transport_errors += 1,
            Ok(blob) => {
                let ok = match (decode_blob(&blob), want) {
                    (Ok((_, payload)), Some(v)) => std::str::from_utf8(payload)
                        .ok()
                        .and_then(|t| lightweb_universe::parse_json(t).ok())
                        .is_some_and(|j| j.get("v").and_then(Value::as_str) == Some(v)),
                    (Ok((h, _)), None) => h.payload_len == 0 && blob.iter().all(|&b| b == 0),
                    (Err(_), _) => false,
                };
                if !ok {
                    obs.wrong += 1;
                }
            }
        }
    };
    for &j in &published.overwritten {
        let (path, json) = &fx.filler[j];
        check(path, json.get("v").and_then(Value::as_str));
    }
    for &j in &published.reinserted {
        check(&fx.churn[j], None);
    }
    let _ = client.close();
    drop(browser);
    fx.stop();
    more_setups(opts, &mut obs, || setup(opts.seed), PageFixture::stop);
    obs
}
