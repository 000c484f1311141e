//! End-to-end exercise of the open-loop load harness: a real two-server
//! TCP deployment, a live sweep, saturation gauges observed over HTTP
//! from the scrape endpoint *while* the fleet is offering load, and a
//! self-compare of the resulting snapshot at tolerance 0.

use lightweb_bench::load::{
    compare_load_snapshots, page_key, run_sweep, LoadConfig, LoadSnapshot, ScheduleKind,
};
use lightweb_bench::perf::{parse_any_snapshot, AnySnapshot};
use lightweb_core::{ServerConfig, ZltpServer};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape endpoint");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "non-200: {head}");
    body.to_string()
}

/// The value of a rendered gauge line (`<name>_gauge <value>`), if
/// present in a `/metrics` body.
fn gauge_value(metrics: &str, name: &str) -> Option<i64> {
    let needle = format!("{name}_gauge ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&needle))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn live_sweep_exports_saturation_gauges_and_self_compares_clean() {
    lightweb_telemetry::registry().reset();
    let scrape =
        lightweb_telemetry::scrape::ScrapeServer::bind("127.0.0.1:0").expect("bind scrape");

    // A real two-server pair over TCP in the load-test shape.
    let cfg = LoadConfig {
        rates_rps: vec![40.0, 80.0],
        duration_s: 1.5,
        connections: 4,
        schedule: ScheduleKind::Poisson,
        pages: 8,
        gets_per_page: 2,
        zipf_exponent: 1.0,
        io_timeout: Duration::from_secs(10),
        seed: 7,
    };
    let blob_len = ServerConfig::load_test("load", 0).blob_len;
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for party in 0..2u8 {
        let server = ZltpServer::new(ServerConfig::load_test("load", party)).unwrap();
        for i in 0..cfg.pages {
            server
                .publish(&page_key(i), &vec![(i + 1) as u8; blob_len])
                .unwrap();
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap());
        lightweb_reactor::serve(&server, listener).unwrap();
        servers.push(server);
    }

    // Run the sweep on a worker so this thread can observe it live.
    let sweep = {
        let cfg = cfg.clone();
        let (a0, a1) = (addrs[0], addrs[1]);
        std::thread::spawn(move || run_sweep(a0, a1, &cfg, blob_len))
    };

    // While the fleet offers load, the saturation gauges must be
    // visible to an operator scraping /metrics: the offered rate, the
    // in-flight/request gauges, and the server-side connection gauge
    // that /healthz also reports.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut seen_live_gauges = false;
    while Instant::now() < deadline && !seen_live_gauges {
        let metrics = http_get(scrape.addr(), "/metrics");
        let offered = gauge_value(&metrics, "load.offered.rps");
        let inflight_present = gauge_value(&metrics, "load.inflight.requests").is_some();
        let server_conns = gauge_value(&metrics, "zltp.server.connections.open");
        if offered.is_some_and(|v| v > 0) && inflight_present && server_conns.is_some_and(|v| v > 0)
        {
            seen_live_gauges = true;
            let healthz = http_get(scrape.addr(), "/healthz");
            let conn_line = healthz
                .lines()
                .find(|l| l.starts_with("open_connections "))
                .expect("healthz reports open_connections");
            let n: i64 = conn_line["open_connections ".len()..]
                .trim()
                .parse()
                .unwrap();
            assert!(n > 0, "healthz should see the fleet's sessions: {healthz}");
        } else {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    assert!(
        seen_live_gauges,
        "never observed live load gauges on /metrics during the sweep:\n{}",
        http_get(scrape.addr(), "/metrics")
    );

    let points = sweep.join().unwrap().expect("sweep completes");
    for server in &servers {
        server.shutdown();
    }

    // The curve covers the requested grid with real completions and
    // coordinated-omission-correct latencies.
    assert_eq!(points.len(), 2);
    for p in &points {
        assert!(p.requests > 0, "no completions at {} rps", p.offered_rps);
        assert!(p.p99_ms >= p.p50_ms && p.p50_ms > 0.0, "{p:?}");
        assert_eq!(p.planned_requests, p.requests + p.errors + p.timeouts);
    }

    // Snapshot round-trips through JSON, dispatches as a load curve,
    // and self-compares clean at tolerance 0 — the CI load-smoke gate.
    let snap = LoadSnapshot::from_sweep("load_two_server", "two_server_pir", &cfg, points);
    let parsed = match parse_any_snapshot(&snap.to_json()) {
        Ok(AnySnapshot::Load(s)) => s,
        other => panic!("expected a load snapshot, got {other:?}"),
    };
    assert_eq!(parsed, snap);
    let diffs = compare_load_snapshots(&snap, &parsed, 0.0).expect("comparable");
    assert!(
        diffs.iter().all(|d| !d.regressed),
        "self-compare regressed: {diffs:?}"
    );

    // After the sweep the fleet is gone: inflight and connection
    // gauges drain back to zero.
    let metrics = http_get(scrape.addr(), "/metrics");
    assert_eq!(gauge_value(&metrics, "load.inflight.requests"), Some(0));
    assert_eq!(gauge_value(&metrics, "load.connections.open"), Some(0));
}
