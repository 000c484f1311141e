//! End-to-end telemetry accounting: the process-global registry must
//! reproduce the paper's §5.1 per-request communication claim from real
//! ZLTP sessions, over both the in-memory transport and loopback TCP.
//!
//! The registry is process-global, so this file holds exactly ONE test
//! function and runs its sub-scenarios sequentially against snapshot
//! deltas — two parallel tests in this binary would cross-contaminate
//! each other's counters.

use lightweb::telemetry;
use lightweb::zltp::{mem_pair, ServerConfig, TwoServerZltp, ZltpServer};
use std::net::{TcpListener, TcpStream};

/// §5.1 reports ~13.6 KiB of total communication per request at the
/// d = 22 / 4 KiB operating point.
const PAPER_BYTES_PER_REQUEST: u64 = 13_926;

/// Requests issued per transport scenario.
const REQUESTS: u64 = 2;

fn paper_servers() -> Vec<ZltpServer> {
    (0..2u8)
        .map(|party| {
            let cfg = ServerConfig::paper_microbench(party);
            let server = ZltpServer::new(cfg).unwrap();
            server.publish("c4/page-a", &[0xA5u8; 4096]).unwrap();
            server.publish("c4/page-b", &[0x5Au8; 4096]).unwrap();
            server
        })
        .collect()
}

/// Issue `REQUESTS` private GETs on a connected client and return the
/// client-observed (bytes_sent, bytes_received) over the whole session
/// (hello included). The client is dropped, not closed, so no bytes move
/// after the stats are read — the servers see EOF, which ends a session
/// cleanly.
fn drive_client<S: std::io::Read + std::io::Write>(s0: S, s1: S) -> (u64, u64) {
    let mut client = TwoServerZltp::connect(s0, s1).unwrap();
    for _ in 0..REQUESTS {
        let blob = client.private_get("c4/page-a").unwrap();
        assert_eq!(blob, vec![0xA5u8; 4096]);
    }
    let stats = client.stats();
    (stats.bytes_sent, stats.bytes_received)
}

/// Check one transport scenario's telemetry deltas against the client's
/// own byte accounting and the §5.1 communication number.
fn check_deltas(
    label: &str,
    before: &telemetry::Snapshot,
    after: &telemetry::Snapshot,
    client_sent: u64,
    client_received: u64,
) {
    // Every instrumented FramedConn (client and server side) feeds the
    // same global counters, so the send-side total is the whole wire
    // traffic in both directions: client_sent (client conns) plus
    // client_received (the server conns sent exactly what the client
    // received). Same for the receive side, mirrored.
    let wire_total = client_sent + client_received;
    let sent = after.counter_delta(before, "transport.bytes.sent");
    let recv = after.counter_delta(before, "transport.bytes.recv");
    assert_eq!(
        sent, wire_total,
        "[{label}] telemetry sent vs client accounting"
    );
    assert_eq!(
        recv, wire_total,
        "[{label}] telemetry recv vs client accounting"
    );
    assert_eq!(
        after.counter_delta(before, "transport.frames.sent"),
        after.counter_delta(before, "transport.frames.recv"),
        "[{label}] every frame sent is received"
    );

    // Per-request communication: subtract the session setup (hello both
    // ways on both conns) by measuring marginal cost per GET instead of
    // amortizing — REQUESTS identical GETs make the division exact
    // enough for a band check.
    let per_request = wire_total / REQUESTS;
    // Download floor: two 4 KiB buckets plus 13 bytes of framing each
    // (5-byte header + 8-byte request id).
    let floor = 2 * (4096 + 13);
    assert!(
        per_request >= floor,
        "[{label}] per-request bytes {per_request} below the 2-bucket floor {floor}"
    );
    // Ceiling: the paper's 13.6 KiB plus slack for our framing and the
    // amortized hello. Our DPF keys are more compact than the paper's
    // (~0.3–1.2 KiB up per server vs ~2.7 KiB), so we sit strictly
    // below their number; matching the structure (download-dominated,
    // same order) is the reproduction claim.
    let ceiling = PAPER_BYTES_PER_REQUEST + 2048;
    assert!(
        per_request <= ceiling,
        "[{label}] per-request bytes {per_request} above ceiling {ceiling}"
    );

    // Counters add up: each logical GET touches both servers once.
    assert_eq!(
        after.counter_delta(before, "zltp.server.requests"),
        2 * REQUESTS,
        "[{label}] server request counter"
    );
    assert_eq!(
        after.counter_delta(before, "zltp.server.sessions"),
        2,
        "[{label}] one session per server"
    );
    let hist_count = |snap: &telemetry::Snapshot, name: &str| {
        snap.histograms.get(name).map(|h| h.count).unwrap_or(0)
    };
    assert_eq!(
        hist_count(after, "zltp.server.request.ns") - hist_count(before, "zltp.server.request.ns"),
        2 * REQUESTS,
        "[{label}] request latency histogram count"
    );
    assert!(
        hist_count(after, "pir.scan.ns") >= hist_count(before, "pir.scan.ns") + 2 * REQUESTS,
        "[{label}] every answer runs a scan"
    );
}

#[test]
fn telemetry_reproduces_per_request_communication() {
    let servers = paper_servers();
    let stats_before: Vec<_> = servers.iter().map(|s| s.stats()).collect();

    // --- Scenario 1: in-memory transport ---
    let before = telemetry::registry().snapshot();
    let (c0, s0) = mem_pair();
    let (c1, s1) = mem_pair();
    let handles: Vec<_> = [(0, s0), (1, s1)]
        .into_iter()
        .map(|(i, end)| {
            let server: ZltpServer = servers[i].clone();
            std::thread::spawn(move || server.handle_connection(end).unwrap())
        })
        .collect();
    let (sent, received) = drive_client(c0, c1);
    for h in handles {
        h.join().unwrap();
    }
    let after = telemetry::registry().snapshot();
    check_deltas("mem", &before, &after, sent, received);

    // --- Scenario 2: loopback TCP ---
    let before = telemetry::registry().snapshot();
    let addrs: Vec<_> = servers
        .iter()
        .map(|server| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            lightweb::reactor::serve(server, listener).unwrap();
            addr
        })
        .collect();
    let (sent, received) = drive_client(
        TcpStream::connect(addrs[0]).unwrap(),
        TcpStream::connect(addrs[1]).unwrap(),
    );
    // The final GetResponse reaching the client proves the servers have
    // consumed (and counted) every request byte, so the deltas are
    // settled even though the connection threads are detached.
    let after = telemetry::registry().snapshot();
    check_deltas("tcp", &before, &after, sent, received);

    // ServerStats and the telemetry registry tell the same story.
    let served: u64 = servers
        .iter()
        .zip(&stats_before)
        .map(|(s, b)| s.stats().requests - b.requests)
        .sum();
    assert_eq!(served, 2 * 2 * REQUESTS, "both scenarios, both servers");

    for s in &servers {
        s.shutdown();
    }
}
