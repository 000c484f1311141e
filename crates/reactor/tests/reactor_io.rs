//! End-to-end serving through `lightweb_reactor::serve`: two-server
//! private GETs, shutdown, adversarial
//! framing (trickled partial frames, oversized-frame rejection),
//! pipelined requests, the Close handshake, worker-pool (unbatched
//! engine) answering, and slow-loris idle reaping.

use lightweb_core::config::{Mode, ModeSet, ServerConfig};
use lightweb_core::transport::encode_frame;
use lightweb_core::wire::{Message, PROTOCOL_VERSION};
use lightweb_core::{EnclaveClient, TwoServerZltp, ZltpServer};
use lightweb_reactor::{serve, serve_with, ReactorConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn server_on(universe: &str, party: u8, pages: usize) -> ZltpServer {
    let mut cfg = ServerConfig::small(universe, party);
    cfg.blob_len = 64;
    let server = ZltpServer::new(cfg).unwrap();
    for i in 0..pages {
        server.publish(&format!("r/{i}"), &[i as u8; 64]).unwrap();
    }
    server
}

fn listen() -> (TcpListener, std::net::SocketAddr) {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    (l, addr)
}

/// A two-server pair on loopback, each behind [`serve`].
fn serve_pair(universe: &str, pages: usize) -> (Vec<std::net::SocketAddr>, Vec<ZltpServer>) {
    let mut addrs = Vec::new();
    let mut servers = Vec::new();
    for party in 0..2u8 {
        let server = server_on(universe, party, pages);
        let (l, addr) = listen();
        serve(&server, l).unwrap();
        addrs.push(addr);
        servers.push(server);
    }
    (addrs, servers)
}

/// The two-server private-GET exchange works over reactor-driven sockets.
#[test]
fn private_get_over_the_reactor() {
    let (addrs, servers) = serve_pair("parity", 8);
    let mut client = TwoServerZltp::connect(
        TcpStream::connect(addrs[0]).unwrap(),
        TcpStream::connect(addrs[1]).unwrap(),
    )
    .unwrap();
    for i in [0usize, 3, 7] {
        assert_eq!(
            client.private_get(&format!("r/{i}")).unwrap(),
            vec![i as u8; 64],
            "r/{i}"
        );
    }
    client.close().unwrap();
    for s in &servers {
        s.shutdown();
    }
}

/// Shutting the server down makes the serving thread exit, with no
/// client connected to wake it.
#[test]
fn serving_thread_exits_on_shutdown() {
    let server = server_on("shutdown", 0, 1);
    let (l, _addr) = listen();
    let handle = serve(&server, l).unwrap();
    server.shutdown();
    let t0 = Instant::now();
    handle.join().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "serving thread failed to wind down"
    );
}

/// A client that trickles its frames one byte at a time (pathological
/// fragmentation) still completes the hello exchange and a GET against
/// the reactor's incremental decoder.
#[test]
fn reactor_survives_byte_at_a_time_client() {
    let server = server_on("trickle", 0, 2);
    let (l, addr) = listen();
    serve(&server, l).unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = encode_frame(
        &Message::ClientHello {
            version: PROTOCOL_VERSION,
            modes: vec![Mode::TwoServerPir.to_wire()],
        },
        None,
    )
    .unwrap();
    for b in &hello {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        stream.flush().unwrap();
    }
    // The ServerHello comes back framed; read the 5-byte header, then
    // the body.
    let mut head = [0u8; 5];
    stream.read_exact(&mut head).unwrap();
    let len = u32::from_be_bytes(head[..4].try_into().unwrap()) as usize;
    assert!(len > 0);
    let mut body = vec![0u8; len - 1];
    stream.read_exact(&mut body).unwrap();

    // A trickled Close handshake completes too.
    let close = encode_frame(&Message::Close, None).unwrap();
    for b in &close {
        stream.write_all(std::slice::from_ref(b)).unwrap();
    }
    stream.read_exact(&mut head).unwrap();
    server.shutdown();
}

/// An oversized frame-length word kills the connection as soon as the
/// header is seen — the server never buffers toward a 1 GiB frame.
#[test]
fn reactor_rejects_oversized_frame_with_teardown() {
    let server = server_on("oversize", 0, 1);
    let (l, addr) = listen();
    serve(&server, l).unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Claimed length 1 GiB; only the header arrives.
    stream.write_all(&[0x40, 0, 0, 1, 3]).unwrap();
    let mut buf = [0u8; 16];
    // The reactor tears the session down: EOF (or reset) on read.
    match stream.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("server answered {n} bytes to a hostile frame"),
        Err(_) => {} // connection reset is equally acceptable
    }
    server.shutdown();
}

/// Unbatched (enclave) sessions flow through the reactor's worker pool:
/// `Submitted::Work` closures must execute off the event loop and their
/// completions must find their way back to the right connection.
#[test]
fn reactor_serves_unbatched_enclave_mode() {
    let mut cfg = ServerConfig::small("enclave-reactor", 0);
    cfg.blob_len = 64;
    cfg.modes = ModeSet::new([Mode::Enclave]);
    let server = ZltpServer::new(cfg).unwrap();
    for i in 0..4 {
        server
            .publish(&format!("e/{i}"), &[0x50 + i as u8; 64])
            .unwrap();
    }
    let (l, addr) = listen();
    serve(&server, l).unwrap();
    let mut client = EnclaveClient::connect(TcpStream::connect(addr).unwrap()).unwrap();
    for i in 0..4 {
        assert_eq!(
            client.private_get(&format!("e/{i}")).unwrap().unwrap(),
            vec![0x50 + i as u8; 64]
        );
    }
    assert_eq!(client.private_get("e/absent").unwrap(), None);
    server.shutdown();
}

/// Slow-loris defense: a session that completes its hello and then goes
/// silent is reaped once it exceeds the idle timeout — the client
/// observes EOF — and the reap is counted.
#[test]
fn reactor_reaps_idle_sessions() {
    let server = server_on("loris", 0, 1);
    let (l, addr) = listen();
    let cfg = ReactorConfig::with_idle_timeout(Duration::from_millis(250));
    let before = lightweb_telemetry::registry().snapshot();
    serve_with(&server, l, cfg).unwrap();

    // Complete the hello by hand, then go silent: a textbook slow loris.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = encode_frame(
        &Message::ClientHello {
            version: PROTOCOL_VERSION,
            modes: vec![Mode::TwoServerPir.to_wire()],
        },
        None,
    )
    .unwrap();
    stream.write_all(&hello).unwrap();
    let mut head = [0u8; 5];
    stream.read_exact(&mut head).unwrap();
    let len = u32::from_be_bytes(head[..4].try_into().unwrap()) as usize;
    let mut body = vec![0u8; len - 1];
    stream.read_exact(&mut body).unwrap();

    // Say nothing more. The server must hang up on us.
    let t0 = Instant::now();
    let mut buf = [0u8; 8];
    let n = stream.read(&mut buf);
    assert!(
        matches!(n, Ok(0)) || n.is_err(),
        "expected reap-driven EOF, got {n:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "reap took implausibly long"
    );
    let after = lightweb_telemetry::registry().snapshot();
    assert!(
        after.counter_delta(&before, "reactor.sessions.reaped") > 0,
        "reap not counted"
    );
    server.shutdown();
}

/// Event-loop health telemetry: serving even one session must populate
/// the `reactor.tick.ns` and `reactor.events_per_tick` histograms and
/// maintain the `reactor.completion.queue.depth` gauge — the signals the
/// fleet aggregator's health table is built on.
#[test]
fn reactor_exports_tick_health_metrics() {
    let server = server_on("tickhealth", 0, 2);
    let (l, addr) = listen();
    let before = lightweb_telemetry::registry().snapshot();
    serve(&server, l).unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = encode_frame(
        &Message::ClientHello {
            version: PROTOCOL_VERSION,
            modes: vec![Mode::TwoServerPir.to_wire()],
        },
        None,
    )
    .unwrap();
    stream.write_all(&hello).unwrap();
    let mut head = [0u8; 5];
    stream.read_exact(&mut head).unwrap();

    let hist_count = |snap: &lightweb_telemetry::Snapshot, name: &str| {
        snap.histograms.get(name).map(|h| h.count).unwrap_or(0)
    };
    let t0 = Instant::now();
    loop {
        let after = lightweb_telemetry::registry().snapshot();
        let ticked = hist_count(&after, "reactor.tick.ns") > hist_count(&before, "reactor.tick.ns");
        let counted_events = hist_count(&after, "reactor.events_per_tick")
            > hist_count(&before, "reactor.events_per_tick");
        if ticked && counted_events && after.gauges.contains_key("reactor.completion.queue.depth") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "tick health metrics never materialised"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// Sessions with multiple sequential requests keep working (the state
/// machine returns to Ready between requests), and every answered GET is
/// counted exactly once per server.
#[test]
fn sequential_requests_are_each_counted_once() {
    let (addrs, servers) = serve_pair("seqstats", 4);
    let mut client = TwoServerZltp::connect(
        TcpStream::connect(addrs[0]).unwrap(),
        TcpStream::connect(addrs[1]).unwrap(),
    )
    .unwrap();
    for round in 0..3 {
        for i in 0..4usize {
            assert_eq!(
                client.private_get(&format!("r/{i}")).unwrap(),
                vec![i as u8; 64],
                "round {round} r/{i}"
            );
        }
    }
    client.close().unwrap();
    for s in &servers {
        assert_eq!(s.stats().requests, 12, "request accounting");
        s.shutdown();
    }
}
