//! Integration over real TCP sockets: the same browsing stack the
//! in-memory tests exercise, but with every ZLTP byte crossing the
//! loopback network — the deployment shape a real CDN would run.

use lightweb::browser::LightwebBrowser;
use lightweb::universe::json::Value;
use lightweb::zltp::{Mode, ModeSet, ServerConfig, TwoServerZltp, ZltpServer};
use std::net::{TcpListener, TcpStream};

/// Stand up a two-server pair on loopback TCP, pre-publish content, and
/// return connect addresses.
fn tcp_pair(
    universe_id: &str,
    blob_len: usize,
    publish: &[(&str, Vec<u8>)],
) -> (std::net::SocketAddr, std::net::SocketAddr, Vec<ZltpServer>) {
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for party in 0..2u8 {
        let mut cfg = ServerConfig::small(universe_id, party);
        cfg.blob_len = blob_len;
        let server = ZltpServer::new(cfg).unwrap();
        for (k, v) in publish {
            server.publish(k, v).unwrap();
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap());
        lightweb::reactor::serve(&server, listener).unwrap();
        servers.push(server);
    }
    (addrs[0], addrs[1], servers)
}

#[test]
fn private_get_over_tcp() {
    let (a0, a1, servers) = tcp_pair(
        "tcp-e2e",
        128,
        &[("k/1", vec![1u8; 128]), ("k/2", vec![2u8; 128])],
    );
    let mut client = TwoServerZltp::connect(
        TcpStream::connect(a0).unwrap(),
        TcpStream::connect(a1).unwrap(),
    )
    .unwrap();
    assert_eq!(client.private_get("k/1").unwrap(), vec![1u8; 128]);
    assert_eq!(client.private_get("k/2").unwrap(), vec![2u8; 128]);
    client.close().unwrap();
    for s in &servers {
        s.shutdown();
    }
}

#[test]
fn concurrent_tcp_clients_are_isolated() {
    let (a0, a1, servers) = tcp_pair(
        "tcp-conc",
        64,
        &[("page/a", vec![0xA; 64]), ("page/b", vec![0xB; 64])],
    );
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = TwoServerZltp::connect(
                    TcpStream::connect(a0).unwrap(),
                    TcpStream::connect(a1).unwrap(),
                )
                .unwrap();
                for _ in 0..5 {
                    let key = if i % 2 == 0 { "page/a" } else { "page/b" };
                    let want = if i % 2 == 0 { 0xA } else { 0xB };
                    assert_eq!(client.private_get(key).unwrap(), vec![want; 64]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = servers.iter().map(|s| s.stats().requests).sum();
    assert_eq!(total, 4 * 5 * 2, "each GET hits both servers once");
    for s in &servers {
        s.shutdown();
    }
}

#[test]
fn full_browser_over_tcp() {
    // Code and data universes on four TCP endpoints; the browser's generic
    // stream type means no special-casing.
    let code_script = r#"
        route "/" {
            fetch "tcp-site.com/home"
            title "TCP"
            render "{data.0.msg}"
        }
    "#;
    let code_blob = lightweb::universe::blob::encode_blob(code_script.as_bytes(), 8192).unwrap();
    let home_json = Value::object([("msg", "hello over real sockets".into())]).to_json();
    let home_blob = lightweb::universe::blob::encode_blob(home_json.as_bytes(), 1024).unwrap();

    let (c0, c1, code_servers) = tcp_pair("tcp-code", 8192, &[("tcp-site.com", code_blob)]);
    let (d0, d1, data_servers) = tcp_pair("tcp-data", 1024, &[("tcp-site.com/home", home_blob)]);

    let mut browser = LightwebBrowser::connect(
        (
            TcpStream::connect(c0).unwrap(),
            TcpStream::connect(c1).unwrap(),
        ),
        (
            TcpStream::connect(d0).unwrap(),
            TcpStream::connect(d1).unwrap(),
        ),
        5,
        4,
    )
    .unwrap();
    let page = browser.browse("tcp-site.com/").unwrap();
    assert_eq!(page.body, "hello over real sockets");
    assert_eq!(page.real_fetches + page.dummy_fetches, 5);

    for s in code_servers.iter().chain(&data_servers) {
        s.shutdown();
    }
}

#[test]
fn batching_server_survives_bursts_over_tcp() {
    // Many parallel clients flood a batching server; all answers must be
    // correct (the batcher must not cross wires between requests).
    let mut cfg = ServerConfig::small("burst", 0);
    cfg.blob_len = 64;
    cfg.batch.max_batch = 8;
    cfg.modes = ModeSet::new([Mode::TwoServerPir]);
    let server = ZltpServer::new(cfg).unwrap();
    for i in 0..32 {
        server.publish(&format!("p/{i}"), &[i as u8; 64]).unwrap();
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    lightweb::reactor::serve(&server, listener).unwrap();

    // Raw single sessions (not the two-server wrapper) to drive the batch
    // path directly with full-domain keys.
    let handles: Vec<_> = (0..6)
        .map(|t| {
            std::thread::spawn(move || {
                use lightweb::dpf::gen;
                use lightweb::zltp::ZltpSession;
                let modes = ModeSet::new([Mode::TwoServerPir]);
                let mut session =
                    ZltpSession::connect(TcpStream::connect(addr).unwrap(), &modes).unwrap();
                let params = session.params();
                let map = *session.keyword_map();
                for i in 0..8 {
                    let key_name = format!("p/{}", (t * 8 + i) % 32);
                    let slot = map.slot(key_name.as_bytes());
                    let (k0, k1) = gen(&params, slot);
                    let a0 = session.get_raw(k0.to_bytes().to_vec()).unwrap();
                    let a1 = session.get_raw(k1.to_bytes().to_vec()).unwrap();
                    let blob: Vec<u8> = a0.iter().zip(a1.iter()).map(|(x, y)| x ^ y).collect();
                    assert_eq!(blob, vec![((t * 8 + i) % 32) as u8; 64], "key {key_name}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.requests, 6 * 8 * 2);
    assert!(stats.batches > 0, "batcher never engaged");
    server.shutdown();
}

#[test]
fn sharded_wire_server_matches_monolithic() {
    // Two server pairs over the same content: one monolithic, one running
    // the §5.2 front-end + 8-shard deployment. Wire-level answers must be
    // byte-identical.
    use lightweb::zltp::ServerConfig;
    let pages: Vec<(String, Vec<u8>)> = (0..64)
        .map(|i| (format!("s.com/p/{i}"), vec![i as u8; 256]))
        .collect();

    let make = |party: u8, prefix: u32| {
        let mut cfg = ServerConfig::small("shard-wire", party);
        cfg.blob_len = 256;
        cfg.shard_prefix_bits = prefix;
        let server = lightweb::zltp::ZltpServer::new(cfg).unwrap();
        for (k, v) in &pages {
            server.publish(k, v).unwrap();
        }
        lightweb::zltp::InProcServer::new(server)
    };
    let mono0 = make(0, 0);
    let mono1 = make(1, 0);
    let shard0 = make(0, 3);
    let shard1 = make(1, 3);

    let mut mono = TwoServerZltp::connect(mono0.connect(), mono1.connect()).unwrap();
    let mut sharded = TwoServerZltp::connect(shard0.connect(), shard1.connect()).unwrap();
    for i in [0usize, 17, 63] {
        let key = format!("s.com/p/{i}");
        assert_eq!(
            mono.private_get(&key).unwrap(),
            sharded.private_get(&key).unwrap(),
            "{key}"
        );
        assert_eq!(sharded.private_get(&key).unwrap(), vec![i as u8; 256]);
    }

    // Content updates propagate: the deployment is rebuilt lazily.
    shard0.server().publish("s.com/p/0", &[0xEE; 256]).unwrap();
    shard1.server().publish("s.com/p/0", &[0xEE; 256]).unwrap();
    assert_eq!(sharded.private_get("s.com/p/0").unwrap(), vec![0xEE; 256]);
}
