//! End-to-end causal tracing over a real TCP deployment.
//!
//! Drives a batched AND front-end-sharded two-server ZLTP session over
//! TCP sockets and asserts that every request produced a complete trace
//! tree: client request → per-hop transport → server request →
//! batch-wait → engine phase → per-shard answer spans, with correct
//! parent/child links and child durations that fit inside the root.
//!
//! The trace collector is process-global, so this file holds a single
//! test function (integration-test binaries are per-file; nothing else
//! shares the collector).

use lightweb_core::{BatchConfig, ServerConfig, TwoServerZltp, ZltpServer};
use lightweb_telemetry::trace::{collector, TraceNode};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const PAGES: usize = 8;
const GETS: usize = 4;
const BLOB_LEN: usize = 1024;

/// Assert `child` is a direct child of `parent` in both the rendered
/// tree and the raw id links.
fn assert_linked(parent: &TraceNode, child: &TraceNode) {
    assert_eq!(
        child.parent_id, parent.span_id,
        "span {} should hang off {}",
        child.name, parent.name
    );
}

#[test]
fn batched_sharded_tcp_session_produces_complete_trace_trees() {
    collector().reset();

    // Two batching, front-end-sharded servers listening on real sockets.
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for party in 0..2u8 {
        let mut cfg = ServerConfig::small("tracing-int", party);
        cfg.blob_len = BLOB_LEN;
        cfg.shard_prefix_bits = 2;
        cfg.batch = BatchConfig {
            max_batch: 4,
            window: Duration::from_millis(5),
        };
        let server = ZltpServer::new(cfg).unwrap();
        for i in 0..PAGES {
            server
                .publish(&format!("trace/page-{i}"), &[0x40 + i as u8; BLOB_LEN])
                .unwrap();
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap());
        lightweb::reactor::serve(&server, listener).unwrap();
        servers.push(server);
    }

    let mut client = TwoServerZltp::connect(
        TcpStream::connect(addrs[0]).unwrap(),
        TcpStream::connect(addrs[1]).unwrap(),
    )
    .unwrap();
    for i in 0..GETS {
        let blob = client.private_get(&format!("trace/page-{i}")).unwrap();
        assert_eq!(blob, vec![0x40 + i as u8; BLOB_LEN]);
    }
    client.close().unwrap();
    for server in &servers {
        server.shutdown();
    }

    // Every span found its parent: nothing orphaned, nothing pending.
    assert_eq!(collector().orphaned_spans(), 0, "orphan spans recorded");
    assert_eq!(collector().pending_spans(), 0, "spans never finalized");

    let traces: Vec<_> = collector()
        .recent()
        .into_iter()
        .filter(|t| t.root.name == "zltp.client.request")
        .collect();
    assert_eq!(traces.len(), GETS, "one trace per private GET");

    for trace in &traces {
        assert!(trace.is_complete(), "trace has orphan spans");

        // Root: the client request, one transport hop per server.
        let root = &trace.root;
        assert_eq!(root.parent_id, 0, "root span must have no parent");
        let hops: Vec<_> = root.children_named("zltp.client.transport").collect();
        assert_eq!(hops.len(), 2, "a two-server GET makes two wire hops");
        assert_eq!(root.children.len(), 2, "root has only the two hops");

        for hop in &hops {
            assert_linked(root, hop);

            // The wire context crossed the TCP connection: the server's
            // request span is a child of the client's transport span.
            let req = hop
                .child_named("zltp.server.request")
                .expect("server request span crossed the wire");
            assert_linked(hop, req);

            let prepare = req
                .child_named("zltp.server.prepare")
                .expect("prepare phase span");
            assert_linked(req, prepare);
            let wait = req
                .child_named("zltp.server.batch.wait")
                .expect("batch queue-wait span");
            assert_linked(req, wait);
            let answer = req
                .child_named("engine.two_server.answer")
                .expect("engine phase span");
            assert_linked(req, answer);

            // Sharded §5.2 path: one front-end hop plus 2^2 shard scans.
            let fe = answer
                .child_named("zltp.shard.front_end")
                .expect("front-end span");
            assert_linked(answer, fe);
            let shard_answers: Vec<_> = answer.children_named("zltp.shard.answer").collect();
            assert_eq!(shard_answers.len(), 4, "2^shard_prefix_bits shard spans");
            for sa in &shard_answers {
                assert_linked(answer, sa);
            }

            // Phases nest in time: prepare + queue wait + engine work all
            // fit inside the server's request span.
            let phase_sum: u64 = req.children.iter().map(|c| c.duration_ns).sum();
            assert!(
                phase_sum <= req.duration_ns,
                "server phases ({phase_sum} ns) exceed the request span ({} ns)",
                req.duration_ns
            );
        }

        // The two sequential hops fit inside the client's root span.
        let child_sum: u64 = root.children.iter().map(|c| c.duration_ns).sum();
        assert!(
            child_sum <= root.duration_ns,
            "hop durations ({child_sum} ns) exceed the root span ({} ns)",
            root.duration_ns
        );
    }
}
