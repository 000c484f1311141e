//! End-to-end causal tracing over a real TCP deployment.
//!
//! Drives a batched AND front-end-sharded two-server ZLTP session over
//! TCP sockets and asserts that every request produced a complete trace
//! tree: client request → per-hop transport → server request →
//! batch-wait → engine phase → per-shard answer spans, with correct
//! parent/child links, child spans that lie inside the root, and the two
//! server hops overlapping in time.
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
            // request span is a child of the client's transport span —
            // exactly one per hop, also now that the hops overlap.
            let req = hop
                .child_named("zltp.server.request")
                .expect("server request span crossed the wire");
            assert_linked(hop, req);
            assert_eq!(hop.children_named("zltp.server.request").count(), 1);

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

        // Each hop lies inside the client's root span (starts are recorded
        // in whole microseconds, hence the slack) ...
        let end_ns = |n: &TraceNode| n.start_us * 1_000 + n.duration_ns;
        for hop in &hops {
            assert!(
                hop.start_us >= root.start_us && end_ns(hop) <= end_ns(root) + 1_000,
                "hop [{} us, +{} ns] outside the root [{} us, +{} ns]",
                hop.start_us,
                hop.duration_ns,
                root.start_us,
                root.duration_ns
            );
        }
        // ... and the two overlap: server 1 is asked before server 0 has
        // answered (each answer takes at least the 5 ms batch window).
        let (first, second) = if hops[0].start_us <= hops[1].start_us {
            (hops[0], hops[1])
        } else {
            (hops[1], hops[0])
        };
        assert!(
            second.start_us * 1_000 < end_ns(first),
            "hops ran one after the other: second starts at {} us, first ends at {} ns",
            second.start_us,
            end_ns(first)
        );
    }
}
