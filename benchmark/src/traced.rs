//! The traced run (`--trace 1`, the `lwbench-traced` binary): replay the
//! workload with benchmark-owned spans, calibrate the host, probe every layer,
//! step one GET through its layers, and add the budget up.

use crate::fixture::{Dataset, DbSpec, ServerPair, Target, BLOB_LEN};
use crate::layers::{self, Budget, Ctx, Metrics};
use crate::pages::{self, PageFixture};
use crate::span::{self_times, Recorder, Span};
use crate::stats::{median, percentile, sorted};
use crate::workloads::{self, KeyStream, Observed, Opts};
use lightweb_core::{encode_frame, BatchConfig, FrameDecoder, Message};
use lightweb_engine::{PreparedQuery, QueryEngine, ScanPool, TwoServerDpfEngine};
use lightweb_pir::{PirServer, TwoServerClient};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Longest replay of a traced run, in seconds.
const REPLAY_SECONDS: f64 = 5.0;

/// Where traces and the store probe's files go: `out/` beside the manifest
/// this binary was built from, which is inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The private-GET shape of `page_churn_4m`'s data pair, for the probes that
/// want a bare database: 4 096 records, the shipped batcher.
fn page_spec() -> DbSpec {
    DbSpec {
        id: "page_churn_4m",
        records: pages::VALUES,
        domain_bits: 14,
        batch: BatchConfig::default(),
        scan_threads: 0,
        one_cpu: false,
    }
}

/// One GET taken apart: every layer call made by hand, in the order the
/// product makes them, each under its own span.
fn stepped_gets(cx: &Ctx, pir: &PirServer, engine: &TwoServerDpfEngine, n: usize) -> Vec<Span> {
    let client = TwoServerClient::new(cx.params(), BLOB_LEN);
    let keymap = cx.keymap();
    let pool = ScanPool::new(cx.spec.scan_threads);
    let mut keys = KeyStream::new(cx.data, cx.seed, "stepped-keys");
    let mut rec = Recorder::new();
    for request in 0..n as u64 {
        let target = loop {
            if let t @ Target::Item(_) = keys.draw() {
                break t;
            }
        };
        let slot = keymap.slot(cx.data.key(target).as_bytes());
        let root = rec.open("get", None, request);
        let query = rec.child("dpf.gen", root, request, || client.query_slot(slot));
        let mut answers = Vec::with_capacity(2);
        for share in [&query.key0, &query.key1] {
            let frame = rec.child("core.wire.encode", root, request, || {
                encode_frame(
                    &Message::Get {
                        request_id: request as u32,
                        payload: share.to_bytes().to_vec(),
                    },
                    None,
                )
                .expect("encode")
            });
            let payload = rec.child("core.wire.decode", root, request, || {
                let mut d = FrameDecoder::new();
                d.extend(&frame);
                match d.decode() {
                    Ok(Some((Message::Get { payload, .. }, _))) => payload,
                    _ => panic!("request frame did not decode"),
                }
            });
            let prepared = rec.child("engine.prepare", root, request, || {
                engine.prepare(&payload).expect("prepare")
            });
            let PreparedQuery::Dpf(key) = prepared else {
                panic!("two-server engine prepared a non-DPF query")
            };
            let bits = rec.child("engine.pool.eval", root, request, || pool.eval_full(&key));
            let answer = rec.child("pir.scan", root, request, || {
                pool.scan(pir, &bits).expect("scan")
            });
            let frame = rec.child("core.wire.encode", root, request, || {
                encode_frame(
                    &Message::GetResponse {
                        request_id: request as u32,
                        payload: answer,
                    },
                    None,
                )
                .expect("encode")
            });
            answers.push(rec.child("core.wire.decode", root, request, || {
                let mut d = FrameDecoder::new();
                d.extend(&frame);
                match d.decode() {
                    Ok(Some((Message::GetResponse { payload, .. }, _))) => payload,
                    _ => panic!("answer frame did not decode"),
                }
            }));
        }
        let blob = rec.child("pir.combine", root, request, || {
            TwoServerClient::combine(&answers[0], &answers[1]).expect("combine")
        });
        rec.close(root);
        assert!(
            cx.data.answer_is_right(target, &blob),
            "stepped GET returned the wrong blob"
        );
    }
    rec.spans
}

/// Median over requests of the self time a request spent in spans named
/// `name`, per occurrence group: `per` occurrences count as one (a GET has
/// two hops, so a per-hop layer has `per = 2`).
fn per_request_us(spans: &[Span], name: &str, per: f64) -> f64 {
    let selfs = self_times(spans);
    let mut by_request: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if s.name == name {
            *by_request.entry(s.request).or_default() += t as f64;
        }
    }
    let v: Vec<f64> = by_request.values().map(|ns| ns / per / 1e3).collect();
    median(&v)
}

pub fn run(workload: &str, opts: &Opts) -> (Observed, Metrics) {
    let spec = workloads::spec(workload).unwrap_or_else(page_spec);
    // A workload that runs on one CPU is probed on one CPU: its budget is
    // added up from layer times taken under the conditions it runs under.
    let _pin = spec.one_cpu.then(crate::host::OneCpu::pin).flatten();
    let replay = Opts {
        seconds: opts.seconds.min(REPLAY_SECONDS),
        trace: true,
        ..*opts
    };
    let obs = workloads::run(workload, &replay);
    let mut m = Metrics::new();

    // (a) The replay, under the traced binary. Never an end-to-end number.
    let e2e = obs.end_to_end();
    for (traced, name) in [
        ("traced.get_p50_ms", "get_p50_ms"),
        ("traced.get_p99_ms", "get_p99_ms"),
        ("traced.gets_per_s", "gets_per_s"),
        ("traced.cpu_ms_per_get", "cpu_ms_per_get"),
        ("traced.page_p50_ms", "page_p50_ms"),
        ("traced.page_p90_ms", "page_p90_ms"),
        ("traced.publish_p50_ms", "publish_p50_ms"),
        ("traced.publish_p90_ms", "publish_p90_ms"),
    ] {
        m.insert(traced, e2e[name]);
    }
    m.insert("traced.ops", obs.ops as f64);
    m.insert("traced.failed", obs.failed() as f64);
    m.insert(
        "bench.trace_overhead_pct",
        (median(&obs.spanned_get_ms) / median(&obs.plain_get_ms) - 1.0) * 100.0,
    );
    for name in [
        "bench.sched_lag_p99_ms",
        "core.server.batch_wait_us",
        "core.server.batch_occupancy",
    ] {
        m.insert(name, obs.diag.get(name).copied().unwrap_or(0.0));
    }

    // Calibration comes before the layer probes that divide by it.
    layers::host(&mut m);

    let data = Dataset::new(&spec, opts.seed);
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    let cx = Ctx {
        spec,
        data: &data,
        seed: opts.seed,
        budget: Budget::new(opts.quick),
        scratch: &scratch,
    };
    let pir = PirServer::from_entries(cx.params(), BLOB_LEN, data.slotted()).expect("database");
    let engine = cx.engine();
    layers::kernels(&cx, &pir, &engine, &mut m);
    let pair = ServerPair::start(&spec, &data);
    layers::transport(&cx, &pair, &mut m);
    pair.stop();

    // (b) The stepped GET and the budget it adds up to.
    let stepped = stepped_gets(&cx, &pir, &engine, if opts.quick { 40 } else { 200 });
    drop((pir, engine));
    let hops = m["core.client.hops_in_series"];
    let per_hop: f64 = [
        "core.wire.encode",
        "core.wire.decode",
        "engine.prepare",
        "engine.pool.eval",
        "pir.scan",
    ]
    .iter()
    .map(|name| per_request_us(&stepped, name, 2.0))
    .sum();
    let sum_us = per_request_us(&stepped, "dpf.gen", 1.0)
        + hops * (per_hop + m["host.loopback_rtt_us"])
        + per_request_us(&stepped, "pir.combine", 1.0);
    m.insert("budget.sum_us", sum_us);
    // Against the untraced GETs of this run's own replay.
    let get_us = percentile(&sorted(obs.plain_get_ms.clone()), 50.0) * 1e3;
    m.insert("budget.unaccounted_pct", (get_us - sum_us) / get_us * 100.0);
    m.insert(
        "budget.scan_share_of_hop",
        per_request_us(&stepped, "pir.scan", 2.0) / m["budget.hop_us"],
    );

    // The page path, on a page fixture whatever the workload.
    let fx = PageFixture::build(opts.seed);
    layers::page_path(&cx, &fx, &mut m);
    fx.stop();
    let page_diag = if workload == "page_churn_4m" {
        obs.diag.clone()
    } else {
        pages::run(&Opts {
            seconds: 1.0,
            quick: true,
            trace: false,
            ..*opts
        })
        .diag
    };
    for name in ["browser.page_overhead_us", "browser.gets_in_series"] {
        m.insert(name, page_diag[name]);
    }

    layers::shardnet(&cx, &mut m);
    layers::baselines(&cx, &mut m);
    layers::telemetry(&cx, &mut m);
    let _ = std::fs::remove_dir_all(&scratch);

    let trace = crate::span::to_json(
        workload,
        &[("replay", &obs.spans), ("stepped_get", &stepped)],
    );
    let file = out_dir().join(format!("trace_{workload}.json"));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&file, trace))
        .expect("write the trace inside the checkout");
    (obs, m)
}
