//! Per-layer probes: each times one layer's public function from outside, on
//! the workload's own data, and reports the median call. A layer is a crate
//! or a module of the product; the names say which.

use crate::fixture::{Dataset, DbSpec, ServerPair, Target, BLOB_LEN};
use crate::pages::PageFixture;
use crate::rng::Rng;
use crate::stats::median;
use crate::tap::{hops_in_series, Tap, TappedStream};
use lightweb_core::{
    encode_frame, FrameDecoder, InProcServer, Message, Mode, ModeSet, ShardFanout, ShardNetServer,
    TwoServerZltp, ZltpSession,
};
use lightweb_crypto::{ChaCha20Poly1305, DpfPrg, SipHash24};
use lightweb_dpf::{gen, BitMatrix, DpfParams};
use lightweb_engine::{
    DataShard, PreparedQuery, QueryEngine, ScanPool, ShardedDeployment, TwoServerDpfEngine,
};
use lightweb_pir::lwe::{LweClient, LweParams, LweServer};
use lightweb_pir::{KeywordMap, PirServer, TwoServerClient};
use lightweb_store::{DurableStore, StoreConfig, StoreOp, ValueRepr};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Records of the fixed-size baselines (LWE, ORAM, store): 4 096 x 1 KiB.
const BASELINE_RECORDS: usize = 4096;

/// How long one probe may take, and how many calls it wants at most.
#[derive(Clone, Copy)]
pub struct Budget {
    pub per_probe: Duration,
    pub calls: usize,
}

impl Budget {
    pub fn new(quick: bool) -> Self {
        Self {
            per_probe: Duration::from_millis(if quick { 30 } else { 120 }),
            calls: 200,
        }
    }
}

/// Median ns over the durations `sample` returns: `calls` of them, fewer (at
/// least five) when they use up the probe's time first — a 64 MiB memmove is
/// not run 200 times. `sample` times the part of its work that counts and may
/// do untimed preparation around it.
pub fn sample_ns(b: Budget, mut sample: impl FnMut() -> Duration) -> f64 {
    let begun = Instant::now();
    let mut samples = Vec::with_capacity(b.calls);
    while samples.len() < b.calls && (samples.len() < 5 || begun.elapsed() < b.per_probe) {
        samples.push(sample().as_nanos() as f64);
    }
    median(&samples)
}

/// Median ns of one call of `f`.
pub fn time_ns<R>(b: Budget, mut f: impl FnMut() -> R) -> f64 {
    sample_ns(b, || {
        let t = Instant::now();
        black_box(f());
        t.elapsed()
    })
}

/// As [`time_ns`] for calls too short to time singly: each sample times
/// `batch` calls and is divided by it.
pub fn time_batched_ns<R>(b: Budget, batch: usize, mut f: impl FnMut() -> R) -> f64 {
    time_ns(b, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

/// Everything the probes of one traced run share.
pub struct Ctx<'a> {
    pub spec: DbSpec,
    pub data: &'a Dataset,
    pub seed: u64,
    pub budget: Budget,
    /// Scratch directory inside the checkout, for the store probe.
    pub scratch: &'a Path,
}

impl Ctx<'_> {
    pub fn params(&self) -> DpfParams {
        self.spec.config(0).dpf_params()
    }

    pub fn keymap(&self) -> KeywordMap {
        let c = self.spec.config(0);
        KeywordMap::new(&c.keyword_hash_key, c.domain_bits)
    }

    /// The engine as `ZltpServer::new` builds it for this workload, filled
    /// through `rebuild`.
    pub fn engine(&self) -> TwoServerDpfEngine {
        let engine = TwoServerDpfEngine::new(
            self.params(),
            BLOB_LEN,
            0,
            0,
            self.keymap(),
            ScanPool::new(self.spec.scan_threads),
        )
        .expect("engine");
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..self.data.len())
            .map(|j| (self.data.keys[j].clone().into_bytes(), self.data.blob(j)))
            .collect();
        engine.rebuild(&entries).expect("rebuild");
        engine
    }
}

/// Calibration: taken first, so the layer numbers have a same-host denominator.
pub fn host(m: &mut Metrics) {
    m.insert("host.nproc", crate::host::nproc() as f64);
    m.insert("host.memread_gbps", crate::host::memread_gbps());
    m.insert("host.memcpy_gbps", crate::host::memcpy_gbps());
    m.insert("host.loopback_rtt_us", crate::host::loopback_rtt_us());
}

/// `crypto`, `dpf`, `pir`, `engine`: the read path's kernels, and `pir` /
/// `engine` writes.
pub fn kernels(cx: &Ctx, pir: &PirServer, engine: &TwoServerDpfEngine, m: &mut Metrics) {
    let b = cx.budget;
    let params = cx.params();
    let client = TwoServerClient::new(params, BLOB_LEN);
    let slot = cx.data.entries[cx.data.len() / 2].0;
    let query = client.query_slot(slot);
    let bits = query.key0.eval_full();
    let scan_bytes = pir.padded_bytes() as f64;

    let scan_ns = time_ns(b, || pir.scan(&bits).expect("scan"));
    m.insert("pir.scan_us", scan_ns / 1e3);
    m.insert("pir.scan_gbps", scan_bytes / scan_ns);
    m.insert(
        "pir.scan_roofline_frac",
        scan_bytes / scan_ns / m["host.memread_gbps"],
    );
    let mut matrix = BitMatrix::new(16, params.output_len());
    for r in 0..16 {
        client
            .query_slot(cx.data.entries[r].0)
            .key0
            .eval_full_into(matrix.row_mut(r));
    }
    let batch_ns = time_ns(b, || pir.scan_matrix(&matrix).expect("scan_matrix"));
    m.insert("pir.scan_batch16_us", batch_ns / 1e3);
    m.insert("pir.scan_batch16_gbps", scan_bytes / batch_ns);
    for (name, threads) in [("engine.pool.scan_t1_us", 1), ("engine.pool.scan_t2_us", 2)] {
        let pool = ScanPool::new(threads);
        m.insert(
            name,
            time_ns(b, || pool.scan(pir, &bits).expect("scan")) / 1e3,
        );
    }

    m.insert("dpf.gen_us", time_ns(b, || gen(&params, slot)) / 1e3);
    m.insert("dpf.key_bytes", query.key0.serialized_len() as f64);
    let (a0, a1) = (vec![0x5au8; BLOB_LEN], vec![0xa5u8; BLOB_LEN]);
    m.insert(
        "pir.combine_us",
        time_ns(b, || TwoServerClient::combine(&a0, &a1)) / 1e3,
    );
    let keymap = cx.keymap();
    m.insert(
        "pir.keyword.slot_ns",
        time_batched_ns(b, 1000, || keymap.slot(black_box(b"k-123456"))),
    );
    for (name, d) in [
        ("dpf.eval_full_d10_us", 10),
        ("dpf.eval_full_d16_us", 16),
        ("dpf.eval_full_d18_us", 18),
        ("dpf.eval_full_d22_us", 22),
    ] {
        let p = DpfParams::new(d, 7).expect("params");
        let (k, _) = gen(&p, 1);
        let mut out = vec![0u8; p.output_len()];
        m.insert(name, time_ns(b, || k.eval_full_into(&mut out)) / 1e3);
    }
    let pool = ScanPool::new(cx.spec.scan_threads);
    m.insert(
        "engine.pool.eval_us",
        time_ns(b, || pool.eval_full(&query.key0)) / 1e3,
    );
    let payload = query.key0.to_bytes().to_vec();
    m.insert(
        "engine.prepare_us",
        time_ns(b, || engine.prepare(&payload).expect("prepare")) / 1e3,
    );
    let prepared = engine.prepare(&payload).expect("prepare");
    m.insert(
        "engine.answer_us",
        time_ns(b, || engine.answer(&prepared, None).expect("answer")) / 1e3,
    );
    let batch: Vec<PreparedQuery> = (0..16)
        .map(|r| {
            let k = client.query_slot(cx.data.entries[r].0).key0;
            engine.prepare(&k.to_bytes()).expect("prepare")
        })
        .collect();
    let none = vec![None; 16];
    m.insert(
        "engine.answer_batch16_us",
        time_ns(b, || engine.answer_batch(&batch, &none).expect("answer")) / 1e3,
    );

    let prg = DpfPrg::new();
    let mut stretch = vec![0u8; 64 * 1024];
    m.insert(
        "crypto.prg_gbps",
        stretch.len() as f64 / time_ns(b, || prg.convert(&[7u8; 16], &mut stretch)),
    );
    let sip = SipHash24::new(&[0x4c; 16]);
    m.insert(
        "crypto.siphash_ns",
        time_batched_ns(b, 1000, || sip.hash(black_box(b"k-123456"))),
    );
    let aead = ChaCha20Poly1305::new(&[9u8; 32]);
    let plain = vec![3u8; BLOB_LEN];
    m.insert(
        "crypto.aead_seal_us",
        time_ns(b, || aead.seal(&[1u8; 12], b"lwbench", &plain)) / 1e3,
    );

    // Writes. Each timed call is undone untimed, so every call sees the same
    // database. `mid` is a free slot in the middle of the array (an insert
    // there moves half the records), `last` the highest occupied slot.
    let mut db = pir.clone();
    let record = vec![0x42u8; BLOB_LEN];
    let &(last, _) = cx.data.entries.last().expect("records");
    let mid = (cx.data.entries[cx.data.len() / 2].0..)
        .find(|s| !db.contains(*s))
        .expect("a free slot");
    m.insert(
        "pir.upsert_append_us",
        sample_ns(b, || {
            db.remove(last);
            let t = Instant::now();
            db.upsert(last, &record).expect("upsert");
            t.elapsed()
        }) / 1e3,
    );
    m.insert(
        "pir.upsert_mid_us",
        sample_ns(b, || {
            db.remove(mid);
            let t = Instant::now();
            db.upsert(mid, &record).expect("upsert");
            t.elapsed()
        }) / 1e3,
    );
    m.insert(
        "pir.remove_us",
        sample_ns(b, || {
            db.upsert(mid, &record).expect("upsert");
            let t = Instant::now();
            db.remove(mid);
            t.elapsed()
        }) / 1e3,
    );
    drop(db);
    // A key that hashes to a free slot: publishing it inserts mid-array.
    let new_key = cx.data.absent[0].as_bytes();
    m.insert(
        "engine.publish_us",
        sample_ns(b, || {
            engine.unpublish(new_key).expect("unpublish");
            let t = Instant::now();
            engine.publish(new_key, &record).expect("publish");
            t.elapsed()
        }) / 1e3,
    );
    engine.unpublish(new_key).expect("unpublish");
}

/// `core` and `reactor`: framing, allocation, connection set-up, and what the
/// loopback transport adds to a GET, on the workload's live servers.
pub fn transport(cx: &Ctx, pair: &ServerPair, m: &mut Metrics) {
    let b = cx.budget;
    let params = cx.params();
    let share = TwoServerClient::new(params, BLOB_LEN)
        .query_slot(cx.data.entries[0].0)
        .key0;
    let request = Message::Get {
        request_id: 7,
        payload: share.to_bytes().to_vec(),
    };
    m.insert(
        "core.wire.encode_us",
        time_ns(b, || encode_frame(&request, None).expect("encode")) / 1e3,
    );
    let answer = encode_frame(
        &Message::GetResponse {
            request_id: 7,
            payload: vec![0x11; BLOB_LEN],
        },
        None,
    )
    .expect("encode");
    let mut decoder = FrameDecoder::new();
    m.insert(
        "core.wire.decode_us",
        time_ns(b, || {
            decoder.extend(&answer);
            decoder.decode().expect("decode").expect("a whole frame")
        }) / 1e3,
    );

    m.insert(
        "core.client.connect_us",
        time_ns(b, || {
            let c = pair.client();
            let _ = c.close();
        }) / 1e3,
    );
    let mut keys = crate::workloads::KeyStream::new(cx.data, cx.seed, "probe-keys");
    let mut next_key = || loop {
        if let t @ Target::Item(_) = keys.draw() {
            return t;
        }
    };

    // The same GET over loopback TCP and over the in-memory transport of the
    // same two servers: the difference is what the socket path costs.
    let mut tcp = pair.client();
    let allocs0 = crate::alloc::counts();
    let mut gets = 0u64;
    let tcp_ns = time_ns(b, || {
        gets += 1;
        tcp.private_get(cx.data.key(next_key())).expect("GET")
    });
    let allocs1 = crate::alloc::counts();
    // Process-wide: the client's and both servers' allocations for one GET.
    m.insert(
        "core.alloc_per_get",
        (allocs1.0 - allocs0.0) as f64 / gets as f64,
    );
    m.insert(
        "core.alloc_bytes_per_get",
        (allocs1.1 - allocs0.1) as f64 / gets as f64,
    );
    let _ = tcp.close();
    let inproc = [0, 1].map(|i| InProcServer::new(pair.served[i].server.clone()));
    let mut mem =
        TwoServerZltp::connect(inproc[0].connect(), inproc[1].connect()).expect("hello in memory");
    let mem_ns = time_ns(b, || mem.private_get(cx.data.key(next_key())).expect("GET"));
    let _ = mem.close();
    m.insert("core.mem_get_us", mem_ns / 1e3);
    m.insert("reactor.tcp_overhead_us", (tcp_ns - mem_ns) / 1e3);

    // One server hop: one share to one server and its answer back.
    let (s0, _) = pair.dial_pair();
    let mut session = ZltpSession::connect(s0, &ModeSet::new([Mode::TwoServerPir])).expect("hello");
    let payload = share.to_bytes().to_vec();
    m.insert(
        "budget.hop_us",
        time_ns(b, || session.get_raw(payload.clone()).expect("hop")) / 1e3,
    );
    let _ = session.close();

    // Are the two servers asked one after the other, or at once?
    let tap = Tap::default();
    let origin = Instant::now();
    let mut tapped = TwoServerZltp::connect(
        TappedStream::mem(inproc[0].connect(), 0, &tap, origin),
        TappedStream::mem(inproc[1].connect(), 1, &tap, origin),
    )
    .expect("hello in memory");
    tap.lock().expect("tap").clear();
    tapped
        .private_get(cx.data.key(next_key()))
        .expect("tapped GET");
    m.insert(
        "core.client.hops_in_series",
        hops_in_series(&tap.lock().expect("tap")) as f64,
    );
    let _ = tapped.close();

    let key = &cx.data.keys[0];
    let blob = cx.data.blob(0);
    m.insert(
        "core.server.publish_us",
        time_ns(b, || {
            pair.served[0]
                .server
                .publish(key, &blob)
                .expect("overwrite in place")
        }) / 1e3,
    );
}

/// `browser` and `universe`: the page path's own work, on the page fixture.
pub fn page_path(cx: &Ctx, fx: &PageFixture, m: &mut Metrics) {
    let b = cx.budget;
    let (path, _) = fx.page(0);
    let domain = path.split('/').next().expect("domain");
    let code = fx
        .universe
        .export_domain(domain)
        .and_then(|d| d.code)
        .expect("the domain has code");
    let script = lightweb_browser::parse_script(&code).expect("page code parses");
    let storage = std::collections::HashMap::new();
    let route = &path[domain.len()..];
    m.insert(
        "browser.lwscript.plan_us",
        time_ns(b, || {
            script
                .plan(route, &storage, &mut |_| String::new())
                .expect("plan")
        }) / 1e3,
    );
    let (filler_path, json) = &fx.filler[0];
    let text = json.to_json();
    let blob = lightweb_universe::encode_blob(text.as_bytes(), BLOB_LEN).expect("encode");
    m.insert(
        "universe.blob.decode_us",
        time_ns(b, || {
            let (h, payload) = lightweb_universe::decode_blob(&blob).expect("decode");
            (h.payload_len, payload.len())
        }) / 1e3,
    );
    m.insert(
        "universe.json.parse_us",
        time_ns(b, || lightweb_universe::parse_json(&text).expect("parse")) / 1e3,
    );
    m.insert(
        "universe.publish_us",
        time_ns(b, || {
            fx.universe
                .publish_json("lwbench", filler_path, json)
                .expect("overwrite in place")
        }) / 1e3,
    );
}

/// `core::shardnet` against `engine::sharded`: the §5.2 split over two real
/// TCP shard servers and in one address space. No client path reaches
/// shardnet yet; these are the baseline for the change that moves it.
pub fn shardnet(cx: &Ctx, m: &mut Metrics) {
    let b = cx.budget;
    let params = cx.params();
    let key = TwoServerClient::new(params, BLOB_LEN)
        .query_slot(cx.data.entries[0].0)
        .key0;
    let servers: Vec<(
        ShardNetServer,
        std::net::SocketAddr,
        std::thread::JoinHandle<()>,
    )> = (0..2)
        .map(|i| {
            let shard =
                DataShard::from_entries(params, 1, i, BLOB_LEN, cx.data.slotted()).expect("shard");
            let server = ShardNetServer::new(shard);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr");
            let thread = server.serve(listener).expect("serve shard");
            (server, addr, thread)
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.1).collect();
    let mut fanout = ShardFanout::connect(&addrs, params, 1).expect("dial shards");
    let wire_ns = time_ns(b, || fanout.answer(&key).expect("fan-out answer"));
    let _ = fanout.close();
    for (server, _, thread) in servers {
        server.shutdown();
        thread.join().expect("shard accept thread");
    }
    let local = ShardedDeployment::from_entries(params, 1, BLOB_LEN, cx.data.slotted())
        .expect("sharded deployment");
    let pool = ScanPool::new(0);
    let local_ns = time_ns(b, || local.answer_with_pool(&key, &pool).expect("answer"));
    m.insert("core.shardnet.answer_us", wire_ns / 1e3);
    m.insert("engine.sharded.answer_us", local_ns / 1e3);
    m.insert("core.shardnet.rpc_overhead_us", (wire_ns - local_ns) / 1e3);
}

/// First non-toy numbers for the LWE and ORAM engines and the durable store,
/// all at 4 096 x 1 KiB whatever the workload. LWE runs at `n = 64`, the
/// dimension `ServerConfig::small` ships (not a secure one).
pub fn baselines(cx: &Ctx, m: &mut Metrics) {
    let b = cx.budget;
    let mut rng = Rng::stream(cx.seed, "baselines");
    let records: Vec<Vec<u8>> = (0..BASELINE_RECORDS)
        .map(|_| {
            let mut r = vec![0u8; BLOB_LEN];
            crate::rng::blob_for(cx.seed, rng.next_u64(), &mut r);
            r
        })
        .collect();

    let lwe_params = LweParams { n: 64 };
    let server = LweServer::new(lwe_params, BLOB_LEN, records.clone()).expect("LWE server");
    let client = LweClient::new(lwe_params, server.public_seed(), server.cols(), BLOB_LEN);
    let query = client.query(17);
    let lwe_ns = time_ns(b, || server.answer(&query.payload).expect("LWE answer"));
    m.insert("engine.lwe.answer_ms", lwe_ns / 1e6);
    m.insert(
        "engine.lwe.gbps",
        (BASELINE_RECORDS * BLOB_LEN) as f64 / lwe_ns,
    );
    drop(server);

    let mut enclave =
        lightweb_oram::SimulatedEnclave::new(BASELINE_RECORDS as u64, BLOB_LEN).expect("enclave");
    let keys: Vec<String> = (0..BASELINE_RECORDS).map(|i| format!("k-{i}")).collect();
    enclave
        .load(
            keys.iter()
                .zip(&records)
                .map(|(k, v)| (k.as_bytes(), v.as_slice())),
        )
        .expect("load enclave");
    m.insert(
        "engine.oram.get_us",
        time_ns(b, || {
            let k = &keys[rng.below(BASELINE_RECORDS as u64) as usize];
            enclave.get(k.as_bytes()).expect("ORAM get")
        }) / 1e3,
    );
    drop(enclave);

    // The store: 4 096 appends without fsync fill it, then appends with fsync
    // (the durability point) are timed, then recovery reopens it.
    let dir = cx.scratch.join("store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let op = |i: usize| StoreOp::PublishData {
        publisher: "lwbench".into(),
        path: format!("d.example/{i}"),
        value: ValueRepr::Inline(records[i % BASELINE_RECORDS].clone()),
    };
    let cfg = |fsync_wal| StoreConfig {
        fsync_wal,
        snapshot_every_ops: 0,
        ..StoreConfig::default()
    };
    {
        let (store, _) = DurableStore::open(&dir, cfg(false)).expect("open store");
        for i in 0..BASELINE_RECORDS {
            store.append(&op(i)).expect("append");
        }
    }
    let t = Instant::now();
    let (store, state) = DurableStore::open(&dir, cfg(true)).expect("recover store");
    m.insert("store.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(state.entries(), BASELINE_RECORDS, "recovery lost records");
    let mut appended = BASELINE_RECORDS;
    m.insert(
        "store.append_us",
        time_ns(Budget { calls: 50, ..b }, || {
            appended += 1;
            store.append(&op(appended)).expect("append")
        }) / 1e3,
    );
    drop(store);
    let on_disk: u64 = walk_bytes(&dir);
    m.insert(
        "store.write_amp",
        on_disk as f64 / (appended * BLOB_LEN) as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => walk_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the product's own telemetry costs per call site.
pub fn telemetry(cx: &Ctx, m: &mut Metrics) {
    let b = cx.budget;
    m.insert(
        "telemetry.span_ns",
        time_batched_ns(b, 1000, || {
            let _span = lightweb_telemetry::span!("lwbench.probe.span");
        }),
    );
    m.insert(
        "telemetry.counter_inc_ns",
        time_batched_ns(b, 1000, || {
            lightweb_telemetry::counter!("lwbench.probe.counter").inc()
        }),
    );
    let hist = lightweb_telemetry::registry().histogram("lwbench.probe.hist");
    let mut v = 0u64;
    m.insert(
        "telemetry.hist_record_ns",
        time_batched_ns(b, 1000, || {
            v = v.wrapping_add(977);
            hist.record(v & 0xffff)
        }),
    );
}
