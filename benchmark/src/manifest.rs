//! The names the benchmark emits — workloads, end-to-end metrics, per-layer
//! metrics — in one place, and the check that `BENCHMARK.json` lists exactly
//! these.

use crate::json::{parse, Json};

/// Data GETs of one page view: the universe's fixed fetch budget.
pub const GETS_PER_PAGE: usize = 5;

/// `load_16m`'s fixed arrival rate, GETs per second: about half of
/// `saturate_16m`'s `gets_per_s` at the commit that introduced the benchmark
/// (README, "How R was chosen"). Frozen: a later change must not move it.
pub const LOAD_RATE_PER_S: f64 = 1000.0;

pub const WORKLOADS: [&str; 5] = [
    "scan_64m",
    "small_256k",
    "saturate_16m",
    "load_16m",
    "page_churn_4m",
];

/// `(name, unit)`; every workload reports every one (`--trace 0`).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("get_p50_ms", "ms"),
    ("get_p99_ms", "ms"),
    ("gets_per_s", "1/s"),
    ("cpu_ms_per_get", "ms"),
    ("wire_bytes_per_get", "B"),
    ("peak_rss_mib", "MiB"),
    ("page_p50_ms", "ms"),
    ("page_p90_ms", "ms"),
    ("publish_p50_ms", "ms"),
    ("publish_p90_ms", "ms"),
];

/// `(name, unit)`; every traced run reports every one (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 75] = [
    // The scan, against the same host's memory-read rate.
    ("pir.scan_us", "us"),
    ("pir.scan_gbps", "GB/s"),
    ("pir.scan_roofline_frac", "ratio"),
    ("pir.scan_batch16_us", "us"),
    ("pir.scan_batch16_gbps", "GB/s"),
    // Client-side query generation and reconstruction.
    ("dpf.gen_us", "us"),
    ("dpf.key_bytes", "B"),
    ("pir.combine_us", "us"),
    ("pir.keyword.slot_ns", "ns"),
    // Per-query server work that batching does not amortise.
    ("dpf.eval_full_d10_us", "us"),
    ("dpf.eval_full_d16_us", "us"),
    ("dpf.eval_full_d18_us", "us"),
    ("dpf.eval_full_d22_us", "us"),
    ("engine.pool.eval_us", "us"),
    ("engine.prepare_us", "us"),
    ("engine.answer_us", "us"),
    ("engine.answer_batch16_us", "us"),
    ("engine.pool.scan_t1_us", "us"),
    ("engine.pool.scan_t2_us", "us"),
    ("crypto.prg_gbps", "GB/s"),
    ("crypto.siphash_ns", "ns"),
    ("crypto.aead_seal_us", "us"),
    // Framing, allocation, transport.
    ("core.wire.encode_us", "us"),
    ("core.wire.decode_us", "us"),
    ("core.alloc_per_get", "count"),
    ("core.alloc_bytes_per_get", "B"),
    ("core.mem_get_us", "us"),
    ("reactor.tcp_overhead_us", "us"),
    ("host.loopback_rtt_us", "us"),
    ("core.client.connect_us", "us"),
    ("core.client.hops_in_series", "count"),
    ("browser.gets_in_series", "count"),
    ("core.server.batch_wait_us", "us"),
    ("core.server.batch_occupancy", "count"),
    // The page path.
    ("browser.page_overhead_us", "us"),
    ("browser.lwscript.plan_us", "us"),
    ("universe.blob.decode_us", "us"),
    ("universe.json.parse_us", "us"),
    // The write path.
    ("pir.upsert_append_us", "us"),
    ("pir.upsert_mid_us", "us"),
    ("pir.remove_us", "us"),
    ("engine.publish_us", "us"),
    ("core.server.publish_us", "us"),
    ("universe.publish_us", "us"),
    // Baselines no workload reaches yet.
    ("core.shardnet.answer_us", "us"),
    ("engine.sharded.answer_us", "us"),
    ("core.shardnet.rpc_overhead_us", "us"),
    ("engine.lwe.answer_ms", "ms"),
    ("engine.lwe.gbps", "GB/s"),
    ("engine.oram.get_us", "us"),
    ("store.append_us", "us"),
    ("store.write_amp", "ratio"),
    ("store.recover_ms", "ms"),
    ("telemetry.span_ns", "ns"),
    ("telemetry.counter_inc_ns", "ns"),
    ("telemetry.hist_record_ns", "ns"),
    // Calibration and bookkeeping.
    ("host.memread_gbps", "GB/s"),
    ("host.memcpy_gbps", "GB/s"),
    ("host.nproc", "count"),
    ("bench.sched_lag_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("budget.hop_us", "us"),
    ("budget.scan_share_of_hop", "ratio"),
    ("budget.sum_us", "us"),
    ("budget.unaccounted_pct", "%"),
    // The workload replayed under the traced binary: never comparable to the
    // end-to-end numbers, kept so a trace can be read against its own run.
    ("traced.get_p50_ms", "ms"),
    ("traced.get_p99_ms", "ms"),
    ("traced.gets_per_s", "1/s"),
    ("traced.cpu_ms_per_get", "ms"),
    ("traced.page_p50_ms", "ms"),
    ("traced.page_p90_ms", "ms"),
    ("traced.publish_p50_ms", "ms"),
    ("traced.publish_p90_ms", "ms"),
    ("traced.ops", "count"),
    ("traced.failed", "count"),
];

fn names_of(doc: &Json, key: &str) -> Result<Vec<(String, Option<String>)>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no array '{key}'"))?
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("an entry of '{key}' has no name"))?;
            let unit = e.get("unit").and_then(Json::as_str).map(str::to_string);
            Ok((name.to_string(), unit))
        })
        .collect()
}

/// Every way the names and units in `BENCHMARK.json` differ from what the
/// benchmark emits, in either direction. Empty means they agree.
pub fn check(manifest_text: &str) -> Result<Vec<String>, String> {
    let doc = parse(manifest_text)?;
    let mut problems = Vec::new();
    let mut compare = |key: &str, ours: Vec<(String, Option<String>)>| -> Result<(), String> {
        let theirs = names_of(&doc, key)?;
        for (name, unit) in &ours {
            match theirs.iter().find(|(n, _)| n == name) {
                None => problems.push(format!("{key}: emitted but not listed: {name}")),
                Some((_, u)) if u != unit => problems.push(format!(
                    "{key}: {name} is emitted in {unit:?} but listed in {u:?}"
                )),
                Some(_) => {}
            }
        }
        for (name, _) in &theirs {
            if !ours.iter().any(|(n, _)| n == name) {
                problems.push(format!("{key}: listed but not emitted: {name}"));
            }
        }
        Ok(())
    };
    let with_units = |list: &[(&str, &str)]| {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    compare(
        "workloads",
        WORKLOADS.iter().map(|w| (w.to_string(), None)).collect(),
    )?;
    compare("end_to_end", with_units(&END_TO_END))?;
    compare("per_layer", with_units(&PER_LAYER))?;
    let rate = format!("R = {LOAD_RATE_PER_S}/s");
    let states_rate = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter(|w| w.get("name").and_then(Json::as_str) == Some("load_16m"))
        .any(|w| {
            w.get("why")
                .and_then(Json::as_str)
                .is_some_and(|y| y.contains(&rate))
        });
    if !states_rate {
        problems.push(format!("workloads: load_16m's why does not state '{rate}'"));
    }
    Ok(problems)
}
