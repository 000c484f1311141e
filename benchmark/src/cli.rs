//! Command line, the report, and the result line.

use crate::host;
use crate::json::{parse, quote, Json};
use crate::manifest::{END_TO_END, LOAD_RATE_PER_S, PER_LAYER, WORKLOADS};
use crate::workloads::{self, Observed, Opts};
use std::collections::BTreeMap;

const DEFAULT_SEED: u64 = 20230601;
/// A `load_16m` run whose generator was later than this at p99 is marked invalid.
const MAX_SCHED_LAG_MS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: Option<usize>,
    check: bool,
    manifest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        quick: false,
        repeat: None,
        check: false,
        manifest: "BENCHMARK.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--quick" => a.quick = true,
            "--repeat" => {
                a.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--check" => a.check = true,
            "--manifest" => a.manifest = value("a path")?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

/// `traced_binary`: whether this is `lwbench-traced`. Returns the exit code.
pub fn main(traced_binary: bool) -> i32 {
    let removed = host::scrub_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lwbench: {e}");
            eprintln!(
                "usage: lwbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick] | --repeat N | --check",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    if args.check {
        return check(&args.manifest);
    }
    if let Some(sets) = args.repeat {
        return repeat(&args, sets);
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("lwbench: --workload is required");
        return 2;
    };
    if !WORKLOADS.contains(&workload) {
        eprintln!("lwbench: unknown workload '{workload}'");
        return 2;
    }
    if args.trace != traced_binary {
        eprintln!(
            "lwbench: --trace {} is run by the `{}` binary (benchmark/run.sh picks it): the counting allocator is installed in `lwbench-traced` only, so that no end-to-end number is taken through it",
            args.trace as u8,
            if args.trace { "lwbench-traced" } else { "lwbench" }
        );
        return 2;
    }
    let label = if args.quick { "quick " } else { "" };
    let opts = Opts {
        seed: args.seed,
        seconds: if args.quick { 2.0 } else { args.seconds },
        quick: args.quick,
        trace: false,
    };
    println!(
        "{label}lwbench workload={workload} seed={} seconds={} trace={} commit={} nproc={} transport=loopback R={LOAD_RATE_PER_S}/s removed_env={removed:?}",
        opts.seed,
        opts.seconds,
        args.trace as u8,
        host::git_commit(),
        host::nproc(),
    );
    let obs = if args.trace {
        let (obs, layers) = crate::traced::run(workload, &opts);
        report(label, workload, &obs, true);
        for (name, unit) in PER_LAYER {
            println!("{label}{workload} layer {name} = {} {unit}", layers[name]);
        }
        println!(
            "{label}{workload} trace written to {}",
            crate::traced::out_dir()
                .join(format!("trace_{workload}.json"))
                .display()
        );
        print_result(
            label,
            &obs,
            PER_LAYER.iter().map(|(n, u)| (*n, layers[n], *u)),
        );
        obs
    } else {
        let obs = workloads::run(workload, &opts);
        report(label, workload, &obs, false);
        let metrics = obs.end_to_end();
        print_result(
            label,
            &obs,
            END_TO_END.iter().map(|(n, u)| (*n, metrics[n], *u)),
        );
        obs
    };
    if obs.correct() {
        0
    } else {
        1
    }
}

/// The run for people. A traced run's end-to-end numbers are only shown as
/// `traced.*` layer lines, so that nobody mistakes them for the real ones.
fn report(label: &str, workload: &str, obs: &Observed, traced: bool) {
    for line in &obs.provenance {
        println!("{label}{workload} {line}");
    }
    println!(
        "{label}{workload} ops={} ok={} failed={} (wrong={} transport={} limit_missed={})",
        obs.ops,
        obs.ops - obs.failed(),
        obs.failed(),
        obs.wrong,
        obs.transport_errors,
        obs.limit_missed
    );
    println!("{label}{workload} samples: {}", obs.support());
    if !traced {
        let metrics = obs.end_to_end();
        for (name, unit) in END_TO_END {
            println!("{label}{workload} {name} = {} {unit}", metrics[name]);
        }
    }
    for (name, v) in &obs.diag {
        println!("{label}{workload} diag {name} = {v}");
    }
    if let Some(lag) = obs
        .diag
        .get("bench.sched_lag_p99_ms")
        .filter(|l| **l > MAX_SCHED_LAG_MS)
    {
        println!(
            "{label}{workload} INVALID, not slow: the generator ran {lag} ms late at p99 (limit {MAX_SCHED_LAG_MS} ms); its latencies count from the intended send time and so include that"
        );
    }
}

/// The last line of standard output: one JSON object (after the `quick`
/// label, on a quick run: a quick result is never comparable to a full one).
fn print_result<'a>(
    label: &str,
    obs: &Observed,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{label}{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        obs.correct(),
        obs.ops.max(1),
        obs.failed(),
        body.join(", ")
    );
}

/// `--check`: fail when the names the benchmark emits differ from the ones
/// `BENCHMARK.json` lists, in either direction.
fn check(manifest: &str) -> i32 {
    let text = match std::fs::read_to_string(manifest) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lwbench --check: cannot read {manifest}: {e}");
            return 2;
        }
    };
    match crate::manifest::check(&text) {
        Ok(problems) if problems.is_empty() => {
            println!("lwbench --check: {manifest} lists exactly what the benchmark emits");
            0
        }
        Ok(problems) => {
            for p in problems {
                eprintln!("lwbench --check: {p}");
            }
            1
        }
        Err(e) => {
            eprintln!("lwbench --check: {manifest}: {e}");
            2
        }
    }
}

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    exe: &std::path::Path,
    workload: &str,
    seed: u64,
    args: &Args,
) -> Result<ChildResult, String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = parse(last.strip_prefix("quick ").unwrap_or(last)).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); exit {:?}; stderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// `--repeat N`: N full sets, each run its own process (so `peak_rss_mib` and
/// the allocator start fresh), each set with another seed and the workloads
/// in another order. Prints, per workload and metric, the median, the
/// quartiles and the spreads the bounds are derived from.
fn repeat(args: &Args, sets: usize) -> i32 {
    let me = std::env::current_exe().expect("own path");
    let exe = if args.trace {
        me.with_file_name("lwbench-traced")
    } else {
        me.with_file_name("lwbench")
    };
    let label = if args.quick { "quick " } else { "" };
    let bounds = std::fs::read_to_string(&args.manifest)
        .ok()
        .and_then(|t| parse(&t).ok())
        .map(|doc| {
            doc.get("end_to_end")
                .and_then(Json::as_arr)
                .into_iter()
                .flatten()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("bound")?.as_f64()?,
                    ))
                })
                .collect::<BTreeMap<String, f64>>()
        })
        .unwrap_or_default();
    let workloads: Vec<&str> = match args.workload.as_deref() {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut failed_total = 0u64;
    let mut incorrect = 0;
    for set in 0..sets {
        for i in 0..workloads.len() {
            let w = workloads[(i + set) % workloads.len()];
            let seed = args.seed + set as u64;
            match run_child(&exe, w, seed, args) {
                Ok(r) => {
                    failed_total += r.failed;
                    incorrect += !r.correct as u32;
                    eprintln!(
                        "{label}set {set} {w} seed {seed}: failed={} correct={}",
                        r.failed, r.correct
                    );
                    for (name, v) in r.metrics {
                        values.entry((w.to_string(), name)).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("lwbench --repeat: {e}");
                    return 1;
                }
            }
        }
    }
    println!(
        "{label}{:<14} {:<28} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound"
    );
    let mut outside = 0;
    for ((w, name), v) in &values {
        let med = crate::stats::median(v);
        let (q1, q3) = if v.len() >= 2 {
            crate::stats::quartiles(v)
        } else {
            (med, med)
        };
        let s = crate::stats::sorted(v.clone());
        let range = (s[s.len() - 1] - s[0]) / med;
        eprintln!("{label}{w} {name} values: {v:?}");
        let bound = bounds.get(name);
        // With two sets this is the acceptance check: they agree within the bound.
        let ok = bound.is_none_or(|b| range <= *b || (sets > 2 && (q3 - q1) / med <= *b));
        outside += !ok as u32;
        println!(
            "{label}{w:<14} {name:<28} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>9.4} {range:>9.4} {:>7}{}",
            (q3 - q1) / med,
            bound.map_or("-".into(), |b| b.to_string()),
            if ok { "" } else { "  OUTSIDE" }
        );
    }
    println!(
        "{label}sets={sets} failed_operations={failed_total} incorrect_runs={incorrect} metrics_outside_bound={outside}"
    );
    (failed_total > 0 || incorrect > 0 || outside > 0) as i32
}
