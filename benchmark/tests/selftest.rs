//! The benchmark's own rules, tested: percentiles, seed determinism, span
//! self time, and the agreement of the emitted names with `BENCHMARK.json`.

use lwbench::manifest;
use lwbench::rng::{blob_for, poisson_schedule, Rng, Zipf};
use lwbench::span::{self_times, Span};
use lwbench::stats::{
    highest_supported, percentile, quartiles, samples_beyond, sliced_percentile, sorted,
};
use lwbench::tap::{get_intervals, hops_in_series, IoEvent};

#[test]
fn percentiles_are_exact_order_statistics() {
    let v = sorted((1..=1000).rev().map(f64::from).collect());
    assert_eq!(percentile(&v, 50.0), 500.0);
    assert_eq!(percentile(&v, 99.0), 990.0);
    assert_eq!(percentile(&v, 99.9), 999.0);
    assert_eq!(percentile(&v, 100.0), 1000.0);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    // Never interpolated: the answer is always one of the samples.
    let odd = sorted(vec![1.0, 10.0, 100.0]);
    assert_eq!(percentile(&odd, 50.0), 10.0);
    assert_eq!(percentile(&odd, 66.0), 10.0);
    assert_eq!(percentile(&odd, 67.0), 100.0);
}

#[test]
fn a_sliced_percentile_ignores_one_bad_slice() {
    // Ten slices of 100 samples, 1..=100 each; one slice is ten times slower.
    let mut samples: Vec<f64> = (0..1000).map(|i| (i % 100 + 1) as f64).collect();
    for s in &mut samples[300..400] {
        *s *= 10.0;
    }
    assert_eq!(sliced_percentile(&samples, 10, 99.0), 99.0);
    assert_eq!(percentile(&sorted(samples.clone()), 99.0), 900.0);
    // One slice is the plain percentile; more slices than samples is one each.
    assert_eq!(sliced_percentile(&samples, 1, 99.0), 900.0);
    assert_eq!(sliced_percentile(&[3.0, 1.0, 2.0], 7, 99.0), 2.0);
}

#[test]
fn highest_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(highest_supported(1000), Some(99.0));
    assert_eq!(highest_supported(999), Some(95.0));
    assert_eq!(highest_supported(10_000), Some(99.9));
    assert_eq!(highest_supported(100), Some(90.0));
    assert_eq!(highest_supported(99), Some(75.0));
    assert_eq!(highest_supported(20), Some(50.0));
    assert_eq!(highest_supported(19), None);
    assert_eq!(highest_supported(0), None);
}

#[test]
fn quartiles_follow_the_exclusive_method() {
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
    assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    let schedule = |seed| poisson_schedule(seed, 1250.0, 2_000_000_000);
    assert_eq!(schedule(7), schedule(7));
    assert_ne!(schedule(7), schedule(8));
    let s = schedule(7);
    assert!(s.windows(2).all(|w| w[0] <= w[1]), "arrivals are in order");
    // 2 s at 1250/s: 2500 arrivals, give or take five standard deviations.
    assert!((2250..2750).contains(&s.len()), "{} arrivals", s.len());

    let keys = |seed| {
        let zipf = Zipf::new(4096, seed);
        let mut rng = Rng::stream(seed, "keys");
        (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(keys(3), keys(3));
    assert_ne!(keys(3), keys(4));
    assert!(keys(3).iter().all(|&k| k < 4096));

    let blob = |seed, i| {
        let mut b = vec![0u8; 1024];
        blob_for(seed, i, &mut b);
        b
    };
    assert_eq!(blob(1, 5), blob(1, 5));
    assert_ne!(blob(1, 5), blob(1, 6));
    assert_ne!(blob(1, 5), blob(2, 5));
    assert!(blob(1, 5).iter().any(|&b| b != 0), "never the absent blob");
}

#[test]
fn zipf_favours_its_first_ranks() {
    let zipf = Zipf::new(1000, 1);
    let mut rng = Rng::stream(1, "keys");
    let mut counts = vec![0u32; 1000];
    for _ in 0..100_000 {
        counts[zipf.sample(&mut rng)] += 1;
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    // H(1000) = 7.49: the hottest key gets 1/7.49 = 13 % of the draws.
    assert!((12_000..15_000).contains(&counts[0]), "{}", counts[0]);
    assert!(counts[0] > 5 * counts[9]);
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = [
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(30, 60, Some(0)),  // overlaps the first child by 10
        span(70, 130, Some(0)), // runs past its parent: clipped at 100
        span(15, 20, Some(1)),
    ];
    // Children cover [10, 60) and [70, 100): 80 of the root's 100.
    assert_eq!(self_times(&spans), vec![20, 25, 30, 60, 5]);
}

#[test]
fn a_get_is_timed_from_the_stream_log() {
    let ev = |stream, write, at_ns| IoEvent {
        stream,
        write,
        at_ns,
    };
    // Two GETs on the data pair (streams 2, 3), hops one after the other.
    let log = [
        ev(2, true, 10),
        ev(2, false, 20),
        ev(2, false, 21),
        ev(3, true, 22),
        ev(3, false, 30),
        ev(3, false, 31),
        ev(2, true, 40),
        ev(2, false, 50),
        ev(3, true, 51),
        ev(3, false, 60),
    ];
    assert_eq!(get_intervals(&log), vec![(10, 31), (40, 60)]);
    assert_eq!(hops_in_series(&log[..6]), 2);
    // Both servers asked before either answers: one hop's worth of waiting.
    let at_once = [
        ev(0, true, 10),
        ev(1, true, 11),
        ev(0, false, 20),
        ev(1, false, 21),
    ];
    assert_eq!(hops_in_series(&at_once), 1);
}

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

#[test]
fn benchmark_json_lists_exactly_what_is_emitted() {
    let text = std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        manifest::check(&text).expect("parses"),
        Vec::<String>::new()
    );
}

#[test]
fn check_fails_in_both_directions() {
    let text = std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json at the repository root");
    let missing = text.replacen("\"get_p50_ms\"", "\"get_p51_ms\"", 1);
    let problems = manifest::check(&missing).expect("parses");
    assert!(problems
        .iter()
        .any(|p| p.contains("emitted but not listed: get_p50_ms")));
    assert!(problems
        .iter()
        .any(|p| p.contains("listed but not emitted: get_p51_ms")));
    let moved_rate = text.replacen("R = ", "R is ", 1);
    assert!(!manifest::check(&moved_rate).expect("parses").is_empty());
}

#[test]
fn lwbench_check_exits_by_what_it_finds() {
    let exe = env!("CARGO_BIN_EXE_lwbench");
    let ok = std::process::Command::new(exe)
        .args(["--check", "--manifest", MANIFEST])
        .output()
        .expect("run lwbench --check");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    // Scratch files stay inside the benchmark's own ignored `out/`.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("BENCHMARK.json");
    let text = std::fs::read_to_string(MANIFEST).expect("manifest");
    std::fs::write(&bad, text.replacen("\"pir.scan_us\"", "\"pir.scan_ms\"", 1)).expect("write");
    let fails = std::process::Command::new(exe)
        .args(["--check", "--manifest"])
        .arg(&bad)
        .output()
        .expect("run lwbench --check");
    assert_eq!(fails.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).expect("clean up");
}
