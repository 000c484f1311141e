//! What the benchmark reads from the host: process CPU and memory, the
//! environment it runs in, and the calibration probes that give layer numbers
//! a same-host denominator.

use crate::stats::median;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// While this lives, the calling thread — and every thread started from it,
/// which is how the servers' threads get it — runs on one CPU only.
pub struct OneCpu {
    /// The CPU everything is pinned to.
    pub cpu: usize,
    before: CpuSet,
}

impl OneCpu {
    /// Pin to the first CPU this thread may run on. `None` when the kernel
    /// refuses; the run goes on unpinned and says so.
    pub fn pin() -> Option<Self> {
        let mut before: CpuSet = [0; 16];
        // SAFETY: `before` is a live buffer of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut before) } != 0 {
            return None;
        }
        let cpu = (0..1024).find(|c| before[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of the size passed.
        (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
            .then_some(Self { cpu, before })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: `before` is a live buffer of the size passed. A failure
        // leaves the thread pinned, which only costs later probes a core.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.before) };
    }
}

/// Remove every inherited `LIGHTWEB_*` variable, then set the one the
/// benchmark chooses: the reactor is the I/O model under test. Must run
/// before any thread is spawned. Returns the names it removed.
pub fn scrub_env() -> Vec<String> {
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LIGHTWEB_"))
        .collect();
    for k in &inherited {
        std::env::remove_var(k);
    }
    std::env::set_var("LIGHTWEB_IO_MODEL", "reactor");
    inherited
}

/// User + system CPU time of this process (all threads) so far, in ms: the
/// sum `/proc/self/stat` reports as `utime + stime`, read from the process
/// CPU clock because `/proc` counts in 10 ms ticks, which is 3 % of what
/// `page_churn_4m` uses in a window.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, correctly laid-out `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, or `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head,
    }
}

const CAL_BYTES: usize = 64 << 20;

/// Median GB/s of summing a 64 MiB buffer: the memory-read roofline a scan of
/// a database this size is held against.
pub fn memread_gbps() -> f64 {
    let buf: Vec<u64> = (0..CAL_BYTES as u64 / 8).collect();
    let runs: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            // Four accumulators so the adds do not form one dependency chain.
            let mut acc = [0u64; 4];
            for c in black_box(&buf).chunks_exact(4) {
                for (a, w) in acc.iter_mut().zip(c) {
                    *a = a.wrapping_add(*w);
                }
            }
            black_box(acc);
            CAL_BYTES as f64 / t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs)
}

/// Median GB/s (bytes copied per ns) of copying a 64 MiB buffer.
pub fn memcpy_gbps() -> f64 {
    let src = vec![1u8; CAL_BYTES];
    let mut dst = vec![0u8; CAL_BYTES];
    let runs: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            CAL_BYTES as f64 / t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs)
}

/// Median round trip in µs of a 1-byte ping-pong between two threads over the
/// host loopback with `TCP_NODELAY`: what one ZLTP hop pays the kernel before
/// the product does any work.
pub fn loopback_rtt_us() -> f64 {
    const ROUNDS: usize = 2000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept ping peer");
        s.set_nodelay(true).expect("nodelay");
        let mut b = [0u8; 1];
        while s.read_exact(&mut b).is_ok() {
            if s.write_all(&b).is_err() {
                break;
            }
        }
    });
    let mut s = TcpStream::connect(addr).expect("connect loopback");
    s.set_nodelay(true).expect("nodelay");
    let mut b = [7u8; 1];
    let mut samples = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS + 100 {
        let t = Instant::now();
        s.write_all(&b).expect("ping");
        s.read_exact(&mut b).expect("pong");
        if i >= 100 {
            samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(s);
    echo.join().expect("echo thread");
    median(&samples)
}
