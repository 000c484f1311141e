//! The shared scan/eval worker pool.
//!
//! The two dominant per-request server costs (§5.1) — full-domain DPF
//! evaluation and the XOR scan over the data — are both embarrassingly
//! parallel: the DPF tree splits into independent sub-trees (the same
//! prefix split §5.2 uses across machines, here across cores) and the scan
//! splits into disjoint record ranges whose partial accumulators XOR back
//! together. [`ScanPool`] owns that partitioning for every backend: the
//! monolithic scan, the batched scan, and the per-shard scans of a sharded
//! deployment all run through the same pool.
//!
//! ## Workers
//!
//! A pass spawns no thread. A pool of `threads` owns `threads - 1` workers
//! that already exist: they start on the first call that has more than one
//! chunk (a pool is free until used), park on a condition variable between
//! calls, and are joined when the last clone of the pool drops — so
//! building and dropping servers leaks nothing. A call publishes one job —
//! a chunk count and a claim counter — and then claims chunks itself;
//! workers claim the rest. The caller therefore always makes progress: if
//! every worker is busy with another caller's job (two engines sharing a
//! pool), or could not be started, the caller runs every chunk itself, and
//! a call from inside a chunk cannot deadlock. `threads == 1` (or one
//! chunk) is an inline call on the caller's thread that touches none of
//! this — which is what the `LIGHTWEB_SCAN_THREADS=1` CI matrix leg pins.
//!
//! A chunk that panics does not take the pool down: the panic is caught
//! where it ran, the call still waits for every other chunk, and the
//! caller re-raises it.
//!
//! ## The one `unsafe`
//!
//! Chunks borrow the caller's stack: the record store behind its read
//! guard, the evaluated bit matrix, disjoint `&mut` slices of the output
//! row. Threads that outlive the call can only be handed `'static` work,
//! and there is no safe way to say "this borrow ends before `run_chunks`
//! returns" to a thread that already exists — `std::thread::scope` can say
//! it only because it spawns (and joins) the threads itself, which is the
//! cost this module removes, and owning the data instead (`Arc`) would
//! mean copying a shard per pass. So `run_chunks` erases the lifetime of
//! the chunk closure once, and upholds by hand what the scope upheld: it
//! does not return, normally or by unwinding, until every chunk has
//! finished, and no thread touches the closure after that. The argument is
//! spelled out at the `transmute`.

use lightweb_dpf::{BitMatrix, DpfKey};
use lightweb_pir::{PirError, PirServer};
use lightweb_telemetry::trace::{maybe_child, TraceContext};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the worker count when a config leaves
/// `scan_threads` at 0 (auto).
pub const SCAN_THREADS_ENV: &str = "LIGHTWEB_SCAN_THREADS";

/// Lock a mutex whose critical sections run no caller code: a poisoned
/// state cannot be half-updated, so recover the guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One call's work: `chunks` indices, each run exactly once by whichever
/// thread claims it.
struct Job {
    /// The chunk closure with its lifetime erased; see `run_chunks`.
    run: &'static (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Next unclaimed chunk. `Relaxed`: the counter hands out indices and
    /// publishes nothing else — the job reaches workers through the queue
    /// mutex, and chunk results reach the caller through `progress`.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    finished: Condvar,
}

#[derive(Default)]
struct Progress {
    finished: usize,
    /// The first panic a chunk raised, for the caller to re-raise.
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }

    /// Claim and run chunks until none is left unclaimed. Never unwinds.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.run)(i)));
            let mut progress = lock(&self.progress);
            progress.finished += 1;
            if let Err(panic) = outcome {
                progress.panic.get_or_insert(panic);
            }
            if progress.finished == self.chunks {
                self.finished.notify_all();
            }
        }
    }

    /// Block until every chunk has finished; returns a chunk's panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut progress = lock(&self.progress);
        while progress.finished < self.chunks {
            progress = self
                .finished
                .wait(progress)
                .unwrap_or_else(|e| e.into_inner());
        }
        progress.panic.take()
    }
}

#[derive(Default)]
struct Queue {
    /// Jobs with a caller inside `run_chunks`, oldest first. Only that
    /// caller pushes and removes its job; workers just read.
    jobs: VecDeque<Arc<Job>>,
    closed: bool,
}

/// What the workers share with the pool's handles.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
}

fn worker_loop(shared: &Shared) {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(job) = queue.jobs.iter().find(|j| !j.exhausted()).cloned() {
            drop(queue);
            job.work();
            queue = lock(&shared.queue);
        } else if queue.closed {
            return;
        } else {
            queue = shared.wake.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct Inner {
    threads: usize,
    shared: Arc<Shared>,
    /// The `threads - 1` workers, started by the first multi-chunk call.
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn start_workers(&self) {
        self.workers.get_or_init(|| {
            (1..self.threads)
                .filter_map(|i| {
                    let shared = self.shared.clone();
                    // A worker that cannot be spawned is not fatal: callers
                    // claim whatever chunks no worker takes.
                    std::thread::Builder::new()
                        .name(format!("scan-pool-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .ok()
                })
                .collect()
        });
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.wake.notify_all();
        for handle in self.workers.take().into_iter().flatten() {
            // A worker catches every chunk panic, so a failed join has
            // nothing to report that the caller did not already see.
            let _ = handle.join();
        }
    }
}

/// A sizing policy plus the fan-out/fan-in machinery shared by every
/// scan-shaped workload. Clones share one set of workers.
#[derive(Clone)]
pub struct ScanPool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ScanPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanPool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

impl ScanPool {
    /// Create a pool with a fixed worker count. `0` means auto: the
    /// `LIGHTWEB_SCAN_THREADS` environment variable if set, otherwise the
    /// machine's available parallelism.
    pub fn new(threads: usize) -> Self {
        let resolved = if threads > 0 {
            threads
        } else {
            std::env::var(SCAN_THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&t| t > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
        };
        lightweb_telemetry::registry()
            .gauge("engine.scan_pool.threads")
            .set(resolved as i64);
        Self {
            inner: Arc::new(Inner {
                threads: resolved,
                shared: Arc::default(),
                workers: OnceLock::new(),
            }),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Run `f(0)`, …, `f(chunks - 1)`, each exactly once, on the caller
    /// and the pool's workers; returns when all have finished. A panic in
    /// a chunk is re-raised here after the others are done.
    fn run_chunks(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks <= 1 || self.inner.threads <= 1 {
            (0..chunks).for_each(f);
            return;
        }
        self.inner.start_workers();
        let shared = &self.inner.shared;
        // SAFETY: the transmute only lengthens the borrow of `f` (and of
        // what `f` captures) to `'static`; layout is unchanged. It is
        // sound because nothing dereferences `job.run` once this function
        // has returned or unwound:
        // * `run` is only called in `Job::work`, for a claimed index
        //   `i < chunks`, and that claim is counted in
        //   `progress.finished` only after the call has returned (or its
        //   panic was caught). Every index below `chunks` is claimed
        //   exactly once (`fetch_add`), so `finished == chunks` means
        //   every call of `run` that will ever happen has ended.
        // * After the job is queued, this function leaves only through
        //   `job.wait()`, which returns once `finished == chunks`.
        //   `work` catches chunk panics, `lock` ignores poisoning and the
        //   condition variable is used with one mutex, so nothing between
        //   the push and the wait can unwind.
        // * Workers may still hold the `Arc<Job>` afterwards; they touch
        //   its counters (owned by the `Arc`), find it exhausted, and
        //   drop it without calling `run`.
        // `F: Sync` makes sharing `&F` across the workers sound, and the
        // results `f` writes are published to this thread by the
        // `progress` mutex.
        let run = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let job = Arc::new(Job {
            run,
            chunks,
            next: AtomicUsize::new(0),
            progress: Mutex::default(),
            finished: Condvar::new(),
        });
        lock(&shared.queue).jobs.push_back(job.clone());
        shared.wake.notify_all();
        job.work();
        let panic = job.wait();
        lock(&shared.queue).jobs.retain(|j| !Arc::ptr_eq(j, &job));
        if let Some(panic) = panic {
            resume_unwind(panic);
        }
    }

    /// Split `0..n` into at most `threads` contiguous chunks and run `f`
    /// on each, in parallel when more than one chunk results. Results come
    /// back in range order. With one chunk (one thread, or tiny `n`) `f`
    /// runs inline on the caller's thread.
    pub fn map_ranges<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let workers = self.inner.threads.min(n).max(1);
        if workers <= 1 {
            return vec![f(0..n)];
        }
        let chunk = n.div_ceil(workers);
        let results: Vec<Mutex<Option<R>>> = (0..workers).map(|_| Mutex::new(None)).collect();
        self.run_chunks(workers, &|w| {
            let range = (w * chunk).min(n)..((w + 1) * chunk).min(n);
            *lock(&results[w]) = Some(f(range));
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("run_chunks ran every chunk")
            })
            .collect()
    }

    /// Full-domain DPF evaluation, parallelized by splitting the tree at a
    /// prefix (exactly the §5.2 front-end split, applied across cores):
    /// each worker expands a run of sub-trees into its slice of the packed
    /// output. Falls back to the serial evaluation when the pool has one
    /// thread or the domain is too small to split byte-aligned.
    pub fn eval_full(&self, key: &DpfKey) -> Vec<u8> {
        self.eval_full_traced(key, None)
    }

    /// [`ScanPool::eval_full`] with per-partition trace spans
    /// (`engine.pool.partition`) recorded as children of `ctx`.
    pub fn eval_full_traced(&self, key: &DpfKey, ctx: Option<&TraceContext>) -> Vec<u8> {
        let mut out = vec![0u8; key.params().output_len()];
        self.eval_full_into_traced(key, &mut out, ctx);
        out
    }

    /// Full-domain evaluation straight into a caller-owned buffer (e.g. a
    /// [`BitMatrix`] row): workers write their sub-tree runs into disjoint
    /// slices of `out`, so the parallel path allocates nothing per call.
    /// `out` must be exactly `output_len()` bytes.
    pub fn eval_full_into_traced(&self, key: &DpfKey, out: &mut [u8], ctx: Option<&TraceContext>) {
        let _eval = lightweb_telemetry::span!("pir.eval.ns");
        let params = key.params();
        assert_eq!(
            out.len(),
            params.output_len(),
            "output buffer must be exactly output_len() bytes"
        );
        // Deepest split that (a) yields >= one sub-tree per worker,
        // (b) stays above the terminal levels, (c) keeps every shard's
        // output byte-aligned.
        let mut prefix_bits = 0u32;
        while (1usize << (prefix_bits + 1)) <= self.inner.threads
            && prefix_bits + 1 < params.tree_depth()
            && params.domain_bits() - (prefix_bits + 1) >= 3
        {
            prefix_bits += 1;
        }
        if self.inner.threads <= 1 || prefix_bits == 0 {
            key.eval_full_into(out);
            return;
        }
        let nodes = key.eval_prefix(prefix_bits);
        let shard_key = key.shard_key(prefix_bits);
        let sub_len = shard_key.shard_output_len();
        let workers = self.inner.threads.min(nodes.len()).max(1);
        let chunk = nodes.len().div_ceil(workers);
        // Each chunk takes its own (sub-tree run, output run) pair, so the
        // `&mut` slices stay disjoint without the chunks sharing `out`.
        let runs: Vec<_> = nodes
            .chunks(chunk)
            .zip(out.chunks_mut(chunk * sub_len))
            .map(|run| Mutex::new(Some(run)))
            .collect();
        self.run_chunks(runs.len(), &|w| {
            let (node_run, out_run) = lock(&runs[w]).take().expect("each chunk runs once");
            let _part = maybe_child(ctx, "engine.pool.partition");
            // Pool workers have empty profile stacks, so an explicit scope
            // is the only thing attributing their CPU when the request is
            // untraced.
            let _prof = lightweb_telemetry::profile::Scope::enter("engine.pool.eval.worker");
            for (node, sub_out) in node_run.iter().zip(out_run.chunks_mut(sub_len)) {
                shard_key.eval(node, sub_out);
            }
        });
    }

    /// Parallel XOR scan: partition the record range, scan chunks on the
    /// pool, XOR-reduce the partial accumulators. Identical output to
    /// [`PirServer::scan`].
    pub fn scan(&self, server: &PirServer, bits: &[u8]) -> Result<Vec<u8>, PirError> {
        self.scan_traced(server, bits, None)
    }

    /// [`ScanPool::scan`] with per-partition trace spans
    /// (`engine.pool.partition`) recorded as children of `ctx`.
    pub fn scan_traced(
        &self,
        server: &PirServer,
        bits: &[u8],
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<u8>, PirError> {
        if bits.len() != server.params().output_len() {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        let partials = self.map_ranges(server.len(), |range| {
            let _part = maybe_child(ctx, "engine.pool.partition");
            let _prof = lightweb_telemetry::profile::Scope::enter("engine.pool.scan.worker");
            server.scan_range(range, bits)
        });
        let mut acc = vec![0u8; server.record_len()];
        for partial in partials {
            lightweb_crypto::xor_in_place(&mut acc, &partial);
        }
        Ok(acc)
    }

    /// Parallel batched scan (§5.1): one pass over the data per chunk
    /// answers every query, and per-query partials XOR-reduce across
    /// chunks. Identical output to [`PirServer::scan_batch`].
    pub fn scan_batch(
        &self,
        server: &PirServer,
        bit_vecs: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, PirError> {
        self.scan_batch_traced(server, bit_vecs, None)
    }

    /// [`ScanPool::scan_batch`] with per-partition trace spans
    /// (`engine.pool.partition`) recorded as children of `ctx`. The scan
    /// pass is shared by the whole batch, so one context (typically the
    /// first traced query's scan span) parents every partition.
    pub fn scan_batch_traced(
        &self,
        server: &PirServer,
        bit_vecs: &[Vec<u8>],
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<Vec<u8>>, PirError> {
        if bit_vecs
            .iter()
            .any(|bits| bits.len() != server.params().output_len())
        {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        let partials = self.map_ranges(server.len(), |range| {
            let _part = maybe_child(ctx, "engine.pool.partition");
            let _prof = lightweb_telemetry::profile::Scope::enter("engine.pool.scan.worker");
            server.scan_batch_range(range, bit_vecs)
        });
        let mut accs = vec![vec![0u8; server.record_len()]; bit_vecs.len()];
        for partial in partials {
            for (acc, p) in accs.iter_mut().zip(partial) {
                lightweb_crypto::xor_in_place(acc, &p);
            }
        }
        Ok(accs)
    }

    /// Parallel batched scan over a packed [`BitMatrix`] of evaluated
    /// queries — the allocation-free companion to [`ScanPool::scan_batch`]
    /// used by the batch answer path. Identical output to
    /// [`PirServer::scan_matrix`].
    pub fn scan_matrix(
        &self,
        server: &PirServer,
        matrix: &BitMatrix,
    ) -> Result<Vec<Vec<u8>>, PirError> {
        self.scan_matrix_traced(server, matrix, None)
    }

    /// [`ScanPool::scan_matrix`] with per-partition trace spans
    /// (`engine.pool.partition`) recorded as children of `ctx`.
    pub fn scan_matrix_traced(
        &self,
        server: &PirServer,
        matrix: &BitMatrix,
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<Vec<u8>>, PirError> {
        if matrix.row_bytes() != server.params().output_len() {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        let partials = self.map_ranges(server.len(), |range| {
            let _part = maybe_child(ctx, "engine.pool.partition");
            let _prof = lightweb_telemetry::profile::Scope::enter("engine.pool.scan.worker");
            server.scan_matrix_range(range, matrix)
        });
        let mut accs = vec![vec![0u8; server.record_len()]; matrix.rows()];
        for partial in partials {
            for (acc, p) in accs.iter_mut().zip(partial) {
                lightweb_crypto::xor_in_place(acc, &p);
            }
        }
        Ok(accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightweb_dpf::{gen, DpfParams};

    fn sample_server(params: DpfParams, n: usize, record_len: usize) -> PirServer {
        let entries = (0..n as u64)
            .map(|i| {
                let slot = (i * 2654435761) % params.domain_size();
                let mut rec = vec![0u8; record_len];
                rec[..8].copy_from_slice(&i.to_le_bytes());
                (slot, rec)
            })
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect();
        PirServer::from_entries(params, record_len, entries).unwrap()
    }

    #[test]
    fn map_ranges_covers_everything_in_order() {
        for threads in [1usize, 2, 3, 8] {
            let pool = ScanPool::new(threads);
            for n in [0usize, 1, 5, 16, 17] {
                let parts = pool.map_ranges(n, |r| r.collect::<Vec<usize>>());
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "t={threads} n={n}");
            }
        }
    }

    #[test]
    fn parallel_eval_matches_serial() {
        let params = DpfParams::new(12, 3).unwrap();
        let (k0, k1) = gen(&params, 777);
        for threads in [1usize, 2, 4, 8] {
            let pool = ScanPool::new(threads);
            assert_eq!(pool.eval_full(&k0), k0.eval_full(), "t={threads}");
            assert_eq!(pool.eval_full(&k1), k1.eval_full(), "t={threads}");
        }
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let params = DpfParams::new(11, 2).unwrap();
        let server = sample_server(params, 120, 32);
        let (k0, _) = gen(&params, 42);
        let bits = k0.eval_full();
        let serial = server.scan(&bits).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let pool = ScanPool::new(threads);
            assert_eq!(pool.scan(&server, &bits).unwrap(), serial, "t={threads}");
        }
    }

    #[test]
    fn parallel_batch_scan_matches_serial() {
        let params = DpfParams::new(11, 2).unwrap();
        let server = sample_server(params, 90, 24);
        let bit_vecs: Vec<Vec<u8>> = [3u64, 900, 2000]
            .iter()
            .map(|&slot| gen(&params, slot).0.eval_full())
            .collect();
        let serial = server.scan_batch(&bit_vecs).unwrap();
        for threads in [1usize, 3, 4] {
            let pool = ScanPool::new(threads);
            assert_eq!(
                pool.scan_batch(&server, &bit_vecs).unwrap(),
                serial,
                "t={threads}"
            );
        }
    }

    #[test]
    fn eval_into_matrix_rows_matches_eval_full() {
        let params = DpfParams::new(12, 3).unwrap();
        let keys: Vec<_> = [5u64, 999, 3000]
            .iter()
            .map(|&slot| gen(&params, slot).0)
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = ScanPool::new(threads);
            let mut matrix = BitMatrix::new(keys.len(), params.output_len());
            for (i, key) in keys.iter().enumerate() {
                pool.eval_full_into_traced(key, matrix.row_mut(i), None);
            }
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(
                    matrix.row(i),
                    key.eval_full().as_slice(),
                    "t={threads} k={i}"
                );
            }
        }
    }

    #[test]
    fn parallel_matrix_scan_matches_batch_scan() {
        let params = DpfParams::new(11, 2).unwrap();
        let server = sample_server(params, 90, 24);
        let keys: Vec<_> = [3u64, 900, 2000]
            .iter()
            .map(|&slot| gen(&params, slot).0)
            .collect();
        let bit_vecs: Vec<Vec<u8>> = keys.iter().map(|k| k.eval_full()).collect();
        let matrix = BitMatrix::from_rows(params.output_len(), &bit_vecs).unwrap();
        let serial = server.scan_batch(&bit_vecs).unwrap();
        for threads in [1usize, 3, 4] {
            let pool = ScanPool::new(threads);
            assert_eq!(
                pool.scan_matrix(&server, &matrix).unwrap(),
                serial,
                "t={threads}"
            );
        }
        let wrong = BitMatrix::new(2, params.output_len() + 1);
        assert_eq!(
            ScanPool::new(2).scan_matrix(&server, &wrong).unwrap_err(),
            PirError::ParamsMismatch
        );
    }

    #[test]
    fn pool_rejects_wrong_length_bits() {
        let params = DpfParams::new(10, 2).unwrap();
        let server = sample_server(params, 10, 8);
        let pool = ScanPool::new(4);
        let short = vec![0u8; params.output_len() - 1];
        assert_eq!(
            pool.scan(&server, &short).unwrap_err(),
            PirError::ParamsMismatch
        );
        assert_eq!(
            pool.scan_batch(&server, &[short]).unwrap_err(),
            PirError::ParamsMismatch
        );
    }

    #[test]
    fn two_callers_share_one_pool() {
        let params = DpfParams::new(11, 2).unwrap();
        let server = sample_server(params, 120, 32);
        let pool = ScanPool::new(4);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for slot in [42u64, 1700] {
                let (pool, server, start) = (pool.clone(), &server, &start);
                s.spawn(move || {
                    let (k0, _) = gen(&params, slot);
                    let bits = k0.eval_full();
                    let serial = server.scan(&bits).unwrap();
                    start.wait();
                    for _ in 0..200 {
                        assert_eq!(pool.eval_full(&k0), bits);
                        assert_eq!(pool.scan(server, &bits).unwrap(), serial);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_and_the_pool_keeps_working() {
        let pool = ScanPool::new(4);
        for bad in 0..4usize {
            let hit = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map_ranges(4, |r| {
                    assert_ne!(r.start, bad, "chunk {bad} fails");
                    r.start
                })
            }));
            let panic = hit.expect_err("the chunk's panic was swallowed");
            let text = panic.downcast_ref::<String>().expect("assert message");
            assert!(text.contains(&format!("chunk {bad} fails")), "{text}");
            assert_eq!(pool.map_ranges(4, |r| r.start), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn workers_start_on_first_use_and_end_with_the_pool() {
        let pool = ScanPool::new(4);
        let shared = pool.inner.shared.clone();
        // Handles on `shared`: the pool's, this test's, one per worker.
        assert_eq!(Arc::strong_count(&shared), 2, "a pool is free until used");
        assert_eq!(pool.map_ranges(1, |r| r.len()), vec![1]);
        assert_eq!(Arc::strong_count(&shared), 2, "one chunk runs inline");
        let engine_copy = pool.clone();
        for _ in 0..3 {
            pool.map_ranges(64, |r| r.len());
            engine_copy.map_ranges(64, |r| r.len());
        }
        assert_eq!(Arc::strong_count(&shared), 2 + 3, "threads - 1 workers");
        drop(pool);
        assert_eq!(Arc::strong_count(&shared), 2 + 3, "a clone is still alive");
        drop(engine_copy);
        assert_eq!(Arc::strong_count(&shared), 1, "a worker outlived its pool");

        let single = ScanPool::new(1);
        let shared = single.inner.shared.clone();
        single.map_ranges(64, |r| r.len());
        assert_eq!(Arc::strong_count(&shared), 2, "one thread means no worker");
    }

    #[test]
    fn explicit_thread_count_wins_over_auto() {
        assert_eq!(ScanPool::new(3).threads(), 3);
        assert!(ScanPool::new(0).threads() >= 1);
    }
}
