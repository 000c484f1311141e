//! The two-server DPF PIR backend — the paper's prototype mode.
//!
//! ## Writes beside scans
//!
//! A scan holds the record store's read lock for the whole pass, so a
//! publisher that took the write lock would wait out whatever pass is
//! running — and on an idle-ish server passes are frequent. Instead
//! `publish` / `unpublish` validate the write and apply it at once only if
//! the lock is free; otherwise a copy goes on a short pending list, and
//! the next thread to take the write lock — the next reader, before it
//! reads, or the next publisher that finds the store free — applies the
//! list. Every reader of the store goes through
//! [`TwoServerDpfEngine::store`], which drains first, so a write is
//! visible to every query answered after `publish` returned. Writes land
//! in the order they were accepted: the list is FIFO, it is only ever
//! taken by a thread that already holds the write lock, and a writer that
//! gets the lock drains the list before its own write.

use crate::error::EngineError;
use crate::pool::ScanPool;
use crate::query::PreparedQuery;
use crate::sharded::ShardedDeployment;
use crate::traits::QueryEngine;
use lightweb_dpf::{BitMatrix, DpfKey, DpfParams};
use lightweb_pir::{KeywordMap, PirError, PirServer};
use lightweb_telemetry::trace::{maybe_child, record_span_ctx, TraceContext};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

fn pir_error(e: PirError) -> EngineError {
    match e {
        PirError::ParamsMismatch => EngineError::BadQuery("DPF parameters mismatch".into()),
        other => EngineError::backend(other),
    }
}

/// One logical server of the non-colluding pair: the slot-indexed record
/// store, the full-domain DPF evaluation, and the XOR scan — all driven
/// through a [`ScanPool`] so both halves of the per-request cost (§5.1)
/// scale with cores. When built with `shard_prefix_bits > 0` the engine
/// serves queries through the §5.2 front-end split instead, with the
/// shards distributed across the same pool.
pub struct TwoServerDpfEngine {
    params: DpfParams,
    record_len: usize,
    party: u8,
    prefix_bits: u32,
    keyword_map: KeywordMap,
    pool: ScanPool,
    pir: RwLock<PirServer>,
    /// Writes accepted while a scan held `pir`, oldest first: a slot and
    /// the record to put there, or `None` to empty it. Taken only under
    /// `pir`'s write lock (lock order: `pir`, then `pending`).
    pending: Mutex<Vec<(u64, Option<Vec<u8>>)>>,
    /// Sharded view (when `prefix_bits > 0`), rebuilt lazily from the
    /// monolithic store after changes.
    sharded: Mutex<Option<ShardedDeployment>>,
    sharded_dirty: AtomicBool,
}

impl TwoServerDpfEngine {
    /// Create an empty engine. `prefix_bits > 0` enables the sharded
    /// deployment path with `2^prefix_bits` shards.
    pub fn new(
        params: DpfParams,
        record_len: usize,
        party: u8,
        prefix_bits: u32,
        keyword_map: KeywordMap,
        pool: ScanPool,
    ) -> Result<Self, EngineError> {
        if prefix_bits > 0
            && (prefix_bits >= params.tree_depth() || params.domain_bits() - prefix_bits < 3)
        {
            return Err(EngineError::Backend(format!(
                "shard_prefix_bits {prefix_bits} invalid for domain {}",
                params.domain_bits()
            )));
        }
        Ok(Self {
            params,
            record_len,
            party,
            prefix_bits,
            keyword_map,
            pool,
            pir: RwLock::new(PirServer::new(params, record_len)),
            pending: Mutex::new(Vec::new()),
            sharded: Mutex::new(None),
            sharded_dirty: AtomicBool::new(true),
        })
    }

    /// The pool this engine scans and evaluates on.
    pub fn pool(&self) -> &ScanPool {
        &self.pool
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store().is_empty()
    }

    /// One validated write: put `record` at `slot`, or empty the slot.
    fn apply(pir: &mut PirServer, slot: u64, record: Option<&[u8]>) {
        match record {
            Some(record) => pir
                .upsert(slot, record)
                .expect("publish checked the entry before accepting it"),
            None => {
                pir.remove(slot);
            }
        }
    }

    /// Move every pending write into `pir`, in the order it was accepted.
    fn apply_pending(&self, pir: &mut PirServer) {
        for (slot, record) in std::mem::take(&mut *self.pending.lock()) {
            Self::apply(pir, slot, record.as_deref());
        }
    }

    /// The record store with every accepted write applied. The one way to
    /// read `pir`.
    fn store(&self) -> RwLockReadGuard<'_, PirServer> {
        if !self.pending.lock().is_empty() {
            self.apply_pending(&mut self.pir.write());
        }
        self.pir.read()
    }

    /// Accept a write without waiting for a scan: apply it (after anything
    /// still pending) if no reader holds the store, otherwise queue a copy.
    fn submit(&self, slot: u64, record: Option<&[u8]>) {
        match self.pir.try_write() {
            Some(mut pir) => {
                self.apply_pending(&mut pir);
                Self::apply(&mut pir, slot, record);
            }
            None => self.pending.lock().push((slot, record.map(<[u8]>::to_vec))),
        }
        // After the write is in place or queued: a sharded rebuild that
        // clears the flag first either sees this write or leaves the flag
        // set for the next query.
        self.sharded_dirty.store(true, Ordering::SeqCst);
    }

    fn expect_keys(queries: &[PreparedQuery]) -> Result<Vec<&DpfKey>, EngineError> {
        queries
            .iter()
            .map(|q| match q {
                PreparedQuery::Dpf(key) => Ok(key),
                other => Err(EngineError::BadQuery(format!(
                    "two-server PIR cannot answer a {} query",
                    other.kind()
                ))),
            })
            .collect()
    }

    /// Rebuild the sharded view from the monolithic store if stale, then
    /// answer through it on the pool.
    fn answer_sharded(
        &self,
        key: &DpfKey,
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<u8>, EngineError> {
        let mut guard = self.sharded.lock();
        if self.sharded_dirty.swap(false, Ordering::SeqCst) || guard.is_none() {
            let entries: Vec<(u64, Vec<u8>)> = {
                let pir = self.store();
                pir.iter().map(|(slot, rec)| (slot, rec.to_vec())).collect()
            };
            *guard = Some(ShardedDeployment::from_entries(
                self.params,
                self.prefix_bits,
                self.record_len,
                entries,
            )?);
        }
        let dep = guard.as_ref().expect("just materialized");
        dep.answer_with_pool_traced(key, &self.pool, ctx)
    }
}

impl QueryEngine for TwoServerDpfEngine {
    fn name(&self) -> &'static str {
        "two_server_pir"
    }

    fn request_metric(&self) -> &'static str {
        "zltp.server.request.two_server_pir.ns"
    }

    fn prepare(&self, payload: &[u8]) -> Result<PreparedQuery, EngineError> {
        let key = DpfKey::from_bytes(payload).map_err(EngineError::bad_query)?;
        if key.params() != self.params {
            return Err(EngineError::BadQuery("DPF parameters mismatch".into()));
        }
        Ok(PreparedQuery::Dpf(key))
    }

    fn answer_batch(
        &self,
        queries: &[PreparedQuery],
        ctxs: &[Option<TraceContext>],
    ) -> Result<Vec<Vec<u8>>, EngineError> {
        let keys = Self::expect_keys(queries)?;
        let ctx_of = |i: usize| ctxs.get(i).and_then(|c| c.as_ref());
        if self.prefix_bits > 0 {
            // §5.2: one front-end split + pooled shard scan per query. A
            // real deployment batches within each shard; this path models
            // it with one pass per request.
            return keys
                .into_iter()
                .enumerate()
                .map(|(i, key)| {
                    let span = maybe_child(ctx_of(i), "engine.two_server.answer");
                    let span_ctx = span.as_ref().map(|s| s.ctx());
                    self.answer_sharded(key, span_ctx.as_ref())
                })
                .collect();
        }
        // One packed bit matrix holds every evaluated query — a single
        // allocation for the whole batch, with each key expanded directly
        // into its row.
        let mut matrix = BitMatrix::new(keys.len(), self.params.output_len());
        for (i, key) in keys.iter().enumerate() {
            let eval = maybe_child(ctx_of(i), "engine.two_server.eval");
            let eval_ctx = eval.as_ref().map(|s| s.ctx());
            self.pool
                .eval_full_into_traced(key, matrix.row_mut(i), eval_ctx.as_ref());
        }
        // The scan is one shared pass over the data (§5.1): mint a scan
        // span per traced query up front, time the pass once, and record
        // the same interval under each — so every request's trace shows
        // the scan it amortized into.
        let scan_ctxs: Vec<TraceContext> = (0..keys.len())
            .filter_map(|i| ctx_of(i).map(|c| c.child()))
            .collect();
        let pir = self.store();
        let start = Instant::now();
        let answers = self
            .pool
            .scan_matrix_traced(&pir, &matrix, scan_ctxs.first())
            .map_err(pir_error)?;
        let end = Instant::now();
        for ctx in &scan_ctxs {
            record_span_ctx(ctx, "engine.two_server.scan", start, end);
        }
        Ok(answers)
    }

    fn publish(&self, key: &[u8], blob: &[u8]) -> Result<(), EngineError> {
        let slot = self.keyword_map.slot(key);
        PirServer::check_entry(self.params, self.record_len, slot, blob).map_err(pir_error)?;
        self.submit(slot, Some(blob));
        Ok(())
    }

    fn unpublish(&self, key: &[u8]) -> Result<(), EngineError> {
        self.submit(self.keyword_map.slot(key), None);
        Ok(())
    }

    fn rebuild(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), EngineError> {
        let slotted: Vec<(u64, Vec<u8>)> = entries
            .iter()
            .map(|(k, v)| (self.keyword_map.slot(k), v.clone()))
            .collect();
        let rebuilt =
            PirServer::from_entries(self.params, self.record_len, slotted).map_err(pir_error)?;
        let mut pir = self.pir.write();
        // Writes accepted before the reseed are replaced along with the
        // store they were meant for.
        self.pending.lock().clear();
        *pir = rebuilt;
        drop(pir);
        self.sharded_dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn session_extra(&self) -> Result<Vec<u8>, EngineError> {
        Ok(vec![self.party])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightweb_pir::TwoServerClient;
    use std::sync::mpsc;
    use std::time::Duration;

    const BLOB_LEN: usize = 16;
    const DOMAIN_BITS: u32 = 12;
    const HASH_KEY: [u8; 16] = [0x4c; 16];

    fn params() -> DpfParams {
        DpfParams::new(DOMAIN_BITS, 7).unwrap()
    }

    /// The non-colluding pair; every write goes to both.
    struct Pair([TwoServerDpfEngine; 2]);

    impl Pair {
        fn new(prefix_bits: u32) -> Self {
            Self([0u8, 1].map(|party| {
                TwoServerDpfEngine::new(
                    params(),
                    BLOB_LEN,
                    party,
                    prefix_bits,
                    KeywordMap::new(&HASH_KEY, DOMAIN_BITS),
                    ScanPool::new(2),
                )
                .unwrap()
            }))
        }

        fn publish(&self, key: &str, fill: u8) {
            for e in &self.0 {
                e.publish(key.as_bytes(), &[fill; BLOB_LEN]).unwrap();
            }
        }

        fn unpublish(&self, key: &str) {
            for e in &self.0 {
                e.unpublish(key.as_bytes()).unwrap();
            }
        }

        /// A full private GET: one share per party, XOR-combined.
        fn get(&self, key: &str) -> Vec<u8> {
            let slot = self.0[0].keyword_map.slot(key.as_bytes());
            let query = TwoServerClient::new(params(), BLOB_LEN).query_slot(slot);
            let answers: Vec<Vec<u8>> = [query.key0, query.key1]
                .into_iter()
                .zip(&self.0)
                .map(|(share, e)| e.answer(&PreparedQuery::Dpf(share), None).unwrap())
                .collect();
            TwoServerClient::combine(&answers[0], &answers[1]).unwrap()
        }
    }

    #[test]
    fn publish_returns_while_a_scan_holds_the_store() {
        for prefix_bits in [0u32, 2] {
            let pair = Pair::new(prefix_bits);
            pair.publish("a.com/old", 1);
            assert_eq!(pair.get("a.com/old"), vec![1; BLOB_LEN]);

            // What a pass in flight holds, on each server.
            let scans = [pair.0[0].pir.read(), pair.0[1].pir.read()];
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::scope(|s| {
                s.spawn(|| {
                    pair.publish("a.com/new", 2);
                    pair.unpublish("a.com/old");
                    // Same key twice: the later write must win.
                    pair.unpublish("a.com/flip");
                    pair.publish("a.com/flip", 3);
                    pair.publish("a.com/flop", 4);
                    pair.unpublish("a.com/flop");
                    done_tx.send(()).unwrap();
                });
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("a publisher waited for the scan to end");
            });
            for e in &pair.0 {
                assert_eq!(e.pending.lock().len(), 6, "nothing could be applied yet");
            }
            drop(scans);

            // A GET submitted after `publish` returned sees every write.
            assert_eq!(pair.get("a.com/new"), vec![2; BLOB_LEN], "p={prefix_bits}");
            assert_eq!(pair.get("a.com/old"), vec![0; BLOB_LEN], "p={prefix_bits}");
            assert_eq!(pair.get("a.com/flip"), vec![3; BLOB_LEN], "p={prefix_bits}");
            assert_eq!(pair.get("a.com/flop"), vec![0; BLOB_LEN], "p={prefix_bits}");
            for e in &pair.0 {
                assert!(e.pending.lock().is_empty());
                assert_eq!(e.len(), 2);
            }
        }
    }

    #[test]
    fn an_idle_store_takes_the_write_at_once() {
        let pair = Pair::new(0);
        pair.publish("a.com/x", 9);
        for e in &pair.0 {
            assert!(e.pending.lock().is_empty());
            assert_eq!(e.pir.read().len(), 1);
        }
    }

    #[test]
    fn a_bad_entry_is_refused_before_it_is_queued() {
        // A keyword map wider than the DPF domain yields slots past its end.
        let engine = TwoServerDpfEngine::new(
            params(),
            BLOB_LEN,
            0,
            0,
            KeywordMap::new(&HASH_KEY, DOMAIN_BITS + 8),
            ScanPool::new(1),
        )
        .unwrap();
        let outside = (0..)
            .map(|i| format!("k-{i}"))
            .find(|k| engine.keyword_map.slot(k.as_bytes()) >= params().domain_size())
            .unwrap();
        let inside = (0..)
            .map(|i| format!("k-{i}"))
            .find(|k| engine.keyword_map.slot(k.as_bytes()) < params().domain_size())
            .unwrap();
        // Refused synchronously even while a scan holds the store.
        let scan = engine.pir.read();
        let err = engine.publish(outside.as_bytes(), &[1; BLOB_LEN]);
        assert!(err.unwrap_err().to_string().contains("outside domain"));
        let err = engine.publish(inside.as_bytes(), &[1; BLOB_LEN + 1]);
        assert!(err.unwrap_err().to_string().contains("record length"));
        assert!(engine.pending.lock().is_empty());
        drop(scan);
        assert!(engine.is_empty());
    }

    #[test]
    fn rebuild_supersedes_writes_still_pending() {
        let pair = Pair::new(0);
        let scans = [pair.0[0].pir.read(), pair.0[1].pir.read()];
        pair.publish("a.com/stale", 5);
        drop(scans);
        for e in &pair.0 {
            e.rebuild(&[(b"a.com/fresh".to_vec(), vec![6; BLOB_LEN])])
                .unwrap();
        }
        assert_eq!(pair.get("a.com/fresh"), vec![6; BLOB_LEN]);
        assert_eq!(pair.get("a.com/stale"), vec![0; BLOB_LEN]);
    }
}
