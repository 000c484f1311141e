//! Two-server DPF-based PIR: the prototype mode the paper benchmarks.
//!
//! The server holds key-value pairs where the key is a slot in the DPF
//! output domain of size `2^d` and the value is a fixed-length record.
//! Answering a query means (1) evaluating the client's DPF key over the
//! full domain — "DPF evaluation", 64 of 167 ms in §5.1 — and (2) XORing
//! together the records whose slot bit is set — "scanning over the data",
//! the remaining 103 ms. XORing the two servers' answers yields the record
//! in the queried slot.
//!
//! The scan runs through the one kernel in [`crate::kernel`]: records live
//! in a 64-byte-aligned buffer with the stride padded to a word multiple,
//! each record is XORed branch-free under a broadcast mask (the paper's
//! prototype used AVX intrinsics for the same loop — here the compiler
//! vectorizes it), and a whole batch of queries is answered in one sweep
//! of the data.
//!
//! Batching (§5.1): evaluating `b` DPF keys up front and answering all of
//! them in a *single* pass over the data raises throughput at the cost of
//! latency, because the scan — the dominant term — is paid once per batch
//! rather than once per request. [`PirServer::answer_batch`] implements
//! this; the `e2_batching` bench reproduces the paper's 0.51 s / 2 req/s
//! vs 2.6 s / 6 req/s trade-off curve.

use crate::aligned::AlignedBuf;
use crate::kernel;
use lightweb_dpf::{gen, BitMatrix, DpfKey, DpfParams};
use std::ops::Range;

/// Errors from the PIR engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PirError {
    /// A record had the wrong length for this database.
    RecordLen {
        /// The database's fixed record length.
        expected: usize,
        /// The offending record's length.
        got: usize,
    },
    /// A slot index was outside the DPF domain.
    SlotOutOfRange {
        /// The offending slot.
        slot: u64,
        /// The domain size it must be below.
        domain: u64,
    },
    /// Two records were assigned the same slot (keyword collision that the
    /// publisher must resolve by renaming, per §5.1).
    DuplicateSlot(u64),
    /// The query key's parameters do not match the database.
    ParamsMismatch,
    /// Two answers being combined had different lengths.
    AnswerLen,
}

impl std::fmt::Display for PirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PirError::RecordLen { expected, got } => {
                write!(
                    f,
                    "record length {got} != database record length {expected}"
                )
            }
            PirError::SlotOutOfRange { slot, domain } => {
                write!(f, "slot {slot} outside domain of size {domain}")
            }
            PirError::DuplicateSlot(s) => write!(f, "duplicate slot {s}"),
            PirError::ParamsMismatch => write!(f, "query parameters do not match database"),
            PirError::AnswerLen => write!(f, "answers have mismatched lengths"),
        }
    }
}

impl std::error::Error for PirError {}

/// One (logical) PIR server: the slot-indexed record store plus the scan.
///
/// In the two-server protocol both servers hold *identical* databases; the
/// non-collusion assumption is about their operators, not their contents.
#[derive(Clone, Debug)]
pub struct PirServer {
    params: DpfParams,
    record_len: usize,
    /// Bytes between consecutive record starts: `record_len` rounded up to
    /// a word multiple. The pad bytes are always zero, so scanning padded
    /// records XORs the same answer as scanning exact-length ones.
    stride: usize,
    /// Occupied slots, ascending.
    slots: Vec<u64>,
    /// Record bytes, 64-byte-aligned, `slots.len() * stride`.
    data: AlignedBuf,
}

impl PirServer {
    /// Create an empty server for the given domain and record size.
    pub fn new(params: DpfParams, record_len: usize) -> Self {
        assert!(record_len > 0, "record_len must be positive");
        Self {
            params,
            record_len,
            stride: record_len.next_multiple_of(8),
            slots: Vec::new(),
            data: AlignedBuf::new(),
        }
    }

    /// Build a server from `(slot, record)` entries.
    ///
    /// Entries may arrive in any order; duplicate slots and wrong-length
    /// records are rejected.
    pub fn from_entries(
        params: DpfParams,
        record_len: usize,
        mut entries: Vec<(u64, Vec<u8>)>,
    ) -> Result<Self, PirError> {
        entries.sort_by_key(|e| e.0);
        let mut server = Self::new(params, record_len);
        let mut last: Option<u64> = None;
        for (slot, rec) in entries {
            if last == Some(slot) {
                return Err(PirError::DuplicateSlot(slot));
            }
            last = Some(slot);
            server.insert_sorted(slot, &rec)?;
        }
        Ok(server)
    }

    /// What [`PirServer::upsert`] checks before it writes, for a caller
    /// that must refuse a bad entry now but applies the write later: the
    /// slot lies inside the DPF domain and the record has the database's
    /// fixed length.
    pub fn check_entry(
        params: DpfParams,
        record_len: usize,
        slot: u64,
        record: &[u8],
    ) -> Result<(), PirError> {
        if slot >= params.domain_size() {
            return Err(PirError::SlotOutOfRange {
                slot,
                domain: params.domain_size(),
            });
        }
        if record.len() != record_len {
            return Err(PirError::RecordLen {
                expected: record_len,
                got: record.len(),
            });
        }
        Ok(())
    }

    fn insert_sorted(&mut self, slot: u64, record: &[u8]) -> Result<(), PirError> {
        Self::check_entry(self.params, self.record_len, slot, record)?;
        self.slots.push(slot);
        let at = self.data.len();
        self.data.insert_zeroed(at, self.stride);
        self.data.as_mut_slice()[at..at + self.record_len].copy_from_slice(record);
        Ok(())
    }

    /// Insert or replace the record at `slot`.
    pub fn upsert(&mut self, slot: u64, record: &[u8]) -> Result<(), PirError> {
        Self::check_entry(self.params, self.record_len, slot, record)?;
        match self.slots.binary_search(&slot) {
            Ok(i) => {
                let at = i * self.stride;
                self.data.as_mut_slice()[at..at + self.record_len].copy_from_slice(record);
            }
            Err(i) => {
                self.slots.insert(i, slot);
                let at = i * self.stride;
                // Open a zeroed stride-wide gap (the pad bytes must be
                // zero) and write the record bytes at its start.
                self.data.insert_zeroed(at, self.stride);
                self.data.as_mut_slice()[at..at + self.record_len].copy_from_slice(record);
            }
        }
        Ok(())
    }

    /// Remove the record at `slot`, if present. Returns whether it existed.
    pub fn remove(&mut self, slot: u64) -> bool {
        match self.slots.binary_search(&slot) {
            Ok(i) => {
                self.slots.remove(i);
                self.data.remove(i * self.stride, self.stride);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `slot` is occupied.
    pub fn contains(&self, slot: u64) -> bool {
        self.slots.binary_search(&slot).is_ok()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total stored bytes (the quantity the paper's per-GiB scan cost is
    /// normalized against). Excludes stride padding; see
    /// [`PirServer::padded_bytes`] for the bytes a sweep actually reads.
    pub fn stored_bytes(&self) -> usize {
        self.slots.len() * self.record_len
    }

    /// Bytes one full scan sweep reads: records at their padded stride.
    /// This is what the `pir.scan.bytes` counter advances by per sweep.
    pub fn padded_bytes(&self) -> usize {
        self.slots.len() * self.stride
    }

    /// Bytes between consecutive record starts (`record_len` rounded up to
    /// a word multiple; the pad bytes are always zero).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The DPF parameters queries must use.
    pub fn params(&self) -> DpfParams {
        self.params
    }

    /// Iterate over the stored `(slot, record)` pairs in slot order.
    /// Used when re-materializing the store into another layout (e.g.
    /// splitting it across deployment shards).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let bytes = self.data.as_slice();
        self.slots.iter().enumerate().map(move |(i, &slot)| {
            (
                slot,
                &bytes[i * self.stride..i * self.stride + self.record_len],
            )
        })
    }

    /// The fixed record (bucket) size in bytes.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// The one place query parameters are validated against the database,
    /// shared by [`PirServer::answer`] and [`PirServer::answer_batch`].
    fn check_query_params(&self, keys: &[DpfKey]) -> Result<(), PirError> {
        if keys.iter().any(|k| k.params() != self.params) {
            return Err(PirError::ParamsMismatch);
        }
        Ok(())
    }

    /// Answer one query: full-domain DPF evaluation plus the data scan.
    /// Delegates to [`PirServer::answer_batch`] with a batch of one so
    /// batching semantics live in exactly one place.
    pub fn answer(&self, key: &DpfKey) -> Result<Vec<u8>, PirError> {
        let mut answers = self.answer_batch(std::slice::from_ref(key))?;
        Ok(answers.pop().expect("batch of one"))
    }

    /// The scan half of [`PirServer::answer`], exposed so the sharded
    /// deployment (which receives pre-expanded sub-tree evaluations from a
    /// front-end, §5.2) can reuse it.
    ///
    /// `bits` is the packed full-domain share bit vector; a vector of the
    /// wrong length means the query was generated for other parameters and
    /// is rejected (in release builds it would otherwise index out of
    /// bounds mid-scan).
    pub fn scan(&self, bits: &[u8]) -> Result<Vec<u8>, PirError> {
        if bits.len() != self.params.output_len() {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        let mut answers = self.scan_rows_range(0..self.slots.len(), &[bits]);
        Ok(answers.pop().expect("batch of one"))
    }

    /// Scan only the records at indices `records` (not slots — positions in
    /// the occupied-slot list). The building block a worker pool partitions
    /// the scan over; partial accumulators XOR together into the full
    /// answer. Callers must pre-validate `bits` (see [`PirServer::scan`]).
    pub fn scan_range(&self, records: Range<usize>, bits: &[u8]) -> Vec<u8> {
        debug_assert_eq!(bits.len(), self.params.output_len());
        self.scan_rows_range(records, &[bits])
            .pop()
            .expect("batch of one")
    }

    /// One scan pass answering many pre-evaluated bit vectors at once: the
    /// batched analogue of [`PirServer::scan`].
    pub fn scan_batch(&self, bit_vecs: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, PirError> {
        if bit_vecs
            .iter()
            .any(|bits| bits.len() != self.params.output_len())
        {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        let rows: Vec<&[u8]> = bit_vecs.iter().map(|b| b.as_slice()).collect();
        Ok(self.scan_rows_range(0..self.slots.len(), &rows))
    }

    /// Batched scan over the record-index range `records` only; the
    /// range-partitioned building block of [`PirServer::scan_batch`].
    /// Callers must pre-validate the bit vectors.
    pub fn scan_batch_range(&self, records: Range<usize>, bit_vecs: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let rows: Vec<&[u8]> = bit_vecs.iter().map(|b| b.as_slice()).collect();
        self.scan_rows_range(records, &rows)
    }

    /// One scan pass answering a whole evaluated [`BitMatrix`] — the
    /// preferred batched entry point: the matrix is one allocation for the
    /// entire batch and its rows are word-aligned for the kernel.
    pub fn scan_matrix(&self, matrix: &BitMatrix) -> Result<Vec<Vec<u8>>, PirError> {
        if matrix.row_bytes() != self.params.output_len() {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        Ok(self.scan_matrix_range(0..self.slots.len(), matrix))
    }

    /// Matrix scan over the record-index range `records` only; the
    /// range-partitioned building block of [`PirServer::scan_matrix`].
    /// Callers must pre-validate the matrix (see [`PirServer::scan_matrix`]).
    pub fn scan_matrix_range(&self, records: Range<usize>, matrix: &BitMatrix) -> Vec<Vec<u8>> {
        debug_assert_eq!(matrix.row_bytes(), self.params.output_len());
        let rows = matrix.row_slices();
        self.scan_rows_range(records, &rows)
    }

    /// The one core scan every public path funnels into: run the kernel
    /// over the padded buffer, account the swept bytes, and slice the
    /// word-wide accumulators back down to `record_len`.
    fn scan_rows_range(&self, records: Range<usize>, rows: &[&[u8]]) -> Vec<Vec<u8>> {
        debug_assert!(records.end <= self.slots.len());
        if rows.is_empty() {
            return Vec::new();
        }
        let stride_words = self.stride / 8;
        let mut acc = vec![0u64; rows.len() * stride_words];
        kernel::scan_batch_kernel(
            self.data.as_words(),
            stride_words,
            &self.slots,
            records.clone(),
            rows,
            &mut acc,
        );
        // One sweep serves the whole batch: the memory traffic is the
        // range's padded bytes, independent of the batch size.
        lightweb_telemetry::counter!("pir.scan.bytes").add((records.len() * self.stride) as u64);
        acc.chunks(stride_words)
            .map(|words| kernel::words_as_bytes(words)[..self.record_len].to_vec())
            .collect()
    }

    /// Answer a batch of queries in one pass over the data (§5.1 batching).
    ///
    /// All DPF keys are evaluated first, into one contiguous
    /// [`BitMatrix`]; the scan then visits each record once, accumulating
    /// into every query's bucket. With `b` queries the per-query scan cost
    /// drops by ~`b`× while the DPF-evaluation cost is unchanged — the
    /// origin of the paper's latency/throughput trade-off.
    pub fn answer_batch(&self, keys: &[DpfKey]) -> Result<Vec<Vec<u8>>, PirError> {
        self.check_query_params(keys)?;
        let mut matrix = BitMatrix::new(keys.len(), self.params.output_len());
        {
            let _eval = lightweb_telemetry::span!("pir.eval.ns");
            for (i, key) in keys.iter().enumerate() {
                key.eval_full_into(matrix.row_mut(i));
            }
        }
        self.scan_matrix(&matrix)
    }
}

/// A pair of DPF keys forming one two-server PIR query.
#[derive(Clone, Debug)]
pub struct TwoServerQuery {
    /// Key for server 0.
    pub key0: DpfKey,
    /// Key for server 1.
    pub key1: DpfKey,
    /// The queried slot (client-side only; never sent).
    pub slot: u64,
}

/// Client side of the two-server protocol.
#[derive(Clone, Copy, Debug)]
pub struct TwoServerClient {
    params: DpfParams,
    record_len: usize,
}

impl TwoServerClient {
    /// Create a client for databases with the given parameters.
    pub fn new(params: DpfParams, record_len: usize) -> Self {
        Self { params, record_len }
    }

    /// The negotiated record (bucket) length.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// The negotiated DPF parameters.
    pub fn params(&self) -> DpfParams {
        self.params
    }

    /// Build the query for `slot`: a fresh DPF key pair for the point
    /// function at `slot`.
    pub fn query_slot(&self, slot: u64) -> TwoServerQuery {
        assert!(slot < self.params.domain_size(), "slot outside domain");
        let (key0, key1) = gen(&self.params, slot);
        TwoServerQuery { key0, key1, slot }
    }

    /// Combine the two servers' answers into the plaintext bucket.
    pub fn combine(answer0: &[u8], answer1: &[u8]) -> Result<Vec<u8>, PirError> {
        if answer0.len() != answer1.len() {
            return Err(PirError::AnswerLen);
        }
        Ok(answer0
            .iter()
            .zip(answer1.iter())
            .map(|(a, b)| a ^ b)
            .collect())
    }

    /// Upload bytes for one query (both servers' keys).
    pub fn upload_bytes(&self) -> usize {
        let q = self.query_slot(0);
        q.key0.serialized_len() + q.key1.serialized_len()
    }

    /// Download bytes for one query (both servers' buckets).
    pub fn download_bytes(&self) -> usize {
        2 * self.record_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DpfParams {
        DpfParams::new(10, 3).unwrap()
    }

    fn sample_entries(n: usize, record_len: usize) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let slot = (i as u64 * 37 + 5) % (1 << 10);
                let mut rec = vec![0u8; record_len];
                rec[0] = i as u8;
                rec[record_len - 1] = (i * 3) as u8;
                (slot, rec)
            })
            .collect()
    }

    #[test]
    fn end_to_end_retrieval() {
        let p = params();
        let entries = sample_entries(25, 32);
        let s0 = PirServer::from_entries(p, 32, entries.clone()).unwrap();
        let s1 = s0.clone();
        let client = TwoServerClient::new(p, 32);
        for (slot, rec) in &entries {
            let q = client.query_slot(*slot);
            let a0 = s0.answer(&q.key0).unwrap();
            let a1 = s1.answer(&q.key1).unwrap();
            assert_eq!(TwoServerClient::combine(&a0, &a1).unwrap(), *rec);
        }
    }

    #[test]
    fn querying_an_empty_slot_returns_zeros() {
        let p = params();
        let entries = sample_entries(5, 16);
        let occupied: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let s0 = PirServer::from_entries(p, 16, entries.clone()).unwrap();
        let s1 = s0.clone();
        let client = TwoServerClient::new(p, 16);
        let empty_slot = (0..p.domain_size())
            .find(|s| !occupied.contains(s))
            .unwrap();
        let q = client.query_slot(empty_slot);
        let a0 = s0.answer(&q.key0).unwrap();
        let a1 = s1.answer(&q.key1).unwrap();
        assert_eq!(TwoServerClient::combine(&a0, &a1).unwrap(), vec![0u8; 16]);
    }

    #[test]
    fn single_answer_is_pseudorandom_not_the_record() {
        let p = params();
        let entries = sample_entries(10, 16);
        let s0 = PirServer::from_entries(p, 16, entries.clone()).unwrap();
        let client = TwoServerClient::new(p, 16);
        let q = client.query_slot(entries[0].0);
        let a0 = s0.answer(&q.key0).unwrap();
        // A single server's answer XORs a pseudorandom subset of records —
        // overwhelmingly unlikely to equal the target record exactly.
        assert_ne!(a0, entries[0].1);
    }

    #[test]
    fn duplicate_slot_rejected() {
        let p = params();
        let entries = vec![(3u64, vec![0u8; 8]), (3u64, vec![1u8; 8])];
        assert_eq!(
            PirServer::from_entries(p, 8, entries).unwrap_err(),
            PirError::DuplicateSlot(3)
        );
    }

    #[test]
    fn wrong_record_len_rejected() {
        let p = params();
        let entries = vec![(3u64, vec![0u8; 7])];
        assert!(matches!(
            PirServer::from_entries(p, 8, entries).unwrap_err(),
            PirError::RecordLen {
                expected: 8,
                got: 7
            }
        ));
    }

    #[test]
    fn slot_out_of_range_rejected() {
        let p = params();
        let entries = vec![(1 << 10, vec![0u8; 8])];
        assert!(matches!(
            PirServer::from_entries(p, 8, entries).unwrap_err(),
            PirError::SlotOutOfRange { .. }
        ));
    }

    #[test]
    fn params_mismatch_rejected() {
        let p = params();
        let server = PirServer::from_entries(p, 8, sample_entries(3, 8)).unwrap();
        let other = DpfParams::new(8, 2).unwrap();
        let client = TwoServerClient::new(other, 8);
        let q = client.query_slot(0);
        assert_eq!(
            server.answer(&q.key0).unwrap_err(),
            PirError::ParamsMismatch
        );
        assert_eq!(
            server.answer_batch(&[q.key0]).unwrap_err(),
            PirError::ParamsMismatch
        );
    }

    #[test]
    fn upsert_replaces_and_inserts() {
        let p = params();
        let mut server = PirServer::new(p, 4);
        server.upsert(10, &[1, 2, 3, 4]).unwrap();
        server.upsert(5, &[5, 6, 7, 8]).unwrap();
        server.upsert(10, &[9, 9, 9, 9]).unwrap();
        assert_eq!(server.len(), 2);
        assert!(server.contains(5) && server.contains(10));

        // Retrieval reflects the replacement.
        let s1 = server.clone();
        let client = TwoServerClient::new(p, 4);
        let q = client.query_slot(10);
        let got = TwoServerClient::combine(
            &server.answer(&q.key0).unwrap(),
            &s1.answer(&q.key1).unwrap(),
        )
        .unwrap();
        assert_eq!(got, vec![9, 9, 9, 9]);
    }

    #[test]
    fn remove_deletes_record() {
        let p = params();
        let mut server =
            PirServer::from_entries(p, 4, vec![(1, vec![1; 4]), (2, vec![2; 4])]).unwrap();
        assert!(server.remove(1));
        assert!(!server.remove(1));
        assert_eq!(server.len(), 1);
        assert_eq!(server.stored_bytes(), 4);
        assert!(!server.contains(1));
    }

    #[test]
    fn combine_length_mismatch_rejected() {
        assert_eq!(
            TwoServerClient::combine(&[0; 4], &[0; 5]).unwrap_err(),
            PirError::AnswerLen
        );
    }

    #[test]
    fn upload_download_accounting() {
        // At d = 22 the paper reports ~13.6 KiB total per request: two DPF
        // keys up plus two 4 KiB buckets down. Check our accounting has the
        // same structure (upload ~ hundreds of bytes, download = 2 buckets).
        let p = DpfParams::new(22, 7).unwrap();
        let client = TwoServerClient::new(p, 4096);
        assert_eq!(client.download_bytes(), 8192);
        let up = client.upload_bytes();
        assert!(up > 300 && up < 1200, "upload {up} bytes");
    }

    #[test]
    fn short_bit_vector_rejected_not_panicking() {
        // Regression: a short `bits` slice used to be only debug_assert!ed
        // and indexed out of bounds mid-scan in release builds.
        let p = params();
        let server = PirServer::from_entries(p, 16, sample_entries(10, 16)).unwrap();
        let short = vec![0u8; p.output_len() - 1];
        assert_eq!(server.scan(&short).unwrap_err(), PirError::ParamsMismatch);
        let long = vec![0u8; p.output_len() + 1];
        assert_eq!(server.scan(&long).unwrap_err(), PirError::ParamsMismatch);
        let mixed = vec![vec![0u8; p.output_len()], vec![0u8; 1]];
        assert_eq!(
            server.scan_batch(&mixed).unwrap_err(),
            PirError::ParamsMismatch
        );
    }

    #[test]
    fn range_partials_xor_to_full_scan() {
        let p = params();
        let server = PirServer::from_entries(p, 16, sample_entries(25, 16)).unwrap();
        let client = TwoServerClient::new(p, 16);
        let q = client.query_slot(42);
        let bits = q.key0.eval_full();
        let full = server.scan(&bits).unwrap();
        for split in [0, 1, 7, 12, 25] {
            let mut acc = server.scan_range(0..split, &bits);
            let hi = server.scan_range(split..server.len(), &bits);
            for (a, b) in acc.iter_mut().zip(hi.iter()) {
                *a ^= *b;
            }
            assert_eq!(acc, full, "split at {split}");
        }
        let batched = server.scan_batch(std::slice::from_ref(&bits)).unwrap();
        assert_eq!(batched[0], full);
    }

    #[test]
    fn stride_is_word_padded_and_buffer_is_aligned() {
        let p = params();
        // 13-byte records force real padding: stride must round to 16.
        let server = PirServer::from_entries(p, 13, sample_entries(9, 13)).unwrap();
        assert_eq!(server.stride(), 16);
        assert_eq!(server.stored_bytes(), 9 * 13);
        assert_eq!(server.padded_bytes(), 9 * 16);
        // The data buffer base is cache-line aligned, so with the stride a
        // word multiple every record start is word-aligned.
        let base = server.iter().next().unwrap().1.as_ptr() as usize;
        assert_eq!(base % 64, 0, "buffer base must be 64-byte aligned");
        // Word-multiple record lengths need no padding at all.
        let exact = PirServer::from_entries(p, 16, sample_entries(4, 16)).unwrap();
        assert_eq!(exact.stride(), 16);
        assert_eq!(exact.stored_bytes(), exact.padded_bytes());
    }

    #[test]
    fn padded_layout_answers_match_unpadded_semantics() {
        // The reference answer computed straight from the entries (an
        // unpadded, byte-exact model) must equal the padded server's scan
        // for every record length around the word boundary.
        let p = params();
        for record_len in [1usize, 7, 8, 9, 13, 16, 31] {
            let entries = sample_entries(17, record_len);
            let server = PirServer::from_entries(p, record_len, entries.clone()).unwrap();
            let q = TwoServerClient::new(p, record_len).query_slot(entries[3].0);
            let bits = q.key0.eval_full();
            let mut expected = vec![0u8; record_len];
            for (slot, rec) in &entries {
                if (bits[(slot / 8) as usize] >> (slot % 8)) & 1 == 1 {
                    for (e, r) in expected.iter_mut().zip(rec.iter()) {
                        *e ^= *r;
                    }
                }
            }
            assert_eq!(
                server.scan(&bits).unwrap(),
                expected,
                "record_len {record_len}"
            );
        }
    }

    #[test]
    fn upsert_and_remove_preserve_padding_invariants() {
        // Mid-buffer inserts and removals must keep every record at its
        // stride slot with zero padding (a stale pad byte would corrupt
        // every later answer).
        let p = params();
        let mut server = PirServer::new(p, 5);
        for slot in [40u64, 10, 30, 20, 50] {
            server.upsert(slot, &[slot as u8; 5]).unwrap();
        }
        server.remove(30);
        server.upsert(15, &[7u8; 5]).unwrap();
        server.upsert(40, &[9u8; 5]).unwrap();
        let s1 = server.clone();
        let client = TwoServerClient::new(p, 5);
        for (slot, expected) in [
            (10u64, [10u8; 5]),
            (15, [7; 5]),
            (20, [20; 5]),
            (40, [9; 5]),
        ] {
            let q = client.query_slot(slot);
            let got = TwoServerClient::combine(
                &server.answer(&q.key0).unwrap(),
                &s1.answer(&q.key1).unwrap(),
            )
            .unwrap();
            assert_eq!(got, expected, "slot {slot}");
        }
    }

    #[test]
    fn matrix_scan_matches_vec_scan() {
        let p = params();
        let server = PirServer::from_entries(p, 24, sample_entries(15, 24)).unwrap();
        let client = TwoServerClient::new(p, 24);
        let bit_vecs: Vec<Vec<u8>> = (0..4u64)
            .map(|i| client.query_slot(i * 11).key0.eval_full())
            .collect();
        let matrix = lightweb_dpf::BitMatrix::from_rows(p.output_len(), &bit_vecs).unwrap();
        assert_eq!(
            server.scan_matrix(&matrix).unwrap(),
            server.scan_batch(&bit_vecs).unwrap()
        );
        // A matrix built for other parameters is rejected.
        let wrong = lightweb_dpf::BitMatrix::new(1, p.output_len() - 1);
        assert_eq!(
            server.scan_matrix(&wrong).unwrap_err(),
            PirError::ParamsMismatch
        );
    }

    #[test]
    fn batch_of_one_matches_single() {
        let p = params();
        let server = PirServer::from_entries(p, 16, sample_entries(10, 16)).unwrap();
        let client = TwoServerClient::new(p, 16);
        let q = client.query_slot(5 % p.domain_size());
        let batched = server.answer_batch(std::slice::from_ref(&q.key0)).unwrap();
        assert_eq!(batched[0], server.answer(&q.key0).unwrap());
    }
}
