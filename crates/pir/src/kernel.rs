//! The batched XOR scan kernel.
//!
//! The scan is the server's dominant per-request cost (§5.1: 103 of
//! 167 ms at 1 GiB) and is memory-bandwidth bound: every record is read
//! once per sweep and conditionally XORed into an accumulator. What makes
//! it fast is structural, and lives in the layout and the loop order, not
//! in hand-written vector code:
//!
//! 1. **A padded, aligned layout.** The database buffer is 64-byte
//!    aligned and every record stride is padded to a multiple of 8 (see
//!    [`two_server::PirServer`](crate::two_server::PirServer)), so the
//!    kernel has no per-record remainder handling and no loads that split
//!    a cache line at a record start.
//! 2. **One sweep per batch.** All queries' accumulators advance while a
//!    record is resident in L1 (records outermost, queries over the
//!    resident record), so the data is streamed from DRAM once per batch
//!    instead of once per query — the amortization that gives batched PIR
//!    its throughput (§5.1, and ZipPIR's single-server trick).
//!
//! There is exactly one kernel: a safe byte-wise masked XOR that LLVM
//! autovectorizes. Earlier revisions also carried a `u64`-word kernel and
//! an `unsafe` AVX2-intrinsics kernel behind an environment switch;
//! measured with `lwbench` at 16–64 MiB neither beat the byte loop by
//! more than the benchmark's bounds (DESIGN §13 has the tables), so they
//! were deleted rather than kept as options.
//!
//! The record loop is branch-free: DPF share bits are ~50% dense, so a
//! conditional skip would mispredict half the time; a broadcast mask
//! (`0x00` or `0xFF`) keeps the pipeline full and, per record, does
//! exactly the same work for every query — which is also what keeps the
//! scan's timing independent of the queried slot.

use std::ops::Range;

/// View a word slice as its bytes.
pub(crate) fn words_as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: `u64` has no padding, every byte pattern is valid, and `u8`
    // alignment is never stricter.
    unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, words.len() * 8) }
}

/// Mutable variant of [`words_as_bytes`].
pub(crate) fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: as above; writing arbitrary bytes into a `u64` is sound.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8) }
}

/// XOR-accumulate records `records` (positions in the occupied-slot list,
/// ascending-slot order) into per-query accumulators — one sweep of the
/// data serving the whole batch.
///
/// * `data` — the stride-padded record buffer as words; record `i`
///   occupies words `[i * stride_words, (i + 1) * stride_words)`.
/// * `slots` — the occupied slots, parallel to the record positions.
/// * `rows` — one packed share bit vector per query (bit `x` at byte
///   `x / 8`, LSB-first), each covering every slot in the domain.
/// * `acc` — `rows.len() * stride_words` accumulator words, XORed in
///   place (callers pass zeroed accumulators for a fresh scan, or chain
///   partial scans by reusing them).
pub fn scan_batch_kernel(
    data: &[u64],
    stride_words: usize,
    slots: &[u64],
    records: Range<usize>,
    rows: &[&[u8]],
    acc: &mut [u64],
) {
    assert!(records.end <= slots.len(), "record range outside database");
    assert!(
        data.len() >= records.end * stride_words,
        "data buffer shorter than record range"
    );
    assert_eq!(
        acc.len(),
        rows.len() * stride_words,
        "accumulator must hold stride_words words per query"
    );
    if rows.is_empty() || records.is_empty() || stride_words == 0 {
        return;
    }
    let stride = stride_words * 8;
    let data_bytes = words_as_bytes(data);
    let acc_bytes = words_as_bytes_mut(acc);
    for i in records {
        let slot = slots[i];
        let rec = &data_bytes[i * stride..(i + 1) * stride];
        for (q, row) in rows.iter().enumerate() {
            let mask = ((row[(slot / 8) as usize] >> (slot % 8)) & 1).wrapping_neg();
            let a = &mut acc_bytes[q * stride..(q + 1) * stride];
            for (dst, src) in a.iter_mut().zip(rec.iter()) {
                *dst ^= src & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(
        n_records: usize,
        stride_words: usize,
        batch: usize,
    ) -> (Vec<u64>, Vec<u64>, Vec<Vec<u8>>) {
        let domain = (n_records as u64 * 3 + 8).next_power_of_two();
        let slots: Vec<u64> = (0..n_records as u64).map(|i| i * 3 + 1).collect();
        let data: Vec<u64> = (0..n_records * stride_words)
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
            .collect();
        let row_bytes = (domain as usize).div_ceil(8);
        let rows: Vec<Vec<u8>> = (0..batch)
            .map(|q| {
                (0..row_bytes)
                    .map(|b| ((b * 131 + q * 17 + 7) % 251) as u8)
                    .collect()
            })
            .collect();
        (data, slots, rows)
    }

    /// Independent oracle: per query and record, test the share bit and
    /// XOR the whole record if it is set.
    fn naive(
        data: &[u64],
        sw: usize,
        slots: &[u64],
        records: Range<usize>,
        rows: &[&[u8]],
    ) -> Vec<u64> {
        let mut acc = vec![0u64; rows.len() * sw];
        for (q, row) in rows.iter().enumerate() {
            for i in records.clone() {
                let slot = slots[i] as usize;
                if row[slot / 8] & (1 << (slot % 8)) != 0 {
                    for w in 0..sw {
                        acc[q * sw + w] ^= data[i * sw + w];
                    }
                }
            }
        }
        acc
    }

    #[test]
    fn kernel_matches_naive_oracle() {
        for (n, sw, batch) in [
            (13usize, 3usize, 1usize),
            (40, 16, 5),
            (7, 1, 3),
            (64, 4, 16),
        ] {
            let (data, slots, rows) = sample(n, sw, batch);
            let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
            let mut acc = vec![0u64; batch * sw];
            scan_batch_kernel(&data, sw, &slots, 0..n, &row_refs, &mut acc);
            assert_eq!(
                acc,
                naive(&data, sw, &slots, 0..n, &row_refs),
                "n={n} sw={sw} b={batch}"
            );
        }
    }

    #[test]
    fn empty_batch_and_empty_range_are_no_ops() {
        let (data, slots, rows) = sample(8, 2, 2);
        let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut acc: Vec<u64> = Vec::new();
        scan_batch_kernel(&data, 2, &slots, 0..8, &[], &mut acc);
        let mut acc = vec![7u64; 2 * 2];
        scan_batch_kernel(&data, 2, &slots, 3..3, &row_refs, &mut acc);
        assert_eq!(acc, vec![7u64; 4]);
    }

    #[test]
    fn partial_ranges_xor_to_full_scan() {
        let (data, slots, rows) = sample(21, 5, 4);
        let row_refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        let full = naive(&data, 5, &slots, 0..21, &row_refs);
        for split in [0usize, 1, 10, 20, 21] {
            let mut acc = vec![0u64; 4 * 5];
            scan_batch_kernel(&data, 5, &slots, 0..split, &row_refs, &mut acc);
            scan_batch_kernel(&data, 5, &slots, split..21, &row_refs, &mut acc);
            assert_eq!(acc, full, "split {split}");
        }
    }
}
