//! Differential proptest suite: the scan kernel must produce answers
//! bit-identical to a naive oracle written here (per record: if the
//! query's share bit is set, XOR the record in), across the awkward
//! shapes a vectorized loop is most likely to get wrong — odd record
//! lengths (real stride padding), non-byte-aligned occupied-slot counts,
//! empty batches, batch sizes 1–32, and partial record ranges.

use lightweb_dpf::{gen_with_seeds, BitMatrix, DpfParams};
use lightweb_pir::PirServer;
use proptest::prelude::*;
use std::ops::Range;

/// Deterministic entries over a domain, ascending by slot (so a position
/// in this list is the server's record index), with slot spacing chosen
/// so the occupied count is rarely a multiple of 8 (non-byte-aligned
/// scans).
fn entries(params: DpfParams, n: usize, record_len: usize) -> Vec<(u64, Vec<u8>)> {
    (0..n as u64)
        .map(|i| {
            let slot = (i * 2654435761) % params.domain_size();
            let rec: Vec<u8> = (0..record_len)
                .map(|b| (b as u64 * 31 + i * 7 + 1) as u8)
                .collect();
            (slot, rec)
        })
        .collect::<std::collections::BTreeMap<_, _>>()
        .into_iter()
        .collect()
}

/// Evaluated share rows for a batch of queries, straight from real DPF
/// keys so the bit density matches production (~50%).
fn bit_vecs(params: DpfParams, batch: usize) -> Vec<Vec<u8>> {
    (0..batch as u64)
        .map(|i| {
            let alpha = (i * 37 + 5) % params.domain_size();
            let (k0, k1) = gen_with_seeds(&params, alpha, [i as u8; 16], [!(i as u8); 16]);
            if i % 2 == 0 { k0 } else { k1 }.eval_full()
        })
        .collect()
}

/// The oracle: one answer per row, computed from the unpadded entries
/// with a branch on every share bit.
fn naive_scan(
    es: &[(u64, Vec<u8>)],
    records: Range<usize>,
    record_len: usize,
    rows: &[Vec<u8>],
) -> Vec<Vec<u8>> {
    rows.iter()
        .map(|bits| {
            let mut acc = vec![0u8; record_len];
            for (slot, rec) in &es[records.clone()] {
                if (bits[(slot / 8) as usize] >> (slot % 8)) & 1 == 1 {
                    for (a, r) in acc.iter_mut().zip(rec) {
                        *a ^= r;
                    }
                }
            }
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full scans agree with the oracle across odd record lengths, slot
    /// counts, and batch sizes 1–32.
    #[test]
    fn kernel_matches_naive_oracle(
        domain_bits in 6u32..11,
        n_records in 1usize..60,
        record_len in 1usize..40,
        batch in 1usize..33,
    ) {
        let params = DpfParams::new(domain_bits, 2.min(domain_bits - 1)).unwrap();
        let es = entries(params, n_records, record_len);
        let server = PirServer::from_entries(params, record_len, es.clone()).unwrap();
        let rows = bit_vecs(params, batch);
        let got = server.scan_batch_range(0..server.len(), &rows);
        prop_assert_eq!(got.len(), batch);
        prop_assert_eq!(got, naive_scan(&es, 0..es.len(), record_len, &rows));
    }

    /// Partial record ranges: each half matches the oracle over the same
    /// range, and the halves XOR back to the full scan.
    #[test]
    fn partial_ranges_recombine(
        n_records in 1usize..40,
        record_len in 1usize..24,
        split_pick in any::<prop::sample::Index>(),
        batch in 1usize..9,
    ) {
        let params = DpfParams::new(9, 2).unwrap();
        let es = entries(params, n_records, record_len);
        let server = PirServer::from_entries(params, record_len, es.clone()).unwrap();
        let rows = bit_vecs(params, batch);
        let split = split_pick.index(server.len() + 1);
        let lo = server.scan_batch_range(0..split, &rows);
        let hi = server.scan_batch_range(split..server.len(), &rows);
        prop_assert_eq!(&lo, &naive_scan(&es, 0..split, record_len, &rows), "split {}", split);
        prop_assert_eq!(&hi, &naive_scan(&es, split..es.len(), record_len, &rows), "split {}", split);
        let recombined: Vec<Vec<u8>> = lo
            .into_iter()
            .zip(hi)
            .map(|(mut a, b)| {
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x ^= *y;
                }
                a
            })
            .collect();
        prop_assert_eq!(recombined, naive_scan(&es, 0..es.len(), record_len, &rows), "split {}", split);
    }

    /// Empty batches and empty ranges are no-ops.
    #[test]
    fn empty_batches_and_ranges(
        n_records in 0usize..20,
        record_len in 1usize..16,
    ) {
        let params = DpfParams::new(8, 2).unwrap();
        let es = entries(params, n_records, record_len);
        let server = PirServer::from_entries(params, record_len, es).unwrap();
        let empty: Vec<Vec<u8>> = Vec::new();
        prop_assert_eq!(server.scan_batch_range(0..server.len(), &empty).len(), 0);
        let rows = bit_vecs(params, 3);
        let accs = server.scan_batch_range(0..0, &rows);
        prop_assert_eq!(accs.len(), 3);
        let zeros = vec![0u8; record_len];
        for acc in &accs {
            prop_assert_eq!(acc.as_slice(), zeros.as_slice());
        }
    }

    /// The matrix entry point agrees with the two-server protocol's
    /// reconstruction: whatever the kernel layout does to the batch, the
    /// decoded record is unchanged.
    #[test]
    fn matrix_path_reconstructs_records(
        domain_bits in 6u32..10,
        n_records in 1usize..30,
        record_len in 1usize..32,
        pick in any::<prop::sample::Index>(),
    ) {
        let params = DpfParams::new(domain_bits, 2.min(domain_bits - 1)).unwrap();
        let es = entries(params, n_records, record_len);
        let server0 = PirServer::from_entries(params, record_len, es.clone()).unwrap();
        let server1 = server0.clone();
        let (slot, expected) = &es[pick.index(es.len())];
        let (k0, k1) = gen_with_seeds(&params, *slot, [21; 16], [22; 16]);
        let mut matrix = BitMatrix::new(2, params.output_len());
        k0.eval_full_into(matrix.row_mut(0));
        k1.eval_full_into(matrix.row_mut(1));
        let a0 = &server0.scan_matrix(&matrix).unwrap()[0];
        let a1 = &server1.scan_matrix(&matrix).unwrap()[1];
        let got: Vec<u8> = a0.iter().zip(a1.iter()).map(|(x, y)| x ^ y).collect();
        prop_assert_eq!(&got, expected);
    }
}
