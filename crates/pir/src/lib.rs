#![warn(missing_docs)]

//! # lightweb-pir
//!
//! Private-information-retrieval engines for ZLTP (paper §2.2, §5).
//!
//! Two engines are provided, matching the paper's two cryptographic modes:
//!
//! * [`two_server`] — the prototype's primary mode: two non-colluding
//!   servers, distributed point functions, and a per-request linear scan
//!   over the stored key-value pairs. Upload is logarithmic in the key
//!   space; download is one fixed-size bucket. Includes the request
//!   *batching* of §5.1, which amortizes the data scan across a batch to
//!   trade latency for throughput.
//! * [`lwe`] — a single-server mode built on learning-with-errors (Regev)
//!   encryption in the style of SimplePIR. The paper notes such schemes
//!   "rest only on cryptographic assumptions" but carry higher
//!   communication and computation cost — this module exists so the
//!   benchmark harness can demonstrate exactly that trade-off.
//!
//! On top of the index-PIR engines, [`keyword`] maps arbitrary path strings
//! onto the DPF output domain (PIR *by keywords*, following
//! Chor-Gilboa-Naor), with the collision analysis of §5.1, and [`cuckoo`]
//! implements the cuckoo-hashing mitigation the paper proposes for
//! collisions.

mod aligned;
pub mod cuckoo;
pub mod cuckoo_pir;
pub mod kernel;
pub mod keyword;
pub mod lwe;
pub mod two_server;

pub use keyword::{analytic_collision_probability, KeywordMap};
pub use two_server::{PirError, PirServer, TwoServerClient, TwoServerQuery};

#[cfg(test)]
mod proptests {
    use super::*;
    use lightweb_dpf::DpfParams;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every stored record is retrievable through the full two-server
        /// protocol, and the servers' answers are individually meaningless.
        #[test]
        fn two_server_pir_retrieves_any_record(
            domain_bits in 6u32..10,
            n_records in 1usize..40,
            record_len in 1usize..64,
            pick in any::<prop::sample::Index>(),
        ) {
            let params = DpfParams::new(domain_bits, 2.min(domain_bits - 1)).unwrap();
            let mut entries = Vec::new();
            for i in 0..n_records {
                let slot = (i as u64 * 7919) % params.domain_size();
                let rec: Vec<u8> = (0..record_len).map(|b| (b + i) as u8).collect();
                entries.push((slot, rec));
            }
            entries.sort_by_key(|e| e.0);
            entries.dedup_by_key(|e| e.0);

            let server0 = PirServer::from_entries(params, record_len, entries.clone()).unwrap();
            let server1 = PirServer::from_entries(params, record_len, entries.clone()).unwrap();
            let client = TwoServerClient::new(params, record_len);

            let (slot, expected) = &entries[pick.index(entries.len())];
            let query = client.query_slot(*slot);
            let r0 = server0.answer(&query.key0).unwrap();
            let r1 = server1.answer(&query.key1).unwrap();
            let got = TwoServerClient::combine(&r0, &r1).unwrap();
            prop_assert_eq!(&got, expected);
        }

        /// Batched answering returns exactly the same responses as
        /// one-at-a-time answering.
        #[test]
        fn batched_answers_match_sequential(
            domain_bits in 6u32..9,
            batch in 1usize..8,
        ) {
            let params = DpfParams::new(domain_bits, 2).unwrap();
            let record_len = 16usize;
            let mut entries: Vec<(u64, Vec<u8>)> = (0..20u64)
                .map(|i| {
                    let slot = (i * 13) % params.domain_size();
                    (slot, vec![i as u8; record_len])
                })
                .collect();
            entries.sort_by_key(|e| e.0);
            entries.dedup_by_key(|e| e.0);

            let server = PirServer::from_entries(params, record_len, entries.clone()).unwrap();
            let client = TwoServerClient::new(params, record_len);
            let queries: Vec<_> = (0..batch)
                .map(|i| client.query_slot(entries[i % entries.len()].0))
                .collect();
            let keys: Vec<_> = queries.iter().map(|q| q.key0.clone()).collect();
            let batched = server.answer_batch(&keys).unwrap();
            for (i, key) in keys.iter().enumerate() {
                prop_assert_eq!(&batched[i], &server.answer(key).unwrap());
            }
        }

        /// LWE single-server PIR decrypts to the right record.
        #[test]
        fn lwe_pir_retrieves_any_record(
            n_records in 2usize..24,
            record_len in 1usize..24,
            pick in any::<prop::sample::Index>(),
        ) {
            let params = lwe::LweParams::insecure_test();
            let records: Vec<Vec<u8>> = (0..n_records)
                .map(|i| (0..record_len).map(|b| (b * 31 + i * 7) as u8).collect())
                .collect();
            let server = lwe::LweServer::new(params, record_len, records.clone()).unwrap();
            let idx = pick.index(n_records);
            let client = lwe::LweClient::new(params, server.public_seed(), server.cols(), record_len);
            let query = client.query(idx);
            let answer = server.answer(&query.payload).unwrap();
            let got = client.decode(&query, server.hint(), &answer).unwrap();
            prop_assert_eq!(&got, &records[idx]);
        }
    }
}
