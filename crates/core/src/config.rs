//! Modes of operation and server configuration.

use lightweb_dpf::DpfParams;
use std::time::Duration;

/// A ZLTP mode of operation (paper §2.2). Numeric values are the on-wire
/// identifiers used during negotiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Mode {
    /// Two-server PIR over distributed point functions. Requires two
    /// non-colluding servers; the prototype mode the paper benchmarks.
    TwoServerPir = 1,
    /// Single-server PIR from LWE (SimplePIR-style). Cryptographic
    /// assumptions only; higher cost.
    SingleServerLwe = 2,
    /// Hardware-enclave + oblivious RAM. Polylogarithmic cost; trusts
    /// hardware.
    Enclave = 3,
}

impl Mode {
    /// Parse a wire identifier.
    pub fn from_wire(v: u8) -> Option<Mode> {
        match v {
            1 => Some(Mode::TwoServerPir),
            2 => Some(Mode::SingleServerLwe),
            3 => Some(Mode::Enclave),
            _ => None,
        }
    }

    /// The wire identifier.
    pub fn to_wire(self) -> u8 {
        self as u8
    }

    /// The security assumptions this mode rests on (paper §2.1), for
    /// operator dashboards and docs.
    pub fn assumptions(self) -> &'static str {
        match self {
            Mode::TwoServerPir => "non-collusion (1 of 2 servers honest) + PRG security",
            Mode::SingleServerLwe => "learning-with-errors hardness",
            Mode::Enclave => "hardware enclave isolation",
        }
    }
}

/// An ordered set of modes, most preferred first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeSet(Vec<Mode>);

impl ModeSet {
    /// Build from a preference-ordered list. Duplicates are removed,
    /// keeping the first occurrence.
    pub fn new(modes: impl IntoIterator<Item = Mode>) -> Self {
        let mut seen = Vec::new();
        for m in modes {
            if !seen.contains(&m) {
                seen.push(m);
            }
        }
        Self(seen)
    }

    /// The modes, most preferred first.
    pub fn modes(&self) -> &[Mode] {
        &self.0
    }

    /// Whether `mode` is in the set.
    pub fn contains(&self, mode: Mode) -> bool {
        self.0.contains(&mode)
    }

    /// Negotiate: the server picks its most-preferred mode that the client
    /// also supports (server preference wins, matching the paper's framing
    /// that *CDNs* choose which modes to support based on cost tolerance).
    pub fn negotiate(server: &ModeSet, client: &ModeSet) -> Option<Mode> {
        server.0.iter().copied().find(|m| client.contains(*m))
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Batching policy for the two-server PIR scan (paper §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum requests answered by one scan pass. 1 disables batching.
    /// The paper contrasts 1 (0.51 s latency, 2 req/s) with 16 (2.6 s,
    /// 6 req/s).
    pub max_batch: usize,
    /// The longest the batcher lingers for more requests before scanning
    /// a partial batch. An upper bound, not a fixed wait: lingering can
    /// save at most one pass, so the batcher waits `min(window, how long
    /// its previous pass took)`. Where a pass is longer than the window
    /// (paper-scale shards, full batches) the window is the wait.
    pub window: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            window: Duration::from_millis(10),
        }
    }
}

impl BatchConfig {
    /// No batching: every request pays a full scan.
    pub fn unbatched() -> Self {
        Self {
            max_batch: 1,
            window: Duration::ZERO,
        }
    }
}

/// Static configuration of one ZLTP server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The universe this server serves (e.g. `"main"`, `"large-pages"`).
    pub universe_id: String,
    /// Fixed blob size in bytes. §3.1: all data blobs in a universe share
    /// one fixed size (e.g. 4 KiB); code blobs live in a separate universe
    /// with a larger fixed size.
    pub blob_len: usize,
    /// log2 of the keyword slot domain (22 in the paper's microbenchmarks).
    pub domain_bits: u32,
    /// DPF early-termination width.
    pub term_bits: u32,
    /// Modes this server is willing to run, most preferred first.
    pub modes: ModeSet,
    /// Keyword-hash key shared by everyone in the universe.
    pub keyword_hash_key: [u8; 16],
    /// Batching policy (two-server PIR mode only).
    pub batch: BatchConfig,
    /// Which party of the two-server pair this instance plays (0 or 1).
    /// Ignored by single-server modes.
    pub party: u8,
    /// LWE secret dimension for the single-server mode. 1024 is the
    /// production-shaped choice; tests use smaller (insecure) values.
    pub lwe_n: usize,
    /// When non-zero, the two-server PIR backend runs as a §5.2 sharded
    /// deployment with `2^shard_prefix_bits` data-server shards behind an
    /// in-process front-end. 0 = monolithic.
    pub shard_prefix_bits: u32,
    /// Width of the scan pool the two-server PIR backend partitions its
    /// DPF evaluation and XOR scan across. 0 = auto: the
    /// `LIGHTWEB_SCAN_THREADS` environment variable if set, else the
    /// machine's available parallelism.
    pub scan_threads: usize,
}

impl ServerConfig {
    /// A small-universe config suitable for tests and examples: 1 KiB
    /// blobs, 2^14 slots.
    pub fn small(universe_id: &str, party: u8) -> Self {
        Self {
            universe_id: universe_id.to_string(),
            blob_len: 1024,
            domain_bits: 14,
            term_bits: 7,
            modes: ModeSet::new([Mode::TwoServerPir, Mode::Enclave, Mode::SingleServerLwe]),
            keyword_hash_key: [0x4c; 16],
            batch: BatchConfig::default(),
            party,
            lwe_n: 64,
            shard_prefix_bits: 0,
            scan_threads: 0,
        }
    }

    /// The load-harness deployment shape: two-server PIR only, 1 KiB
    /// blobs, 2^14 slots, and a short-window batcher (8-deep, 4 ms) so a
    /// rate sweep's saturation knee reflects scan cost rather than batch
    /// waits. Used by `reproduce load` and the load integration tests.
    pub fn load_test(universe_id: &str, party: u8) -> Self {
        Self {
            universe_id: universe_id.to_string(),
            blob_len: 1024,
            domain_bits: 14,
            term_bits: 7,
            modes: ModeSet::new([Mode::TwoServerPir]),
            keyword_hash_key: [0x4c; 16],
            batch: BatchConfig {
                max_batch: 8,
                window: Duration::from_millis(4),
            },
            party,
            lwe_n: 64,
            shard_prefix_bits: 0,
            scan_threads: 0,
        }
    }

    /// The paper's §5.1 microbenchmark shape: 4 KiB buckets, 2^22 slots.
    /// Heavy — benchmarks only.
    pub fn paper_microbench(party: u8) -> Self {
        Self {
            universe_id: "c4-shard".to_string(),
            blob_len: 4096,
            domain_bits: 22,
            term_bits: 7,
            modes: ModeSet::new([Mode::TwoServerPir]),
            keyword_hash_key: [0x4c; 16],
            batch: BatchConfig::default(),
            party,
            lwe_n: 1024,
            shard_prefix_bits: 0,
            scan_threads: 0,
        }
    }

    /// The DPF parameters implied by this config.
    pub fn dpf_params(&self) -> DpfParams {
        DpfParams::new(self.domain_bits, self.term_bits)
            .expect("ServerConfig carries validated DPF parameters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_wire_roundtrip() {
        for m in [Mode::TwoServerPir, Mode::SingleServerLwe, Mode::Enclave] {
            assert_eq!(Mode::from_wire(m.to_wire()), Some(m));
        }
        assert_eq!(Mode::from_wire(0), None);
        assert_eq!(Mode::from_wire(99), None);
    }

    #[test]
    fn negotiation_prefers_server_order() {
        let server = ModeSet::new([Mode::Enclave, Mode::TwoServerPir]);
        let client = ModeSet::new([Mode::TwoServerPir, Mode::Enclave]);
        assert_eq!(ModeSet::negotiate(&server, &client), Some(Mode::Enclave));
    }

    #[test]
    fn negotiation_fails_without_overlap() {
        let server = ModeSet::new([Mode::Enclave]);
        let client = ModeSet::new([Mode::TwoServerPir]);
        assert_eq!(ModeSet::negotiate(&server, &client), None);
    }

    #[test]
    fn modeset_dedups_preserving_order() {
        let s = ModeSet::new([Mode::Enclave, Mode::TwoServerPir, Mode::Enclave]);
        assert_eq!(s.modes(), &[Mode::Enclave, Mode::TwoServerPir]);
    }

    #[test]
    fn configs_produce_valid_params() {
        assert_eq!(ServerConfig::small("u", 0).dpf_params().domain_bits(), 14);
        assert_eq!(
            ServerConfig::paper_microbench(1).dpf_params().domain_bits(),
            22
        );
    }

    #[test]
    fn load_test_profile_is_two_server_only_with_short_batch_window() {
        let cfg = ServerConfig::load_test("load", 1);
        assert_eq!(cfg.modes.modes(), &[Mode::TwoServerPir]);
        assert_eq!(cfg.party, 1);
        assert_eq!(cfg.batch.max_batch, 8);
        assert!(cfg.batch.window <= Duration::from_millis(5));
        cfg.dpf_params();
    }

    #[test]
    fn assumptions_strings_cover_all_modes() {
        assert!(Mode::TwoServerPir.assumptions().contains("non-collusion"));
        assert!(Mode::SingleServerLwe.assumptions().contains("errors"));
        assert!(Mode::Enclave.assumptions().contains("hardware"));
    }
}
