#![warn(missing_docs)]

//! # lightweb-core — the zero-leakage transfer protocol (ZLTP)
//!
//! ZLTP (paper §2) is a client-server application-layer protocol exposing a
//! single operation, **private-GET**: `GET(key) -> value`, where the key is
//! an arbitrary string and the value a fixed-length blob — with the
//! property that *no one*, not the network and not the server, learns which
//! key-value pair the client fetched.
//!
//! ## Session anatomy (§2)
//!
//! 1. The client connects and sends a `ClientHello` listing the modes of
//!    operation it supports.
//! 2. The server answers with a `ServerHello` carrying the universe id, the
//!    fixed blob size it serves, the keyword-hash parameters, and the
//!    chosen mode.
//! 3. The client issues `Get` requests; each carries a mode-specific
//!    payload (a DPF key, an LWE query vector, or a sealed keyword). The
//!    server answers with fixed-size `GetResponse` frames.
//!
//! ## Modes of operation (§2.2)
//!
//! * [`Mode::TwoServerPir`] — the paper's prototype mode: the client holds
//!   sessions with **two** non-colluding ZLTP servers and sends each a DPF
//!   key share; each server does a full-domain DPF evaluation plus a linear
//!   scan (`lightweb-pir`). Security: non-collusion + PRG.
//! * [`Mode::SingleServerLwe`] — single-server PIR from the learning-with-
//!   errors assumption (SimplePIR-style). Security: cryptographic only.
//!   Higher communication/computation, as the paper notes.
//! * [`Mode::Enclave`] — the key travels sealed to a hardware enclave that
//!   looks it up through Path ORAM (`lightweb-oram`). Security: hardware.
//!   Polylogarithmic cost. (This reproduction simulates the enclave and its
//!   attested channel; see `lightweb-oram` and DESIGN.md.)
//!
//! ## Non-goals, faithfully reproduced (§2.1)
//!
//! ZLTP does **not** hide the number or timing of requests, does not
//! provide integrity against a malicious server, and does not guarantee
//! availability. The lightweb layer above restores traffic-shape privacy
//! by fixing the number of fetches per page view.
//!
//! ## What's here
//!
//! * [`wire`] — length-prefixed binary framing and every protocol message.
//! * [`transport`] — a blocking byte-stream abstraction with in-memory and
//!   TCP (`std::net`) implementations, plus framing on top.
//! * [`server`] — the ZLTP server engine: the session logic (driven by a
//!   blocking loop for in-memory streams and by `lightweb-reactor` for
//!   TCP), the request **batcher** of §5.1 (one scan pass answers a whole
//!   batch), and admin (publisher push) entry points.
//! * [`client`] — session handles and the mode-aware clients, including the
//!   two-server orchestration and combination.
//! * [`deployment`] — the §5.2 scale-out: a front-end that splits DPF
//!   evaluation across data-server shards and XOR-combines their answers.
//! * [`shardnet`] — the same split across real TCP: standalone shard
//!   servers and the front-end fan-out driving them with `TCP_NODELAY`
//!   links.

pub mod client;
pub mod config;
pub mod deployment;
pub mod error;
pub mod server;
pub mod shardnet;
pub mod transport;
pub mod wire;

pub use client::{EnclaveClient, LweClientSession, SessionStats, TwoServerZltp, ZltpSession};
pub use config::{BatchConfig, Mode, ModeSet, ServerConfig};
pub use deployment::{ShardedDeployment, ShardedQueryStats};
pub use error::ZltpError;
pub use server::{Completion, HelloOutcome, InProcServer, SessionTicket, Submitted, ZltpServer};
pub use shardnet::{ShardFanout, ShardNetServer};
pub use transport::{
    encode_frame, mem_pair, tune_zltp_socket, FrameDecoder, FramedConn, MemDuplex,
};
pub use wire::{Frame, Message, PROTOCOL_VERSION};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Decoding arbitrary bytes as a frame must never panic — it either
        /// yields a message or a wire error. This is the parser's fuzz
        /// safety net for hostile peers.
        #[test]
        fn frame_decoder_is_total(
            msg_type in any::<u8>(),
            payload in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let frame = wire::Frame { msg_type, payload };
            let _ = wire::Message::from_frame(&frame);
        }

        /// Every encodable message round-trips through its frame.
        #[test]
        fn message_roundtrip(
            request_id in any::<u32>(),
            payload in prop::collection::vec(any::<u8>(), 0..256),
            universe_id in "[a-z0-9./-]{0,40}",
            code in any::<u16>(),
        ) {
            for msg in [
                wire::Message::Get { request_id, payload: payload.clone() },
                wire::Message::GetResponse { request_id, payload: payload.clone() },
                wire::Message::ServerHello {
                    version: 1,
                    universe_id: universe_id.clone(),
                    mode: 1,
                    blob_len: request_id,
                    domain_bits: 22,
                    term_bits: 7,
                    keyword_hash_key: [7; 16],
                    extra: payload.clone(),
                },
                wire::Message::Error { code, message: universe_id.clone() },
            ] {
                let back = wire::Message::from_frame(&msg.to_frame()).unwrap();
                prop_assert_eq!(back, msg);
            }
        }

        /// A framed connection fed arbitrary leading bytes must error (or
        /// deliver a valid message), never panic or read out of bounds.
        #[test]
        fn framed_recv_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 5..64)) {
            use std::io::Write;
            let (mut a, b) = transport::mem_pair();
            a.write_all(&bytes).unwrap();
            drop(a);
            let mut conn = transport::FramedConn::new(b);
            // Drain until EOF/error; must terminate.
            for _ in 0..16 {
                if conn.recv().is_err() {
                    break;
                }
            }
        }
    }
}
