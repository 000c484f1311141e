//! ZLTP client sessions and the mode-aware client drivers.
//!
//! [`ZltpSession`] is one negotiated connection to one server. On top of it:
//!
//! * [`TwoServerZltp`] — the paper's prototype client: sessions with two
//!   non-colluding servers, DPF key-pair generation per GET, XOR
//!   combination of the answers (§2.2, §5.1). The two servers are asked
//!   concurrently: every exchange (hello, GET, close) writes to both
//!   streams before it reads from either, so a GET costs one server
//!   round trip, not two — by ordering the blocking calls, no thread.
//! * [`LweClientSession`] — single-server mode: downloads the offline
//!   material (manifest + hint) once, then issues Regev-encrypted queries.
//! * [`EnclaveClient`] — enclave mode: seals the keyword to the enclave
//!   over the (simulated) attested channel.
//!
//! All drivers expose byte/request counters so the harness can reproduce
//! the paper's communication table (13.6 KiB per request at `d = 22`,
//! §5.1) without instrumenting the network.

use crate::config::{Mode, ModeSet};
use crate::error::ZltpError;
use crate::transport::FramedConn;
use crate::wire::{Message, PROTOCOL_VERSION};
use lightweb_crypto::aead::{ChaCha20Poly1305, AEAD_NONCE_LEN};
use lightweb_crypto::SipHash24;
use lightweb_dpf::DpfParams;
use lightweb_pir::lwe::{LweClient, LweParams};
use lightweb_pir::{KeywordMap, TwoServerClient};
use lightweb_telemetry::trace::{TraceContext, TraceSpan};
use std::io::{Read, Write};

/// Per-session traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Bytes sent on the wire (frames included).
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Private-GETs issued.
    pub requests: u64,
}

/// One negotiated ZLTP session.
pub struct ZltpSession<S: Read + Write> {
    conn: FramedConn<S>,
    mode: Mode,
    universe_id: String,
    blob_len: usize,
    params: DpfParams,
    keyword_map: KeywordMap,
    keyword_hash_key: [u8; 16],
    extra: Vec<u8>,
    next_request_id: u32,
    requests: u64,
}

impl<S: Read + Write> ZltpSession<S> {
    /// Connect: send `ClientHello`, validate the `ServerHello`, and return
    /// the ready session.
    pub fn connect(stream: S, client_modes: &ModeSet) -> Result<Self, ZltpError> {
        let conn = Self::send_hello(stream, client_modes)?;
        Self::recv_hello(conn, client_modes)
    }

    /// Send half of [`ZltpSession::connect`].
    fn send_hello(stream: S, client_modes: &ModeSet) -> Result<FramedConn<S>, ZltpError> {
        let mut conn = FramedConn::new(stream);
        conn.send(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            modes: client_modes.modes().iter().map(|m| m.to_wire()).collect(),
        })?;
        Ok(conn)
    }

    /// Receive half of [`ZltpSession::connect`]: validate the `ServerHello`.
    fn recv_hello(mut conn: FramedConn<S>, client_modes: &ModeSet) -> Result<Self, ZltpError> {
        match conn.recv()? {
            Message::ServerHello {
                version,
                universe_id,
                mode,
                blob_len,
                domain_bits,
                term_bits,
                keyword_hash_key,
                extra,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(ZltpError::VersionMismatch {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    });
                }
                let mode = Mode::from_wire(mode)
                    .ok_or_else(|| ZltpError::Wire(format!("unknown mode {mode}")))?;
                if !client_modes.contains(mode) {
                    return Err(ZltpError::NoCommonMode);
                }
                let params = DpfParams::new(domain_bits as u32, term_bits as u32)
                    .map_err(|e| ZltpError::Wire(e.to_string()))?;
                Ok(Self {
                    conn,
                    mode,
                    universe_id,
                    blob_len: blob_len as usize,
                    params,
                    keyword_map: KeywordMap::new(&keyword_hash_key, domain_bits as u32),
                    keyword_hash_key,
                    extra,
                    next_request_id: 1,
                    requests: 0,
                })
            }
            Message::Error { code, message } => Err(ZltpError::ServerError { code, message }),
            other => Err(ZltpError::UnexpectedMessage {
                expected: "ServerHello",
                got: other.name(),
            }),
        }
    }

    /// The negotiated mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The universe served on this session.
    pub fn universe_id(&self) -> &str {
        &self.universe_id
    }

    /// The fixed blob size on this session.
    pub fn blob_len(&self) -> usize {
        self.blob_len
    }

    /// The DPF parameters of the universe.
    pub fn params(&self) -> DpfParams {
        self.params
    }

    /// The keyword→slot map of the universe.
    pub fn keyword_map(&self) -> &KeywordMap {
        &self.keyword_map
    }

    /// Mode-specific metadata from the hello.
    pub fn extra(&self) -> &[u8] {
        &self.extra
    }

    /// Traffic counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            bytes_sent: self.conn.bytes_sent(),
            bytes_received: self.conn.bytes_received(),
            requests: self.requests,
        }
    }

    /// Issue one raw GET and wait for its response.
    pub fn get_raw(&mut self, payload: Vec<u8>) -> Result<Vec<u8>, ZltpError> {
        self.get_raw_traced(payload, None)
    }

    /// [`ZltpSession::get_raw`] with causal tracing: a
    /// `zltp.client.transport` span covers send→receive (a child of
    /// `parent` when given, otherwise the root of a fresh trace), and its
    /// context travels to the server as the frame's trace extension so
    /// server-side spans land in the same trace tree.
    pub fn get_raw_traced(
        &mut self,
        payload: Vec<u8>,
        parent: Option<&TraceContext>,
    ) -> Result<Vec<u8>, ZltpError> {
        let span = match parent {
            Some(p) => TraceSpan::child(p, "zltp.client.transport"),
            None => TraceSpan::root("zltp.client.transport"),
        };
        let request_id = self.send_get(payload, &span.ctx())?;
        self.recv_get(request_id)
    }

    /// Send half of a GET: allocate the request id, write the frame with
    /// `hop` as its trace extension, count the request. The returned id
    /// goes to the matching [`ZltpSession::recv_get`].
    fn send_get(&mut self, payload: Vec<u8>, hop: &TraceContext) -> Result<u32, ZltpError> {
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        self.conn.send_traced(
            &Message::Get {
                request_id,
                payload,
            },
            Some(hop),
        )?;
        self.requests += 1;
        Ok(request_id)
    }

    /// Receive half of a GET: the answer to `request_id`. A
    /// `ServerError` leaves the session in step (the server answered
    /// this request, with an error frame); after any other error the
    /// stream's position is unknown.
    fn recv_get(&mut self, request_id: u32) -> Result<Vec<u8>, ZltpError> {
        match self.conn.recv()? {
            Message::GetResponse {
                request_id: rid,
                payload,
            } => {
                if rid != request_id {
                    return Err(ZltpError::Wire(format!(
                        "response id {rid} does not match request id {request_id}"
                    )));
                }
                Ok(payload)
            }
            Message::Error { code, message } => Err(ZltpError::ServerError { code, message }),
            other => Err(ZltpError::UnexpectedMessage {
                expected: "GetResponse",
                got: other.name(),
            }),
        }
    }

    /// Send any message and receive the reply (used by mode drivers).
    pub(crate) fn exchange(&mut self, msg: &Message) -> Result<Message, ZltpError> {
        self.conn.send(msg)?;
        self.conn.recv()
    }

    /// Orderly close.
    pub fn close(mut self) -> Result<(), ZltpError> {
        self.conn.send(&Message::Close)?;
        // Best-effort: the server echoes Close; ignore errors on a peer
        // that already hung up.
        let _ = self.conn.recv();
        Ok(())
    }
}

/// The two-server PIR client: one session per server, XOR combination.
///
/// Every exchange writes to both servers before reading from either. Two
/// rules keep the overlapped sessions in step: once both requests of a GET
/// are written, both answers are read before anything is returned (so a
/// server's `Error` reply on one leg never strands the other leg's answer);
/// and any other failure of a leg — transport error, malformed or
/// mismatched reply — marks the pair broken, after which every GET fails
/// with [`ZltpError::Io`] rather than pair a stale answer with a new request.
pub struct TwoServerZltp<S: Read + Write> {
    s0: ZltpSession<S>,
    s1: ZltpSession<S>,
    pir: TwoServerClient,
    broken: bool,
}

impl<S: Read + Write> TwoServerZltp<S> {
    /// Connect to both servers of a non-colluding pair; both must serve the
    /// same universe with identical parameters.
    pub fn connect(stream0: S, stream1: S) -> Result<Self, ZltpError> {
        let modes = ModeSet::new([Mode::TwoServerPir]);
        let c0 = ZltpSession::send_hello(stream0, &modes)?;
        let c1 = ZltpSession::send_hello(stream1, &modes);
        let s0 = ZltpSession::recv_hello(c0, &modes);
        let s1 = c1.and_then(|c| ZltpSession::recv_hello(c, &modes));
        let (s0, s1) = match (s0, s1) {
            (Ok(s0), Ok(s1)) => (s0, s1),
            // One server refused: the other's session is negotiated, so
            // it gets an orderly Close, and the refusal is reported.
            (Ok(s), Err(e)) | (Err(e), Ok(s)) => {
                let _ = s.close();
                return Err(e);
            }
            (Err(e), Err(_)) => return Err(e),
        };
        if s0.universe_id() != s1.universe_id() {
            return Err(ZltpError::ServerPairMismatch(format!(
                "universes differ: '{}' vs '{}'",
                s0.universe_id(),
                s1.universe_id()
            )));
        }
        if s0.params() != s1.params() || s0.blob_len() != s1.blob_len() {
            return Err(ZltpError::ServerPairMismatch("parameters differ".into()));
        }
        if s0.keyword_hash_key != s1.keyword_hash_key {
            return Err(ZltpError::ServerPairMismatch(
                "keyword hash keys differ".into(),
            ));
        }
        // `extra` carries the party id; a client talking to the same
        // physical server twice would get no non-collusion protection.
        if s0.extra() == s1.extra() {
            return Err(ZltpError::ServerPairMismatch(
                "both endpoints claim the same party id".into(),
            ));
        }
        let pir = TwoServerClient::new(s0.params(), s0.blob_len());
        Ok(Self {
            s0,
            s1,
            pir,
            broken: false,
        })
    }

    /// The universe id.
    pub fn universe_id(&self) -> &str {
        self.s0.universe_id()
    }

    /// The fixed blob size.
    pub fn blob_len(&self) -> usize {
        self.s0.blob_len()
    }

    /// The universe's DPF parameters (validated identical on both
    /// sessions at connect time).
    pub fn params(&self) -> DpfParams {
        self.s0.params()
    }

    /// The universe's keyword→slot map.
    pub fn keyword_map(&self) -> &KeywordMap {
        self.s0.keyword_map()
    }

    /// Private-GET by keyword: hash to a slot, query both servers, combine.
    ///
    /// An unpublished key returns the all-zero blob (indistinguishable from
    /// a published all-zero blob; the lightweb blob encoding layers a
    /// length prefix on top precisely so this case is recognizable).
    pub fn private_get(&mut self, key: &str) -> Result<Vec<u8>, ZltpError> {
        self.private_get_traced(key, None)
    }

    /// [`TwoServerZltp::private_get`] under an existing trace context
    /// (e.g. the browser's per-page span).
    pub fn private_get_traced(
        &mut self,
        key: &str,
        parent: Option<&TraceContext>,
    ) -> Result<Vec<u8>, ZltpError> {
        let slot = self.s0.keyword_map().slot(key.as_bytes());
        self.private_get_slot_traced(slot, parent)
    }

    /// Private-GET by raw slot. Also used for dummy (cover) queries: a
    /// fetch of a uniformly random slot is indistinguishable from a real
    /// one — the lightweb browser relies on this for its fixed per-page
    /// fetch count (§3.2).
    pub fn private_get_slot(&mut self, slot: u64) -> Result<Vec<u8>, ZltpError> {
        self.private_get_slot_traced(slot, None)
    }

    /// [`TwoServerZltp::private_get_slot`] with causal tracing: one
    /// `zltp.client.request` span covers the whole logical GET — both
    /// server hops, each a `zltp.client.transport` child from its send to
    /// its receive, overlapping in time — rooted fresh unless `parent`
    /// chains it under a larger operation.
    pub fn private_get_slot_traced(
        &mut self,
        slot: u64,
        parent: Option<&TraceContext>,
    ) -> Result<Vec<u8>, ZltpError> {
        if self.broken {
            return Err(ZltpError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "two-server pair is out of step after an earlier failed exchange",
            )));
        }
        let span = match parent {
            Some(p) => TraceSpan::child(p, "zltp.client.request"),
            None => TraceSpan::root("zltp.client.request"),
        };
        let ctx = span.ctx();
        let query = self.pir.query_slot(slot);
        let (key0, key1) = (
            query.key0.to_bytes().to_vec(),
            query.key1.to_bytes().to_vec(),
        );
        // Until both answers are read and in step, the pair is not.
        self.broken = true;
        let hop0 = TraceSpan::child(&ctx, "zltp.client.transport");
        let id0 = self.s0.send_get(key0, &hop0.ctx())?;
        let hop1 = TraceSpan::child(&ctx, "zltp.client.transport");
        let id1 = self.s1.send_get(key1, &hop1.ctx())?;
        let a0 = self.s0.recv_get(id0);
        drop(hop0);
        let a1 = self.s1.recv_get(id1);
        drop(hop1);
        // A server's error reply is an answer; any other failure is not.
        let in_step = |a: &Result<Vec<u8>, ZltpError>| {
            matches!(a, Ok(_) | Err(ZltpError::ServerError { .. }))
        };
        self.broken = !(in_step(&a0) && in_step(&a1));
        let (a0, a1) = (a0?, a1?);
        if a0.len() != self.blob_len() || a1.len() != self.blob_len() {
            return Err(ZltpError::Wire("answer has wrong blob size".into()));
        }
        TwoServerClient::combine(&a0, &a1).map_err(|e| ZltpError::Engine(e.to_string()))
    }

    /// Combined traffic counters across both sessions.
    pub fn stats(&self) -> SessionStats {
        let a = self.s0.stats();
        let b = self.s1.stats();
        SessionStats {
            bytes_sent: a.bytes_sent + b.bytes_sent,
            bytes_received: a.bytes_received + b.bytes_received,
            requests: a.requests, // logical GETs (each touches both servers)
        }
    }

    /// Close both sessions: both `Close` frames are attempted whatever
    /// happens to the other, then each echo is awaited (best-effort, as in
    /// [`ZltpSession::close`]); the first send error is returned.
    pub fn close(mut self) -> Result<(), ZltpError> {
        let w0 = self.s0.conn.send(&Message::Close);
        let w1 = self.s1.conn.send(&Message::Close);
        if w0.is_ok() {
            let _ = self.s0.conn.recv();
        }
        if w1.is_ok() {
            let _ = self.s1.conn.recv();
        }
        w0.and(w1)
    }
}

/// Single-server LWE client.
pub struct LweClientSession<S: Read + Write> {
    session: ZltpSession<S>,
    lwe: LweClient,
    /// Sorted key hashes; a key's record index is its rank here.
    manifest: Vec<u64>,
    hint: Vec<u32>,
    sip: SipHash24,
}

impl<S: Read + Write> LweClientSession<S> {
    /// Connect in LWE mode and download the offline material.
    pub fn connect(stream: S) -> Result<Self, ZltpError> {
        let modes = ModeSet::new([Mode::SingleServerLwe]);
        let mut session = ZltpSession::connect(stream, &modes)?;
        // extra = seed(32) || n(u32) || cols(u64)
        let extra = session.extra().to_vec();
        if extra.len() != 44 {
            return Err(ZltpError::Wire(format!(
                "bad LWE hello extra ({} bytes)",
                extra.len()
            )));
        }
        let seed: [u8; 32] = extra[..32].try_into().unwrap();
        let n = u32::from_be_bytes(extra[32..36].try_into().unwrap()) as usize;
        let cols = u64::from_be_bytes(extra[36..44].try_into().unwrap()) as usize;
        let lwe = LweClient::new(LweParams { n }, seed, cols, session.blob_len());

        let (manifest, hint) = match session.exchange(&Message::LweSetupRequest)? {
            Message::LweSetupResponse { key_hashes, hint } => (key_hashes, hint),
            Message::Error { code, message } => {
                return Err(ZltpError::ServerError { code, message })
            }
            other => {
                return Err(ZltpError::UnexpectedMessage {
                    expected: "LweSetupResponse",
                    got: other.name(),
                })
            }
        };
        let sip = SipHash24::new(&session.keyword_hash_key);
        Ok(Self {
            session,
            lwe,
            manifest,
            hint,
            sip,
        })
    }

    /// Size of the one-time offline download (hint + manifest).
    pub fn offline_bytes(&self) -> usize {
        self.hint.len() * 4 + self.manifest.len() * 8
    }

    /// Private-GET by keyword. Returns `None` when the key is not in the
    /// manifest (presence is public metadata in this mode); a *dummy* query
    /// is still issued so the server-visible traffic is identical.
    pub fn private_get(&mut self, key: &str) -> Result<Option<Vec<u8>>, ZltpError> {
        let h = self.sip.hash(key.as_bytes());
        let found = self.manifest.binary_search(&h).ok();
        if self.manifest.is_empty() {
            return Ok(None);
        }
        let span = TraceSpan::root("zltp.client.request");
        let index = found.unwrap_or(0);
        let query = self.lwe.query(index);
        let mut payload = Vec::with_capacity(query.payload.len() * 4);
        for v in &query.payload {
            payload.extend_from_slice(&v.to_be_bytes());
        }
        let raw = self.session.get_raw_traced(payload, Some(&span.ctx()))?;
        if raw.len() % 4 != 0 {
            return Err(ZltpError::Wire("LWE answer not a u32 vector".into()));
        }
        let answer: Vec<u32> = raw
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
            .collect();
        let blob = self
            .lwe
            .decode(&query, &self.hint, &answer)
            .map_err(|e| ZltpError::Engine(e.to_string()))?;
        Ok(found.map(|_| blob))
    }

    /// Traffic counters.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Orderly close.
    pub fn close(self) -> Result<(), ZltpError> {
        self.session.close()
    }
}

/// Enclave-mode client: keywords travel sealed to the enclave.
pub struct EnclaveClient<S: Read + Write> {
    session: ZltpSession<S>,
    aead: ChaCha20Poly1305,
}

impl<S: Read + Write> EnclaveClient<S> {
    /// Connect in enclave mode. The hello's `extra` carries the session key
    /// that a real deployment would derive from remote attestation.
    pub fn connect(stream: S) -> Result<Self, ZltpError> {
        let modes = ModeSet::new([Mode::Enclave]);
        let session = ZltpSession::connect(stream, &modes)?;
        let key: [u8; 32] = session
            .extra()
            .try_into()
            .map_err(|_| ZltpError::Wire("bad enclave session key".into()))?;
        Ok(Self {
            session,
            aead: ChaCha20Poly1305::new(&key),
        })
    }

    /// Private-GET by keyword. Returns `None` for unpublished keys; the
    /// enclave performs the same ORAM work either way.
    pub fn private_get(&mut self, key: &str) -> Result<Option<Vec<u8>>, ZltpError> {
        let span = TraceSpan::root("zltp.client.request");
        let mut nonce = [0u8; AEAD_NONCE_LEN];
        lightweb_crypto::fill_random(&mut nonce);
        let sealed = self
            .aead
            .seal(&nonce, b"zltp-enclave-query", key.as_bytes());
        let mut payload = Vec::with_capacity(AEAD_NONCE_LEN + sealed.len());
        payload.extend_from_slice(&nonce);
        payload.extend_from_slice(&sealed);

        let raw = self.session.get_raw_traced(payload, Some(&span.ctx()))?;
        if raw.len() < AEAD_NONCE_LEN {
            return Err(ZltpError::Wire("sealed response too short".into()));
        }
        let rn: [u8; AEAD_NONCE_LEN] = raw[..AEAD_NONCE_LEN].try_into().unwrap();
        let plain = self
            .aead
            .open(&rn, b"zltp-enclave-response", &raw[AEAD_NONCE_LEN..])
            .map_err(|_| ZltpError::Wire("sealed response failed to open".into()))?;
        if plain.len() != 1 + self.session.blob_len() {
            return Err(ZltpError::Wire("sealed response has wrong size".into()));
        }
        Ok(if plain[0] == 1 {
            Some(plain[1..].to_vec())
        } else {
            None
        })
    }

    /// Traffic counters.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Orderly close.
    pub fn close(self) -> Result<(), ZltpError> {
        self.session.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::server::{InProcServer, ZltpServer};

    fn pair(blob_len: usize) -> (InProcServer, InProcServer) {
        let mut c0 = ServerConfig::small("u", 0);
        c0.blob_len = blob_len;
        let mut c1 = ServerConfig::small("u", 1);
        c1.blob_len = blob_len;
        (
            InProcServer::new(ZltpServer::new(c0).unwrap()),
            InProcServer::new(ZltpServer::new(c1).unwrap()),
        )
    }

    fn publish_both(s0: &InProcServer, s1: &InProcServer, key: &str, blob: &[u8]) {
        s0.server().publish(key, blob).unwrap();
        s1.server().publish(key, blob).unwrap();
    }

    #[test]
    fn two_server_end_to_end() {
        let (s0, s1) = pair(64);
        publish_both(&s0, &s1, "nytimes.com/africa", &[7u8; 64]);
        publish_both(&s0, &s1, "cnn.com/world", &[9u8; 64]);

        let mut client = TwoServerZltp::connect(s0.connect(), s1.connect()).unwrap();
        assert_eq!(client.universe_id(), "u");
        assert_eq!(
            client.private_get("nytimes.com/africa").unwrap(),
            vec![7u8; 64]
        );
        assert_eq!(client.private_get("cnn.com/world").unwrap(), vec![9u8; 64]);
        // Unpublished key: all-zero blob.
        assert_eq!(client.private_get("unknown").unwrap(), vec![0u8; 64]);
        let stats = client.stats();
        assert_eq!(stats.requests, 3);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
        client.close().unwrap();
    }

    #[test]
    fn two_server_rejects_same_party_pair() {
        let (s0, _s1) = pair(64);
        let Err(err) = TwoServerZltp::connect(s0.connect(), s0.connect()) else {
            panic!("same-party pair accepted")
        };
        assert!(matches!(err, ZltpError::ServerPairMismatch(_)), "{err}");
    }

    #[test]
    fn two_server_rejects_mismatched_universes() {
        let mut c0 = ServerConfig::small("alpha", 0);
        c0.blob_len = 64;
        let mut c1 = ServerConfig::small("beta", 1);
        c1.blob_len = 64;
        let s0 = InProcServer::new(ZltpServer::new(c0).unwrap());
        let s1 = InProcServer::new(ZltpServer::new(c1).unwrap());
        let Err(err) = TwoServerZltp::connect(s0.connect(), s1.connect()) else {
            panic!("mismatched universes accepted")
        };
        assert!(matches!(err, ZltpError::ServerPairMismatch(_)));
    }

    /// A stream that replays a scripted server: reads drain `replies`
    /// (EOF after it), writes are only counted.
    struct Scripted {
        replies: std::io::Cursor<Vec<u8>>,
        written: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    const SCRIPT_BLOB: usize = 8;

    /// The server side of one leg: party `party`'s `ServerHello`, then
    /// `replies` in order.
    fn scripted(party: u8, replies: &[Message]) -> Scripted {
        let mut cfg = ServerConfig::small("scripted", party);
        cfg.blob_len = SCRIPT_BLOB;
        let hello = Message::ServerHello {
            version: PROTOCOL_VERSION,
            universe_id: cfg.universe_id,
            mode: Mode::TwoServerPir.to_wire(),
            blob_len: cfg.blob_len as u32,
            domain_bits: cfg.domain_bits as u8,
            term_bits: cfg.term_bits as u8,
            keyword_hash_key: cfg.keyword_hash_key,
            extra: vec![party],
        };
        let mut wire = Vec::new();
        for msg in std::iter::once(&hello).chain(replies) {
            wire.extend(crate::transport::encode_frame(msg, None).unwrap());
        }
        Scripted {
            replies: std::io::Cursor::new(wire),
            written: 0,
        }
    }

    fn answer(request_id: u32, fill: u8) -> Message {
        Message::GetResponse {
            request_id,
            payload: vec![fill; SCRIPT_BLOB],
        }
    }

    fn bytes_written(pair: &TwoServerZltp<Scripted>) -> usize {
        pair.s0.conn.get_ref().written + pair.s1.conn.get_ref().written
    }

    /// The next GET on a broken pair fails with `Io` and writes nothing.
    fn assert_fails_fast(pair: &mut TwoServerZltp<Scripted>) {
        let before = bytes_written(pair);
        assert!(matches!(pair.private_get_slot(5), Err(ZltpError::Io(_))));
        assert_eq!(bytes_written(pair), before, "a broken pair must not send");
    }

    #[test]
    fn error_reply_on_either_leg_drains_the_other_and_the_pair_stays_usable() {
        let refused = Message::Error {
            code: 2,
            message: "bad query".into(),
        };
        for failing_leg in [0, 1] {
            let mut legs = [
                vec![answer(1, 0x0F), answer(2, 0x11)],
                vec![answer(1, 0xF0), answer(2, 0x22)],
            ];
            legs[failing_leg][0] = refused.clone();
            let mut pair =
                TwoServerZltp::connect(scripted(0, &legs[0]), scripted(1, &legs[1])).unwrap();
            let err = pair.private_get_slot(3).unwrap_err();
            assert!(
                matches!(err, ZltpError::ServerError { code: 2, .. }),
                "{err}"
            );
            // Had the other leg's first answer been left unread, this GET
            // would meet it and fail the request-id check.
            assert_eq!(
                pair.private_get_slot(4).unwrap(),
                vec![0x33; SCRIPT_BLOB],
                "leg {failing_leg}"
            );
            assert_eq!(pair.stats().requests, 2);
        }
    }

    #[test]
    fn eof_on_server_1_after_both_sends_breaks_the_pair() {
        let mut pair =
            TwoServerZltp::connect(scripted(0, &[answer(1, 1), answer(2, 2)]), scripted(1, &[]))
                .unwrap();
        let err = pair.private_get_slot(3).unwrap_err();
        assert!(matches!(err, ZltpError::Io(_)), "{err}");
        assert_fails_fast(&mut pair);
    }

    #[test]
    fn answer_with_the_wrong_request_id_is_refused_and_breaks_the_pair() {
        // Server 0 answers request 1 with a stale id: never combine it.
        let mut pair = TwoServerZltp::connect(
            scripted(0, &[answer(7, 1), answer(2, 2)]),
            scripted(1, &[answer(1, 1), answer(2, 2)]),
        )
        .unwrap();
        let err = pair.private_get_slot(3).unwrap_err();
        assert!(matches!(err, ZltpError::Wire(_)), "{err}");
        assert_fails_fast(&mut pair);
    }

    #[test]
    fn enclave_mode_end_to_end() {
        let mut cfg = ServerConfig::small("u", 0);
        cfg.blob_len = 32;
        cfg.modes = ModeSet::new([Mode::Enclave]);
        let s = InProcServer::new(ZltpServer::new(cfg).unwrap());
        s.server().publish("weather.com/94110", &[3u8; 32]).unwrap();

        let mut client = EnclaveClient::connect(s.connect()).unwrap();
        assert_eq!(
            client.private_get("weather.com/94110").unwrap(),
            Some(vec![3u8; 32])
        );
        assert_eq!(client.private_get("weather.com/00000").unwrap(), None);
        client.close().unwrap();
    }

    #[test]
    fn lwe_mode_end_to_end() {
        let mut cfg = ServerConfig::small("u", 0);
        cfg.blob_len = 32;
        cfg.modes = ModeSet::new([Mode::SingleServerLwe]);
        let s = InProcServer::new(ZltpServer::new(cfg).unwrap());
        s.server().publish("a.com/1", &[1u8; 32]).unwrap();
        s.server().publish("a.com/2", &[2u8; 32]).unwrap();
        s.server().publish("a.com/3", &[3u8; 32]).unwrap();

        let mut client = LweClientSession::connect(s.connect()).unwrap();
        assert!(client.offline_bytes() > 0);
        assert_eq!(client.private_get("a.com/2").unwrap(), Some(vec![2u8; 32]));
        assert_eq!(client.private_get("a.com/3").unwrap(), Some(vec![3u8; 32]));
        assert_eq!(client.private_get("a.com/404").unwrap(), None);
        client.close().unwrap();
    }

    #[test]
    fn mode_negotiation_follows_server_preference() {
        let mut cfg = ServerConfig::small("u", 0);
        cfg.blob_len = 32;
        cfg.modes = ModeSet::new([Mode::Enclave, Mode::TwoServerPir]);
        let s = InProcServer::new(ZltpServer::new(cfg).unwrap());
        let session = ZltpSession::connect(
            s.connect(),
            &ModeSet::new([Mode::TwoServerPir, Mode::Enclave]),
        )
        .unwrap();
        assert_eq!(session.mode(), Mode::Enclave);
    }

    #[test]
    fn no_common_mode_is_an_error() {
        let mut cfg = ServerConfig::small("u", 0);
        cfg.modes = ModeSet::new([Mode::Enclave]);
        let s = InProcServer::new(ZltpServer::new(cfg).unwrap());
        let Err(err) = ZltpSession::connect(s.connect(), &ModeSet::new([Mode::TwoServerPir]))
        else {
            panic!("incompatible mode accepted")
        };
        assert!(
            matches!(err, ZltpError::ServerError { .. } | ZltpError::NoCommonMode),
            "{err}"
        );
    }

    #[test]
    fn responses_have_fixed_size_regardless_of_key() {
        // The traffic-analysis defense: every PIR response is blob_len
        // bytes whether the key exists, is short, or is absent.
        let (s0, s1) = pair(128);
        publish_both(&s0, &s1, "site.com/a", &[1u8; 128]);
        let mut client = TwoServerZltp::connect(s0.connect(), s1.connect()).unwrap();
        let r1 = client.private_get("site.com/a").unwrap();
        let r2 = client
            .private_get("absent/key/with/a/much/longer/path")
            .unwrap();
        assert_eq!(r1.len(), 128);
        assert_eq!(r2.len(), 128);
    }

    #[test]
    fn dummy_slot_queries_work() {
        let (s0, s1) = pair(64);
        publish_both(&s0, &s1, "x", &[5u8; 64]);
        let mut client = TwoServerZltp::connect(s0.connect(), s1.connect()).unwrap();
        // Cover traffic: random slots must be servable.
        for slot in [0u64, 1, 12345] {
            let blob = client.private_get_slot(slot).unwrap();
            assert_eq!(blob.len(), 64);
        }
    }

    #[test]
    fn content_update_is_visible_to_new_queries() {
        let (s0, s1) = pair(64);
        publish_both(&s0, &s1, "news/today", &[1u8; 64]);
        let mut client = TwoServerZltp::connect(s0.connect(), s1.connect()).unwrap();
        assert_eq!(client.private_get("news/today").unwrap(), vec![1u8; 64]);
        publish_both(&s0, &s1, "news/today", &[2u8; 64]);
        assert_eq!(client.private_get("news/today").unwrap(), vec![2u8; 64]);
    }
}
