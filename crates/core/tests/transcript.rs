//! What the two servers of a pair see on the wire, recorded from outside the
//! client: a stream wrapper logs `(stream, direction, frame length)` for every
//! complete ZLTP frame, in the order the client's blocking calls made them.
//!
//! Two claims rest on that log. The transcript of a GET does not depend on the
//! key (present, absent, or a raw dummy slot), for the two-server engine and for
//! a browser page view; and every two-party exchange is overlapped — both
//! requests leave before either answer is read (`w0 w1 r0 r1`), so a private GET
//! costs one server round trip. The same log shows `close` and a failed
//! `connect` reaching both servers.

use lightweb_browser::LightwebBrowser;
use lightweb_core::{
    mem_pair, FrameDecoder, FramedConn, HelloOutcome, InProcServer, MemDuplex, Mode, ModeSet,
    ServerConfig, TwoServerZltp, ZltpError, ZltpServer,
};
use lightweb_universe::{Universe, UniverseConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Write,
    Read,
}
use Dir::{Read as R, Write as W};

/// One complete frame crossing one stream: `(stream, direction, frame length)`.
type Event = (u8, Dir, usize);
type Log = Arc<Mutex<Vec<Event>>>;

/// Feeds the next bytes of one direction of a stream to its decoder; returns
/// the lengths of the frames they complete, however the reads and writes were
/// sized.
fn frames_completed(decoder: &mut FrameDecoder, bytes: &[u8]) -> Vec<usize> {
    decoder.extend(bytes);
    let mut done = Vec::new();
    loop {
        let before = decoder.buffered();
        match decoder
            .decode()
            .expect("the client's streams carry ZLTP frames")
        {
            Some(_) => done.push(before - decoder.buffered()),
            None => return done,
        }
    }
}

/// A stream that logs every frame the client writes to it and reads from it.
struct Recorded<S> {
    inner: S,
    stream: u8,
    log: Log,
    written: FrameDecoder,
    read: FrameDecoder,
    /// When set, the next frame written has its payload's first byte (the DPF
    /// key's magic) flipped, so the server answers that GET with an `Error`.
    corrupt_next_write: Arc<AtomicBool>,
}

impl<S> Recorded<S> {
    fn new(inner: S, stream: u8, log: &Log) -> Self {
        Self {
            inner,
            stream,
            log: log.clone(),
            written: FrameDecoder::new(),
            read: FrameDecoder::new(),
            corrupt_next_write: Arc::default(),
        }
    }

    fn note(&self, dir: Dir, frames: Vec<usize>) {
        let mut log = self.log.lock().unwrap();
        log.extend(frames.into_iter().map(|len| (self.stream, dir, len)));
    }
}

impl<S: Read> Read for Recorded<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        let frames = frames_completed(&mut self.read, &buf[..n]);
        self.note(R, frames);
        Ok(n)
    }
}

/// Offset of a GET's payload in its frame: length word, type byte, request id,
/// payload length.
const GET_PAYLOAD_AT: usize = 4 + 1 + 4 + 4;

impl<S: Write> Write for Recorded<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = if self.corrupt_next_write.swap(false, Ordering::SeqCst) {
            let mut bad = buf.to_vec();
            bad[GET_PAYLOAD_AT] ^= 0xFF;
            self.inner.write(&bad)?
        } else {
            self.inner.write(buf)?
        };
        let frames = frames_completed(&mut self.written, &buf[..n]);
        self.note(W, frames);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn take(log: &Log) -> Vec<Event> {
    std::mem::take(&mut log.lock().unwrap())
}

const BLOB_LEN: usize = 64;

fn server(party: u8, modes: &[Mode]) -> InProcServer {
    let mut cfg = ServerConfig::small("transcript", party);
    cfg.blob_len = BLOB_LEN;
    cfg.modes = ModeSet::new(modes.iter().copied());
    InProcServer::new(ZltpServer::new(cfg).unwrap())
}

fn pair() -> [InProcServer; 2] {
    [0, 1].map(|party| server(party, &[Mode::TwoServerPir]))
}

fn published(servers: &[InProcServer; 2], n: usize) -> Vec<(String, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let (key, blob) = (format!("site-{i}.com/page"), vec![i as u8 + 1; BLOB_LEN]);
            for s in servers {
                s.server().publish(&key, &blob).unwrap();
            }
            (key, blob)
        })
        .collect()
}

type RecordedPair = TwoServerZltp<Recorded<MemDuplex>>;

fn connect(servers: &[InProcServer; 2], log: &Log) -> Result<RecordedPair, ZltpError> {
    TwoServerZltp::connect(
        Recorded::new(servers[0].connect(), 0, log),
        Recorded::new(servers[1].connect(), 1, log),
    )
}

#[test]
fn get_transcript_is_key_independent_and_both_servers_are_asked_before_either_answers() {
    let servers = pair();
    let content = published(&servers, 8);
    let log = Log::default();
    let mut client = connect(&servers, &log).unwrap();
    // The hellos are overlapped too.
    let hello = take(&log);
    let order: Vec<_> = hello.iter().map(|e| (e.0, e.1)).collect();
    assert_eq!(order, [(0, W), (1, W), (0, R), (1, R)], "{hello:?}");

    // One GET of each kind per seed: a published key, an absent key, a raw
    // dummy slot. Each yields (the blob it must return, its transcript).
    let mut transcripts = Vec::new();
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (key, blob) = &content[rng.gen_range(0..content.len())];
        assert_eq!(&client.private_get(key).unwrap(), blob);
        transcripts.push(take(&log));

        let absent = format!("absent-{:x}.org/{seed}", rng.gen::<u64>());
        assert_eq!(client.private_get(&absent).unwrap(), vec![0; BLOB_LEN]);
        transcripts.push(take(&log));

        let slot = rng.gen_range(0..client.params().domain_size());
        assert_eq!(client.private_get_slot(slot).unwrap().len(), BLOB_LEN);
        transcripts.push(take(&log));
    }

    let first = &transcripts[0];
    let (request, answer) = (first[0].2, first[2].2);
    assert!(request > 4 && answer > 4 + BLOB_LEN);
    // Global order: both requests are written before either answer is read.
    // This, not a timing, is what makes a GET one server round trip. The two
    // servers' own logs are the same (write `request`, read `answer`).
    assert_eq!(
        first,
        &[
            (0, W, request),
            (1, W, request),
            (0, R, answer),
            (1, R, answer)
        ]
    );
    for (i, t) in transcripts.iter().enumerate() {
        assert_eq!(t, first, "GET {i} has its own transcript");
    }

    client.close().unwrap();
    let close = take(&log);
    assert_eq!(close, [(0, W, 5), (1, W, 5), (0, R, 5), (1, R, 5)]);
}

#[test]
fn page_transcript_is_the_same_for_five_real_fetches_and_for_two_real_plus_three_dummies() {
    let u = Universe::new(UniverseConfig::small_test("cdn")).unwrap();
    assert_eq!(u.config().fetches_per_page, 5);
    u.register_domain("shape.com", "Shape").unwrap();
    let fetch = |i: usize| format!(" fetch \"shape.com/d{i}\"\n");
    let route = |path: &str, n: usize| {
        let fetches: String = (0..n).map(fetch).collect();
        format!("route \"{path}\" {{\n{fetches} render \"{{data.0}}\"\n }}\n")
    };
    u.publish_code(
        "Shape",
        "shape.com",
        &(route("/five", 5) + &route("/two", 2)),
    )
    .unwrap();
    for i in 0..5 {
        u.publish_data("Shape", &format!("shape.com/d{i}"), b"x")
            .unwrap();
    }

    let log = Log::default();
    let (code, data) = (u.connect_code(), u.connect_data());
    let mut browser = LightwebBrowser::connect(
        (
            Recorded::new(code.0, 0, &log),
            Recorded::new(code.1, 1, &log),
        ),
        (
            Recorded::new(data.0, 2, &log),
            Recorded::new(data.1, 3, &log),
        ),
        u.config().fetches_per_page,
        u.config().max_chain_parts,
    )
    .unwrap();
    browser.browse("shape.com/two").unwrap(); // fetches and caches the code blob
    take(&log);

    browser.browse("shape.com/five").unwrap();
    let five = take(&log);
    browser.browse("shape.com/two").unwrap();
    let two = take(&log);

    assert_eq!(five, two, "dummies are distinguishable on the wire");
    // Five GETs on the data pair, one after another, each asking both servers
    // at once; nothing on the code pair.
    let (request, answer) = (five[0].2, five[2].2);
    let one_get = [
        (2, W, request),
        (3, W, request),
        (2, R, answer),
        (3, R, answer),
    ];
    assert_eq!(five, one_get.repeat(5));
}

#[test]
fn error_reply_from_one_real_server_leaves_the_pair_usable() {
    for failing_leg in [0usize, 1] {
        let servers = pair();
        let content = published(&servers, 2);
        let log = Log::default();
        let streams = [0, 1].map(|i| Recorded::new(servers[i].connect(), i as u8, &log));
        let corrupt = streams[failing_leg].corrupt_next_write.clone();
        let [s0, s1] = streams;
        let mut client = TwoServerZltp::connect(s0, s1).unwrap();
        take(&log);

        corrupt.store(true, Ordering::SeqCst);
        let err = client.private_get(&content[0].0).unwrap_err();
        assert!(matches!(err, ZltpError::ServerError { .. }), "{err}");
        // Both answers were read, the refusal and the other server's blob.
        let order: Vec<_> = take(&log).iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(order, [(0, W), (1, W), (0, R), (1, R)]);

        for (key, blob) in &content {
            assert_eq!(&client.private_get(key).unwrap(), blob, "leg {failing_leg}");
        }
        client.close().unwrap();
    }
}

#[test]
fn close_reaches_server_1_when_server_0_has_hung_up() {
    let servers = pair();
    // Server 0 negotiates the session, then drops the connection.
    let (client_end, server_end) = mem_pair();
    let hangs_up = {
        let server = servers[0].server().clone();
        std::thread::spawn(move || {
            let mut conn = FramedConn::new(server_end);
            let hello = conn.recv().unwrap();
            let HelloOutcome::Accepted { server_hello, .. } = server.negotiate_hello(&hello) else {
                panic!("hello refused")
            };
            conn.send(&server_hello).unwrap();
        })
    };
    let log = Log::default();
    let client = TwoServerZltp::connect(
        Recorded::new(client_end, 0, &log),
        Recorded::new(servers[1].connect(), 1, &log),
    )
    .unwrap();
    hangs_up.join().unwrap();
    take(&log);

    let err = client.close().unwrap_err();
    assert!(matches!(err, ZltpError::Io(_)), "{err}");
    // Server 1 still got its Close and echoed it.
    assert_eq!(take(&log), [(1, W, 5), (1, R, 5)]);
}

#[test]
fn refused_hello_on_either_leg_is_reported_and_the_other_session_is_closed() {
    for refusing_leg in [0usize, 1] {
        // The refusing server offers no mode the two-server client speaks.
        let servers = [0, 1].map(|party| {
            let modes: &[Mode] = if party == refusing_leg {
                &[Mode::Enclave]
            } else {
                &[Mode::TwoServerPir]
            };
            server(party as u8, modes)
        });
        let log = Log::default();
        let Err(err) = connect(&servers, &log) else {
            panic!("half-refused pair accepted")
        };
        assert!(matches!(err, ZltpError::ServerError { .. }), "{err}");

        let log = take(&log);
        let order: Vec<_> = log.iter().map(|e| (e.0, e.1)).collect();
        let ok = 1 - refusing_leg as u8;
        // Both hellos out, both replies read, then Close and its echo on
        // the session that was negotiated.
        assert_eq!(
            order,
            [(0, W), (1, W), (0, R), (1, R), (ok, W), (ok, R)],
            "leg {refusing_leg}: {log:?}"
        );
        assert_eq!(log[4].2, 5, "an orderly Close");
        assert_eq!(log[5].2, 5, "and its echo");
    }
}
