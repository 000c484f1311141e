//! The benchmark's own pipelined client: many GETs outstanding on one session
//! pair, matched to their answers by `request_id`, driven through
//! `wire::Message` / `encode_frame` / `FrameDecoder` so it shares no client
//! code with the product's blocking `TwoServerZltp`.

use crate::fixture::Target;
use lightweb_core::{encode_frame, FrameDecoder, Message, Mode, PROTOCOL_VERSION};
use lightweb_pir::{KeywordMap, TwoServerClient};
use std::collections::HashMap;
use std::ffi::c_void;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    // `ppoll` and not `poll`: an open-loop generator sleeps until the next
    // intended send time, and `poll` only counts milliseconds.
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const c_void) -> i32;
}

/// A GET both servers have answered.
pub struct Done {
    pub target: Target,
    /// Who issued it (a closed-loop user sends its next GET on completion).
    pub user: usize,
    /// When it was due to be sent, when it was, and when the second answer
    /// had arrived, all on the caller's clock.
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub blob: Vec<u8>,
}

struct Pending {
    target: Target,
    user: usize,
    intended_ns: u64,
    sent_ns: u64,
    first_half: Option<Vec<u8>>,
}

/// One client session pair with any number of GETs in flight.
pub struct PipelinedPair {
    socks: [TcpStream; 2],
    decoders: [FrameDecoder; 2],
    pir: TwoServerClient,
    keymap: KeywordMap,
    origin: Instant,
    next_id: u32,
    pending: HashMap<u32, Pending>,
    done: Vec<Done>,
    rbuf: Vec<u8>,
    /// Bytes of GET frames sent and of answer frames received (the hello
    /// exchange is not counted).
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Transport or protocol failures seen; the pair is unusable after one.
    pub errors: u64,
}

impl PipelinedPair {
    /// ZLTP hello with both servers. `origin` is the clock every timestamp
    /// this pair reports is measured from.
    pub fn connect(mut socks: (TcpStream, TcpStream), origin: Instant) -> Result<Self, String> {
        let hello = encode_frame(
            &Message::ClientHello {
                version: PROTOCOL_VERSION,
                modes: vec![Mode::TwoServerPir.to_wire()],
            },
            None,
        )
        .map_err(|e| e.to_string())?;
        let mut decoders = [FrameDecoder::new(), FrameDecoder::new()];
        let mut shape = Vec::new();
        for (sock, dec) in [&mut socks.0, &mut socks.1].into_iter().zip(&mut decoders) {
            sock.write_all(&hello).map_err(|e| e.to_string())?;
            let mut buf = [0u8; 4096];
            let msg = loop {
                if let Some((m, _)) = dec.decode().map_err(|e| e.to_string())? {
                    break m;
                }
                let n = sock.read(&mut buf).map_err(|e| e.to_string())?;
                if n == 0 {
                    return Err("server closed during hello".into());
                }
                dec.extend(&buf[..n]);
            };
            match msg {
                Message::ServerHello {
                    blob_len,
                    domain_bits,
                    term_bits,
                    keyword_hash_key,
                    ..
                } => shape.push((blob_len, domain_bits, term_bits, keyword_hash_key)),
                other => return Err(format!("expected ServerHello, got {}", other.name())),
            }
        }
        if shape[0] != shape[1] {
            return Err("the two servers disagree on the universe's shape".into());
        }
        let (blob_len, domain_bits, term_bits, hash_key) = shape[0];
        let params = lightweb_dpf::DpfParams::new(domain_bits as u32, term_bits as u32)
            .map_err(|e| e.to_string())?;
        Ok(Self {
            socks: [socks.0, socks.1],
            decoders,
            pir: TwoServerClient::new(params, blob_len as usize),
            keymap: KeywordMap::new(&hash_key, domain_bits as u32),
            origin,
            next_id: 1,
            pending: HashMap::new(),
            done: Vec::new(),
            rbuf: vec![0u8; 64 * 1024],
            bytes_sent: 0,
            bytes_received: 0,
            errors: 0,
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Generate the DPF key pair for `key` and send one share to each server.
    pub fn send(&mut self, target: Target, key: &str, user: usize, intended_ns: u64) {
        let query = self.pir.query_slot(self.keymap.slot(key.as_bytes()));
        let request_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let sent_ns = self.now_ns();
        for (sock, share) in self.socks.iter_mut().zip([&query.key0, &query.key1]) {
            let frame = encode_frame(
                &Message::Get {
                    request_id,
                    payload: share.to_bytes().to_vec(),
                },
                None,
            )
            .expect("a DPF key fits a frame");
            if sock.write_all(&frame).is_err() {
                self.errors += 1;
                return;
            }
            self.bytes_sent += frame.len() as u64;
        }
        self.pending.insert(
            request_id,
            Pending {
                target,
                user,
                intended_ns,
                sent_ns,
                first_half: None,
            },
        );
    }

    /// Sleep until either socket is readable or `timeout` passes, then take
    /// in what arrived. GETs completed by it come out of [`Self::take_done`].
    pub fn wait(&mut self, timeout: Duration) {
        let mut fds = [0, 1].map(|i| PollFd {
            fd: self.socks[i].as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as i64,
        };
        // SAFETY: `fds` and `ts` are live, correctly laid-out values for the
        // duration of the call; a null signal mask leaves the mask unchanged.
        let ready = unsafe { ppoll(fds.as_mut_ptr(), 2, &ts, std::ptr::null()) };
        if ready <= 0 {
            return; // timeout, or EINTR: the caller loops either way
        }
        for (i, fd) in fds.iter().enumerate() {
            if fd.revents != 0 {
                self.read_from(i);
            }
        }
    }

    fn read_from(&mut self, i: usize) {
        let n = match self.socks[i].read(&mut self.rbuf) {
            Ok(0) | Err(_) => {
                self.errors += 1;
                return;
            }
            Ok(n) => n,
        };
        self.bytes_received += n as u64;
        self.decoders[i].extend(&self.rbuf[..n]);
        loop {
            match self.decoders[i].decode() {
                Ok(Some((
                    Message::GetResponse {
                        request_id,
                        payload,
                    },
                    _,
                ))) => self.half_arrived(request_id, payload),
                Ok(None) => return,
                // A server `Error` frame, an unexpected message or bad framing.
                Ok(Some(_)) | Err(_) => {
                    self.errors += 1;
                    return;
                }
            }
        }
    }

    fn half_arrived(&mut self, request_id: u32, payload: Vec<u8>) {
        let Some(p) = self.pending.get_mut(&request_id) else {
            self.errors += 1;
            return;
        };
        match p.first_half.take() {
            None => p.first_half = Some(payload),
            Some(other) => {
                let done_ns = self.now_ns();
                let p = self.pending.remove(&request_id).expect("present above");
                match TwoServerClient::combine(&other, &payload) {
                    Ok(blob) => self.done.push(Done {
                        target: p.target,
                        user: p.user,
                        intended_ns: p.intended_ns,
                        sent_ns: p.sent_ns,
                        done_ns,
                        blob,
                    }),
                    Err(_) => self.errors += 1,
                }
            }
        }
    }

    pub fn take_done(&mut self) -> Vec<Done> {
        std::mem::take(&mut self.done)
    }
}
