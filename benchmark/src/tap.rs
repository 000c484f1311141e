//! A stream that notes when each read and write on it happened: how a private
//! GET inside `browse()` — or the order of the two server hops inside
//! `private_get` — is timed from outside the product. It is also the one
//! stream type that can carry either transport, which the browser needs.

use lightweb_core::MemDuplex;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One read or write a client made on one of its streams.
#[derive(Clone, Copy, Debug)]
pub struct IoEvent {
    /// Even: a pair's first server, odd: its second. The browser's code pair
    /// is 0, 1 and its data pair 2, 3.
    pub stream: u8,
    pub write: bool,
    /// Writes are stamped before the call, reads after it returns.
    pub at_ns: u64,
}

pub type Tap = Arc<Mutex<Vec<IoEvent>>>;

enum Inner {
    Tcp(TcpStream),
    Mem(MemDuplex),
}

/// The browser wants one stream type for both pairs; this is it. It also
/// notes when each read and write happened, which is how a GET inside
/// `browse()` is timed from outside the browser.
pub struct TappedStream {
    inner: Inner,
    stream: u8,
    tap: Tap,
    origin: Instant,
}

impl TappedStream {
    /// `stream` numbers the stream in the tap's log; times count from `origin`.
    pub fn tcp(s: TcpStream, stream: u8, tap: &Tap, origin: Instant) -> Self {
        Self {
            inner: Inner::Tcp(s),
            stream,
            tap: tap.clone(),
            origin,
        }
    }

    pub fn mem(s: MemDuplex, stream: u8, tap: &Tap, origin: Instant) -> Self {
        Self {
            inner: Inner::Mem(s),
            stream,
            tap: tap.clone(),
            origin,
        }
    }

    fn note(&self, write: bool) {
        self.tap.lock().expect("tap").push(IoEvent {
            stream: self.stream,
            write,
            at_ns: self.origin.elapsed().as_nanos() as u64,
        });
    }
}

impl Read for TappedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = match &mut self.inner {
            Inner::Tcp(s) => s.read(buf),
            Inner::Mem(s) => s.read(buf),
        }?;
        self.note(false);
        Ok(n)
    }
}

impl Write for TappedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.note(true);
        match &mut self.inner {
            Inner::Tcp(s) => s.write(buf),
            Inner::Mem(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.inner {
            Inner::Tcp(s) => s.flush(),
            Inner::Mem(s) => s.flush(),
        }
    }
}

/// `(start, end)` of every private GET in `events`: from the first write to a
/// pair's first server to the last read from its second.
pub fn get_intervals(events: &[IoEvent]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cur: Option<(u64, u64)> = None;
    let mut last_was_read = true;
    for e in events {
        let first_server = e.stream % 2 == 0;
        if e.write && first_server && last_was_read {
            out.extend(cur.take());
            cur = Some((e.at_ns, e.at_ns));
        } else if !e.write && !first_server {
            if let Some(c) = &mut cur {
                c.1 = e.at_ns;
            }
        }
        last_was_read = !e.write;
    }
    out.extend(cur);
    out
}

/// Server hops of one GET that ran one after the other: 2 when the second
/// server is asked only after the first has answered, 1 when both are asked
/// at once.
pub fn hops_in_series(events: &[IoEvent]) -> usize {
    let first_answered = events
        .iter()
        .filter(|e| !e.write && e.stream % 2 == 0)
        .map(|e| e.at_ns)
        .max();
    let second_asked = events
        .iter()
        .find(|e| e.write && e.stream % 2 == 1)
        .map(|e| e.at_ns);
    match (first_answered, second_asked) {
        (Some(a), Some(b)) if b >= a => 2,
        _ => 1,
    }
}
