#![warn(missing_docs)]

//! # lightweb-reactor — event-driven ZLTP serving
//!
//! Lightweb's target — millions of users — means each server process
//! holds *tens of thousands of mostly-idle* ZLTP sessions. A blocking
//! thread per connection would cost ten thousand stacks plus ten thousand
//! scheduler entries: exactly the baggage this system exists to shed.
//!
//! This crate is the server's one TCP front end: a std-only nonblocking
//! **reactor**. One thread owns every accepted socket through an epoll
//! instance (reached via a thin syscall shim, [`sys`] — the same pattern
//! as the telemetry crate's `clock_gettime` shim; no `libc` dependency),
//! runs a per-connection state machine over the incremental frame decoder
//! (partial frames, trace-context frame extensions, write backpressure
//! via `EPOLLOUT` re-arming), and hands complete requests to the §5.1
//! batcher and `QueryEngine` pool via
//! [`ZltpServer::submit_get`](lightweb_core::ZltpServer::submit_get).
//! Finished answers return on a completion channel paired with a wakeup
//! pipe that pulls the reactor out of `epoll_wait`.
//!
//! [`serve`] is the front door. There used to be a second way to serve
//! TCP — a thread-per-connection accept loop in `lightweb-core`, chosen
//! by an environment variable; it kneed at 8000 req/s offered where the
//! reactor kneed at 12800 on the same grid, could not reap idle sessions,
//! and no benchmark had measured it since the reactor landed, so it was
//! deleted (DESIGN §12). The in-memory transport
//! (`InProcServer` / `ZltpServer::handle_connection`) is unaffected and
//! portable; the reactor itself is Linux-only.
//!
//! ## Telemetry
//!
//! The reactor exports through the existing scrape endpoint:
//! `reactor.epoll.wait.ns` / `reactor.dispatch.ns` histograms (and a
//! `reactor.dispatch` profile scope), a `reactor.ready.batch` histogram
//! (events per wakeup — the multiplexing factor), gauges
//! `reactor.sessions.open` / `reactor.sessions.idle`, and counters for
//! accepts, reaps, and backpressure engagements. Event-loop health is
//! first-class: every iteration records `reactor.tick.ns` (dispatch +
//! completions + sweep, the time the loop was unavailable to other
//! sessions) and `reactor.events_per_tick`, sets the
//! `reactor.completion.queue.depth` gauge from the pending completion
//! channel, and a tick over [`ReactorConfig::stall_threshold`] bumps
//! `reactor.tick.stalls`. Transport byte/frame counters use the same
//! names as `FramedConn`, so `/metrics` aggregates identically over TCP
//! and the in-memory transport.
//!
//! ## Idle reaping
//!
//! Sessions with no in-flight work and no wire activity for
//! [`ReactorConfig::idle_timeout`] are reaped (counted in
//! `reactor.sessions.reaped`) — the defense against slow-loris peers and
//! abandoned connections that a thread-per-connection server pays a
//! whole parked thread to tolerate.

use lightweb_core::ZltpServer;
use std::net::TcpListener;
use std::time::Duration;

#[cfg(target_os = "linux")]
pub mod sys;

#[cfg(target_os = "linux")]
mod reactor;

/// Tuning for the event loop. [`serve`] uses the default.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Reap sessions with no in-flight work and no wire activity for
    /// this long.
    pub idle_timeout: Duration,
    /// A session quiet for this long counts in `reactor.sessions.idle`
    /// (shorter than `idle_timeout`: "idle" is a state, "reaped" is a
    /// consequence).
    pub idle_mark: Duration,
    /// How often the reaping sweep runs (and the upper bound on how
    /// stale the idle gauge can be).
    pub sweep_interval: Duration,
    /// Per-connection write-queue cap in bytes; beyond it the reactor
    /// stops reading from the peer until the queue drains.
    pub max_write_queue: usize,
    /// Worker threads answering unbatched engine work. 0 runs such work
    /// inline on the reactor thread (tests only).
    pub workers: usize,
    /// A tick (one dispatch pass: readiness events, completions, sweep)
    /// that takes longer than this counts in `reactor.tick.stalls` — the
    /// event loop was wedged and every session stalled with it.
    pub stall_threshold: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self::with_idle_timeout(Duration::from_secs(60))
    }
}

impl ReactorConfig {
    /// The defaults with sessions reaped after `idle_timeout`. The sweep
    /// interval follows the timeout (a quarter of it, clamped to
    /// 10 ms..=1 s) and the idle mark stays below it, so short timeouts —
    /// e.g. in the churn experiment — are enforced promptly.
    pub fn with_idle_timeout(idle_timeout: Duration) -> Self {
        Self {
            idle_timeout,
            idle_mark: (idle_timeout / 2).clamp(Duration::from_millis(1), Duration::from_secs(1)),
            sweep_interval: (idle_timeout / 4)
                .clamp(Duration::from_millis(10), Duration::from_secs(1)),
            max_write_queue: 1 << 20,
            workers: 2,
            stall_threshold: Duration::from_millis(100),
        }
    }
}

/// Serve TCP connections for `server` on the epoll event loop until it
/// shuts down. Returns the event-loop thread's handle.
///
/// The reactor is Linux-only; elsewhere this returns
/// [`std::io::ErrorKind::Unsupported`] (the in-memory `InProcServer` path
/// is portable).
pub fn serve(
    server: &ZltpServer,
    listener: TcpListener,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    serve_with(server, listener, ReactorConfig::default())
}

/// [`serve`] with explicit reactor tuning.
pub fn serve_with(
    server: &ZltpServer,
    listener: TcpListener,
    cfg: ReactorConfig,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    #[cfg(target_os = "linux")]
    {
        reactor::spawn(server.clone(), listener, cfg)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (server, listener, cfg);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "lightweb-reactor needs epoll (Linux)",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_and_idle_mark_follow_the_idle_timeout() {
        let cfg = ReactorConfig::default();
        assert_eq!(cfg.idle_timeout, Duration::from_secs(60));
        assert_eq!(cfg.idle_mark, Duration::from_secs(1));
        assert_eq!(cfg.sweep_interval, Duration::from_secs(1));
        assert!(cfg.workers > 0);
        assert!(cfg.stall_threshold > Duration::ZERO);

        let short = ReactorConfig::with_idle_timeout(Duration::from_millis(40));
        assert_eq!(short.idle_mark, Duration::from_millis(20));
        assert_eq!(short.sweep_interval, Duration::from_millis(10));
    }
}
