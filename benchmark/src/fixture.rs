//! Databases and servers of the private-GET workloads: two non-colluding
//! `ZltpServer`s on 127.0.0.1 behind `lightweb_reactor::serve`, each holding
//! the same records at the paper's 25 % slot load.

use crate::rng::blob_for;
use lightweb_core::{BatchConfig, ServerConfig, TwoServerZltp, ZltpServer};
use lightweb_pir::KeywordMap;
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

pub const BLOB_LEN: usize = 1024;
const ABSENT_KEYS: usize = 128;

/// Size and serving policy of one workload's database.
#[derive(Clone, Copy, Debug)]
pub struct DbSpec {
    pub id: &'static str,
    /// Records per server; the slot domain holds four times as many.
    pub records: usize,
    pub domain_bits: u32,
    pub batch: BatchConfig,
    /// 0 = the product's automatic choice.
    pub scan_threads: usize,
    /// Run client and servers on one CPU.
    pub one_cpu: bool,
}

impl DbSpec {
    pub fn config(&self, party: u8) -> ServerConfig {
        ServerConfig {
            blob_len: BLOB_LEN,
            domain_bits: self.domain_bits,
            batch: self.batch,
            scan_threads: self.scan_threads,
            ..ServerConfig::load_test(self.id, party)
        }
    }

    pub fn bytes(&self) -> usize {
        self.records * BLOB_LEN
    }
}

/// The records of one database: keys `k-<i>`, a key whose slot is already
/// taken is skipped (the paper's rename rule), kept in ascending slot order so
/// publishing appends. A blob is a keyed PRG of its key.
pub struct Dataset {
    pub seed: u64,
    /// `(slot, i)` of every published key `k-<i>`, ascending by slot.
    pub entries: Vec<(u64, u64)>,
    pub keys: Vec<String>,
    /// Keys that hash to empty slots, each to its own: a GET of one must
    /// return the zero blob, and publishing one inserts a new record.
    pub absent: Vec<String>,
}

impl Dataset {
    pub fn new(spec: &DbSpec, seed: u64) -> Self {
        assert_eq!(
            spec.records * 4,
            1usize << spec.domain_bits,
            "25 % slot load"
        );
        let cfg = spec.config(0);
        let map = KeywordMap::new(&cfg.keyword_hash_key, cfg.domain_bits);
        let mut taken = HashSet::with_capacity(spec.records * 2);
        let mut entries = Vec::with_capacity(spec.records);
        let mut i = 0u64;
        while entries.len() < spec.records {
            let slot = map.slot(format!("k-{i}").as_bytes());
            if taken.insert(slot) {
                entries.push((slot, i));
            }
            i += 1;
        }
        entries.sort_unstable();
        let keys = entries.iter().map(|(_, i)| format!("k-{i}")).collect();
        let absent = (0u64..)
            .map(|j| format!("absent-{j}"))
            .filter(|k| taken.insert(map.slot(k.as_bytes())))
            .take(ABSENT_KEYS)
            .collect();
        Self {
            seed,
            entries,
            keys,
            absent,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The blob published under `self.keys[item]`.
    pub fn blob(&self, item: usize) -> Vec<u8> {
        let mut b = vec![0u8; BLOB_LEN];
        blob_for(self.seed, self.entries[item].1, &mut b);
        b
    }

    /// `(slot, blob)` of every record, for building a `PirServer` directly.
    pub fn slotted(&self) -> Vec<(u64, Vec<u8>)> {
        (0..self.len())
            .map(|j| (self.entries[j].0, self.blob(j)))
            .collect()
    }
}

/// What a GET asks for and what it must return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    Item(usize),
    Absent(usize),
}

impl Dataset {
    pub fn key(&self, t: Target) -> &str {
        match t {
            Target::Item(j) => &self.keys[j],
            Target::Absent(j) => &self.absent[j],
        }
    }

    pub fn answer_is_right(&self, t: Target, got: &[u8]) -> bool {
        match t {
            Target::Item(j) => got == self.blob(j).as_slice(),
            Target::Absent(_) => got.len() == BLOB_LEN && got.iter().all(|&b| b == 0),
        }
    }
}

/// A running server and the thread `lightweb_reactor::serve` gave back.
pub struct Served {
    pub server: ZltpServer,
    pub addr: SocketAddr,
    thread: JoinHandle<()>,
}

/// Serve `server` on a fresh loopback port.
pub fn serve(server: &ZltpServer) -> Served {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let thread = lightweb_reactor::serve(server, listener).expect("start reactor");
    Served {
        server: server.clone(),
        addr,
        thread,
    }
}

impl Served {
    /// Shut the server down and wait for its event loop to end.
    pub fn stop(self) {
        self.server.shutdown();
        self.thread.join().expect("reactor thread");
    }
}

pub fn dial(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to server");
    s.set_nodelay(true).expect("TCP_NODELAY");
    s
}

/// The two servers of one workload.
pub struct ServerPair {
    pub spec: DbSpec,
    pub served: [Served; 2],
}

impl ServerPair {
    /// Create both servers, publish `data` to each in slot order, check the
    /// stated size, and serve them over loopback.
    pub fn start(spec: &DbSpec, data: &Dataset) -> Self {
        let servers = [0u8, 1]
            .map(|party| ZltpServer::new(spec.config(party)).expect("server config is valid"));
        let mut blob = vec![0u8; BLOB_LEN];
        for (key, &(_, i)) in data.keys.iter().zip(&data.entries) {
            blob_for(data.seed, i, &mut blob);
            for s in &servers {
                s.publish(key, &blob).expect("publish into a free slot");
            }
        }
        for s in &servers {
            assert_eq!(
                s.num_blobs() * BLOB_LEN,
                spec.bytes(),
                "{}: database is not the stated size",
                spec.id
            );
        }
        let served = [serve(&servers[0]), serve(&servers[1])];
        Self {
            spec: *spec,
            served,
        }
    }

    pub fn dial_pair(&self) -> (TcpStream, TcpStream) {
        (dial(self.served[0].addr), dial(self.served[1].addr))
    }

    pub fn client(&self) -> TwoServerZltp<TcpStream> {
        let (a, b) = self.dial_pair();
        TwoServerZltp::connect(a, b).expect("ZLTP hello with both servers")
    }

    pub fn stop(self) {
        for s in self.served {
            s.stop();
        }
    }

    /// The configuration the servers actually run, for the provenance line.
    pub fn describe(&self) -> String {
        let c = self.served[0].server.config();
        format!(
            "records={} blob_len={} domain_bits={} term_bits={} batch.max={} batch.window_us={} scan_threads={} io_model={}",
            self.served[0].server.num_blobs(),
            c.blob_len,
            c.domain_bits,
            c.term_bits,
            c.batch.max_batch,
            c.batch.window.as_micros(),
            if c.scan_threads == 0 {
                format!("auto({})", crate::host::nproc())
            } else {
                c.scan_threads.to_string()
            },
            std::env::var("LIGHTWEB_IO_MODEL").unwrap_or_default(),
        )
    }
}
