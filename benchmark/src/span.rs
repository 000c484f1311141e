//! The benchmark's own span recorder: spans are taken from the benchmark's
//! files around calls into each layer, kept in memory, and written out once
//! at exit.

use crate::json::quote;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u64,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A recorder whose span times count from `origin`.
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as a child span.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, Some(parent), request);
        let r = f();
        self.close(id);
        r
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The trace as JSON: named sections, one object per span. Parents are
/// indices into the span's own section.
pub fn to_json(workload: &str, sections: &[(&str, &[Span])]) -> String {
    let mut out = format!("{{\"workload\": {}", quote(workload));
    for (section, spans) in sections {
        let selfs = self_times(spans);
        out.push_str(&format!(",\n{}: [\n", quote(section)));
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {}}}{}\n",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
    }
    out.push_str("}\n");
    out
}
