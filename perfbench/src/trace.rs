//! Tracing from outside the program: a benchmark-owned `Transport` that
//! times the server-side codec and `ServerHandle::submit`, per-request
//! spans kept in memory, and `nvmsim` counter deltas per request.

use nvmsim::metrics::{Counter, Snapshot};
use nvserver::codec;
use nvserver::{Response, ServerHandle, Status, Transport};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Span names of one served request, indexed by span id.
pub const SPAN_NAMES: [&str; 7] = [
    "client",
    "codec.encode_request",
    "transport",
    "codec.decode_request",
    "server.submit",
    "codec.encode_response",
    "codec.decode_response",
];

/// Parent span id of each span in [`SPAN_NAMES`] (`None` = root).
pub const SPAN_PARENTS: [Option<usize>; 7] =
    [None, Some(0), Some(0), Some(2), Some(2), Some(2), Some(0)];

/// Span ids, for readability at the call sites.
pub mod span {
    /// The whole request as the client sees it.
    pub const CLIENT: usize = 0;
    /// Client-side request encoding.
    pub const ENCODE_REQUEST: usize = 1;
    /// The `Transport::call`.
    pub const TRANSPORT: usize = 2;
    /// Server-side frame decoding.
    pub const DECODE_REQUEST: usize = 3;
    /// `ServerHandle::submit`: queue handoff plus the tenant op.
    pub const SUBMIT: usize = 4;
    /// Server-side response encoding.
    pub const ENCODE_RESPONSE: usize = 5;
    /// Client-side response decoding.
    pub const DECODE_RESPONSE: usize = 6;
}

/// Counters whose per-request deltas a traced request records.
pub const TRACKED: [Counter; 13] = [
    Counter::WbarrierCalls,
    Counter::ClflushCalls,
    Counter::ClflushLines,
    Counter::WbarrierDelayNs,
    Counter::ClflushDelayNs,
    Counter::RegionAllocs,
    Counter::RegionFrees,
    Counter::TxCommits,
    Counter::UndoEntries,
    Counter::FatLookups,
    Counter::FatCacheHits,
    Counter::FatCacheMisses,
    Counter::LlallocRecoveryLines,
];

/// Index of `c` in [`TRACKED`].
pub fn tracked(c: Counter) -> usize {
    TRACKED
        .iter()
        .position(|&t| t == c)
        .expect("tracked counter")
}

/// Deltas of the [`TRACKED`] counters between two snapshots.
pub fn deltas(before: &Snapshot, after: &Snapshot) -> [u64; TRACKED.len()] {
    let d = after.delta(before);
    TRACKED.map(|c| d.get(c))
}

/// One traced request: span start/end offsets (ns since the trace
/// epoch), frame sizes and counter deltas.
#[derive(Debug, Clone)]
pub struct Record {
    /// `served` (through the server) or `kernel` (a direct call).
    pub source: &'static str,
    /// Request id, shared by all its spans.
    pub id: u64,
    /// Class name the request was filed under.
    pub class: &'static str,
    /// Target tenant (or kernel repr index).
    pub tenant: u32,
    /// `(start, end)` per span id; unused spans stay `(0, 0)`.
    pub spans: [(u64, u64); 7],
    /// Encoded request bytes.
    pub request_bytes: u64,
    /// Encoded response bytes.
    pub response_bytes: u64,
    /// Writes the request applied.
    pub applied: u64,
    /// Counter deltas, in [`TRACKED`] order.
    pub counters: [u64; TRACKED.len()],
}

impl Record {
    /// Duration of span `s` in nanoseconds.
    pub fn dur(&self, s: usize) -> u64 {
        self.spans[s].1.saturating_sub(self.spans[s].0)
    }

    /// One counter delta.
    pub fn count(&self, c: Counter) -> u64 {
        self.counters[tracked(c)]
    }
}

/// The benchmark's `Transport`: decodes, submits and encodes exactly as
/// `ServerHandle`'s own `Transport` impl does, timing each step.
pub struct SpanTransport {
    handle: ServerHandle,
    epoch: Instant,
    last: Mutex<[(u64, u64); 3]>,
}

impl SpanTransport {
    /// Wraps `handle`; span times are offsets from `epoch`.
    pub fn new(handle: ServerHandle, epoch: Instant) -> SpanTransport {
        SpanTransport {
            handle,
            epoch,
            last: Mutex::new([(0, 0); 3]),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The decode / submit / encode spans of the last call.
    pub fn last_spans(&self) -> [(u64, u64); 3] {
        *self.last.lock().expect("span slot lock poisoned")
    }
}

impl Transport for SpanTransport {
    fn call(&self, frame: &[u8]) -> Vec<u8> {
        let a = self.now();
        let decoded = codec::decode_request(frame);
        let b = self.now();
        let resp = match decoded {
            Ok(req) => self.handle.submit(req),
            Err(e) => Response::rejection(0, Status::Malformed, e.to_string()),
        };
        let c = self.now();
        let out = codec::encode_response(&resp);
        let d = self.now();
        *self.last.lock().expect("span slot lock poisoned") = [(a, b), (b, c), (c, d)];
        out
    }
}

/// Writes the spans of every record as JSON lines: one line per
/// request, each span `[span_id, parent_id, name, start_ns, end_ns]`,
/// then its nonzero counter deltas.
pub fn write_spans(path: &Path, records: &[Record]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        write!(
            out,
            "{{\"source\":\"{}\",\"id\":{},\"class\":\"{}\",\"tenant\":{},\"spans\":[",
            r.source, r.id, r.class, r.tenant
        )?;
        let mut first = true;
        for (s, &(start, end)) in r.spans.iter().enumerate() {
            if start == 0 && end == 0 {
                continue;
            }
            let parent = SPAN_PARENTS[s].map_or("null".to_string(), |p| p.to_string());
            let sep = if first { "" } else { "," };
            first = false;
            let name = match (r.source, s) {
                ("kernel", span::CLIENT) => "kernel.op",
                _ => SPAN_NAMES[s],
            };
            write!(out, "{sep}[{s},{parent},\"{name}\",{start},{end}]")?;
        }
        write!(out, "],\"counters\":{{")?;
        let nonzero = TRACKED.iter().zip(&r.counters).filter(|(_, &v)| v != 0);
        for (i, (c, v)) in nonzero.enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\"{}\":{v}", c.name())?;
        }
        writeln!(out, "}}}}")?;
    }
    out.flush()
}
