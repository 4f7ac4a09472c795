//! The served workloads: one closed-loop client thread against a
//! 1-shard `nvserver` (so two busy threads on a 2-vCPU host), under the
//! paper latency model. A request is sent only after the previous reply
//! arrived.

use crate::gen::{Class, Rng, NUM_CLASSES};
use crate::layers::Layers;
use crate::oracle::Oracle;
use crate::replay::Replay;
use crate::stats::{median, ratio, Metrics, Samples};
use crate::structures::REPRS;
use crate::trace::{self, span, Record, SpanTransport};
use crate::Outcome;
use nvmsim::metrics::{self, Counter};
use nvmsim::Region;
use nvserver::codec;
use nvserver::{
    index_word, BatchOp, Priority, ReqOp, Request, Server, ServerConfig, ServerFaultPlan,
    ServerHandle, TenantMetrics, TenantSpec, Transport,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What a generated request asks for.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Point lookup of a key in the key space.
    Get,
    /// Point lookup over twice the key space (about half miss when the
    /// tenant is full).
    GetWide,
    Put,
    Delete,
    /// 8 writes, each a put or a delete.
    Batch,
    /// Prefix listing over 12-14 leading digits of a key's index word:
    /// subtrees of one word up to a few hundred.
    Prefix,
    /// Explicit eviction: the tenant's next request reopens it remapped.
    Evict,
}

/// Static description of one served workload.
#[derive(Debug, Clone)]
pub struct Shape {
    tenants: u32,
    max_open: usize,
    keyspace: u64,
    preload_all: bool,
    mix: &'static [(u32, Kind)],
    /// Zipf exponent of tenant popularity (0 = uniform).
    tenant_zipf: f64,
    region_size: usize,
    /// Requests per run-second: the fixed op count is
    /// `seconds * ops_per_second`, so counts repeat exactly run to run.
    ops_per_second: u64,
}

const BATCH: usize = 8;

/// Per mille weights of each workload's mix.
const WRITE_MIX: &[(u32, Kind)] = &[
    (190, Kind::Get),
    (380, Kind::Put),
    (285, Kind::Delete),
    (100, Kind::Batch),
    (42, Kind::Prefix),
    (3, Kind::Evict),
];
const READ_MIX: &[(u32, Kind)] = &[
    (845, Kind::GetWide),
    (140, Kind::Prefix),
    (5, Kind::Put),
    (5, Kind::Delete),
    (3, Kind::Batch),
    (2, Kind::Evict),
];
const CHURN_MIX: &[(u32, Kind)] = &[
    (640, Kind::Get),
    (150, Kind::Put),
    (120, Kind::Delete),
    (45, Kind::Prefix),
    (45, Kind::Batch),
];

/// The shape of a served workload, or `None` for another name.
pub fn shape(workload: &str) -> Option<Shape> {
    Some(match workload {
        "serve-write" => Shape {
            tenants: 6,
            max_open: usize::MAX,
            keyspace: 2048,
            preload_all: false,
            mix: WRITE_MIX,
            tenant_zipf: 0.0,
            region_size: 64 << 20,
            ops_per_second: 40_000,
        },
        "serve-read" => Shape {
            tenants: 6,
            max_open: usize::MAX,
            keyspace: 2048,
            preload_all: true,
            mix: READ_MIX,
            tenant_zipf: 0.0,
            region_size: 8 << 20,
            ops_per_second: 55_000,
        },
        "tenant-churn" => Shape {
            tenants: 24,
            max_open: 4,
            keyspace: 1024,
            preload_all: false,
            mix: CHURN_MIX,
            tenant_zipf: 1.6,
            region_size: 4 << 20,
            ops_per_second: 4_000,
        },
        _ => return None,
    })
}

impl Shape {
    /// Tenant specs: ids `0..n`, representations round-robin, every
    /// other field the server's default except the region size.
    fn specs(&self) -> Vec<TenantSpec> {
        (0..self.tenants)
            .map(|id| {
                let mut s = TenantSpec::new(id, REPRS[id as usize % REPRS.len()]);
                s.region_size = self.region_size;
                s
            })
            .collect()
    }

    fn config(&self, dir: &Path) -> ServerConfig {
        let mut cfg = ServerConfig::new(dir);
        cfg.shards = 1;
        cfg.max_open_per_shard = self.max_open;
        cfg
    }
}

/// Seeded request stream of a workload.
struct OpGen<'a> {
    shape: &'a Shape,
    rng: Rng,
    /// Cumulative tenant popularity, most popular first.
    cdf: Vec<f64>,
    /// Tenant id of each popularity rank.
    order: Vec<u32>,
}

impl<'a> OpGen<'a> {
    fn new(shape: &'a Shape, seed: u64) -> OpGen<'a> {
        let mut rng = Rng::new(seed, 2);
        let weights: Vec<f64> = (0..shape.tenants)
            .map(|r| 1.0 / f64::from(r + 1).powf(shape.tenant_zipf))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut order: Vec<u32> = (0..shape.tenants).collect();
        rng.shuffle(&mut order);
        OpGen {
            shape,
            rng,
            cdf,
            order,
        }
    }

    fn tenant(&mut self) -> u32 {
        let u = self.rng.unit();
        let rank = self
            .cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1);
        self.order[rank]
    }

    fn next(&mut self) -> (u32, ReqOp) {
        let t = self.tenant();
        let ks = self.shape.keyspace;
        let op = match self.rng.pick(self.shape.mix) {
            Kind::Get => ReqOp::Get {
                key: self.rng.below(ks),
            },
            Kind::GetWide => ReqOp::Get {
                key: self.rng.below(2 * ks),
            },
            Kind::Put => ReqOp::Put {
                key: self.rng.below(ks),
            },
            Kind::Delete => ReqOp::Delete {
                key: self.rng.below(ks),
            },
            Kind::Batch => ReqOp::Batch {
                ops: (0..BATCH)
                    .map(|_| BatchOp {
                        put: self.rng.below(2) == 0,
                        key: self.rng.below(ks),
                    })
                    .collect(),
            },
            Kind::Prefix => {
                let word = index_word(self.rng.below(ks));
                let len = 12 + self.rng.below(3) as usize;
                ReqOp::PrefixQuery {
                    prefix: word[..len].to_string(),
                }
            }
            Kind::Evict => ReqOp::Evict,
        };
        (t, op)
    }
}

/// Preload requests: half (or all) of each tenant's key space, in
/// batches of 64 puts.
fn preload_requests(shape: &Shape, seed: u64) -> Vec<(u32, ReqOp)> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    for t in 0..shape.tenants {
        let mut keys: Vec<u64> = (0..shape.keyspace).collect();
        rng.shuffle(&mut keys);
        let n = if shape.preload_all {
            keys.len()
        } else {
            keys.len() / 2
        };
        for chunk in keys[..n].chunks(64) {
            let ops = chunk
                .iter()
                .map(|&key| BatchOp { put: true, key })
                .collect();
            out.push((t, ReqOp::Batch { ops }));
        }
    }
    out
}

/// The class a request is filed under when it was not a reopen.
fn class_of(op: &ReqOp) -> Class {
    match op {
        ReqOp::Get { .. } => Class::Read,
        ReqOp::PrefixQuery { .. } => Class::Scan,
        ReqOp::Put { .. } | ReqOp::Delete { .. } => Class::Write,
        ReqOp::Batch { .. } => Class::Batch,
        ReqOp::Evict | ReqOp::Heal => Class::Evict,
    }
}

/// Ids of preload requests live far above the measured ones.
const PRELOAD_ID: u64 = 1 << 40;

/// A started server with its preloaded model.
struct Live {
    server: Server,
    handle: ServerHandle,
    tmetrics: Vec<Arc<TenantMetrics>>,
    oracle: Oracle,
    dir: PathBuf,
}

/// Starts a server under `dir` and preloads it (this is the timed
/// set-up).
fn setup(shape: &Shape, seed: u64, dir: &Path) -> Result<Live, String> {
    let _ = std::fs::remove_dir_all(dir);
    let specs = shape.specs();
    let server = Server::start(shape.config(dir), specs.clone(), ServerFaultPlan::none())
        .map_err(|e| format!("server start: {e}"))?;
    let handle = server.handle();
    let tmetrics = specs
        .iter()
        .map(|s| handle.tenant_metrics(s.id).expect("configured tenant"))
        .collect();
    let mut oracle = Oracle::new(specs.len());
    for (i, (t, op)) in preload_requests(shape, seed).into_iter().enumerate() {
        let id = PRELOAD_ID + i as u64;
        let resp = call(&handle, id, t, &op)?;
        oracle.check(id, t, &op, &resp);
    }
    if oracle.mismatches() > 0 {
        return Err(format!("preload: {:?}", oracle.first_mismatches()));
    }
    Ok(Live {
        server,
        handle,
        tmetrics,
        oracle,
        dir: dir.to_path_buf(),
    })
}

fn request(id: u64, tenant: u32, op: &ReqOp) -> Request {
    Request {
        id,
        tenant,
        priority: Priority::Normal,
        deadline_micros: 0,
        op: op.clone(),
    }
}

/// One untraced round trip: encode, `Transport::call`, decode.
fn call(
    transport: &dyn Transport,
    id: u64,
    tenant: u32,
    op: &ReqOp,
) -> Result<nvserver::Response, String> {
    let frame = codec::encode_request(&request(id, tenant, op));
    codec::decode_response(&transport.call(&frame)).map_err(|e| format!("response frame: {e}"))
}

/// What a measured pass over the op stream produced.
struct Pass {
    samples: [Samples; NUM_CLASSES],
    requests: u64,
    failed: u64,
    evictions: u64,
    /// `SrvShed` and `SrvDeadlineExceeded` over the whole pass.
    shed: u64,
    deadline_exceeded: u64,
    /// Traced requests (traced passes only).
    records: Vec<Record>,
    /// Client round trips of the requests left untraced in a traced
    /// pass, for the tracing overhead.
    untraced: Samples,
    /// Op index of each record.
    record_ops: Vec<usize>,
}

/// Runs `n` requests of the stream. With `stride > 0`, every
/// `stride`-th request is traced through a [`SpanTransport`].
fn pass(live: &mut Live, shape: &Shape, seed: u64, n: usize, stride: usize) -> Pass {
    let mut gen = OpGen::new(shape, seed);
    let epoch = Instant::now();
    let spans = SpanTransport::new(live.handle.clone(), epoch);
    let now = || epoch.elapsed().as_nanos() as u64;
    let evictions0: u64 = live
        .tmetrics
        .iter()
        .map(|m| m.evictions.load(Ordering::Relaxed))
        .sum();
    let counters0 = metrics::snapshot();
    let mut out = Pass {
        samples: Default::default(),
        requests: 0,
        failed: 0,
        evictions: 0,
        shed: 0,
        deadline_exceeded: 0,
        records: Vec::new(),
        untraced: Samples::default(),
        record_ops: Vec::new(),
    };
    for i in 0..n {
        let (t, op) = gen.next();
        let id = i as u64 + 1;
        let remaps0 = live.tmetrics[t as usize].remaps.load(Ordering::Relaxed);
        let traced = stride > 0 && i % stride == 0;
        // The client's round trip: build, encode, call, decode.
        let (resp, dt, rec) = if traced {
            let snap0 = metrics::snapshot();
            let t0 = now();
            let req = request(id, t, &op);
            let te = now();
            let frame = codec::encode_request(&req);
            let t1 = now();
            let reply = spans.call(&frame);
            let t2 = now();
            let resp = codec::decode_response(&reply);
            let t3 = now();
            let snap1 = metrics::snapshot();
            let [dec, sub, enc] = spans.last_spans();
            let mut spans_at = [(0, 0); 7];
            spans_at[span::CLIENT] = (t0, t3);
            spans_at[span::ENCODE_REQUEST] = (te, t1);
            spans_at[span::TRANSPORT] = (t1, t2);
            spans_at[span::DECODE_REQUEST] = dec;
            spans_at[span::SUBMIT] = sub;
            spans_at[span::ENCODE_RESPONSE] = enc;
            spans_at[span::DECODE_RESPONSE] = (t2, t3);
            let rec = Record {
                source: "served",
                id,
                class: "",
                tenant: t,
                spans: spans_at,
                request_bytes: frame.len() as u64,
                response_bytes: reply.len() as u64,
                applied: 0,
                counters: trace::deltas(&snap0, &snap1),
            };
            (resp, t3 - t0, Some(rec))
        } else {
            let t0 = Instant::now();
            let req = request(id, t, &op);
            let frame = codec::encode_request(&req);
            let reply = live.handle.call(&frame);
            let resp = codec::decode_response(&reply);
            (resp, t0.elapsed().as_nanos() as u64, None)
        };
        let reopened = live.tmetrics[t as usize].remaps.load(Ordering::Relaxed) != remaps0;
        let class = if reopened {
            Class::Reopen
        } else {
            class_of(&op)
        };
        out.samples[class.idx()].push_ns(dt);
        out.requests += 1;
        let applied = match resp {
            Ok(resp) => {
                if resp.status != nvserver::Status::Ok {
                    out.failed += 1;
                }
                live.oracle.check(id, t, &op, &resp)
            }
            Err(e) => {
                out.failed += 1;
                live.oracle.check(
                    id,
                    t,
                    &op,
                    &nvserver::Response::rejection(id, nvserver::Status::Malformed, e.to_string()),
                )
            }
        };
        match rec {
            Some(mut rec) => {
                rec.class = class.name();
                rec.applied = applied;
                out.records.push(rec);
                out.record_ops.push(i);
            }
            None if stride > 0 => out.untraced.push_ns(dt),
            None => {}
        }
        if out.failed > 0 {
            // The run is already failed; a wedged shard would make every
            // further request wait out the slot backstop.
            break;
        }
    }
    let evictions1: u64 = live
        .tmetrics
        .iter()
        .map(|m| m.evictions.load(Ordering::Relaxed))
        .sum();
    out.evictions = evictions1 - evictions0;
    let counters = metrics::snapshot().delta(&counters0);
    out.shed = counters.get(Counter::SrvShed);
    out.deadline_exceeded = counters.get(Counter::SrvDeadlineExceeded);
    out
}

/// Stops the server, checks its final report against the model, and
/// measures live NV bytes per stored key offline from the images.
fn shutdown(live: Live) -> Result<(Oracle, f64), String> {
    let Live {
        server,
        handle,
        mut oracle,
        dir,
        ..
    } = live;
    drop(handle);
    let report = server.shutdown();
    oracle.check_report(&report);
    let mut live_bytes = 0u64;
    let mut keys = 0u64;
    for t in &report.tenants {
        let path = dir.join(format!("tenant-{}.nvr", t.id));
        let region = Region::open_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        live_bytes += region.stats().live_bytes;
        region.close().map_err(|e| e.to_string())?;
        keys += t.keys.len() as u64;
    }
    Ok((oracle, ratio(live_bytes as f64, keys as f64)))
}

/// Number of set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fixed request count of a run.
fn op_count(shape: &Shape, seconds: u64) -> usize {
    (seconds * shape.ops_per_second) as usize
}

fn mismatch_outcome(oracle: &Oracle, what: &str) -> Option<String> {
    (oracle.mismatches() > 0).then(|| {
        format!(
            "{what}: {} oracle mismatches, first: {:?}",
            oracle.mismatches(),
            oracle.first_mismatches()
        )
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(shape: &Shape, seed: u64, seconds: u64, dir: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let sdir = dir.join(format!("setup-{k}"));
        let t0 = Instant::now();
        let l = setup(shape, seed, &sdir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            shutdown(l)?;
            let _ = std::fs::remove_dir_all(&sdir);
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one set-up");
    let mut p = pass(&mut live, shape, seed, op_count(shape, seconds), 0);
    let (oracle, bytes_per_key) = shutdown(live)?;

    Ok(Outcome {
        metrics: crate::end_to_end(median(&setup_s), &mut p.samples, p.requests, bytes_per_key),
        attempted: p.requests,
        failed: p.failed,
        error: mismatch_outcome(&oracle, "served run"),
        notes: crate::class_counts(&p.samples),
        records: Vec::new(),
    })
}

/// Requests traced per traced pass (at most); the rest of the stream
/// runs untraced and gives the overhead baseline.
const TRACED_RECORDS: usize = 20_000;

/// A traced pass and its replay: the server-side per-layer numbers.
pub struct ServedLayers {
    /// Filled layer metrics.
    pub layers: Layers,
    /// Requests attempted.
    pub requests: u64,
    /// Non-`Ok` answers.
    pub failed: u64,
    /// Any correctness failure.
    pub error: Option<String>,
    /// The traced records (written out as spans by the caller).
    pub records: Vec<Record>,
}

/// Runs `n` requests traced, then replays them on an owned stack.
pub fn traced(shape: &Shape, seed: u64, n: usize, dir: &Path) -> Result<ServedLayers, String> {
    let mut live = setup(shape, seed, &dir.join("served"))?;
    let stride = n.div_ceil(TRACED_RECORDS).max(2);
    let p = pass(&mut live, shape, seed, n, stride);
    let (oracle, _) = shutdown(live)?;
    let mut error = mismatch_outcome(&oracle, "traced run");

    // Replay the same preload and stream on the owned stack.
    let rdir = dir.join("replay");
    std::fs::create_dir_all(&rdir).map_err(|e| e.to_string())?;
    let mut replay = Replay::new(&shape.specs(), &rdir, shape.max_open);
    let mut check = Oracle::new(shape.tenants as usize);
    for (i, (t, op)) in preload_requests(shape, seed).into_iter().enumerate() {
        let id = PRELOAD_ID + i as u64;
        let resp = replay.apply(id, t, &op)?;
        check.check(id, t, &op, &resp);
    }
    replay.timed = true;
    let mut gen = OpGen::new(shape, seed);
    for i in 0..n {
        let (t, op) = gen.next();
        let resp = replay.apply(i as u64 + 1, t, &op)?;
        check.check(i as u64 + 1, t, &op, &resp);
    }
    if error.is_none() {
        error = mismatch_outcome(&check, "replay");
    }
    let mut times = std::mem::take(&mut replay.times);
    replay.close()?;

    let mut samples = p.samples;
    let mut layers = Layers::default();
    layers.served(&p.records, &p.record_ops, &times.op_ns, p.untraced);
    layers.replayed(&mut times);
    layers.counted_writes(&p.records);
    let specs = shape.specs();
    let fat_reads: Vec<&Record> = p
        .records
        .iter()
        .filter(|r| r.class == Class::Read.name())
        .filter(|r| specs[r.tenant as usize].repr == nvserver::ReprKind::FatCached)
        .collect();
    let sum = |c: Counter| fat_reads.iter().map(|r| r.count(c)).sum::<u64>();
    layers.fat_reads(
        fat_reads.len() as u64,
        sum(Counter::FatLookups),
        sum(Counter::FatCacheHits),
        sum(Counter::FatCacheMisses),
    );
    let reopens = samples[Class::Reopen.idx()].len() as f64;
    layers.tenant_reopen_share = ratio(reopens, p.requests as f64);
    layers.tenant_evictions_per_kreq = ratio(p.evictions as f64 * 1e3, p.requests as f64);
    layers.server_shed = p.shed as f64;
    layers.server_deadline_exceeded = p.deadline_exceeded as f64;
    layers.samples = Class::REPORTED.map(|c| samples[c.idx()].len() as f64);
    layers.reopen_p99_us = samples[Class::Reopen.idx()].quantile_us(0.99);
    if let Some(e) = layers.reconcile_error() {
        error.get_or_insert(e);
    }
    Ok(ServedLayers {
        layers,
        requests: p.requests,
        failed: p.failed,
        error,
        records: p.records,
    })
}

/// The traced run of a served workload: per-layer metrics.
pub fn run_traced(shape: &Shape, seed: u64, seconds: u64, dir: &Path) -> Result<Outcome, String> {
    let n = op_count(shape, seconds);
    let mut s = traced(shape, seed, n, dir)?;
    s.layers.pi_core_loads(seed);
    let mut m = Metrics::default();
    s.layers.to_metrics(&mut m);
    Ok(Outcome {
        metrics: m,
        attempted: s.requests,
        failed: s.failed,
        error: s.error,
        notes: Vec::new(),
        records: s.records,
    })
}
