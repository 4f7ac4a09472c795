//! `pi-kernels`: the paper's FIG13/14 shape with no server in the way.
//! One transactional `PHashSet` (about 8-node chains, nodes placed by
//! `NodeArena::scatter`) and one `PArt` over `suggest_corpus` per
//! pointer representation: off-holder in one region, RIV and fat+cache
//! round-robin over four. One thread calls `pds` directly, rotating
//! over the representations.

use crate::gen::{Class, Rng, NUM_CLASSES};
use crate::layers::Layers;
use crate::oracle::LISTED;
use crate::serve;
use crate::stats::{median, ratio, Metrics, Samples};
use crate::structures::{self, Roots, Structures, REPRS};
use crate::trace::{self, span, Record};
use crate::Outcome;
use nvmsim::metrics::{self, Counter};
use nvmsim::Region;
use nvserver::ReprKind;
use pds::NodeArena;
use pstore::ObjectStore;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Keys (and corpus words) present at the start, per instance.
const KEYS: usize = 1 << 16;
/// Extra entries writes may insert (writes draw from all entries, so
/// about half of them start out absent).
const RESERVE: usize = KEYS;
/// Hash-set buckets: about 8-node chains.
const BUCKETS: u64 = (KEYS / 8) as u64;
/// Regions of a multi-region (RIV, fat+cache) instance.
const FAN_OUT: usize = 4;
/// Longest listing a generated prefix may match.
const MAX_MATCHES: usize = 300;
/// Kernel ops per run-second (fixes the op count).
const OPS_PER_SECOND: u64 = 100_000;
/// Writes per batch op.
const BATCH: usize = 8;
/// Every this many reads, the answer is also asked of the other two
/// representations, which must agree.
const CROSS_CHECK: u64 = 64;

const ROOTS: Roots = Roots {
    set: "kernel.set",
    idx: "kernel.idx",
};

#[derive(Debug, Clone, Copy)]
enum Kind {
    Contains,
    Scan,
    Write,
    Batch,
    Remap,
}

/// Per ten thousand: contains and prefix scans 9:1 (the paper's search
/// mix), plus the inserts, batches and remaps that give every reported
/// class samples. Writes are non-transactional inserts on every
/// representation: an undo log covers one region, and the RIV and
/// fat+cache structures span four.
const MIX: &[(u32, Kind)] = &[
    (8800, Kind::Contains),
    (978, Kind::Scan),
    (200, Kind::Write),
    (20, Kind::Batch),
    (2, Kind::Remap),
];

/// One representation's structures and the regions under them.
struct Instance {
    kind: ReprKind,
    paths: Vec<PathBuf>,
    regions: Vec<Region>,
    stores: Vec<ObjectStore>,
    s: Option<Box<dyn Structures>>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn arenas(stores: &[ObjectStore]) -> (NodeArena, NodeArena) {
    if stores.len() == 1 {
        (
            NodeArena::transactional(stores[0].clone()),
            NodeArena::transactional(stores[0].clone()),
        )
    } else {
        (
            NodeArena::transactional_round_robin(stores.to_vec()),
            NodeArena::transactional_round_robin(stores.to_vec()),
        )
    }
}

impl Instance {
    fn build(kind: ReprKind, dir: &Path, input: &Input, seed: u64) -> Result<Instance, String> {
        let (count, size) = match kind {
            ReprKind::OffHolder => (1, 96 << 20),
            _ => (FAN_OUT, 32 << 20),
        };
        let paths: Vec<PathBuf> = (0..count)
            .map(|j| dir.join(format!("{}-{j}.nvr", kind.name())))
            .collect();
        let regions = paths
            .iter()
            .map(|p| Region::create_file(p, size).map_err(err))
            .collect::<Result<Vec<_>, _>>()?;
        let stores = regions
            .iter()
            .map(|r| ObjectStore::format(r).map_err(err))
            .collect::<Result<Vec<_>, _>>()?;
        let (set_arena, idx_arena) = arenas(&stores);
        set_arena
            .scatter(KEYS, structures::node_size(kind), seed)
            .map_err(err)?;
        let mut s = structures::create(kind, set_arena, idx_arena, BUCKETS, ROOTS)?;
        for i in 0..KEYS {
            s.set_insert(input.keys[i])?;
            s.art_insert(&input.words[i])?;
        }
        for r in &regions {
            r.sync().map_err(err)?;
        }
        Ok(Instance {
            kind,
            paths,
            regions,
            stores,
            s: Some(s),
        })
    }

    fn s(&mut self) -> &mut dyn Structures {
        self.s.as_deref_mut().expect("attached instance")
    }

    /// Closes every region of the instance and reopens each at a new
    /// base, then re-attaches: the paper's remap, which off-holder and
    /// RIV pointers survive without any fix-up pass.
    fn remap(&mut self, t: &mut RemapTimes) -> Result<(), String> {
        self.s = None;
        self.stores.clear();
        let old: Vec<usize> = self.regions.iter().map(Region::base).collect();
        for r in self.regions.drain(..) {
            let t0 = Instant::now();
            r.close().map_err(err)?;
            t.close.push(t0.elapsed());
        }
        for (path, &avoid) in self.paths.iter().zip(&old) {
            let lines0 = metrics::snapshot().get(Counter::LlallocRecoveryLines);
            let t0 = Instant::now();
            let r = Region::open_file_avoiding(path, avoid).map_err(err)?;
            t.open.push(t0.elapsed());
            t.recovery_lines += metrics::snapshot().get(Counter::LlallocRecoveryLines) - lines0;
            if r.base() == avoid {
                return Err(format!("{} reopened at its old base", path.display()));
            }
            self.regions.push(r);
        }
        for r in &self.regions {
            let t0 = Instant::now();
            self.stores.push(ObjectStore::attach(r).map_err(err)?);
            t.store_attach.push(t0.elapsed());
        }
        let (set_arena, idx_arena) = arenas(&self.stores);
        let t0 = Instant::now();
        self.s = Some(structures::attach(self.kind, set_arena, idx_arena, ROOTS)?);
        t.attach.push(t0.elapsed());
        Ok(())
    }

    fn live_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.stats().live_bytes).sum()
    }

    fn close(mut self) -> Result<(), String> {
        self.s = None;
        self.stores.clear();
        for r in self.regions.drain(..) {
            r.close().map_err(err)?;
        }
        Ok(())
    }
}

/// Seeded keys and corpus words: entry `i` of both belongs together.
struct Input {
    keys: Vec<u64>,
    words: Vec<String>,
}

impl Input {
    fn new(seed: u64) -> Input {
        Input {
            keys: bench::workloads::keys(KEYS + RESERVE, seed),
            words: bench::workloads::suggest_corpus(KEYS + RESERVE, seed),
        }
    }
}

/// The oracle's model: which entries are present, and their words.
struct Model {
    present: Vec<bool>,
    /// Present entry ids, for uniform picks.
    live: Vec<u32>,
    words: BTreeSet<String>,
}

impl Model {
    fn new(input: &Input) -> Model {
        let u = input.keys.len();
        Model {
            present: (0..u).map(|i| i < KEYS).collect(),
            live: (0..KEYS as u32).collect(),
            words: input.words[..KEYS].iter().cloned().collect(),
        }
    }

    fn insert(&mut self, input: &Input, i: usize) {
        if !self.present[i] {
            self.present[i] = true;
            self.live.push(i as u32);
            self.words.insert(input.words[i].clone());
        }
    }

    fn range<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a String> + 'a {
        self.words
            .range::<str, _>((
                std::ops::Bound::Included(prefix),
                std::ops::Bound::Unbounded,
            ))
            .take_while(move |w| w.starts_with(prefix))
    }
}

/// One generated kernel op.
enum Op {
    Contains { r: usize, i: usize },
    Scan { r: usize, prefix: String },
    Write { i: usize },
    Batch { ids: Vec<usize> },
    Remap { r: usize },
}

fn generate(rng: &mut Rng, model: &Model, input: &Input, n: u64) -> Op {
    let r = (n % REPRS.len() as u64) as usize;
    let u = input.keys.len() as u64;
    match rng.pick(MIX) {
        Kind::Contains => Op::Contains {
            r,
            i: rng.below(u) as usize,
        },
        Kind::Scan => {
            let i = model.live[rng.below(model.live.len() as u64) as usize] as usize;
            let word = &input.words[i];
            let mut len = (3 + rng.below(6) as usize).min(word.len());
            while len < word.len() && model.range(&word[..len]).nth(MAX_MATCHES).is_some() {
                len += 1;
            }
            Op::Scan {
                r,
                prefix: word[..len].to_string(),
            }
        }
        Kind::Write => Op::Write {
            i: rng.below(u) as usize,
        },
        Kind::Batch => Op::Batch {
            ids: (0..BATCH).map(|_| rng.below(u) as usize).collect(),
        },
        Kind::Remap => Op::Remap { r },
    }
}

#[derive(Debug, Default)]
struct RemapTimes {
    close: Samples,
    open: Samples,
    store_attach: Samples,
    attach: Samples,
    recovery_lines: u64,
}

/// Everything a kernel pass measured.
#[derive(Default)]
struct Pass {
    samples: [Samples; NUM_CLASSES],
    contains_by_repr: [Samples; 3],
    scan_by_repr: [Samples; 3],
    remap: RemapTimes,
    examined: u64,
    returned: u64,
    ops: u64,
    remaps: u64,
    fat_reads: u64,
    fat_lookups: u64,
    fat_hits: u64,
    fat_misses: u64,
    records: Vec<Record>,
}

struct Kernels {
    input: Input,
    model: Model,
    inst: Vec<Instance>,
    mismatches: u64,
    first: Vec<String>,
}

impl Kernels {
    fn fail(&mut self, what: String) {
        self.mismatches += 1;
        if self.first.len() < 5 {
            self.first.push(what);
        }
    }

    /// One insert on every representation; returns whether it applied
    /// and each representation's time.
    fn insert(&mut self, i: usize) -> Result<(bool, [u64; 3]), String> {
        let key = self.input.keys[i];
        let mut applied = [false; 3];
        let mut ns = [0u64; 3];
        for (r, inst) in self.inst.iter_mut().enumerate() {
            let s = inst.s();
            let t0 = Instant::now();
            applied[r] = s.set_insert(key)?;
            if applied[r] {
                s.art_insert(&self.input.words[i])?;
            }
            ns[r] = t0.elapsed().as_nanos() as u64;
        }
        let want = !self.model.present[i];
        if applied.iter().any(|&a| a != want) {
            self.fail(format!(
                "insert of entry {i}: applied {applied:?}, model {want}"
            ));
        }
        self.model.insert(&self.input, i);
        Ok((want, ns))
    }

    fn contains(&mut self, r: usize, i: usize) -> (bool, u64) {
        let key = self.input.keys[i];
        let s = self.inst[r].s();
        let t0 = Instant::now();
        let found = s.contains(key);
        (found, t0.elapsed().as_nanos() as u64)
    }

    /// Runs `n` ops; with `traced`, takes counter deltas around every op
    /// and keeps a span record for every `stride`-th.
    fn pass(&mut self, seed: u64, n: u64, traced: bool, stride: u64) -> Result<Pass, String> {
        let mut rng = Rng::new(seed, 3);
        let mut p = Pass::default();
        let epoch = Instant::now();
        for k in 0..n {
            let op = generate(&mut rng, &self.model, &self.input, k);
            let snap0 = traced.then(metrics::snapshot);
            let start = epoch.elapsed().as_nanos() as u64;
            let (class, repr, applied, ns) = self.apply(&mut p, op, k)?;
            let end = start + ns;
            p.ops += 1;
            if let Some(snap0) = snap0 {
                let counters = trace::deltas(&snap0, &metrics::snapshot());
                if class == Class::Read && REPRS[repr] == ReprKind::FatCached {
                    p.fat_reads += 1;
                    p.fat_lookups += counters[trace::tracked(Counter::FatLookups)];
                    p.fat_hits += counters[trace::tracked(Counter::FatCacheHits)];
                    p.fat_misses += counters[trace::tracked(Counter::FatCacheMisses)];
                }
                if k % stride == 0 {
                    let mut spans = [(0, 0); 7];
                    spans[span::CLIENT] = (start, end);
                    p.records.push(Record {
                        source: "kernel",
                        id: k + 1,
                        class: class.name(),
                        tenant: repr as u32,
                        spans,
                        request_bytes: 0,
                        response_bytes: 0,
                        applied,
                        counters,
                    });
                }
            }
        }
        Ok(p)
    }

    /// Executes one op. Returns its class, representation, applied
    /// writes and timed nanoseconds.
    fn apply(&mut self, p: &mut Pass, op: Op, k: u64) -> Result<(Class, usize, u64, u64), String> {
        Ok(match op {
            Op::Contains { r, i } => {
                let (found, ns) = self.contains(r, i);
                p.samples[Class::Read.idx()].push_ns(ns);
                p.contains_by_repr[r].push_ns(ns);
                if found != self.model.present[i] {
                    self.fail(format!(
                        "contains entry {i} on {}: {found}",
                        REPRS[r].name()
                    ));
                }
                if k.is_multiple_of(CROSS_CHECK) {
                    for other in 0..REPRS.len() {
                        if self.contains(other, i).0 != found {
                            self.fail(format!("reprs disagree on entry {i}"));
                        }
                    }
                }
                (Class::Read, r, 0, ns)
            }
            Op::Scan { r, prefix } => {
                let s = self.inst[r].s();
                let t0 = Instant::now();
                let words = s.prefix_scan(&prefix)?;
                let ns = t0.elapsed().as_nanos() as u64;
                p.samples[Class::Scan.idx()].push_ns(ns);
                p.scan_by_repr[r].push_ns(ns);
                if !words.is_empty() {
                    p.examined += words.len() as u64;
                    p.returned += words.len().min(LISTED) as u64;
                }
                if !words.iter().eq(self.model.range(&prefix)) {
                    self.fail(format!(
                        "scan {prefix:?} on {}: {} words",
                        REPRS[r].name(),
                        words.len()
                    ));
                }
                if k.is_multiple_of(CROSS_CHECK) {
                    for other in 0..REPRS.len() {
                        if self.inst[other].s().prefix_scan(&prefix)? != words {
                            self.fail(format!("reprs disagree on scan {prefix:?}"));
                        }
                    }
                }
                (Class::Scan, r, 0, ns)
            }
            Op::Write { i } => {
                let (applied, ns) = self.insert(i)?;
                ns.iter()
                    .for_each(|&v| p.samples[Class::Write.idx()].push_ns(v));
                (Class::Write, 0, 3 * u64::from(applied), ns.iter().sum())
            }
            Op::Batch { ids } => {
                let mut ns = [0u64; 3];
                let mut applied = 0;
                for i in ids {
                    let (a, t) = self.insert(i)?;
                    applied += 3 * u64::from(a);
                    (0..3).for_each(|r| ns[r] += t[r]);
                }
                ns.iter()
                    .for_each(|&v| p.samples[Class::Batch.idx()].push_ns(v));
                (Class::Batch, 0, applied, ns.iter().sum())
            }
            Op::Remap { r } => {
                // The remap plus the lookup that follows it, as one request.
                let t0 = Instant::now();
                self.inst[r].remap(&mut p.remap)?;
                let i = self.model.live[0] as usize;
                let found = self.inst[r].s().contains(self.input.keys[i]);
                let ns = t0.elapsed().as_nanos() as u64;
                if !found {
                    self.fail(format!(
                        "entry {i} lost across a remap of {}",
                        REPRS[r].name()
                    ));
                }
                p.samples[Class::Reopen.idx()].push_ns(ns);
                p.remaps += 1;
                (Class::Reopen, r, 0, ns)
            }
        })
    }

    /// Full-structure checks at the end: every representation holds
    /// exactly the model and passes its invariant checks.
    fn final_check(&mut self) {
        let want: BTreeSet<u64> = (0..self.input.keys.len())
            .filter(|&i| self.model.present[i])
            .map(|i| self.input.keys[i])
            .collect();
        let mut failures = Vec::new();
        for inst in &mut self.inst {
            let name = inst.kind.name();
            let s = inst.s();
            let keys = s.set_keys();
            let got: BTreeSet<u64> = keys.iter().copied().collect();
            if got != want || keys.len() != want.len() || s.art_keys() != want.len() as u64 {
                failures.push(format!("{name}: final contents differ from the model"));
            }
            if let Err(e) = s.check_invariants() {
                failures.push(format!("{name}: invariants: {e}"));
            }
        }
        failures.into_iter().for_each(|f| self.fail(f));
    }

    fn bytes_per_key(&mut self) -> f64 {
        let bytes: u64 = self.inst.iter().map(Instance::live_bytes).sum();
        let keys: u64 = self
            .inst
            .iter_mut()
            .map(|i| {
                let s = i.s();
                s.set_keys().len() as u64 + s.art_keys()
            })
            .sum();
        ratio(bytes as f64, keys as f64)
    }

    fn error(&self) -> Option<String> {
        (self.mismatches > 0).then(|| {
            format!(
                "pi-kernels: {} oracle mismatches, first: {:?}",
                self.mismatches, self.first
            )
        })
    }

    fn close(self) -> Result<(), String> {
        for inst in self.inst {
            inst.close()?;
        }
        Ok(())
    }
}

fn setup(seed: u64, dir: &Path) -> Result<Kernels, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(err)?;
    let input = Input::new(seed);
    let inst = REPRS
        .iter()
        .map(|&kind| Instance::build(kind, dir, &input, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let model = Model::new(&input);
    Ok(Kernels {
        input,
        model,
        inst,
        mismatches: 0,
        first: Vec::new(),
    })
}

const SETUPS: usize = 3;

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64, dir: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kernels = None;
    for k in 0..SETUPS {
        let sdir = dir.join(format!("setup-{k}"));
        let t0 = Instant::now();
        let kn = setup(seed, &sdir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            kn.close()?;
            let _ = std::fs::remove_dir_all(&sdir);
        } else {
            kernels = Some(kn);
        }
    }
    let mut kn = kernels.expect("at least one set-up");
    let mut p = kn.pass(seed, seconds * OPS_PER_SECOND, false, 1)?;
    kn.final_check();
    let bytes_per_key = kn.bytes_per_key();
    let error = kn.error();
    kn.close()?;

    Ok(Outcome {
        metrics: crate::end_to_end(median(&setup_s), &mut p.samples, p.ops, bytes_per_key),
        attempted: p.ops,
        failed: 0,
        error,
        notes: crate::class_counts(&p.samples),
        records: Vec::new(),
    })
}

/// Requests of the `serve-read` probe that gives `pi-kernels` its
/// codec and server-layer numbers (the kernels themselves have no
/// server).
const PROBE_OPS: usize = 60_000;

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, seconds: u64, dir: &Path) -> Result<Outcome, String> {
    let mut kn = setup(seed, &dir.join("kernels"))?;
    let n = seconds * OPS_PER_SECOND;
    let stride = n.div_ceil(20_000).max(1);
    let mut p = kn.pass(seed, n, true, stride)?;
    kn.final_check();
    let mut error = kn.error();
    kn.close()?;

    let probe_shape = serve::shape("serve-read").expect("known workload");
    let probe = serve::traced(&probe_shape, seed, PROBE_OPS, &dir.join("probe"))?;
    error = error.or(probe.error);
    let mut l: Layers = probe.layers;

    // Lookups, scans, remaps and pointer loads come from the kernels
    // themselves; transactional writes and their persistence counts
    // (which the kernels do not issue) stay the probe's.
    l.pds_set_contains_ns = p.samples[Class::Read.idx()].median_ns();
    l.pds_art_prefix_scan_us = p.samples[Class::Scan.idx()].quantile_us(0.5);
    l.pds_scan_examined_per_returned = ratio(p.examined as f64, p.returned as f64);
    for r in 0..REPRS.len() {
        l.pds_contains_ns[r] = p.contains_by_repr[r].median_ns();
        l.pds_prefix_scan_us[r] = p.scan_by_repr[r].quantile_us(0.5);
    }
    l.pds_attach_check_us = p.remap.attach.quantile_us(0.5);
    l.pstore_attach_us = p.remap.store_attach.quantile_us(0.5);
    l.nvmsim_region_open_us = p.remap.open.quantile_us(0.5);
    l.nvmsim_region_close_us = p.remap.close.quantile_us(0.5);
    l.nvmsim_recovery_lines_per_open =
        ratio(p.remap.recovery_lines as f64, p.remap.open.len() as f64);
    l.tenant_reopen_share = ratio(p.remaps as f64, p.ops as f64);
    l.tenant_evictions_per_kreq = ratio(p.remaps as f64 * 1e3, p.ops as f64);
    l.fat_reads(p.fat_reads, p.fat_lookups, p.fat_hits, p.fat_misses);
    l.pi_core_loads(seed);
    l.samples = Class::REPORTED.map(|c| p.samples[c.idx()].len() as f64);
    l.reopen_p99_us = p.samples[Class::Reopen.idx()].quantile_us(0.99);

    let mut m = Metrics::default();
    l.to_metrics(&mut m);
    let mut records = probe.records;
    records.append(&mut p.records);
    Ok(Outcome {
        metrics: m,
        attempted: p.ops + probe.requests,
        failed: probe.failed,
        error,
        notes: Vec::new(),
        records,
    })
}
