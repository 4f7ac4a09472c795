//! Replays a served op stream against a benchmark-owned stack — one
//! `Region` + `ObjectStore` + `PHashSet` + `PArt` per tenant, with the
//! tenant's spec and representation — timing each public call. It
//! mirrors what a server tenant does per request (including LRU
//! eviction, remapped reopen and the invariant checks around them), so
//! "submit minus replayed op" isolates the server's own overhead.

use crate::oracle::{render_listing, LISTED};
use crate::stats::Samples;
use crate::structures::{self, repr_idx, Roots, Structures};
use nvmsim::metrics::{self, Counter};
use nvmsim::Region;
use nvserver::{index_word, BatchResult, ReqOp, Response, Status, TenantSpec};
use pds::NodeArena;
use pstore::ObjectStore;
use std::path::{Path, PathBuf};
use std::time::Instant;

const ROOTS: Roots = Roots {
    set: "bench.set",
    idx: "bench.idx",
};

/// Per-call timings of a replay.
#[derive(Debug, Default)]
pub struct ReplayTimes {
    /// `PHashSet::contains`, all reprs.
    pub set_contains: Samples,
    /// `PHashSet::contains` per repr (see `structures::REPRS`).
    pub contains_by_repr: [Samples; 3],
    /// `PHashSet::insert_tx`.
    pub set_insert_tx: Samples,
    /// `PHashSet::remove_tx`.
    pub set_remove_tx: Samples,
    /// `PArt::insert_tx`.
    pub art_insert_tx: Samples,
    /// `PArt::remove_tx`.
    pub art_remove_tx: Samples,
    /// `PArt::prefix_scan`, all reprs.
    pub art_prefix_scan: Samples,
    /// `PArt::prefix_scan` per repr.
    pub scan_by_repr: [Samples; 3],
    /// `Region::open_file_avoiding` at a reopen.
    pub region_open: Samples,
    /// `Region::close` at an eviction.
    pub region_close: Samples,
    /// `ObjectStore::attach` at a reopen.
    pub store_attach: Samples,
    /// Structure attach plus `check_invariants` at a reopen.
    pub attach_check: Samples,
    /// Allocator recovery lines scanned by the timed opens.
    pub recovery_lines: u64,
    /// Matches the timed prefix scans returned from the index.
    pub examined: u64,
    /// Matches a served reply would list (at most 16 per scan).
    pub returned: u64,
    /// Sum of the timed calls of each replayed request, in op order.
    pub op_ns: Vec<u64>,
}

struct OpenTenant {
    s: Box<dyn Structures>,
    store: ObjectStore,
    region: Region,
}

struct ReplayTenant {
    spec: TenantSpec,
    path: PathBuf,
    open: Option<OpenTenant>,
    last_base: usize,
    last_used: u64,
}

/// The owned stack of every tenant plus the timings gathered so far.
pub struct Replay {
    tenants: Vec<ReplayTenant>,
    max_open: usize,
    tick: u64,
    /// Whether calls are being recorded (off while preloading).
    pub timed: bool,
    /// Timings of the recorded calls.
    pub times: ReplayTimes,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times `f`, adding its duration to `total` and, when `timed`, to `s`.
fn timed_call<T>(timed: bool, s: &mut Samples, total: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    *total += ns;
    if timed {
        s.push_ns(ns);
    }
    out
}

impl Replay {
    /// A stack for `specs` (ids `0..n`) with region images under `dir`
    /// and the server's open-tenant ceiling `max_open`.
    pub fn new(specs: &[TenantSpec], dir: &Path, max_open: usize) -> Replay {
        let tenants = specs
            .iter()
            .map(|spec| ReplayTenant {
                spec: spec.clone(),
                path: dir.join(format!("replay-{}.nvr", spec.id)),
                open: None,
                last_base: 0,
                last_used: 0,
            })
            .collect();
        Replay {
            tenants,
            max_open,
            tick: 0,
            timed: false,
            times: ReplayTimes::default(),
        }
    }

    /// Applies one request the way a shard worker does, returning the
    /// response a server would give.
    pub fn apply(&mut self, id: u64, tenant: u32, op: &ReqOp) -> Result<Response, String> {
        let mut total = 0u64;
        self.tick += 1;
        let t = tenant as usize;
        let needs_open = self.tenants[t].open.is_none();
        if needs_open {
            self.evict_coldest(&mut total)?;
        }
        self.tenants[t].last_used = self.tick;
        let mut resp = Response {
            id,
            status: Status::Ok,
            found: None,
            attempts: 1,
            stamp: 0,
            batch: Vec::new(),
            detail: String::new(),
        };
        if matches!(op, ReqOp::Evict) {
            self.evict(t, &mut total)?;
            resp.detail = "evicted".to_string();
            self.finish(total);
            return Ok(resp);
        }
        self.ensure_open(t, &mut total)?;
        let timed = self.timed;
        let times = &mut self.times;
        let repr = repr_idx(self.tenants[t].spec.repr);
        let open = self.tenants[t].open.as_mut().expect("opened above");
        match op {
            ReqOp::Get { key } => {
                let t0 = Instant::now();
                let found = open.s.contains(*key);
                let ns = t0.elapsed().as_nanos() as u64;
                total += ns;
                if timed {
                    times.set_contains.push_ns(ns);
                    times.contains_by_repr[repr].push_ns(ns);
                }
                resp.found = Some(found);
            }
            ReqOp::Put { key } => {
                resp.found = Some(write(open, times, timed, &mut total, true, *key)?);
            }
            ReqOp::Delete { key } => {
                resp.found = Some(write(open, times, timed, &mut total, false, *key)?);
            }
            ReqOp::Batch { ops } => {
                for o in ops {
                    let applied = write(open, times, timed, &mut total, o.put, o.key)?;
                    resp.batch.push(BatchResult { applied, stamp: 0 });
                }
            }
            ReqOp::PrefixQuery { prefix } => {
                let t0 = Instant::now();
                let words = open.s.prefix_scan(prefix)?;
                let ns = t0.elapsed().as_nanos() as u64;
                total += ns;
                if timed {
                    times.art_prefix_scan.push_ns(ns);
                    times.scan_by_repr[repr].push_ns(ns);
                    if !words.is_empty() {
                        times.examined += words.len() as u64;
                        times.returned += words.len().min(LISTED) as u64;
                    }
                }
                resp.found = Some(!words.is_empty());
                resp.detail = render_listing(&words);
            }
            ReqOp::Evict | ReqOp::Heal => unreachable!("not generated"),
        }
        self.finish(total);
        Ok(resp)
    }

    fn finish(&mut self, total: u64) {
        if self.timed {
            self.times.op_ns.push(total);
        }
    }

    fn evict_coldest(&mut self, total: &mut u64) -> Result<(), String> {
        loop {
            let open: Vec<(usize, u64)> = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| t.open.is_some())
                .map(|(i, t)| (i, t.last_used))
                .collect();
            if open.len() < self.max_open {
                return Ok(());
            }
            let coldest = open
                .iter()
                .min_by_key(|(_, used)| *used)
                .map(|(i, _)| *i)
                .expect("open set non-empty");
            self.evict(coldest, total)?;
        }
    }

    /// Eviction as a tenant does it: invariant check, then a clean close.
    fn evict(&mut self, t: usize, total: &mut u64) -> Result<(), String> {
        let Some(open) = self.tenants[t].open.take() else {
            return Ok(());
        };
        let t0 = Instant::now();
        open.s.check_invariants()?;
        *total += t0.elapsed().as_nanos() as u64;
        let OpenTenant { s, store, region } = open;
        drop(s);
        drop(store);
        self.tenants[t].last_base = region.base();
        timed_call(self.timed, &mut self.times.region_close, total, || {
            region.close()
        })
        .map_err(err)
    }

    /// First open formats the image; later opens remap it away from the
    /// previous base and re-attach, as a tenant's reopen does.
    fn ensure_open(&mut self, t: usize, total: &mut u64) -> Result<(), String> {
        let tenant = &mut self.tenants[t];
        if tenant.open.is_some() {
            return Ok(());
        }
        let spec = &tenant.spec;
        if !tenant.path.exists() {
            let region = Region::create_file(&tenant.path, spec.region_size).map_err(err)?;
            let store = ObjectStore::format_with_log(&region, spec.log_cap).map_err(err)?;
            let s = structures::create(
                spec.repr,
                NodeArena::transactional(store.clone()),
                NodeArena::transactional(store.clone()),
                spec.nbuckets,
                ROOTS,
            )?;
            region.sync().map_err(err)?;
            tenant.open = Some(OpenTenant { s, store, region });
            return Ok(());
        }
        let timed = self.timed;
        let times = &mut self.times;
        let lines0 = metrics::snapshot().get(Counter::LlallocRecoveryLines);
        let region = timed_call(timed, &mut times.region_open, total, || {
            Region::open_file_avoiding(&tenant.path, tenant.last_base)
        })
        .map_err(err)?;
        if timed {
            times.recovery_lines += metrics::snapshot().get(Counter::LlallocRecoveryLines) - lines0;
        }
        if region.base() == tenant.last_base {
            return Err(format!("tenant {t} reopened at its old base"));
        }
        let store = timed_call(timed, &mut times.store_attach, total, || {
            ObjectStore::attach(&region)
        })
        .map_err(err)?;
        let s = timed_call(timed, &mut times.attach_check, total, || {
            let s = structures::attach(
                spec.repr,
                NodeArena::transactional(store.clone()),
                NodeArena::transactional(store.clone()),
                ROOTS,
            )?;
            s.check_invariants()?;
            Ok::<_, String>(s)
        })?;
        tenant.open = Some(OpenTenant { s, store, region });
        Ok(())
    }

    /// Closes every open tenant.
    pub fn close(mut self) -> Result<(), String> {
        let mut total = 0;
        self.timed = false;
        for t in 0..self.tenants.len() {
            self.evict(t, &mut total)?;
        }
        Ok(())
    }
}

/// One put or delete, as `Tenant::insert` / `Tenant::remove` run it:
/// the set transaction, then (when applied) the index transaction.
fn write(
    open: &mut OpenTenant,
    times: &mut ReplayTimes,
    timed: bool,
    total: &mut u64,
    put: bool,
    key: u64,
) -> Result<bool, String> {
    let store = &open.store;
    let s = &mut open.s;
    if put {
        let applied = timed_call(timed, &mut times.set_insert_tx, total, || {
            s.set_insert_tx(store, key)
        })?;
        if applied {
            let word = index_word(key);
            timed_call(timed, &mut times.art_insert_tx, total, || {
                s.art_insert_tx(store, &word)
            })?;
        }
        Ok(applied)
    } else {
        let applied = timed_call(timed, &mut times.set_remove_tx, total, || {
            s.set_remove_tx(store, key)
        })?;
        if applied {
            let word = index_word(key);
            timed_call(timed, &mut times.art_remove_tx, total, || {
                s.art_remove_tx(store, &word)
            })?;
        }
        Ok(applied)
    }
}
