//! Per-layer metrics, named after the crates, and how they are derived
//! from traced requests, the owned-stack replay and a pointer-load
//! microbenchmark.

use crate::gen::Class;
use crate::replay::ReplayTimes;
use crate::stats::{median, ratio, Metrics, Samples};
use crate::structures::REPRS;
use crate::trace::{span, Record};
use nvmsim::metrics::Counter;
use nvmsim::Region;
use pi_core::{FatPtrCached, OffHolder, PtrRepr, Riv};
use std::time::Instant;

/// The reconciliation band: the child-span medians plus the client's
/// and transport's self times must land within this share of the traced
/// request median.
pub const RECONCILE_BAND: f64 = 0.10;

/// Every per-layer metric. Units are in [`Layers::to_metrics`].
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub codec_encode_request_ns: f64,
    pub codec_decode_request_ns: f64,
    pub codec_encode_response_ns: f64,
    pub codec_decode_response_ns: f64,
    pub codec_request_bytes: f64,
    pub codec_response_bytes: f64,
    pub server_submit_p50_us: f64,
    pub server_submit_p99_us: f64,
    pub server_handoff_p50_us: f64,
    pub server_shed: f64,
    pub server_deadline_exceeded: f64,
    pub tenant_reopen_share: f64,
    pub tenant_evictions_per_kreq: f64,
    pub pds_set_insert_tx_us: f64,
    pub pds_set_remove_tx_us: f64,
    pub pds_art_insert_tx_us: f64,
    pub pds_art_remove_tx_us: f64,
    pub pds_set_contains_ns: f64,
    pub pds_art_prefix_scan_us: f64,
    pub pds_scan_examined_per_returned: f64,
    pub pds_contains_ns: [f64; 3],
    pub pds_prefix_scan_us: [f64; 3],
    pub pds_attach_check_us: f64,
    pub pstore_tx_commits_per_write: f64,
    pub pstore_undo_entries_per_write: f64,
    pub pstore_attach_us: f64,
    pub nvmsim_fences_per_write: f64,
    pub nvmsim_flush_calls_per_write: f64,
    pub nvmsim_flush_lines_per_write: f64,
    pub nvmsim_persist_model_us_per_write: f64,
    pub nvmsim_allocs_per_write: f64,
    pub nvmsim_frees_per_write: f64,
    pub nvmsim_region_open_us: f64,
    pub nvmsim_region_close_us: f64,
    pub nvmsim_recovery_lines_per_open: f64,
    pub pi_core_load_ns: [f64; 3],
    pub pi_core_fat_lookups_per_read: f64,
    pub pi_core_fat_cache_hit_ratio: f64,
    pub pi_core_fat_reads: f64,
    pub trace_requests: f64,
    pub trace_writes_applied: f64,
    pub trace_request_p50_us: f64,
    pub trace_span_sum_p50_us: f64,
    pub trace_client_self_p50_us: f64,
    pub trace_transport_self_p50_us: f64,
    pub trace_untraced_p50_us: f64,
    pub trace_overhead_us: f64,
    pub server_replayed_op_p50_us: f64,
    pub trace_reconcile_error: f64,
    pub samples: [f64; 5],
    pub reopen_p99_us: f64,
}

fn span_samples(records: &[Record], f: impl Fn(&Record) -> u64) -> Samples {
    let mut s = Samples::default();
    records.iter().for_each(|r| s.push_ns(f(r)));
    s
}

impl Layers {
    /// Codec, submit, handoff and reconciliation figures from the traced
    /// requests; `op_ns` are the replayed op times in stream order.
    pub fn served(
        &mut self,
        records: &[Record],
        record_ops: &[usize],
        op_ns: &[u64],
        mut untraced: Samples,
    ) {
        let med = |f: &dyn Fn(&Record) -> u64| span_samples(records, f).median_ns();
        self.codec_encode_request_ns = med(&|r| r.dur(span::ENCODE_REQUEST));
        self.codec_decode_request_ns = med(&|r| r.dur(span::DECODE_REQUEST));
        self.codec_encode_response_ns = med(&|r| r.dur(span::ENCODE_RESPONSE));
        self.codec_decode_response_ns = med(&|r| r.dur(span::DECODE_RESPONSE));
        let n = records.len() as f64;
        self.codec_request_bytes = ratio(
            records.iter().map(|r| r.request_bytes).sum::<u64>() as f64,
            n,
        );
        self.codec_response_bytes = ratio(
            records.iter().map(|r| r.response_bytes).sum::<u64>() as f64,
            n,
        );
        let mut submit = span_samples(records, |r| r.dur(span::SUBMIT));
        self.server_submit_p50_us = submit.quantile_us(0.5);
        self.server_submit_p99_us = submit.quantile_us(0.99);
        let mut handoff = Samples::default();
        let mut replayed = Samples::default();
        for (r, &i) in records.iter().zip(record_ops) {
            handoff.push_ns(r.dur(span::SUBMIT).saturating_sub(op_ns[i]));
            replayed.push_ns(op_ns[i]);
        }
        self.server_handoff_p50_us = handoff.quantile_us(0.5);
        self.server_replayed_op_p50_us = replayed.quantile_us(0.5);

        let client_self = med(&|r| {
            r.dur(span::CLIENT).saturating_sub(
                r.dur(span::ENCODE_REQUEST) + r.dur(span::TRANSPORT) + r.dur(span::DECODE_RESPONSE),
            )
        });
        let transport_self = med(&|r| {
            r.dur(span::TRANSPORT).saturating_sub(
                r.dur(span::DECODE_REQUEST) + r.dur(span::SUBMIT) + r.dur(span::ENCODE_RESPONSE),
            )
        });
        self.trace_requests = n;
        self.trace_request_p50_us = med(&|r| r.dur(span::CLIENT)) / 1e3;
        self.trace_client_self_p50_us = client_self / 1e3;
        self.trace_transport_self_p50_us = transport_self / 1e3;
        self.trace_span_sum_p50_us = (self.codec_encode_request_ns
            + self.codec_decode_request_ns
            + submit.median_ns()
            + self.codec_encode_response_ns
            + self.codec_decode_response_ns
            + client_self
            + transport_self)
            / 1e3;
        self.trace_reconcile_error = ratio(
            self.trace_span_sum_p50_us - self.trace_request_p50_us,
            self.trace_request_p50_us,
        );
        self.trace_untraced_p50_us = untraced.quantile_us(0.5);
        self.trace_overhead_us = self.trace_request_p50_us - self.trace_untraced_p50_us;
    }

    /// `None` when the spans reconcile with the request median.
    pub fn reconcile_error(&self) -> Option<String> {
        (self.trace_reconcile_error.abs() > RECONCILE_BAND).then(|| {
            format!(
                "spans do not reconcile: span medians sum to {:.3} us, request median {:.3} us (band {RECONCILE_BAND})",
                self.trace_span_sum_p50_us, self.trace_request_p50_us
            )
        })
    }

    /// `pds`, `pstore` and `nvmsim` call times from a replay.
    pub fn replayed(&mut self, t: &mut ReplayTimes) {
        self.pds_set_insert_tx_us = t.set_insert_tx.quantile_us(0.5);
        self.pds_set_remove_tx_us = t.set_remove_tx.quantile_us(0.5);
        self.pds_art_insert_tx_us = t.art_insert_tx.quantile_us(0.5);
        self.pds_art_remove_tx_us = t.art_remove_tx.quantile_us(0.5);
        self.pds_set_contains_ns = t.set_contains.median_ns();
        self.pds_art_prefix_scan_us = t.art_prefix_scan.quantile_us(0.5);
        self.pds_scan_examined_per_returned = ratio(t.examined as f64, t.returned as f64);
        for i in 0..REPRS.len() {
            self.pds_contains_ns[i] = t.contains_by_repr[i].median_ns();
            self.pds_prefix_scan_us[i] = t.scan_by_repr[i].quantile_us(0.5);
        }
        self.pds_attach_check_us = t.attach_check.quantile_us(0.5);
        self.pstore_attach_us = t.store_attach.quantile_us(0.5);
        self.nvmsim_region_open_us = t.region_open.quantile_us(0.5);
        self.nvmsim_region_close_us = t.region_close.quantile_us(0.5);
        self.nvmsim_recovery_lines_per_open =
            ratio(t.recovery_lines as f64, t.region_open.len() as f64);
    }

    /// Persistence counts per applied write over the traced write and
    /// batch requests (reopens excluded: they also pay the reopen).
    pub fn counted_writes(&mut self, records: &[Record]) {
        let writes: Vec<&Record> = records
            .iter()
            .filter(|r| r.class == Class::Write.name() || r.class == Class::Batch.name())
            .collect();
        let applied = writes.iter().map(|r| r.applied).sum::<u64>() as f64;
        let sum = |c: Counter| writes.iter().map(|r| r.count(c)).sum::<u64>() as f64;
        self.trace_writes_applied = applied;
        self.pstore_tx_commits_per_write = ratio(sum(Counter::TxCommits), applied);
        self.pstore_undo_entries_per_write = ratio(sum(Counter::UndoEntries), applied);
        self.nvmsim_fences_per_write = ratio(sum(Counter::WbarrierCalls), applied);
        self.nvmsim_flush_calls_per_write = ratio(sum(Counter::ClflushCalls), applied);
        self.nvmsim_flush_lines_per_write = ratio(sum(Counter::ClflushLines), applied);
        self.nvmsim_persist_model_us_per_write = ratio(
            (sum(Counter::WbarrierDelayNs) + sum(Counter::ClflushDelayNs)) / 1e3,
            applied,
        );
        self.nvmsim_allocs_per_write = ratio(sum(Counter::RegionAllocs), applied);
        self.nvmsim_frees_per_write = ratio(sum(Counter::RegionFrees), applied);
    }

    /// Fat-pointer lookup figures over `reads` reads of fat+cache
    /// structures, from the lookup, cache-hit and cache-miss counts.
    pub fn fat_reads(&mut self, reads: u64, lookups: u64, hits: u64, misses: u64) {
        self.pi_core_fat_reads = reads as f64;
        self.pi_core_fat_lookups_per_read = ratio(lookups as f64, reads as f64);
        self.pi_core_fat_cache_hit_ratio = ratio(hits as f64, (hits + misses) as f64);
    }

    /// `PtrRepr::load` per representation over a scattered array.
    pub fn pi_core_loads(&mut self, seed: u64) {
        self.pi_core_load_ns = [
            load_ns::<OffHolder>(seed),
            load_ns::<Riv>(seed),
            load_ns::<FatPtrCached>(seed),
        ];
    }

    /// Appends every per-layer metric, by name with its unit.
    pub fn to_metrics(&self, m: &mut Metrics) {
        m.put(
            "codec.encode_request_ns",
            self.codec_encode_request_ns,
            "ns",
        );
        m.put(
            "codec.decode_request_ns",
            self.codec_decode_request_ns,
            "ns",
        );
        m.put(
            "codec.encode_response_ns",
            self.codec_encode_response_ns,
            "ns",
        );
        m.put(
            "codec.decode_response_ns",
            self.codec_decode_response_ns,
            "ns",
        );
        m.put("codec.request_bytes", self.codec_request_bytes, "B");
        m.put("codec.response_bytes", self.codec_response_bytes, "B");
        m.put("server.submit_p50_us", self.server_submit_p50_us, "us");
        m.put("server.submit_p99_us", self.server_submit_p99_us, "us");
        m.put("server.handoff_p50_us", self.server_handoff_p50_us, "us");
        m.put(
            "server.replayed_op_p50_us",
            self.server_replayed_op_p50_us,
            "us",
        );
        m.put("server.shed", self.server_shed, "count");
        m.put(
            "server.deadline_exceeded",
            self.server_deadline_exceeded,
            "count",
        );
        m.put("tenant.reopen_share", self.tenant_reopen_share, "share");
        m.put(
            "tenant.evictions_per_kreq",
            self.tenant_evictions_per_kreq,
            "count/kreq",
        );
        m.put("pds.set_insert_tx_us", self.pds_set_insert_tx_us, "us");
        m.put("pds.set_remove_tx_us", self.pds_set_remove_tx_us, "us");
        m.put("pds.art_insert_tx_us", self.pds_art_insert_tx_us, "us");
        m.put("pds.art_remove_tx_us", self.pds_art_remove_tx_us, "us");
        m.put("pds.set_contains_ns", self.pds_set_contains_ns, "ns");
        m.put("pds.art_prefix_scan_us", self.pds_art_prefix_scan_us, "us");
        m.put(
            "pds.scan_examined_per_returned",
            self.pds_scan_examined_per_returned,
            "ratio",
        );
        for (i, k) in REPRS.iter().enumerate() {
            m.put(
                format!("pds.contains_ns.{}", k.name()),
                self.pds_contains_ns[i],
                "ns",
            );
        }
        for (i, k) in REPRS.iter().enumerate() {
            m.put(
                format!("pds.prefix_scan_us.{}", k.name()),
                self.pds_prefix_scan_us[i],
                "us",
            );
        }
        m.put("pds.attach_check_us", self.pds_attach_check_us, "us");
        m.put(
            "pstore.tx_commits_per_write",
            self.pstore_tx_commits_per_write,
            "count/write",
        );
        m.put(
            "pstore.undo_entries_per_write",
            self.pstore_undo_entries_per_write,
            "count/write",
        );
        m.put("pstore.attach_us", self.pstore_attach_us, "us");
        m.put(
            "nvmsim.fences_per_write",
            self.nvmsim_fences_per_write,
            "count/write",
        );
        m.put(
            "nvmsim.flush_calls_per_write",
            self.nvmsim_flush_calls_per_write,
            "count/write",
        );
        m.put(
            "nvmsim.flush_lines_per_write",
            self.nvmsim_flush_lines_per_write,
            "count/write",
        );
        m.put(
            "nvmsim.persist_model_us_per_write",
            self.nvmsim_persist_model_us_per_write,
            "us/write",
        );
        m.put(
            "nvmsim.allocs_per_write",
            self.nvmsim_allocs_per_write,
            "count/write",
        );
        m.put(
            "nvmsim.frees_per_write",
            self.nvmsim_frees_per_write,
            "count/write",
        );
        m.put("nvmsim.region_open_us", self.nvmsim_region_open_us, "us");
        m.put("nvmsim.region_close_us", self.nvmsim_region_close_us, "us");
        m.put(
            "nvmsim.recovery_lines_per_open",
            self.nvmsim_recovery_lines_per_open,
            "count/open",
        );
        for (i, k) in REPRS.iter().enumerate() {
            m.put(
                format!("pi_core.load_ns.{}", k.name()),
                self.pi_core_load_ns[i],
                "ns",
            );
        }
        m.put(
            "pi_core.fat_lookups_per_read",
            self.pi_core_fat_lookups_per_read,
            "count/read",
        );
        m.put(
            "pi_core.fat_cache_hit_ratio",
            self.pi_core_fat_cache_hit_ratio,
            "ratio",
        );
        m.put("pi_core.fat_reads", self.pi_core_fat_reads, "count");
        m.put("trace.requests", self.trace_requests, "count");
        m.put("trace.writes_applied", self.trace_writes_applied, "count");
        m.put("trace.request_p50_us", self.trace_request_p50_us, "us");
        m.put("trace.span_sum_p50_us", self.trace_span_sum_p50_us, "us");
        m.put(
            "trace.client_self_p50_us",
            self.trace_client_self_p50_us,
            "us",
        );
        m.put(
            "trace.transport_self_p50_us",
            self.trace_transport_self_p50_us,
            "us",
        );
        m.put("trace.untraced_p50_us", self.trace_untraced_p50_us, "us");
        m.put("trace.overhead_us", self.trace_overhead_us, "us");
        m.put("trace.reconcile_error", self.trace_reconcile_error, "share");
        for (i, c) in Class::REPORTED.iter().enumerate() {
            m.put(format!("samples.{}", c.name()), self.samples[i], "count");
        }
        m.put("reopen_p99_us", self.reopen_p99_us, "us");
    }
}

/// Slots loaded per repetition: 2^18 targets (4 MiB) plus their slots,
/// well past a 2 MiB per-core L2.
const LOAD_SLOTS: usize = 1 << 18;
const LOAD_REPS: usize = 15;

/// Median ns per `R::load` plus target read over slots that point at
/// shuffled 8-byte cells (the RIVBRK shape: one region, random targets).
fn load_ns<R: PtrRepr>(seed: u64) -> f64 {
    let region = Region::create(64 << 20).expect("load-bench region");
    let mut targets: Vec<usize> = (0..LOAD_SLOTS)
        .map(|i| {
            let cell = region.alloc(8, 8).expect("cell").as_ptr() as *mut u64;
            // SAFETY: a freshly allocated, exclusively owned 8-byte cell.
            unsafe { cell.write(i as u64) };
            cell as usize
        })
        .collect();
    crate::gen::Rng::new(seed, 9).shuffle(&mut targets);
    let slots = region
        .alloc(LOAD_SLOTS * std::mem::size_of::<R>(), 16)
        .expect("slots")
        .as_ptr() as *mut R;
    for (i, &t) in targets.iter().enumerate() {
        // SAFETY: slot `i` lies inside the slot array allocated above;
        // `store` needs the value at its final location, which it is.
        unsafe {
            slots.add(i).write(R::null());
            (*slots.add(i)).store(t);
        }
    }
    let mut reps = Vec::with_capacity(LOAD_REPS);
    for _ in 0..LOAD_REPS {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..LOAD_SLOTS {
            // SAFETY: every slot points at a live cell of the open region.
            acc = acc.wrapping_add(unsafe { *((*slots.add(i)).load() as *const u64) });
        }
        std::hint::black_box(acc);
        reps.push(t0.elapsed().as_nanos() as f64 / LOAD_SLOTS as f64);
    }
    region.close().expect("close load-bench region");
    median(&reps)
}
