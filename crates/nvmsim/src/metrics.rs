//! Process-wide counter registry for the repo's ablation and benchmark
//! instrumentation.
//!
//! The paper's argument is quantitative, so every claim a PR makes about
//! being faster needs counters that can be snapshotted, diffed across
//! timed sections, and serialized into the benchmark reports. Before this
//! module, each subsystem grew its own one-off counters
//! ([`crate::registry::cache_stats`], [`crate::shadow::event_count`],
//! per-region allocator stats); this registry unifies them behind one
//! dependency-free API:
//!
//! * a fixed inventory of named counters ([`Counter`]);
//! * **sharded** relaxed atomics — each thread lands on one of
//!   [`NUM_SHARDS`] cache-line-padded shards, so hot-path increments never
//!   contend on a shared line;
//! * [`snapshot`]/[`Snapshot::delta`] for capturing what a code section
//!   did, exact under concurrency (sums are monotone, deltas saturate).
//!
//! # Overhead policy
//!
//! A counter bump is one thread-sharded `fetch_add(Relaxed)` (~1 ns) and
//! rides only paths that already cross a call or lock boundary: emulated
//! flush/barrier latency injection, the fat-pointer hashtable (modeled as
//! a library call per the paper), allocator ops and their CAS retries,
//! region and transaction lifecycle edges. The RIV `x2p`/`p2x` hot path is
//! a handful of inline instructions and stays **branch-free by default**:
//! its counters only exist under the `pi-core` crate's `riv-metrics`
//! feature. See DESIGN.md "Observability".

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// One named process-wide counter. The inventory is fixed at
        /// compile time so storage is a flat array and snapshots are a
        /// single pass.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        /// Number of counters in the inventory.
        pub const NUM_COUNTERS: usize = [$(Counter::$variant),*].len();

        impl Counter {
            /// Every counter, in declaration (= serialization) order.
            pub const ALL: [Counter; NUM_COUNTERS] = [$(Counter::$variant),*];

            /// The counter's stable snake_case name, used in snapshots and
            /// the benchmark JSON schema.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Calls to [`crate::latency::wbarrier`].
    WbarrierCalls => "wbarrier_calls",
    /// Nanoseconds of emulated write-barrier latency injected.
    WbarrierDelayNs => "wbarrier_delay_ns",
    /// Calls to [`crate::latency::clflush_range`] with a nonempty range.
    ClflushCalls => "clflush_calls",
    /// Cache lines covered by those flush calls.
    ClflushLines => "clflush_lines",
    /// Nanoseconds of emulated per-line flush latency injected.
    ClflushDelayNs => "clflush_delay_ns",
    /// Shadow-tracker flush events (only while tracking is enabled).
    ShadowFlushEvents => "shadow_flush_events",
    /// Shadow-tracker fence events (only while tracking is enabled).
    ShadowFenceEvents => "shadow_fence_events",
    /// Fat-pointer hashtable probes (the per-dereference PMDK-style cost).
    FatLookups => "fat_lookups",
    /// `lastID`/`lastAddr` cache hits on the fat-with-cache path.
    FatCacheHits => "fat_cache_hits",
    /// `lastID`/`lastAddr` cache misses (fell through to the hashtable).
    FatCacheMisses => "fat_cache_misses",
    /// RIV `x2p` translations (zero unless `pi-core/riv-metrics` is on).
    RivX2p => "riv_x2p",
    /// RIV `p2x` translations (zero unless `pi-core/riv-metrics` is on).
    RivP2x => "riv_p2x",
    /// Regions registered (create or open).
    RegionOpens => "region_opens",
    /// Regions unregistered (close, crash teardown, or drop).
    RegionCloses => "region_closes",
    /// Region allocator allocations (bitmap and locked-core paths).
    RegionAllocs => "region_allocs",
    /// Region allocator frees.
    RegionFrees => "region_frees",
    /// Transactions begun on an object store.
    TxBegins => "tx_begins",
    /// Transactions committed.
    TxCommits => "tx_commits",
    /// Transactions aborted (explicitly or by drop).
    TxAborts => "tx_aborts",
    /// Undo-log entries appended.
    UndoEntries => "undo_entries",
    /// Redo-log entries recorded.
    RedoEntries => "redo_entries",
    /// Log entries skipped during recovery for failing their CRC.
    RecoverySkips => "recovery_skips",
    /// Replication deltas captured at durability points and enqueued.
    ReplDeltasEmitted => "repl_deltas_emitted",
    /// Replication deltas merged into a queued delta under coalescing
    /// backpressure.
    ReplDeltasCoalesced => "repl_deltas_coalesced",
    /// Replication deltas appended to the delta stream by the
    /// replicator worker.
    ReplDeltasShipped => "repl_deltas_shipped",
    /// Bytes of encoded stream records appended to replication sinks.
    ReplBytesShipped => "repl_bytes_shipped",
    /// Sum over emitted deltas of the epochs the replica was behind at
    /// enqueue time (integrated replica lag).
    ReplLagEpochs => "repl_lag_epochs",
    /// Replication deltas replayed into a replica image.
    ReplDeltasApplied => "repl_deltas_applied",
    /// Delta-stream decode or replay failures (torn stream, CRC or
    /// epoch-chain violations).
    ReplApplyFailures => "repl_apply_failures",
    /// Transient replication-sink I/O errors retried with backoff.
    ReplRetries => "repl_retries",
    /// Failed bitmap-word CAS attempts in the two-level allocator
    /// (contention on a shared subtree; see [`crate::llalloc`]).
    LlallocCasRetries => "llalloc_cas_retries",
    /// Subtree reservations taken over from another thread because no
    /// unreserved subtree of the class had free blocks.
    LlallocSubtreeSteals => "llalloc_subtree_steals",
    /// Subtrees carved from the bump frontier (locked slow path).
    LlallocSubtreesCreated => "llalloc_subtrees_created",
    /// Bitmap-page and descriptor lines visited by recovery/open scans.
    LlallocRecoveryLines => "llalloc_recovery_lines",
    /// Failed link CASes retried by lock-free persistent data structures
    /// (bucket-slot contention in pds-style link-and-persist sets).
    PdsCasRetries => "pds_cas_retries",
    /// Node/link persists issued before publishing a link (the
    /// "link-and-persist" half of the protocol: persist the node, CAS,
    /// persist the link).
    PdsLinkPersists => "pds_link_persists",
    /// NVTraverse-style flushes at traversal destinations (including the
    /// read-side flushes that make observed state durable before a
    /// response is returned).
    PdsDestinationFlushes => "pds_destination_flushes",
    /// Requests accepted into a region-server shard queue.
    SrvRequests => "srv_requests",
    /// Requests shed by admission control with an `Overloaded` response
    /// (either rejected at the gate or evicted from the queue to make
    /// room for a higher-priority arrival).
    SrvShed => "srv_shed",
    /// Requests answered `DeadlineExceeded` (expired while queued or
    /// before execution).
    SrvDeadlineExceeded => "srv_deadline_exceeded",
    /// Region-server retries after transient tenant faults (capped
    /// exponential backoff, same policy as `repl_retries`).
    SrvRetries => "srv_retries",
    /// Tenants evicted (closed cleanly) by hot/cold LRU pressure.
    SrvEvictions => "srv_evictions",
    /// Tenant regions reopened at a different base after eviction or
    /// crash — each one is a live position-independence exercise.
    SrvRemapReopens => "srv_remap_reopens",
    /// Primary→replica failovers via `repl::promote_avoiding`.
    SrvFailovers => "srv_failovers",
    /// Responses answered `Degraded` (read-only after failover, or
    /// replication lost after a permanent sink failure).
    SrvDegradedResponses => "srv_degraded_responses",
    /// Chunks released back to the NV-space pool that were already free —
    /// a chunk-accounting bug. Counted just before the pool panics so the
    /// leak is visible in metrics snapshots even from crash handlers.
    NvDoubleReleases => "nv_double_releases",
    /// Region growth operations (`Region::grow`) that committed new chunks
    /// or extended the committed tail of the run.
    RegionGrows => "region_grows",
    /// Translation misses on the lock-free fast path: an address outside
    /// the data area, an unmapped chunk, or an out-of-range region ID fed
    /// to `Addr2ID`/`ID2Addr` (e.g. a corrupted fat pointer). These return
    /// a typed miss instead of reading out of the tables.
    NvTranslationMisses => "nv_translation_misses",
}

/// Number of counter shards. Power of two; threads are assigned
/// round-robin, so contention on any one cache line is bounded by
/// `threads / NUM_SHARDS`.
pub const NUM_SHARDS: usize = 16;

#[repr(align(128))]
struct Shard {
    vals: [AtomicU64; NUM_COUNTERS],
}

static SHARDS: [Shard; NUM_SHARDS] = [const {
    Shard {
        vals: [const { AtomicU64::new(0) }; NUM_COUNTERS],
    }
}; NUM_SHARDS];

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize =
        NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (NUM_SHARDS - 1);
}

/// Adds `n` to counter `c` on the calling thread's shard.
#[inline]
pub fn add(c: Counter, n: u64) {
    // Threads being torn down fall back to shard 0 rather than dropping
    // the count.
    let shard = MY_SHARD.try_with(|s| *s).unwrap_or(0);
    SHARDS[shard].vals[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Increments counter `c` by one.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// A point-in-time reading of every counter (shards summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; NUM_COUNTERS],
}

impl Snapshot {
    /// The value of counter `c` in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// What happened between `earlier` and `self`: per-counter saturating
    /// difference. (Counters are monotone, so saturation only triggers if
    /// the arguments are swapped.)
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        Snapshot { values }
    }

    /// `(name, value)` pairs in stable [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c.name(), self.get(c)))
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot {
            values: [0; NUM_COUNTERS],
        }
    }
}

/// Reads every counter (summing the shards). Concurrent increments may or
/// may not be included — each counter is individually exact and monotone.
pub fn snapshot() -> Snapshot {
    let mut values = [0u64; NUM_COUNTERS];
    for shard in &SHARDS {
        for (i, v) in values.iter_mut().enumerate() {
            *v += shard.vals[i].load(Ordering::Relaxed);
        }
    }
    Snapshot { values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_visible_in_snapshot() {
        let before = snapshot();
        add(Counter::RegionGrows, 3);
        incr(Counter::RegionGrows);
        let after = snapshot();
        let d = after.delta(&before);
        assert!(d.get(Counter::RegionGrows) >= 4);
    }

    #[test]
    fn delta_saturates_and_default_is_zero() {
        let before = snapshot();
        add(Counter::RedoEntries, 7);
        let after = snapshot();
        // Swapped arguments saturate to zero rather than wrapping.
        assert_eq!(before.delta(&after).get(Counter::RedoEntries), 0);
        assert!(Snapshot::default().is_zero());
    }

    #[test]
    fn names_are_unique_and_snakecase() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate counter name");
        for name in names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} is not snake_case"
            );
        }
    }

    #[test]
    fn iteration_follows_declaration_order() {
        let snap = snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names[0], "wbarrier_calls");
        assert_eq!(names.len(), NUM_COUNTERS);
        assert_eq!(
            names.last().copied(),
            Some("nv_translation_misses"),
            "serialization order is the declaration order"
        );
    }

    #[test]
    fn counts_from_many_threads_all_land() {
        let before = snapshot();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        incr(Counter::TxBegins);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let d = snapshot().delta(&before);
        assert!(d.get(Counter::TxBegins) >= 8000);
    }
}
