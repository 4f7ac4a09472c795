//! Fence budget of one served write.
//!
//! The region server commits a write's set op and its suggestion-index
//! op in one undo transaction, and only when the write applied
//! (`Tenant::insert`/`remove`). This test drives that shape on an
//! off-holder `PHashSet` + `PArt` pair sharing one object store and pins
//! the persistence each kind of write costs, read as deltas of the
//! process-wide `nvmsim::metrics` counters.
//!
//! The binary holds a single test on purpose: the counters are
//! process-wide, so a test running beside it would pollute the deltas.

use nvm_pi::nvmsim::metrics::{self, Counter};
use nvm_pi::nvserver::index_word;
use nvm_pi::pstore::ObjectStore;
use nvm_pi::{NodeArena, OffHolder, PArt, PHashSet, Region};

/// (fences, flush calls, commits) one closure call costs.
fn cost(f: impl FnOnce()) -> (u64, u64, u64) {
    let before = metrics::snapshot();
    f();
    let d = metrics::snapshot().delta(&before);
    (
        d.get(Counter::WbarrierCalls),
        d.get(Counter::ClflushCalls),
        d.get(Counter::TxCommits),
    )
}

/// The server's write: set op and index op in one transaction,
/// committed only when the set op applied. Returns whether it applied.
fn write(
    store: &ObjectStore,
    set: &mut PHashSet<OffHolder, 32>,
    idx: &mut PArt<OffHolder>,
    put: bool,
    key: u64,
) -> bool {
    let mut tx = store.begin();
    let applied = if put {
        set.insert_in(&mut tx, key).unwrap()
    } else {
        set.remove_in(&mut tx, key).unwrap()
    };
    if applied {
        if put {
            idx.insert_in(&mut tx, &index_word(key)).unwrap();
        } else {
            assert!(idx.remove_in(&mut tx, &index_word(key)).unwrap());
        }
        tx.commit();
    }
    applied
}

#[test]
fn served_write_fence_budget() {
    let region = Region::create(8 << 20).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let mut set: PHashSet<OffHolder, 32> =
        PHashSet::create_rooted(NodeArena::transactional(store.clone()), 64, "set").unwrap();
    let mut idx: PArt<OffHolder> =
        PArt::create_rooted(NodeArena::transactional(store.clone()), "idx").unwrap();
    for key in 0..64 {
        assert!(write(&store, &mut set, &mut idx, true, key));
    }

    // A write that changes nothing logs nothing, so dropping its
    // transaction persists nothing and commits nothing.
    for (put, key) in [(true, 5), (true, 63), (false, 1_000), (false, 64)] {
        let c = cost(|| assert!(!write(&store, &mut set, &mut idx, put, key)));
        assert_eq!(
            c,
            (0, 0, 0),
            "no-op put={put} key={key}: (fences, flushes, commits)"
        );
    }

    // An applied delete: the set's slot + length group (2 fences), the
    // index's leaf counter + header counters group (2), and the commit
    // (its fence, then the fenced log truncation: 2).
    for key in [3, 17, 40] {
        let c = cost(|| assert!(write(&store, &mut set, &mut idx, false, key)));
        assert_eq!((c.0, c.2), (6, 1), "delete key={key}: (fences, commits)");
    }

    // An applied put, ceiling 14 fences: the set's node allocation
    // (object-list group 2, allocator bitmap CAS 1, link-in 1) and its
    // slot + length group (2); the index's counters + edited node group
    // (2) and up to two allocations for a leaf split or a node growth
    // (2 each, their object-list words already covered by the set's
    // snapshot); and the commit (2). Two commits used to cost about 24.
    for key in 100..110 {
        let c = cost(|| assert!(write(&store, &mut set, &mut idx, true, key)));
        assert_eq!(c.2, 1, "put key={key}: commits");
        assert!(
            c.0 <= 14,
            "put key={key}: {} fences over the ceiling of 14",
            c.0
        );
    }
    set.check_invariants().unwrap();
    idx.check_invariants().unwrap();
}
