//! A benchmark-owned set + index pair over one pointer representation,
//! built only from `pds`' public API: the same `PHashSet` and `PArt`
//! a server tenant holds, so calls into them can be timed directly.

use nvserver::ReprKind;
use pds::{HsNode, NodeArena, PArt, PHashSet};
use pi_core::{FatPtrCached, OffHolder, PtrRepr, Riv};
use pstore::ObjectStore;

/// Payload bytes per hash-set node, as in a server tenant.
pub const PAYLOAD: usize = 32;

/// The representation-erased calls the benchmark times.
pub trait Structures {
    /// `PHashSet::contains`.
    fn contains(&self, key: u64) -> bool;
    /// `PHashSet::insert` (untimed builds).
    fn set_insert(&mut self, key: u64) -> Result<bool, String>;
    /// `PHashSet::insert_tx`.
    fn set_insert_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool, String>;
    /// `PHashSet::remove_tx`.
    fn set_remove_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool, String>;
    /// `PArt::insert` (untimed builds).
    fn art_insert(&mut self, word: &str) -> Result<(), String>;
    /// `PArt::insert_tx`.
    fn art_insert_tx(&mut self, store: &ObjectStore, word: &str) -> Result<(), String>;
    /// `PArt::remove_tx`.
    fn art_remove_tx(&mut self, store: &ObjectStore, word: &str) -> Result<(), String>;
    /// `PArt::prefix_scan`.
    fn prefix_scan(&self, prefix: &str) -> Result<Vec<String>, String>;
    /// Both structures' `check_invariants`.
    fn check_invariants(&self) -> Result<(), String>;
    /// `PHashSet::keys`.
    fn set_keys(&self) -> Vec<u64>;
    /// `PArt::key_count`.
    fn art_keys(&self) -> u64;
}

struct Pair<R: PtrRepr> {
    set: PHashSet<R, PAYLOAD>,
    idx: PArt<R>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl<R: PtrRepr> Structures for Pair<R> {
    fn contains(&self, key: u64) -> bool {
        self.set.contains(key)
    }
    fn set_insert(&mut self, key: u64) -> Result<bool, String> {
        self.set.insert(key).map_err(err)
    }
    fn set_insert_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool, String> {
        self.set.insert_tx(store, key).map_err(err)
    }
    fn set_remove_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool, String> {
        self.set.remove_tx(store, key).map_err(err)
    }
    fn art_insert(&mut self, word: &str) -> Result<(), String> {
        self.idx.insert(word).map(|_| ()).map_err(err)
    }
    fn art_insert_tx(&mut self, store: &ObjectStore, word: &str) -> Result<(), String> {
        self.idx.insert_tx(store, word).map(|_| ()).map_err(err)
    }
    fn art_remove_tx(&mut self, store: &ObjectStore, word: &str) -> Result<(), String> {
        self.idx.remove_tx(store, word).map(|_| ()).map_err(err)
    }
    fn prefix_scan(&self, prefix: &str) -> Result<Vec<String>, String> {
        self.idx.prefix_scan(prefix).map_err(err)
    }
    fn check_invariants(&self) -> Result<(), String> {
        self.set.check_invariants()?;
        self.idx.check_invariants()
    }
    fn set_keys(&self) -> Vec<u64> {
        self.set.keys()
    }
    fn art_keys(&self) -> u64 {
        self.idx.key_count()
    }
}

/// Root names of one pair.
#[derive(Debug, Clone, Copy)]
pub struct Roots {
    /// Hash-set root.
    pub set: &'static str,
    /// ART root.
    pub idx: &'static str,
}

fn create_pair<R: PtrRepr>(
    set_arena: NodeArena,
    idx_arena: NodeArena,
    nbuckets: u64,
    roots: Roots,
) -> Result<Box<dyn Structures>, String> {
    Ok(Box::new(Pair::<R> {
        set: PHashSet::create_rooted(set_arena, nbuckets, roots.set).map_err(err)?,
        idx: PArt::create_rooted(idx_arena, roots.idx).map_err(err)?,
    }))
}

fn attach_pair<R: PtrRepr>(
    set_arena: NodeArena,
    idx_arena: NodeArena,
    roots: Roots,
) -> Result<Box<dyn Structures>, String> {
    Ok(Box::new(Pair::<R> {
        set: PHashSet::attach(set_arena, roots.set).map_err(err)?,
        idx: PArt::attach(idx_arena, roots.idx).map_err(err)?,
    }))
}

/// Creates an empty rooted pair in the given arenas.
pub fn create(
    kind: ReprKind,
    set_arena: NodeArena,
    idx_arena: NodeArena,
    nbuckets: u64,
    roots: Roots,
) -> Result<Box<dyn Structures>, String> {
    match kind {
        ReprKind::OffHolder => create_pair::<OffHolder>(set_arena, idx_arena, nbuckets, roots),
        ReprKind::Riv => create_pair::<Riv>(set_arena, idx_arena, nbuckets, roots),
        ReprKind::FatCached => create_pair::<FatPtrCached>(set_arena, idx_arena, nbuckets, roots),
    }
}

/// Attaches to a persisted pair by its roots.
pub fn attach(
    kind: ReprKind,
    set_arena: NodeArena,
    idx_arena: NodeArena,
    roots: Roots,
) -> Result<Box<dyn Structures>, String> {
    match kind {
        ReprKind::OffHolder => attach_pair::<OffHolder>(set_arena, idx_arena, roots),
        ReprKind::Riv => attach_pair::<Riv>(set_arena, idx_arena, roots),
        ReprKind::FatCached => attach_pair::<FatPtrCached>(set_arena, idx_arena, roots),
    }
}

/// Bytes of one hash-set node of `kind` (for `NodeArena::scatter`).
pub fn node_size(kind: ReprKind) -> usize {
    match kind {
        ReprKind::OffHolder => std::mem::size_of::<HsNode<OffHolder, PAYLOAD>>(),
        ReprKind::Riv => std::mem::size_of::<HsNode<Riv, PAYLOAD>>(),
        ReprKind::FatCached => std::mem::size_of::<HsNode<FatPtrCached, PAYLOAD>>(),
    }
}

/// The three representations a server mixes, in report order.
pub const REPRS: [ReprKind; 3] = [ReprKind::OffHolder, ReprKind::Riv, ReprKind::FatCached];

/// Index of `kind` in [`REPRS`].
pub fn repr_idx(kind: ReprKind) -> usize {
    REPRS.iter().position(|&k| k == kind).expect("known repr")
}
