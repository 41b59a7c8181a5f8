//! The pure grant-declaration cache kernel behind the frontend fast path.
//!
//! The fast path memoizes grant declarations per op shape so repeated
//! `read`/`write`/`ioctl` calls skip the declare/revoke hypercall pair
//! (PR 5). The correctness-critical part is the *lifecycle*: a cached
//! [`GrantRef`] must never be revoked while a pipelined operation that
//! attached it is still in flight — the backend's hypercalls for that op
//! would fail validation spuriously and pollute the audit log — and no
//! cached ref may remain observable after its grant-set is revoked.
//! [`GrantCache`] isolates exactly that bookkeeping, with no hypervisor,
//! channel, or clock dependencies, so the bounded-model checker in
//! `crates/verify` can explore its full state space against the revocation
//! model: hit, cold insert, FIFO eviction, purge-with-revoke (fast path
//! off), purge-without-revoke (containment and recovery).
//!
//! The cache never issues hypercalls itself. Every mutation *returns* the
//! refs whose authority must now change hands — [`Eviction::Revoke`] /
//! [`GrantCache::purge`] hand refs back for the frontend to revoke, and
//! [`Eviction::Transfer`] re-assigns an in-flight ref's ownership to the
//! pipeline entry that still uses it — keeping the kernel pure and the
//! policy auditable.

use std::collections::{BTreeMap, VecDeque};

use paradice_hypervisor::{GrantRef, MemOpGrant};

use crate::proto::WireOp;

/// Key of one memoized grant declaration: the op shape whose repeated
/// occurrences may reuse a single declared [`GrantRef`]. Only `read`,
/// `write`, and `ioctl` shapes are cached — the ops the ioctl-heavy
/// workloads repeat — and the *full* canonical grant tuple participates, so
/// any shape change (different buffer, length, or derived grant set) misses
/// and declares cold.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct GrantCacheKey {
    /// Owning guest: cached declarations live in a per-guest grant shard
    /// (ISSUE 10), so the key is guest-qualified — one guest's cache
    /// entries can never be confused with (or evicted by key-collision
    /// against) a neighbor's identical op shape.
    pub guest: u32,
    /// Backend file handle the shape belongs to.
    pub handle: u64,
    /// Op discriminant: 0 = read, 1 = write, 2 = ioctl.
    pub op: u8,
    /// The ioctl command (0 for read/write).
    pub cmd: u32,
    /// Canonicalized grant set (kind, addr, len, access-bits).
    pub grants: Vec<(u8, u64, u64, u8)>,
}

impl GrantCacheKey {
    /// The cache key for `op` with grant set `grants`, or `None` when the
    /// shape is not cacheable.
    pub fn for_op(
        guest: u32,
        handle: u64,
        op: &WireOp,
        grants: &[MemOpGrant],
    ) -> Option<GrantCacheKey> {
        let mut key = GrantCacheKey::default();
        key.refill(guest, handle, op, grants).then_some(key)
    }

    /// Makes this key [`GrantCacheKey::for_op`]'s in place, keeping the
    /// grant tuple's capacity, so a cache hit builds nothing; `false` (the
    /// key then unspecified) when the shape is not cacheable.
    pub fn refill(&mut self, guest: u32, handle: u64, op: &WireOp, grants: &[MemOpGrant]) -> bool {
        (self.op, self.cmd) = match op {
            WireOp::Read { .. } => (0, 0),
            WireOp::Write { .. } => (1, 0),
            WireOp::Ioctl { cmd, .. } => (2, cmd.raw()),
            _ => return false,
        };
        (self.guest, self.handle) = (guest, handle);
        self.grants.clear();
        self.grants.extend(grants.iter().map(Self::canon));
        true
    }

    fn canon(grant: &MemOpGrant) -> (u8, u64, u64, u8) {
        match *grant {
            MemOpGrant::CopyFromGuest { addr, len } => (0, addr.raw(), len, 0),
            MemOpGrant::CopyToGuest { addr, len } => (1, addr.raw(), len, 0),
            MemOpGrant::MapPages { va, pages, access } => (2, va.raw(), pages, access.bits()),
            MemOpGrant::UnmapPages { va, pages } => (3, va.raw(), pages, 0),
        }
    }
}

/// What a cold [`GrantCache::insert`] displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Nothing was displaced (the cache had room).
    None,
    /// The FIFO-oldest entry was displaced and its ref is idle: the caller
    /// must revoke it now.
    Revoke(GrantRef),
    /// The FIFO-oldest entry was displaced but its ref is still attached to
    /// an in-flight operation: revoking now would fail that op's hypercalls
    /// mid-flight. Ownership transfers to the pipeline — the caller must
    /// mark the *last* pending op using this ref as revoke-on-completion.
    Transfer(GrantRef),
}

/// Bounded FIFO cache of live grant declarations, keyed by op shape.
#[derive(Debug)]
pub struct GrantCache {
    cap: usize,
    map: BTreeMap<GrantCacheKey, GrantRef>,
    order: VecDeque<GrantCacheKey>,
}

impl GrantCache {
    /// An empty cache holding at most `cap` declarations.
    pub fn new(cap: usize) -> GrantCache {
        GrantCache {
            cap,
            map: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The memoized ref for `key`, if any.
    pub fn lookup(&self, key: &GrantCacheKey) -> Option<GrantRef> {
        self.map.get(key).copied()
    }

    /// Entries in FIFO (insertion) order, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = (&GrantCacheKey, GrantRef)> {
        self.order
            .iter()
            .filter_map(|key| self.map.get(key).map(|&grant| (key, grant)))
    }

    /// Memoizes a fresh declaration, evicting the FIFO-oldest entry when
    /// full. `in_flight` answers whether a ref is still attached to a
    /// pending operation — the caller passes its pipeline — and decides
    /// whether the displaced ref is returned for immediate revocation
    /// ([`Eviction::Revoke`]) or handed to the pipeline
    /// ([`Eviction::Transfer`]).
    pub fn insert(
        &mut self,
        key: GrantCacheKey,
        grant: GrantRef,
        in_flight: impl Fn(GrantRef) -> bool,
    ) -> Eviction {
        let mut eviction = Eviction::None;
        if self.map.len() >= self.cap {
            if let Some(oldest) = self.order.pop_front() {
                if let Some(evicted) = self.map.remove(&oldest) {
                    eviction = if in_flight(evicted) {
                        Eviction::Transfer(evicted)
                    } else {
                        Eviction::Revoke(evicted)
                    };
                }
            }
        }
        self.map.insert(key.clone(), grant);
        self.order.push_back(key);
        eviction
    }

    /// Empties the cache, returning every displaced ref (in FIFO order) for
    /// the caller to revoke — or to discard, on the containment/recovery
    /// paths where the hypervisor already revoked the whole table.
    pub fn purge(&mut self) -> Vec<GrantRef> {
        let refs = self.entries().map(|(_, grant)| grant).collect();
        self.map.clear();
        self.order.clear();
        refs
    }

    /// Removes every entry matching `pred` (handle close), returning the
    /// displaced refs for revocation.
    pub fn remove_matching(&mut self, pred: impl Fn(&GrantCacheKey) -> bool) -> Vec<GrantRef> {
        let stale: Vec<GrantCacheKey> = self.map.keys().filter(|k| pred(k)).cloned().collect();
        let refs = stale
            .iter()
            .filter_map(|key| self.map.remove(key))
            .collect();
        self.order.retain(|key| !pred(key));
        refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_mem::GuestVirtAddr;

    fn key(handle: u64, addr: u64) -> GrantCacheKey {
        GrantCacheKey::for_op(
            1,
            handle,
            &WireOp::Read {
                addr: GuestVirtAddr::new(addr),
                len: 16,
            },
            &[MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(addr),
                len: 16,
            }],
        )
        .expect("read is cacheable")
    }

    #[test]
    fn identical_shapes_of_different_guests_are_distinct_keys() {
        let op = WireOp::Read {
            addr: GuestVirtAddr::new(0x1000),
            len: 16,
        };
        let grants = [MemOpGrant::CopyToGuest {
            addr: GuestVirtAddr::new(0x1000),
            len: 16,
        }];
        let mine = GrantCacheKey::for_op(1, 7, &op, &grants).expect("cacheable");
        let theirs = GrantCacheKey::for_op(2, 7, &op, &grants).expect("cacheable");
        assert_ne!(mine, theirs, "guest id must qualify the key");
        let mut cache = GrantCache::new(4);
        cache.insert(mine.clone(), GrantRef(7), |_| false);
        assert_eq!(cache.lookup(&theirs), None, "no cross-guest hits");
        assert_eq!(cache.lookup(&mine), Some(GrantRef(7)));
    }

    #[test]
    fn lookup_hits_and_misses() {
        let mut cache = GrantCache::new(2);
        assert!(cache.is_empty());
        assert_eq!(cache.insert(key(1, 0x1000), GrantRef(7), |_| false), Eviction::None);
        assert_eq!(cache.lookup(&key(1, 0x1000)), Some(GrantRef(7)));
        assert_eq!(cache.lookup(&key(1, 0x2000)), None);
        assert_eq!(cache.lookup(&key(2, 0x1000)), None);
    }

    #[test]
    fn fifo_eviction_names_the_oldest_idle_ref() {
        let mut cache = GrantCache::new(2);
        cache.insert(key(1, 0x1000), GrantRef(0), |_| false);
        cache.insert(key(1, 0x2000), GrantRef(1), |_| false);
        // Full: the third insert displaces the oldest (ref 0), idle.
        assert_eq!(
            cache.insert(key(1, 0x3000), GrantRef(2), |_| false),
            Eviction::Revoke(GrantRef(0))
        );
        assert_eq!(cache.lookup(&key(1, 0x1000)), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_of_an_in_flight_ref_transfers_ownership() {
        let mut cache = GrantCache::new(1);
        cache.insert(key(1, 0x1000), GrantRef(0), |_| false);
        // Ref 0 is attached to a pending pipelined op: it must NOT be
        // revoked out from under it.
        assert_eq!(
            cache.insert(key(1, 0x2000), GrantRef(1), |r| r == GrantRef(0)),
            Eviction::Transfer(GrantRef(0))
        );
    }

    #[test]
    fn purge_returns_refs_oldest_first() {
        let mut cache = GrantCache::new(4);
        cache.insert(key(1, 0x1000), GrantRef(3), |_| false);
        cache.insert(key(1, 0x2000), GrantRef(1), |_| false);
        cache.insert(key(2, 0x1000), GrantRef(2), |_| false);
        assert_eq!(cache.purge(), vec![GrantRef(3), GrantRef(1), GrantRef(2)]);
        assert!(cache.is_empty());
        assert!(cache.purge().is_empty());
    }

    #[test]
    fn remove_matching_strips_one_handle() {
        let mut cache = GrantCache::new(4);
        cache.insert(key(1, 0x1000), GrantRef(0), |_| false);
        cache.insert(key(2, 0x1000), GrantRef(1), |_| false);
        cache.insert(key(1, 0x2000), GrantRef(2), |_| false);
        let removed = cache.remove_matching(|k| k.handle == 1);
        assert_eq!(removed.len(), 2);
        assert!(removed.contains(&GrantRef(0)) && removed.contains(&GrantRef(2)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key(2, 0x1000)), Some(GrantRef(1)));
        // FIFO order survives the removal.
        assert_eq!(
            cache.entries().map(|(_, g)| g).collect::<Vec<_>>(),
            vec![GrantRef(1)]
        );
    }
}
