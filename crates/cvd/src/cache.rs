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

use std::collections::VecDeque;

use paradice_hypervisor::{GrantRef, MemOpGrant};

use crate::proto::WireOp;

/// Key of one memoized grant declaration: the op shape whose repeated
/// occurrences may reuse a single declared [`GrantRef`]. Only `read`,
/// `write`, and `ioctl` shapes are cached — the ops the ioctl-heavy
/// workloads repeat — and the *full* grant set participates, so any shape
/// change (different buffer, length, or derived grant set) misses and
/// declares cold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// The declared grant set, in declaration order.
    pub grants: Vec<MemOpGrant>,
}

impl GrantCacheKey {
    /// Makes this key the one for `op` with grant set `grants`, in place,
    /// keeping the grant set's capacity, so a cache hit builds nothing;
    /// `false` (the key then unspecified) when the shape is not cacheable.
    pub fn refill(&mut self, guest: u32, handle: u64, op: &WireOp, grants: &[MemOpGrant]) -> bool {
        (self.op, self.cmd) = match op {
            WireOp::Read { .. } => (0, 0),
            WireOp::Write { .. } => (1, 0),
            WireOp::Ioctl { cmd, .. } => (2, cmd.raw()),
            _ => return false,
        };
        (self.guest, self.handle) = (guest, handle);
        self.grants.clear();
        self.grants.extend_from_slice(grants);
        true
    }

    /// A 64-bit digest of every field, one multiply-rotate step per word: a
    /// lookup compares it before it compares a whole key. Distinct keys may
    /// share one; that costs a key compare, never a wrong hit.
    pub fn fingerprint(&self) -> u64 {
        let head = mix(mix(0, self.guest.into()), self.handle);
        let mut hash = mix(mix(head, self.op.into()), self.cmd.into());
        for grant in &self.grants {
            let (tag, at, len) = match *grant {
                MemOpGrant::CopyFromGuest { addr, len } => (0, addr.raw(), len),
                MemOpGrant::CopyToGuest { addr, len } => (1, addr.raw(), len),
                MemOpGrant::MapPages { va, pages, access } => {
                    (2 | u64::from(access.bits()) << 8, va.raw(), pages)
                }
                MemOpGrant::UnmapPages { va, pages } => (3, va.raw(), pages),
            };
            hash = mix(mix(mix(hash, tag), at), len);
        }
        hash
    }
}

/// One fingerprint step: folds `word` into `hash` by a multiply-rotate.
fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(27)
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

/// Bounded FIFO cache of live grant declarations, keyed by op shape: one
/// queue of `(fingerprint, key, ref)`, oldest first. A lookup scans at most
/// `cap` fingerprints and compares a whole key only where one matches.
#[derive(Debug)]
pub struct GrantCache {
    cap: usize,
    entries: VecDeque<(u64, GrantCacheKey, GrantRef)>,
}

impl GrantCache {
    /// An empty cache holding at most `cap` declarations.
    pub fn new(cap: usize) -> GrantCache {
        GrantCache {
            cap,
            entries: VecDeque::new(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The memoized ref for `key`, if any.
    pub fn lookup(&self, key: &GrantCacheKey) -> Option<GrantRef> {
        let fingerprint = key.fingerprint();
        self.entries
            .iter()
            .find(|(fp, cached, _)| *fp == fingerprint && cached == key)
            .map(|&(.., grant)| grant)
    }

    /// Memoizes a fresh declaration of `key`, evicting the FIFO-oldest
    /// entry when full (its key's allocation holds the copy of `key`).
    /// `in_flight` answers whether a ref is still attached to a pending
    /// operation — the caller passes its pipeline — and decides whether the
    /// displaced ref is returned for immediate revocation
    /// ([`Eviction::Revoke`]) or handed to the pipeline
    /// ([`Eviction::Transfer`]).
    pub fn insert(
        &mut self,
        key: &GrantCacheKey,
        grant: GrantRef,
        in_flight: impl Fn(GrantRef) -> bool,
    ) -> Eviction {
        let (mut eviction, mut slot) = (Eviction::None, GrantCacheKey::default());
        if self.entries.len() >= self.cap {
            if let Some((_, oldest, evicted)) = self.entries.pop_front() {
                eviction = if in_flight(evicted) {
                    Eviction::Transfer(evicted)
                } else {
                    Eviction::Revoke(evicted)
                };
                slot = oldest;
            }
        }
        slot.clone_from(key);
        self.entries.push_back((key.fingerprint(), slot, grant));
        eviction
    }

    /// Empties the cache, returning every displaced ref (in FIFO order) for
    /// the caller to revoke — or to discard, on the containment/recovery
    /// paths where the hypervisor already revoked the whole table.
    pub fn purge(&mut self) -> Vec<GrantRef> {
        self.entries.drain(..).map(|(.., grant)| grant).collect()
    }

    /// Removes every entry matching `pred` (handle close), returning the
    /// displaced refs for revocation, oldest first.
    pub fn remove_matching(&mut self, pred: impl Fn(&GrantCacheKey) -> bool) -> Vec<GrantRef> {
        let stale = self.entries.iter().filter(|(_, key, _)| pred(key));
        let refs = stale.map(|&(.., grant)| grant).collect();
        self.entries.retain(|(_, key, _)| !pred(key));
        refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_devfs::ioc::IoctlCmd;
    use paradice_mem::{Access, GuestVirtAddr};

    impl GrantCacheKey {
        /// The cache key for `op` with grant set `grants`, or `None` when
        /// the shape is not cacheable.
        fn for_op(
            guest: u32,
            handle: u64,
            op: &WireOp,
            grants: &[MemOpGrant],
        ) -> Option<GrantCacheKey> {
            let mut key = GrantCacheKey::default();
            key.refill(guest, handle, op, grants).then_some(key)
        }
    }

    impl GrantCache {
        /// Refs in FIFO (insertion) order, oldest first.
        fn refs(&self) -> Vec<GrantRef> {
            self.entries.iter().map(|&(.., grant)| grant).collect()
        }
    }

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
        cache.insert(&mine, GrantRef(7), |_| false);
        assert_eq!(cache.lookup(&theirs), None, "no cross-guest hits");
        assert_eq!(cache.lookup(&mine), Some(GrantRef(7)));
    }

    #[test]
    fn lookup_hits_and_misses() {
        let mut cache = GrantCache::new(2);
        assert!(cache.is_empty());
        assert_eq!(
            cache.insert(&key(1, 0x1000), GrantRef(7), |_| false),
            Eviction::None
        );
        assert_eq!(cache.lookup(&key(1, 0x1000)), Some(GrantRef(7)));
        assert_eq!(cache.lookup(&key(1, 0x2000)), None);
        assert_eq!(cache.lookup(&key(2, 0x1000)), None);
    }

    #[test]
    fn fifo_eviction_names_the_oldest_idle_ref() {
        let mut cache = GrantCache::new(2);
        cache.insert(&key(1, 0x1000), GrantRef(0), |_| false);
        cache.insert(&key(1, 0x2000), GrantRef(1), |_| false);
        // Full: the third insert displaces the oldest (ref 0), idle.
        assert_eq!(
            cache.insert(&key(1, 0x3000), GrantRef(2), |_| false),
            Eviction::Revoke(GrantRef(0))
        );
        assert_eq!(cache.lookup(&key(1, 0x1000)), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_of_an_in_flight_ref_transfers_ownership() {
        let mut cache = GrantCache::new(1);
        cache.insert(&key(1, 0x1000), GrantRef(0), |_| false);
        // Ref 0 is attached to a pending pipelined op: it must NOT be
        // revoked out from under it.
        assert_eq!(
            cache.insert(&key(1, 0x2000), GrantRef(1), |r| r == GrantRef(0)),
            Eviction::Transfer(GrantRef(0))
        );
    }

    #[test]
    fn purge_returns_refs_oldest_first() {
        let mut cache = GrantCache::new(4);
        cache.insert(&key(1, 0x1000), GrantRef(3), |_| false);
        cache.insert(&key(1, 0x2000), GrantRef(1), |_| false);
        cache.insert(&key(2, 0x1000), GrantRef(2), |_| false);
        assert_eq!(cache.purge(), vec![GrantRef(3), GrantRef(1), GrantRef(2)]);
        assert!(cache.is_empty());
        assert!(cache.purge().is_empty());
    }

    #[test]
    fn remove_matching_strips_one_handle() {
        let mut cache = GrantCache::new(4);
        cache.insert(&key(1, 0x1000), GrantRef(0), |_| false);
        cache.insert(&key(2, 0x1000), GrantRef(1), |_| false);
        cache.insert(&key(1, 0x2000), GrantRef(2), |_| false);
        let removed = cache.remove_matching(|k| k.handle == 1);
        assert_eq!(removed.len(), 2);
        assert!(removed.contains(&GrantRef(0)) && removed.contains(&GrantRef(2)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key(2, 0x1000)), Some(GrantRef(1)));
        // FIFO order survives the removal.
        assert_eq!(cache.refs(), vec![GrantRef(1)]);
    }

    /// The `ioctl` key of guest 1's handle 1 with grant set `grants`.
    fn ioctl_key(grants: &[MemOpGrant]) -> GrantCacheKey {
        let op = WireOp::Ioctl {
            cmd: IoctlCmd(0xc010_6444),
            arg: 0x1000,
        };
        GrantCacheKey::for_op(1, 1, &op, grants).expect("ioctl is cacheable")
    }

    #[test]
    fn a_full_cache_returns_each_shapes_own_ref() {
        const CAP: u32 = 64;
        let mut cache = GrantCache::new(CAP as usize);
        for shape in 0..CAP {
            let eviction =
                cache.insert(&key(1, u64::from(shape) << 12), GrantRef(shape), |_| false);
            assert_eq!(eviction, Eviction::None);
        }
        for shape in 0..CAP {
            assert_eq!(
                cache.lookup(&key(1, u64::from(shape) << 12)),
                Some(GrantRef(shape))
            );
        }
        assert_eq!(cache.lookup(&key(1, u64::from(CAP) << 12)), None);
    }

    #[test]
    fn keys_differing_in_one_grant_field_or_in_grant_order_are_distinct() {
        let addr = GuestVirtAddr::new(0x1000);
        let va = GuestVirtAddr::new(0x4000);
        let copy_to = MemOpGrant::CopyToGuest { addr, len: 16 };
        let map = |access| MemOpGrant::MapPages {
            va,
            pages: 1,
            access,
        };
        let shapes = [
            vec![copy_to, map(Access::RW)],
            vec![MemOpGrant::CopyFromGuest { addr, len: 16 }, map(Access::RW)],
            vec![MemOpGrant::CopyToGuest { addr, len: 17 }, map(Access::RW)],
            vec![copy_to, map(Access::READ)],
            vec![map(Access::RW), copy_to],
        ];
        let keys: Vec<GrantCacheKey> = shapes.iter().map(|grants| ioctl_key(grants)).collect();
        let mut cache = GrantCache::new(keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                cache.lookup(key),
                None,
                "shape {i} hit another shape's entry"
            );
            cache.insert(key, GrantRef(i as u32), |_| false);
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cache.lookup(key), Some(GrantRef(i as u32)), "shape {i}");
            assert_eq!(
                cache.lookup(&ioctl_key(&shapes[i])),
                Some(GrantRef(i as u32))
            );
        }
    }

    #[test]
    fn a_cold_insert_after_eviction_is_found() {
        let mut cache = GrantCache::new(2);
        cache.insert(&key(1, 0x1000), GrantRef(0), |_| false);
        cache.insert(&key(1, 0x2000), GrantRef(1), |_| false);
        cache.insert(&key(1, 0x3000), GrantRef(2), |_| false);
        assert_eq!(cache.lookup(&key(1, 0x3000)), Some(GrantRef(2)));
        // The evicted shape comes back cold, displacing the next oldest.
        assert_eq!(
            cache.insert(&key(1, 0x1000), GrantRef(3), |_| false),
            Eviction::Revoke(GrantRef(1))
        );
        assert_eq!(cache.lookup(&key(1, 0x1000)), Some(GrantRef(3)));
        assert_eq!(cache.lookup(&key(1, 0x2000)), None);
        assert_eq!(cache.refs(), vec![GrantRef(2), GrantRef(3)]);
    }

    #[test]
    fn remove_matching_keeps_fifo_order() {
        let mut cache = GrantCache::new(4);
        for (i, handle) in [1, 2, 1, 3].into_iter().enumerate() {
            cache.insert(
                &key(handle, 0x1000 * (i as u64 + 1)),
                GrantRef(i as u32),
                |_| false,
            );
        }
        assert_eq!(
            cache.remove_matching(|k| k.handle == 1),
            vec![GrantRef(0), GrantRef(2)]
        );
        assert_eq!(cache.refs(), vec![GrantRef(1), GrantRef(3)]);
        cache.insert(&key(4, 0x1000), GrantRef(4), |_| false);
        cache.insert(&key(4, 0x2000), GrantRef(5), |_| false);
        // Full again: the oldest survivor goes first.
        assert_eq!(
            cache.insert(&key(4, 0x3000), GrantRef(6), |_| false),
            Eviction::Revoke(GrantRef(1))
        );
    }
}
