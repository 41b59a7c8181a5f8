//! The atomic-site model the memory-ordering lint runs over.
//!
//! The wall-clock substrate's lock-free kernels (`hypervisor::aring`,
//! `hypervisor::shards`) route every atomic access through the
//! instrumented shim (`hypervisor::atomic`), and the shim requires each
//! call site to name a static [`Access`] drawn from a declared
//! [`SiteSpec`] table. That table *is* this model: the ordering a lint
//! rule inspects here is the very constant the shipped code passes to
//! `std::sync::atomic` at runtime, so the lint model cannot drift from
//! the executing protocol the way a hand-maintained mirror could.
//!
//! The vocabulary follows the publication-protocol argument of
//! DESIGN.md §14/§15.7: every cross-thread *data handoff* is a `Release`
//! store ([`Edge::Publish`]) observed by an `Acquire` load
//! ([`Edge::Consume`]); plain data riding under that handoff is
//! [`Edge::Payload`]; Dekker-style flag pairs whose correctness needs a
//! total store order are [`Edge::Gate`] and must be `SeqCst`. The
//! MO/RC passes ([`super::passes`]) check those rules site by site.

use std::fmt;

/// What a shared atomic word *is* in the protocol. One role per site —
/// mixing roles at one site is exactly the bug `RC001` exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// A per-slot sequence word (Vyukov-style slot ownership).
    SlotSeq,
    /// A per-slot length word (payload-class metadata).
    SlotLen,
    /// A free-running head/tail cursor owned by exactly one side.
    Cursor,
    /// A park/wake flag participating in a sleep/wake handoff.
    Flag,
    /// A pointer publishing an immutable object (a copy-on-write snapshot,
    /// a grant-page slot).
    SnapshotPtr,
    /// A shared counter (capacity reservation, reader gate, statistics).
    Counter,
}

impl Role {
    /// Lowercase name for diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::SlotSeq => "slot-seq",
            Role::SlotLen => "slot-len",
            Role::Cursor => "cursor",
            Role::Flag => "flag",
            Role::SnapshotPtr => "snapshot-ptr",
            Role::Counter => "counter",
        }
    }
}

/// Load, store, or read-modify-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// An atomic load.
    Load,
    /// An atomic store.
    Store,
    /// An atomic read-modify-write (`swap`, `fetch_add`, …).
    Rmw,
}

impl AccessKind {
    /// Lowercase name for diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
            AccessKind::Rmw => "rmw",
        }
    }
}

/// Memory orderings, ordered by strength so passes can compare with `<`.
///
/// `AcqRel` is deliberately placed above both `Acquire` and `Release`:
/// for the single-direction checks the passes perform ("at least
/// Release", "at least Acquire") an `AcqRel` access always satisfies
/// the requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemOrder {
    /// `Ordering::Relaxed`.
    Relaxed,
    /// `Ordering::Acquire`.
    Acquire,
    /// `Ordering::Release`.
    Release,
    /// `Ordering::AcqRel`.
    AcqRel,
    /// `Ordering::SeqCst`.
    SeqCst,
}

impl MemOrder {
    /// Lowercase name for diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            MemOrder::Relaxed => "relaxed",
            MemOrder::Acquire => "acquire",
            MemOrder::Release => "release",
            MemOrder::AcqRel => "acq-rel",
            MemOrder::SeqCst => "seq-cst",
        }
    }

    /// Whether this ordering gives at least `Release` semantics to a
    /// store (publication edge).
    pub fn at_least_release(self) -> bool {
        matches!(self, MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst)
    }

    /// Whether this ordering gives at least `Acquire` semantics to a
    /// load (consumption edge).
    pub fn at_least_acquire(self) -> bool {
        matches!(self, MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst)
    }
}

impl fmt::Display for MemOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What protocol edge an access implements — the reason the access
/// exists, which decides the ordering it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Edge {
    /// A store that hands data to another thread. Must be ≥ `Release`
    /// (`MO001`).
    Publish,
    /// A load that gates access to published data. Must be ≥ `Acquire`
    /// (`MO002`).
    Consume,
    /// A data-class access (slot length, payload mirror) protected by a
    /// `Publish`/`Consume` pair elsewhere in the same group; its own
    /// ordering may be `Relaxed`.
    Payload,
    /// A cursor read by the one thread that writes it; `Relaxed` is
    /// sound because it is not a synchronization edge.
    OwnerLocal,
    /// The consumer handing a slot back to the producer. A publication
    /// in the opposite direction: must be ≥ `Release` (`MO001`).
    Recycle,
    /// One side of a Dekker-style store-load flag pair (doorbell
    /// `rung`/`parked`, reclamation reader gate). Release/Acquire is
    /// NOT enough here — the lost-wakeup interleaving needs a total
    /// store order, so these must be `SeqCst` (`MO005`).
    Gate,
    /// A cross-thread observation (occupancy estimate, statistics);
    /// conservative by contract, any ordering is sound.
    Observe,
    /// A read-modify-write that reserves shared capacity (a counter
    /// several threads bump). Must be an RMW at ≥ `AcqRel` (`RC003`).
    Reservation,
}

impl Edge {
    /// Lowercase name for diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            Edge::Publish => "publish",
            Edge::Consume => "consume",
            Edge::Payload => "payload",
            Edge::OwnerLocal => "owner-local",
            Edge::Recycle => "recycle",
            Edge::Gate => "gate",
            Edge::Observe => "observe",
            Edge::Reservation => "reservation",
        }
    }
}

/// One declared access to an atomic site: the constant the shim call
/// site passes, and the metadata the lint inspects.
#[derive(Debug, PartialEq, Eq)]
pub struct Access {
    /// Access name, unique within its site (`"publish"`, `"gate-load"`).
    pub name: &'static str,
    /// Load, store, or RMW.
    pub kind: AccessKind,
    /// The ordering the shim will execute with.
    pub ordering: MemOrder,
    /// The protocol edge this access implements.
    pub edge: Edge,
    /// Whether this access is the *last* write before a doorbell ring
    /// on some path — the write whose visibility the woken thread
    /// depends on. Must be ≥ `Release` (`MO004`).
    pub pre_doorbell: bool,
}

impl Access {
    /// A non-doorbell access (the common case).
    pub const fn new(
        name: &'static str,
        kind: AccessKind,
        ordering: MemOrder,
        edge: Edge,
    ) -> Access {
        Access {
            name,
            kind,
            ordering,
            edge,
            pre_doorbell: false,
        }
    }

    /// An access that is the final write before a doorbell ring.
    pub const fn pre_doorbell(
        name: &'static str,
        kind: AccessKind,
        ordering: MemOrder,
        edge: Edge,
    ) -> Access {
        Access {
            name,
            kind,
            ordering,
            edge,
            pre_doorbell: true,
        }
    }
}

/// One atomic site: a shared word, its role, and every declared access.
#[derive(Debug, PartialEq, Eq)]
pub struct SiteSpec {
    /// The module the site lives in (`"hypervisor::aring"`).
    pub module: &'static str,
    /// Site name, unique within the module (`"slot_seq"`).
    pub name: &'static str,
    /// Protocol group tying related sites together (`"aring.slot"`):
    /// `RC002` checks each group's payload accesses are covered by a
    /// publication pair within the same group.
    pub group: &'static str,
    /// What the word is in the protocol.
    pub role: Role,
    /// Every access the code may perform on this site.
    pub accesses: &'static [&'static Access],
}

impl SiteSpec {
    /// `module#name`, the site key diagnostics anchor to.
    pub fn site_key(&self) -> String {
        let short = self.module.rsplit("::").next().unwrap_or(self.module);
        format!("{short}#{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_strength_comparisons() {
        assert!(MemOrder::Release.at_least_release());
        assert!(MemOrder::AcqRel.at_least_release());
        assert!(MemOrder::SeqCst.at_least_release());
        assert!(!MemOrder::Acquire.at_least_release());
        assert!(!MemOrder::Relaxed.at_least_release());
        assert!(MemOrder::Acquire.at_least_acquire());
        assert!(MemOrder::AcqRel.at_least_acquire());
        assert!(!MemOrder::Release.at_least_acquire());
        assert!(MemOrder::Relaxed < MemOrder::SeqCst);
    }

    #[test]
    fn site_key_shortens_the_module_path() {
        static ACCESSES: [&Access; 0] = [];
        let site = SiteSpec {
            module: "hypervisor::aring",
            name: "slot_seq",
            group: "aring.slot",
            role: Role::SlotSeq,
            accesses: &ACCESSES,
        };
        assert_eq!(site.site_key(), "aring#slot_seq");
    }
}
