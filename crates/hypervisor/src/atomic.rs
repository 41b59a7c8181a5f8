//! Instrumented atomics: the shim between the lock-free kernels and
//! `std::sync::atomic`.
//!
//! Every atomic in `hypervisor::{aring, shards}` and the multi-guest
//! engine's stop flag (`cvd::multi`, declared in [`crate::engine`]) is one
//! of these wrappers, and every operation on one names a static
//! [`Access`] drawn from the module's declared [`SiteSpec`] table. The
//! ordering the operation *executes* is `access.ordering` — the same
//! constant the `paradice-race` MO/RC passes lint and the
//! `paradice-verify` interleaving checker interprets. Downgrade an
//! ordering in the site table and all three see it at once: the code
//! runs weaker, the static pass flags it, and the checker finds the
//! interleaving it breaks. There is no second copy to drift.
//!
//! Cost: the wrappers are `repr(transparent)` with no extra fields
//! (the ring's one-page layout assert still holds), the ordering
//! conversion is a constant match that folds away, and the
//! observed-access registry only exists under `debug_assertions` — in
//! release builds this module is a zero-cost re-export of the std
//! atomics.

use std::sync::atomic::{self as std_atomic, Ordering};

pub use paradice_analyzer::race::{Access, AccessKind, Edge, MemOrder, Role, SiteSpec};

/// Converts the model ordering into the std ordering it stands for.
#[inline(always)]
pub const fn to_std(order: MemOrder) -> Ordering {
    match order {
        MemOrder::Relaxed => Ordering::Relaxed,
        MemOrder::Acquire => Ordering::Acquire,
        MemOrder::Release => Ordering::Release,
        MemOrder::AcqRel => Ordering::AcqRel,
        MemOrder::SeqCst => Ordering::SeqCst,
    }
}

/// Every atomic site declared by the wall-clock substrate, aggregated
/// for the lint (`paradice-lint`) and the interleaving checker
/// (`paradice-verify`).
pub fn all_sites() -> Vec<&'static SiteSpec> {
    let mut sites = Vec::new();
    sites.extend_from_slice(&crate::aring::ATOMIC_SITES);
    sites.extend_from_slice(&crate::shards::ATOMIC_SITES);
    sites.extend_from_slice(&crate::engine::ATOMIC_SITES);
    sites
}

#[cfg(debug_assertions)]
mod registry {
    use super::Access;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    static OBSERVED: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());

    pub(super) fn record(access: &'static Access) {
        OBSERVED
            .lock()
            .expect("atomic access registry poisoned")
            .insert(access as *const Access as usize);
    }

    pub(super) fn was_observed(access: &'static Access) -> bool {
        OBSERVED
            .lock()
            .expect("atomic access registry poisoned")
            .contains(&(access as *const Access as usize))
    }

    pub(super) fn observed_count() -> usize {
        OBSERVED
            .lock()
            .expect("atomic access registry poisoned")
            .len()
    }
}

#[inline(always)]
fn record(access: &'static Access) {
    #[cfg(debug_assertions)]
    registry::record(access);
    #[cfg(not(debug_assertions))]
    let _ = access;
}

/// Whether `access` has executed at least once in this process
/// (debug builds only; always `false` in release).
pub fn was_observed(access: &'static Access) -> bool {
    #[cfg(debug_assertions)]
    return registry::was_observed(access);
    #[cfg(not(debug_assertions))]
    {
        let _ = access;
        false
    }
}

/// Distinct accesses executed so far (debug builds only; `0` in release).
pub fn observed_accesses() -> usize {
    #[cfg(debug_assertions)]
    return registry::observed_count();
    #[cfg(not(debug_assertions))]
    0
}

/// An instrumented `std::sync::atomic::AtomicU32`.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct AtomicU32(std_atomic::AtomicU32);

impl AtomicU32 {
    /// A new word holding `value`.
    pub const fn new(value: u32) -> Self {
        AtomicU32(std_atomic::AtomicU32::new(value))
    }

    /// Loads with `access.ordering`.
    #[inline(always)]
    pub fn load(&self, access: &'static Access) -> u32 {
        record(access);
        self.0.load(to_std(access.ordering))
    }

    /// Stores with `access.ordering`.
    #[inline(always)]
    pub fn store(&self, value: u32, access: &'static Access) {
        record(access);
        self.0.store(value, to_std(access.ordering));
    }

    /// Wrapping add, returning the previous value, with `access.ordering`.
    #[inline(always)]
    pub fn fetch_add(&self, value: u32, access: &'static Access) -> u32 {
        record(access);
        self.0.fetch_add(value, to_std(access.ordering))
    }

    /// The word itself, for its exclusive owner: `&mut self` proves no
    /// other thread can observe it, so this is a plain access and names no
    /// declared site.
    #[inline(always)]
    pub fn get_mut(&mut self) -> &mut u32 {
        self.0.get_mut()
    }
}

/// An instrumented `std::sync::atomic::AtomicUsize`.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct AtomicUsize(std_atomic::AtomicUsize);

impl AtomicUsize {
    /// A new word holding `value`.
    pub const fn new(value: usize) -> Self {
        AtomicUsize(std_atomic::AtomicUsize::new(value))
    }

    /// Loads with `access.ordering`.
    #[inline(always)]
    pub fn load(&self, access: &'static Access) -> usize {
        record(access);
        self.0.load(to_std(access.ordering))
    }

    /// Wrapping add, returning the previous value, with `access.ordering`.
    #[inline(always)]
    pub fn fetch_add(&self, value: usize, access: &'static Access) -> usize {
        record(access);
        self.0.fetch_add(value, to_std(access.ordering))
    }

    /// Wrapping subtract, returning the previous value, with `access.ordering`.
    #[inline(always)]
    pub fn fetch_sub(&self, value: usize, access: &'static Access) -> usize {
        record(access);
        self.0.fetch_sub(value, to_std(access.ordering))
    }
}

/// An instrumented `std::sync::atomic::AtomicBool`.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct AtomicBool(std_atomic::AtomicBool);

impl AtomicBool {
    /// A new flag holding `value`.
    pub const fn new(value: bool) -> Self {
        AtomicBool(std_atomic::AtomicBool::new(value))
    }

    /// Loads with `access.ordering`.
    #[inline(always)]
    pub fn load(&self, access: &'static Access) -> bool {
        record(access);
        self.0.load(to_std(access.ordering))
    }

    /// Stores with `access.ordering`.
    #[inline(always)]
    pub fn store(&self, value: bool, access: &'static Access) {
        record(access);
        self.0.store(value, to_std(access.ordering));
    }

    /// Swaps, returning the previous value, with `access.ordering`.
    #[inline(always)]
    pub fn swap(&self, value: bool, access: &'static Access) -> bool {
        record(access);
        self.0.swap(value, to_std(access.ordering))
    }
}

/// An instrumented `std::sync::atomic::AtomicPtr<T>`.
#[repr(transparent)]
#[derive(Debug)]
pub struct AtomicPtr<T>(std_atomic::AtomicPtr<T>);

impl<T> Default for AtomicPtr<T> {
    /// A null pointer.
    fn default() -> Self {
        AtomicPtr(std_atomic::AtomicPtr::default())
    }
}

impl<T> AtomicPtr<T> {
    /// A new cell holding `ptr`.
    pub const fn new(ptr: *mut T) -> Self {
        AtomicPtr(std_atomic::AtomicPtr::new(ptr))
    }

    /// Loads with `access.ordering`.
    #[inline(always)]
    pub fn load(&self, access: &'static Access) -> *mut T {
        record(access);
        self.0.load(to_std(access.ordering))
    }

    /// Swaps, returning the previous pointer, with `access.ordering`.
    #[inline(always)]
    pub fn swap(&self, ptr: *mut T, access: &'static Access) -> *mut T {
        record(access);
        self.0.swap(ptr, to_std(access.ordering))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_analyzer::race::check_model;

    #[test]
    fn wrappers_add_no_bytes() {
        assert_eq!(
            std::mem::size_of::<AtomicU32>(),
            std::mem::size_of::<std_atomic::AtomicU32>()
        );
        assert_eq!(
            std::mem::size_of::<AtomicBool>(),
            std::mem::size_of::<std_atomic::AtomicBool>()
        );
        assert_eq!(
            std::mem::size_of::<AtomicPtr<u8>>(),
            std::mem::size_of::<std_atomic::AtomicPtr<u8>>()
        );
    }

    /// The acceptance gate in miniature: the shipped site tables must be
    /// MO/RC-clean. `paradice-lint` runs the same check as a pass.
    #[test]
    fn shipped_site_tables_lint_clean() {
        let diags = check_model(&all_sites());
        assert!(diags.is_empty(), "shipped atomics flagged: {diags:#?}");
    }

    #[test]
    fn site_tables_cover_both_modules() {
        let sites = all_sites();
        assert!(sites.iter().any(|s| s.module == "hypervisor::aring"));
        assert!(sites.iter().any(|s| s.module == "hypervisor::shards"));
        assert!(sites.iter().any(|s| s.module == "cvd::multi"));
        assert!(sites.iter().all(|s| !s.accesses.is_empty()));
    }

    #[test]
    fn executed_orderings_come_from_the_model() {
        static PROBE: Access =
            Access::new("probe", AccessKind::Store, MemOrder::SeqCst, Edge::Gate);
        let word = AtomicU32::new(0);
        word.store(7, &PROBE);
        static PROBE_LOAD: Access =
            Access::new("probe-load", AccessKind::Load, MemOrder::SeqCst, Edge::Gate);
        assert_eq!(word.load(&PROBE_LOAD), 7);
        if cfg!(debug_assertions) {
            assert!(was_observed(&PROBE));
            assert!(was_observed(&PROBE_LOAD));
            assert!(observed_accesses() >= 2);
        }
    }
}
