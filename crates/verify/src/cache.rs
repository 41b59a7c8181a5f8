//! Grant-cache revocation model: the frontend fast path can never leave a
//! cached [`GrantRef`] observable after its grant-set is revoked, and never
//! revokes a ref out from under an in-flight pipelined op.
//!
//! The model is a small abstraction of the frontend's fast-path state —
//! which refs are live in the driver VM's grant table, which op shapes the
//! cache memoizes, which refs ride in the pipeline and who owns their
//! revocation — driven through every interleaving of the events that
//! mutate it: cacheable ops (hit, cold declare, FIFO eviction), pipelined
//! completion, driver-VM containment (`fail`), recovery, and
//! `set_fastpath(false)`. Ref names are canonicalized after every step, so
//! the state space is finite and the exploration is a *full* proof, not a
//! bounded unrolling: `proved` requires the reachable space to be
//! exhausted.
//!
//! The model does not merely mirror the policy: on every cold insert it
//! rebuilds a real [`GrantCache`] from the abstract state and replays the
//! insert through the production kernel, failing with a drift error
//! (`VP004`) if the kernel's hit/eviction/transfer decision ever disagrees
//! with the model's. The fixed eviction semantics — transfer ownership of
//! an in-flight evicted ref to the last pending op using it — is exactly
//! what `Frontend::resolve_grant` implements; the seeded mutants replay
//! the three historical/buggy variants and each must be caught:
//!
//! * [`Mutant::CacheEvictInflight`] — evict always revokes (pre-fix).
//! * [`Mutant::CacheSkipPurge`] — containment/recovery keep stale refs.
//! * [`Mutant::FastpathOffNoDrain`] — `set_fastpath(false)` revokes the
//!   cache while the pipeline still flies (pre-fix).

use std::collections::BTreeSet;

use paradice_analyzer::dataflow::reach::{explore, Bounds, TransitionSystem};
use paradice_analyzer::lint::{DiagCode, Diagnostic};
use paradice_cvd::cache::{Eviction, GrantCache, GrantCacheKey};
use paradice_cvd::proto::WireOp;
use paradice_hypervisor::{GrantRef, MemOpGrant};
use paradice_mem::GuestVirtAddr;

use crate::fixture::Fixture;
use crate::report::{Mutant, PropertyReport};

/// Model cache capacity: two shapes force FIFO eviction with three.
const CACHE_CAP: usize = 2;
/// Model pipeline depth: two in-flight ops cover the transfer-to-last case.
const PIPE_CAP: usize = 2;
/// Distinct op shapes: capacity + 1, so eviction is reachable.
const SHAPES: u8 = 3;

/// One abstract frontend/hypervisor state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheState {
    /// Refs live in the driver VM's grant table.
    live: BTreeSet<u32>,
    /// The cache: `(shape, ref)` in FIFO insertion order.
    cached: Vec<(u8, u32)>,
    /// The pipeline: `(ref, cache_owned)` in FIFO post order.
    inflight: Vec<(u32, bool)>,
    /// Circuit breaker open (ops fail fast).
    breaker: bool,
    /// Driver VM dead (containment ran; the table died server-side).
    failed: bool,
    /// Set when a step did something unsound; violating states are sinks.
    error: Option<String>,
}

impl CacheState {
    fn initial() -> CacheState {
        CacheState {
            live: BTreeSet::new(),
            cached: Vec::new(),
            inflight: Vec::new(),
            breaker: false,
            failed: false,
            error: None,
        }
    }

    /// Renames refs to first-use order (cache order, then pipeline order,
    /// then leftovers), collapsing traces that differ only in ref numbers.
    fn canonicalize(&mut self) {
        let mut order: Vec<u32> = Vec::new();
        let note = |r: u32, order: &mut Vec<u32>| {
            if !order.contains(&r) {
                order.push(r);
            }
        };
        for &(_, r) in &self.cached {
            note(r, &mut order);
        }
        for &(r, _) in &self.inflight {
            note(r, &mut order);
        }
        for &r in &self.live {
            note(r, &mut order);
        }
        let rename = |r: u32| -> u32 {
            order.iter().position(|&o| o == r).expect("ref noted") as u32
        };
        self.live = self.live.iter().map(|&r| rename(r)).collect();
        for entry in &mut self.cached {
            entry.1 = rename(entry.1);
        }
        for entry in &mut self.inflight {
            entry.0 = rename(entry.0);
        }
    }

    fn next_ref(&self) -> u32 {
        let mut n = 0;
        for &(_, r) in &self.cached {
            n = n.max(r + 1);
        }
        for &(r, _) in &self.inflight {
            n = n.max(r + 1);
        }
        for &r in &self.live {
            n = n.max(r + 1);
        }
        n
    }
}

/// The deterministic cache key for one model shape.
fn shape_key(shape: u8) -> GrantCacheKey {
    let addr = GuestVirtAddr::new(u64::from(shape) * 0x1000);
    let mut key = GrantCacheKey::default();
    let read = WireOp::Read { addr, len: 16 };
    let cacheable = key.refill(1, 1, &read, &[MemOpGrant::CopyToGuest { addr, len: 16 }]);
    assert!(cacheable, "read is cacheable");
    key
}

/// The transition system, parameterized by the active mutant.
pub struct CacheModel {
    mutant: Option<Mutant>,
}

impl CacheModel {
    /// A model under `mutant` (or the fixed semantics with `None`).
    pub fn new(mutant: Option<Mutant>) -> CacheModel {
        CacheModel { mutant }
    }

    fn is(&self, mutant: Mutant) -> bool {
        self.mutant == Some(mutant)
    }

    /// Rebuilds the production [`GrantCache`] from the abstract state and
    /// replays a cold insert through it, returning the kernel's decision.
    fn kernel_insert(&self, state: &CacheState, shape: u8, fresh: u32) -> Eviction {
        let mut kernel = GrantCache::new(CACHE_CAP);
        for &(s, r) in &state.cached {
            kernel.insert(&shape_key(s), GrantRef(r), |_| false);
        }
        let inflight: Vec<u32> = state.inflight.iter().map(|&(r, _)| r).collect();
        kernel.insert(&shape_key(shape), GrantRef(fresh), |r| {
            inflight.contains(&r.0)
        })
    }

    /// Applies one labelled event. `None` = the event is disabled here.
    fn step(&self, state: &CacheState, label: &str) -> Result<Option<CacheState>, String> {
        let mut next = state.clone();
        if let Some(shape_str) = label.strip_prefix("op shape=") {
            let shape: u8 = shape_str.parse().map_err(|_| format!("bad shape {shape_str:?}"))?;
            if next.breaker || next.inflight.len() >= PIPE_CAP {
                return Ok(None); // fails fast / backpressure: no state change
            }
            if let Some(&(_, r)) = next.cached.iter().find(|&&(s, _)| s == shape) {
                // Cache hit: the fast path attaches the memoized ref.
                if !next.live.contains(&r) {
                    next.error = Some(format!(
                        "cache hit handed out dead ref {r} for shape {shape} \
                         (revoked ref observable after revocation)"
                    ));
                } else {
                    next.inflight.push((r, true));
                }
            } else {
                // Cold declare + insert, mirrored through the real kernel.
                let fresh = next.next_ref();
                next.live.insert(fresh);
                let kernel_says = self.kernel_insert(&next, shape, fresh);
                // Model decision (fixed semantics).
                let evicted = if next.cached.len() >= CACHE_CAP {
                    Some(next.cached.remove(0))
                } else {
                    None
                };
                let model_says = match evicted {
                    None => Eviction::None,
                    Some((_, r)) if next.inflight.iter().any(|&(ir, _)| ir == r) => {
                        Eviction::Transfer(GrantRef(r))
                    }
                    Some((_, r)) => Eviction::Revoke(GrantRef(r)),
                };
                if kernel_says != model_says {
                    next.error = Some(format!(
                        "model/code drift: GrantCache::insert said {kernel_says:?}, \
                         model expects {model_says:?}"
                    ));
                    next.canonicalize();
                    return Ok(Some(next));
                }
                match model_says {
                    Eviction::None => {}
                    Eviction::Revoke(GrantRef(r)) => {
                        // Idle evicted ref: revoke now (all variants agree).
                        next.live.remove(&r);
                    }
                    Eviction::Transfer(GrantRef(r)) => {
                        if self.is(Mutant::CacheEvictInflight) {
                            // Pre-fix behavior: revoke regardless.
                            next.live.remove(&r);
                        } else if let Some(entry) = next
                            .inflight
                            .iter_mut()
                            .rev()
                            .find(|(ir, _)| *ir == r)
                        {
                            // Fixed behavior: the last pending user revokes
                            // on completion.
                            entry.1 = false;
                        }
                    }
                }
                next.cached.push((shape, fresh));
                next.inflight.push((fresh, true));
            }
        } else {
            match label {
                "complete" => {
                    if next.inflight.is_empty() {
                        return Ok(None);
                    }
                    let (r, owned) = next.inflight.remove(0);
                    if !next.failed && !next.live.contains(&r) {
                        next.error = Some(format!(
                            "op completed on ref {r} that was revoked mid-flight"
                        ));
                    } else if !owned && !next.failed {
                        // Per-op (or transferred) ownership: revoke after
                        // completion.
                        next.live.remove(&r);
                    }
                }
                "fail" => {
                    if next.failed {
                        return Ok(None);
                    }
                    next.failed = true;
                    next.breaker = true;
                    next.live.clear(); // the table died with the VM
                    if !self.is(Mutant::CacheSkipPurge) {
                        next.cached.clear(); // purge without revoke
                    }
                }
                "recover" => {
                    if !next.failed {
                        return Ok(None);
                    }
                    next.failed = false;
                    next.breaker = false;
                    next.inflight.clear();
                    if !self.is(Mutant::CacheSkipPurge) {
                        next.cached.clear(); // stale refs must not survive
                    }
                }
                "fastoff" => {
                    if next.breaker {
                        return Ok(None);
                    }
                    if !self.is(Mutant::FastpathOffNoDrain) {
                        // Fixed: drain the pipeline first.
                        while !next.inflight.is_empty() {
                            let (r, owned) = next.inflight.remove(0);
                            if !next.live.contains(&r) {
                                next.error = Some(format!(
                                    "drain completed ref {r} already revoked"
                                ));
                                break;
                            }
                            if !owned {
                                next.live.remove(&r);
                            }
                        }
                    }
                    if next.error.is_none() {
                        // Purge with revoke.
                        for (_, r) in std::mem::take(&mut next.cached) {
                            if !next.live.remove(&r) {
                                next.error = Some(format!(
                                    "fastpath-off revoked ref {r} that was not live"
                                ));
                                break;
                            }
                        }
                    }
                }
                other => return Err(format!("unknown cache event {other:?}")),
            }
        }
        next.canonicalize();
        Ok(Some(next))
    }

    fn labels() -> Vec<String> {
        let mut labels: Vec<String> = (0..SHAPES).map(|s| format!("op shape={s}")).collect();
        labels.extend(
            ["complete", "fail", "recover", "fastoff"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        labels
    }
}

impl TransitionSystem for CacheModel {
    type State = CacheState;

    fn initial(&self) -> Vec<CacheState> {
        vec![CacheState::initial()]
    }

    fn successors(&self, state: &CacheState) -> Vec<(String, CacheState)> {
        if state.error.is_some() {
            return Vec::new(); // violations are sinks
        }
        CacheModel::labels()
            .into_iter()
            .filter_map(|label| {
                self.step(state, &label)
                    .expect("known label")
                    .map(|next| (label, next))
            })
            .collect()
    }

    fn invariant(&self, state: &CacheState) -> Result<(), String> {
        if let Some(error) = &state.error {
            return Err(error.clone());
        }
        if !state.failed {
            for &(shape, r) in &state.cached {
                if !state.live.contains(&r) {
                    return Err(format!(
                        "cached ref {r} (shape {shape}) is not live: revoked ref still \
                         observable in the cache"
                    ));
                }
            }
            for &(r, _) in &state.inflight {
                if !state.live.contains(&r) {
                    return Err(format!(
                        "in-flight ref {r} is not live: grant revoked under a pending op"
                    ));
                }
            }
        }
        let mut shapes = BTreeSet::new();
        let mut refs = BTreeSet::new();
        for &(shape, r) in &state.cached {
            if !shapes.insert(shape) {
                return Err(format!("shape {shape} cached twice"));
            }
            if !refs.insert(r) {
                return Err(format!("ref {r} cached twice (aliased declarations)"));
            }
        }
        if state.cached.len() > CACHE_CAP {
            return Err(format!("cache over capacity: {}", state.cached.len()));
        }
        if state.inflight.len() > PIPE_CAP {
            return Err(format!("pipeline over depth: {}", state.inflight.len()));
        }
        Ok(())
    }
}

/// `cache-revocation`: the full-state-space proof described in the module
/// docs.
pub fn check_revocation_model(mutant: Option<Mutant>) -> PropertyReport {
    const NAME: &str = "cache-revocation";
    const DESC: &str =
        "fast-path grant cache: no ref observable after revocation, no revoke under an \
         in-flight op, kernel eviction decisions match the model (full state space)";
    let model = CacheModel::new(mutant);
    let run = explore(
        &model,
        Bounds {
            max_states: 2_000_000,
            max_depth: 64,
        },
    );
    match run.violation {
        None => {
            // This property claims a *full* proof: the canonicalized space
            // must actually have been exhausted.
            if run.truncated {
                let finding = Diagnostic::new(
                    DiagCode::Vp001,
                    "grant-cache",
                    None,
                    format!(
                        "exploration truncated at {} states — the model grew past its \
                         expected finite space; the proof claim is void",
                        run.states_visited,
                    ),
                );
                return PropertyReport::disproved(
                    NAME,
                    DESC,
                    run.states_visited,
                    run.transitions,
                    vec![finding],
                    None,
                );
            }
            PropertyReport::proved(NAME, DESC, run.states_visited, run.transitions)
        }
        Some(violation) => {
            let code = if violation.reason.contains("drift") {
                DiagCode::Vp004
            } else {
                DiagCode::Vp001
            };
            let finding = Diagnostic::new(
                code,
                "grant-cache",
                None,
                format!("{} (after {:?})", violation.reason, violation.trace),
            );
            let mut fixture = Fixture::new(NAME, mutant.map(Mutant::name), &violation.reason);
            fixture.trace = violation.trace;
            PropertyReport::disproved(
                NAME,
                DESC,
                run.states_visited,
                run.transitions,
                vec![finding],
                Some(fixture),
            )
        }
    }
}

/// Replays a cache fixture's event trace under `mutant`.
///
/// # Errors
///
/// `Err(reason)` at the first step or state that violates the invariants.
pub fn replay(fixture: &Fixture, mutant: Option<Mutant>) -> Result<(), String> {
    let model = CacheModel::new(mutant);
    let mut state = CacheState::initial();
    model.invariant(&state)?;
    for label in &fixture.trace {
        match model.step(&state, label)? {
            Some(next) => state = next,
            None => continue, // disabled event: tolerated in replay
        }
        model.invariant(&state)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_semantics_prove_over_the_full_space() {
        let report = check_revocation_model(None);
        assert!(report.proved, "{:?}", report.findings);
        // Canonical ref renaming collapses the space hard — a few dozen
        // states cover every interleaving of ops, completions, containment,
        // recovery, and fast-path teardown.
        assert!(report.states > 50, "suspiciously few states: {}", report.states);
    }

    #[test]
    fn all_three_cache_mutants_are_caught() {
        for mutant in [
            Mutant::CacheEvictInflight,
            Mutant::CacheSkipPurge,
            Mutant::FastpathOffNoDrain,
        ] {
            let report = check_revocation_model(Some(mutant));
            assert!(!report.proved, "{} went undetected", mutant.name());
            let fixture = report.counterexample.expect("fixture emitted");
            assert!(
                replay(&fixture, None).is_ok(),
                "{} fixture must hold on the fixed semantics",
                mutant.name(),
            );
            assert!(
                replay(&fixture, Some(mutant)).is_err(),
                "{} fixture must still fail under the mutant",
                mutant.name(),
            );
        }
    }

    #[test]
    fn evict_inflight_counterexample_is_the_documented_bug() {
        let report = check_revocation_model(Some(Mutant::CacheEvictInflight));
        let fixture = report.counterexample.expect("fixture");
        // The shortest refutation: fill the cache with in-flight ops, then
        // one more cold shape evicts-and-revokes under a pending op.
        assert!(fixture.trace.iter().filter(|l| l.starts_with("op")).count() >= 3);
        assert!(fixture.reason.contains("not live") || fixture.reason.contains("revoked"));
    }
}
