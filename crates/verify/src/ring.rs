//! Ring properties: window discipline, FIFO payload identity, and doorbell
//! charges — checked by exhaustive exploration of the *real* [`Channel`]
//! (one `AtomicRing` page per direction) against a shadow queue, through
//! its public API only: send/take results, the bytes that come back, and
//! [`ChannelStats`].
//!
//! A state is `(pops mod ARING_CAPACITY, queued)`: where the cursors sit in
//! the page and how many entries are outstanding (the shadow queue is
//! `payload(0..queued)`). Each step rebuilds a fresh channel in that state
//! — `pops` empty round trips, then `queued` sends — applies one push or
//! pop, and drains what is left against the shadow queue, so slot reuse is
//! covered at every cursor offset. The space is finite
//! (`ARING_CAPACITY × (depth + 1)` states) and explored in full.

use paradice_analyzer::dataflow::reach::{explore, Bounds, TransitionSystem};
use paradice_analyzer::lint::{DiagCode, Diagnostic};
use paradice_hypervisor::channel::MAX_RING_DEPTH;
use paradice_hypervisor::{
    Channel, ChannelError, CostModel, SimClock, TransportMode, ARING_CAPACITY,
};

use crate::fixture::Fixture;
use crate::report::{Mutant, PropertyReport};

/// One explored ring configuration; a state with an error is a sink.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct RingState {
    pops: usize,
    queued: usize,
    error: Option<String>,
}

/// The entry at queue position `i`: distinct bytes and length per
/// position, so a stale slot or length word shows.
fn payload(i: usize) -> Vec<u8> {
    vec![i as u8; i + 1]
}

/// The ring model: declared depth plus the (possibly mutated) depth passed
/// to the channel.
pub struct RingModel {
    depth: usize,
    /// Depth handed to `set_ring_depth`. [`Mutant::RingWindowOffByOne`]
    /// passes `depth + 1`, admitting one more entry than declared.
    channel_depth: usize,
}

impl RingModel {
    /// A model for `depth`, optionally perturbed by `mutant`.
    pub fn new(depth: usize, mutant: Option<Mutant>) -> RingModel {
        let channel_depth = depth + usize::from(mutant == Some(Mutant::RingWindowOffByOne));
        RingModel {
            depth,
            channel_depth,
        }
    }

    /// Applies one labelled step to a fresh channel in `state`. `Ok(None)`
    /// when the step is correctly refused (nothing changes).
    fn step(&self, state: &RingState, label: &str) -> Result<Option<RingState>, String> {
        let mut channel: Channel = Channel::new(
            TransportMode::Interrupts,
            SimClock::new(),
            CostModel::default(),
        );
        for _ in 0..state.pops {
            channel
                .send_request(Vec::new())
                .expect("an empty ring admits");
            channel.take_request().expect("the entry just sent");
        }
        channel.set_ring_depth(MAX_RING_DEPTH);
        let mut shadow: Vec<Vec<u8>> = (0..state.queued).map(payload).collect();
        for entry in &shadow {
            channel
                .send_request(entry.clone())
                .expect("below the page's capacity");
        }
        channel.set_ring_depth(self.channel_depth);
        let before = channel.stats();
        let mut next = state.clone();
        let (depth, queued) = (self.depth, state.queued);
        let error = match (label, shadow.is_empty()) {
            ("push", _) => match channel.send_request(payload(queued)) {
                Ok(()) if queued >= depth => Some(format!(
                    "push admitted past the window: {queued} outstanding at depth {depth}"
                )),
                Ok(()) => {
                    shadow.push(payload(queued));
                    next.queued += 1;
                    let after = channel.stats();
                    let rang = after.interrupt_deliveries - before.interrupt_deliveries;
                    let coalesced = after.coalesced_deliveries - before.coalesced_deliveries;
                    let expected = if queued == 0 { (1, 0) } else { (0, 1) };
                    ((rang, coalesced) != expected).then(|| {
                        format!(
                            "send at {queued} outstanding charged {rang} doorbell(s) and \
                             {coalesced} coalesced (empty→non-empty edge lost or spurious \
                             wakeup)"
                        )
                    })
                }
                Err(ChannelError::SlotBusy) if queued >= depth => return Ok(None),
                Err(error) => Some(format!(
                    "push refused ({error}) at {queued} outstanding, depth {depth}"
                )),
            },
            ("pop", true) => match channel.take_request() {
                Err(ChannelError::Empty) => return Ok(None),
                other => Some(format!("pop from an empty ring returned {other:?}")),
            },
            ("pop", false) => match channel.take_request() {
                Ok(bytes) if bytes == shadow[0] => {
                    shadow.remove(0);
                    next.queued -= 1;
                    next.pops = (state.pops + 1) % ARING_CAPACITY;
                    None
                }
                other => Some(format!(
                    "pop broke FIFO: got {other:?}, oldest committed is {:?}",
                    shadow[0]
                )),
            },
            (other, _) => return Err(format!("unknown ring event {other:?}")),
        };
        // What the ring still holds is the shadow queue, in order: nothing
        // overwritten, lost or extra.
        next.error = error.or_else(|| {
            let held: Vec<Vec<u8>> = std::iter::from_fn(|| channel.take_request().ok()).collect();
            (held != shadow).then(|| format!("ring holds {held:?}, shadow holds {shadow:?}"))
        });
        Ok(Some(next))
    }
}

impl TransitionSystem for RingModel {
    type State = RingState;

    fn initial(&self) -> Vec<RingState> {
        vec![RingState::default()]
    }

    fn successors(&self, state: &RingState) -> Vec<(String, RingState)> {
        if state.error.is_some() {
            return Vec::new();
        }
        ["push", "pop"]
            .iter()
            .filter_map(|label| {
                let next = self.step(state, label).expect("known label")?;
                Some(((*label).to_owned(), next))
            })
            .collect()
    }

    fn invariant(&self, state: &RingState) -> Result<(), String> {
        state.error.clone().map_or(Ok(()), Err)
    }
}

fn check_depth(
    name: &'static str,
    description: &'static str,
    depth: usize,
    mutant: Option<Mutant>,
) -> PropertyReport {
    let model = RingModel::new(depth, mutant);
    // The space is finite: unbounded exploration is total.
    let bounds = Bounds {
        max_states: usize::MAX,
        max_depth: usize::MAX,
    };
    let run = explore(&model, bounds);
    let Some(violation) = run.violation else {
        return PropertyReport::proved(name, description, run.states_visited, run.transitions);
    };
    let finding = Diagnostic::new(
        DiagCode::Vp002,
        "ring",
        None,
        format!(
            "{} (depth {depth}, after {:?})",
            violation.reason, violation.trace
        ),
    );
    let mut fixture = Fixture::new(name, mutant.map(Mutant::name), &violation.reason);
    fixture.push_data("depth", depth.to_string());
    fixture.trace = violation.trace;
    PropertyReport::disproved(
        name,
        description,
        run.states_visited,
        run.transitions,
        vec![finding],
        Some(fixture),
    )
}

/// `ring-depth1`: the paper's single bounded slot — push/pop strictly
/// alternate, one entry, doorbell on every push.
pub fn check_depth1(mutant: Option<Mutant>) -> PropertyReport {
    check_depth(
        "ring-depth1",
        "depth-1 channel ring: single-entry alternation, exact doorbells, FIFO payload \
         identity (every cursor offset of the page)",
        1,
        mutant,
    )
}

/// `ring-depth8`: the fast-path pipeline depth — window of 8, slot reuse
/// only after completion, doorbell only on the empty edge.
pub fn check_depth8(mutant: Option<Mutant>) -> PropertyReport {
    check_depth(
        "ring-depth8",
        "depth-8 channel ring: window discipline, no overwrite across slot reuse, doorbell \
         only on empty→non-empty (every cursor offset of the page)",
        8,
        mutant,
    )
}

/// Replays a ring fixture (`depth=`, `trace=` lines) against the real
/// channel.
///
/// # Errors
///
/// `Err(reason)` when the trace violates the invariants under `mutant`.
pub fn replay(fixture: &Fixture, mutant: Option<Mutant>) -> Result<(), String> {
    let depth: usize = fixture
        .value("depth")
        .ok_or("missing depth= line")?
        .parse()
        .map_err(|_| "bad depth")?;
    let model = RingModel::new(depth, mutant);
    let mut state = RingState::default();
    for label in &fixture.trace {
        if let Some(next) = model.step(&state, label)? {
            state = next;
        }
        model.invariant(&state)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_depths_prove_on_the_real_kernel() {
        let d1 = check_depth1(None);
        assert!(d1.proved, "{:?}", d1.findings);
        let d8 = check_depth8(None);
        assert!(d8.proved, "{:?}", d8.findings);
        // Every (cursor offset, queued) pair of the window was reached.
        assert_eq!(d1.states, ARING_CAPACITY * 2);
        assert_eq!(d8.states, ARING_CAPACITY * 9);
    }

    #[test]
    fn off_by_one_mutant_is_caught_at_both_depths() {
        for report in [
            check_depth1(Some(Mutant::RingWindowOffByOne)),
            check_depth8(Some(Mutant::RingWindowOffByOne)),
        ] {
            assert!(!report.proved);
            let fixture = report.counterexample.expect("fixture emitted");
            assert!(replay(&fixture, None).is_ok(), "must hold on real kernel");
            assert!(
                replay(&fixture, Some(Mutant::RingWindowOffByOne)).is_err(),
                "must still fail under the mutant"
            );
        }
    }

    #[test]
    fn counterexample_trace_is_minimal_for_depth1() {
        let report = check_depth1(Some(Mutant::RingWindowOffByOne));
        let fixture = report.counterexample.expect("fixture");
        // Depth 1 with an off-by-one window: push, push is the shortest
        // refutation and BFS must find exactly it.
        assert_eq!(fixture.trace, vec!["push", "push"]);
    }

    /// Replays `trace` (`push`/`pop` labels) at `depth` through the same
    /// checks the exploration applies to every step.
    fn scripted(depth: usize, trace: &str) -> Result<(), String> {
        let mut fixture = Fixture::new("ring-scripted", None, "");
        fixture.push_data("depth", depth.to_string());
        fixture.trace = trace.split_whitespace().map(str::to_owned).collect();
        replay(&fixture, None)
    }

    #[test]
    fn depth_one_alternates_one_slot_at_a_time() {
        // Each second push is refused and each second pop finds nothing,
        // for two and a half laps of the page.
        assert_eq!(scripted(1, &"push push pop pop ".repeat(40)), Ok(()));
    }

    #[test]
    fn depth_eight_full_ring_then_fifo_drain() {
        // The ninth push is refused although the page has free slots.
        let trace = format!("{}{}", "push ".repeat(9), "pop ".repeat(9));
        assert_eq!(scripted(8, &trace), Ok(()));
    }

    #[test]
    fn same_slot_produce_consume_at_full_window() {
        // All 16 slots outstanding: the next pop and the next push name one
        // slot, so the push waits for the pop, then reuses the slot without
        // overwriting anything still queued.
        let trace = format!("{}pop push {}", "push ".repeat(17), "pop ".repeat(17));
        assert_eq!(scripted(MAX_RING_DEPTH, &trace), Ok(()));
    }

    fn channel() -> Channel {
        Channel::new(
            TransportMode::Interrupts,
            SimClock::new(),
            CostModel::default(),
        )
    }

    #[test]
    fn narrowing_depth_keeps_queued_entries() {
        let mut ch = channel();
        ch.set_ring_depth(8);
        for i in 0..8 {
            ch.send_request(payload(i)).unwrap();
        }
        // Narrowed to 1 with 8 queued: sends refused, takes still drain.
        ch.set_ring_depth(1);
        assert_eq!(ch.send_request(payload(8)), Err(ChannelError::SlotBusy));
        for i in 0..7 {
            assert_eq!(ch.take_request().unwrap(), payload(i));
        }
        // Still one queued = the narrowed depth: refused.
        assert_eq!(ch.send_request(payload(8)), Err(ChannelError::SlotBusy));
        assert_eq!(ch.take_request().unwrap(), payload(7));
        ch.send_request(payload(8)).unwrap();
        assert_eq!(ch.take_request().unwrap(), payload(8));
    }

    #[test]
    fn depth_is_clamped_to_capacity() {
        let mut ch = channel();
        ch.set_ring_depth(usize::MAX);
        assert_eq!(ch.ring_depth(), ARING_CAPACITY);
        for i in 0..ARING_CAPACITY {
            ch.send_request(payload(i)).unwrap();
        }
        assert_eq!(
            ch.send_request(payload(ARING_CAPACITY)),
            Err(ChannelError::SlotBusy),
            "capacity bounds any depth"
        );
    }
}
