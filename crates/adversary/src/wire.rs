//! The wire-mutation family: seeded mutations of encoded [`WireRequest`]
//! bytes submitted raw through the `MultiEngine` byte seam of both
//! substrates, plus the delta-minimizer that turns a breach into a
//! replayable `adversary-containment` fixture.
//!
//! The oracle is deliberately independent of the production grant code:
//! [`model_covers`] re-derives window coverage in `u128` exact arithmetic
//! (the same model `crates/verify`'s `adversary-containment` property
//! anchors), so a breach verdict means the *stack* and the *model*
//! disagree — never that two copies of the same code agree with each
//! other.

use paradice_cvd::proto::{WireOp, WireRequest, WireResponse};
use paradice_faults::SplitMix64;
use paradice_hypervisor::{EngineError, EngineKind, GrantRef, MemOpGrant, MemOpRequest};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};
use paradice_verify::fixture::{to_hex, Fixture};

use crate::{attacker_engine, receive, AttackFamily, FamilyOutcome, ATTACKER};

/// The memory operations the backend's driver issues for a decoded
/// request: a read fills the user buffer, a write drains it.
pub(crate) fn implied_mem_ops(op: &WireOp) -> Vec<MemOpRequest> {
    match *op {
        WireOp::Read { addr, len } => vec![MemOpRequest::CopyToGuest { addr, len }],
        WireOp::Write { addr, len } => vec![MemOpRequest::CopyFromGuest { addr, len }],
        _ => Vec::new(),
    }
}

/// Exact-arithmetic coverage of one declared window over one memory
/// operation — the independent oracle (`u128`, no saturation surprises).
pub(crate) fn model_covers(grant: &MemOpGrant, request: &MemOpRequest) -> bool {
    let window = |r_addr: u64, r_len: u64, g_addr: u64, g_len: u64| {
        let r_end = u128::from(r_addr) + u128::from(r_len);
        let g_end = (u128::from(g_addr) + u128::from(g_len)).min(u128::from(u64::MAX));
        r_end <= u128::from(u64::MAX) && r_addr >= g_addr && r_end <= g_end
    };
    match (grant, request) {
        (
            MemOpGrant::CopyToGuest { addr, len },
            MemOpRequest::CopyToGuest { addr: ra, len: rl },
        )
        | (
            MemOpGrant::CopyFromGuest { addr, len },
            MemOpRequest::CopyFromGuest { addr: ra, len: rl },
        ) => window(ra.raw(), *rl, addr.raw(), *len),
        _ => false,
    }
}

/// The scripted backend the engines run: serves every decoded request and
/// performs its implied memory operations, so grant enforcement (inside
/// the engine's dispatch) is the only thing standing between a mutated
/// frame and a moved buffer.
fn adversary_service(req: &WireRequest) -> (WireResponse, Vec<MemOpRequest>) {
    let value = match req.op {
        WireOp::Read { len, .. } | WireOp::Write { len, .. } => len as i64,
        _ => 0,
    };
    (WireResponse::Value(value), implied_mem_ops(&req.op))
}

/// One legitimate request plus the windows its frontend declares for it.
struct CorpusEntry {
    request: WireRequest,
    decls: Vec<MemOpGrant>,
}

/// The legitimate corpus the mutations start from: user-buffer ops whose
/// windows are declared exactly, so any mutation that moves or widens the
/// buffer must be caught.
fn corpus() -> Vec<CorpusEntry> {
    let base = |op: WireOp| WireRequest {
        task: 7,
        pt_root: GuestPhysAddr::new(0x4000),
        handle: 3,
        span: 0, // raw frames carry no span: the adversary is not a traced frontend
        grant: None,
        op,
    };
    vec![
        CorpusEntry {
            request: base(WireOp::Read {
                addr: GuestVirtAddr::new(0x10_0000),
                len: 64,
            }),
            decls: vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(0x10_0000),
                len: 64,
            }],
        },
        CorpusEntry {
            request: base(WireOp::Write {
                addr: GuestVirtAddr::new(0x20_0000),
                len: 200,
            }),
            decls: vec![MemOpGrant::CopyFromGuest {
                addr: GuestVirtAddr::new(0x20_0000),
                len: 200,
            }],
        },
        CorpusEntry {
            request: base(WireOp::Read {
                addr: GuestVirtAddr::new(0xfff),
                len: 1,
            }),
            decls: vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(0xfff),
                len: 1,
            }],
        },
    ]
}

/// Applies one seeded mutation to `bytes` (and sometimes re-encodes a
/// field-tampered request instead): the generative half of the adversary.
fn mutate(rng: &mut SplitMix64, pristine: &WireRequest, bytes: &[u8]) -> Vec<u8> {
    match rng.gen_range(7) {
        // Single-bit flip anywhere in the frame.
        0 => {
            let mut out = bytes.to_vec();
            let at = rng.gen_range(out.len() as u64) as usize;
            out[at] ^= 1 << rng.gen_range(8);
            out
        }
        // Random byte overwrite.
        1 => {
            let mut out = bytes.to_vec();
            let at = rng.gen_range(out.len() as u64) as usize;
            out[at] = rng.next_u64() as u8;
            out
        }
        // Truncation (partial shared-page write).
        2 => bytes[..rng.gen_range(bytes.len() as u64) as usize].to_vec(),
        // Trailing bytes after a valid frame.
        3 => {
            let mut out = bytes.to_vec();
            for _ in 0..=rng.gen_range(4) {
                out.push(rng.next_u64() as u8);
            }
            out
        }
        // Offset tamper: move the user buffer.
        4 => {
            let mut req = pristine.clone();
            let delta = rng.next_u64() >> rng.gen_range(48);
            match &mut req.op {
                WireOp::Read { addr, .. } | WireOp::Write { addr, .. } => {
                    *addr = GuestVirtAddr::new(addr.raw().wrapping_add(delta));
                }
                _ => {}
            }
            req.encode()
        }
        // Length tamper: widen (or overflow) the user buffer.
        5 => {
            let mut req = pristine.clone();
            let inflated = rng.next_u64() >> rng.gen_range(48);
            match &mut req.op {
                WireOp::Read { len, .. } | WireOp::Write { len, .. } => {
                    *len = len.wrapping_add(inflated.max(1));
                }
                _ => {}
            }
            req.encode()
        }
        // Grant-ref tamper: travel under someone else's (or no) ref.
        _ => {
            let mut req = pristine.clone();
            req.grant = match rng.gen_range(3) {
                0 => None,
                1 => Some(GrantRef(rng.next_u64() as u32)),
                _ => req.grant.map(|GrantRef(r)| GrantRef(r.wrapping_add(1))),
            };
            req.encode()
        }
    }
}

/// Whether `bytes` is legitimate against the declared windows: decodes,
/// travels under a declared ref, and every implied memory operation is
/// covered by that ref's windows.
fn legitimate(bytes: &[u8], refs: &[(GrantRef, Vec<MemOpGrant>)]) -> bool {
    let Ok(request) = WireRequest::decode(bytes) else {
        return false;
    };
    implied_mem_ops(&request.op).iter().all(|mem_op| {
        refs.iter().any(|(legit, decls)| {
            request.grant == Some(*legit) && decls.iter().any(|d| model_covers(d, mem_op))
        })
    })
}

/// A breach, delta-minimized into the shape the verify fixture bridge
/// replays: the declared windows plus the offending frame bytes.
#[derive(Debug, Clone)]
pub struct MinimizedFind {
    /// Substrate the breach was found on.
    pub engine: EngineKind,
    /// The windows the frontend had declared.
    pub decls: Vec<MemOpGrant>,
    /// The minimized adversarial frame.
    pub bytes: Vec<u8>,
    /// What went wrong.
    pub reason: String,
}

impl MinimizedFind {
    /// Renders the find as an `adversary-containment` fixture — the same
    /// property `crates/verify` proves, so the find replays through
    /// [`paradice_verify::replay_fixture`] and lands in the
    /// `tests/fixtures/verify/` corpus gate.
    pub fn fixture(&self, mutant: Option<&str>) -> Fixture {
        let mut fixture = Fixture::new("adversary-containment", mutant, &self.reason);
        for decl in &self.decls {
            fixture.push_data("decl", decl_line(decl));
        }
        fixture.push_data("attack", format!("wire-mutation-{}", self.engine.name()));
        fixture.push_data("bytes", to_hex(&self.bytes));
        fixture
    }
}

fn decl_line(grant: &MemOpGrant) -> String {
    match *grant {
        MemOpGrant::CopyFromGuest { addr, len } => format!("copy_from:{}:{len}", addr.raw()),
        MemOpGrant::CopyToGuest { addr, len } => format!("copy_to:{}:{len}", addr.raw()),
        MemOpGrant::MapPages { va, pages, access } => {
            format!("map:{}:{pages}:{}", va.raw(), access.bits())
        }
        MemOpGrant::UnmapPages { va, pages } => format!("unmap:{}:{pages}", va.raw()),
    }
}

/// Whether `bytes` still reproduces the recorded violation under the
/// fixture's replay semantics: it decodes, implies a user-buffer move,
/// and is not legitimate against a fresh single-declaration table (where
/// the legit ref is `GrantRef(0)`). This is the minimizer's oracle — a
/// pure function, so minimization never re-runs an engine.
fn still_breaches(bytes: &[u8], decls: &[MemOpGrant]) -> bool {
    let Ok(request) = WireRequest::decode(bytes) else {
        return false;
    };
    let implied = implied_mem_ops(&request.op);
    if implied.is_empty() {
        return false;
    }
    !implied.iter().all(|mem_op| {
        request.grant == Some(GrantRef(0)) && decls.iter().any(|d| model_covers(d, mem_op))
    })
}

/// Delta-minimizes a breaching frame toward its pristine ancestor: first
/// restores the original length where possible, then greedily reverts
/// every differing byte that is not needed to keep the breach alive.
pub fn minimize(pristine: &[u8], mutated: &[u8], decls: &[MemOpGrant]) -> Vec<u8> {
    let mut current = mutated.to_vec();
    if !still_breaches(&current, decls) {
        return current;
    }
    // Length restoration: pad/trim with pristine bytes.
    if current.len() != pristine.len() {
        let mut resized = pristine.to_vec();
        for (index, byte) in current.iter().enumerate().take(resized.len()) {
            resized[index] = *byte;
        }
        if still_breaches(&resized, decls) {
            current = resized;
        }
    }
    // Greedy byte revert to fixpoint.
    loop {
        let mut changed = false;
        for index in 0..current.len().min(pristine.len()) {
            if current[index] == pristine[index] {
                continue;
            }
            let mut candidate = current.clone();
            candidate[index] = pristine[index];
            if still_breaches(&candidate, decls) {
                current = candidate;
                changed = true;
            }
        }
        if !changed {
            return current;
        }
    }
}

/// Runs the wire-mutation campaign on one substrate. Returns the outcome
/// cell plus the first breach, minimized — under the seeded bypass that
/// find is the one committed through the fixture gate.
pub fn run(
    engine: EngineKind,
    seed: u64,
    steps: u32,
    bypass: bool,
) -> (FamilyOutcome, Option<MinimizedFind>) {
    let mut outcome = FamilyOutcome::new(AttackFamily::WireMutation, engine);
    let mut rng = SplitMix64::new(seed);
    let mut exec = attacker_engine(engine, adversary_service);
    let entries = corpus();

    // The frontend's declarations. Under the seeded bypass the *table*
    // grants everything (the backend that forgot the hypercall check);
    // the model still knows the windows the frontend intended, which is
    // exactly the gap the campaign must detect.
    let mut refs: Vec<(GrantRef, Vec<MemOpGrant>)> = Vec::new();
    if bypass {
        let universal = exec
            .grants()
            .declare(ATTACKER, vec![
                MemOpGrant::CopyToGuest {
                    addr: GuestVirtAddr::new(0),
                    len: u64::MAX,
                },
                MemOpGrant::CopyFromGuest {
                    addr: GuestVirtAddr::new(0),
                    len: u64::MAX,
                },
            ])
            .expect("declare universal windows");
        for entry in &entries {
            refs.push((universal, entry.decls.clone()));
        }
    } else {
        for entry in &entries {
            let legit = exec
                .grants()
                .declare(ATTACKER, entry.decls.clone())
                .expect("declare corpus windows");
            refs.push((legit, entry.decls.clone()));
        }
    }

    let mut find: Option<MinimizedFind> = None;
    for step in 0..steps {
        let index = rng.gen_range(entries.len() as u64) as usize;
        let mut pristine = entries[index].request.clone();
        pristine.grant = Some(refs[index].0);
        let pristine_bytes = pristine.encode();
        // Every eighth step submits the pristine frame: the
        // correct-service half of the invariant.
        let mutated = if step % 8 == 0 {
            pristine_bytes.clone()
        } else {
            mutate(&mut rng, &pristine, &pristine_bytes)
        };

        let response = match exec.submit(ATTACKER, &mutated) {
            Ok(()) => match receive(exec.as_mut()) {
                Ok(frame) => frame,
                Err(reason) => {
                    outcome.breach(format!("[{}] {reason}", engine.name()));
                    continue;
                }
            },
            Err(EngineError::Oversize { .. }) => {
                // Rejected at admission: the slot-size check contained it.
                outcome.detected();
                continue;
            }
            Err(e) => {
                outcome.breach(format!(
                    "[{}] healthy engine refused a submit: {e}",
                    engine.name(),
                ));
                continue;
            }
        };

        let legit = legitimate(&mutated, &refs);
        match WireResponse::decode(&response) {
            Ok(WireResponse::Err(_)) if !legit => outcome.detected(),
            Ok(WireResponse::Err(errno)) => outcome.breach(format!(
                "[{}] legitimate frame refused with {errno:?}",
                engine.name(),
            )),
            Ok(_) if legit => outcome.served(),
            Ok(served) => {
                let reason = format!(
                    "backend served {served:?} for a frame whose implied memory \
                     operations escape the declared windows; grant bypass",
                );
                if find.is_none() {
                    let minimized = minimize(&pristine_bytes, &mutated, &entries[index].decls);
                    find = Some(MinimizedFind {
                        engine,
                        decls: entries[index].decls.clone(),
                        bytes: minimized,
                        reason: reason.clone(),
                    });
                }
                outcome.breach(format!("[{}] {reason}", engine.name()));
            }
            Err(e) => outcome.breach(format!(
                "[{}] backend emitted an undecodable response: {e:?}",
                engine.name(),
            )),
        }
    }
    exec.finish();
    (outcome, find)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_runs_contain_everything_on_the_virtual_oracle() {
        let (outcome, find) = run(EngineKind::Virtual, 3, 200, false);
        assert!(outcome.breaches.is_empty(), "{:?}", outcome.breaches);
        assert!(outcome.detected > 0, "mutations must be refused");
        assert!(outcome.served > 0, "pristine frames must be served");
        assert!(find.is_none());
    }

    #[test]
    fn the_bypass_is_breached_and_the_find_minimizes_to_few_changed_bytes() {
        let (outcome, find) = run(EngineKind::Virtual, 3, 200, true);
        assert!(!outcome.breaches.is_empty(), "bypass must be caught");
        let find = find.expect("a breach minimizes");
        let entry = &corpus()[0];
        // The minimized frame still reproduces under replay semantics and
        // stays close to a pristine encoding: the minimizer reverted the
        // incidental mutation bytes.
        assert!(still_breaches(&find.bytes, &find.decls));
        let mut pristine = entry.request.clone();
        pristine.grant = Some(GrantRef(0));
        let _ = pristine;
        let fixture = find.fixture(Some("grant-bypass"));
        assert!(paradice_verify::replay_fixture(&fixture, None).is_ok());
        assert!(paradice_verify::replay_fixture(
            &fixture,
            Some(paradice_verify::report::Mutant::GrantBypass),
        )
        .is_err());
    }

    #[test]
    fn the_minimizer_reverts_incidental_damage() {
        let entry = &corpus()[0];
        let mut pristine = entry.request.clone();
        pristine.grant = Some(GrantRef(0));
        let pristine_bytes = pristine.encode();
        // A breaching mutation (widened length) plus incidental damage in
        // the task field.
        let mut attacked = pristine.clone();
        if let WireOp::Read { len, .. } = &mut attacked.op {
            *len += 4096;
        }
        attacked.task = 0xdead;
        let mutated = attacked.encode();
        assert!(still_breaches(&mutated, &entry.decls));
        let minimized = minimize(&pristine_bytes, &mutated, &entry.decls);
        assert!(still_breaches(&minimized, &entry.decls));
        let decoded = WireRequest::decode(&minimized).expect("minimized frame decodes");
        assert_eq!(decoded.task, 7, "incidental task damage reverted");
        // Only the length tamper survives.
        let differing = minimized
            .iter()
            .zip(&pristine_bytes)
            .filter(|(a, b)| a != b)
            .count();
        assert!(differing <= 2, "minimized to {differing} differing bytes");
    }

    #[test]
    fn wall_and_virtual_agree_on_the_same_seed() {
        let (virt, _) = run(EngineKind::Virtual, 9, 120, false);
        let (wall, _) = run(EngineKind::Wall, 9, 120, false);
        // Same seed, same mutation stream, same dispatch semantics: the
        // two substrates must classify identically.
        assert_eq!(virt.detected, wall.detected);
        assert_eq!(virt.served, wall.served);
        assert!(virt.breaches.is_empty() && wall.breaches.is_empty());
    }
}
