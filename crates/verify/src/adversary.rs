//! Adversarial containment: every mutated wire frame and forged/replayed
//! grant reference is *contained* by the real enforcement stack.
//!
//! The fuzzing adversary (`crates/adversary`) plays a malicious guest
//! against the live machine; this module is its deterministic verify-side
//! anchor. It enumerates the same attack shapes — single-bit flips,
//! truncations, and trailing bytes over encoded [`WireRequest`]s, plus
//! replayed and forged [`GrantRef`]s — and checks one invariant on the
//! real kernels:
//!
//! > an adversarial request is either rejected at decode, or its implied
//! > memory operation is validated against the declared grant windows;
//! > enforcement never accepts an operation the exact-arithmetic coverage
//! > model rejects.
//!
//! [`Mutant::GrantBypass`] swaps the enforcement step for one that accepts
//! everything — the backend that "forgets" the grant hypercall check. The
//! enumeration must disprove it, and the emitted fixture replays through
//! [`replay`] so every fuzz find (minimized by the adversary crate into
//! the same `adversary-containment` property) becomes a permanent
//! regression test.

use paradice_cvd::proto::{WireOp, WireRequest};
use paradice_hypervisor::{GrantRef, MemOpGrant, MemOpRequest, ShardedGrantTable};
use paradice_analyzer::lint::{DiagCode, Diagnostic};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

use crate::fixture::{from_hex, to_hex, Fixture};
use crate::grants::{parse_decl, parse_request};
use crate::report::{Mutant, PropertyReport};

/// The memory operation a decoded adversarial request implies, mirroring
/// what the backend's driver would issue for it (read fills the user
/// buffer, write drains it). Ops without a user buffer imply none.
fn implied_mem_op(op: &WireOp) -> Option<MemOpRequest> {
    match *op {
        WireOp::Read { addr, len } => Some(MemOpRequest::CopyToGuest { addr, len }),
        WireOp::Write { addr, len } => Some(MemOpRequest::CopyFromGuest { addr, len }),
        _ => None,
    }
}

/// Exact-arithmetic coverage of one window over one request (`u128`, no
/// saturation surprises) — the independent oracle, deliberately *not* the
/// production `covers` code.
fn model_covers(grant: &MemOpGrant, request: &MemOpRequest) -> bool {
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

/// The guest whose shard of the grant store the sweep declares on; its
/// first reference is `GrantRef(0)`.
const GUEST: u32 = 0;

/// The containment verdict for one adversarial frame against one declared
/// table. `Ok(detected)` when contained (`detected` = rejected outright),
/// `Err(reason)` when enforcement accepted an operation the model rejects.
fn contain_frame(
    bytes: &[u8],
    table: &ShardedGrantTable,
    legit: GrantRef,
    decls: &[MemOpGrant],
    bypass: bool,
) -> Result<bool, String> {
    let Ok(request) = WireRequest::decode(bytes) else {
        // Rejected at decode — the backend answers EINVAL. Contained.
        return Ok(true);
    };
    let Some(mem_op) = implied_mem_op(&request.op) else {
        // No user-buffer window to attack: serving it cannot move guest
        // memory, so either answer is correct service.
        return Ok(false);
    };
    // The enforcement step under test: the real grant table, or the
    // seeded bypass that skips the hypercall check entirely.
    let enforced = if bypass {
        true
    } else {
        match request.grant {
            Some(grant) => table.validate(GUEST, grant, &mem_op).is_ok(),
            None => false,
        }
    };
    // The oracle: the op is legitimate iff it travels under the declared
    // reference and some declared window covers it exactly.
    let legitimate =
        request.grant == Some(legit) && decls.iter().any(|d| model_covers(d, &mem_op));
    if enforced && !legitimate {
        return Err(format!(
            "enforcement accepted {mem_op:?} under grant {:?} although the declared \
             windows do not cover it; grant bypass",
            request.grant,
        ));
    }
    Ok(!enforced)
}

/// The legitimate request corpus the mutations start from: user-buffer ops
/// whose windows are declared exactly, so any mutation that moves the
/// buffer must be caught.
fn attack_corpus() -> Vec<(WireRequest, Vec<MemOpGrant>)> {
    let base = |op: WireOp, grant: Option<GrantRef>| WireRequest {
        task: 7,
        pt_root: GuestPhysAddr::new(0x4000),
        handle: 3,
        span: 11,
        grant,
        op,
    };
    vec![
        (
            base(
                WireOp::Read {
                    addr: GuestVirtAddr::new(0x10_0000),
                    len: 64,
                },
                Some(GrantRef(0)),
            ),
            vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(0x10_0000),
                len: 64,
            }],
        ),
        (
            base(
                WireOp::Write {
                    addr: GuestVirtAddr::new(0x20_0000),
                    len: 512,
                },
                Some(GrantRef(0)),
            ),
            vec![MemOpGrant::CopyFromGuest {
                addr: GuestVirtAddr::new(0x20_0000),
                len: 512,
            }],
        ),
        (
            base(
                WireOp::Read {
                    addr: GuestVirtAddr::new(0xfff),
                    len: 1,
                },
                Some(GrantRef(0)),
            ),
            vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(0xfff),
                len: 1,
            }],
        ),
    ]
}

struct Violation {
    decls: Vec<MemOpGrant>,
    bytes: Vec<u8>,
    attack: &'static str,
    reason: String,
}

/// `adversary-containment`: the enumeration described in the module docs.
/// [`Mutant::GrantBypass`] replaces enforcement with unconditional accept;
/// the bit-flip sweep must then catch a frame whose moved buffer escapes
/// its declared window.
pub fn check_containment(mutant: Option<Mutant>) -> PropertyReport {
    const NAME: &str = "adversary-containment";
    const DESC: &str =
        "every mutated wire frame and forged/replayed grant ref is rejected at decode or \
         by grant validation; enforcement never accepts outside the declared windows";
    let bypass = mutant == Some(Mutant::GrantBypass);
    let mut violations: Vec<Violation> = Vec::new();
    let mut frames = 0usize;
    let mut checks = 0usize;
    let mut detected = 0usize;

    for (request, decls) in attack_corpus() {
        let table = ShardedGrantTable::with_guests(1);
        let legit = table.declare(GUEST, decls.clone()).expect("declare fits");
        assert_eq!(legit, GrantRef(0), "fresh tables number refs from zero");
        let pristine = request.encode();
        frames += 1;

        let mut try_frame = |bytes: &[u8], attack: &'static str| {
            checks += 1;
            match contain_frame(bytes, &table, legit, &decls, bypass) {
                Ok(true) => detected += 1,
                Ok(false) => {}
                Err(reason) => violations.push(Violation {
                    decls: decls.clone(),
                    bytes: bytes.to_vec(),
                    attack,
                    reason,
                }),
            }
        };

        // The pristine frame itself must be *served*, not flagged: the
        // oracle and enforcement agree it is covered.
        try_frame(&pristine, "pristine");
        // Every single-bit flip (wire mutation).
        for index in 0..pristine.len() {
            for bit in 0..8 {
                let mut mutated = pristine.clone();
                mutated[index] ^= 1 << bit;
                try_frame(&mutated, "bit-flip");
            }
        }
        // Every truncation.
        for len in 0..pristine.len() {
            try_frame(&pristine[..len], "truncation");
        }
        // Trailing bytes after a valid frame.
        let mut trailing = pristine.clone();
        trailing.extend_from_slice(&[0xa5, 0x5a]);
        try_frame(&trailing, "trailing-bytes");

        // Grant replay: the same legit frame after revocation must not
        // validate (the ref is dead), and a forged ref must never have
        // worked. `revoke` models both driver-VM containment and
        // `recover_driver_vm`'s table rebuild.
        let mut forged = request.clone();
        forged.grant = Some(GrantRef(7));
        checks += 1;
        match contain_frame(&forged.encode(), &table, legit, &decls, bypass) {
            Ok(true) => detected += 1,
            Ok(false) => {}
            Err(reason) => violations.push(Violation {
                decls: decls.clone(),
                bytes: forged.encode(),
                attack: "forged-ref",
                reason,
            }),
        }
        assert!(table.revoke(GUEST, legit), "legit ref is live until here");
        checks += 1;
        // After revocation nothing covers the pristine frame either: the
        // oracle still calls it legitimate *by shape*, but enforcement
        // must reject the dead ref — so only a bypass can accept, and the
        // oracle no longer matters. Model that by requiring rejection.
        match contain_frame(&pristine, &table, GrantRef(u32::MAX), &decls, bypass) {
            Ok(true) => detected += 1,
            Ok(false) => violations.push(Violation {
                decls: decls.clone(),
                bytes: pristine.clone(),
                attack: "replayed-ref",
                reason: "a revoked grant ref still validated; replay after revocation".into(),
            }),
            Err(reason) => violations.push(Violation {
                decls: decls.clone(),
                bytes: pristine.clone(),
                attack: "replayed-ref",
                reason,
            }),
        }
    }

    if violations.is_empty() {
        assert!(detected > 0, "the sweep must detect some attacks");
        return PropertyReport::proved(NAME, DESC, frames, checks);
    }
    let findings = violations
        .iter()
        .take(5)
        .map(|v| {
            Diagnostic::new(
                DiagCode::Vp001,
                "adversary",
                None,
                format!("[{}] {}; decls {:?}", v.attack, v.reason, v.decls),
            )
        })
        .collect();
    let first = &violations[0];
    let mut fixture = Fixture::new(NAME, mutant.map(Mutant::name), &first.reason);
    for decl in &first.decls {
        fixture.push_data("decl", decl_line(decl));
    }
    fixture.push_data("attack", first.attack);
    fixture.push_data("bytes", to_hex(&first.bytes));
    PropertyReport::disproved(NAME, DESC, frames, checks, findings, Some(fixture))
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

/// Replays an `adversary-containment` fixture: re-declares the `decl=`
/// windows on a fresh table and re-runs containment on the `bytes=` frame.
/// Fixtures emitted by the live adversary may instead carry a `request=`
/// memop line (the minimized attack in memop form); both shapes replay.
///
/// # Errors
///
/// `Err(reason)` when enforcement (under `mutant`) accepts an operation
/// the coverage model rejects — i.e. the recorded bypass reproduces.
pub fn replay(fixture: &Fixture, mutant: Option<Mutant>) -> Result<(), String> {
    let bypass = mutant == Some(Mutant::GrantBypass);
    let decls: Vec<MemOpGrant> = fixture
        .values("decl")
        .into_iter()
        .map(parse_decl)
        .collect::<Result<_, _>>()?;
    let table = ShardedGrantTable::with_guests(1);
    let legit = table
        .declare(GUEST, decls.clone())
        .map_err(|e| format!("declare failed: {e}"))?;
    if let Some(hex) = fixture.value("bytes") {
        let bytes = from_hex(hex)?;
        if fixture.value("attack") == Some("replayed-ref") {
            table.revoke(GUEST, legit);
            return match contain_frame(&bytes, &table, GrantRef(u32::MAX), &decls, bypass) {
                Ok(true) => Ok(()),
                Ok(false) => Err("a revoked grant ref still validated".into()),
                Err(reason) => Err(reason),
            };
        }
        return contain_frame(&bytes, &table, legit, &decls, bypass).map(|_| ());
    }
    // Memop-form fixtures from the live adversary: the request line is the
    // already-decoded attack; containment is the enforcement-vs-model
    // comparison alone.
    let request = parse_request(fixture.value("request").ok_or("missing bytes= or request=")?)?;
    let enforced = bypass || table.validate(GUEST, legit, &request).is_ok();
    let legitimate = decls.iter().any(|d| model_covers(d, &request));
    if enforced && !legitimate {
        return Err(format!(
            "enforcement accepted {request:?} although the declared windows do not cover it"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_proves_on_the_real_kernels() {
        let report = check_containment(None);
        assert!(report.proved, "findings: {:?}", report.findings);
        assert!(report.transitions > 1_000, "sweep too small: {}", report.transitions);
    }

    #[test]
    fn the_grant_bypass_mutant_is_disproved_with_a_replayable_fixture() {
        let report = check_containment(Some(Mutant::GrantBypass));
        assert!(!report.proved);
        assert!(!report.findings.is_empty());
        let fixture = report.counterexample.expect("counterexample emitted");
        assert_eq!(fixture.file_name(), "grant-bypass.fixture");
        // Both directions of the regression: clean on the real kernels,
        // violated under the recorded mutant.
        assert!(replay(&fixture, None).is_ok());
        assert!(replay(&fixture, Some(Mutant::GrantBypass)).is_err());
    }

    #[test]
    fn memop_form_fixtures_replay_both_ways() {
        let mut fixture = Fixture::new(
            "adversary-containment",
            Some("grant-bypass"),
            "enforcement accepted an uncovered copy",
        );
        fixture.push_data("decl", "copy_to:1048576:64");
        fixture.push_data("request", "copy_to:1048576:65");
        assert!(replay(&fixture, None).is_ok());
        assert!(replay(&fixture, Some(Mutant::GrantBypass)).is_err());
    }
}
