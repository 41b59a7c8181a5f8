//! The lint suite's ship gate, exercised end to end.
//!
//! Three claims are enforced here, all offline and deterministic:
//!
//! 1. Every shipped driver's handler IR is lint-clean, or every surviving
//!    finding carries a recorded allowlist justification.
//! 2. The seeded buggy fixture handler trips **every** static pass with its
//!    exact diagnostic code — the passes demonstrably fire.
//! 3. The runtime conformance pass catches an injected ungranted operation,
//!    both when replayed directly and when read back out of a real
//!    `paradice_hypervisor::audit::AuditLog` text export produced by the
//!    attack suite.

use paradice::attack;
use paradice::prelude::*;
use paradice_analyzer::lint::conformance::{
    check_audit, check_replay, parse_audit_text, ObservedIoctl,
};
use paradice_analyzer::lint::{fixtures, DiagCode};
use paradice_analyzer::{
    apply_allowlist, extract_command, has_errors, lint_handler, Extraction, OpKind, ResolvedOp,
    Severity,
};
use paradice_drivers::{all_handlers, lint_allowlist};
use paradice_hypervisor::audit::{AuditEvent, AuditLog};
use paradice_hypervisor::VmId;

#[test]
fn shipped_drivers_are_lint_clean_or_allowlisted() {
    let allowlist = lint_allowlist();
    for (name, handler) in all_handlers() {
        let mut diags = lint_handler(name, handler);
        apply_allowlist(&mut diags, &allowlist);
        assert!(
            !has_errors(&diags),
            "driver {name} ships with lint errors:\n{}",
            diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.render())
                .collect::<Vec<_>>()
                .join("\n"),
        );
        // Allowlisting must document, not hide: anything downgraded still
        // carries its recorded reason.
        for diag in diags.iter().filter(|d| d.allowlisted) {
            assert!(
                diag.message.contains("[allowlisted:"),
                "allowlisted finding lost its justification: {}",
                diag.render()
            );
        }
    }
}

#[test]
fn seeded_fixture_trips_every_pass_with_exact_codes() {
    let diags = lint_handler(fixtures::FIXTURE_DRIVER, &fixtures::buggy_handler());
    let fired = |code: DiagCode, cmd: u32| {
        diags
            .iter()
            .any(|d| d.code == code && d.command == Some(cmd))
    };
    for (code, cmd) in [
        (DiagCode::Df001, fixtures::FIX_DOUBLE_FETCH.raw()),
        (DiagCode::Df002, fixtures::FIX_REFETCH.raw()),
        (DiagCode::Og001, fixtures::FIX_OVER_GRANT.raw()),
        (DiagCode::Og002, fixtures::FIX_DEAD_DIR.raw()),
        (DiagCode::Sh001, fixtures::FIX_BIG_LOOP.raw()),
        (DiagCode::Sh002, fixtures::FIX_OPAQUE_LOOP.raw()),
        (DiagCode::Sh003, fixtures::FIX_RECURSION.raw()),
        (DiagCode::Sh004, fixtures::FIX_DOUBLE_FETCH.raw()),
        (DiagCode::Sh005, fixtures::FIX_DEEP_CHAIN.raw()),
        (DiagCode::Sh006, fixtures::FIX_UNKNOWN_FN.raw()),
        (DiagCode::Df001, fixtures::FIX_XHELPER_DF.raw()),
        (DiagCode::Ta001, fixtures::FIX_OVERFLOW_LEN.raw()),
    ] {
        assert!(
            fired(code, cmd),
            "fixture did not trip {code:?} on cmd {cmd:#010x}; got:\n{}",
            diags
                .iter()
                .map(|d| d.render())
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

/// Differential gate on the real drivers: the flow-sensitive double-fetch
/// pass must cover every finding of the syntactic walker it replaced
/// (frozen in `tests/fixtures/syntactic_double_fetch.expected`), and must
/// not invent error-class findings on a command that walker found clean.
/// It found nothing on any shipped driver, so no shipped driver may carry
/// an error-class DF finding.
#[test]
fn flow_double_fetch_differential_on_shipped_drivers() {
    use paradice_analyzer::lint::double_fetch;
    let frozen = include_str!("fixtures/syntactic_double_fetch.expected");
    for (name, handler) in all_handlers() {
        for cmd in handler.commands() {
            let syntactic: Vec<&str> = frozen
                .lines()
                .filter_map(|line| line.strip_prefix(&format!("{name} {cmd:#010x} ")))
                .collect();
            let mut flow = Vec::new();
            double_fetch::check(name, cmd, handler, &mut flow);
            for old in &syntactic {
                assert!(
                    flow.iter().any(|new| new.code.as_str() == *old
                        || (*old == "DF002" && new.code == DiagCode::Df001)),
                    "{name}: flow pass lost {old} on cmd {cmd:#010x}",
                );
            }
            for new in flow.iter().filter(|d| d.severity == Severity::Error) {
                assert!(
                    !syntactic.is_empty(),
                    "{name}: flow pass invented an error on a syntactically-clean \
                     command: {}",
                    new.render(),
                );
            }
        }
    }
}

/// The conformance replay must flag an executed operation no grant covers
/// (`CF001`) on a real shipped handler.
#[test]
fn injected_ungranted_operation_is_flagged_cf001() {
    let (name, handler) = all_handlers()
        .into_iter()
        .find(|(name, _)| *name == "radeon-3.2.0")
        .expect("radeon-3.2.0 is registered");
    // Pick a command the analyzer fully resolves statically so the granted
    // set below is exactly the frontend's declaration.
    let (cmd, templates) = handler
        .commands()
        .into_iter()
        .find_map(|cmd| match extract_command(handler, cmd) {
            Ok(Extraction::Static(t)) if !t.is_empty() => Some((cmd, t)),
            _ => None,
        })
        .expect("radeon has statically-extractable commands");
    let arg = 0x4000_0000u64;
    let granted: Vec<ResolvedOp> = templates
        .iter()
        .map(|t| ResolvedOp {
            kind: t.kind,
            addr: t.addr.resolve(arg),
            len: t.len,
        })
        .collect();

    // A faithful run is clean…
    let faithful = ObservedIoctl {
        cmd,
        arg,
        granted: granted.clone(),
        executed: granted.clone(),
    };
    let mut diags = Vec::new();
    check_replay(name, handler, &[faithful], &mut diags);
    assert!(diags.is_empty(), "faithful replay flagged: {diags:#?}");

    // …and the same run with one smuggled-in write is not.
    let mut executed = granted.clone();
    executed.push(ResolvedOp {
        kind: OpKind::CopyToUser,
        addr: 0x9000_0000,
        len: 64,
    });
    let tampered = ObservedIoctl {
        cmd,
        arg,
        granted,
        executed,
    };
    let mut diags = Vec::new();
    check_replay(name, handler, &[tampered], &mut diags);
    let cf001: Vec<_> = diags.iter().filter(|d| d.code == DiagCode::Cf001).collect();
    assert_eq!(cf001.len(), 1, "got: {diags:#?}");
    assert_eq!(cf001[0].severity, Severity::Error);
    assert!(cf001[0].message.contains("0x90000000"));
}

/// An `AuditLog` round-trips through its text export into `CF004` findings.
#[test]
fn audit_log_export_replays_to_cf004() {
    let mut log = AuditLog::new();
    log.record(
        1_000,
        AuditEvent::UngrantedMemOp {
            caller: VmId(1),
            target: VmId(2),
            grant: None,
            description: "copy_to_guest 64B at 0x9000".to_owned(),
        },
    );
    log.record(2_000, AuditEvent::ProtectedMmioWrite { offset: 0x44 });

    let entries = parse_audit_text(&log.export_text());
    assert_eq!(entries.len(), 2);
    let mut diags = Vec::new();
    check_audit("radeon-3.2.0", &entries, &mut diags);
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.code == DiagCode::Cf004));
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    assert!(diags[0].message.contains("ungranted_mem_op"));
    assert!(diags[1].message.contains("protected_mmio_write"));
}

/// Full circle: run the attack suite against a live isolated machine, take
/// the hypervisor's *actual* audit log, export it, and replay it through
/// the conformance pass — every blocked attack must surface as `CF004`.
#[test]
fn attack_suite_audit_log_fails_conformance() {
    let mut m = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: true,
        })
        .guest(GuestSpec::linux())
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .device(DeviceSpec::Mouse)
        .build()
        .expect("isolated machine builds");
    let outcomes = attack::run_all(&mut m);
    assert!(!outcomes.is_empty());

    let text = m.hv().borrow().audit().export_text();
    let entries = parse_audit_text(&text);
    assert!(
        !entries.is_empty(),
        "attack suite produced an empty audit log"
    );
    let mut diags = Vec::new();
    check_audit("attack-run", &entries, &mut diags);
    assert_eq!(diags.len(), entries.len());
    assert!(has_errors(&diags), "blocked attacks must be error-class");
    // The grant-table bypass attack specifically shows up as an ungranted
    // memory operation in the export.
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("ungranted_mem_op")),
        "no ungranted_mem_op in:\n{text}"
    );
}
