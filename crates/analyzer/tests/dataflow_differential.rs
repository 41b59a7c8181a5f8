//! Differential gate: the flow-sensitive double-fetch pass must dominate
//! the syntactic walker it replaced.
//!
//! That walker's findings are frozen in
//! `tests/fixtures/syntactic_double_fetch.expected` (three lines, all on the
//! seeded fixture handler). Each must be covered by the flow engine: either
//! the same code fires on the same command, or the flow pass *upgraded* the
//! syntactic `DF002` to a `DF001` there — strictly more precise, never
//! quieter. The cross-helper fixture then pins the strict part: the flow
//! pass reports a `DF001` where the syntactic walker, which classified at
//! fetch time, could only say `DF002`.

use paradice_analyzer::lint::double_fetch::{analyze_flow, check};
use paradice_analyzer::lint::{fixtures, DiagCode, Diagnostic};

/// The frozen `(driver, command, code)` findings of the syntactic walker.
fn frozen() -> Vec<(String, u32, String)> {
    include_str!("../../../tests/fixtures/syntactic_double_fetch.expected")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let cmd = u32::from_str_radix(fields[1].trim_start_matches("0x"), 16).unwrap();
            (fields[0].to_owned(), cmd, fields[2].to_owned())
        })
        .collect()
}

fn flow_findings(cmd: u32) -> Vec<Diagnostic> {
    let mut flow = Vec::new();
    check(
        fixtures::FIXTURE_DRIVER,
        cmd,
        &fixtures::buggy_handler(),
        &mut flow,
    );
    flow
}

#[test]
fn flow_pass_covers_every_syntactic_finding_on_the_fixtures() {
    let frozen = frozen();
    assert_eq!(frozen.len(), 3);
    for (driver, cmd, code) in frozen {
        assert_eq!(driver, fixtures::FIXTURE_DRIVER);
        let flow = flow_findings(cmd);
        let covered = flow.iter().any(|new| {
            new.code.as_str() == code
                // An upgrade covers: DF001 subsumes DF002 at the same
                // command.
                || (code == "DF002" && new.code == DiagCode::Df001)
        });
        assert!(
            covered,
            "flow pass lost the syntactic {code} on cmd {cmd:#010x}; flow findings:\n{}",
            flow.iter()
                .map(|d| d.render())
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

#[test]
fn flow_pass_is_strictly_stronger_on_the_cross_helper_fixture() {
    let cmd = fixtures::FIX_XHELPER_DF.raw();
    let syntactic: Vec<String> = frozen()
        .into_iter()
        .filter(|(_, frozen_cmd, _)| *frozen_cmd == cmd)
        .map(|(_, _, code)| code)
        .collect();
    assert_eq!(
        syntactic,
        ["DF002"],
        "the syntactic walker saw only the overlap"
    );

    let flow = flow_findings(cmd);
    let df001: Vec<&Diagnostic> = flow.iter().filter(|d| d.code == DiagCode::Df001).collect();
    assert_eq!(df001.len(), 1, "{flow:?}");
    // The finding anchors inside the helper, where the re-fetch lives.
    assert_eq!(df001[0].site.as_deref(), Some("xh_refetch#0"));
}

#[test]
fn fixed_twins_are_clean_under_both_passes() {
    let handler = fixtures::buggy_handler();
    let frozen = frozen();
    for cmd in [
        fixtures::FIX_XHELPER_DF_FIXED.raw(),
        fixtures::FIX_OVERFLOW_LEN_FIXED.raw(),
    ] {
        assert!(
            frozen.iter().all(|(_, frozen_cmd, _)| *frozen_cmd != cmd),
            "cmd {cmd:#010x}"
        );
        let run = analyze_flow(&handler, Some(cmd));
        assert!(
            run.findings.is_empty(),
            "cmd {cmd:#010x}: {:?}",
            run.findings
        );
    }
}

#[test]
fn flow_run_reports_solver_work() {
    // The stats the CLI surfaces must be grounded: a multi-function command
    // lowers several CFGs and the fixpoint visits blocks more than once.
    let handler = fixtures::buggy_handler();
    let run = analyze_flow(&handler, Some(fixtures::FIX_XHELPER_DF.raw()));
    assert!(run.blocks >= 3, "blocks = {}", run.blocks);
    assert!(
        run.iterations >= run.blocks,
        "iterations = {}",
        run.iterations
    );
}
