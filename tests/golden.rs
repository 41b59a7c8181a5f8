//! Byte-for-byte pins of the analyzer's two user-visible outputs.
//!
//! * `tests/fixtures/extraction.golden`: `extract_command` for every command
//!   of every shipped handler and of the seeded fixture handler, one line
//!   per command (`driver command verdict`).
//! * `tests/fixtures/paradice-lint.golden` and
//!   `paradice-lint-fixtures.golden`: the text output of `paradice-lint`
//!   and `paradice-lint --fixtures` (code, severity, driver, command, site
//!   and message of every finding, then the summary line). The text form
//!   carries no wall time, unlike the `--json` stats.
//!
//! A refactor of the analyzer must leave both unchanged. A deliberate
//! change rewrites the golden file in the same commit and says why.

use std::path::PathBuf;
use std::process::Command;

use paradice_analyzer::extract_command;
use paradice_analyzer::lint::fixtures;
use paradice_drivers::all_handlers;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Panics at the first line where `actual` departs from the golden file.
fn assert_matches_golden(name: &str, actual: &str) {
    let expected = golden(name);
    if actual == expected {
        return;
    }
    let (mut exp_lines, mut act_lines) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (exp_lines.next(), act_lines.next()) {
            (Some(e), Some(a)) if e == a => continue,
            (e, a) => panic!(
                "{name} departs at line {line}:\n  golden: {}\n  actual: {}",
                e.unwrap_or("<end of file>"),
                a.unwrap_or("<end of output>"),
            ),
        }
    }
}

#[test]
fn every_commands_extraction_matches_the_golden_rendering() {
    let fixture = fixtures::buggy_handler();
    let mut handlers = all_handlers();
    handlers.push((fixtures::FIXTURE_DRIVER, &fixture));
    let mut rendered = String::new();
    for (name, handler) in handlers {
        for cmd in handler.commands() {
            let extraction = extract_command(handler, cmd);
            rendered.push_str(&format!("{name} {cmd:#010x} {extraction:?}\n"));
        }
    }
    assert_matches_golden("extraction.golden", &rendered);
}

#[test]
fn paradice_lint_findings_match_the_golden_rendering() {
    for (args, name, exit) in [
        (&[][..], "paradice-lint.golden", 0),
        (&["--fixtures"][..], "paradice-lint-fixtures.golden", 1),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_paradice-lint"))
            .args(args)
            .output()
            .expect("paradice-lint runs");
        assert_eq!(out.status.code(), Some(exit), "paradice-lint {args:?}");
        assert_matches_golden(name, &String::from_utf8(out.stdout).expect("utf-8 output"));
    }
}
