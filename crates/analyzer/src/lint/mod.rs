//! Static lint suite over driver-handler IR (`paradice-lint`).
//!
//! The extractor answers "*what* memory operations will this command
//! perform?"; the lint suite answers "*should it*?". Each pass walks the
//! same specialized slices the extractor produces and reports
//! [`Diagnostic`]s with stable codes:
//!
//! | Code | Severity | Pass | Meaning |
//! |---|---|---|---|
//! | `DF001` | error | [`double_fetch`] | re-fetch of an already-consumed user region (TOCTOU) |
//! | `DF002` | warning | [`double_fetch`] | overlapping re-fetch, nothing consumed between |
//! | `OG001` | error | [`over_grant`] | declared envelope provably wider than handler operations |
//! | `OG002` | error | [`over_grant`] | declared copy direction never performed |
//! | `OG003` | warning | [`over_grant`] | concrete access outside the declared envelope |
//! | `SH001` | warning | [`loops`] | constant trip count above the unroll limit |
//! | `SH002` | warning | [`loops`] | opaque trip count |
//! | `SH003` | error | orchestrator | recursion reaches the call-depth limit |
//! | `SH004` | warning | [`dispatch`] | dead/duplicate `switch (cmd)` arm |
//! | `SH005` | warning | [`dispatch`] | nested-copy chain deeper than the limit |
//! | `SH006` | error | orchestrator | call to an unknown helper function |
//! | `CF001` | error | [`conformance`] | executed operation outside every grant |
//! | `CF002` | warning | [`conformance`] | runtime grants far wider than needed / unjustified |
//! | `CF003` | error | [`conformance`] | runtime command unknown to the handler IR |
//! | `CF004` | error | [`conformance`] | hypervisor audit log records a blocked operation |
//! | `TA001` | error | [`taint`] | user-controlled copy length through arithmetic, no dominating bounds check |
//! | `TA002` | warning | [`taint`] | raw user-controlled copy length, no dominating bounds check |
//! | `WP001` | error | [`wire`] | wire-protocol decode re-reads a shared-page region |
//! | `RP001` | error | [`replay`] | recorded memory operation outside the declared grants, or hypervisor-rejected |
//! | `RP002` | error | [`replay`] | structurally malformed trace (orphan/duplicate span events) |
//! | `RP003` | warning | [`replay`] | span never ended; recording stopped mid-operation |
//! | `RP004` | warning | `--replay` caller | traced device has no handler IR for the envelope check |
//! | `RP005` | error | [`replay`] | memory operation recorded after its driver VM was marked dead (containment breach) |
//! | `RP006` | error | [`replay`] | span whose wire bytes were tampered in flight completed successfully |
//! | `VP001` | error | `paradice-verify` | grant-table property disproved (soundness/completeness/batch counterexample) |
//! | `VP002` | error | `paradice-verify` | ring-index property disproved (window/aliasing/doorbell counterexample) |
//! | `VP003` | error | `paradice-verify` | wire-codec property disproved (round-trip/single-read counterexample) |
//! | `VP004` | error | `paradice-verify` | model/code drift: checker model and real implementation disagree |
//! | `VP005` | error | `paradice-verify` | interleaving property disproved (torn read / lost wakeup / freed-snapshot counterexample) |
//! | `MO001` | error | [`race`](crate::race) | publication-class store (publish/recycle) weaker than `Release` |
//! | `MO002` | error | [`race`](crate::race) | consumption gate load weaker than `Acquire` |
//! | `MO003` | error | [`race`](crate::race) | publishing site with no acquire-or-stronger load on any consumer path |
//! | `MO004` | error | [`race`](crate::race) | last write before a doorbell ring weaker than `Release` |
//! | `MO005` | error | [`race`](crate::race) | Dekker-style gate access weaker than `SeqCst` (lost-wakeup shape) |
//! | `MO006` | warning | [`race`](crate::race) | `SeqCst` on a non-gate edge (needless full fence on a hot path) |
//! | `RC001` | error | [`race`](crate::race) | atomic-site roles mixed (edge inconsistent with declared role, or duplicate site) |
//! | `RC002` | error | [`race`](crate::race) | group with payload accesses but no release/acquire publication pair |
//! | `RC003` | error | [`race`](crate::race) | access kind inconsistent with its protocol edge (e.g. non-RMW reservation) |
//!
//! Shipped drivers whose ABI genuinely deviates (e.g. a Linux `_IOWR`
//! command whose scaled driver only uses one direction) carry
//! [`AllowEntry`]s: the finding still appears, downgraded to
//! [`Severity::Info`] with the recorded justification — allowlisting is
//! documentation, not suppression.

pub mod conformance;
pub mod dispatch;
pub mod double_fetch;
pub mod envelope;
pub mod fixtures;
pub mod loops;
pub mod over_grant;
pub mod replay;
pub mod taint;
pub mod wire;

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

use paradice_trace::json_escape;

use crate::extract::{specialize_command, ExtractionError};
use crate::ir::Handler;
use crate::lint::envelope::Envelope;

/// How bad a finding is. `Error`-class findings fail `paradice-lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational (allowlisted findings land here).
    Info,
    /// Suspicious but not exploitable on its own.
    Warning,
    /// An isolation or correctness bug.
    Error,
}

impl Severity {
    /// Lowercase name, as rendered in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. See the module docs for the full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the code table lives in the module docs
pub enum DiagCode {
    Df001,
    Df002,
    Og001,
    Og002,
    Og003,
    Sh001,
    Sh002,
    Sh003,
    Sh004,
    Sh005,
    Sh006,
    Cf001,
    Cf002,
    Cf003,
    Cf004,
    Rp001,
    Rp002,
    Rp003,
    Rp004,
    Rp005,
    Rp006,
    Ta001,
    Ta002,
    Wp001,
    Vp001,
    Vp002,
    Vp003,
    Vp004,
    Vp005,
    Mo001,
    Mo002,
    Mo003,
    Mo004,
    Mo005,
    Mo006,
    Rc001,
    Rc002,
    Rc003,
}

impl DiagCode {
    /// The canonical code string (`"DF001"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::Df001 => "DF001",
            DiagCode::Df002 => "DF002",
            DiagCode::Og001 => "OG001",
            DiagCode::Og002 => "OG002",
            DiagCode::Og003 => "OG003",
            DiagCode::Sh001 => "SH001",
            DiagCode::Sh002 => "SH002",
            DiagCode::Sh003 => "SH003",
            DiagCode::Sh004 => "SH004",
            DiagCode::Sh005 => "SH005",
            DiagCode::Sh006 => "SH006",
            DiagCode::Cf001 => "CF001",
            DiagCode::Cf002 => "CF002",
            DiagCode::Cf003 => "CF003",
            DiagCode::Cf004 => "CF004",
            DiagCode::Rp001 => "RP001",
            DiagCode::Rp002 => "RP002",
            DiagCode::Rp003 => "RP003",
            DiagCode::Rp004 => "RP004",
            DiagCode::Rp005 => "RP005",
            DiagCode::Rp006 => "RP006",
            DiagCode::Ta001 => "TA001",
            DiagCode::Ta002 => "TA002",
            DiagCode::Wp001 => "WP001",
            DiagCode::Vp001 => "VP001",
            DiagCode::Vp002 => "VP002",
            DiagCode::Vp003 => "VP003",
            DiagCode::Vp004 => "VP004",
            DiagCode::Vp005 => "VP005",
            DiagCode::Mo001 => "MO001",
            DiagCode::Mo002 => "MO002",
            DiagCode::Mo003 => "MO003",
            DiagCode::Mo004 => "MO004",
            DiagCode::Mo005 => "MO005",
            DiagCode::Mo006 => "MO006",
            DiagCode::Rc001 => "RC001",
            DiagCode::Rc002 => "RC002",
            DiagCode::Rc003 => "RC003",
        }
    }

    /// The code's intrinsic severity (before allowlisting).
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::Df001
            | DiagCode::Og001
            | DiagCode::Og002
            | DiagCode::Sh003
            | DiagCode::Sh006
            | DiagCode::Cf001
            | DiagCode::Cf003
            | DiagCode::Cf004
            | DiagCode::Rp001
            | DiagCode::Rp002
            | DiagCode::Rp005
            | DiagCode::Rp006
            | DiagCode::Ta001
            | DiagCode::Wp001
            | DiagCode::Vp001
            | DiagCode::Vp002
            | DiagCode::Vp003
            | DiagCode::Vp004
            | DiagCode::Vp005
            | DiagCode::Mo001
            | DiagCode::Mo002
            | DiagCode::Mo003
            | DiagCode::Mo004
            | DiagCode::Mo005
            | DiagCode::Rc001
            | DiagCode::Rc002
            | DiagCode::Rc003 => Severity::Error,
            DiagCode::Df002
            | DiagCode::Mo006
            | DiagCode::Og003
            | DiagCode::Sh001
            | DiagCode::Sh002
            | DiagCode::Sh004
            | DiagCode::Sh005
            | DiagCode::Cf002
            | DiagCode::Rp003
            | DiagCode::Rp004
            | DiagCode::Ta002 => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Effective severity (downgraded to `Info` when allowlisted).
    pub severity: Severity,
    /// The driver the handler belongs to.
    pub driver: String,
    /// The ioctl command, when the finding is command-scoped.
    pub command: Option<u32>,
    /// Human-readable explanation.
    pub message: String,
    /// Program point the finding anchors to (`"function#site"`), when the
    /// reporting pass is flow-sensitive and knows one.
    pub site: Option<String>,
    /// Whether an [`AllowEntry`] matched this finding.
    pub allowlisted: bool,
}

impl Diagnostic {
    /// Creates a finding with the code's intrinsic severity.
    pub fn new(
        code: DiagCode,
        driver: &str,
        command: Option<u32>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            driver: driver.to_owned(),
            command,
            message,
            site: None,
            allowlisted: false,
        }
    }

    /// Attaches a program-point site (builder style).
    pub fn with_site(mut self, site: impl Into<String>) -> Diagnostic {
        self.site = Some(site.into());
        self
    }

    /// One-line human-readable rendering.
    pub fn render(&self) -> String {
        let cmd = match self.command {
            Some(cmd) => format!(" cmd={cmd:#010x}"),
            None => String::new(),
        };
        let site = match &self.site {
            Some(site) => format!(" at {site}"),
            None => String::new(),
        };
        format!(
            "{}[{}] driver={}{}{}: {}",
            self.severity.as_str(),
            self.code,
            self.driver,
            cmd,
            site,
            self.message,
        )
    }

    /// JSON object rendering (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let cmd = match self.command {
            Some(cmd) => format!("\"{cmd:#010x}\""),
            None => "null".to_owned(),
        };
        let site = match &self.site {
            Some(site) => format!("\"{}\"", json_escape(site)),
            None => "null".to_owned(),
        };
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"driver\":\"{}\",\"command\":{},\
             \"site\":{},\"allowlisted\":{},\"message\":\"{}\"}}",
            self.code,
            self.severity.as_str(),
            json_escape(&self.driver),
            cmd,
            site,
            self.allowlisted,
            json_escape(&self.message),
        )
    }
}

/// A recorded justification for a known deviation in a shipped driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Driver name the entry applies to.
    pub driver: String,
    /// The code being allowlisted.
    pub code: DiagCode,
    /// Restrict to one command; `None` matches any.
    pub command: Option<u32>,
    /// Why the deviation is acceptable.
    pub reason: String,
}

impl AllowEntry {
    /// Convenience constructor.
    pub fn new(driver: &str, code: DiagCode, command: Option<u32>, reason: &str) -> AllowEntry {
        AllowEntry {
            driver: driver.to_owned(),
            code,
            command,
            reason: reason.to_owned(),
        }
    }

    fn matches(&self, diag: &Diagnostic) -> bool {
        self.driver == diag.driver
            && self.code == diag.code
            && (self.command.is_none() || self.command == diag.command)
    }
}

/// Downgrades allowlisted findings to [`Severity::Info`], appending the
/// recorded justification. The finding is kept — allowlisting documents a
/// deviation, it does not hide it.
pub fn apply_allowlist(diags: &mut [Diagnostic], allowlist: &[AllowEntry]) {
    for diag in diags.iter_mut() {
        if let Some(entry) = allowlist.iter().find(|entry| entry.matches(diag)) {
            diag.severity = Severity::Info;
            diag.allowlisted = true;
            diag.message.push_str(" [allowlisted: ");
            diag.message.push_str(&entry.reason);
            diag.message.push(']');
        }
    }
}

/// Whether any finding is still `Error`-class (after allowlisting).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Drops findings that duplicate an earlier one by `(code, driver,
/// command, site)`. Passes that carry no site key on the message instead,
/// so two genuinely different legacy findings are never merged.
///
/// The flow passes report per converged block state, so a helper shared by
/// several commands (or a pass pair like double-fetch and the wire lint
/// over the same IR) can surface the same program point more than once;
/// deduping centrally means every pass benefits without each one keeping
/// its own seen-set.
pub fn dedupe(diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<(DiagCode, String, Option<u32>, String)> = BTreeSet::new();
    diags.retain(|d| {
        let key = (
            d.code,
            d.driver.clone(),
            d.command,
            d.site.clone().unwrap_or_else(|| d.message.clone()),
        );
        seen.insert(key)
    });
}

/// Work counters for one lint pass, accumulated across handlers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Handlers the pass ran over.
    pub handlers: usize,
    /// Command specializations analyzed (0 for handler-at-once passes).
    pub commands: usize,
    /// CFG basic blocks visited (flow passes only).
    pub blocks: usize,
    /// Worklist fixpoint iterations (flow passes only).
    pub iterations: usize,
    /// Wall-clock time spent in the pass, nanoseconds.
    pub wall_ns: u128,
}

/// Per-pass statistics for a whole lint run, keyed by pass name.
#[derive(Debug, Clone, Default)]
pub struct LintStats {
    passes: BTreeMap<&'static str, PassStats>,
}

impl LintStats {
    /// The mutable accumulator for one pass, created on first use.
    pub fn pass_mut(&mut self, pass: &'static str) -> &mut PassStats {
        self.passes.entry(pass).or_default()
    }

    /// Iterates `(pass name, stats)` in name order.
    pub fn passes(&self) -> impl Iterator<Item = (&'static str, &PassStats)> {
        self.passes.iter().map(|(name, stats)| (*name, stats))
    }

    /// JSON object rendering, one member per pass.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .passes
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{}\":{{\"handlers\":{},\"commands\":{},\"blocks\":{},\
                     \"iterations\":{},\"wall_ns\":{}}}",
                    name, s.handlers, s.commands, s.blocks, s.iterations, s.wall_ns,
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// Runs one pass, charging its wall time and the `(blocks, iterations)`
/// it returns (zeros for passes that solve no dataflow) to `stats`.
fn timed(stats: &mut PassStats, pass: impl FnOnce() -> (usize, usize)) {
    let t0 = Instant::now();
    let (blocks, iterations) = pass();
    stats.blocks += blocks;
    stats.iterations += iterations;
    stats.wall_ns += t0.elapsed().as_nanos();
}

/// Runs every static pass over one handler and returns the deduped
/// findings, ordered by command.
pub fn lint_handler(driver: &str, handler: &Handler) -> Vec<Diagnostic> {
    lint_handler_with_stats(driver, handler, &mut LintStats::default())
}

/// [`lint_handler`] accumulating per-pass work counters into `stats`.
pub fn lint_handler_with_stats(
    driver: &str,
    handler: &Handler,
    stats: &mut LintStats,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for pass in ["dispatch", "double_fetch", "loops", "over_grant", "taint"] {
        stats.pass_mut(pass).handlers += 1;
    }
    timed(stats.pass_mut("dispatch"), || {
        dispatch::check_handler(driver, handler, &mut diags);
        (0, 0)
    });
    for cmd in handler.commands() {
        match specialize_command(handler, cmd) {
            Ok(slice) => {
                for pass in ["double_fetch", "loops", "over_grant", "taint"] {
                    stats.pass_mut(pass).commands += 1;
                }
                timed(stats.pass_mut("double_fetch"), || {
                    double_fetch::check(driver, cmd, handler, &mut diags)
                });
                timed(stats.pass_mut("taint"), || {
                    taint::check(driver, cmd, handler, &mut diags)
                });
                // One all-branches walk feeds both syntactic passes.
                let envelope = Envelope::of(cmd, &slice);
                timed(stats.pass_mut("over_grant"), || {
                    over_grant::check(driver, cmd, &envelope, &mut diags);
                    (0, 0)
                });
                timed(stats.pass_mut("loops"), || {
                    loops::check(driver, cmd, &envelope, &mut diags);
                    dispatch::check_chain_depth(driver, cmd, &slice, &mut diags);
                    (0, 0)
                });
            }
            Err(ExtractionError::CallDepthExceeded) => diags.push(Diagnostic::new(
                DiagCode::Sh003,
                driver,
                Some(cmd),
                "call inlining hit the depth limit; the handler recurses and its \
                 operations cannot be extracted"
                    .to_owned(),
            )),
            Err(ExtractionError::UnknownFunction { name }) => diags.push(Diagnostic::new(
                DiagCode::Sh006,
                driver,
                Some(cmd),
                format!("handler calls unknown function {name:?}; the IR is incomplete"),
            )),
        }
    }
    dedupe(&mut diags);
    diags
}

/// Renders a finding list as a JSON array.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Renders the full report object: findings plus per-pass stats.
pub fn report_json(diags: &[Diagnostic], stats: &LintStats) -> String {
    format!(
        "{{\"findings\":{},\"stats\":{}}}",
        to_json(diags),
        stats.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Expr, Stmt, VarId};

    fn clean_handler() -> Handler {
        Handler::single(vec![Stmt::SwitchCmd {
            arms: vec![(
                paradice_devfs::ioc::iowr(b'T', 1, 16).raw(),
                vec![
                    Stmt::CopyFromUser {
                        dst: VarId(0),
                        src: Expr::Arg,
                        len: Expr::Const(16),
                    },
                    Stmt::CopyToUser {
                        dst: Expr::Arg,
                        len: Expr::Const(16),
                    },
                ],
            )],
            default: vec![Stmt::Return],
        }])
    }

    #[test]
    fn clean_handler_has_no_findings() {
        assert!(lint_handler("clean", &clean_handler()).is_empty());
    }

    #[test]
    fn allowlist_downgrades_but_keeps() {
        let mut diags = lint_handler(fixtures::FIXTURE_DRIVER, &fixtures::buggy_handler());
        let errors_before = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        assert!(errors_before > 0);
        let allow = vec![AllowEntry::new(
            fixtures::FIXTURE_DRIVER,
            DiagCode::Og001,
            Some(fixtures::FIX_OVER_GRANT.raw()),
            "scaled fixture keeps the wide envelope on purpose",
        )];
        apply_allowlist(&mut diags, &allow);
        let downgraded: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.allowlisted).collect();
        assert_eq!(downgraded.len(), 2); // both directions of OG001
        assert!(downgraded.iter().all(|d| d.severity == Severity::Info));
        assert!(downgraded.iter().all(|d| d.message.contains("allowlisted")));
        assert!(has_errors(&diags)); // other seeded errors remain
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let diag = Diagnostic::new(
            DiagCode::Df001,
            "radeon \"test\"",
            Some(0xc0106466),
            "line1\nline2".to_owned(),
        );
        let json = diag.to_json();
        assert!(json.contains("\"code\":\"DF001\""));
        assert!(json.contains("\\\"test\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"command\":\"0xc0106466\""));
        let arr = to_json(&[diag.clone(), diag]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("DF001").count(), 2);
    }

    #[test]
    fn severity_ordering_supports_max() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn dedupe_keys_on_site_when_present() {
        let base = Diagnostic::new(DiagCode::Df001, "d", Some(1), "msg a".to_owned());
        let mut diags = vec![
            base.clone().with_site("helper#2"),
            // Different message, same site: duplicate.
            Diagnostic::new(DiagCode::Df001, "d", Some(1), "msg b".to_owned())
                .with_site("helper#2"),
            // Same everything but a different site: kept.
            base.clone().with_site("helper#4"),
            // No site at all: keyed on message, kept.
            base.clone(),
            // Exact siteless duplicate: dropped.
            Diagnostic::new(DiagCode::Df001, "d", Some(1), "msg a".to_owned()),
            // Same site, different command: kept.
            Diagnostic::new(DiagCode::Df001, "d", Some(2), "msg a".to_owned())
                .with_site("helper#2"),
        ];
        dedupe(&mut diags);
        assert_eq!(diags.len(), 4, "{diags:?}");
    }

    #[test]
    fn stats_accumulate_and_render() {
        let mut stats = LintStats::default();
        let diags =
            lint_handler_with_stats(fixtures::FIXTURE_DRIVER, &fixtures::buggy_handler(), &mut stats);
        assert!(!diags.is_empty());
        let df = stats.passes().find(|(name, _)| *name == "double_fetch");
        let (_, df) = df.expect("double_fetch stats present");
        assert_eq!(df.handlers, 1);
        assert!(df.commands > 0);
        assert!(df.blocks > 0);
        assert!(df.iterations > 0);
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"taint\":{"));
        assert!(json.contains("\"wall_ns\":"));
        let report = report_json(&diags, &stats);
        assert!(report.contains("\"findings\":["));
        assert!(report.contains("\"stats\":{"));
    }

    #[test]
    fn render_mentions_code_and_driver() {
        let diag = Diagnostic::new(DiagCode::Og002, "camera-uvc", Some(8), "msg".to_owned());
        let line = diag.render();
        assert!(line.starts_with("error[OG002]"));
        assert!(line.contains("driver=camera-uvc"));
    }
}
