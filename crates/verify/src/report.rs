//! Property reports, seeded mutants, and the `--json` rendering.

use paradice_analyzer::lint::Diagnostic;
use paradice_trace::json_escape;

use crate::fixture::Fixture;

/// A seeded bug the checker must be able to disprove — the checker's own
/// regression suite. `paradice-verify --mutant NAME` perturbs the named
/// model (or swaps in a known-bad implementation) and must exit nonzero;
/// a mutant run that proves everything means the checker went blind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// Ring admission window admits `depth + 1` outstanding slots.
    RingWindowOffByOne,
    /// Grant coverage model requires `end < grant_end` (strict) — the
    /// exact-fit request at the grant boundary flips verdict.
    GrantCoverOffByOne,
    /// Cache eviction revokes the displaced ref even while it is attached
    /// to an in-flight pipelined op (the pre-fix frontend behavior).
    CacheEvictInflight,
    /// Containment/recovery paths skip the cache purge, leaving stale refs
    /// observable after the driver VM's grant table died.
    CacheSkipPurge,
    /// `set_fastpath(false)` purges-with-revoke without draining the
    /// pipeline first (the pre-fix frontend behavior).
    FastpathOffNoDrain,
    /// The wire-request decoder re-reads the path length word after
    /// validating it (the classic TOCTOU the WP001 lint exists for).
    CodecDoubleRead,
    /// The decode IR's layout constants drift from the real decoder.
    CodecIrDrift,
    /// Grant enforcement accepts every memory operation — the backend
    /// that "forgets" the grant hypercall check. The adversarial
    /// containment sweep must catch the first moved buffer.
    GrantBypass,
    /// The atomic ring's slot-sequence publication store downgraded
    /// `Release → Relaxed`: the payload store may drain after it, and a
    /// consumer that passes the gate reads a torn slot.
    AringPublishRelaxed,
    /// The consumer's slot-sequence gate load downgraded
    /// `Acquire → Relaxed`: the payload read behind the gate may be
    /// hoisted before it and satisfied with stale data.
    AringConsumeNoAcquire,
    /// The doorbell consumer checks the bell *before* announcing itself
    /// parked instead of after: a ring landing between the check and the
    /// announcement is missed and the consumer sleeps on published work.
    DoorbellCheckBeforePublish,
    /// The sharded grant table's writer recycles retired declarations
    /// without waiting for `in_flight == 0`: a reader between its slot
    /// load and its reference compare dereferences a box the next declare
    /// rewrites.
    ShardRetireUnfenced,
    /// The frontend's JIT evaluator skips the snapshot overlay: a second
    /// fetch of bytes that already fed grant derivation believes whatever
    /// the process has put there since.
    JitRefetchUnsnapshotted,
    /// The ready-ring producer publishes a guest's id *before* pushing the
    /// frame it announces: a consumer that takes the id finds the guest's
    /// ring empty and drops the claim, and the frame is never served.
    ReadyPublishBeforeFrame,
    /// The ready-ring producer publishes a guest's id right after the
    /// first chunk of a frame that takes several request slots, before its
    /// last: a consumer that takes the id finds a chunk missing, answers
    /// `EINVAL`, and the frame is never served.
    ReadyPublishBeforeLastChunk,
    /// Grant-page lookup trusts a reference's home slot without comparing
    /// the reference it holds: once `r` is revoked and `r + CAP` declared
    /// into the same slot, the stale `r` validates against the new
    /// declaration.
    GrantPageSkipRefCompare,
    /// The grant sequence issues its next number without checking that
    /// number's home slot: with `r` live and 127 refs spent, `r + CAP` is
    /// published over `r`'s declaration, and `r` stops validating.
    GrantIssueIntoOccupiedHome,
    /// The frontend's JIT scratch is not cleared between runs of a
    /// compiled program: a pin left by one op answers for the next op's
    /// fetch of the same bytes, whatever the process has put there since.
    JitScratchKeepsPins,
    /// The doorbell producer reads the ring's `is_empty()` before each
    /// push and rings only when it said empty: a second publication made
    /// while the consumer is draining the first is never rung for, and the
    /// consumer parks on it.
    DoorbellCoalesceOnStaleEmpty,
}

impl Mutant {
    /// Every seeded mutant, for `--list` and the check.sh gate.
    pub const ALL: [Mutant; 19] = [
        Mutant::RingWindowOffByOne,
        Mutant::GrantCoverOffByOne,
        Mutant::CacheEvictInflight,
        Mutant::CacheSkipPurge,
        Mutant::FastpathOffNoDrain,
        Mutant::CodecDoubleRead,
        Mutant::CodecIrDrift,
        Mutant::GrantBypass,
        Mutant::AringPublishRelaxed,
        Mutant::AringConsumeNoAcquire,
        Mutant::DoorbellCheckBeforePublish,
        Mutant::ShardRetireUnfenced,
        Mutant::JitRefetchUnsnapshotted,
        Mutant::ReadyPublishBeforeFrame,
        Mutant::GrantPageSkipRefCompare,
        Mutant::GrantIssueIntoOccupiedHome,
        Mutant::JitScratchKeepsPins,
        Mutant::DoorbellCoalesceOnStaleEmpty,
        Mutant::ReadyPublishBeforeLastChunk,
    ];

    /// The CLI/fixture name.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::RingWindowOffByOne => "ring-window-off-by-one",
            Mutant::GrantCoverOffByOne => "grant-cover-off-by-one",
            Mutant::CacheEvictInflight => "cache-evict-inflight",
            Mutant::CacheSkipPurge => "cache-skip-purge",
            Mutant::FastpathOffNoDrain => "fastpath-off-no-drain",
            Mutant::CodecDoubleRead => "codec-double-read",
            Mutant::CodecIrDrift => "codec-ir-drift",
            Mutant::GrantBypass => "grant-bypass",
            Mutant::AringPublishRelaxed => "aring-publish-relaxed",
            Mutant::AringConsumeNoAcquire => "aring-consume-no-acquire",
            Mutant::DoorbellCheckBeforePublish => "doorbell-check-before-publish",
            Mutant::ShardRetireUnfenced => "shard-retire-unfenced",
            Mutant::JitRefetchUnsnapshotted => "jit-refetch-unsnapshotted",
            Mutant::ReadyPublishBeforeFrame => "ready-publish-before-frame",
            Mutant::GrantPageSkipRefCompare => "grant-page-skip-ref-compare",
            Mutant::GrantIssueIntoOccupiedHome => "grant-issue-into-occupied-home",
            Mutant::JitScratchKeepsPins => "jit-scratch-keeps-pins",
            Mutant::DoorbellCoalesceOnStaleEmpty => "doorbell-coalesce-on-stale-empty",
            Mutant::ReadyPublishBeforeLastChunk => "ready-publish-before-last-chunk",
        }
    }

    /// Parses a CLI/fixture name.
    pub fn from_name(name: &str) -> Option<Mutant> {
        Mutant::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// The outcome of checking one property.
#[derive(Debug)]
pub struct PropertyReport {
    /// Stable property name (`--prop` argument).
    pub name: &'static str,
    /// One-line statement of what was checked.
    pub description: &'static str,
    /// Distinct states (transition systems) or cases (enumerations)
    /// examined.
    pub states: usize,
    /// Transitions taken or sub-checks performed.
    pub transitions: usize,
    /// Whether the property held on the *entire* explored space within its
    /// documented bounds.
    pub proved: bool,
    /// `VP00x` findings when disproved (empty when proved).
    pub findings: Vec<Diagnostic>,
    /// The replayable counterexample when disproved.
    pub counterexample: Option<Fixture>,
    /// Wall-clock milliseconds, filled by the runner.
    pub duration_ms: u128,
}

impl PropertyReport {
    /// A proved report with the given exploration stats.
    pub fn proved(
        name: &'static str,
        description: &'static str,
        states: usize,
        transitions: usize,
    ) -> PropertyReport {
        PropertyReport {
            name,
            description,
            states,
            transitions,
            proved: true,
            findings: Vec::new(),
            counterexample: None,
            duration_ms: 0,
        }
    }

    /// A disproved report carrying findings and the counterexample.
    pub fn disproved(
        name: &'static str,
        description: &'static str,
        states: usize,
        transitions: usize,
        findings: Vec<Diagnostic>,
        counterexample: Option<Fixture>,
    ) -> PropertyReport {
        PropertyReport {
            name,
            description,
            states,
            transitions,
            proved: false,
            findings,
            counterexample,
            duration_ms: 0,
        }
    }
}

/// Renders the `--json` report: per-property stats plus the overall verdict.
pub fn to_json(reports: &[PropertyReport], mutant: Option<Mutant>) -> String {
    let mut out = String::from("{\"properties\":[");
    for (index, report) in reports.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let findings = report
            .findings
            .iter()
            .map(Diagnostic::to_json)
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"description\":\"{}\",\"proved\":{},\
             \"states\":{},\"transitions\":{},\"duration_ms\":{},\"findings\":[{}]}}",
            json_escape(report.name),
            json_escape(report.description),
            report.proved,
            report.states,
            report.transitions,
            report.duration_ms,
            findings,
        ));
    }
    let mutant = match mutant {
        Some(m) => format!("\"{}\"", m.name()),
        None => "null".to_owned(),
    };
    out.push_str(&format!(
        "],\"mutant\":{},\"proved_all\":{}}}",
        mutant,
        reports.iter().all(|r| r.proved),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutant_names_roundtrip() {
        for mutant in Mutant::ALL {
            assert_eq!(Mutant::from_name(mutant.name()), Some(mutant));
        }
        assert_eq!(Mutant::from_name("no-such-mutant"), None);
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let reports = vec![
            PropertyReport::proved("ring-depth1", "ring window at depth 1", 10, 20),
            PropertyReport::disproved(
                "grant-soundness",
                "grant coverage",
                5,
                6,
                Vec::new(),
                None,
            ),
        ];
        let json = to_json(&reports, Some(Mutant::GrantCoverOffByOne));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"proved_all\":false"));
        assert!(json.contains("\"mutant\":\"grant-cover-off-by-one\""));
        assert!(json.contains("\"states\":10"));
        let clean = to_json(&reports[..1], None);
        assert!(clean.contains("\"proved_all\":true"));
        assert!(clean.contains("\"mutant\":null"));
    }
}
