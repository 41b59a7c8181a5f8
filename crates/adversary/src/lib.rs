//! `paradice-adversary`: the generative adversary that plays a malicious
//! driver VM *and* a malicious guest against the real stack.
//!
//! The paper's threat model (§4) assumes the driver VM is compromised and
//! the guest is hostile; the repo's isolation core is model-checked
//! (`crates/verify`) and attack-tested (`paradice::attack`), but both of
//! those enumerate *known* attack shapes. This crate generates them: a
//! seeded mutation engine over encoded [`WireRequest`] bytes, grant-ref
//! replay/forgery against the live hypervisor, shared-page probing of the
//! WP001 single-read decode discipline, slot and control-word corruption
//! of the one ring kernel, [`AtomicRing`] (behind the virtual depth-8
//! channel's fault hooks, and shared lock-free on the wall engine), and
//! hypercall/doorbell floods.
//!
//! Campaigns run on **both** substrates — [`EngineKind::Virtual`] (the
//! deterministic oracle) and [`EngineKind::Wall`] (real threads) — with
//! one invariant checked after every step:
//!
//! > every adversarial input ends in *correct containment* (rejected at
//! > decode, refused by grant validation, surfaced as backpressure or a
//! > malformed-frame error) or *correct service* (the mutation left the
//! > request legitimate and it was served faithfully) — never a silent
//! > grant bypass, a lost ring slot, or a hung frontend.
//!
//! Findings are delta-minimized ([`wire::minimize`]) and emitted as
//! `adversary-containment` fixtures through `crates/verify`'s
//! counterexample bridge, so every fuzz find becomes a permanent
//! regression test in `tests/verify_fixtures.rs`. The seeded
//! [`grant-bypass`](CampaignConfig::bypass) mutant re-runs the same
//! campaigns against enforcement that accepts everything; the campaign
//! *must* then report breaches, or the adversary has gone blind.
//!
//! [`WireRequest`]: paradice_cvd::proto::WireRequest
//! [`AtomicRing`]: paradice_hypervisor::AtomicRing

pub mod flood;
pub mod grants;
pub mod race;
pub mod ring;
pub mod wire;

use paradice_cvd::proto::{WireRequest, WireResponse};
use paradice_cvd::{build_multi, MultiEngine, SchedPolicy};
use paradice_hypervisor::MemOpRequest;

pub use paradice_hypervisor::EngineKind;
pub use wire::MinimizedFind;

/// The guest the wire and flood families attack as: guest 1 of a 2-guest
/// engine, so its grant references carry non-zero guest bits and a forged
/// ref can name a real (idle) neighbour's shard.
pub(crate) const ATTACKER: u32 = 1;

/// A 2-guest engine on `kind` serving `service`; the attacker drives
/// guest [`ATTACKER`], guest 0 stays idle.
pub(crate) fn attacker_engine(
    kind: EngineKind,
    service: fn(&WireRequest) -> (WireResponse, Vec<MemOpRequest>),
) -> Box<dyn MultiEngine> {
    build_multi(kind, service, 2, SchedPolicy::FairShare)
}

/// Pulls exactly one of the attacker's responses out of the engine,
/// surfacing hangs and lost slots as errors instead of blocking forever
/// (both substrates refuse to block with nothing in flight).
pub(crate) fn receive(exec: &mut dyn MultiEngine) -> Result<Vec<u8>, String> {
    exec.complete_blocking()
        .map(|(_, frame)| frame)
        .map_err(|e| format!("submitted frame never came back: {e}"))
}

/// The five attack families the adversary generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackFamily {
    /// Seeded mutations of encoded wire requests: bit flips, field
    /// tampering (length/enum/offset/grant-ref), truncations, trailing
    /// bytes — submitted raw through the [`MultiEngine`] byte seam.
    WireMutation,
    /// Grant-ref attacks against the live hypervisor: forged refs,
    /// replays after revocation, cross-guest refs, refs surviving
    /// `recover_driver_vm`, and window-overflow replays.
    GrantReplay,
    /// Shared-page re-write races: the WP001 single-read discipline,
    /// checked by running the real decoders under a counting probe on
    /// adversarial frames.
    SharedPageRace,
    /// Ring corruption: scrambled/truncated/dropped shared-page slots on
    /// the virtual ring, sequence/length word corruption on the atomic
    /// ring.
    RingCorruption,
    /// Floods: request bursts past the ring depth, malformed-frame
    /// floods, doorbell storms, hypercall storms.
    Flood,
}

impl AttackFamily {
    /// Every family, in campaign order.
    pub const ALL: [AttackFamily; 5] = [
        AttackFamily::WireMutation,
        AttackFamily::GrantReplay,
        AttackFamily::SharedPageRace,
        AttackFamily::RingCorruption,
        AttackFamily::Flood,
    ];

    /// Stable name (report keys, fixture lines).
    pub fn name(self) -> &'static str {
        match self {
            AttackFamily::WireMutation => "wire-mutation",
            AttackFamily::GrantReplay => "grant-replay",
            AttackFamily::SharedPageRace => "shared-page-race",
            AttackFamily::RingCorruption => "ring-corruption",
            AttackFamily::Flood => "flood",
        }
    }
}

/// Aggregated verdicts for one family on one substrate — one cell of the
/// containment matrix.
#[derive(Debug)]
pub struct FamilyOutcome {
    /// Which attack family ran.
    pub family: AttackFamily,
    /// Which substrate it ran on.
    pub engine: EngineKind,
    /// Adversarial steps taken.
    pub attempted: u64,
    /// Attacks the stack actively refused (decode error, EFAULT, grant
    /// rejection, backpressure, malformed-frame detection).
    pub detected: u64,
    /// Inputs that stayed legitimate and were served correctly.
    pub served: u64,
    /// Invariant violations: silent bypasses, lost slots, wrong answers.
    pub breaches: Vec<String>,
}

impl FamilyOutcome {
    pub(crate) fn new(family: AttackFamily, engine: EngineKind) -> FamilyOutcome {
        FamilyOutcome {
            family,
            engine,
            attempted: 0,
            detected: 0,
            served: 0,
            breaches: Vec::new(),
        }
    }

    pub(crate) fn detected(&mut self) {
        self.attempted += 1;
        self.detected += 1;
    }

    pub(crate) fn served(&mut self) {
        self.attempted += 1;
        self.served += 1;
    }

    pub(crate) fn breach(&mut self, reason: String) {
        self.attempted += 1;
        self.breaches.push(reason);
    }
}

/// One campaign's shape.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every family derives its own stream from it.
    pub seed: u64,
    /// Adversarial steps per family per substrate.
    pub steps: u32,
    /// Which substrates to attack.
    pub engines: Vec<EngineKind>,
    /// Run against the seeded `grant-bypass` mutant: enforcement accepts
    /// every memory operation, so the campaign must report breaches.
    pub bypass: bool,
}

impl CampaignConfig {
    /// A campaign over both substrates with the given seed and step count.
    pub fn both(seed: u64, steps: u32) -> CampaignConfig {
        CampaignConfig {
            seed,
            steps,
            engines: vec![EngineKind::Virtual, EngineKind::Wall],
            bypass: false,
        }
    }
}

/// The campaign's full result: the containment matrix plus the first
/// delta-minimized find, if any step breached.
#[derive(Debug)]
pub struct CampaignReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Steps per family per substrate.
    pub steps: u32,
    /// Whether the seeded bypass mutant was active.
    pub bypass: bool,
    /// One cell per family × substrate.
    pub outcomes: Vec<FamilyOutcome>,
    /// The first breach, minimized into fixture form.
    pub find: Option<MinimizedFind>,
}

impl CampaignReport {
    /// Total adversarial steps across all cells.
    pub fn total_attempted(&self) -> u64 {
        self.outcomes.iter().map(|o| o.attempted).sum()
    }

    /// Total actively-refused attacks across all cells.
    pub fn total_detected(&self) -> u64 {
        self.outcomes.iter().map(|o| o.detected).sum()
    }

    /// Total invariant violations across all cells.
    pub fn total_breaches(&self) -> usize {
        self.outcomes.iter().map(|o| o.breaches.len()).sum()
    }

    /// The campaign verdict: zero breaches and a nonzero number of
    /// detected attacks (a campaign that detects nothing proved nothing).
    pub fn pass(&self) -> bool {
        self.total_breaches() == 0 && self.total_detected() > 0
    }

    /// The containment matrix as a terminal table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "adversary campaign: seed {} · {} steps/family · bypass {}\n",
            self.seed, self.steps, self.bypass,
        ));
        out.push_str(&format!(
            "{:<18} {:>8} {:>10} {:>10} {:>8} {:>9}\n",
            "family", "engine", "attempted", "detected", "served", "breaches",
        ));
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:<18} {:>8} {:>10} {:>10} {:>8} {:>9}\n",
                o.family.name(),
                o.engine.name(),
                o.attempted,
                o.detected,
                o.served,
                o.breaches.len(),
            ));
        }
        out.push_str(&format!(
            "total: {} attempted, {} detected, {} breaches — {}\n",
            self.total_attempted(),
            self.total_detected(),
            self.total_breaches(),
            if self.pass() { "PASS" } else { "FAIL" },
        ));
        for breach in self.outcomes.iter().flat_map(|o| &o.breaches).take(5) {
            out.push_str(&format!("  breach: {breach}\n"));
        }
        out
    }

    /// The containment matrix as JSON (embedded in `BENCH_adversary.json`).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seed\":{},\"steps\":{},\"bypass\":{},\"matrix\":[",
            self.seed, self.steps, self.bypass,
        );
        for (index, o) in self.outcomes.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"family\":\"{}\",\"engine\":\"{}\",\"attempted\":{},\
                 \"detected\":{},\"served\":{},\"breaches\":{}}}",
                o.family.name(),
                o.engine.name(),
                o.attempted,
                o.detected,
                o.served,
                o.breaches.len(),
            ));
        }
        out.push_str(&format!(
            "],\"attempted\":{},\"detected\":{},\"breaches\":{},\"pass\":{}}}",
            self.total_attempted(),
            self.total_detected(),
            self.total_breaches(),
            self.pass(),
        ));
        out
    }
}

/// Derives a per-cell seed stream so families and substrates never share
/// mutation sequences (and so adding a family cannot shift another's).
fn cell_seed(master: u64, family: AttackFamily, engine: EngineKind) -> u64 {
    let f = family.name().bytes().fold(0u64, |h, b| {
        h.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b))
    });
    let e = match engine {
        EngineKind::Virtual => 0x56,
        EngineKind::Wall => 0x57,
    };
    master ^ f.rotate_left(17) ^ e
}

/// Runs the full campaign: every family on every configured substrate.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let mut outcomes = Vec::new();
    let mut find = None;
    for &engine in &config.engines {
        for family in AttackFamily::ALL {
            let seed = cell_seed(config.seed, family, engine);
            let outcome = match family {
                AttackFamily::WireMutation => {
                    let (outcome, cell_find) =
                        wire::run(engine, seed, config.steps, config.bypass);
                    if find.is_none() {
                        find = cell_find;
                    }
                    outcome
                }
                AttackFamily::GrantReplay => {
                    grants::run(engine, seed, config.steps, config.bypass)
                }
                AttackFamily::SharedPageRace => race::run(engine, seed, config.steps),
                AttackFamily::RingCorruption => ring::run(engine, seed, config.steps),
                AttackFamily::Flood => flood::run(engine, seed, config.steps),
            };
            outcomes.push(outcome);
        }
    }
    CampaignReport {
        seed: config.seed,
        steps: config.steps,
        bypass: config.bypass,
        outcomes,
        find,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_campaign_contains_everything_on_both_substrates() {
        let report = run_campaign(&CampaignConfig::both(7, 40));
        assert!(report.pass(), "{}", report.render());
        assert_eq!(report.total_breaches(), 0, "{}", report.render());
        assert!(report.total_detected() > 0);
        // Every family × substrate cell ran and detected something: each
        // family deliberately includes attacks that must be refused.
        assert_eq!(report.outcomes.len(), 10);
        for o in &report.outcomes {
            assert!(o.attempted > 0, "{} ran nothing", o.family.name());
            assert!(
                o.detected > 0,
                "{} on {} detected nothing",
                o.family.name(),
                o.engine.name(),
            );
        }
    }

    #[test]
    fn campaigns_are_deterministic_per_seed_on_the_virtual_oracle() {
        let config = CampaignConfig {
            seed: 11,
            steps: 30,
            engines: vec![EngineKind::Virtual],
            bypass: false,
        };
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert_eq!(a.render(), b.render(), "virtual campaigns must be bit-stable");
    }

    #[test]
    fn the_bypass_mutant_is_caught_with_a_minimized_find() {
        let config = CampaignConfig {
            seed: 7,
            steps: 60,
            engines: vec![EngineKind::Virtual],
            bypass: true,
        };
        let report = run_campaign(&config);
        assert!(!report.pass(), "bypassed enforcement must breach");
        assert!(report.total_breaches() > 0);
        let find = report.find.expect("wire breaches minimize into a find");
        // The minimized find replays through the verify bridge: clean on
        // the real kernels, violated under the recorded mutant.
        let fixture = find.fixture(Some("grant-bypass"));
        assert_eq!(fixture.file_name(), "grant-bypass.fixture");
        assert!(paradice_verify::replay_fixture(&fixture, None).is_ok());
        assert!(paradice_verify::replay_fixture(
            &fixture,
            Some(paradice_verify::report::Mutant::GrantBypass),
        )
        .is_err());
    }
}
