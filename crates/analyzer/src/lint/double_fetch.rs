//! Double-fetch (TOCTOU) detection — `DF001`/`DF002`.
//!
//! A handler that copies the same user region twice gives the process a
//! race window: flip the bytes between the fetches and the values that were
//! *validated* (or that sized a grant) differ from the values that are
//! *used*. The JIT evaluator pins repeated reads to a per-evaluation
//! snapshot (see [`crate::jit`]), but a handler that re-fetches at all is
//! still a bug worth surfacing at analysis time — the native (non-Paradice)
//! driver has no snapshot protecting it.
//!
//! * **DF001** (error): a fetch overlaps an earlier fetch whose buffer is
//!   consumed (a field of it feeds an address, length, branch or
//!   assignment) — before *or after* the re-fetch. Either way a decision is
//!   split across two copies of the same bytes: the exploitable shape.
//! * **DF002** (warning): overlapping re-fetch whose first copy is never
//!   consumed — wasteful and fragile, but no decision races yet.
//!
//! The pass is flow-sensitive: the slice is lowered to a CFG
//! ([`crate::dataflow::cfg`]) and solved to a fixpoint
//! ([`crate::dataflow::solver`]), with helper calls composed through
//! function summaries ([`crate::dataflow::summary`]) instead of inlining —
//! so fetch/consume pairs that straddle helper boundaries are caught, and
//! loop bodies converge instead of being walked twice. A *forward* analysis
//! tracks reached fetches and already-consumed buffers; a *backward* one
//! computes which buffers are still consumed later, which is what upgrades
//! an "unconsumed" re-fetch to DF001 when the first copy is used after it.
//!
//! The pass is deliberately conservative: only fetches whose address and
//! length are statically concrete (constant or `arg + k`) participate.
//! Nested-copy fetches at user-data-derived addresses are the JIT's
//! business and never reported here.
//!
//! Addresses, lengths and the environment are the analyzer's one abstract
//! reading ([`SymEnv`]), and a fetch's byte range is
//! [`envelope::interval`](crate::lint::envelope::interval): a fetch whose
//! end would pass `u64::MAX` is not statically bounded and takes no part
//! in an overlap. The syntactic walker this pass replaced is gone; its
//! findings are frozen in `tests/fixtures/syntactic_double_fetch.expected`,
//! and the differential tests check that this pass covers every line.

use std::cell::RefCell;
use std::collections::BTreeSet;

use crate::dataflow::cfg::{lower, CfgStmt, SiteId, Terminator};
use crate::dataflow::solver::{Analysis, Direction, JoinSemiLattice};
use crate::dataflow::summary::{solve_program, ProcTable};
use crate::extract::{SymEnv, SymVal};
use crate::ir::{Expr, Handler, Stmt, VarId};
use crate::lint::envelope::{cond_field_bases, field_bases, interval, stmt_field_bases};
use crate::lint::{DiagCode, Diagnostic};

/// Address-space class of a concrete fetch interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Base {
    /// Absolute user address.
    Abs,
    /// Relative to the ioctl argument.
    Arg,
}

/// A concrete fetched interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Fetch {
    base: Base,
    start: u64,
    end: u64,
    /// The buffer variable the bytes landed in.
    var: VarId,
}

impl Fetch {
    fn overlaps(&self, other: &Fetch) -> bool {
        self.base == other.base && self.start < other.end && other.start < self.end
    }

    fn describe(&self) -> String {
        match self.base {
            Base::Abs => format!("[{:#x}, {:#x})", self.start, self.end),
            Base::Arg => format!("[arg+{}, arg+{})", self.start, self.end),
        }
    }
}

/// Forward domain: reached fetches plus which buffers were consumed so far.
#[derive(Debug, Clone, Default)]
struct DfState {
    env: SymEnv,
    fetches: BTreeSet<Fetch>,
    consumed: BTreeSet<VarId>,
}

impl JoinSemiLattice for DfState {
    fn join_with(&mut self, other: &Self) -> bool {
        let mut changed = self.env.join(&other.env);
        for fetch in &other.fetches {
            changed |= self.fetches.insert(*fetch);
        }
        for var in &other.consumed {
            changed |= self.consumed.insert(*var);
        }
        changed
    }
}

/// The concrete fetch a `CopyFromUser` performs in `env`, if its address
/// and length are statically known, non-empty and bounded.
fn concrete_fetch(
    env: &SymEnv,
    cmd: Option<u32>,
    src: &Expr,
    len: &Expr,
    dst: VarId,
) -> Option<Fetch> {
    let addr = env.eval(cmd, src);
    let base = match addr {
        SymVal::ArgPlus(_) => Base::Arg,
        _ => Base::Abs,
    };
    let (start, end) = match env.eval(cmd, len) {
        SymVal::Const(n) if n > 0 => interval(addr, n)?,
        _ => return None,
    };
    Some(Fetch {
        base,
        start,
        end,
        var: dst,
    })
}

struct DfAnalysis<'a> {
    handler: &'a Handler,
    cmd: Option<u32>,
    table: &'a RefCell<ProcTable<DfState>>,
}

impl Analysis for DfAnalysis<'_> {
    type State = DfState;

    fn transfer_stmt(&self, _site: SiteId, stmt: &CfgStmt, state: &mut DfState) -> bool {
        // A statement's own operand reads count as consumption before it.
        if let CfgStmt::Ir(stmt) = stmt {
            stmt_field_bases(stmt, &mut state.consumed);
        }
        match stmt {
            CfgStmt::LoopIndex(var) => {
                state.env.vars.insert(*var, SymVal::Opaque);
                true
            }
            CfgStmt::Ir(Stmt::Assign { var, value }) => {
                let value = state.env.eval(self.cmd, value);
                state.env.vars.insert(*var, value);
                true
            }
            CfgStmt::Ir(Stmt::CopyFromUser { dst, src, len }) => {
                if let Some(fetch) = concrete_fetch(&state.env, self.cmd, src, len, *dst) {
                    state.fetches.insert(fetch);
                }
                state.env.fetch_into(*dst);
                true
            }
            CfgStmt::Ir(Stmt::Call(name)) => {
                self.table
                    .borrow_mut()
                    .apply_call(name, self.handler, self.cmd, state)
            }
            // Control flow was lowered away; nothing else reaches a block.
            CfgStmt::Ir(_) => true,
        }
    }

    fn transfer_term(&self, term: &Terminator, state: &mut DfState) {
        match term {
            Terminator::Branch { cond, .. } => cond_field_bases(cond, &mut state.consumed),
            Terminator::LoopHead { count, .. } => field_bases(count, &mut state.consumed),
            Terminator::Jump(_) | Terminator::Return => {}
        }
    }
}

/// Backward domain: buffers whose fields are still read later.
#[derive(Debug, Clone, Default)]
struct ConsumedLater(BTreeSet<VarId>);

impl JoinSemiLattice for ConsumedLater {
    fn join_with(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.extend(other.0.iter().copied());
        self.0.len() != before
    }
}

struct ConsumeAnalysis<'a> {
    handler: &'a Handler,
    cmd: Option<u32>,
    table: &'a RefCell<ProcTable<ConsumedLater>>,
}

impl Analysis for ConsumeAnalysis<'_> {
    type State = ConsumedLater;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn transfer_stmt(&self, _site: SiteId, stmt: &CfgStmt, state: &mut ConsumedLater) -> bool {
        match stmt {
            CfgStmt::LoopIndex(_) => true,
            CfgStmt::Ir(Stmt::Call(name)) => {
                self.table
                    .borrow_mut()
                    .apply_call(name, self.handler, self.cmd, state)
            }
            CfgStmt::Ir(stmt) => {
                stmt_field_bases(stmt, &mut state.0);
                true
            }
        }
    }

    fn transfer_term(&self, term: &Terminator, state: &mut ConsumedLater) {
        match term {
            Terminator::Branch { cond, .. } => cond_field_bases(cond, &mut state.0),
            Terminator::LoopHead { count, .. } => field_bases(count, &mut state.0),
            Terminator::Jump(_) | Terminator::Return => {}
        }
    }
}

/// One raw flow-sensitive finding, before driver/command labeling. The wire
/// lint reuses these under its own code (`WP001`).
#[derive(Debug, Clone)]
pub struct FlowFinding {
    /// `Df001` or `Df002`.
    pub code: DiagCode,
    /// Stable site label (`function#statement`), the dedupe key.
    pub site: String,
    /// Human-readable explanation.
    pub message: String,
}

/// One flow-sensitive run: findings plus solver cost counters.
#[derive(Debug, Clone, Default)]
pub struct FlowRun {
    /// The findings, in reporting order.
    pub findings: Vec<FlowFinding>,
    /// Basic blocks lowered across the entry slice and every helper.
    pub blocks: usize,
    /// Total solver block-visits (forward + backward fixpoints).
    pub iterations: usize,
}

/// Runs the flow-sensitive double-fetch analysis over a handler's entry,
/// specialized to `cmd` when given (wire-protocol IR passes `None` — it has
/// no dispatcher).
pub fn analyze_flow(handler: &Handler, cmd: Option<u32>) -> FlowRun {
    let entry = handler
        .function(handler.entry())
        .expect("Handler::new checked the entry");
    let entry_cfg = lower(handler.entry(), &entry.body, cmd);

    let fwd_table = RefCell::new(ProcTable::new());
    let fwd = DfAnalysis {
        handler,
        cmd,
        table: &fwd_table,
    };
    let fwd_stats = solve_program(&fwd, &fwd_table, entry_cfg.clone(), DfState::default());

    let bwd_table = RefCell::new(ProcTable::new());
    let bwd = ConsumeAnalysis {
        handler,
        cmd,
        table: &bwd_table,
    };
    let bwd_stats = solve_program(&bwd, &bwd_table, entry_cfg, ConsumedLater::default());

    let mut run = FlowRun {
        findings: Vec::new(),
        blocks: fwd_stats.blocks,
        iterations: fwd_stats.iterations + bwd_stats.iterations,
    };

    // Reporting: walk every analyzed function once with its converged
    // states — each site is visited exactly once, so loop bodies cannot
    // produce duplicate findings by construction. The procs are snapshotted
    // out of the tables first: re-running the transfer functions below
    // routes `Call`s through `apply_call`, which needs the table borrow.
    let fwd_procs = fwd_table.borrow().procs().to_vec();
    let bwd_procs = bwd_table.borrow().procs().to_vec();
    for proc in &fwd_procs {
        let Some(solution) = &proc.solution else {
            continue;
        };
        let bwd_proc = bwd_procs.iter().find(|p| p.name == proc.name);
        for (block_idx, block) in proc.cfg.blocks.iter().enumerate() {
            let Some(in_state) = &solution.block_states[block_idx] else {
                continue;
            };
            let block_out = bwd_proc
                .and_then(|p| p.solution.as_ref())
                .and_then(|s| s.block_states[block_idx].clone())
                .unwrap_or_default();
            let afters = consumed_afters(&bwd, block, block_out);
            let mut state = in_state.clone();
            for (stmt_idx, (site, stmt)) in block.stmts.iter().enumerate() {
                if let CfgStmt::Ir(ir @ Stmt::CopyFromUser { dst, src, len }) = stmt {
                    // Mirror the transfer's ordering: this statement's own
                    // operand reads count as prior consumption.
                    stmt_field_bases(ir, &mut state.consumed);
                    if let Some(fetch) = concrete_fetch(&state.env, cmd, src, len, *dst) {
                        report_fetch(
                            &state,
                            &afters[stmt_idx],
                            &fetch,
                            &proc.name,
                            *site,
                            &mut run.findings,
                        );
                        state.fetches.insert(fetch);
                    }
                    state.env.fetch_into(*dst);
                } else if !fwd.transfer_stmt(*site, stmt, &mut state) {
                    break; // callee summary never materialized; abandon
                }
            }
        }
    }
    run
}

/// Per-statement "consumed strictly after this point" sets for one block,
/// derived from the backward fixpoint's block-exit state.
fn consumed_afters(
    bwd: &ConsumeAnalysis<'_>,
    block: &crate::dataflow::cfg::Block,
    block_out: ConsumedLater,
) -> Vec<BTreeSet<VarId>> {
    let mut state = block_out;
    bwd.transfer_term(&block.term, &mut state);
    let mut afters = vec![BTreeSet::new(); block.stmts.len()];
    for (idx, (site, stmt)) in block.stmts.iter().enumerate().rev() {
        afters[idx] = state.0.clone();
        // A blocked call leaves the state unchanged: conservative (the
        // finding stays DF002 instead of upgrading).
        let _ = bwd.transfer_stmt(*site, stmt, &mut state);
    }
    afters
}

fn report_fetch(
    state: &DfState,
    consumed_after: &BTreeSet<VarId>,
    fetch: &Fetch,
    func: &str,
    site: SiteId,
    findings: &mut Vec<FlowFinding>,
) {
    // Rank overlapping priors: consumed-before > consumed-after > never.
    let mut worst: Option<(u8, Fetch)> = None;
    for prior in &state.fetches {
        if prior.overlaps(fetch) {
            let rank = if state.consumed.contains(&prior.var) {
                2
            } else if consumed_after.contains(&prior.var) {
                1
            } else {
                0
            };
            let better = match worst {
                None => true,
                Some((best, _)) => rank > best,
            };
            if better {
                worst = Some((rank, *prior));
            }
        }
    }
    let Some((rank, prior)) = worst else { return };
    let (code, message) = match rank {
        2 => (
            DiagCode::Df001,
            format!(
                "re-fetches already-consumed user region {} (first copied into {}); a \
                 concurrent thread can change the bytes between the fetches",
                prior.describe(),
                prior.var,
            ),
        ),
        1 => (
            DiagCode::Df001,
            format!(
                "re-fetches user region {} (first copied into {}) whose first copy is \
                 still consumed after the re-fetch; the decision is split across two \
                 copies a concurrent thread can tear",
                prior.describe(),
                prior.var,
            ),
        ),
        _ => (
            DiagCode::Df002,
            format!(
                "re-fetches previously-fetched user region {} (first copied into {}); a \
                 concurrent thread can change the bytes between the fetches",
                prior.describe(),
                prior.var,
            ),
        ),
    };
    findings.push(FlowFinding {
        code,
        site: format!("{func}#{}", site.0),
        message,
    });
}

/// Runs the flow-sensitive double-fetch pass over one command of a handler.
/// Returns `(blocks, fixpoint iterations)` for the stats block.
pub fn check(
    driver: &str,
    cmd: u32,
    handler: &Handler,
    diags: &mut Vec<Diagnostic>,
) -> (usize, usize) {
    let run = analyze_flow(handler, Some(cmd));
    for finding in run.findings {
        diags.push(
            Diagnostic::new(finding.code, driver, Some(cmd), finding.message)
                .with_site(finding.site),
        );
    }
    (run.blocks, run.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use crate::ir::{Cond, Function};
    use crate::lint::Severity;

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    fn fetch(dst: u32, len: u64) -> Stmt {
        Stmt::CopyFromUser {
            dst: v(dst),
            src: Expr::Arg,
            len: Expr::Const(len),
        }
    }

    /// Runs the flow-sensitive pass over a dispatcher-less body.
    fn run_flow(slice: &[Stmt]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check("test", 0x1234, &Handler::single(slice.to_vec()), &mut diags);
        diags
    }

    // Each test down to the flow-only cases asserts the exact code list;
    // the syntactic walker this pass replaced reported the same list on
    // every one of these shapes.

    #[test]
    fn consumed_refetch_is_df001() {
        let slice = vec![
            fetch(0, 16),
            Stmt::Assign {
                var: v(5),
                value: Expr::field(v(0), 0, 4),
            },
            fetch(1, 16),
        ];
        let diags = run_flow(&slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Df001);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn unconsumed_refetch_is_df002() {
        let diags = run_flow(&[fetch(0, 8), fetch(1, 8)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Df002);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn partial_overlap_detected() {
        let slice = vec![
            fetch(0, 16),
            Stmt::CopyToUser {
                dst: Expr::field(v(0), 0, 8),
                len: Expr::Const(4),
            },
            Stmt::CopyFromUser {
                dst: v(1),
                src: Expr::add(Expr::Arg, Expr::Const(12)),
                len: Expr::Const(8),
            },
        ];
        let diags = run_flow(&slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Df001);
    }

    #[test]
    fn disjoint_fetches_are_clean() {
        let slice = vec![
            fetch(0, 8),
            Stmt::CopyFromUser {
                dst: v(1),
                src: Expr::add(Expr::Arg, Expr::Const(8)),
                len: Expr::Const(8),
            },
        ];
        assert!(run_flow(&slice).is_empty());
    }

    #[test]
    fn nested_copy_fetches_are_not_reported() {
        // The Radeon PWRITE shape: second fetch at a user-data address.
        let slice = vec![
            fetch(0, 32),
            Stmt::CopyFromUser {
                dst: v(1),
                src: Expr::field(v(0), 24, 8),
                len: Expr::field(v(0), 16, 8),
            },
        ];
        assert!(run_flow(&slice).is_empty());
    }

    #[test]
    fn exclusive_branches_do_not_conflict() {
        let both_branches_fetch = vec![Stmt::If {
            cond: Cond::Eq(Expr::Arg, Expr::Const(0)),
            then: vec![fetch(0, 16)],
            els: vec![fetch(1, 16)],
        }];
        assert!(run_flow(&both_branches_fetch).is_empty());
    }

    #[test]
    fn branch_fetch_conflicts_with_later_fetch() {
        let slice = vec![
            Stmt::If {
                cond: Cond::Eq(Expr::Arg, Expr::Const(0)),
                then: vec![fetch(0, 16)],
                els: vec![],
            },
            fetch(1, 16),
        ];
        let diags = run_flow(&slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Df002);
    }

    #[test]
    fn loop_invariant_fetch_conflicts_with_itself() {
        let slice = vec![Stmt::ForRange {
            var: v(9),
            count: Expr::Const(4),
            body: vec![fetch(0, 8)],
        }];
        let diags = run_flow(&slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Df002);
    }

    #[test]
    fn loop_variant_fetch_is_clean() {
        let slice = vec![Stmt::ForRange {
            var: v(9),
            count: Expr::Const(4),
            body: vec![Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::add(Expr::Arg, Expr::mul(Expr::Var(v(9)), Expr::Const(16))),
                len: Expr::Const(16),
            }],
        }];
        assert!(run_flow(&slice).is_empty());
    }

    // -- cases only the flow-sensitive engine gets right ---------------------

    #[test]
    fn upgrade_when_first_copy_consumed_after_refetch() {
        // The syntactic walker's blind spot: the first copy is consumed
        // *after* the re-fetch, so classifying at fetch time said DF002.
        let slice = vec![
            fetch(0, 16),
            fetch(1, 16),
            Stmt::Assign {
                var: v(5),
                value: Expr::field(v(0), 0, 4),
            },
        ];
        let flow = run_flow(&slice);
        assert_eq!(flow.len(), 1);
        assert_eq!(flow[0].code, DiagCode::Df001);
        assert!(flow[0].message.contains("after the re-fetch"));
    }

    #[test]
    fn cross_helper_pair_is_found_without_inlining() {
        // fetch in the entry, re-fetch in one helper, consumption of the
        // first copy in another: three functions, one bug.
        let mut functions = BTreeMap::new();
        functions.insert(
            "ioctl".to_owned(),
            Function {
                body: vec![
                    fetch(0, 16),
                    Stmt::Call("refetch".to_owned()),
                    Stmt::Call("commit".to_owned()),
                ],
            },
        );
        functions.insert(
            "refetch".to_owned(),
            Function {
                body: vec![fetch(1, 16)],
            },
        );
        functions.insert(
            "commit".to_owned(),
            Function {
                body: vec![Stmt::Assign {
                    var: v(5),
                    value: Expr::field(v(0), 0, 4),
                }],
            },
        );
        let handler = Handler::new("ioctl", functions);
        let mut diags = Vec::new();
        let (blocks, iterations) = check("test", 0x1234, &handler, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DiagCode::Df001);
        assert_eq!(diags[0].site.as_deref(), Some("refetch#0"));
        assert!(blocks >= 3);
        assert!(iterations >= 3);
    }

    #[test]
    fn helper_called_twice_reports_once() {
        let mut functions = BTreeMap::new();
        functions.insert(
            "ioctl".to_owned(),
            Function {
                body: vec![
                    Stmt::Call("pair".to_owned()),
                    Stmt::Call("pair".to_owned()),
                ],
            },
        );
        functions.insert(
            "pair".to_owned(),
            Function {
                // Self-contained double fetch inside the helper.
                body: vec![fetch(0, 8), fetch(1, 8)],
            },
        );
        let handler = Handler::new("ioctl", functions);
        let mut diags = Vec::new();
        check("test", 0x1234, &handler, &mut diags);
        // The helper is analyzed once (summaries, not inlining): the inner
        // pair fires at its one site; the second *call* also re-fetches
        // regions the first call left behind, at the same site.
        let sites: BTreeSet<_> = diags.iter().filter_map(|d| d.site.clone()).collect();
        assert_eq!(sites.len(), diags.len(), "one finding per site: {diags:?}");
        assert!(sites.iter().all(|s| s.starts_with("pair#")));
    }

    #[test]
    fn flow_findings_carry_sites() {
        let diags = run_flow(&[fetch(0, 8), fetch(1, 8)]);
        assert_eq!(diags[0].site.as_deref(), Some("ioctl#1"));
    }

    #[test]
    fn a_fetch_whose_end_wraps_takes_no_part_in_an_overlap() {
        let wrapping = |dst: u32| Stmt::CopyFromUser {
            dst: v(dst),
            src: Expr::Const(0xffff_ffff_ffff_fffc),
            len: Expr::Const(8),
        };
        assert!(run_flow(&[wrapping(0), wrapping(1)]).is_empty());
    }
}
