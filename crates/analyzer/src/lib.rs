//! Static analysis of driver ioctl handlers: extracting legitimate memory
//! operations for fault isolation.
//!
//! The paper's CVD frontend must declare every memory operation a file
//! operation will trigger *before* forwarding it (§4.1). For most ioctls the
//! `_IOC` command encoding suffices, but some drivers perform operations the
//! encoding cannot describe — most notably **nested copies**, "in which the
//! data from one copy operation is used as the input arguments for the next
//! one" (the Radeon command-submission path). For those, the authors built a
//! Clang/LLVM tool that parses the driver, applies classic program slicing
//! \[Weiser\], and emits either *static entries* (fully-constant operation
//! lists) or *extracted code* that the frontend executes — offline when
//! possible, **just-in-time** at runtime for nested copies.
//!
//! Our reproduction implements the same contract over a miniature C-like
//! driver IR instead of C source:
//!
//! * [`ir`] — the abstract syntax tree drivers describe their ioctl
//!   handlers in (assignments, user copies, conditionals, `switch (cmd)`,
//!   bounded loops, calls).
//! * [`extract`] — the analyzer: symbolically executes the handler for each
//!   command, classifying it as [`Extraction::Static`] (operation templates
//!   linear in the ioctl argument) or [`Extraction::Jit`] (a pruned slice to
//!   run at operation time), and detecting nested copies.
//! * [`jit`] — the runtime evaluator the CVD frontend uses to turn a slice
//!   plus concrete argument (and reads of the caller's own memory) into the
//!   final grant list.
//! * [`diff`] — cross-version comparison: the paper validates that memory
//!   operations of common commands are identical between the Radeon drivers
//!   of Linux 2.6.35 and 3.2.0, with four new commands in the latter.
//!
//! The drivers crate ships real handler IR (including Radeon-style nested
//! copies), and integration tests cross-check that the operations the
//! analyzer predicts are exactly the operations the driver later performs.
//!
//! # Static lint suite
//!
//! [`lint`] turns the extraction machinery into a safety linter
//! (`paradice-lint`): the same specialized slices the frontend would JIT
//! are walked by passes that flag double fetches (`DF001`/`DF002` —
//! re-reading user memory a decision was already made on), over-grants
//! (`OG001`–`OG003` — declared `_IOC` envelopes provably wider than, or
//! disjoint from, what the handler does), structural hazards
//! (`SH001`–`SH006` — unroll-limit loops, opaque trip counts, recursion,
//! dead `switch` arms, deep nested-copy chains, unknown helpers), and a
//! runtime conformance replay (`CF001`–`CF004`) that checks grants and
//! executed operations from an actual run — plus the hypervisor's audit
//! log — against the analyzer's predictions. Shipped drivers must lint
//! clean or carry an explicit, reasoned [`lint::AllowEntry`]; seeded buggy
//! fixtures ([`lint::fixtures`]) prove every pass actually fires.
//!
//! The order-sensitive passes sit on a proper dataflow stack ([`dataflow`]):
//! CFG lowering, a generic worklist fixpoint solver, and interprocedural
//! function summaries. Double-fetch v2 (`DF001`/`DF002`), user-taint copy
//! lengths (`TA001`/`TA002`) and the wire-protocol decode lint (`WP001`)
//! are domains over that engine, which buys them helper-boundary reasoning
//! and loop fixpoints the syntactic walkers never had.

pub mod dataflow;
pub mod diff;
pub mod extract;
pub mod ir;
pub mod jit;
pub mod lint;
pub mod props_support;
pub mod race;

pub use diff::{diff_handlers, CommandDelta, HandlerDiff};
pub use extract::{analyze_handler, extract_command, Extraction, ExtractionError, HandlerReport};
pub use ir::{Expr, Function, Handler, OpKind, Stmt, VarId};
pub use jit::{
    evaluate_slice, Derivation, JitError, JitProgram, JitScratch, ResolvedOp, UserReader,
};
pub use lint::{apply_allowlist, has_errors, lint_handler, AllowEntry, DiagCode, Diagnostic, Severity};
