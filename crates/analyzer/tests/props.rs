//! Property tests: static extraction and JIT evaluation agree; the JIT's
//! consumed-range snapshot agrees with a per-byte oracle; and the JIT reads
//! exactly the bytes the real drivers' slices consume.

use std::collections::BTreeMap;

use proptest::prelude::*;

use paradice_analyzer::extract::{extract_command, AddrTemplate, Extraction};
use paradice_analyzer::ir::{Expr, Handler, OpKind, Stmt, VarId};
use paradice_analyzer::jit::{evaluate_slice, JitError, ResolvedOp, UserReader};
use paradice_analyzer::props_support::{static_handler, CopyRecipe};
use paradice_drivers::gpu::driver::{RADEON_CS, RADEON_GEM_PWRITE};
use paradice_drivers::gpu::i915::{i915_handler_ir, I915_GEM_EXECBUFFER2, I915_GEM_PWRITE};
use paradice_drivers::gpu::ir::radeon_handler_3_2_0;

struct InfiniteZeroes;

impl UserReader for InfiniteZeroes {
    fn read_user(&mut self, _addr: u64, buf: &mut [u8]) -> Result<(), ()> {
        buf.fill(0);
        Ok(())
    }
}

proptest! {
    /// For argument-linear handlers, static extraction must succeed, and
    /// resolving its templates must equal JIT-evaluating the same program —
    /// the two grant-derivation paths of §4.1 agree.
    #[test]
    fn static_templates_equal_jit_resolution(
        cmd in any::<u32>(),
        arg in 0u64..1 << 40,
        recipes in proptest::collection::vec(
            (0u64..1 << 16, 1u64..8192, any::<bool>()).prop_map(|(arg_offset, len, from_user)| {
                CopyRecipe { arg_offset, len, from_user }
            }),
            1..12,
        ),
    ) {
        let handler = static_handler(cmd, &recipes);
        let extraction = extract_command(&handler, cmd).unwrap();
        let templates = match extraction {
            Extraction::Static(t) => t,
            Extraction::Jit { .. } => {
                return Err(TestCaseError::fail("argument-linear handler classified as JIT"))
            }
        };
        prop_assert_eq!(templates.len(), recipes.len());
        // Resolve the templates against the concrete argument.
        let resolved: Vec<(OpKind, u64, u64)> = templates
            .iter()
            .map(|t| {
                let addr = match t.addr {
                    AddrTemplate::Abs(a) => a,
                    AddrTemplate::ArgPlus(k) => arg.wrapping_add(k),
                };
                (t.kind, addr, t.len)
            })
            .collect();
        // JIT-evaluate the equivalent specialized slice.
        let slice: Vec<paradice_analyzer::ir::Stmt> = {
            use paradice_analyzer::ir::{Expr, Stmt, VarId};
            recipes
                .iter()
                .enumerate()
                .map(|(i, recipe)| {
                    let addr = Expr::add(Expr::Arg, Expr::Const(recipe.arg_offset));
                    if recipe.from_user {
                        Stmt::CopyFromUser {
                            dst: VarId(i as u32),
                            src: addr,
                            len: Expr::Const(recipe.len),
                        }
                    } else {
                        Stmt::CopyToUser {
                            dst: addr,
                            len: Expr::Const(recipe.len),
                        }
                    }
                })
                .collect()
        };
        let jit_ops = evaluate_slice(&slice, cmd, arg, &mut InfiniteZeroes).unwrap();
        let jit_resolved: Vec<(OpKind, u64, u64)> =
            jit_ops.iter().map(|op| (op.kind, op.addr, op.len)).collect();
        prop_assert_eq!(resolved, jit_resolved);
    }

    /// Unknown commands always produce an empty static extraction (the
    /// default arm returns) — never a spurious operation.
    #[test]
    fn unknown_commands_extract_nothing(cmd in any::<u32>(), other in any::<u32>()) {
        prop_assume!(cmd != other);
        let handler = static_handler(cmd, &[CopyRecipe { arg_offset: 0, len: 8, from_user: true }]);
        match extract_command(&handler, other).unwrap() {
            Extraction::Static(ops) => prop_assert!(ops.is_empty()),
            Extraction::Jit { .. } => return Err(TestCaseError::fail("default arm must be static")),
        }
    }
}

// ---------------------------------------------------------------------------
// The consumed-range snapshot vs. a per-byte first-read-wins oracle
// ---------------------------------------------------------------------------

/// A hostile process: every call returns different bytes (a second thread
/// rewriting the buffer between fetches), and every address a different one.
#[derive(Default)]
struct MutatingUser {
    calls: u8,
}

impl UserReader for MutatingUser {
    fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()> {
        self.calls = self.calls.wrapping_add(1);
        for (i, byte) in buf.iter_mut().enumerate() {
            *byte = self.calls.wrapping_mul(37) ^ (addr.wrapping_add(i as u64) as u8);
        }
        Ok(())
    }
}

/// A straight-line script: fetches into buffer variables, then field reads
/// whose values surface as `CopyToUser` lengths.
#[derive(Debug, Clone)]
struct FetchScript {
    /// `(dst, addr, len)`.
    fetches: Vec<(u32, u64, u64)>,
    /// `(base, offset, width)`.
    fields: Vec<(u32, u64, u8)>,
}

impl FetchScript {
    fn slice(&self) -> Vec<Stmt> {
        let fetches = self.fetches.iter().map(|&(dst, addr, len)| Stmt::CopyFromUser {
            dst: VarId(dst),
            src: Expr::Const(addr),
            len: Expr::Const(len),
        });
        let fields = self.fields.iter().map(|&(base, offset, width)| Stmt::CopyToUser {
            dst: Expr::Const(0),
            len: Expr::field(VarId(base), offset, width),
        });
        fetches.chain(fields).collect()
    }

    /// What the JIT must compute, derived the old way: the same extent rule,
    /// but every fetched byte pinned individually in a per-byte map.
    fn oracle(&self, reader: &mut dyn UserReader) -> Result<Vec<ResolvedOp>, JitError> {
        let extent = |var: u32| {
            self.fields
                .iter()
                .filter(|field| field.0 == var)
                .map(|&(_, offset, width)| offset + u64::from(width))
                .max()
                .unwrap_or(0)
        };
        let mut first_read: BTreeMap<u64, u8> = BTreeMap::new();
        let mut buffers: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut ops = Vec::new();
        for &(dst, addr, len) in &self.fetches {
            if addr.checked_add(len).is_none() {
                return Err(JitError::BadUserRead { addr, len });
            }
            let mut bytes = vec![0u8; len.min(extent(dst)) as usize];
            if !bytes.is_empty() {
                reader
                    .read_user(addr, &mut bytes)
                    .map_err(|()| JitError::BadUserRead { addr, len })?;
            }
            for (i, byte) in bytes.iter_mut().enumerate() {
                *byte = *first_read.entry(addr + i as u64).or_insert(*byte);
            }
            buffers.insert(dst, bytes);
            ops.push(ResolvedOp {
                kind: OpKind::CopyFromUser,
                addr,
                len,
            });
        }
        for &(base, offset, width) in &self.fields {
            let bad = JitError::BadFieldRead { var: VarId(base) };
            let bytes = buffers.get(&base).ok_or(bad.clone())?;
            let field = bytes
                .get(offset as usize..offset as usize + usize::from(width))
                .ok_or(bad)?;
            let mut raw = [0u8; 8];
            raw[..field.len()].copy_from_slice(field);
            ops.push(ResolvedOp {
                kind: OpKind::CopyToUser,
                addr: 0,
                len: u64::from_le_bytes(raw),
            });
        }
        Ok(ops)
    }
}

proptest! {
    /// Random fetch scripts — overlapping, nested, adjacent, disjoint, up
    /// against the top of the address space, with random consumed fields —
    /// under a reader that never returns the same bytes twice: the range
    /// snapshot yields exactly what per-byte first-read-wins pinning does.
    #[test]
    fn range_snapshot_equals_the_per_byte_oracle(
        // 32 scripts per case: the offline proptest runs few cases.
        scripts in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec((0u32..4, 0u64..16, 0u64..=64), 1..8),
                proptest::collection::vec((0u32..4, 0u64..64, 0u32..4), 0..6),
            ),
            32,
        ),
    ) {
        for (near_top, fetches, fields) in scripts {
            // An 80-byte window with 16 start addresses, so that equal
            // starts, nesting and partial overlaps are the common case;
            // placed 64 below 2^64, its tail wraps.
            let window = if near_top { u64::MAX - 63 } else { 0x4000 };
            let fetches: Vec<(u32, u64, u64)> = fetches
                .into_iter()
                .map(|(dst, start, len)| (dst, window.wrapping_add(start), len))
                .collect();
            let fields = fields
                .into_iter()
                .map(|(base, offset, width_log2)| {
                    let width = 1u8 << width_log2;
                    // Keep the field inside the last fetch into `base`
                    // whenever one fits, so most scripts run to completion;
                    // the rest exercise error agreement.
                    let room = fetches
                        .iter()
                        .rev()
                        .find(|fetch| fetch.0 == base)
                        .and_then(|fetch| fetch.2.checked_sub(u64::from(width)));
                    (base, room.map_or(offset, |room| offset % (room + 1)), width)
                })
                .collect();
            let script = FetchScript { fetches, fields };
            let expected = script.oracle(&mut MutatingUser::default());
            let actual = evaluate_slice(&script.slice(), 0, 0, &mut MutatingUser::default());
            prop_assert_eq!(actual, expected, "{:?}", script);
        }
    }
}

// ---------------------------------------------------------------------------
// Work: the JIT reads what the real drivers' slices consume, nothing more
// ---------------------------------------------------------------------------

/// Sparse user memory that counts what the JIT asks for. Anything not staged
/// is unmapped, so a payload left unstaged proves it was never touched.
#[derive(Default)]
struct CountingUser {
    staged: Vec<(u64, Vec<u8>)>,
    bytes_requested: usize,
}

impl CountingUser {
    fn stage(&mut self, addr: u64, words: &[(usize, u64, usize)], len: usize) {
        let mut bytes = vec![0u8; len];
        for &(offset, value, width) in words {
            bytes[offset..offset + width].copy_from_slice(&value.to_le_bytes()[..width]);
        }
        self.staged.push((addr, bytes));
    }
}

impl UserReader for CountingUser {
    fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()> {
        self.bytes_requested += buf.len();
        let (base, bytes) = self
            .staged
            .iter()
            .find(|(base, bytes)| *base <= addr && addr - base < bytes.len() as u64)
            .ok_or(())?;
        let start = (addr - base) as usize;
        buf.copy_from_slice(bytes.get(start..start + buf.len()).ok_or(())?);
        Ok(())
    }
}

fn jit_ops(handler: &Handler, cmd: u32, arg: u64, user: &mut CountingUser) -> Vec<ResolvedOp> {
    match extract_command(handler, cmd).expect("extracts") {
        Extraction::Jit { slice, .. } => evaluate_slice(&slice, cmd, arg, user).expect("evaluates"),
        Extraction::Static(_) => panic!("{cmd:#x} is a nested-copy command"),
    }
}

const ARG: u64 = 0x1000;
const PAYLOAD: u64 = 0x4000_0000;

#[test]
fn a_16_mib_pwrite_derivation_reads_the_32_byte_header() {
    // {u32 handle, u32 pad, u64 offset, u64 size, u64 data_ptr}: same layout
    // in both drivers, and the slice consumes `size` and `data_ptr`.
    for (handler, cmd) in [
        (radeon_handler_3_2_0(), RADEON_GEM_PWRITE),
        (i915_handler_ir(), I915_GEM_PWRITE),
    ] {
        let mut user = CountingUser::default();
        user.stage(ARG, &[(16, 16 << 20, 8), (24, PAYLOAD, 8)], 32);
        let ops = jit_ops(&handler, cmd.raw(), ARG, &mut user);
        assert_eq!(user.bytes_requested, 32);
        assert_eq!(
            ops[1],
            ResolvedOp {
                kind: OpKind::CopyFromUser,
                addr: PAYLOAD,
                len: 16 << 20,
            }
        );
    }
}

#[test]
fn a_16_chunk_cs_derivation_reads_the_consumed_header_fields() {
    // args {u64 chunks_ptr, u32 num_chunks, u32 fence}, then per chunk
    // {u64 data_ptr, u32 length_dw, u32 kind}: the slice consumes the first
    // 12 bytes of each (the fence slot and the chunk kind feed no address or
    // length), and none of the sixteen 64-KiB payloads.
    const CHUNKS: u64 = 0x2000;
    let mut user = CountingUser::default();
    user.stage(ARG, &[(0, CHUNKS, 8), (8, 16, 4)], 16);
    for i in 0..16 {
        let payload = PAYLOAD + i * 0x1_0000;
        user.stage(CHUNKS + i * 16, &[(0, payload, 8), (8, 16_384, 4)], 16);
    }
    let ops = jit_ops(&radeon_handler_3_2_0(), RADEON_CS.raw(), ARG, &mut user);
    assert_eq!(user.bytes_requested, 12 + 16 * 12);
    // Every grant is still declared in full: args, 16 × (header, payload),
    // and the fence write-back.
    assert_eq!(ops.len(), 1 + 16 * 2 + 1);
    assert_eq!((ops[1].addr, ops[1].len), (CHUNKS, 16));
    assert_eq!((ops[32].addr, ops[32].len), (PAYLOAD + 15 * 0x1_0000, 65_536));
    assert_eq!((ops[33].kind, ops[33].len), (OpKind::CopyToUser, 16));
}

#[test]
fn an_execbuffer2_derivation_reads_the_24_byte_header() {
    // {u64 objects_ptr, u32 buffer_count, u32 batch_dw, u64 batch_ptr}: all
    // 24 bytes are consumed; the per-object entries and the batch feed
    // nothing and are never read.
    const OBJECTS: u64 = 0x2000;
    let mut user = CountingUser::default();
    user.stage(
        ARG,
        &[(0, OBJECTS, 8), (8, 64, 4), (12, 16_384, 4), (16, PAYLOAD, 8)],
        24,
    );
    let handler = i915_handler_ir();
    let ops = jit_ops(&handler, I915_GEM_EXECBUFFER2.raw(), ARG, &mut user);
    assert_eq!(user.bytes_requested, 24);
    assert_eq!(ops.len(), 1 + 64 + 1);
    assert_eq!((ops[65].addr, ops[65].len), (PAYLOAD, 65_536));
}
