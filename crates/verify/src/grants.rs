//! Grant-table properties: soundness, completeness, batch semantics, and
//! revocation — checked by exhaustive boundary-value enumeration against an
//! exact-arithmetic oracle.
//!
//! The grant table is the isolation core's reference monitor (paper §4.1):
//! the driver VM touches guest memory *only* through hypercalls the table
//! validates. Every property drives the one grant store the hypervisor and
//! the engines share, [`ShardedGrantTable`], on guest 0, whose references
//! start at `GrantRef(0)`. Its real implementation stacks three layers —
//! `range_within` saturating/checked u64 arithmetic, a declaration's one
//! block of windows sorted by kind and start with per-kind prefix-maximum
//! ends, and the linear `MemOpGrant::covers` fallback — and this module
//! proves all three agree with a fourth, independent formulation: coverage
//! computed in exact `u128` arithmetic.
//!
//! The spec the oracle encodes (also the trust boundary documented in
//! DESIGN.md §11): a request `[addr, addr+len)` is accepted iff
//!
//! * `addr + len ≤ 2⁶⁴ − 1` (the byte at `2⁶⁴ − 1` is unaddressable by
//!   convention — request ends must be representable in `u64`),
//! * `addr ≥ start`, and
//! * `addr + len ≤ min(start + glen, 2⁶⁴ − 1)` for some declared window
//!   `[start, start+glen)` of the matching kind (page windows additionally
//!   require the requested access to be a subset of the granted one).
//!
//! Enumeration is *exhaustive over boundary values*: every combination of
//! addresses/lengths drawn from the overflow-critical frontier (0, 1, page
//! edges, `u64::MAX` neighborhoods) for single declarations, plus reduced
//! cross products for two- and three-window tables so the sorted index's
//! `partition_point`/`prefix_max_end` logic is exercised across windows.

use paradice_hypervisor::{
    GrantError, GrantRef, MemOpGrant, MemOpRequest, ShardedGrantTable, GRANT_TABLE_CAPACITY,
};
use paradice_hypervisor::grants::SEQ_MASK;
use paradice_analyzer::lint::{DiagCode, Diagnostic};
use paradice_mem::{Access, GuestVirtAddr, PAGE_SIZE};

use crate::fixture::Fixture;
use crate::report::{Mutant, PropertyReport};

/// The guest whose shard every grant property drives.
const GUEST: u32 = 0;

/// A store with one empty shard, [`GUEST`]'s.
fn fresh() -> ShardedGrantTable {
    ShardedGrantTable::with_guests(1)
}

/// Boundary addresses: zero, off-by-one, page edges, and the `u64::MAX`
/// overflow frontier.
const ADDRS: [u64; 7] = [
    0,
    1,
    0xfff,
    0x1000,
    0x10_0000,
    u64::MAX - 0x1000,
    u64::MAX,
];

/// Boundary lengths, including the saturating-end extremes.
const LENS: [u64; 6] = [0, 1, 0xfff, 0x1000, u64::MAX - 1, u64::MAX];

/// Reduced sets for multi-window tables (cross products stay tractable).
const PAIR_ADDRS: [u64; 4] = [0, 0xfff, 0x1000, u64::MAX - 0x1000];
const PAIR_LENS: [u64; 3] = [0, 1, 0x1000];
const TRIPLE_ADDRS: [u64; 3] = [0, 0x1000, 0x2000];
const TRIPLE_LENS: [u64; 2] = [1, 0x1000];

/// The exact-arithmetic coverage model. `strict_end` is the
/// [`Mutant::GrantCoverOffByOne`] perturbation: requiring `end < grant_end`
/// instead of `≤` flips the verdict on every exact-fit request, which the
/// enumeration must detect.
fn model_within(r_addr: u64, r_len: u64, g_start: u64, g_len: u64, strict_end: bool) -> bool {
    let r_end = u128::from(r_addr) + u128::from(r_len);
    if r_end > u128::from(u64::MAX) {
        return false;
    }
    let g_end = (u128::from(g_start) + u128::from(g_len)).min(u128::from(u64::MAX));
    let end_ok = if strict_end {
        r_end < g_end
    } else {
        r_end <= g_end
    };
    u128::from(r_addr) >= u128::from(g_start) && end_ok
}

/// One declared window covers one request, per the model.
fn model_covers(grant: &MemOpGrant, request: &MemOpRequest, strict_end: bool) -> bool {
    match (grant, request) {
        (
            MemOpGrant::CopyFromGuest { addr, len },
            MemOpRequest::CopyFromGuest {
                addr: r_addr,
                len: r_len,
            },
        )
        | (
            MemOpGrant::CopyToGuest { addr, len },
            MemOpRequest::CopyToGuest {
                addr: r_addr,
                len: r_len,
            },
        ) => model_within(r_addr.raw(), *r_len, addr.raw(), *len, strict_end),
        (
            MemOpGrant::MapPages { va, pages, access },
            MemOpRequest::MapPage {
                va: r_va,
                access: r_access,
            },
        ) => {
            // Page windows in the model stay below the u64 byte-length
            // horizon (`pages ≤ 2⁴⁰`); see DESIGN.md §11's trust boundary.
            model_within(
                r_va.raw(),
                PAGE_SIZE,
                va.raw(),
                pages * PAGE_SIZE,
                strict_end,
            ) && access.contains(*r_access)
        }
        (MemOpGrant::UnmapPages { va, pages }, MemOpRequest::UnmapPage { va: r_va }) => {
            model_within(r_va.raw(), PAGE_SIZE, va.raw(), pages * PAGE_SIZE, strict_end)
        }
        _ => false,
    }
}

/// The model verdict for a whole declaration set (completeness: accepted
/// iff *some* window covers).
fn model_accepts(decls: &[MemOpGrant], request: &MemOpRequest, strict_end: bool) -> bool {
    decls.iter().any(|d| model_covers(d, request, strict_end))
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

fn request_line(request: &MemOpRequest) -> String {
    match *request {
        MemOpRequest::CopyFromGuest { addr, len } => format!("copy_from:{}:{len}", addr.raw()),
        MemOpRequest::CopyToGuest { addr, len } => format!("copy_to:{}:{len}", addr.raw()),
        MemOpRequest::MapPage { va, access } => format!("map:{}:{}", va.raw(), access.bits()),
        MemOpRequest::UnmapPage { va } => format!("unmap:{}", va.raw()),
    }
}

/// Parses a `decl=` payload line.
pub(crate) fn parse_decl(line: &str) -> Result<MemOpGrant, String> {
    let parts: Vec<&str> = line.split(':').collect();
    let num = |s: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("bad number {s:?}"))
    };
    match parts.as_slice() {
        ["copy_from", addr, len] => Ok(MemOpGrant::CopyFromGuest {
            addr: GuestVirtAddr::new(num(addr)?),
            len: num(len)?,
        }),
        ["copy_to", addr, len] => Ok(MemOpGrant::CopyToGuest {
            addr: GuestVirtAddr::new(num(addr)?),
            len: num(len)?,
        }),
        ["map", va, pages, access] => Ok(MemOpGrant::MapPages {
            va: GuestVirtAddr::new(num(va)?),
            pages: num(pages)?,
            access: Access::from_bits(u8::try_from(num(access)?).map_err(|e| e.to_string())?),
        }),
        ["unmap", va, pages] => Ok(MemOpGrant::UnmapPages {
            va: GuestVirtAddr::new(num(va)?),
            pages: num(pages)?,
        }),
        _ => Err(format!("unparseable decl {line:?}")),
    }
}

/// Parses a `request=` payload line.
pub(crate) fn parse_request(line: &str) -> Result<MemOpRequest, String> {
    let parts: Vec<&str> = line.split(':').collect();
    let num = |s: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("bad number {s:?}"))
    };
    match parts.as_slice() {
        ["copy_from", addr, len] => Ok(MemOpRequest::CopyFromGuest {
            addr: GuestVirtAddr::new(num(addr)?),
            len: num(len)?,
        }),
        ["copy_to", addr, len] => Ok(MemOpRequest::CopyToGuest {
            addr: GuestVirtAddr::new(num(addr)?),
            len: num(len)?,
        }),
        ["map", va, access] => Ok(MemOpRequest::MapPage {
            va: GuestVirtAddr::new(num(va)?),
            access: Access::from_bits(u8::try_from(num(access)?).map_err(|e| e.to_string())?),
        }),
        ["unmap", va] => Ok(MemOpRequest::UnmapPage {
            va: GuestVirtAddr::new(num(va)?),
        }),
        _ => Err(format!("unparseable request {line:?}")),
    }
}

/// The three-way verdict comparison for one `(table, request)` pair:
/// indexed validation (the production path), the linear `covers` scan, and
/// the exact-arithmetic model must all agree.
fn check_one(
    table: &ShardedGrantTable,
    grant: GrantRef,
    decls: &[MemOpGrant],
    request: &MemOpRequest,
    strict_end: bool,
) -> Result<(), String> {
    let indexed = table.validate(GUEST, grant, request).is_ok();
    let linear = decls.iter().any(|d| d.covers(request));
    let model = model_accepts(decls, request, strict_end);
    if indexed != model {
        return Err(format!(
            "indexed validation {} but exact model {} (soundness/completeness split)",
            verdict(indexed),
            verdict(model),
        ));
    }
    if indexed != linear {
        return Err(format!(
            "indexed validation {} but linear covers scan {} (range-index drift)",
            verdict(indexed),
            verdict(linear),
        ));
    }
    Ok(())
}

fn verdict(accepted: bool) -> &'static str {
    if accepted {
        "accepts"
    } else {
        "rejects"
    }
}

struct Mismatch {
    decls: Vec<MemOpGrant>,
    request: MemOpRequest,
    reason: String,
}

/// Runs the three-way check over every table/request in the iterator,
/// collecting mismatches.
fn sweep(
    tables: Vec<Vec<MemOpGrant>>,
    requests: &[MemOpRequest],
    strict_end: bool,
    mismatches: &mut Vec<Mismatch>,
    checks: &mut usize,
) -> usize {
    let mut table_count = 0;
    for decls in tables {
        let table = fresh();
        let Ok(grant) = table.declare(GUEST, decls.clone()) else {
            continue;
        };
        table_count += 1;
        for request in requests {
            *checks += 1;
            if let Err(reason) = check_one(&table, grant, &decls, request, strict_end) {
                mismatches.push(Mismatch {
                    decls: decls.clone(),
                    request: *request,
                    reason,
                });
            }
        }
    }
    table_count
}

fn copy_requests() -> Vec<MemOpRequest> {
    let mut requests = Vec::new();
    for addr in ADDRS {
        for len in LENS {
            requests.push(MemOpRequest::CopyFromGuest {
                addr: GuestVirtAddr::new(addr),
                len,
            });
            requests.push(MemOpRequest::CopyToGuest {
                addr: GuestVirtAddr::new(addr),
                len,
            });
        }
    }
    requests
}

/// `grant-soundness`: the boundary-value sweep described in the module
/// docs. [`Mutant::GrantCoverOffByOne`] perturbs the model's end
/// comparison; the exact-fit boundary cases must then disagree.
pub fn check_soundness(mutant: Option<Mutant>) -> PropertyReport {
    const NAME: &str = "grant-soundness";
    const DESC: &str =
        "grant validation accepts a mem op iff a declared window covers it (u128 model, \
         indexed == linear == model over boundary-value enumeration)";
    let strict_end = mutant == Some(Mutant::GrantCoverOffByOne);
    let mut mismatches = Vec::new();
    let mut checks = 0usize;
    let mut tables = 0usize;

    // Single copy windows, both kinds, full boundary cross product.
    let mut singles = Vec::new();
    for addr in ADDRS {
        for len in LENS {
            singles.push(vec![MemOpGrant::CopyFromGuest {
                addr: GuestVirtAddr::new(addr),
                len,
            }]);
            singles.push(vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(addr),
                len,
            }]);
        }
    }
    tables += sweep(singles, &copy_requests(), strict_end, &mut mismatches, &mut checks);

    // Two-window tables (mixed kinds included): the sorted index must pick
    // the right window and kind.
    let mut pairs = Vec::new();
    for a1 in PAIR_ADDRS {
        for l1 in PAIR_LENS {
            for a2 in PAIR_ADDRS {
                for l2 in PAIR_LENS {
                    pairs.push(vec![
                        MemOpGrant::CopyFromGuest {
                            addr: GuestVirtAddr::new(a1),
                            len: l1,
                        },
                        MemOpGrant::CopyFromGuest {
                            addr: GuestVirtAddr::new(a2),
                            len: l2,
                        },
                    ]);
                    pairs.push(vec![
                        MemOpGrant::CopyFromGuest {
                            addr: GuestVirtAddr::new(a1),
                            len: l1,
                        },
                        MemOpGrant::CopyToGuest {
                            addr: GuestVirtAddr::new(a2),
                            len: l2,
                        },
                    ]);
                }
            }
        }
    }
    tables += sweep(pairs, &copy_requests(), strict_end, &mut mismatches, &mut checks);

    // Three-window tables: overlapping and adjacent windows stress
    // `prefix_max_end`.
    let mut triples = Vec::new();
    for a1 in TRIPLE_ADDRS {
        for l1 in TRIPLE_LENS {
            for a2 in TRIPLE_ADDRS {
                for l2 in TRIPLE_LENS {
                    for a3 in TRIPLE_ADDRS {
                        for l3 in TRIPLE_LENS {
                            triples.push(vec![
                                MemOpGrant::CopyFromGuest {
                                    addr: GuestVirtAddr::new(a1),
                                    len: l1,
                                },
                                MemOpGrant::CopyFromGuest {
                                    addr: GuestVirtAddr::new(a2),
                                    len: l2,
                                },
                                MemOpGrant::CopyFromGuest {
                                    addr: GuestVirtAddr::new(a3),
                                    len: l3,
                                },
                            ]);
                        }
                    }
                }
            }
        }
    }
    let triple_requests: Vec<MemOpRequest> = {
        let mut requests = Vec::new();
        for addr in [0u64, 0xfff, 0x1000, 0x1fff, 0x2000, 0x2fff, 0x3000] {
            for len in [0u64, 1, 0xfff, 0x1000, 0x2000] {
                requests.push(MemOpRequest::CopyFromGuest {
                    addr: GuestVirtAddr::new(addr),
                    len,
                });
            }
        }
        requests
    };
    tables += sweep(triples, &triple_requests, strict_end, &mut mismatches, &mut checks);

    // Page windows: alignment, multi-page spans, and access-subset checks.
    let page_vas: [u64; 4] = [0, 0x1000, 0x10_0000, u64::MAX - 0xfff];
    let mut page_tables = Vec::new();
    for va in page_vas {
        for pages in [0u64, 1, 2, 16] {
            for access in 0u8..8 {
                page_tables.push(vec![MemOpGrant::MapPages {
                    va: GuestVirtAddr::new(va),
                    pages,
                    access: Access::from_bits(access),
                }]);
            }
            page_tables.push(vec![MemOpGrant::UnmapPages {
                va: GuestVirtAddr::new(va),
                pages,
            }]);
        }
    }
    let mut page_requests = Vec::new();
    for va in [0u64, 0x1000, 0x2000, 0x10_000, u64::MAX - 0xfff] {
        for access in [0u8, 1, 3, 5, 7] {
            page_requests.push(MemOpRequest::MapPage {
                va: GuestVirtAddr::new(va),
                access: Access::from_bits(access),
            });
        }
        page_requests.push(MemOpRequest::UnmapPage {
            va: GuestVirtAddr::new(va),
        });
    }
    tables += sweep(page_tables, &page_requests, strict_end, &mut mismatches, &mut checks);

    if mismatches.is_empty() {
        return PropertyReport::proved(NAME, DESC, tables, checks);
    }
    let findings = mismatches
        .iter()
        .take(5)
        .map(|m| {
            Diagnostic::new(
                DiagCode::Vp001,
                "grant-table",
                None,
                format!(
                    "{}; decls {:?}, request {:?}",
                    m.reason, m.decls, m.request
                ),
            )
        })
        .collect();
    let first = &mismatches[0];
    let mut fixture = Fixture::new(NAME, mutant.map(Mutant::name), &first.reason);
    for decl in &first.decls {
        fixture.push_data("decl", decl_line(decl));
    }
    fixture.push_data("request", request_line(&first.request));
    PropertyReport::disproved(NAME, DESC, tables, checks, findings, Some(fixture))
}

/// `grant-batch`: `validate_batch` is all-or-nothing with a correct
/// first-violation index, consistent with single validation, for every
/// request vector of length ≤ 3 over a mixed pool — plus the stale-ref and
/// empty-batch edges.
pub fn check_batch(_mutant: Option<Mutant>) -> PropertyReport {
    const NAME: &str = "grant-batch";
    const DESC: &str =
        "validate_batch == first failing single validation (all-or-nothing phase split)";
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut checks = 0usize;

    let decls = vec![
        MemOpGrant::CopyFromGuest {
            addr: GuestVirtAddr::new(0x1000),
            len: 0x1000,
        },
        MemOpGrant::CopyToGuest {
            addr: GuestVirtAddr::new(0x3000),
            len: 0x100,
        },
    ];
    let table = fresh();
    let grant = table.declare(GUEST, decls).expect("declare fits an empty table");
    let pool = [
        MemOpRequest::CopyFromGuest {
            addr: GuestVirtAddr::new(0x1000),
            len: 0x10,
        },
        MemOpRequest::CopyToGuest {
            addr: GuestVirtAddr::new(0x3000),
            len: 0x10,
        },
        MemOpRequest::CopyFromGuest {
            addr: GuestVirtAddr::new(0x5000),
            len: 1,
        },
        MemOpRequest::CopyToGuest {
            addr: GuestVirtAddr::new(0x1000),
            len: 1,
        },
        MemOpRequest::CopyFromGuest {
            addr: GuestVirtAddr::new(0x2000),
            len: 0,
        },
    ];

    // Every vector of length 0..=3 over the pool.
    let mut vectors: Vec<Vec<MemOpRequest>> = vec![Vec::new()];
    for len in 1..=3usize {
        let mut indices = vec![0usize; len];
        loop {
            vectors.push(indices.iter().map(|&i| pool[i]).collect());
            let mut pos = len;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                indices[pos] += 1;
                if indices[pos] < pool.len() {
                    break;
                }
                indices[pos] = 0;
            }
            if indices.iter().all(|&i| i == 0) {
                break;
            }
        }
    }

    for requests in &vectors {
        checks += 1;
        let expected = requests
            .iter()
            .enumerate()
            .find_map(|(index, request)| {
                table.validate(GUEST, grant, request).err().map(|e| (index, e))
            });
        let got = table.validate_batch(GUEST, grant, requests).err();
        if got != expected {
            findings.push(Diagnostic::new(
                DiagCode::Vp001,
                "grant-table",
                None,
                format!(
                    "validate_batch returned {got:?} but singles imply {expected:?} for {requests:?}"
                ),
            ));
        }
    }

    // Stale ref: every non-empty batch fails at index 0 with UnknownRef.
    let stale_table = fresh();
    let stale = stale_table
        .declare(
            GUEST,
            vec![MemOpGrant::CopyFromGuest {
                addr: GuestVirtAddr::new(0),
                len: 0x1000,
            }],
        )
        .expect("declare fits");
    assert!(stale_table.revoke(GUEST, stale));
    for requests in &vectors {
        checks += 1;
        let got = stale_table.validate_batch(GUEST, stale, requests).err();
        let expected = if requests.is_empty() {
            None
        } else {
            Some((0, GrantError::UnknownRef { grant: stale }))
        };
        if got != expected {
            findings.push(Diagnostic::new(
                DiagCode::Vp001,
                "grant-table",
                None,
                format!("stale-ref batch returned {got:?}, expected {expected:?}"),
            ));
        }
    }

    if findings.is_empty() {
        PropertyReport::proved(NAME, DESC, vectors.len(), checks)
    } else {
        let reason = findings[0].message.clone();
        let fixture = Fixture::new(NAME, None, &reason);
        PropertyReport::disproved(NAME, DESC, vectors.len(), checks, findings, Some(fixture))
    }
}

/// `grant-revocation`: revoked refs validate as `UnknownRef` and are never
/// resurrected — not even by the later reference that takes over their home
/// slot; a live ref is never issued again, also across the wrap of the
/// guest's sequence; capacity is exactly `GRANT_TABLE_CAPACITY` live refs,
/// and `revoke_all` frees every slot. Two scripted scenarios face the
/// seeded mutants: [`Mutant::GrantPageSkipRefCompare`] resolves a
/// reference to whatever its home slot holds, and
/// [`Mutant::GrantIssueIntoOccupiedHome`] issues the next number into its
/// home slot whether or not a live declaration sits there.
pub fn check_revocation(mutant: Option<Mutant>) -> PropertyReport {
    const NAME: &str = "grant-revocation";
    const DESC: &str =
        "revoked refs reject as UnknownRef, also once a later ref reuses their home slot; \
         a live ref is never reissued, also across the sequence wrap; capacity exactly 128 \
         live refs, revoke_all frees every slot";
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut checks = 0usize;
    let mut fixture = None;
    check_lifecycle(&mut findings, &mut checks);
    for scenario in SCENARIOS {
        checks += 1;
        if let Err(reason) = scenario(mutant) {
            fixture.get_or_insert_with(|| Fixture::new(NAME, mutant.map(Mutant::name), &reason));
            findings.push(Diagnostic::new(DiagCode::Vp001, "grant-table", None, reason));
        }
    }
    if findings.is_empty() {
        PropertyReport::proved(NAME, DESC, checks, checks)
    } else {
        let fixture = fixture.unwrap_or_else(|| Fixture::new(NAME, None, &findings[0].message));
        PropertyReport::disproved(NAME, DESC, checks, checks, findings, Some(fixture))
    }
}

/// A scripted `grant-revocation` scenario, run under a seeded mutant.
type Scenario = fn(Option<Mutant>) -> Result<(), String>;

/// The scenarios a `grant-revocation` fixture replays.
const SCENARIOS: [Scenario; 2] = [check_home_slot_reuse, check_live_home_kept];

fn copy_window(addr: u64) -> MemOpGrant {
    MemOpGrant::CopyFromGuest {
        addr: GuestVirtAddr::new(addr),
        len: 0x1000,
    }
}

fn copy_request(addr: u64) -> MemOpRequest {
    MemOpRequest::CopyFromGuest {
        addr: GuestVirtAddr::new(addr),
        len: 1,
    }
}

/// Declares one [`copy_window`] for [`GUEST`].
fn declare(table: &ShardedGrantTable, addr: u64) -> Result<GrantRef, GrantError> {
    table.declare(GUEST, vec![copy_window(addr)])
}

/// Home-slot reuse: the first reference is revoked, the references before
/// `first + CAP` are spent, and `first + CAP` is declared with the same
/// window — into the same home slot. Validating the revoked reference must
/// still be `UnknownRef`. Under [`Mutant::GrantPageSkipRefCompare`] the
/// lookup resolves it to its home slot's occupant — `fresh` — instead.
fn check_home_slot_reuse(mutant: Option<Mutant>) -> Result<(), String> {
    let cap = GRANT_TABLE_CAPACITY as u32;
    let table = fresh();
    let stale = declare(&table, 0x1000).map_err(|e| format!("declare: {e}"))?;
    table.revoke(GUEST, stale);
    let table = table.with_refs_spent(GUEST, cap - 1);
    let fresh = declare(&table, 0x1000).map_err(|e| format!("declare: {e}"))?;
    if fresh.0 != stale.0 + cap {
        return Err(format!("expected {stale} + {cap}, got {fresh}"));
    }
    // `fresh` sits in `stale`'s home slot: the page held nothing else.
    let resolved = if mutant == Some(Mutant::GrantPageSkipRefCompare) { fresh } else { stale };
    match table.validate(GUEST, resolved, &copy_request(0x1000)) {
        Err(GrantError::UnknownRef { .. }) => Ok(()),
        other => Err(format!(
            "revoked {stale} validated as {other:?} once {fresh} took its home slot"
        )),
    }
}

/// A live home slot is kept: `live` is held, the references before
/// `live + CAP` are spent, and one more is declared. `live` must keep
/// validating its own window and only that. Under
/// [`Mutant::GrantIssueIntoOccupiedHome`] the sequence publishes
/// `live + CAP` over `live`'s declaration — modelled by dropping `live`'s
/// declaration before the declare, which is what the overwrite does.
fn check_live_home_kept(mutant: Option<Mutant>) -> Result<(), String> {
    let cap = GRANT_TABLE_CAPACITY as u32;
    let table = fresh();
    let live = declare(&table, 0x1000).map_err(|e| format!("declare: {e}"))?;
    let table = table.with_refs_spent(GUEST, cap - 1);
    if mutant == Some(Mutant::GrantIssueIntoOccupiedHome) {
        table.revoke(GUEST, live);
    }
    let next = declare(&table, 0x2000).map_err(|e| format!("declare: {e}"))?;
    if next == live {
        return Err(format!("live {live} was issued again"));
    }
    match table.validate(GUEST, live, &copy_request(0x1000)) {
        Ok(()) => {}
        other => {
            return Err(format!(
                "live {live} validated its own window as {other:?} once {next} was declared"
            ))
        }
    }
    match table.validate(GUEST, live, &copy_request(0x2000)) {
        Err(GrantError::NotCovered { .. }) => Ok(()),
        other => Err(format!("live {live} validated {next}'s window as {other:?}")),
    }
}

/// The scripted lifecycle: numbering pins at the first and last sequence
/// numbers, revocation, capacity, `revoke_all`, and the wrap past a live
/// reference.
fn check_lifecycle(findings: &mut Vec<Diagnostic>, checks: &mut usize) {
    let fail = |findings: &mut Vec<Diagnostic>, message: String| {
        findings.push(Diagnostic::new(DiagCode::Vp001, "grant-table", None, message));
    };
    let valid = |table: &ShardedGrantTable, grant, addr| {
        table.validate(GUEST, grant, &copy_request(addr)).is_ok()
    };

    let table = fresh();
    let d1 = declare(&table, 0x1000).expect("declare d1");
    let d2 = declare(&table, 0x2000).expect("declare d2");
    *checks += 1;
    if (d1, d2) != (GrantRef(0), GrantRef(1)) {
        fail(findings, format!("numbering must start at the guest's first ref, got {d1}, {d2}"));
    }
    *checks += 1;
    if !valid(&table, d1, 0x1000) || !valid(&table, d2, 0x2000) {
        fail(findings, "fresh declarations must validate".into());
    }
    *checks += 1;
    if !table.revoke(GUEST, d1) {
        fail(findings, "revoking a live ref must succeed".into());
    }
    *checks += 1;
    match table.validate(GUEST, d1, &copy_request(0x1000)) {
        Err(GrantError::UnknownRef { .. }) => {}
        other => fail(findings, format!("revoked ref must be UnknownRef, got {other:?}")),
    }
    *checks += 1;
    if !valid(&table, d2, 0x2000) {
        fail(findings, "revoking d1 must not affect d2".into());
    }
    *checks += 1;
    if table.revoke(GUEST, d1) {
        fail(findings, "revoking a revoked ref must be inert".into());
    }
    let d3 = declare(&table, 0x3000).expect("declare d3");
    *checks += 1;
    if d3 == d1 {
        fail(findings, "a revoked ref must not come back before a full lap".into());
    }
    *checks += 1;
    let revoked = table.revoke_all();
    if revoked != 2 || table.outstanding() != 0 {
        let outstanding = table.outstanding();
        fail(findings, format!("revoke_all revoked {revoked}, outstanding {outstanding}"));
    }
    *checks += 1;
    if valid(&table, d2, 0x2000) || valid(&table, d3, 0x3000) {
        fail(findings, "refs must die with revoke_all".into());
    }

    // Capacity is exactly GRANT_TABLE_CAPACITY live refs, revocation frees
    // a slot, and revoke_all frees every slot.
    let full = fresh();
    let mut declared = 0usize;
    while declared <= GRANT_TABLE_CAPACITY {
        match declare(&full, (declared as u64 + 1) * 0x1000) {
            Ok(_) => declared += 1,
            Err(GrantError::TableFull) => break,
            Err(other) => {
                fail(findings, format!("unexpected declare error {other:?}"));
                break;
            }
        }
    }
    *checks += 1;
    if declared != GRANT_TABLE_CAPACITY {
        fail(
            findings,
            format!("capacity should be exactly {GRANT_TABLE_CAPACITY}, admitted {declared}"),
        );
    }
    *checks += 1;
    full.revoke(GUEST, GrantRef(0));
    if declare(&full, 0xdead_0000).is_err() {
        fail(findings, "revocation must free a capacity slot".into());
    }
    *checks += 1;
    let revoked = full.revoke_all();
    let refilled = (0..GRANT_TABLE_CAPACITY as u64).filter(|i| declare(&full, i * 0x1000).is_ok());
    if revoked != GRANT_TABLE_CAPACITY || refilled.count() != GRANT_TABLE_CAPACITY {
        fail(findings, format!("revoke_all revoked {revoked} of a full page, must free all"));
    }

    // The wrap: the last sequence number is issued, then the sequence
    // restarts at the guest's first ref — skipping it while it is live.
    let last = ShardedGrantTable::compose_ref(GUEST, SEQ_MASK);
    let edge = fresh();
    let live = declare(&edge, 0x1000).expect("declare the live ref");
    let edge = edge.with_refs_spent(GUEST, SEQ_MASK - 2);
    let penultimate = declare(&edge, 0x2000);
    let at_edge = declare(&edge, 0x3000);
    *checks += 1;
    if (penultimate, at_edge) != (Ok(GrantRef(last.0 - 1)), Ok(last)) {
        fail(
            findings,
            format!("the last two refs must be issued in order, got {penultimate:?}, {at_edge:?}"),
        );
    }
    let wrapped = declare(&edge, 0x4000);
    *checks += 1;
    if wrapped != Ok(GrantRef(1)) {
        fail(findings, format!("the wrap must skip live {live} to grant#1, got {wrapped:?}"));
    }
    *checks += 1;
    if !valid(&edge, live, 0x1000) || valid(&edge, live, 0x4000) {
        fail(findings, "a live ref must keep exactly its own window across the wrap".into());
    }
}

/// Replays a grant fixture: a `grant-revocation` one re-runs the scripted
/// scenarios; a `grant-soundness` one rebuilds the table from `decl=` lines
/// and re-runs the three-way comparison on the `request=` line.
///
/// # Errors
///
/// `Err(reason)` when the comparison disagrees (the property is violated
/// under the given mutant), or a parse error for malformed fixtures.
pub fn replay(fixture: &Fixture, mutant: Option<Mutant>) -> Result<(), String> {
    if fixture.property == "grant-revocation" {
        return SCENARIOS.iter().try_for_each(|scenario| scenario(mutant));
    }
    let strict_end = mutant == Some(Mutant::GrantCoverOffByOne);
    let decls: Vec<MemOpGrant> = fixture
        .values("decl")
        .into_iter()
        .map(parse_decl)
        .collect::<Result<_, _>>()?;
    let request = parse_request(fixture.value("request").ok_or("missing request= line")?)?;
    let table = fresh();
    let grant = table
        .declare(GUEST, decls.clone())
        .map_err(|e| format!("declare failed: {e}"))?;
    check_one(&table, grant, &decls, &request, strict_end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soundness_proves_on_the_real_kernel() {
        let report = check_soundness(None);
        assert!(report.proved, "findings: {:?}", report.findings);
        assert!(report.transitions > 10_000, "sweep too small: {}", report.transitions);
    }

    #[test]
    fn soundness_catches_the_off_by_one_mutant() {
        let report = check_soundness(Some(Mutant::GrantCoverOffByOne));
        assert!(!report.proved);
        let fixture = report.counterexample.expect("counterexample emitted");
        // The fixture replays clean on the real kernel and violated under
        // the mutant — both directions of the regression.
        assert!(replay(&fixture, None).is_ok());
        assert!(replay(&fixture, Some(Mutant::GrantCoverOffByOne)).is_err());
    }

    #[test]
    fn skipping_the_ref_compare_is_caught_on_a_reused_home_slot() {
        let report = check_revocation(Some(Mutant::GrantPageSkipRefCompare));
        assert!(!report.proved);
        assert_eq!(report.findings.len(), 1, "only the home-slot reuse scenario sees it");
        let fixture = report.counterexample.expect("counterexample emitted");
        assert!(replay(&fixture, None).is_ok());
        assert!(replay(&fixture, Some(Mutant::GrantPageSkipRefCompare)).is_err());
    }

    #[test]
    fn issuing_into_an_occupied_home_is_caught_on_a_live_ref() {
        let report = check_revocation(Some(Mutant::GrantIssueIntoOccupiedHome));
        assert!(!report.proved);
        assert_eq!(report.findings.len(), 1, "only the live-home scenario sees it");
        let fixture = report.counterexample.expect("counterexample emitted");
        assert_eq!(fixture.file_name(), "grant-issue-into-occupied-home.fixture");
        assert!(replay(&fixture, None).is_ok());
        assert!(replay(&fixture, Some(Mutant::GrantIssueIntoOccupiedHome)).is_err());
    }

    #[test]
    fn batch_and_revocation_prove() {
        assert!(check_batch(None).proved);
        assert!(check_revocation(None).proved);
    }

    #[test]
    fn model_respects_the_unaddressable_top_byte() {
        // A request ending past 2^64-1 is never covered, even by a
        // saturating grant.
        assert!(!model_within(u64::MAX, 1, 0, u64::MAX, false));
        // The exact-fit end at u64::MAX is covered by a saturating grant.
        assert!(model_within(u64::MAX - 1, 1, 0, u64::MAX, false));
        // Empty request at the window end is covered.
        assert!(model_within(0x2000, 0, 0x1000, 0x1000, false));
        // …but not under the strict (mutant) comparison.
        assert!(!model_within(0x2000, 0, 0x1000, 0x1000, true));
    }

    #[test]
    fn fixture_lines_parse_back() {
        let decls = [
            MemOpGrant::CopyFromGuest {
                addr: GuestVirtAddr::new(7),
                len: 9,
            },
            MemOpGrant::MapPages {
                va: GuestVirtAddr::new(0x1000),
                pages: 2,
                access: Access::from_bits(5),
            },
        ];
        for decl in &decls {
            assert_eq!(&parse_decl(&decl_line(decl)).unwrap(), decl);
        }
        let requests = [
            MemOpRequest::CopyToGuest {
                addr: GuestVirtAddr::new(1),
                len: u64::MAX,
            },
            MemOpRequest::UnmapPage {
                va: GuestVirtAddr::new(0x2000),
            },
        ];
        for request in &requests {
            assert_eq!(&parse_request(&request_line(request)).unwrap(), request);
        }
        assert!(parse_decl("bogus:1").is_err());
        assert!(parse_request("copy_from:one:2").is_err());
    }
}
