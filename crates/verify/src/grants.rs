//! Grant-table properties: soundness, completeness, batch semantics, and
//! revocation — checked by exhaustive boundary-value enumeration against an
//! exact-arithmetic oracle.
//!
//! The grant table is the isolation core's reference monitor (paper §4.1):
//! the driver VM touches guest memory *only* through hypercalls the table
//! validates. Its real implementation stacks three layers — `range_within`
//! saturating/checked u64 arithmetic, per-kind sorted range indexes
//! (`RangeIndex`, PR 5), and the linear `MemOpGrant::covers` fallback — and
//! this module proves all three agree with a fourth, independent
//! formulation: coverage computed in exact `u128` arithmetic.
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
    GrantError, GrantRef, GrantTable, MemOpGrant, MemOpRequest, GRANT_TABLE_CAPACITY, SEQ_BITS,
};
use paradice_analyzer::lint::{DiagCode, Diagnostic};
use paradice_mem::{Access, GuestVirtAddr, PAGE_SIZE};

use crate::fixture::Fixture;
use crate::report::{Mutant, PropertyReport};

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
    table: &GrantTable,
    grant: GrantRef,
    decls: &[MemOpGrant],
    request: &MemOpRequest,
    strict_end: bool,
) -> Result<(), String> {
    let indexed = table.validate(grant, request).is_ok();
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
        let mut table = GrantTable::new();
        let Ok(grant) = table.declare(decls.clone()) else {
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
    let mut table = GrantTable::new();
    let grant = table.declare(decls).expect("declare fits an empty table");
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
                table.validate(grant, request).err().map(|e| (index, e))
            });
        let got = table.validate_batch(grant, requests).err();
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
    let mut stale_table = GrantTable::new();
    let stale = stale_table
        .declare(vec![MemOpGrant::CopyFromGuest {
            addr: GuestVirtAddr::new(0),
            len: 0x1000,
        }])
        .expect("declare fits");
    assert!(stale_table.revoke(stale));
    for requests in &vectors {
        checks += 1;
        let got = stale_table.validate_batch(stale, requests).err();
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

/// One reference layout of the grant kernel, as the revocation property
/// drives it: a fresh table and the first and last references it issues.
struct Layout {
    name: &'static str,
    fresh: fn() -> GrantTable,
    first: u32,
    last: u32,
}

/// The guest whose qualified layout the property exercises.
const GUEST: u32 = 5;

const LAYOUTS: [Layout; 2] = [
    Layout {
        name: "32-bit",
        fresh: GrantTable::new,
        first: 0,
        last: u32::MAX,
    },
    Layout {
        name: "guest-qualified",
        fresh: || GrantTable::for_guest(GUEST),
        first: GUEST << SEQ_BITS,
        last: (GUEST << SEQ_BITS) | ((1 << SEQ_BITS) - 1),
    },
];

/// `grant-revocation`: revoked refs validate as `UnknownRef` and are never
/// resurrected — not even by the later reference that takes over their home
/// slot; `revoke_all` empties the table; capacity is exact; and the last
/// reference is issued once, after which the table is `TableFull` forever —
/// under both reference layouts. [`Mutant::GrantPageSkipRefCompare`]
/// resolves a reference to whatever its home slot holds; the slot-reuse
/// check must then catch the stale reference validating.
pub fn check_revocation(mutant: Option<Mutant>) -> PropertyReport {
    const NAME: &str = "grant-revocation";
    const DESC: &str =
        "revoked refs reject as UnknownRef, also once a later ref reuses their home slot; \
         numbering never reuses a ref (fails closed at the last one), capacity exact; both \
         reference layouts";
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut checks = 0usize;
    let mut fixture = None;
    for layout in &LAYOUTS {
        check_revocation_in(layout, &mut findings, &mut checks);
        checks += 1;
        if let Err(reason) = check_home_slot_reuse(layout, mutant) {
            let mut reuse = Fixture::new(NAME, mutant.map(Mutant::name), &reason);
            reuse.push_data("layout", layout.name);
            fixture.get_or_insert(reuse);
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

/// Home-slot reuse under `layout`: the first reference is revoked, the
/// references before `first + CAP` are spent, and `first + CAP` is declared
/// with the same window — into the same home slot. Validating the revoked
/// reference must still be `UnknownRef`. Under
/// [`Mutant::GrantPageSkipRefCompare`] the lookup resolves it to its home
/// slot's occupant — `fresh` — instead.
fn check_home_slot_reuse(layout: &Layout, mutant: Option<Mutant>) -> Result<(), String> {
    let window = vec![MemOpGrant::CopyFromGuest {
        addr: GuestVirtAddr::new(0x1000),
        len: 0x1000,
    }];
    let probe = MemOpRequest::CopyFromGuest {
        addr: GuestVirtAddr::new(0x1000),
        len: 1,
    };
    let cap = GRANT_TABLE_CAPACITY as u32;
    let mut table = (layout.fresh)();
    let stale = table.declare(window.clone()).map_err(|e| format!("declare: {e}"))?;
    table.revoke(stale);
    let mut table = table.with_refs_spent(cap - 1);
    let fresh = table.declare(window).map_err(|e| format!("declare: {e}"))?;
    if fresh.0 != stale.0 + cap {
        return Err(format!("{} layout: expected {stale} + {cap}, got {fresh}", layout.name));
    }
    // `fresh` sits in `stale`'s home slot: the page held nothing else.
    let resolved = if mutant == Some(Mutant::GrantPageSkipRefCompare) { fresh } else { stale };
    match table.validate(resolved, &probe) {
        Err(GrantError::UnknownRef { .. }) => Ok(()),
        other => Err(format!(
            "{} layout: revoked {stale} validated as {other:?} once {fresh} took its home slot",
            layout.name
        )),
    }
}

fn check_revocation_in(layout: &Layout, findings: &mut Vec<Diagnostic>, checks: &mut usize) {
    let fail = |findings: &mut Vec<Diagnostic>, message: String| {
        findings.push(Diagnostic::new(
            DiagCode::Vp001,
            "grant-table",
            None,
            format!("{} layout: {message}", layout.name),
        ));
    };

    let window = |addr: u64| MemOpGrant::CopyFromGuest {
        addr: GuestVirtAddr::new(addr),
        len: 0x1000,
    };
    let probe = |addr: u64| MemOpRequest::CopyFromGuest {
        addr: GuestVirtAddr::new(addr),
        len: 1,
    };

    let mut table = (layout.fresh)();
    let d1 = table.declare(vec![window(0x1000)]).expect("declare d1");
    let d2 = table.declare(vec![window(0x2000)]).expect("declare d2");
    *checks += 1;
    if (d1, d2) != (GrantRef(layout.first), GrantRef(layout.first + 1)) {
        fail(findings, format!("numbering must start at the layout's first ref, got {d1}, {d2}"));
    }
    *checks += 1;
    if table.validate(d1, &probe(0x1000)).is_err() || table.validate(d2, &probe(0x2000)).is_err() {
        fail(findings, "fresh declarations must validate".into());
    }
    *checks += 1;
    if !table.revoke(d1) {
        fail(findings, "revoking a live ref must succeed".into());
    }
    *checks += 1;
    match table.validate(d1, &probe(0x1000)) {
        Err(GrantError::UnknownRef { .. }) => {}
        other => fail(
            findings,
            format!("revoked ref must be UnknownRef, got {other:?}"),
        ),
    }
    *checks += 1;
    if table.validate(d2, &probe(0x2000)).is_err() {
        fail(findings, "revoking d1 must not affect d2".into());
    }
    *checks += 1;
    if table.revoke(d1) {
        fail(findings, "revoking a revoked ref must be inert".into());
    }
    let d3 = table.declare(vec![window(0x3000)]).expect("declare d3");
    *checks += 1;
    if d3 == d1 {
        fail(findings, "a revoked ref must never be reused".into());
    }
    *checks += 1;
    let revoked = table.revoke_all();
    if revoked != 2 || table.outstanding() != 0 {
        fail(
            findings,
            format!("revoke_all revoked {revoked}, outstanding {}", table.outstanding()),
        );
    }
    *checks += 1;
    if table.validate(d2, &probe(0x2000)).is_ok() || table.validate(d3, &probe(0x3000)).is_ok() {
        fail(findings, "refs must die with revoke_all".into());
    }

    // Capacity is exactly GRANT_TABLE_CAPACITY, and revocation frees a slot.
    let mut full = (layout.fresh)();
    let mut refs = Vec::new();
    let mut declared = 0usize;
    loop {
        match full.declare(vec![window((declared as u64 + 1) * 0x1000)]) {
            Ok(r) => {
                refs.push(r);
                declared += 1;
                if declared > GRANT_TABLE_CAPACITY {
                    break;
                }
            }
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
    if let Some(&first) = refs.first() {
        full.revoke(first);
        if full.declare(vec![window(0xdead_0000)]).is_err() {
            fail(findings, "revocation must free a capacity slot".into());
        }
    }

    // The exhaustion edge: the last reference is issued exactly once, then
    // the table fails closed forever — a numbering that restarted would
    // hand a stale holder's reference to a new declaration.
    let mut edge = (layout.fresh)().with_refs_spent(layout.last - layout.first - 1);
    let penultimate = edge.declare(vec![window(0x1000)]);
    let last = edge.declare(vec![window(0x2000)]);
    *checks += 1;
    if (penultimate, last) != (Ok(GrantRef(layout.last - 1)), Ok(GrantRef(layout.last))) {
        fail(
            findings,
            format!("the last two refs must be issued in order, got {penultimate:?}, {last:?}"),
        );
    }
    *checks += 1;
    if (0..3).any(|_| edge.declare(vec![window(0x3000)]) != Err(GrantError::TableFull)) {
        fail(findings, "a spent reference space must be TableFull forever".into());
    }
    *checks += 1;
    if edge.validate(GrantRef(layout.last), &probe(0x2000)).is_err() {
        fail(findings, "the last ref must stay live while the table is spent".into());
    }
    *checks += 1;
    edge.revoke(GrantRef(layout.last));
    if edge.declare(vec![window(0x3000)]) != Err(GrantError::TableFull) {
        fail(findings, "revoking must not reopen a spent reference space".into());
    }
    *checks += 1;
    edge.revoke_all();
    if edge.declare(vec![window(0x3000)]) != Err(GrantError::TableFull)
        || edge.validate(GrantRef(layout.last), &probe(0x2000)).is_ok()
    {
        fail(findings, "revoke_all must not reopen or resurrect anything".into());
    }
}

/// Replays a grant fixture: a `grant-revocation` one re-runs the home-slot
/// reuse scenario on its `layout=`; a `grant-soundness` one rebuilds the
/// table from `decl=` lines and re-runs the three-way comparison on the
/// `request=` line.
///
/// # Errors
///
/// `Err(reason)` when the comparison disagrees (the property is violated
/// under the given mutant), or a parse error for malformed fixtures.
pub fn replay(fixture: &Fixture, mutant: Option<Mutant>) -> Result<(), String> {
    if fixture.property == "grant-revocation" {
        let name = fixture.value("layout").ok_or("missing layout= line")?;
        let layout = LAYOUTS
            .iter()
            .find(|layout| layout.name == name)
            .ok_or_else(|| format!("unknown layout {name:?}"))?;
        return check_home_slot_reuse(layout, mutant);
    }
    let strict_end = mutant == Some(Mutant::GrantCoverOffByOne);
    let decls: Vec<MemOpGrant> = fixture
        .values("decl")
        .into_iter()
        .map(parse_decl)
        .collect::<Result<_, _>>()?;
    let request = parse_request(fixture.value("request").ok_or("missing request= line")?)?;
    let mut table = GrantTable::new();
    let grant = table
        .declare(decls.clone())
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
        assert_eq!(report.findings.len(), LAYOUTS.len(), "both layouts see it");
        let fixture = report.counterexample.expect("counterexample emitted");
        assert_eq!(fixture.value("layout"), Some("32-bit"));
        assert!(replay(&fixture, None).is_ok());
        assert!(replay(&fixture, Some(Mutant::GrantPageSkipRefCompare)).is_err());
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
