#!/usr/bin/env sh
# Full verification sweep: build, tests, driver-IR lint, and the
# recorded-trace conformance gate. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> instrumented-atomics sweep gate (no raw std::sync::atomic outside the shim)"
# Every atomic in the hypervisor and the CVD (the multi-guest engine's stop
# flag) must go through hypervisor::atomic so the MO/RC lint and the
# interleaving checker see the same ordering constants the code executes.
# Only the shim itself may name std::sync::atomic.
if grep -rn "std::sync::atomic" crates/hypervisor/src crates/cvd/src --include='*.rs' \
    | grep -v "^crates/hypervisor/src/atomic.rs"; then
    echo "ERROR: raw std::sync::atomic use outside crates/hypervisor/src/atomic.rs" >&2
    echo "       route it through the hypervisor::atomic instrumented shim" >&2
    exit 1
fi

echo "==> one-engine-seam gate (one engine, one backend-thread spawn, one serve step)"
# cvd::multi is the only place a backend thread is spawned, and the
# engines it subsumed must not grow back: the single-guest ones, and the
# per-substrate multi-guest pair with the virtual engine's private queues.
SPAWNS="$(grep -rn "thread::Builder" crates/cvd/src --include='*.rs' | wc -l)"
if [ "$SPAWNS" -ne 1 ]; then
    echo "ERROR: expected exactly one thread::Builder spawn under crates/cvd/src, found $SPAWNS" >&2
    exit 1
fi
if grep -rnE '\bVirtualEngine\b|\bWallEngine\b|CvdEngine|MultiVirtualEngine|MultiWallEngine' \
    crates tests examples || grep -rnF 'VecDeque<(u64, Vec<u8>)>' crates tests examples; then
    echo "ERROR: one engine serves both substrates; build_multi(kind, ..) picks the clock" >&2
    exit 1
fi
# One serve step: the server calls exec::dispatch once, multi.rs builds
# one FairSched, and the one backend thread keeps its name (the
# benchmark pins it by that name).
DISPATCHES="$(for f in crates/cvd/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done \
    | grep -E '(^|[^.[:alnum:]_])dispatch\(' | grep -vc 'fn dispatch(' || true)"
if [ "$DISPATCHES" -ne 1 ]; then
    echo "ERROR: expected exactly one call of dispatch( in non-test crates/cvd/src, found $DISPATCHES" >&2
    exit 1
fi
MULTI="$(sed '/^#\[cfg(test)\]/,$d' crates/cvd/src/multi.rs)"
if [ "$(printf '%s\n' "$MULTI" | grep -c 'FairSched::new')" -ne 1 ]; then
    echo "ERROR: non-test multi.rs must build exactly one FairSched" >&2
    exit 1
fi
if ! printf '%s\n' "$MULTI" | grep -qF '.name("cvd-mx-backend".into())'; then
    echo "ERROR: the engine's backend thread must be named cvd-mx-backend" >&2
    exit 1
fi

echo "==> one-device-file-step gate (every mode reaches the drivers through DeviceTable::serve)"
# Native, device-assignment and forwarded calls run a driver's file
# operations in cvd::devices' one serve step, which differs per mode only in
# the MemOps binding and the thread mark: a driver's FileOps method (called
# with its OpenContext `ctx`) is called from exactly one non-test function
# under crates/core/src and crates/cvd/src, one devfs is built outside
# crates/devfs, and Machine's second devfs and per-op host lookups must not
# grow back.
FILEOP_CALLERS="$(for f in crates/core/src/*.rs crates/cvd/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done \
    | awk '/^ *(pub(\([a-z]+\))? )?fn / { fn = $0 }
        /\.(open|release|read|write|ioctl|mmap|munmap|fault|poll|fasync)\(ctx[,)]/ { print fn }' \
    | sort -u | wc -l)"
if [ "$FILEOP_CALLERS" -ne 1 ]; then
    echo "ERROR: $FILEOP_CALLERS non-test functions call a driver's file operations; only DeviceTable::serve may" >&2
    exit 1
fi
DEVFS_BUILDS="$(grep -rnF 'DevFs::new()' crates tests examples benchmark --include='*.rs' \
    | grep -vc '^crates/devfs/' || true)"
if [ "$DEVFS_BUILDS" -ne 1 ]; then
    echo "ERROR: DevFs::new() appears $DEVFS_BUILDS times outside crates/devfs; the device table builds the one devfs" >&2
    exit 1
fi
if grep -rnwE 'host_devfs|host_ctx|host_device_of|host_device|host_id|backend_id' \
    crates tests examples benchmark --include='*.rs'; then
    echo "ERROR: Machine keeps a second devfs or per-op host lookups again; call DeviceTable::serve" >&2
    exit 1
fi

echo "==> one-incarnation gate (attach and a driver-VM reboot build every driver through one function)"
# DeviceSpec::incarnate builds a driver on its attached hardware, and both
# Machine::attach_device and recover_driver_vm call it: a reboot must not
# re-create drivers by code of its own. Outside test modules in
# crates/core/src each driver constructor, the isolation set-up and the
# IRQ status page wiring occur once, and incarnate has two callers.
CORE_SRC="$(for f in crates/core/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done)"
for ctor in 'RadeonDriver::new(' 'RadeonDriver::new_isolated(' 'I915Driver::new(' \
    'EvdevDriver::usb_mouse(' 'EvdevDriver::usb_keyboard(' 'UvcDriver::new(' \
    'PcmDriver::new(' 'NetmapDriver::new(' 'IsolationState::setup(' 'set_irq_status_page('; do
    COUNT="$(printf '%s\n' "$CORE_SRC" | grep -oF "$ctor" | wc -l)"
    if [ "$COUNT" -ne 1 ]; then
        echo "ERROR: crates/core/src has $COUNT occurrences of $ctor; build drivers only in DeviceSpec::incarnate" >&2
        exit 1
    fi
done
INCARNATIONS="$(printf '%s\n' "$CORE_SRC" | grep -F '.incarnate(' | grep -cvF 'fn incarnate(' || true)"
if [ "$INCARNATIONS" -ne 2 ]; then
    echo "ERROR: DeviceSpec::incarnate has $INCARNATIONS call sites; attach and recover_driver_vm are its two" >&2
    exit 1
fi

echo "==> one-GEM-transfer-path gate (GEM_PWRITE/GEM_PREAD are one hypervisor copy in every mode)"
# A GEM transfer names the buffer object's BAR range or pages, and the
# hypervisor copies between them and the guest process itself; under data
# isolation it checks each page's region owner and the driver VM never
# reads the payload (§4.2). So the Radeon driver and its isolation patch set
# read and write no memory of their own with kernel_read/kernel_write, and
# the staging buffer, the write-only-emulated staging page and its
# hypercall must not come back anywhere under crates/.
if grep -nE 'kernel_(write|read)\(' crates/drivers/src/gpu/driver.rs crates/drivers/src/gpu/isolation.rs; then
    echo "ERROR: the Radeon driver copies through its own memory; name the object to MemOps::copy_*_phys" >&2
    exit 1
fi
if grep -rnE '\bStaging\b|stage_to_|hc_emulate_write_only' crates --include='*.rs'; then
    echo "ERROR: a staged GEM transfer path is back; the hypervisor copies into the object in one" >&2
    exit 1
fi

echo "==> one-grant-store gate (the hypervisor and the engines share ShardedGrantTable; a ref is its slot's index)"
# There is one grant store: the hypervisor validates against the same
# ShardedGrantTable the engines do, and a declaration lives only in its
# home slot. The second store, its 32-bit layout, the slot trait and the
# probing lookup must not grow back anywhere.
if grep -rnE 'GrantTable::(new|for_guest)\(|BTreeMap<u32, GrantTable>|PageSlot|\bprobe\(' \
    crates tests examples --include='*.rs'; then
    echo "ERROR: a second grant store or the probing lookup is back; use ShardedGrantTable" >&2
    exit 1
fi
# A shard is a GrantTable of atomic slots and publishes one declaration per
# slot: shards.rs must not copy a table or publish a whole one, nor grow a per-ref
# search, home-slot lookup or allocator of its own again; its atomics are the
# slot pointer and the reader gate. The kernel's reference counter wraps
# inside the guest's range (masked with SEQ_MASK, never a u32 wrap into the
# next guest's bits), and GrantTable is not a value to copy.
SHARDS="$(sed '/^#\[cfg(test)\]/,$d' crates/hypervisor/src/shards.rs)"
if printf '%s\n' "$SHARDS" \
    | grep -nE 'binary_search|retain\(|compare_exchange|GUEST_SLOTS|next_seq|% *GRANT_TABLE_CAPACITY|probe\(|\.clone\(\)|AtomicPtr<GrantTable>'; then
    echo "ERROR: crates/hypervisor/src/shards.rs copies the grant table or re-implements part of the grant kernel" >&2
    exit 1
fi
if [ "$(printf '%s\n' "$SHARDS" | grep -cE '(: |\()Atomic(Ptr|Usize|U32|Bool)(<[^>]*>)?[,)]')" -ne 2 ]; then
    echo "ERROR: shards.rs must hold exactly two atomics (the slot pointer, the reader gate)" >&2
    exit 1
fi
GRANTS="$(sed '/^#\[cfg(test)\]/,$d' crates/hypervisor/src/grants.rs)"
if printf '%s\n' "$GRANTS" | grep -n 'wrapping_add' \
    || ! printf '%s\n' "$GRANTS" | grep -qE 'self\.next = .*& SEQ_MASK;'; then
    echo "ERROR: the grant kernel's reference counter must wrap inside the guest's range (& SEQ_MASK)" >&2
    exit 1
fi
if grep -B3 -E '^pub(\(crate\))? struct GrantTable ' crates/hypervisor/src/grants.rs \
    | grep -n 'derive(.*Clone'; then
    echo "ERROR: GrantTable is the page; it must not derive Clone" >&2
    exit 1
fi
grep -q 'pub static ATOMIC_SITES: \[&SiteSpec; 2\]' crates/hypervisor/src/shards.rs || {
    echo "ERROR: shards.rs must declare exactly two atomic sites (slot pointer, reader gate)" >&2
    exit 1
}

echo "==> no-scan gate (the wall op path follows ready edges; the scheduler keeps no map)"
# A wall-substrate op must not pay for guests that merely exist: the
# backend loop and complete() learn which guest has work from the ready
# rings and must not sweep every per-guest ring again, and FairSched keeps
# consumed time in a dense Vec with a heap over ready guests only.
if sed '/^#\[cfg(test)\]/,$d' crates/cvd/src/multi.rs \
    | grep -nE 'rings\.iter\(\)|rings\.clone\(\)|guests\.iter\(\)|in 0\.\.self\.guests\.len\(\)'; then
    echo "ERROR: crates/cvd/src/multi.rs iterates every guest's ring on the op path again" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/hypervisor/src/fairq.rs | grep -n 'BTreeMap'; then
    echo "ERROR: crates/hypervisor/src/fairq.rs must keep per-guest accounting dense (no BTreeMap)" >&2
    exit 1
fi

echo "==> one-ring-kernel gate (each Channel direction is an AtomicRing; no second ring kernel)"
# The virtual channel and the wall engine run one ring kernel, aring's
# Cursors under AtomicRing: the pure index kernel and the channel's slot
# vector of owned frames must not grow back.
if grep -rnE '\b(RingIndex|PushGrant|RING_CAPACITY)\b' crates tests examples; then
    echo "ERROR: a second ring kernel is back; drive an AtomicRing" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/hypervisor/src/channel.rs | grep -nF 'Vec<Option<Vec<u8>>>'; then
    echo "ERROR: crates/hypervisor/src/channel.rs keeps frames in a slot vector of its own" >&2
    exit 1
fi
if ! grep -q '    requests: AtomicRing,' crates/hypervisor/src/channel.rs \
    || ! grep -q '    responses: AtomicRing,' crates/hypervisor/src/channel.rs; then
    echo "ERROR: each Channel direction must be an AtomicRing" >&2
    exit 1
fi

echo "==> a-publication-reads-no-consumer-cursor gate (a push loads no head; no shipped try_push caller)"
# A push is write-only toward its consumer: the kernel's Cursors::push sees
# a full ring through the claimed slot's sequence and never loads the
# consumer's head, which on real threads is a cross-core miss per push.
# AtomicRing::try_push (the view before the push) stays only for the
# benchmark's probes; nothing else may call it.
if awk '/fn push<S: SeqSlot>/ { on = 1 } on { print } on && /^    }$/ { exit }' \
    crates/hypervisor/src/aring.rs | grep -nw 'head'; then
    echo "ERROR: Cursors::push reads the consumer's head again; a publication reads no consumer cursor" >&2
    exit 1
fi
if grep -rn 'try_push(' crates tests examples --include='*.rs' \
    | grep -v '^crates/hypervisor/src/aring.rs:'; then
    echo "ERROR: a shipped caller uses try_push; call push and ring after every publication" >&2
    exit 1
fi

echo "==> one-encoder gate (a frame is encoded into a slot-sized buffer; a send allocates nothing)"
# WireCodec::encode_into is the one encoder: it writes into a caller's
# buffer, and the channel's sends encode into a stack slot-frame and push
# that. The Vec-returning trait encoder must not come back, nor may a send
# build or copy out an owned frame.
if grep -rn 'encode_wire' crates tests examples; then
    echo "ERROR: encode_wire is gone; implement WireCodec::encode_into" >&2
    exit 1
fi
SENDS="$(sed '/^#\[cfg(test)\]/,$d' crates/hypervisor/src/channel.rs | awk '
    /^    (pub )?fn (send|send_request|send_response)[(<]/ { body = 1; found++ }
    body { print }
    body && /^    }$/ { body = 0 }
    END { if (found != 3) print "MISSING: " found " of send/send_request/send_response" }')"
if printf '%s\n' "$SENDS" | grep -nE 'to_vec\(|Vec<u8>|MISSING'; then
    echo "ERROR: a Channel send allocates a frame; encode into a [u8; ARING_SLOT_BYTES] on the stack" >&2
    exit 1
fi

echo "==> one-page-map gate (the EPT and the IOMMU store packed entries in PageMap, filled a run at a time)"
# Both second translation stages are thin wrappers over mem::pagemap's
# two-level radix (two indexed loads per lookup): neither may keep a sorted
# or hashed map again, nor index pages by hand. SystemMemory moves bytes
# through caller buffers; it allocates none sized by a caller's length.
for f in crates/mem/src/ept.rs crates/mem/src/iommu.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'BTreeMap|HashMap|binary_search|Vec<Option|>> *9|& *511|LEAF_'; then
        echo "ERROR: $f keeps a page-number lookup of its own; store its entries in PageMap" >&2
        exit 1
    fi
done
if ! grep -q 'entries: PageMap<EptEntry>,' crates/mem/src/ept.rs \
    || ! grep -q 'entries: PageMap<DmaEntry>,' crates/mem/src/iommu.rs; then
    echo "ERROR: Ept and IommuDomain must store their entries in PageMap" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/mem/src/sysmem.rs | grep -nF 'vec![0u8; len'; then
    echo "ERROR: crates/mem/src/sysmem.rs sizes a buffer by a caller's length" >&2
    exit 1
fi
# A leaf is one table page of packed 8-byte words, and RAM, BARs and the
# identity DMA map are filled a run at a time: the three set-up functions
# of hv.rs call map_run and hold no per-page loop of EPT or IOMMU maps.
if ! grep -q '^type Leaf = \[Option<NonZeroU64>; LEAF_ENTRIES\];' crates/mem/src/pagemap.rs; then
    echo "ERROR: a PageMap leaf must be [Option<NonZeroU64>; LEAF_ENTRIES], one table page" >&2
    exit 1
fi
if grep -rn 'map_contiguous' crates; then
    echo "ERROR: map_contiguous is gone; map a run with IommuDomain::map_run" >&2
    exit 1
fi
for fn in create_vm map_device_bar map_identity_dma; do
    BODY="$(sed '/^#\[cfg(test)\]/,$d' crates/hypervisor/src/hv.rs | awk -v fn="$fn" '
        $0 ~ "^    (pub )?fn " fn "[(<]" { body = 1; found = 1 }
        body { print }
        body && /^    }$/ { body = 0 }
        END { if (!found) print "MISSING: " fn }')"
    if printf '%s\n' "$BODY" | grep -nE 'MISSING|ept_mut\(\)\.map\(|domain_mut\([a-z_]*\)\.map\(|^ *(for|while|loop)\b'; then
        echo "ERROR: hv.rs's $fn maps page by page; fill the run with map_run" >&2
        exit 1
    fi
    if ! printf '%s\n' "$BODY" | grep -q 'map_run('; then
        echo "ERROR: hv.rs's $fn does not map its pages as one run (map_run)" >&2
        exit 1
    fi
done

echo "==> demand-zero gate (allocating a frame allocates no bytes; the first write does)"
# A machine set-up allocates every page of RAM and VRAM as a frame and
# writes to almost none of them, so SystemMemory::alloc_frame hands out a
# frame that reads as zeros and holds no bytes: a page of its own comes with
# the first write. Its body must not allocate a page again.
ALLOC_FRAME="$(awk '/^    pub fn alloc_frame\(/ { on = 1 } on { print } on && /^    }$/ { exit }' \
    crates/mem/src/sysmem.rs)"
if [ -z "$ALLOC_FRAME" ]; then
    echo "ERROR: SystemMemory::alloc_frame not found in crates/mem/src/sysmem.rs" >&2
    exit 1
fi
if printf '%s\n' "$ALLOC_FRAME" | grep -nE 'vec!|Box::new|into_boxed_slice'; then
    echo "ERROR: SystemMemory::alloc_frame allocates the frame's bytes; back a frame on its first write" >&2
    exit 1
fi

echo "==> one-op-lifecycle gate (a synchronous op is a pipeline of one; the backend keeps no scheduler)"
# cvd::frontend has one post/complete pair that both Machine::ioctl and
# ioctl_pipelined + flush_pipeline go through: the watchdog, containment
# and breaker arms must not be written out a second time, span labels come
# from WireOp::span_labels, and the backend must not grow back a
# cross-guest scheduler nothing calls.
FRONTEND="$(sed '/^#\[cfg(test)\]/,$d' crates/cvd/src/frontend.rs)"
LAG_CHECKS="$(printf '%s\n' "$FRONTEND" | grep -cE 'lag *[<>]=? *DEFAULT_OP_DEADLINE_NS' || true)"
if [ "$LAG_CHECKS" -ne 1 ]; then
    echo "ERROR: expected exactly one delivery-lag comparison against DEFAULT_OP_DEADLINE_NS in frontend.rs, found $LAG_CHECKS" >&2
    exit 1
fi
CONTAINMENTS="$(printf '%s\n' "$FRONTEND" | grep -c 'mark_driver_vm_failed(' || true)"
if [ "$CONTAINMENTS" -gt 2 ]; then
    echo "ERROR: frontend.rs contains the driver VM at $CONTAINMENTS call sites; the one lifecycle needs at most two" >&2
    exit 1
fi
if printf '%s\n' "$FRONTEND" | grep -n 'struct OpTrace'; then
    echo "ERROR: span labels come from WireOp::span_labels; OpTrace must not come back" >&2
    exit 1
fi
if grep -n 'FairSched' crates/cvd/src/backend.rs; then
    echo "ERROR: crates/cvd/src/backend.rs names FairSched; fair-share runs in the engines and the GPU model" >&2
    exit 1
fi

echo "==> one-memop-path gate (every grant-checked driver memory operation enters through hc_memops)"
# A scalar memory operation is a one-element Hypervisor::hc_memops call and
# the CVD keeps one MemOps binding: the per-op hypercalls, the batch entry
# point and the binding's engine forwarder must not grow back, and the
# validate -> trace sequence is written in one function of hv.rs.
if grep -rnwE 'hc_copy_from_guest|hc_copy_to_guest|hc_insert_pfn|hc_zap_page|hv_memops_batch|BatchMemOpResult|BatchedMemOps|MemEngine' \
    crates tests examples; then
    echo "ERROR: a second memory-operation path is back; use Hypervisor::hc_memops / HypercallMemOps" >&2
    exit 1
fi
for call in 'validate_grant_batch(' 'trace_mem_op('; do
    CALLERS="$(sed '/^#\[cfg(test)\]/,$d' crates/hypervisor/src/hv.rs | awk -v call="$call" '
        /^ *(pub )?fn / { fn = $0 }
        index($0, call) && !index($0, "fn " call) { print fn }' | sort -u | wc -l)"
    if [ "$CALLERS" -gt 1 ]; then
        echo "ERROR: $CALLERS functions in crates/hypervisor/src/hv.rs call $call; only hc_memops may" >&2
        exit 1
    fi
done

echo "==> experiments argument gate (--help lists the flags, an unknown flag exits 2, neither writes)"
# experiments rewrites BENCH_experiments.json and results/ on every run it
# accepts, so a typo must not pass for a run: --help prints the flag list
# and exits 0, an unknown flag exits 2, and neither touches an artifact.
ARTIFACTS_BEFORE="$(cat BENCH_experiments.json results/*.csv | cksum)"
status=0
cargo run -q --release -p paradice-bench --bin experiments -- --help >/dev/null || status=$?
if [ "$status" -ne 0 ]; then
    echo "ERROR: experiments --help exited $status, expected 0" >&2
    exit 1
fi
status=0
cargo run -q --release -p paradice-bench --bin experiments -- --bogus >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "ERROR: experiments --bogus exited $status, expected 2" >&2
    exit 1
fi
if [ "$(cat BENCH_experiments.json results/*.csv | cksum)" != "$ARTIFACTS_BEFORE" ]; then
    echo "ERROR: experiments --help or --bogus rewrote BENCH_experiments.json or results/" >&2
    exit 1
fi

echo "==> trusted-path ceiling gate (Table 2's CVD + hypervisor API row may shrink, not grow)"
# The paper's argument for the device-file boundary is how little code sits
# on it (Table 2: 5 230 lines of CVD + hypervisor API). Ours is counted by
# `experiments --table2` (non-blank, non-comment lines before each file's
# first #[cfg(test)], over the module list in crates/bench/src/
# experiments.rs). Lower this pin when the figure drops; raising it needs a
# reason in CHANGES.md.
TRUSTED_PATH_CEILING=4961
cargo run -q --release -p paradice-bench --bin experiments -- --table2 >/dev/null
TRUSTED_PATH="$(awk -F, '$4 ~ /^trusted path/ { print $5 }' results/table2.csv)"
if [ -z "$TRUSTED_PATH" ] || [ "$TRUSTED_PATH" -gt "$TRUSTED_PATH_CEILING" ]; then
    echo "ERROR: trusted path is ${TRUSTED_PATH:-uncounted} lines, over the ceiling of $TRUSTED_PATH_CEILING" >&2
    exit 1
fi

echo "==> one-analyzer gate (one symbolic reading of the driver IR; Table 2's analyzer row may shrink, not grow)"
# The extractor and the lint passes read the handler IR through one SymVal
# and one SymEnv (crates/analyzer/src/extract.rs). The lint-private lattice,
# its environment merge and the syntactic double-fetch walker must not come
# back: the walker's findings live on as data in
# tests/fixtures/syntactic_double_fetch.expected. The analyzer row is read
# from the results/table2.csv the trusted-path gate just wrote. Lower the
# pin when the figure drops; raising it needs a reason in CHANGES.md.
ANALYZER_CEILING=4184
SYMVAL_ENUMS="$(grep -rw 'enum SymVal' crates/analyzer/src | wc -l)"
if [ "$SYMVAL_ENUMS" -ne 1 ]; then
    echo "ERROR: crates/analyzer/src defines $SYMVAL_ENUMS enum SymVal; the analyzer has exactly one" >&2
    exit 1
fi
if grep -rnwE 'SymScalar|check_syntactic|syn_walk|merge_env' crates/analyzer/src; then
    echo "ERROR: a second symbolic lattice, environment merge or the syntactic double-fetch walker is back" >&2
    exit 1
fi
ANALYZER="$(awk -F, '$4 == "paradice-analyzer" { print $5 }' results/table2.csv)"
if [ -z "$ANALYZER" ] || [ "$ANALYZER" -gt "$ANALYZER_CEILING" ]; then
    echo "ERROR: paradice-analyzer is ${ANALYZER:-uncounted} lines, over the ceiling of $ANALYZER_CEILING" >&2
    exit 1
fi

echo "==> no-stopwatch gate (no test under crates/ or tests/ takes an Instant or calls .elapsed())"
# Timing thresholds live in the benchmark's gates, not in cargo test: a
# test that takes no Instant cannot compare one. (Virtual-clock reads —
# now_ns() on a SimClock or a Machine — are exact and stay.)
STOPWATCHES="$(find crates tests -name '*.rs' | xargs awk '
    FNR == 1 { in_test = (FILENAME ~ /(^|\/)tests\//) }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    in_test && /Instant|\.elapsed\(\)/ { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$STOPWATCHES" ]; then
    echo "$STOPWATCHES"
    echo "ERROR: a test takes a wall-clock stopwatch; assert outcomes, not durations" >&2
    exit 1
fi

echo "==> no-per-byte-JIT-state gate (the JIT pins fetched ranges, sized by the slice, not by user data)"
# A CopyFromUser fetches min(len, extent) bytes and pins them as one range;
# the per-byte map and the buffer sized by a user-supplied length must not
# come back (they made a 16-KiB GEM_PWRITE cost 2 ms of grant derivation).
if grep -nF -e 'BTreeMap<u64, u8>' -e 'vec![0u8; len as usize]' crates/analyzer/src/jit.rs; then
    echo "ERROR: crates/analyzer/src/jit.rs keeps per-byte state or sizes a buffer by a user length" >&2
    exit 1
fi

echo "==> compile-once-cross-once gate (a JIT slice is validated when compiled; a bulk payload crosses in one copy)"
# IoctlKnowledge compiles each Extraction::Jit slice into a JitProgram once;
# per op only JitProgram::run executes, on a reused scratch, and
# evaluate_slice is compile + run. Slice validation must stay in the
# compile step and jit.rs must keep one statement interpreter. Bulk crosses
# once: a PWRITE/PREAD is one MemOps copy the hypervisor makes straight
# between process pages and the object (the one-GEM-transfer-path gate keeps
# staging out of crates/), so neither GPU driver copies a staged payload
# through the BAR with kernel_write or kernel_read, and neither zero-fills a
# fresh buffer per transfer.
JIT_SRC="$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/analyzer/src/jit.rs)"
VALIDATORS="$(printf '%s\n' "$JIT_SRC" | awk '
    /^ *(pub )?fn [a-z_]+/ { name = $0; sub(/^ *(pub )?fn /, "", name); sub(/[(<].*/, "", name) }
    /field_extents\(/ && !/fn field_extents\(/ { print name }')"
if [ "$VALIDATORS" != "compile" ]; then
    echo "ERROR: field_extents( must be called from JitProgram::compile only (callers: ${VALIDATORS:-none})" >&2
    exit 1
fi
if [ "$(printf '%s\n' "$JIT_SRC" | grep -c 'fn exec(')" -ne 1 ] ||
    [ "$(printf '%s\n' "$JIT_SRC" | grep -c 'Stmt::Return => return')" -ne 1 ]; then
    echo "ERROR: crates/analyzer/src/jit.rs must define exactly one statement interpreter" >&2
    exit 1
fi
if grep -nF -e 'kernel_write(self.gpu.bar_base()' -e 'kernel_read(self.gpu.bar_base()' \
    crates/drivers/src/gpu/driver.rs crates/drivers/src/gpu/i915.rs; then
    echo "ERROR: a GPU driver copies a staged payload through the BAR; let the hypervisor copy it in one" >&2
    exit 1
fi
if grep -nF 'vec![0u8; size' crates/drivers/src/gpu/driver.rs crates/drivers/src/gpu/i915.rs; then
    echo "ERROR: a GPU driver zero-fills a fresh buffer per transfer; let the hypervisor copy into the object" >&2
    exit 1
fi

echo "==> pipelined-crossing-allocates-nothing gate (one lent deferred batch, one fingerprinted FIFO cache)"
# The backend lends its one DeferredBatch to every dispatch: a deferred
# copy_to_user copies into the batch's byte arena, never into a Vec of its
# own. The grant cache is one VecDeque of (fingerprint, key, ref): the
# ordered map and the key ordering it needed must not come back.
if sed '/^#\[cfg(test)\]/,$d' crates/cvd/src/memops.rs | grep -nF '.to_vec()'; then
    echo "ERROR: crates/cvd/src/memops.rs copies a deferred write into a Vec of its own; use the batch's arena" >&2
    exit 1
fi
CACHE_SRC="$(sed '/^#\[cfg(test)\]/,$d' crates/cvd/src/cache.rs)"
if printf '%s\n' "$CACHE_SRC" | grep -n 'BTreeMap'; then
    echo "ERROR: crates/cvd/src/cache.rs keeps an ordered map; the cache is one fingerprinted FIFO" >&2
    exit 1
fi
if printf '%s\n' "$CACHE_SRC" | grep -B3 -E '^pub struct GrantCacheKey' | grep -nE 'derive\(.*Ord'; then
    echo "ERROR: GrantCacheKey derives an ordering; a lookup compares fingerprints, then keys" >&2
    exit 1
fi

echo "==> paradice-lint (static driver-IR suite; nonzero on errors)"
cargo run -q --release -p paradice-bench --bin paradice-lint

echo "==> paradice-lint --fixtures --json (seeded bugs MUST fail; output must be JSON)"
FIXJSON="$(mktemp)"
if cargo run -q --release -p paradice-bench --bin paradice-lint -- --fixtures --json \
    >"$FIXJSON" 2>&1; then
    echo "ERROR: seeded fixture bugs did not produce a nonzero exit" >&2
    rm -f "$FIXJSON"
    exit 1
fi
# Smoke the JSON shape: findings + per-pass stats must both be present.
grep -q '"findings"' "$FIXJSON" && grep -q '"stats"' "$FIXJSON" || {
    echo "ERROR: --json output missing findings/stats keys" >&2
    cat "$FIXJSON" >&2
    rm -f "$FIXJSON"
    exit 1
}
rm -f "$FIXJSON"

echo "==> paradice-verify --all (isolation-core proofs; nonzero on any disproof)"
VERIFYJSON="$(mktemp)"
cargo run -q --release -p paradice-verify --bin paradice-verify -- --all --json \
    >"$VERIFYJSON"
grep -q '"proved_all":true' "$VERIFYJSON" || {
    echo "ERROR: paradice-verify exited 0 but did not prove everything" >&2
    cat "$VERIFYJSON" >&2
    rm -f "$VERIFYJSON"
    exit 1
}
rm -f "$VERIFYJSON"

echo "==> paradice-verify --mutant (every seeded mutant MUST be disproved: exit 1)"
MUTANTS="$(cargo run -q --release -p paradice-verify --bin paradice-verify -- --list \
    | sed -n '/^mutants/,$p' | sed 1d)"
if [ -z "$MUTANTS" ]; then
    echo "ERROR: paradice-verify --list printed no mutants" >&2
    exit 1
fi
for mutant in $MUTANTS; do
    status=0
    cargo run -q --release -p paradice-verify --bin paradice-verify -- \
        --all --mutant "$mutant" >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "ERROR: seeded mutant $mutant: expected exit 1 (disproved), got $status" >&2
        exit 1
    fi
done

echo "==> cargo miri (optional UB/race interpreter; skipped when miri is absent)"
if cargo miri --version >/dev/null 2>&1; then
    # The real-thread stress loops take minutes under miri's slowdown, so
    # the interpreted run covers the shim and the protocol tests and skips
    # the stress/churn/wakeup loops.
    cargo miri test -p paradice-hypervisor -- atomic:: aring:: shards:: \
        --skip wakeup --skip churn --skip stress --skip concurrent
else
    echo "NOTICE: cargo miri not installed; skipping the interpreted run" \
         "(the race-ring/doorbell/shards/ready proofs above remain the required gate)"
fi

echo "==> thread sanitizer (optional; needs nightly rustc with -Zsanitizer)"
if rustc --version | grep -q nightly; then
    RUSTFLAGS="-Zsanitizer=thread" cargo test -q -p paradice-hypervisor --tests
else
    echo "NOTICE: stable rustc has no -Zsanitizer=thread; skipping TSan" \
         "(the race-ring/doorbell/shards/ready proofs above remain the required gate)"
fi

echo "==> trace-replay gate (record reference workload, replay it)"
TRACE="$(mktemp)"
trap 'rm -f "$TRACE"' EXIT
cargo run -q --release -p paradice-bench --bin experiments -- --trace "$TRACE"
cargo run -q --release -p paradice-bench --bin paradice-lint -- --replay "$TRACE"

echo "==> fault-injection campaign (fixed seed; nonzero on guest failure or <95% recovery)"
cargo run -q --release -p paradice-bench --bin fault-campaign -- --seed 7 --campaigns 12

echo "==> wall-clock differential test (both substrates, release)"
cargo test --release -q -p paradice-bench --test wallclock

echo "==> benchmark package self-test (--quick on all six workloads)"
# The engine seam and Machine are measured by benchmark/ (BENCHMARK.json);
# its own test runs every workload briefly and checks the canaries,
# conservation, per-guest FIFO and backpressure.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> adversary campaign smoke (fixed seeds, both substrates; zero breaches)"
# ~2000 adversarial steps total: 100 steps x 5 families x 2 substrates x
# 2 seeds. The virtual cells are bit-deterministic per seed; the gate is
# zero breaches AND nonzero detections (a campaign that detects nothing
# proved nothing).
ADVJSON="$(mktemp)"
for seed in 7 23; do
    cargo run -q --release -p paradice-adversary --bin paradice-adversary -- \
        --seed "$seed" --steps 100 --engine both --json >"$ADVJSON"
    grep -q '"pass":true' "$ADVJSON" || {
        echo "ERROR: adversary campaign (seed $seed) exited 0 without passing" >&2
        cat "$ADVJSON" >&2
        rm -f "$ADVJSON"
        exit 1
    }
done
rm -f "$ADVJSON"

echo "==> adversary vs seeded grant bypass (containment-bypass mutant MUST breach)"
if cargo run -q --release -p paradice-adversary --bin paradice-adversary -- \
    --seed 7 --steps 100 --engine virtual --mutant grant-bypass >/dev/null 2>&1; then
    echo "ERROR: the seeded grant-bypass mutant was not caught by the adversary" >&2
    exit 1
fi

echo "==> all checks passed"
