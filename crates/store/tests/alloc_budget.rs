//! The replication path's allocation budget, pinned as a count.
//!
//! Fig. 4/5's handlers ask for no allocation per update, and the
//! engine's replication path is built to match: a flushed batch moves
//! into its last recipient's envelope, the other recipients' copies and
//! the next pending batch are drawn from buffers earlier deliveries
//! handed back (`InterestBatchCausalBroadcast::recycle`) — the worker's
//! own stock first, then the engine's shared `BufPool`, which a full
//! stock spills into — and a header is two arrays whatever its
//! dirty-row count. This test runs one engine shaped like the
//! benchmark's `write_fanout` under a counting global allocator, three
//! times — fault-free, with worker 3 crashed from op 50,000 to its
//! recovery at op 150,000, and fault-free over convergent registers —
//! and holds each run to two budgets:
//!
//! * **allocation requests per operation** (`alloc` + `realloc`; the
//!   replication path made 0.93 before envelopes moved and buffers
//!   were recycled, 0.115 – 0.160 over ten runs with private stocks
//!   only, and 0.055 – 0.094 over thirty with the shared pool);
//! * **large requests** (≥ 1 KiB: a 32-op payload vector is 1.5 KB,
//!   above glibc's per-thread cache limit, so freeing one from another
//!   thread takes the allocating thread's arena lock) — every one of
//!   them must be a counted miss of both recycled tiers, one request
//!   each, plus a small allowance for channel blocks and long-lived
//!   tables (before recycling the path made 7.2 per flushed batch:
//!   six clones and a regrow).
//!
//! How often the tiers *hit* is decided by the scheduler, not the
//! code — with fewer cores than workers a worker wakes to a backlog
//! far deeper than its stock and the pool together, hands most of it
//! to the allocator and then out-draws what is left. With 4 workers on
//! 2 cores a private stock alone made 2.2 – 2.6 large requests per
//! batch; the pool makes 1.1 – 1.4 in some runs and 2.3 – 2.5 again
//! in others, where half the draws find the pool empty and half the
//! spills find it full (the requests per op stay down either way) — so
//! the second budget is stated against the miss counter, which makes
//! it a count that cannot flake. That the tiers do hit is pinned
//! single-threaded, in `cbm-net`
//! (`recycled_buffers_carry_the_next_flush`,
//! `a_full_stock_spills_into_the_pool_and_an_empty_one_draws_from_it`).
//! Measured before/after figures are in `docs/THROUGHPUT.md`.
//!
//! The crash leg pins that a crash-only plan keeps no repair log: its
//! misses are closed by the recovery transfer, never by a nack, so it
//! ships by move like the fault-free leg. When it copied every envelope
//! into a log it made 0.34 requests per op and 4.1 large requests per
//! batch; without the copies it makes about 0.09 and 1.2.
//!
//! The convergent leg runs registers in `Mode::Convergent` on the same
//! path and budgets (0.053 – 0.058 requests per op in release builds,
//! level with the causal legs): every register write becomes its
//! object's arbitration floor, an inline `(key, state)` pair, so the
//! Lamport arbitration adds no request. Every leg verifies every
//! windowed output (`sample_every: 1`), as the benchmark does: the
//! CCv window witness copies one 8 KiB space state per sampled output
//! into one scratch state and steps it in place, where it used to
//! clone the space per replayed update (0.129 requests per op, 3.5
//! large requests per batch). One convergent register table
//! driven alone, with late writes and drains, pins that as an exact
//! count of 0 (the log used to push each object's newest write into a
//! vector, one allocation per object written). Debug builds keep every
//! arbitration key since the last drain in a `BTreeSet`, for the
//! applied-twice check, so both convergent counts are release-build
//! budgets.
//!
//! The allocator wrapper is the workspace's only `unsafe` outside the
//! library code: library crates stay `#![forbid(unsafe_code)]` but for
//! `cbm-net`'s one call into its CRC fold kernel, and this test crate
//! alone implements `GlobalAlloc`, by delegating to [`System`].

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_adt::wire::Wire;
use cbm_adt::Adt;
use cbm_net::clock::Timestamp;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_store::objects::ObjectTable;
use cbm_store::{
    run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Requests of at least this many bytes are "large".
const LARGE: usize = 1024;
/// Objects in every leg's space.
const OBJECTS: u32 = 1024;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// `alloc` + `realloc` calls while counting.
static REQUESTS: AtomicU64 = AtomicU64::new(0);
/// Those of at least [`LARGE`] bytes.
static LARGE_REQUESTS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

fn count(size: usize) {
    if COUNTING.load(Relaxed) {
        REQUESTS.fetch_add(1, Relaxed);
        if size >= LARGE {
            LARGE_REQUESTS.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method delegates to `System` with its arguments
// unchanged; the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One leg: a `write_fanout`-shaped engine run of `adt` in `mode` under
/// `chaos` — 10% reads (`read`), the rest `update`s — counted from its
/// start to its end and held to both budgets.
fn leg<T>(
    name: &str,
    adt: &T,
    mode: Mode,
    chaos: FaultPlan,
    read: T::Input,
    update: impl Fn(&mut StdRng) -> T::Input + Sync,
) where
    T: Adt + Clone + Send + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
{
    const WORKERS: usize = 4;
    const OPS_PER_WORKER: usize = 200_000;
    let cfg = StoreConfig {
        workers: WORKERS,
        objects: OBJECTS as usize,
        ops_per_worker: OPS_PER_WORKER,
        mode,
        batch: BatchPolicy::Every(32),
        verify: VerifyConfig {
            every_ops: 50_000,
            window_ops: 48,
            sample_every: 1,
            monitor: false,
        },
        seed: 11,
        sharding: ShardConfig::full(),
        chaos,
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    };

    REQUESTS.store(0, Relaxed);
    LARGE_REQUESTS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let report = run(adt, &cfg, |_, _, rng: &mut StdRng| {
        let obj = rng.gen_range(0..OBJECTS);
        if rng.gen_bool(0.10) {
            SpaceInput::new(obj, read.clone())
        } else {
            SpaceInput::new(obj, update(rng))
        }
    });
    COUNTING.store(false, Relaxed);
    let (requests, large) = (REQUESTS.load(Relaxed), LARGE_REQUESTS.load(Relaxed));

    assert!(report.verified() && report.drains_converged, "{name}");
    let ops = (WORKERS * OPS_PER_WORKER) as u64;
    let batches = report.batches_sent;
    assert!(
        batches > ops / 40,
        "{name}: the run replicated: {batches} batches"
    );
    let metric = |m| report.metric(m).expect("a published counter");
    let reused = metric("envelope_bufs_reused_total");
    let pooled = metric("envelope_bufs_pooled_total");
    let misses = metric("envelope_bufs_allocated_total");
    // every stamped envelope draws one buffer; those addressed to a
    // down worker are stamped, then suppressed (a drop to it) before
    // they reach the wire, and the wire also carries one state
    // transfer per recovery (full replication elects one helper)
    let transfers = report.chaos.recoveries.len() as u64;
    assert_eq!(
        reused + misses + transfers,
        report.msgs_sent + report.chaos.drops,
        "{name}: one buffer per stamped envelope"
    );
    assert!(pooled <= reused, "{name}: pool hits are reuses");
    assert_eq!(
        metric("repair_log_copies_total"),
        0,
        "{name}: nothing can be lost between live replicas"
    );
    let per_op = requests as f64 / ops as f64;
    eprintln!(
        "alloc_budget: [{name}] {requests} allocation requests over {ops} ops = {per_op:.3}/op"
    );
    eprintln!(
        "alloc_budget: [{name}] {large} of >= {LARGE} B over {batches} batches = {:.3}/batch",
        large as f64 / batches as f64
    );
    eprintln!(
        "alloc_budget: [{name}] envelope buffers reused {reused} (pooled {pooled}), allocated {misses}"
    );
    // debug builds keep every arbitration key since the last drain in a
    // `BTreeSet` (`ArbLog`'s applied-twice check), which allocates as it
    // grows: the convergent count is a release-build budget
    if mode == Mode::Causal || !cfg!(debug_assertions) {
        assert!(
            per_op <= 0.12,
            "{name}: {per_op:.3} allocation requests per op"
        );
    }
    assert!(
        large <= misses + batches / 2,
        "{name}: {large} requests of >= {LARGE} B: more than the {misses} stock and pool \
         misses (one request each) and half a request per each of {batches} batches explain"
    );
}

/// A convergent register's arbitration log allocates nothing past
/// set-up: every write becomes its object's floor or is absorbed behind
/// it, in order or late, and a drain reseeds in place. Counted on one
/// table, single-threaded, so the count is exact.
fn register_table_allocates_nothing() {
    const WRITES: u64 = 100_000;
    let mut table = ObjectTable::new(&Register, OBJECTS as usize, Mode::Convergent);
    let mut rng = StdRng::seed_from_u64(11);
    REQUESTS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    for chunk in 0..WRITES / 8 {
        for j in 0..8 {
            // every other chunk of eight arrives newest first, so its
            // older writes to a hot object land behind newer ones
            let t = chunk * 8 + if chunk % 2 == 1 { 7 - j } else { j };
            let obj = rng.gen_range(0..16);
            let ts = Timestamp::new(t, (t % 4) as usize);
            table.apply_update(&Register, obj, ts, &RegInput::Write(t));
        }
        if chunk % 1_250 == 1_249 {
            table.compact();
        }
    }
    COUNTING.store(false, Relaxed);
    let requests = REQUESTS.load(Relaxed);
    eprintln!("alloc_budget: [register-table] {requests} allocation requests over {WRITES} writes");
    assert_eq!(table.refolds, 0, "a register write never refolds");
    // debug builds' applied-twice key set allocates as it grows
    if !cfg!(debug_assertions) {
        assert_eq!(requests, 0, "a register log allocates nothing");
    }
}

/// Every leg in one test, one after the other: the counters are
/// process-global, so two tests running at once would count each
/// other's requests.
#[test]
fn replication_stays_inside_its_allocation_budget() {
    let add = |rng: &mut StdRng| CtInput::Add(rng.gen_range(1..100));
    leg(
        "fault-free",
        &Counter,
        Mode::Causal,
        FaultPlan::new(),
        CtInput::Read,
        add,
    );
    // worker 3 is down for epochs 1 and 2: the plan loses nothing
    // between live replicas, so it keeps no repair log either
    leg(
        "crash",
        &Counter,
        Mode::Causal,
        FaultPlan::new()
            .at(50_000, Fault::Crash(3))
            .at(150_000, Fault::Recover(3)),
        CtInput::Read,
        add,
    );
    // the same replication path in convergent mode, where every write
    // is its object's arbitration floor
    leg(
        "convergent-register",
        &Register,
        Mode::Convergent,
        FaultPlan::new(),
        RegInput::Read,
        |rng| RegInput::Write(rng.gen_range(1..100)),
    );
    register_table_allocates_nothing();
}
