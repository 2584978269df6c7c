//! The replication path's allocation budget, pinned as a count.
//!
//! Fig. 4/5's handlers ask for no allocation per update, and the
//! engine's replication path is built to match: a flushed batch moves
//! into its last recipient's envelope, the other recipients' copies and
//! the next pending batch are drawn from buffers earlier deliveries
//! handed back (`InterestBatchCausalBroadcast::recycle`), and a header
//! is two arrays whatever its dirty-row count. This test runs one
//! engine shaped like the benchmark's `write_fanout` under a counting
//! global allocator and holds the run to two budgets:
//!
//! * **allocation requests per operation** (`alloc` + `realloc`; the
//!   parent of the PR that added this test made 0.93);
//! * **large requests** (≥ 1 KiB: a 32-op payload vector is 1.5 KB,
//!   above glibc's per-thread cache limit, so freeing one from another
//!   thread takes the allocating thread's arena lock) — every one of
//!   them must be a counted miss of the recycled stock, one request
//!   each, plus a small allowance for channel blocks and long-lived
//!   tables (the parent made 7.2 per flushed batch: six clones and a
//!   regrow).
//!
//! How often the stock *hits* is decided by the scheduler, not the
//! code — with fewer cores than workers a worker wakes to a backlog
//! far deeper than the stock, hands most of it to the allocator and
//! then out-draws what is left (2.0 – 2.4 large requests per batch
//! with 4 workers on 2 cores) — so the second budget is stated against
//! the stock's own miss counter, which makes it a count that cannot
//! flake. That the stock does hit is pinned
//! single-threaded, in `cbm-net`
//! (`recycled_buffers_carry_the_next_flush`). Measured before/after
//! figures are in `docs/THROUGHPUT.md`.
//!
//! The allocator wrapper is the workspace's only `unsafe` outside the
//! library code: library crates stay `#![forbid(unsafe_code)]` but for
//! `cbm-net`'s one call into its CRC fold kernel, and this test crate
//! alone implements `GlobalAlloc`, by delegating to [`System`].

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::FaultPlan;
use cbm_store::{
    run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Requests of at least this many bytes are "large".
const LARGE: usize = 1024;

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

#[test]
fn replication_stays_inside_its_allocation_budget() {
    const WORKERS: usize = 4;
    const OPS_PER_WORKER: usize = 200_000;
    const OBJECTS: u32 = 1024;
    let cfg = StoreConfig {
        workers: WORKERS,
        objects: OBJECTS as usize,
        ops_per_worker: OPS_PER_WORKER,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(32),
        verify: VerifyConfig {
            every_ops: 50_000,
            window_ops: 48,
            sample_every: 1,
            monitor: false,
        },
        seed: 11,
        sharding: ShardConfig::full(),
        chaos: FaultPlan::new(),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    };

    COUNTING.store(true, Relaxed);
    let report = run(&Counter, &cfg, |_, _, rng: &mut StdRng| {
        let obj = rng.gen_range(0..OBJECTS);
        if rng.gen_bool(0.10) {
            SpaceInput::new(obj, CtInput::Read)
        } else {
            SpaceInput::new(obj, CtInput::Add(rng.gen_range(1..100)))
        }
    });
    COUNTING.store(false, Relaxed);
    let (requests, large) = (REQUESTS.load(Relaxed), LARGE_REQUESTS.load(Relaxed));

    assert!(report.verified() && report.drains_converged);
    let ops = (WORKERS * OPS_PER_WORKER) as u64;
    let batches = report.batches_sent;
    assert!(batches > ops / 40, "the run replicated: {batches} batches");
    let metric = |name| report.metric(name).expect("a published counter");
    let reused = metric("envelope_bufs_reused_total");
    let misses = metric("envelope_bufs_allocated_total");
    assert_eq!(reused + misses, report.msgs_sent, "one buffer per envelope");
    let per_op = requests as f64 / ops as f64;
    eprintln!(
        "{requests} allocation requests over {ops} ops = {per_op:.3}/op; \
         {large} of >= {LARGE} B over {batches} batches = {:.3}/batch; \
         envelope buffers reused {reused}, allocated {misses}",
        large as f64 / batches as f64
    );
    assert!(per_op <= 0.25, "{per_op:.3} allocation requests per op");
    assert!(
        large <= misses + batches / 2,
        "{large} requests of >= {LARGE} B: more than the {misses} stock misses \
         (one request each) and half a request per each of {batches} batches explain"
    );
}
