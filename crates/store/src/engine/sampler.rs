//! Which operations the op clock times, and what each timed one
//! stands for.
//!
//! Reading the clock twice costs more than a local query does, so the
//! engine times **one op per [`BLOCK`]-op block** of each worker's own
//! op counter and enters it in the latency histogram with the block's
//! weight ([`cbm_obs::LatencyHistogram::record_n`]): the histogram's
//! `count` is still the number of ops, and its quantiles are still
//! quantiles over ops.
//!
//! * **Which op** is [`sample_of`]: a hash of `(worker, block)` picks
//!   the offset, so the timed set is a pure function of the script —
//!   the same ops are timed on every run of a `(config, seed)` — yet
//!   uniform over offsets, so no cadence of the workload (a flush every
//!   32 ops, say) is systematically hit or missed.
//! * **What it stands for** is the local ops of its own block. A
//!   block's entry is made once the block is over, so its weight is
//!   what the block really held: routed reads are always timed and
//!   enter at weight 1 on their own, and an epoch close cuts the block
//!   at the cut. A stretch with no timed op of its own — the tail a
//!   close leaves behind a block's sample, a block whose chosen op was
//!   a routed read — is entered under the latest sample.
//! * **The first local op is timed as well**, whatever its offset, so
//!   "the latest sample" exists from the first op on and `count`
//!   equals the ops issued at *every* close, in a run of any length.
//!   It stands for nothing once its block's own sample is taken.

use cbm_obs::LatencyHistogram;

/// Ops per sampling block.
pub(super) const BLOCK: u64 = 64;

/// The op index worker `worker` times in block `block`.
pub(super) fn sample_of(worker: u64, block: u64) -> u64 {
    // splitmix64's finalizer over a per-worker stream of blocks
    let mut z = block
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(worker.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    block * BLOCK + ((z ^ (z >> 31)) & (BLOCK - 1))
}

/// One worker's sampling state (see the [module docs](self)).
pub(super) struct OpSampler {
    worker: u64,
    /// No local op before this index is timed — the one compare an
    /// untimed op pays.
    next: u64,
    /// Local ops `from..` have no histogram entry yet (`u64::MAX`
    /// until the first op names the script position).
    from: u64,
    /// Routed reads among them (entered on their own).
    routed: u64,
    /// The latest sample, nanoseconds (`None` until the first local op
    /// completes).
    last: Option<u64>,
}

impl OpSampler {
    pub(super) fn new(worker: usize) -> Self {
        OpSampler {
            worker: worker as u64,
            next: 0,
            from: u64::MAX,
            routed: 0,
            last: None,
        }
    }

    /// Does timed local op `at_op` become the latest sample? Its
    /// block's chosen op does, and so does the first local op.
    pub(super) fn is_sample(&self, at_op: u64) -> bool {
        self.last.is_none() || at_op == sample_of(self.worker, at_op / BLOCK)
    }

    /// Local op `at_op` is starting: must it be timed? Blocks that
    /// ended before it are entered into `hist`.
    #[inline(always)]
    pub(super) fn due(&mut self, at_op: u64, hist: &mut LatencyHistogram) -> bool {
        at_op >= self.next && self.arm(at_op, hist)
    }

    /// `at_op` reached `next`: decide it, and find the next candidate —
    /// this block's sample if still ahead (the script position can
    /// jump, at a resume), the next block's otherwise.
    #[cold]
    fn arm(&mut self, at_op: u64, hist: &mut LatencyHistogram) -> bool {
        self.roll(at_op, hist);
        let block = at_op / BLOCK;
        let sample = sample_of(self.worker, block);
        self.next = if at_op < sample {
            sample
        } else {
            sample_of(self.worker, block + 1)
        };
        at_op == sample || self.last.is_none()
    }

    /// The block's timed op took `lat` ns.
    pub(super) fn sampled(&mut self, lat: u64) {
        self.last = Some(lat);
    }

    /// Op `at_op` was a routed read, entered at weight 1 by the caller.
    pub(super) fn routed(&mut self, at_op: u64, hist: &mut LatencyHistogram) {
        self.roll(at_op, hist);
        self.routed += 1;
    }

    /// Enter every block that ended before `at_op`.
    fn roll(&mut self, at_op: u64, hist: &mut LatencyHistogram) {
        self.from = self.from.min(at_op);
        self.settle(at_op - at_op % BLOCK, hist);
    }

    /// Enter the local ops before `upto` that have no entry yet, under
    /// the latest sample (an epoch close passes the ops issued so far).
    pub(super) fn settle(&mut self, upto: u64, hist: &mut LatencyHistogram) {
        if upto > self.from {
            let weight = upto - self.from - self.routed;
            debug_assert!(weight == 0 || self.last.is_some(), "first local op untimed");
            hist.record_n(self.last.unwrap_or(0), weight);
            self.from = upto;
            self.routed = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a sampler over local ops `ops`, with closes at the given
    /// positions; returns the timed set and the histogram.
    fn drive(worker: usize, ops: std::ops::Range<u64>, closes: &[u64]) -> (Vec<u64>, u64) {
        let (mut s, mut hist) = (OpSampler::new(worker), LatencyHistogram::new());
        let mut timed = Vec::new();
        for at_op in ops.clone() {
            if closes.contains(&at_op) {
                s.settle(at_op, &mut hist);
            }
            if s.due(at_op, &mut hist) {
                assert!(s.is_sample(at_op));
                timed.push(at_op);
                s.sampled(100 + at_op);
            }
        }
        s.settle(ops.end, &mut hist);
        (timed, hist.count())
    }

    #[test]
    fn the_timed_set_is_a_pure_function_with_one_op_per_full_block() {
        for worker in 0..4 {
            let (timed, count) = drive(worker, 0..64 * 500 + 17, &[]);
            // the first op, and each block's chosen op
            let mut expect: Vec<u64> = (0..=500)
                .map(|b| sample_of(worker as u64, b))
                .filter(|&i| i > 0 && i < 64 * 500 + 17)
                .collect();
            expect.insert(0, 0);
            assert_eq!(timed, expect, "worker {worker}");
            for b in 0..500 {
                let first_too = b == 0 && sample_of(worker as u64, 0) != 0;
                assert_eq!(
                    timed.iter().filter(|&&i| i / BLOCK == b).count(),
                    1 + usize::from(first_too),
                    "exactly one per full block"
                );
            }
            assert_eq!(count, 64 * 500 + 17, "weights add up to the ops");
            // a second run times the same ops; another worker does not
            assert_eq!(drive(worker, 0..64 * 500 + 17, &[]).0, timed);
            assert_ne!(drive(worker + 1, 0..64 * 500 + 17, &[]).0, timed);
        }
    }

    /// A flush every 32 ops lands on offsets 31 and 63 of every block:
    /// a phase-locked sample would time it always or never, and
    /// `op_p99` would see only flushes or none. The hash hits it in
    /// 1/32 of blocks.
    #[test]
    fn sampling_is_unbiased_against_a_period_32_cadence() {
        const BLOCKS: u64 = 8192;
        for worker in 0..4u64 {
            let flushes = (0..BLOCKS)
                .filter(|&b| sample_of(worker, b) % 32 == 31)
                .count() as f64;
            let share = flushes / BLOCKS as f64;
            assert!(
                (share - 1.0 / 32.0).abs() < 0.25 / 32.0,
                "worker {worker}: the flushing op is timed in {share} of blocks"
            );
            // and every offset is used
            let mut seen = [false; BLOCK as usize];
            for b in 0..BLOCKS {
                seen[(sample_of(worker, b) % BLOCK) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn weights_add_up_across_closes_routed_reads_and_a_resumed_position() {
        // closes cut blocks mid-way, before and after their samples
        let closes: Vec<u64> = (1..40).map(|k| k * 777).collect();
        assert_eq!(drive(1, 0..31_003, &closes).1, 31_003);
        // a resumed script starts mid-block at an arbitrary position
        assert_eq!(drive(2, 10_037..20_000, &[12_000, 12_001]).1, 9_963);
        // shorter than a block, ending before its chosen op: the first
        // op stands for it
        let chosen = sample_of(3, 0);
        assert!(chosen > 1);
        assert_eq!(drive(3, 0..chosen, &[1]), (vec![0], chosen));

        // routed reads are the caller's entries: every 5th op, some of
        // them a block's chosen op
        let (mut s, mut hist) = (OpSampler::new(0), LatencyHistogram::new());
        for at_op in 0..10_000u64 {
            if at_op % 5 == 0 {
                s.routed(at_op, &mut hist);
                hist.record(31);
            } else if s.due(at_op, &mut hist) {
                s.sampled(7);
            }
            if at_op % 1_234 == 0 {
                s.settle(at_op + 1, &mut hist);
                assert_eq!(hist.count(), at_op + 1, "exact at every close");
            }
        }
        s.settle(10_000, &mut hist);
        assert_eq!(hist.count(), 10_000);
        assert_eq!(hist.quantile(0.5), 7);
        assert_eq!(hist.quantile(0.8), 7);
        assert_eq!(hist.quantile(0.81), 31, "a fifth of the ops");
    }
}
