//! Link latency models for the simulator.
//!
//! The system model is asynchronous — "there is no bound on the time
//! between the sending and the reception of a message" (§6.1) — so the
//! simulator draws per-message delays from a configurable distribution;
//! seeded sampling keeps executions replayable.

use rand::Rng;

/// How long a message takes from send to receive, in simulated ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(u64),
    /// Uniform in `[min, max]`.
    Uniform(u64, u64),
    /// Mostly-fast links with a heavy tail: `base` plus, with
    /// probability `tail_prob`, an extra uniform draw in
    /// `[0, tail_max]`. Models the "no bound on delay" asynchrony more
    /// faithfully than a uniform draw.
    HeavyTail {
        /// Common-case latency.
        base: u64,
        /// Probability of a straggler (0.0–1.0).
        tail_prob: f64,
        /// Maximum extra straggler delay.
        tail_max: u64,
    },
}

impl LatencyModel {
    /// Draw a delay.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(min, max) => {
                if min >= max {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
            LatencyModel::HeavyTail {
                base,
                tail_prob,
                tail_max,
            } => {
                let extra = if rng.gen_bool(tail_prob.clamp(0.0, 1.0)) {
                    rng.gen_range(0..=tail_max)
                } else {
                    0
                };
                base + extra
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Constant(5);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 5);
        }
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::Uniform(3, 9);
        for _ in 0..100 {
            let d = m.sample(&mut rng);
            assert!((3..=9).contains(&d));
        }
    }

    #[test]
    fn degenerate_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(LatencyModel::Uniform(4, 4).sample(&mut rng), 4);
        assert_eq!(LatencyModel::Uniform(9, 2).sample(&mut rng), 9);
    }

    #[test]
    fn heavy_tail_is_at_least_base() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = LatencyModel::HeavyTail {
            base: 10,
            tail_prob: 0.5,
            tail_max: 100,
        };
        let mut saw_tail = false;
        for _ in 0..200 {
            let d = m.sample(&mut rng);
            assert!(d >= 10);
            if d > 10 {
                saw_tail = true;
            }
        }
        assert!(saw_tail, "tail should fire with p=0.5 over 200 draws");
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let m = LatencyModel::Uniform(1, 1000);
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| m.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| m.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
