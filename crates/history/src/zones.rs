//! The six time zones of Fig. 2.
//!
//! Given a history augmented with a causal order, every event `f` falls,
//! relative to a reference event `e`, into exactly one of: the program
//! past/future, the causal-only past/future, the present (`e` itself) or
//! the concurrent present. "The more constraints the past imposes on the
//! present, the stronger the criterion" — the figure harness
//! `fig2_time_zones` renders these zones for each criterion.

use crate::history::History;
use crate::order::Relation;

/// Position of an event relative to a reference event (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Zone {
    /// The reference event itself.
    Present,
    /// Strict predecessor in the program order (hence also causal past).
    ProgramPast,
    /// Causal predecessor that is not a program predecessor.
    CausalPastOnly,
    /// Strict successor in the program order (hence also causal future).
    ProgramFuture,
    /// Causal successor that is not a program successor.
    CausalFutureOnly,
    /// Incomparable with the reference in both orders.
    ConcurrentPresent,
}

/// Classify every event of `h` relative to `e` under `causal`.
///
/// `causal` must contain the program order (Definition 7); this is
/// asserted in debug builds.
pub fn classify<I: Clone, O: Clone>(h: &History<I, O>, causal: &Relation, e: usize) -> Vec<Zone> {
    debug_assert!(causal.contains(h.prog()), "not a causal order: ↦ ⊄ →");
    (0..h.len())
        .map(|f| {
            if f == e {
                Zone::Present
            } else if h.prog().lt(f, e) {
                Zone::ProgramPast
            } else if causal.lt(f, e) {
                Zone::CausalPastOnly
            } else if h.prog().lt(e, f) {
                Zone::ProgramFuture
            } else if causal.lt(e, f) {
                Zone::CausalFutureOnly
            } else {
                Zone::ConcurrentPresent
            }
        })
        .collect()
}

#[cfg(test)]
impl Zone {
    /// Short display tag.
    pub fn tag(self) -> &'static str {
        match self {
            Zone::Present => "present",
            Zone::ProgramPast => "prog-past",
            Zone::CausalPastOnly => "causal-past",
            Zone::ProgramFuture => "prog-future",
            Zone::CausalFutureOnly => "causal-future",
            Zone::ConcurrentPresent => "concurrent",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;

    /// Two processes of three events each; the causal order adds
    /// p0.e0 → p1.e4.
    fn setup() -> (History<&'static str, u32>, Relation) {
        let mut b = HistoryBuilder::new();
        for p in 0..2 {
            for i in 0..3 {
                b.op(p, "op", i);
            }
        }
        let h = b.build();
        let mut causal = h.prog().clone();
        causal.add_pair_closed(0, 4);
        (h, causal)
    }

    #[test]
    fn tags_are_distinct() {
        use std::collections::HashSet;
        let all = [
            Zone::Present,
            Zone::ProgramPast,
            Zone::CausalPastOnly,
            Zone::ProgramFuture,
            Zone::CausalFutureOnly,
            Zone::ConcurrentPresent,
        ];
        let tags: HashSet<&str> = all.iter().map(|z| z.tag()).collect();
        assert_eq!(tags.len(), all.len());
    }

    #[test]
    fn zones_partition_the_history() {
        let (h, causal) = setup();
        for e in 0..h.len() {
            let zones = classify(&h, &causal, e);
            assert_eq!(zones.len(), h.len());
            assert_eq!(
                zones.iter().filter(|z| **z == Zone::Present).count(),
                1,
                "exactly one present"
            );
        }
    }

    #[test]
    fn cross_process_causal_edge_shows_up() {
        let (h, causal) = setup();
        // relative to e4 (p1, middle): e0 is causal-past-only,
        // e3 is program past, e5 is program future.
        let zones = classify(&h, &causal, 4);
        assert_eq!(zones[0], Zone::CausalPastOnly);
        assert_eq!(zones[3], Zone::ProgramPast);
        assert_eq!(zones[5], Zone::ProgramFuture);
        assert_eq!(zones[4], Zone::Present);
        // e1, e2 on p0 are concurrent with e4
        assert_eq!(zones[1], Zone::ConcurrentPresent);
        assert_eq!(zones[2], Zone::ConcurrentPresent);
    }

    #[test]
    fn causal_future_only() {
        let (h, causal) = setup();
        // relative to e0: e4 and e5 are causal-future-only; e1, e2 program future.
        let zones = classify(&h, &causal, 0);
        assert_eq!(zones[4], Zone::CausalFutureOnly);
        assert_eq!(zones[5], Zone::CausalFutureOnly);
        assert_eq!(zones[1], Zone::ProgramFuture);
        assert_eq!(zones[3], Zone::ConcurrentPresent);
    }

    #[test]
    fn with_trivial_causal_order_no_causal_only_zones() {
        let (h, _) = setup();
        let causal = h.prog().clone();
        for e in 0..h.len() {
            for z in classify(&h, &causal, e) {
                assert!(!matches!(z, Zone::CausalPastOnly | Zone::CausalFutureOnly));
            }
        }
    }
}
