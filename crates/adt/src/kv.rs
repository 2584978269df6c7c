//! Key-value store with delete and range scan.
//!
//! Where the paper's memory (Def. 10) has a fixed register set and
//! per-register reads, a KV store adds two behaviours that stress the
//! "beyond memory" machinery: `Del` makes state *shrink* (so
//! arbitration order between `Put` and `Del` of the same key is
//! observable, like the set), and `Scan` returns a view over *many*
//! keys at once (so a single query can witness the relative order of
//! updates to different keys — something no per-register read can).

use crate::adt::{Adt, OpKind};
use crate::Value;
use std::collections::BTreeMap;

/// Input alphabet of the KV store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvInput {
    /// Map `key ↦ value` (pure update).
    Put(Value, Value),
    /// Remove `key` if present (pure update).
    Del(Value),
    /// Look up `key` (pure query).
    Get(Value),
    /// Snapshot of all pairs in key order (pure query).
    Scan,
    /// Number of keys (pure query).
    Len,
}

/// Output alphabet of the KV store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KvOutput {
    /// `⊥`, returned by updates.
    Ack,
    /// Lookup result.
    Found(Option<Value>),
    /// Snapshot, sorted by key.
    Pairs(Vec<(Value, Value)>),
    /// Key count.
    Count(usize),
}

/// The KV-store ADT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStore;

impl Adt for KvStore {
    type Input = KvInput;
    type Output = KvOutput;
    type State = BTreeMap<Value, Value>;

    fn initial(&self) -> Self::State {
        BTreeMap::new()
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        let mut next = q.clone();
        self.transition_in_place(&mut next, i);
        next
    }

    fn transition_in_place(&self, q: &mut Self::State, i: &Self::Input) {
        match i {
            KvInput::Put(k, v) => {
                q.insert(*k, *v);
            }
            KvInput::Del(k) => {
                q.remove(k);
            }
            KvInput::Get(_) | KvInput::Scan | KvInput::Len => {}
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            KvInput::Put(..) | KvInput::Del(_) => KvOutput::Ack,
            KvInput::Get(k) => KvOutput::Found(q.get(k).copied()),
            KvInput::Scan => KvOutput::Pairs(q.iter().map(|(k, v)| (*k, *v)).collect()),
            KvInput::Len => KvOutput::Count(q.len()),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            KvInput::Put(..) | KvInput::Del(_) => OpKind::PureUpdate,
            KvInput::Get(_) | KvInput::Scan | KvInput::Len => OpKind::PureQuery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdtExt;

    #[test]
    fn put_get_roundtrip() {
        let kv = KvStore;
        let q = kv.fold_inputs([KvInput::Put(1, 10), KvInput::Put(2, 20)].iter());
        assert_eq!(kv.output(&q, &KvInput::Get(1)), KvOutput::Found(Some(10)));
        assert_eq!(kv.output(&q, &KvInput::Get(3)), KvOutput::Found(None));
        assert_eq!(kv.output(&q, &KvInput::Len), KvOutput::Count(2));
    }

    #[test]
    fn del_removes() {
        let kv = KvStore;
        let q = kv.fold_inputs([KvInput::Put(1, 10), KvInput::Del(1)].iter());
        assert_eq!(kv.output(&q, &KvInput::Get(1)), KvOutput::Found(None));
        // deleting a missing key is a no-op (δ total)
        let q2 = kv.transition(&q, &KvInput::Del(9));
        assert_eq!(q, q2);
    }

    #[test]
    fn put_del_order_matters() {
        let kv = KvStore;
        let a = kv.fold_inputs([KvInput::Put(1, 10), KvInput::Del(1)].iter());
        let b = kv.fold_inputs([KvInput::Del(1), KvInput::Put(1, 10)].iter());
        assert_ne!(a, b);
    }

    #[test]
    fn scan_is_sorted_and_pure() {
        let kv = KvStore;
        let q = kv.fold_inputs(
            [
                KvInput::Put(3, 30),
                KvInput::Put(1, 10),
                KvInput::Put(2, 20),
            ]
            .iter(),
        );
        assert_eq!(
            kv.output(&q, &KvInput::Scan),
            KvOutput::Pairs(vec![(1, 10), (2, 20), (3, 30)])
        );
        assert_eq!(kv.transition(&q, &KvInput::Scan), q);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let kv = KvStore;
        let q = kv.fold_inputs([KvInput::Put(1, 10), KvInput::Put(1, 11)].iter());
        assert_eq!(kv.output(&q, &KvInput::Get(1)), KvOutput::Found(Some(11)));
        assert_eq!(kv.output(&q, &KvInput::Len), KvOutput::Count(1));
    }

    #[test]
    fn classification() {
        let kv = KvStore;
        assert_eq!(kv.kind(&KvInput::Put(0, 0)), OpKind::PureUpdate);
        assert_eq!(kv.kind(&KvInput::Del(0)), OpKind::PureUpdate);
        assert_eq!(kv.kind(&KvInput::Get(0)), OpKind::PureQuery);
        assert_eq!(kv.kind(&KvInput::Scan), OpKind::PureQuery);
        assert_eq!(kv.kind(&KvInput::Len), OpKind::PureQuery);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::AdtExt;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn arb_ops(n: usize) -> impl Strategy<Value = Vec<KvInput>> {
        prop::collection::vec(
            prop_oneof![
                (0u64..6, 0u64..50).prop_map(|(k, v)| KvInput::Put(k, v)),
                (0u64..6).prop_map(KvInput::Del),
                (0u64..6).prop_map(KvInput::Get),
                Just(KvInput::Scan),
            ],
            0..n,
        )
    }

    proptest! {
        #[test]
        fn matches_btreemap_model(ops in arb_ops(40)) {
            let kv = KvStore;
            let mut q = kv.initial();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for op in &ops {
                let (q2, o) = kv.apply(&q, op);
                match op {
                    KvInput::Put(k, v) => { model.insert(*k, *v); }
                    KvInput::Del(k) => { model.remove(k); }
                    KvInput::Get(k) => prop_assert_eq!(o, KvOutput::Found(model.get(k).copied())),
                    KvInput::Scan => prop_assert_eq!(
                        o,
                        KvOutput::Pairs(model.iter().map(|(k, v)| (*k, *v)).collect())
                    ),
                    KvInput::Len => prop_assert_eq!(o, KvOutput::Count(model.len())),
                }
                q = q2;
            }
            prop_assert_eq!(q, model);
        }
    }
}
