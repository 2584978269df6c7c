//! [`ShardMap`]: deterministic placement of the object space onto
//! replica sets.
//!
//! Objects group into `shards` contiguous residue classes
//! (`shard(obj) = (obj % objects) % shards`); each shard is hosted by a
//! **replica set** of `replication` workers. The set always contains
//! the shard's **home** worker `shard % workers` (so every worker hosts
//! at least one shard and shard ids round-robin over homes), plus
//! `replication - 1` further workers drawn from a seeded hash of the
//! shard id — the `placement_seed` axis lets sweeps vary placements
//! without touching workloads.
//!
//! Everything here is a pure function of
//! `(workers, objects, shards, replication, placement_seed, locality)`:
//! every worker, the verifier, and a re-run of the same config derive
//! the same placement, which is what keeps message counts and repair
//! traffic reproducible under partial replication (see
//! `docs/SHARDING.md`).
//!
//! **Locality.** With `locality > 0` the extra replicas are drawn from
//! the shard home's **aligned block**: the cluster tiles into
//! `max(locality, replication)`-worker blocks and a shard's replicas
//! all sit in its home's block (the tail block snaps back to stay a
//! full window wide). Aligned blocks, unlike windows that slide with
//! the home, never overlap — the interest graph decomposes into
//! disjoint islands, so a worker's knowledge matrix only ever has
//! non-zero rows for its own block and the delta-encoded causal
//! metadata (see `cbm_net::delta`) stays O(block²) per envelope,
//! independent of cluster size, as the cluster scales to 256 workers
//! (`docs/SCALING.md`). Remote reads still cross blocks (routed
//! request/reply, no knowledge transfer), so the object space remains
//! one store. `locality = 0` reproduces the legacy global draw
//! exactly.

use crate::config::StoreConfig;
#[cfg(test)]
use cbm_net::broadcast::full_interest;
use cbm_net::broadcast::InterestMask;
use cbm_net::NodeId;

/// SplitMix64 finalizer: the placement hash (local copy so placement
/// stays stable even if shared hash utilities evolve).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic object-space placement: shard → replica set.
#[derive(Debug, Clone)]
pub struct ShardMap {
    workers: usize,
    objects: usize,
    shards: usize,
    replication: usize,
    /// Replica sets per shard, ascending node order.
    replicas: Vec<Vec<NodeId>>,
    /// Replica sets per shard as interest bitmasks.
    masks: Vec<InterestMask>,
    /// Shards hosted per worker, ascending.
    hosted: Vec<Vec<usize>>,
    /// `hosts[w * shards + s]`.
    hosts: Vec<bool>,
    placement_seed: u64,
}

impl ShardMap {
    /// Build the placement for a cluster of `workers` serving
    /// `objects` objects in `shards` shards at replication factor
    /// `replication`, drawing non-home replicas globally
    /// (`locality = 0`; see [`ShardMap::with_locality`]).
    #[cfg(test)]
    pub(crate) fn new(
        workers: usize,
        objects: usize,
        shards: usize,
        replication: usize,
        placement_seed: u64,
    ) -> Self {
        Self::with_locality(workers, objects, shards, replication, placement_seed, 0)
    }

    /// Build the placement with a locality window. Arguments are
    /// clamped to their meaningful ranges: `shards` to `[1, objects]`,
    /// `replication` to `[1, workers]` (0 means "full replication"),
    /// `locality` to `[replication, workers]` when non-zero (0 means
    /// the legacy global draw), and
    /// `workers ≤ InterestMask::MAX_NODES` is asserted.
    ///
    /// A standalone map tolerates workers that host nothing (only the
    /// interest masks and replica sets are consulted); the engine
    /// path ([`ShardMap::build`]) additionally requires every worker
    /// to host at least one shard, because updates execute locally
    /// after [`ShardMap::localize`].
    pub(crate) fn with_locality(
        workers: usize,
        objects: usize,
        shards: usize,
        replication: usize,
        placement_seed: u64,
        locality: usize,
    ) -> Self {
        let workers = workers.max(1);
        assert!(
            workers <= InterestMask::MAX_NODES,
            "interest masks are {}-bit bitsets: {workers} workers",
            InterestMask::MAX_NODES
        );
        let objects = objects.max(1);
        let shards = shards.clamp(1, objects);
        let replication = if replication == 0 {
            workers
        } else {
            replication.min(workers)
        };
        // the candidate window the seeded draw runs over: the whole
        // cluster (legacy), or the home's aligned `window`-wide block
        let window = if locality == 0 {
            workers
        } else {
            locality.max(replication).min(workers)
        };

        let mut replicas = Vec::with_capacity(shards);
        let mut masks = Vec::with_capacity(shards);
        let mut hosted = vec![Vec::new(); workers];
        let mut hosts = vec![false; workers * shards];
        for s in 0..shards {
            let mut set = Vec::with_capacity(replication);
            let mut mask = InterestMask::EMPTY;
            let home = s % workers;
            set.push(home);
            mask.set(home);
            // the window base: the legacy draw hashes into absolute
            // worker space (base 0, window = workers — bit-identical
            // to pre-locality placements), the local draw into the
            // home's **aligned block** `[base, base + window)`. Blocks
            // tile the cluster instead of sliding with the home, so
            // neighborhoods of different homes never overlap: the
            // interest graph decomposes into disjoint islands and a
            // worker's knowledge matrix only ever touches its own
            // block's rows (the tail block snaps back so every block
            // is a full window wide).
            let base = if locality == 0 {
                0
            } else {
                (home - home % window).min(workers - window)
            };
            // the remaining replicas: seeded hash sequence over the
            // window, linear probing (within the window) past workers
            // already in the set
            let mut i = 0u64;
            while set.len() < replication {
                let off = (mix(placement_seed ^ ((s as u64) << 20) ^ i) % window as u64) as usize;
                i += 1;
                let mut off = off;
                while mask.contains((base + off) % workers) {
                    off = (off + 1) % window;
                }
                let cand = (base + off) % workers;
                set.push(cand);
                mask.set(cand);
            }
            set.sort_unstable();
            for &w in &set {
                hosted[w].push(s);
                hosts[w * shards + s] = true;
            }
            replicas.push(set);
            masks.push(mask);
        }
        ShardMap {
            workers,
            objects,
            shards,
            replication,
            replicas,
            masks,
            hosted,
            hosts,
            placement_seed,
        }
    }

    /// The placement a [`StoreConfig`] describes.
    ///
    /// Panics if any worker would host no shard: the engine's updates
    /// execute locally after [`ShardMap::localize`] (there is no
    /// remote-write path), and `shards = min(objects, workers)`, so a
    /// partially replicated config needs `objects ≥ workers`. Failing
    /// here turns a mid-run divide-by-zero on a worker thread into an
    /// immediate, explainable build error.
    pub fn build(cfg: &StoreConfig) -> Self {
        let map = ShardMap::with_locality(
            cfg.workers,
            cfg.objects,
            cfg.sharding.shards_or(cfg.workers),
            cfg.sharding.replication,
            cfg.sharding.placement_seed,
            cfg.sharding.locality,
        );
        if let Some(w) = (0..map.workers).find(|&w| map.hosted[w].is_empty()) {
            panic!(
                "worker {w} hosts no shard: {} shard(s) over {} workers \
                 ({} objects) — raise `objects` to at least `workers`, \
                 or replicate fully",
                map.shards, map.workers, map.objects
            );
        }
        map
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Effective replication factor.
    #[cfg(test)]
    pub(crate) fn replication(&self) -> usize {
        self.replication
    }

    /// Is every shard hosted by every worker (the degenerate full-
    /// replication placement, where the engine skips read routing and
    /// per-shard window splitting)?
    pub(crate) fn is_full(&self) -> bool {
        self.replication == self.workers
    }

    /// The shard an object id maps to (total for any id).
    #[inline]
    pub fn shard_of(&self, obj: u32) -> usize {
        (obj as usize % self.objects) % self.shards
    }

    /// The replica set of a shard, ascending node order.
    pub fn replicas(&self, shard: usize) -> &[NodeId] {
        &self.replicas[shard]
    }

    /// The replica set of a shard as an interest bitmask.
    pub fn mask(&self, shard: usize) -> InterestMask {
        self.masks[shard]
    }

    /// Does `w` host `shard`?
    #[inline]
    pub fn hosts(&self, w: NodeId, shard: usize) -> bool {
        self.hosts[w * self.shards + shard]
    }

    /// Shards hosted by `w`, ascending.
    pub fn hosted(&self, w: NodeId) -> &[usize] {
        &self.hosted[w]
    }

    /// The shard's home worker (owner of first resort for read
    /// routing).
    #[cfg(test)]
    pub(crate) fn home(&self, shard: usize) -> NodeId {
        shard % self.workers
    }

    /// Object slots (table indices) belonging to `shard`, ascending.
    pub(crate) fn slots_of(&self, shard: usize) -> impl Iterator<Item = usize> + '_ {
        (shard..self.objects).step_by(self.shards)
    }

    /// The full-cluster interest mask.
    #[cfg(test)]
    pub(crate) fn full_mask(&self) -> InterestMask {
        full_interest(self.workers)
    }

    /// Route an object id to a deterministic object this worker hosts
    /// (identity when the worker already hosts it). This is the
    /// client-side write routing stand-in of `docs/SHARDING.md`:
    /// updates always execute at a replica of their object, so an
    /// update addressed elsewhere is re-addressed — preserving the
    /// workload's volume, seed-determinism, and rough uniformity over
    /// the worker's hosted objects.
    pub fn localize(&self, w: NodeId, obj: u32) -> u32 {
        let slot = obj as usize % self.objects;
        if self.hosts[w * self.shards + slot % self.shards] {
            return obj;
        }
        let hosted = &self.hosted[w];
        let target =
            hosted[(mix(self.placement_seed ^ 0xA5A5 ^ obj as u64) % hosted.len() as u64) as usize];
        let cand = (slot / self.shards) * self.shards + target;
        let cand = if cand < self.objects { cand } else { target };
        cand as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_replication_hosts_everything_everywhere() {
        let m = ShardMap::new(4, 32, 4, 0, 7);
        assert!(m.is_full());
        assert_eq!(m.replication(), 4);
        for s in 0..4 {
            assert_eq!(m.replicas(s), &[0, 1, 2, 3]);
            assert_eq!(m.mask(s), full_interest(4));
        }
        for w in 0..4 {
            assert_eq!(m.hosted(w).len(), 4);
            for obj in 0..64u32 {
                assert_eq!(m.localize(w, obj), obj, "identity at rf = n");
            }
        }
    }

    #[test]
    fn every_shard_contains_its_home_and_rf_distinct_replicas() {
        let m = ShardMap::new(8, 1024, 8, 2, 42);
        assert!(!m.is_full());
        for s in 0..8 {
            let r = m.replicas(s);
            assert_eq!(r.len(), 2);
            assert!(r.contains(&m.home(s)), "home {} ∉ {:?}", m.home(s), r);
            assert!(r.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
            assert_eq!(m.mask(s).count(), 2);
        }
        // every worker hosts its home shard, so no worker is empty
        for w in 0..8 {
            assert!(m.hosted(w).contains(&w));
        }
    }

    #[test]
    fn placement_is_deterministic_and_seed_sensitive() {
        let a = ShardMap::new(8, 256, 8, 3, 1);
        let b = ShardMap::new(8, 256, 8, 3, 1);
        let c = ShardMap::new(8, 256, 8, 3, 2);
        for s in 0..8 {
            assert_eq!(a.replicas(s), b.replicas(s));
        }
        assert!(
            (0..8).any(|s| a.replicas(s) != c.replicas(s)),
            "different seeds should move at least one replica set"
        );
    }

    #[test]
    fn shard_of_and_slots_partition_the_space() {
        let m = ShardMap::new(4, 10, 4, 2, 0);
        let mut seen = [false; 10];
        for s in 0..4 {
            for slot in m.slots_of(s) {
                assert!(!seen[slot], "slot {slot} in two shards");
                seen[slot] = true;
                assert_eq!(m.shard_of(slot as u32), s);
            }
        }
        assert!(seen.iter().all(|&x| x), "slots must cover the space");
        // ids wrap like the object table
        assert_eq!(m.shard_of(13), m.shard_of(3));
    }

    #[test]
    fn localize_lands_on_hosted_objects() {
        let m = ShardMap::new(8, 100, 8, 2, 9);
        for w in 0..8 {
            for obj in 0..200u32 {
                let l = m.localize(w, obj);
                assert!(
                    m.hosts(w, m.shard_of(l)),
                    "worker {w} does not host localized {l} (from {obj})"
                );
                if m.hosts(w, m.shard_of(obj)) {
                    assert_eq!(l, obj, "hosted ids pass through unchanged");
                } else {
                    assert!((l as usize) < 100, "re-addressed ids are in range");
                }
            }
        }
    }

    #[test]
    fn locality_confines_replicas_to_the_home_window() {
        // 32 workers, rf 3, locality 4: every replica sits in its
        // home's aligned 4-worker block — blocks tile, they don't
        // slide, so neighborhoods of different homes never chain
        let m = ShardMap::with_locality(32, 1024, 32, 3, 7, 4);
        for s in 0..32 {
            let home = m.home(s);
            for &r in m.replicas(s) {
                assert_eq!(
                    r / 4,
                    home / 4,
                    "shard {s}: replica {r} outside block of {home}"
                );
            }
            assert_eq!(m.replicas(s).len(), 3);
        }
        // locality 0 reproduces the legacy global draw bit-for-bit
        let legacy = ShardMap::new(32, 1024, 32, 3, 7);
        let zero = ShardMap::with_locality(32, 1024, 32, 3, 7, 0);
        for s in 0..32 {
            assert_eq!(legacy.replicas(s), zero.replicas(s));
        }
        // and some shard of the global draw escapes the window (the
        // two placements genuinely differ)
        assert!(
            (0..32).any(|s| legacy.replicas(s) != m.replicas(s)),
            "global and local draws should differ somewhere"
        );
        // locality clamps up to rf so sets stay full-size
        let tight = ShardMap::with_locality(16, 256, 16, 4, 3, 2);
        for s in 0..16 {
            assert_eq!(tight.replicas(s).len(), 4);
            let home = tight.home(s);
            for &r in tight.replicas(s) {
                assert_eq!(r / 4, home / 4, "window clamps to rf");
            }
        }
        // a tail block narrower than the window snaps back to full
        // width (10 workers, window 4: homes 8..10 draw from [6, 10))
        let tail = ShardMap::with_locality(10, 256, 10, 2, 5, 4);
        for s in 8..10 {
            for &r in tail.replicas(s) {
                assert!((6..10).contains(&r), "tail replica {r} outside [6, 10)");
            }
        }
    }

    #[test]
    fn large_clusters_build_and_stay_in_window() {
        // past the old 64-worker mask cap: 256 workers must build
        let m = ShardMap::with_locality(256, 4096, 256, 2, 11, 8);
        for s in 0..256 {
            assert_eq!(m.replicas(s).len(), 2);
            assert_eq!(m.mask(s).count(), 2);
            let home = m.home(s);
            for &r in m.replicas(s) {
                assert_eq!(r / 8, home / 8, "replicas stay in the aligned block");
            }
        }
        assert_eq!(m.full_mask().count(), 256);
    }

    #[test]
    fn clamps_degenerate_arguments() {
        let m = ShardMap::new(3, 4, 99, 7, 0);
        assert_eq!(m.shards(), 4, "shards clamp to objects");
        assert_eq!(m.replication(), 3, "rf clamps to workers");
        let m = ShardMap::new(1, 1, 0, 1, 0);
        assert_eq!(m.shards(), 1);
        assert!(m.is_full());
    }

    #[test]
    #[should_panic(expected = "hosts no shard")]
    fn build_rejects_stranded_workers() {
        // 64 objects cap the map at 64 shards; under rf 2 the other
        // 64 workers would host nothing and divide by zero in
        // `localize` mid-run — `build` must refuse up front
        let cfg = crate::StoreConfig {
            workers: 128,
            objects: 64,
            sharding: crate::ShardConfig::rf_local(2, 8),
            ..Default::default()
        };
        ShardMap::build(&cfg);
    }

    #[test]
    fn build_accepts_large_chaos_shapes() {
        // the nightly 128-worker chaos cell's placement: objects
        // scaled up to the worker count, every worker hosts its home
        let cfg = crate::StoreConfig {
            workers: 128,
            objects: 128,
            sharding: crate::ShardConfig::rf_local(2, 8),
            ..Default::default()
        };
        let m = ShardMap::build(&cfg);
        for w in 0..128 {
            assert!(!m.hosted(w).is_empty(), "worker {w} hosts a shard");
        }
        // a standalone map may still strand workers (mask-only uses)
        let loose = ShardMap::with_locality(128, 64, 128, 2, 1, 8);
        assert!((0..128).any(|w| loose.hosted(w).is_empty()));
    }
}
