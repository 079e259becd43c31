//! Consistent-hash routing over the worker set.
//!
//! Each worker owns 64 points (`VNODES`) on a `u64` ring; a request's
//! route key lands on the first point at or after it (wrapping). The
//! property the fleet cares about: removing one worker only moves the
//! keys that worker owned — every other module keeps hitting the node
//! whose caches are warm for it. Failover follows the same ring: the
//! successor sequence visits every worker exactly once, so a dead
//! node's keys drain onto its ring neighbors instead of reshuffling
//! the whole fleet.

use cr_chaos::{derive_seed, mix64};

/// Virtual nodes per worker — enough to spread 8 workers' arcs to
/// within a few percent of uniform without making the point table
/// noticeable.
const VNODES: u64 = 64;

/// Namespace for ring point hashing, so a ring point can never
/// collide with a route key derived from module names.
const RING_SALT: u64 = 0x52_49_4E_47; // "RING"

/// The ring: sorted `(point, worker)` pairs.
#[derive(Debug, Clone)]
pub struct HashRing {
    points: Vec<(u64, usize)>,
    workers: usize,
}

impl HashRing {
    /// A ring over workers `0..workers`.
    pub fn new(workers: usize) -> HashRing {
        let mut points = Vec::with_capacity(workers * VNODES as usize);
        for id in 0..workers {
            for v in 0..VNODES {
                points.push((mix64(derive_seed(&[RING_SALT, id as u64, v])), id));
            }
        }
        points.sort_unstable();
        HashRing { points, workers }
    }

    /// How many workers the ring was built over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The owner of `key`: the worker at the first ring point at or
    /// after it, wrapping at the top.
    pub fn route(&self, key: u64) -> Option<usize> {
        self.sequence(key).into_iter().next()
    }

    /// Every worker in failover order for `key`: the owner first, then
    /// each distinct worker as the ring is walked clockwise. Callers
    /// filter by liveness; the order itself is deterministic in `key`.
    pub fn sequence(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.workers);
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(p, _)| p < key);
        let n = self.points.len();
        for i in 0..n {
            let (_, id) = self.points[(start + i) % n];
            if !order.contains(&id) {
                order.push(id);
                if order.len() == self.workers {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_chaos::hash_str;

    #[test]
    fn sequence_visits_every_worker_once() {
        let ring = HashRing::new(5);
        for key in 0..100u64 {
            let seq = ring.sequence(mix64(key));
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "key {key}: {seq:?}");
        }
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let ring = HashRing::new(8);
        let mut owned = [0usize; 8];
        for key in 0..4096u64 {
            let a = ring.route(mix64(key)).unwrap();
            let b = ring.route(mix64(key)).unwrap();
            assert_eq!(a, b);
            owned[a] += 1;
        }
        // With 64 vnodes each, no worker should own a wildly
        // disproportionate share of a uniform keyspace.
        for (id, &n) in owned.iter().enumerate() {
            assert!(n > 4096 / 8 / 4, "worker {id} owns only {n}/4096 keys");
        }
    }

    #[test]
    fn losing_a_worker_only_moves_its_own_keys() {
        // Consistency: route keys under an 8-ring; for keys not owned
        // by worker 3, the failover sequence with 3 skipped must start
        // at the same owner.
        let ring = HashRing::new(8);
        for key in 0..2048u64 {
            let key = mix64(key ^ 0xABCD);
            let seq = ring.sequence(key);
            let owner = seq[0];
            let survivor = *seq.iter().find(|&&id| id != 3).unwrap();
            if owner != 3 {
                assert_eq!(survivor, owner, "key moved although its owner survived");
            }
        }
    }

    #[test]
    fn module_keys_map_to_stable_workers() {
        let ring = HashRing::new(4);
        let key = hash_str("seh:xmllite.dll");
        assert_eq!(ring.route(key), ring.route(key));
        assert!(ring.route(key).unwrap() < 4);
    }
}
