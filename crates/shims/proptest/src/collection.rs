//! Collection strategies: `vec` and `btree_map`.

use crate::strategy::Strategy;
use crate::TestRng;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Size bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_incl: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            min: n,
            max_incl: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            min: r.start,
            max_incl: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max_incl: *r.end(),
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        self.min + rng.below(self.max_incl - self.min + 1)
    }
}

/// A strategy for `Vec<S::Value>` with length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy for `BTreeMap`s with up to `size` entries (duplicate keys
/// collapse, as in upstream proptest).
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// Strategy returned by [`btree_map`].
#[derive(Clone)]
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord + fmt::Debug,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.sample(rng);
        let mut map = BTreeMap::new();
        for _ in 0..n {
            map.insert(self.keys.generate(rng), self.values.generate(rng));
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn vec_lengths_in_bounds() {
        let s = vec(any::<u8>(), 2..5);
        let mut rng = TestRng::new(9);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn btree_map_respects_cap() {
        let s = btree_map("[a-c]", any::<u8>(), 0..4);
        let mut rng = TestRng::new(10);
        for _ in 0..100 {
            assert!(s.generate(&mut rng).len() <= 3);
        }
    }
}
