//! Hash tables for the compiler's internal keys: node ids, ports, small
//! tuples and names from the program being compiled.
//!
//! std's default SipHash resists hash flooding, which these tables do not
//! need, at several times the cost per key of the rotate-xor-multiply word
//! mix of rustc's `FxHasher` that this crate uses. The hasher's state
//! starts from a seed drawn once per process from std's `RandomState`. So
//! iteration order still varies from run to run (no output may depend on
//! it), while every table of one process hashes alike: two tables built
//! alike iterate, clone and compare alike.

use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// `std::collections::HashMap` with the [`FxBuild`] hasher.
#[allow(clippy::disallowed_types)]
pub type HashMap<K, V> = std::collections::HashMap<K, V, FxBuild>;

/// `std::collections::HashSet` with the [`FxBuild`] hasher.
#[allow(clippy::disallowed_types)]
pub type HashSet<T> = std::collections::HashSet<T, FxBuild>;

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Rotate-xor-multiply hasher: one multiply per word written.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            self.add(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")).into());
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.add(u16::from_le_bytes(rest[..2].try_into().expect("2 bytes")).into());
            rest = &rest[2..];
        }
        if let Some(&b) = rest.first() {
            self.add(b.into());
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FxHasher`]s that start from the per-process seed.
#[derive(Debug, Clone, Copy)]
pub struct FxBuild {
    seed: u64,
}

impl Default for FxBuild {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED
            .get_or_init(|| std::collections::hash_map::RandomState::new().build_hasher().finish());
        FxBuild { seed }
    }
}

impl BuildHasher for FxBuild {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FxBuild::default().build_hasher();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn every_tail_byte_is_hashed() {
        let data: Vec<u8> = (1..=17).collect();
        let mut seen = HashSet::default();
        for n in 0..=17 {
            assert!(seen.insert(hash_bytes(&data[..n])), "length {n} collides with a shorter one");
            if n > 0 {
                let mut flipped = data[..n].to_vec();
                flipped[n - 1] ^= 0x80;
                assert_ne!(hash_bytes(&flipped), hash_bytes(&data[..n]), "byte {} dropped", n - 1);
            }
        }
    }

    #[test]
    fn tables_of_one_process_iterate_alike() {
        let mut a: HashMap<u32, u32> = HashMap::default();
        let mut b: HashMap<u32, u32> = HashMap::default();
        for k in 0..1000 {
            a.insert(k * 7919, k);
            b.insert(k * 7919, k);
        }
        assert!(a.keys().eq(b.keys()));
        let c = a.clone();
        assert!(c.iter().eq(a.iter()));
        assert_eq!(a, b);
    }

    #[test]
    fn random_operations_match_a_reference_map() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut fx: HashMap<u64, u64> = HashMap::default();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..20_000 {
            let r = next();
            let key = r % 600;
            match (r >> 32) % 3 {
                0 => assert_eq!(fx.insert(key, step), reference.insert(key, step)),
                1 => assert_eq!(fx.remove(&key), reference.remove(&key)),
                _ => assert_eq!(fx.get(&key), reference.get(&key)),
            }
            assert_eq!(fx.len(), reference.len());
        }
        let mut contents: Vec<_> = fx.into_iter().collect();
        contents.sort_unstable();
        assert!(contents.into_iter().eq(reference));
    }
}
