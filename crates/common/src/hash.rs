//! Fast hashing utilities.
//!
//! Two distinct needs show up in the engine:
//!
//! 1. general-purpose hash maps over small integer-ish keys — the Rust
//!    Performance Book recommends an FxHash-style multiplicative hasher for
//!    this, which we implement here as [`FxHasher`] (no external dependency);
//! 2. bucket addressing for the compact concatenated keys (CCK) of the
//!    paper's fast-deduplication hash table. CCKs are *dense* (consecutive
//!    vertex ids), so using them directly as bucket indices would pile whole
//!    id ranges into neighbouring buckets of a power-of-two table. [`mix64`]
//!    is a full-avalanche finalizer (splitmix64) that spreads them without
//!    losing the "key is its own hash" property the paper exploits: the mix
//!    is stateless and bijective, so no hash value needs to be stored.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher in the style of rustc's FxHash.
///
/// Quality is modest but throughput on short integer keys is excellent,
/// which matches the engine's workload (dictionary-encoded ids).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// splitmix64 finalizer: a cheap bijective full-avalanche mix.
///
/// Used to turn compact concatenated keys (which are frequently consecutive
/// integers) into well-spread bucket indices for power-of-two tables.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash an arbitrary-width row (slice of values) down to 64 bits.
///
/// This is the fallback path of the fast-dedup table for tuples whose
/// concatenated key does not fit in 64 bits (paper §5.2 only promises the
/// compact-key trick "when the number of attributes of the tuple is small").
#[inline]
pub fn hash_row(row: &[i64]) -> u64 {
    hash_values(row.iter().copied())
}

/// [`hash_row`] of the row `values` yields, without gathering it.
#[inline]
pub fn hash_values(values: impl IntoIterator<Item = i64>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        h.write_i64(v);
    }
    mix64(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hasher_differs_on_inputs() {
        let mut a = FxHasher::default();
        a.write_u64(1);
        let mut b = FxHasher::default();
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fx_hasher_byte_stream_matches_word_stream_length_handling() {
        // 12 bytes: one exact chunk + remainder; just assert determinism.
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        let mut a = FxHasher::default();
        a.write(&bytes);
        let mut b = FxHasher::default();
        b.write(&bytes);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn mix64_is_injective_on_sample() {
        // splitmix64 is bijective; sanity-check no collisions on a range.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn mix64_spreads_consecutive_keys_across_buckets() {
        // Dense ids must not map to dense buckets: check a 1024-bucket table
        // gets reasonable occupancy from 1024 consecutive keys.
        let buckets = 1024u64;
        let mut used = vec![false; buckets as usize];
        for i in 0..buckets {
            used[(mix64(i) & (buckets - 1)) as usize] = true;
        }
        let occupied = used.iter().filter(|&&b| b).count();
        // Ideal random occupancy is ~63.2%; anything above 50% is fine.
        assert!(occupied > 512, "only {occupied} buckets used");
    }

    #[test]
    fn hash_row_respects_all_columns() {
        assert_ne!(hash_row(&[1, 2]), hash_row(&[2, 1]));
        assert_ne!(hash_row(&[1]), hash_row(&[1, 0]));
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m[&21], 42);
    }
}
