//! Deterministic hash functions used throughout the simulator.
//!
//! The hardware described in the paper uses small fixed hash functions (a
//! 6-bit hash for hint-to-tile mapping, a 16-bit hash for same-hint
//! serialization, and a 10-bit hash for hint-to-bucket mapping). We use a single 64-bit mixer (a SplitMix64 finalizer) and
//! truncate it; it is deterministic, stateless, and well distributed, which
//! is all the model needs.

/// A 64-bit finalizer (SplitMix64 style). Deterministic across runs and
/// platforms; never allocates.
#[inline]
pub fn hash64(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `value` into the range `[0, n)`.
///
/// # Panics
///
/// Panics if `n` is zero.
#[inline]
pub fn hash_to_range(value: u64, n: usize) -> usize {
    assert!(n > 0, "hash range must be non-empty");
    let h = hash64(value);
    // Power-of-two ranges (every paper mesh: 4, 16, 64 tiles) take a mask
    // instead of a hardware divide; `h % n == h & (n - 1)` exactly, so the
    // result is bit-identical either way.
    if n.is_power_of_two() {
        (h & (n as u64 - 1)) as usize
    } else {
        (h % n as u64) as usize
    }
}

/// The 16-bit hashed hint carried by task descriptors and used by the
/// dispatch logic to serialize same-hint tasks (Section III-B).
#[inline]
pub fn hash_to_u16(value: u64) -> u16 {
    (hash64(value) & 0xFFFF) as u16
}

/// Hash a hint into one of `num_buckets` load-balancer buckets
/// (Section VI: 16 buckets per tile by default).
///
/// # Panics
///
/// Panics if `num_buckets` is zero.
#[inline]
pub fn hash_to_bucket(value: u64, num_buckets: usize) -> u16 {
    assert!(num_buckets > 0, "bucket count must be non-empty");
    assert!(num_buckets <= u16::MAX as usize + 1, "bucket count must fit in u16");
    (hash64(value.rotate_left(17)) % num_buckets as u64) as u16
}

/// A cheap 64-bit mixer for *hash-table indexing* (one multiply, two
/// xor-shifts — the MurmurHash3 finalizer's first half).
///
/// This is deliberately weaker than [`hash64`]: it exists so the hot-path
/// data structures (`LruSet`, the cache directory, the line-access table) can
/// index their tables with a single cheap hash instead of SipHash. It must
/// *not* be used where the paper's fixed hash functions are being modelled —
/// simulated-architecture decisions (home tiles, hint buckets) always go
/// through [`hash64`] so results stay bit-identical.
#[inline]
pub fn fast_mix64(value: u64) -> u64 {
    let mut z = value ^ (value >> 33);
    z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^ (z >> 33)
}

/// A [`std::hash::Hasher`] over [`fast_mix64`] for `HashMap`/`HashSet` keyed
/// by integers or integer newtypes (line addresses, task ids).
///
/// Deterministic across runs and platforms (unlike the default `RandomState`
/// SipHash), and far cheaper per lookup. Multi-word keys fold each word into
/// the running state with one mix per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback for non-integer keys: fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = fast_mix64(self.state ^ i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FastHasher`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastBuildHasher;

impl std::hash::BuildHasher for FastBuildHasher {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// A `HashMap` keyed through [`FastHasher`] (deterministic, one cheap hash).
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed through [`FastHasher`] (deterministic, one cheap hash).
pub type FastHashSet<K> = std::collections::HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash64_is_deterministic() {
        assert_eq!(hash64(42), hash64(42));
        assert_ne!(hash64(42), hash64(43));
    }

    #[test]
    fn hash_to_range_stays_in_range() {
        for v in 0..1000u64 {
            let r = hash_to_range(v, 7);
            assert!(r < 7);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn hash_to_range_zero_panics() {
        let _ = hash_to_range(1, 0);
    }

    #[test]
    fn hash_to_range_spreads_values() {
        // All 64 tiles should receive at least one of 10k consecutive hints.
        let mut seen = HashSet::new();
        for v in 0..10_000u64 {
            seen.insert(hash_to_range(v, 64));
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn hash_to_bucket_spreads_values() {
        let mut seen = HashSet::new();
        for v in 0..50_000u64 {
            seen.insert(hash_to_bucket(v, 1024));
        }
        // Nearly every bucket of 1024 should be hit by 50k hints.
        assert!(seen.len() > 1000, "only {} buckets hit", seen.len());
    }

    #[test]
    fn hash_to_u16_differs_for_nearby_hints() {
        let collisions = (0..1000u64).filter(|&v| hash_to_u16(v) == hash_to_u16(v + 1)).count();
        assert!(collisions < 5, "too many adjacent 16-bit collisions: {collisions}");
    }

    #[test]
    fn hash64_golden_values_are_stable() {
        // Simulation results must replay bit-identically across platforms
        // and future refactors; these pin the SplitMix64 finalizer.
        assert_eq!(hash64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(hash64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(hash64(u64::MAX), 0xE4D9_71771B652C20);
    }

    #[test]
    fn hash64_flips_roughly_half_the_bits_per_input_bit() {
        let mut total = 0u32;
        for bit in 0..64 {
            total += (hash64(0x1234_5678) ^ hash64(0x1234_5678 ^ (1 << bit))).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((24.0..40.0).contains(&avg), "poor avalanche: {avg} bits flipped on average");
    }

    #[test]
    #[should_panic(expected = "bucket count must be non-empty")]
    fn hash_to_bucket_zero_panics() {
        let _ = hash_to_bucket(1, 0);
    }

    #[test]
    #[should_panic(expected = "must fit in u16")]
    fn hash_to_bucket_oversized_panics() {
        let _ = hash_to_bucket(1, u16::MAX as usize + 2);
    }

    #[test]
    fn hash_to_bucket_accepts_full_u16_range() {
        let b = hash_to_bucket(99, u16::MAX as usize + 1);
        let _ = b; // any u16 is in range; just must not panic
    }
}
