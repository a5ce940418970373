//! A small, fast, non-cryptographic hasher, shared across the workspace.
//!
//! The search algorithm allocates one distance map and one parent map per
//! shortest-path iterator, and a metadata-heavy query can spawn thousands of
//! iterators (§7 of the paper discusses exactly this blow-up); the storage
//! layer hashes a primary key per insert/lookup and rebuilds whole key
//! indexes when a snapshot bundle restores. SipHash — the std default —
//! dominates profiles in both places, so we use the classic
//! multiply-rotate "Fx" construction (as popularized by the Rust compiler's
//! `rustc-hash`). HashDoS resistance is irrelevant: keys are internal node
//! ids, rids, and catalog-validated key values, never attacker-chosen at
//! hash-flooding scale.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fibonacci-style multiplicative constant (2^64 / φ).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
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
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// The [`FxHasher`] hash of `bytes`: the on-disk checksum of a WAL
/// frame payload and of a paged-graph segment.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// [`FxHasher`] with a finalizer that moves the well-mixed high bits
/// down into the low bits, which is where `HashMap` picks a bucket.
///
/// Fx ends in a multiply, so bit `k` of a hash depends only on bits
/// `0..=k` of the words written. Keys that differ only in their high
/// bytes therefore land in a handful of buckets under plain Fx, and each
/// lookup walks one long probe chain: 8-byte ids such as `"P0012345"`
/// (the distinct digits sit in the high bytes of the one 8-byte chunk),
/// or a `u64` that is itself an Fx hash. `finish` byte-swaps the hash, so
/// its top byte (which depends on every input bit) becomes the low byte,
/// then multiplies once more, so every output bit depends on it. Maps
/// keyed that way — primary-key hashes, index terms — use this hasher.
/// `FxHasher` itself stays as it is: its `finish` is stored on disk in
/// checksums and key lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxFoldHasher(FxHasher);

impl Hasher for FxFoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish().swap_bytes().wrapping_mul(SEED)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.0.write_u8(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0.write_u32(v);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0.write_usize(v);
    }
}

/// `HashMap` keyed with [`FxFoldHasher`].
pub type FxFoldHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxFoldHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, "v");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential ids must not collapse to sequential buckets; check the
        // low bits differ across a small run.
        let lows: FxHashSet<u64> = (0..64u64)
            .map(|i| {
                let mut h = FxHasher::default();
                h.write_u64(i);
                h.finish() & 0xff
            })
            .collect();
        assert!(lows.len() > 32, "low bits too clustered: {}", lows.len());
    }

    #[test]
    fn fold_spreads_keys_that_differ_only_in_high_bytes() {
        // 8-byte ids whose first two bytes are shared: plain Fx leaves
        // the low bucket bits almost constant, the fold does not.
        let low_bits = |fold: bool| -> usize {
            (0..4096u32)
                .map(|i| {
                    let key = format!("P{i:07}");
                    let h = if fold {
                        let mut h = FxFoldHasher::default();
                        h.write(key.as_bytes());
                        h.finish()
                    } else {
                        let mut h = FxHasher::default();
                        h.write(key.as_bytes());
                        h.finish()
                    };
                    h & 0xfff
                })
                .collect::<FxHashSet<u64>>()
                .len()
        };
        assert!(low_bits(false) < 64, "plain Fx: {}", low_bits(false));
        assert!(low_bits(true) > 2048, "folded: {}", low_bits(true));
    }

    #[test]
    fn byte_stream_matches_chunked_writes() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(a.finish(), b.finish());
    }
}
