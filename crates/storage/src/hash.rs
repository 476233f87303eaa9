//! The one hash of the local data path: a fixed multiply-rotate mix.
//!
//! Both the deduplication table of [`crate::Relation`] and the key maps of
//! the join kernel ([`crate::join`]) hash `u64` values that the program
//! itself routed, millions of times per query. SipHash's collision
//! resistance buys nothing there and costs most of the build time, so the
//! crate uses one cheap, **unseeded** mix instead — which also makes table
//! layouts, and therefore run times, reproducible across runs.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const MULTIPLIER: u64 = 0x517C_C1B7_2722_0A95;

/// Fold one value into a running hash.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(MULTIPLIER)
}

/// Hash of a row. The multiply carries entropy upwards only, so callers
/// index with the **high** bits.
#[inline]
pub(crate) fn hash_row(row: &[u64]) -> u64 {
    row.iter().fold(SEED, |h, &v| mix(h, v))
}

/// [`Hasher`] over the same mix, for `HashMap`s keyed by values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MixHasher(u64);

impl Default for MixHasher {
    fn default() -> Self {
        MixHasher(SEED)
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// `HashMap` buckets by the low bits, where the multiply leaves the
    /// least entropy: rotate the well-mixed high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` for maps keyed by database values.
pub(crate) type BuildMixHasher = BuildHasherDefault<MixHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn high_bits_separate_low_entropy_inputs() {
        // Multiples of 2^20 differ only in high input bits; the top 16 bits
        // of the row hash must still spread them.
        let slots: HashSet<u64> = (0..4096u64).map(|i| hash_row(&[i << 20]) >> 48).collect();
        assert!(slots.len() > 3500, "only {} distinct slots", slots.len());
    }

    #[test]
    fn map_hash_spreads_in_the_low_bits() {
        let build = BuildMixHasher::default();
        let low: HashSet<u64> = (0..4096u64).map(|i| build.hash_one(i << 20) & 0xFFFF).collect();
        assert!(low.len() > 3500, "only {} distinct low halves", low.len());
        // A pair key hashes through the same word mix as a row.
        assert_eq!(build.hash_one((7u64, 9u64)), hash_row(&[7, 9]).rotate_left(26));
    }
}
