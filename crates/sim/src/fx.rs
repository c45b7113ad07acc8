//! A minimal multiply-rotate hasher for the simulator's interior maps.
//!
//! The simulator's remaining hash maps (pending fills/remote requests in
//! the memory system, the violation detector's granule → slab-slot
//! index) are keyed by small integers and hit on every memory access,
//! so the default SipHash — designed to resist adversarial keys — is
//! pure overhead here. This hasher trades that robustness for a couple
//! of arithmetic instructions per key, the same trade the compiler
//! itself makes for its interner tables. Only lookup cost changes:
//! nothing in the simulator depends on map iteration order, so results
//! are bit-identical to the SipHash build.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Multiply-rotate hasher: `h = (rotl(h, 5) ^ word) * K` per input word.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// Odd multiplicative constant (2^64 / φ), spreading entropy into the
/// high bits the map's modulo actually uses.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_roundtrip_and_distinguish_keys() {
        let mut m: FxHashMap<(u64, usize), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i, (i % 7) as usize), i * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(41, 6)), Some(&123));
        assert_eq!(m.get(&(41, 0)), None);
    }

    #[test]
    fn hasher_differs_on_word_order() {
        let h = |a: u64, b: u64| {
            let mut h = FxHasher::default();
            h.write_u64(a);
            h.write_u64(b);
            h.finish()
        };
        assert_ne!(h(1, 2), h(2, 1));
        assert_ne!(h(0, 1), h(1, 0));
    }
}
