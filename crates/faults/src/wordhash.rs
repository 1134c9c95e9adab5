//! The memo's hasher: a word-at-a-time multiplicative fold.
//!
//! The explorer hashes every generated child state — on a memo hit as well
//! as on an insert — so the hasher sits on the hottest path of the search.
//! SipHash's per-message setup and byte-oriented rounds cost more than the
//! key's few dozen words of payload. This hasher folds one 64-bit word per
//! multiply instead. It is not collision-resistant against an adversary,
//! which a memo keyed on states of the search's own making does not need;
//! `HashMap` confirms every hit by full equality, so hash quality affects
//! speed only, never a verdict. It is public for the other searches over
//! the same states that have no word hasher of their own (the RCN104 lint's
//! crash-divergence search in `rcn-analyze`).

use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// `BuildHasher` for the explorer's memo maps.
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

/// The hasher behind [`WordBuildHasher`].
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher {
    hash: u64,
}

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    /// Folds `bytes` eight at a time. A `u32` or `usize` slice arrives here
    /// as one call (`Hash::hash_slice` on integers writes the raw bytes), so
    /// folding per byte would undo the point of the hasher.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The last multiply leaves its best-mixed bits at the top; rotating
    /// them down feeds them to the bucket index, which `HashMap` takes
    /// from the low bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn digest<T: Hash>(value: &T) -> u64 {
        WordBuildHasher::default().hash_one(value)
    }

    #[test]
    fn every_byte_of_a_slice_reaches_the_digest() {
        // Slices longer than one word, with a partial tail word: flipping
        // any single byte must change the digest.
        let base: Vec<u32> = (1..=7).collect();
        let reference = digest(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x100;
            assert_ne!(digest(&flipped), reference, "word {i} ignored");
        }
    }

    #[test]
    fn lengths_and_order_are_distinguished() {
        assert_ne!(digest(&vec![0u32; 2]), digest(&vec![0u32; 4]));
        assert_ne!(digest(&vec![1u32, 2]), digest(&vec![2u32, 1]));
        assert_eq!(digest(&vec![3u32, 4]), digest(&vec![3u32, 4]));
    }
}
