//! Canonical state hashing for the breadth-first checker.
//!
//! The checker keys its visited set on the *canonical encoding* of a state
//! (the `Hash` traversal of its fields, which is deterministic and
//! injective up to structural equality) folded into a 64-bit digest. The
//! digest folds the encoding one 64-bit word at a time — an FNV-style
//! xor-multiply round per word, plus a shift that feeds the high bits
//! back down — rather than one FNV-1a round per byte, since a state's
//! words arrive as whole slices. Hashing is only a bucket index: lookups
//! always confirm full structural equality, so a 64-bit collision can
//! never merge two distinct states — it only costs one extra comparison.
//! This keeps the checker sound while staying deliberately independent of
//! the DFS explorer's memo hasher. The byte-wise [`Fnv1a`] hasher stays
//! available as a reference implementation of the classic function.

use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a [`Hasher`].
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a { state: FNV_OFFSET }
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The word-folding hasher behind [`canonical_hash`]: FNV's offset basis
/// and prime, applied to 64-bit words instead of bytes.
struct WordFold {
    state: u64,
}

impl WordFold {
    #[inline]
    fn fold(&mut self, word: u64) {
        let x = (self.state ^ word).wrapping_mul(FNV_PRIME);
        // FNV's sparse prime only carries differences upwards; the shift
        // brings the high half back into the low bits.
        self.state = x ^ (x >> 29);
    }
}

impl Hasher for WordFold {
    /// Folds `bytes` eight at a time, zero-padding the tail word. Integer
    /// slices (a local state's words, the crash counts) arrive here as one
    /// call.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The canonical word-folded digest of any hashable state.
pub fn canonical_hash<T: Hash>(value: &T) -> u64 {
    let mut h = WordFold { state: FNV_OFFSET };
    value.hash(&mut h);
    h.finish()
}

/// A chained hash index over an external state store: maps canonical
/// digests to the indices of the states bearing them, confirming equality
/// through the caller's slice on every probe.
#[derive(Default)]
pub struct StateIndex {
    buckets: std::collections::HashMap<u64, Vec<u32>>,
}

impl StateIndex {
    /// An empty index.
    pub fn new() -> StateIndex {
        StateIndex::default()
    }

    /// Looks up `key` among `states`, returning its index if present.
    pub fn find<T: Hash + Eq>(&self, states: &[T], key: &T) -> Option<usize> {
        let digest = canonical_hash(key);
        self.buckets
            .get(&digest)?
            .iter()
            .map(|&i| i as usize)
            .find(|&i| &states[i] == key)
    }

    /// Records that `key` lives at `index` in the caller's store.
    pub fn insert<T: Hash>(&mut self, key: &T, index: usize) {
        let digest = canonical_hash(key);
        self.buckets.entry(digest).or_default().push(index as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn canonical_digest_sees_every_word() {
        // Slices spanning several 64-bit words with a partial tail: a change
        // to any one word, the length, or the order changes the digest.
        let base: Vec<u32> = (1..=7).collect();
        let reference = canonical_hash(&base);
        assert_eq!(canonical_hash(&base.clone()), reference);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x100;
            assert_ne!(canonical_hash(&flipped), reference, "word {i} ignored");
        }
        assert_ne!(
            canonical_hash(&vec![0u32; 2]),
            canonical_hash(&vec![0u32; 4])
        );
        assert_ne!(canonical_hash(&(1u16, 2u16)), canonical_hash(&(2u16, 1u16)));
    }

    #[test]
    fn index_distinguishes_colliding_buckets() {
        // Equality is structural even if digests were to collide: the index
        // never returns a structurally different state.
        let states = vec![(1u32, 2u32), (3, 4), (1, 3)];
        let mut index = StateIndex::new();
        for (i, s) in states.iter().enumerate() {
            index.insert(s, i);
        }
        assert_eq!(index.find(&states, &(1, 2)), Some(0));
        assert_eq!(index.find(&states, &(1, 3)), Some(2));
        assert_eq!(index.find(&states, &(9, 9)), None);
    }
}
