//! The budgeted graph's state index: a word-folding hasher and an id table.
//!
//! [`BudgetedGraph`](crate::BudgetedGraph) hashes every generated successor,
//! so the hasher sits on its hottest path. SipHash's per-message setup and
//! byte rounds cost more than a state's few dozen words of payload; this
//! hasher folds one 64-bit word per multiply instead. It is not
//! collision-resistant, which an index over states of the search's own
//! making does not need: every lookup confirms full equality, so hash
//! quality affects speed only, never an answer. It belongs to this crate so
//! that the `rcn-mc` re-derivation of the same graph shares no code with it.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// An odd multiplier with well-spread bits (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The word-at-a-time hasher behind [`StateIds`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher {
    hash: u64,
}

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    /// Folds `bytes` eight at a time, zero-padding the tail word. An integer
    /// slice (a local state's words, the allowances) arrives as one call.
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

    /// Rotates the best-mixed top bits down to where `HashMap` takes its
    /// bucket index from.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

type WordBuildHasher = BuildHasherDefault<WordHasher>;

/// No further id with the same digest.
const NONE: u32 = u32::MAX;

/// An index from states to their ids in a caller-owned `Vec`, which stays
/// the only copy of each state: the table maps a state's digest to the
/// last id inserted with it, and `older[id]` chains to the previous one.
#[derive(Debug, Default)]
pub(crate) struct StateIds {
    heads: HashMap<u64, u32, WordBuildHasher>,
    older: Vec<u32>,
}

/// The result of [`StateIds::find`].
pub(crate) enum Lookup {
    /// The state is stored at this id.
    Found(usize),
    /// The state is new; pass the digest on to [`StateIds::insert`].
    Absent(u64),
}

impl StateIds {
    /// Looks `key` up among `states` (indexed by id).
    #[inline]
    pub(crate) fn find<T: Hash + Eq>(&self, states: &[T], key: &T) -> Lookup {
        self.find_digest(WordBuildHasher::default().hash_one(key), states, key)
    }

    /// [`find`](Self::find) with the digest already computed.
    #[inline]
    fn find_digest<T: Eq>(&self, digest: u64, states: &[T], key: &T) -> Lookup {
        let mut id = self.heads.get(&digest).copied().unwrap_or(NONE);
        while id != NONE {
            if states[id as usize] == *key {
                return Lookup::Found(id as usize);
            }
            id = self.older[id as usize];
        }
        Lookup::Absent(digest)
    }

    /// Records the first state, id 0, in an empty index.
    pub(crate) fn insert_root<T: Hash>(&mut self, root: &T) {
        self.insert(WordBuildHasher::default().hash_one(root), 0);
    }

    /// Records that the state with `digest` (from [`find`](Self::find))
    /// now lives at `id`, the next id in insertion order.
    #[inline]
    pub(crate) fn insert(&mut self, digest: u64, id: usize) {
        debug_assert_eq!(id, self.older.len(), "ids are inserted in order");
        let id = u32::try_from(id).expect("fewer than 2^32 states");
        self.older
            .push(self.heads.insert(digest, id).unwrap_or(NONE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest<T: Hash>(value: &T) -> u64 {
        WordBuildHasher::default().hash_one(value)
    }

    #[test]
    fn every_word_length_and_order_reaches_the_digest() {
        let base: Vec<u32> = (1..=7).collect();
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x100;
            assert_ne!(digest(&flipped), digest(&base), "word {i} ignored");
        }
        assert_ne!(digest(&vec![0u32; 2]), digest(&vec![0u32; 4]));
        assert_ne!(digest(&vec![1u32, 2]), digest(&vec![2u32, 1]));
    }

    #[test]
    fn colliding_digests_still_resolve_by_equality() {
        // Force every state onto one digest: the chain must still tell
        // them apart and keep their ids.
        let states = vec![(1u32, 2u32), (3, 4), (1, 3)];
        let mut ids = StateIds::default();
        for i in 0..states.len() {
            ids.insert(7, i);
        }
        let find = |key: &(u32, u32)| match ids.find_digest(7, &states, key) {
            Lookup::Found(id) => Some(id),
            Lookup::Absent(_) => None,
        };
        assert_eq!(find(&(1, 2)), Some(0));
        assert_eq!(find(&(1, 3)), Some(2));
        assert_eq!(find(&(9, 9)), None);
    }

    #[test]
    fn find_then_insert_round_trips() {
        let mut states: Vec<Vec<u32>> = Vec::new();
        let mut ids = StateIds::default();
        for key in [vec![1], vec![2, 3], vec![1], vec![], vec![2, 3]] {
            match ids.find(&states, &key) {
                Lookup::Found(id) => assert_eq!(states[id], key),
                Lookup::Absent(digest) => {
                    ids.insert(digest, states.len());
                    states.push(key);
                }
            }
        }
        assert_eq!(states, vec![vec![1], vec![2, 3], vec![]]);
    }
}
