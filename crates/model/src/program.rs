//! Process programs: deterministic per-process code.
//!
//! Paper, §2: *"An algorithm defines a set of objects, an initial value for
//! each of these objects, and an initial state for each process.
//! Furthermore, for every state of every process, an algorithm defines the
//! next step that process will apply."* A step is an operation on a shared
//! object, or a no-op when the process is in an output state.
//!
//! A [`Program`] is that per-process state machine. Local state is an opaque
//! hashable word vector ([`LocalState`]); when a process crashes the
//! executor resets its local state to [`Program::initial_state`] — the input
//! survives the crash (it is part of the initial state), everything else is
//! lost, exactly as in the paper's model of individual crashes.

use crate::heap::ObjectId;
use crate::schedule::ProcessId;
use rcn_spec::{OpId, Response};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The volatile local state of a process: an opaque word vector.
///
/// The representation is deliberately dumb — cheap to clone, hash and
/// compare — because the model checker stores millions of them. Programs
/// define their own encoding; `LocalState` just carries the words.
///
/// Up to four words live inline, so building, cloning and
/// dropping the state of every shipped protocol allocates nothing; longer
/// states (the universal constructions') spill to the heap. The
/// representation is invisible: `Eq`, `Ord` and `Hash` all go through
/// [`words`](Self::words), and the hash stream is exactly a `Vec<u32>`'s
/// (length prefix, then the words as one slice), so hash-ordered maps and
/// everything persisted from them are the same as with a plain vector.
///
/// # Examples
///
/// ```
/// use rcn_model::LocalState;
/// let s = LocalState::from_words([1, 2]);
/// assert_eq!(s.word(0), 1);
/// assert_eq!(s.words(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct LocalState(Words);

/// The words a [`LocalState`] holds without a heap allocation.
const INLINE_WORDS: usize = 4;

/// A state's words: inline exactly when there are at most
/// [`INLINE_WORDS`] of them (unused inline slots stay zero). A spilled
/// state is a boxed slice, not a `Vec`, so the whole value stays as wide
/// as a `Vec<u32>`.
#[derive(Clone)]
enum Words {
    Inline { len: u8, words: [u32; INLINE_WORDS] },
    Heap(Box<[u32]>),
}

impl Default for Words {
    fn default() -> Self {
        Words::Inline {
            len: 0,
            words: [0; INLINE_WORDS],
        }
    }
}

/// Written out so that [`clone_from`](Clone::clone_from) reuses a spilled
/// word buffer of the same length: the search engines rebuild a child
/// configuration in one scratch value per event. An inline state is a
/// plain copy either way.
impl Clone for LocalState {
    #[inline]
    fn clone(&self) -> Self {
        LocalState(self.0.clone())
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.0, &source.0) {
            (Words::Heap(dst), Words::Heap(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl LocalState {
    /// Creates a state from words.
    #[inline]
    pub fn from_words(words: impl IntoIterator<Item = u32>) -> Self {
        let mut iter = words.into_iter();
        let mut inline = [0; INLINE_WORDS];
        for (len, slot) in inline.iter_mut().enumerate() {
            match iter.next() {
                Some(w) => *slot = w,
                None => return LocalState::inline(len, inline),
            }
        }
        match iter.next() {
            None => LocalState::inline(INLINE_WORDS, inline),
            Some(w) => {
                let mut heap = Vec::with_capacity(INLINE_WORDS + 1 + iter.size_hint().0);
                heap.extend_from_slice(&inline);
                heap.push(w);
                heap.extend(iter);
                LocalState(Words::Heap(heap.into_boxed_slice()))
            }
        }
    }

    #[inline]
    fn inline(len: usize, words: [u32; INLINE_WORDS]) -> Self {
        LocalState(Words::Inline {
            len: len as u8,
            words,
        })
    }

    /// A single-word state.
    #[inline]
    pub fn word1(w: u32) -> Self {
        LocalState::inline(1, [w, 0, 0, 0])
    }

    /// A two-word state.
    #[inline]
    pub fn word2(a: u32, b: u32) -> Self {
        LocalState::inline(2, [a, b, 0, 0])
    }

    /// The word at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn word(&self, i: usize) -> u32 {
        self.words()[i]
    }

    /// All words.
    #[inline]
    pub fn words(&self) -> &[u32] {
        match &self.0 {
            Words::Inline { len, words } => &words[..usize::from(*len)],
            Words::Heap(words) => words,
        }
    }
}

impl PartialEq for LocalState {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for LocalState {}

impl PartialOrd for LocalState {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LocalState {
    fn cmp(&self, other: &Self) -> Ordering {
        self.words().cmp(other.words())
    }
}

/// Hashes exactly as the `Vec<u32>` of the same words does.
impl Hash for LocalState {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
    }
}

/// Prints `LocalState([w0, w1, ..])`, whatever the representation.
impl fmt::Debug for LocalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LocalState").field(&self.words()).finish()
    }
}

impl fmt::Display for LocalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}⟩",
            self.words()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// What a process does when it next takes a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Apply `op` to the shared object `object`.
    Invoke {
        /// The target object.
        object: ObjectId,
        /// The operation to apply.
        op: OpId,
    },
    /// The process is in an output state for `value`; its steps are no-ops.
    Output(u32),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Invoke { object, op } => write!(f, "invoke {op} on {object}"),
            Action::Output(v) => write!(f, "output {v}"),
        }
    }
}

/// A deterministic per-process program for a task with private inputs.
///
/// The executor drives the program as follows, for process `pid` with input
/// `input`:
///
/// 1. the process starts (and restarts after every crash) in
///    [`initial_state`](Program::initial_state)`(pid, input)`;
/// 2. when scheduled, the process performs [`action`](Program::action) of
///    its current state: an [`Action::Invoke`] applies an operation and the
///    state advances via [`transition`](Program::transition) on the
///    response; an [`Action::Output`] is a no-op step (the process has
///    decided);
/// 3. a crash resets the local state to step 1 — shared objects keep their
///    values.
///
/// Implementations must be deterministic: both `action` and `transition`
/// must be pure functions.
pub trait Program: Send + Sync {
    /// A short name for reports.
    fn name(&self) -> String;

    /// The initial (and post-crash) state of `pid` with input `input`.
    fn initial_state(&self, pid: ProcessId, input: u32) -> LocalState;

    /// What `pid` does next in `state`.
    fn action(&self, pid: ProcessId, state: &LocalState) -> Action;

    /// The new state after the invocation of [`Action::Invoke`] returned
    /// `response`.
    ///
    /// Only called when `action(pid, state)` is an `Invoke`.
    fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState;
}

/// A trivial program that immediately outputs its input. Used as a baseline
/// and in tests: it solves consensus if and only if all inputs are equal.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputInput;

impl Program for OutputInput {
    fn name(&self) -> String {
        "output-input".into()
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::word1(input)
    }

    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        Action::Output(state.word(0))
    }

    fn transition(&self, _pid: ProcessId, state: &LocalState, _response: Response) -> LocalState {
        state.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_state_constructors_agree() {
        assert_eq!(LocalState::word1(3), LocalState::from_words([3]));
        assert_eq!(LocalState::word2(1, 2), LocalState::from_words([1, 2]));
        assert_eq!(LocalState::word2(1, 2).to_string(), "⟨1,2⟩");
    }

    /// A `Hasher` that records the exact call stream it receives, so two
    /// values can be checked to hash identically under every hasher.
    #[derive(Default)]
    struct Recording(Vec<String>);

    impl std::hash::Hasher for Recording {
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(format!("bytes{bytes:?}"));
        }

        fn write_usize(&mut self, i: usize) {
            self.0.push(format!("usize{i}"));
        }

        fn finish(&self) -> u64 {
            0
        }
    }

    fn hash_stream<T: Hash + ?Sized>(value: &T) -> Vec<String> {
        let mut h = Recording::default();
        value.hash(&mut h);
        h.0
    }

    #[test]
    fn local_state_stays_one_vec_wide() {
        assert!(std::mem::size_of::<LocalState>() <= std::mem::size_of::<Vec<u32>>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Inline (≤ 4 words) and spilled states behave exactly like the
        /// `Vec<u32>` of their words: equality, order, printing, the hash
        /// call stream, and `clone_from` between any two representations.
        #[test]
        fn local_state_matches_its_word_vector(
            a in proptest::prelude::prop::collection::vec(0u32..4, 0..9),
            b in proptest::prelude::prop::collection::vec(0u32..4, 0..9),
        ) {
            let (sa, sb) = (LocalState::from_words(a.clone()), LocalState::from_words(b.clone()));
            proptest::prop_assert_eq!(sa.words(), &a[..]);
            proptest::prop_assert_eq!(sa == sb, a == b);
            proptest::prop_assert_eq!(sa.cmp(&sb), a.cmp(&b));
            proptest::prop_assert_eq!(sa.partial_cmp(&sb), a.partial_cmp(&b));
            proptest::prop_assert_eq!(hash_stream(&sa), hash_stream(&a));
            proptest::prop_assert_eq!(format!("{sa:?}"), format!("LocalState({a:?})"));
            let shown: Vec<String> = a.iter().map(ToString::to_string).collect();
            proptest::prop_assert_eq!(sa.to_string(), format!("⟨{}⟩", shown.join(",")));
            for (i, &w) in a.iter().enumerate() {
                proptest::prop_assert_eq!(sa.word(i), w);
            }
            // `clone_from` inline→inline, inline→heap, heap→inline and
            // heap→heap, whichever pair this case drew.
            let mut target = sb.clone();
            target.clone_from(&sa);
            proptest::prop_assert_eq!(target.words(), &a[..]);
            proptest::prop_assert_eq!(hash_stream(&target), hash_stream(&a));
            proptest::prop_assert_eq!(&target, &sa);
            proptest::prop_assert_eq!(&sa.clone(), &sa);
        }
    }

    #[test]
    fn clone_from_covers_all_four_representation_pairs() {
        let short = LocalState::from_words([1, 2, 3]);
        let long = LocalState::from_words([9, 8, 7, 6, 5, 4]);
        let long2 = LocalState::from_words([1, 1, 1, 1, 1]);
        for (dst, src) in [
            (&short, &long2),
            (&short, &long),
            (&long, &short),
            (&long, &long2),
        ] {
            let mut target = dst.clone();
            target.clone_from(src);
            assert_eq!(target.words(), src.words());
            assert_eq!(hash_stream(&target), hash_stream(&src.words().to_vec()));
        }
        assert_eq!(LocalState::default().words(), &[] as &[u32]);
        assert_eq!(LocalState::default(), LocalState::from_words([]));
    }

    #[test]
    #[should_panic]
    fn word_past_the_length_panics_even_inline() {
        let _ = LocalState::word2(1, 2).word(2);
    }

    #[test]
    fn output_input_is_immediately_decided() {
        let prog = OutputInput;
        let s = prog.initial_state(ProcessId::new(0), 1);
        assert_eq!(prog.action(ProcessId::new(0), &s), Action::Output(1));
    }

    #[test]
    fn action_display() {
        let a = Action::Invoke {
            object: ObjectId::new(0),
            op: OpId::new(2),
        };
        assert_eq!(a.to_string(), "invoke op2 on obj0");
        assert_eq!(Action::Output(1).to_string(), "output 1");
    }
}
