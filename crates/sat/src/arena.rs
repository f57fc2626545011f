//! Flat clause storage for the CDCL core.
//!
//! All clauses — original and learned — live in one contiguous `Vec<u32>`
//! (the *arena*): a four-word header followed by the literal codes.  The
//! solver refers to a clause by [`ClauseRef`], the word offset of its
//! header, so following a watcher touches exactly one allocation instead
//! of chasing a `Vec<Vec<Lit>>` double indirection per clause.
//!
//! Header layout (see the `w0..w3` accessors):
//!
//! | word | content |
//! |------|---------|
//! | 0    | number of literals |
//! | 1    | flag bits (learned / deleted / pinned / relocated) + LBD |
//! | 2    | interpolation partition (original clauses only) |
//! | 3    | proof-clause id, or [`NO_PROOF_ID`]; forwarding address during GC |
//!
//! Deletion only flips a flag and detaches the watchers; the words stay
//! behind as garbage until the solver runs a compacting collection
//! ([`ClauseArena::copy_into`] + forwarding addresses), which preserves
//! clause order — and therefore proof-id order — exactly.

use cnf::Lit;

/// Number of `u32` header words preceding a clause's literals.
const HEADER: u32 = 4;

const FLAG_LEARNED: u32 = 1 << 31;
const FLAG_DELETED: u32 = 1 << 30;
const FLAG_PINNED: u32 = 1 << 29;
const FLAG_RELOCATED: u32 = 1 << 28;
const LBD_MASK: u32 = FLAG_RELOCATED - 1;

/// Sentinel proof id for clauses created while proof logging is off.
pub(crate) const NO_PROOF_ID: u32 = u32::MAX;

/// Reference to an arena clause: the word offset of its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ClauseRef(u32);

/// The flat clause store.  See the module docs for the layout.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses, reclaimable by compaction.
    wasted: usize,
    /// Number of live (non-deleted) clauses.
    live: usize,
}

impl ClauseArena {
    pub fn with_capacity(words: usize) -> ClauseArena {
        ClauseArena {
            data: Vec::with_capacity(words),
            wasted: 0,
            live: 0,
        }
    }

    /// Reserves room for `clauses` more clauses holding `lits` literals in
    /// total, so a bulk load grows the arena once.
    pub fn reserve(&mut self, clauses: usize, lits: usize) {
        self.data.reserve(clauses * HEADER as usize + lits);
    }

    /// Appends a clause and returns its reference.
    pub fn alloc(
        &mut self,
        lits: &[Lit],
        learned: bool,
        partition: u32,
        proof_id: u32,
    ) -> ClauseRef {
        let at = self.data.len() as u32;
        self.data.push(lits.len() as u32);
        self.data.push(if learned { FLAG_LEARNED } else { 0 });
        self.data.push(partition);
        self.data.push(proof_id);
        self.data.extend(lits.iter().map(|l| l.code()));
        self.live += 1;
        ClauseRef(at)
    }

    #[inline]
    pub fn size(&self, c: ClauseRef) -> usize {
        self.data[c.0 as usize] as usize
    }

    #[inline]
    pub fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.data[c.0 as usize + HEADER as usize + i])
    }

    /// The literal codes of a clause, in arena order.
    #[inline]
    pub fn codes(&self, c: ClauseRef) -> &[u32] {
        let base = c.0 as usize + HEADER as usize;
        &self.data[base..base + self.size(c)]
    }

    #[inline]
    pub fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        let base = c.0 as usize + HEADER as usize;
        self.data.swap(base + i, base + j);
    }

    #[inline]
    pub fn lbd(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize + 1] & LBD_MASK
    }

    pub fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        let w = &mut self.data[c.0 as usize + 1];
        *w = (*w & !LBD_MASK) | lbd.min(LBD_MASK);
    }

    #[inline]
    pub fn is_learned(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize + 1] & FLAG_LEARNED != 0
    }

    #[inline]
    pub fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize + 1] & FLAG_DELETED != 0
    }

    pub fn mark_deleted(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.data[c.0 as usize + 1] |= FLAG_DELETED;
        self.wasted += HEADER as usize + self.size(c);
        self.live -= 1;
    }

    #[inline]
    pub fn is_pinned(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize + 1] & FLAG_PINNED != 0
    }

    pub fn pin(&mut self, c: ClauseRef) {
        self.data[c.0 as usize + 1] |= FLAG_PINNED;
    }

    /// The interpolation partition of an original clause.
    #[inline]
    pub fn partition(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize + 2]
    }

    #[inline]
    pub fn proof_id(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize + 3]
    }

    /// Number of live clauses.
    #[cfg(test)]
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Total words in use (live + garbage).
    pub fn len_words(&self) -> usize {
        self.data.len()
    }

    /// Bytes backing the arena (the reserved capacity, not just the words
    /// in use — the memory governor accounts for what is actually held).
    pub fn bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<u32>()
    }

    /// Words occupied by deleted clauses.
    pub fn wasted_words(&self) -> usize {
        self.wasted
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Walks every clause (including deleted ones) in allocation order.
    pub fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut at = 0u32;
        std::iter::from_fn(move || {
            if (at as usize) < self.data.len() {
                let c = ClauseRef(at);
                at += HEADER + self.data[at as usize];
                Some(c)
            } else {
                None
            }
        })
    }

    /// Copies a clause verbatim into `to` (a compaction target) and
    /// returns its new reference.
    pub fn copy_into(&self, c: ClauseRef, to: &mut ClauseArena) -> ClauseRef {
        let at = to.data.len() as u32;
        let words = HEADER as usize + self.size(c);
        to.data
            .extend_from_slice(&self.data[c.0 as usize..c.0 as usize + words]);
        to.live += 1;
        ClauseRef(at)
    }

    /// Records the compaction target of `c` (stored in the proof-id word;
    /// the old arena is dropped right after the pointer fix-up pass).
    pub fn set_forward(&mut self, c: ClauseRef, new: ClauseRef) {
        self.data[c.0 as usize + 1] |= FLAG_RELOCATED;
        self.data[c.0 as usize + 3] = new.0;
    }

    /// The compaction target recorded by [`Self::set_forward`].
    pub fn forward(&self, c: ClauseRef) -> ClauseRef {
        debug_assert!(self.data[c.0 as usize + 1] & FLAG_RELOCATED != 0);
        ClauseRef(self.data[c.0 as usize + 3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn lit(v: u32, neg: bool) -> Lit {
        Lit::new(Var::new(v), neg)
    }

    #[test]
    fn alloc_and_read_back() {
        let mut arena = ClauseArena::default();
        let a = arena.alloc(&[lit(0, false), lit(1, true)], false, 3, 7);
        let b = arena.alloc(&[lit(2, false)], true, 0, NO_PROOF_ID);
        assert_eq!(arena.size(a), 2);
        assert_eq!(arena.lit(a, 0), lit(0, false));
        assert_eq!(arena.lit(a, 1), lit(1, true));
        assert_eq!(arena.partition(a), 3);
        assert_eq!(arena.proof_id(a), 7);
        assert!(!arena.is_learned(a));
        assert!(arena.is_learned(b));
        assert_eq!(arena.refs().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(arena.num_live(), 2);
    }

    #[test]
    fn lbd_and_flags_roundtrip() {
        let mut arena = ClauseArena::default();
        let c = arena.alloc(&[lit(0, false), lit(1, false), lit(2, false)], true, 0, 5);
        arena.set_lbd(c, 9);
        assert_eq!(arena.lbd(c), 9);
        assert!(!arena.is_pinned(c));
        arena.pin(c);
        assert!(arena.is_pinned(c));
        assert_eq!(arena.lbd(c), 9, "pinning must not clobber the LBD");
        assert_eq!(arena.proof_id(c), 5);
        arena.mark_deleted(c);
        assert!(arena.is_deleted(c));
        assert_eq!(arena.num_live(), 0);
        assert_eq!(arena.wasted_words(), 4 + 3);
    }

    #[test]
    fn swaps_move_literals() {
        let mut arena = ClauseArena::default();
        let c = arena.alloc(&[lit(0, false), lit(1, false), lit(2, false)], false, 0, 0);
        arena.swap_lits(c, 0, 2);
        assert_eq!(arena.lit(c, 0), lit(2, false));
        assert_eq!(arena.lit(c, 2), lit(0, false));
    }

    #[test]
    fn compaction_preserves_order_and_content() {
        let mut arena = ClauseArena::default();
        let a = arena.alloc(&[lit(0, false), lit(1, false)], false, 1, 0);
        let b = arena.alloc(&[lit(2, false), lit(3, false), lit(4, true)], true, 0, 1);
        let c = arena.alloc(&[lit(5, true)], false, 2, 2);
        arena.mark_deleted(b);
        let mut to = ClauseArena::with_capacity(arena.len_words() - arena.wasted_words());
        for r in arena.refs().collect::<Vec<_>>() {
            if arena.is_deleted(r) {
                continue;
            }
            let new = arena.copy_into(r, &mut to);
            arena.set_forward(r, new);
        }
        let new_a = arena.forward(a);
        let new_c = arena.forward(c);
        assert_eq!(to.refs().collect::<Vec<_>>(), vec![new_a, new_c]);
        assert_eq!(to.size(new_a), 2);
        assert_eq!(to.lit(new_a, 1), lit(1, false));
        assert_eq!(to.partition(new_c), 2);
        assert_eq!(to.proof_id(new_c), 2);
        assert_eq!(to.wasted_words(), 0);
        assert_eq!(to.num_live(), 2);
    }
}
