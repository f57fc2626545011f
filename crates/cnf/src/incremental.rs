//! Persistent (incremental) use of an [`Unroller`].
//!
//! A bound loop that rebuilds its unrolling at bound `k` re-Tseitin-encodes
//! all `k` frames — `O(k²)` total encoding work across a run that only
//! ever *extends* the unrolling by one frame at a time.  An [`Unroller`]
//! kept across bounds keeps its frames, per-frame latch/input variable
//! maps and Tseitin caches alive, so adding frame `k+1` only encodes the
//! *delta* — the next-state cones at frame `k` and the new frame's latch
//! equalities.  Two consumption styles are supported:
//!
//! * **delta drain** ([`pending_clauses`](Unroller::pending_clauses) /
//!   [`mark_drained`](Unroller::mark_drained)) — feed only the newly
//!   emitted clauses into a long-lived incremental SAT solver, as the BMC
//!   engine does;
//! * **slices** ([`clauses`](Unroller::clauses) plus
//!   [`detached_lit`](Unroller::detached_lit) for targets that must stay
//!   out of the cache) — load a prefix of the accumulated clauses and a
//!   per-check tail into a fresh proof-logging solver, as the
//!   interpolation engines do (their partition-labelled proofs must come
//!   from a solver that saw exactly that check's formula, so only the
//!   *encoding* is shared there, never the solver).
//!
//! Clause and variable allocation order depends only on the sequence of
//! operations, never on when clauses are drained, which is what lets the
//! engines keep their cached instances bit-identical to one-shot builds
//! (see the seq-engine cache in the model-checker crate).
//!
//! ```
//! use cnf::Unroller;
//!
//! let mut aig = aig::Aig::new();
//! let l = aig.add_latch(false);
//! let cur = aig.latch_lit(l);
//! aig.set_next(l, !cur);
//! aig.add_bad(cur);
//!
//! let mut unroller = Unroller::new(&aig);
//! unroller.assert_initial(0);
//! unroller.add_frame();
//! let first = unroller.pending_clauses().len();
//! unroller.mark_drained();
//! unroller.add_frame();
//! // The second frame only emitted its delta.
//! assert!(!unroller.pending_clauses().is_empty());
//! assert!(unroller.pending_clauses().len() <= first);
//! ```

use crate::{Clause, Lit, Unroller};

impl Unroller<'_> {
    /// Encodes several bad-state literals at frame `frame` in one call —
    /// the multi-property consumers' bulk form of
    /// [`bad_lit`](Self::bad_lit).  Shared cone structure is encoded once
    /// (the per-frame Tseitin cache deduplicates across properties), so
    /// the emitted delta grows with the *union* of the cones, not their
    /// sum.
    pub fn bad_lits<I>(&mut self, frame: usize, indices: I) -> Vec<Lit>
    where
        I: IntoIterator<Item = usize>,
    {
        indices
            .into_iter()
            .map(|index| self.bad_lit(frame, index))
            .collect()
    }

    /// The clauses emitted since the last [`mark_drained`](Self::mark_drained)
    /// — the delta a long-lived incremental solver still has to load.
    pub fn pending_clauses(&self) -> &[Clause] {
        &self.clauses()[self.drained..]
    }

    /// Marks every clause emitted so far as consumed; subsequent
    /// [`pending_clauses`](Self::pending_clauses) calls return only newer
    /// clauses.
    pub fn mark_drained(&mut self) {
        self.drained = self.num_clauses();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Aig;
    use std::sync::Arc;

    fn counter2() -> Aig {
        let mut aig = Aig::new();
        let en = aig::Lit::positive(aig.add_input());
        let (ids, lits) = aig::builder::latch_word(&mut aig, 2, 0);
        let next = aig::builder::word_increment(&mut aig, &lits, en);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let bad = aig.and(lits[0], lits[1]);
        aig.add_bad(bad);
        aig
    }

    /// Drives a borrowing unroller and a shared one, drained frame by
    /// frame, through the same operations: clauses and variables must
    /// match exactly.
    #[test]
    fn matches_scratch_unroller_clause_for_clause() {
        let aig = counter2();
        let mut scratch = Unroller::new(&aig);
        let mut incremental = Unroller::shared(Arc::new(aig.clone()));
        scratch.builder_mut().set_partition(1);
        incremental.builder_mut().set_partition(1);
        scratch.assert_initial(0);
        incremental.assert_initial(0);
        let mut drained: Vec<Clause> = Vec::new();
        for f in 1..=5usize {
            scratch.builder_mut().set_partition(f as u32 + 1);
            incremental.builder_mut().set_partition(f as u32 + 1);
            scratch.add_frame();
            incremental.add_frame();
            let sb = scratch.bad_lit(f, 0);
            let ib = incremental.bad_lit(f, 0);
            assert_eq!(sb, ib, "bad literal at frame {f}");
            drained.extend_from_slice(incremental.pending_clauses());
            incremental.mark_drained();
        }
        assert_eq!(scratch.num_vars(), incremental.num_vars());
        assert_eq!(scratch.clauses(), &drained[..]);
    }

    #[test]
    fn delta_drain_covers_every_clause_exactly_once() {
        let aig = counter2();
        let mut u = Unroller::new(&aig);
        u.assert_initial(0);
        let mut drained: Vec<Clause> = Vec::new();
        for f in 1..=6usize {
            u.add_frame();
            let _ = u.bad_lit(f, 0);
            drained.extend(u.pending_clauses().iter().cloned());
            u.mark_drained();
            assert!(u.pending_clauses().is_empty());
        }
        assert_eq!(drained.len(), u.num_clauses());
        assert_eq!(&drained[..], u.builder().clauses());
    }

    #[test]
    fn per_frame_delta_is_bounded() {
        // The delta emitted for frame k must not grow with k: that is the
        // O(K) total-encoding property the BMC engine relies on.
        let aig = counter2();
        let mut u = Unroller::new(&aig);
        u.assert_initial(0);
        let mut per_frame = Vec::new();
        for f in 1..=10usize {
            u.add_frame();
            let _ = u.bad_lit(f, 0);
            per_frame.push(u.pending_clauses().len());
            u.mark_drained();
        }
        let first = per_frame[1];
        assert!(
            per_frame[1..].iter().all(|&n| n == first),
            "steady-state per-frame delta must be constant: {per_frame:?}"
        );
    }

    /// A counter with three bad cones over the same latch word.
    fn multi_bad_counter() -> Aig {
        let mut aig = counter2();
        let lits: Vec<aig::Lit> = (0..2).map(|l| aig.latch_lit(l)).collect();
        let both_low = aig.and(!lits[0], !lits[1]);
        aig.add_bad(both_low);
        aig.add_bad(lits[0]);
        aig
    }

    #[test]
    fn bulk_bad_encoding_matches_one_by_one() {
        let aig = multi_bad_counter();
        let mut bulk = Unroller::new(&aig);
        let mut single = Unroller::new(&aig);
        bulk.assert_initial(0);
        single.assert_initial(0);
        let bulk_lits = bulk.bad_lits(0, 0..aig.num_bad());
        let single_lits: Vec<Lit> = (0..aig.num_bad()).map(|i| single.bad_lit(0, i)).collect();
        assert_eq!(bulk_lits, single_lits);
        assert_eq!(bulk.num_clauses(), single.num_clauses());
        // The shared cone structure (the latch literals) is cached: the
        // second and third cones add at most their own gates.
        let mut fresh = Unroller::new(&aig);
        fresh.assert_initial(0);
        let _ = fresh.bad_lit(0, 0);
        let after_first = fresh.num_clauses();
        let _ = fresh.bad_lits(0, [1, 2]);
        assert!(
            fresh.num_clauses() - after_first <= after_first,
            "later cones reuse the cached structure"
        );
    }

    /// A detached target encodes on a fresh last frame exactly as a
    /// scratch unrolling ending there does, and leaves the cache alone —
    /// even after the cache has moved past that frame.  Its input
    /// literals are the scratch frame's.
    #[test]
    fn detached_lit_matches_a_scratch_last_frame() {
        let aig = counter2();
        let mut u = Unroller::new(&aig);
        u.builder_mut().set_partition(1);
        u.assert_initial(0);
        u.add_frame();
        let (clauses_at_1, vars_at_1) = (u.num_clauses(), u.num_vars());
        u.add_frame();
        let before = u.num_clauses();
        // The first latch's next-state cone reads the enable input.
        for target in [aig.bad(0), aig.next(0)] {
            let (cone, lit, inputs) = u.detached_lit(1, target, vars_at_1, 3);
            assert_eq!(u.num_clauses(), before, "the cache must not grow");

            let mut scratch = Unroller::new(&aig);
            scratch.builder_mut().set_partition(1);
            scratch.assert_initial(0);
            scratch.add_frame();
            scratch.builder_mut().set_partition(3);
            assert_eq!(scratch.lit(1, target), lit);
            assert_eq!(&scratch.clauses()[clauses_at_1..], &cone.clauses[..]);
            assert_eq!(scratch.num_vars(), cone.num_vars);
            assert_eq!(scratch.frame_inputs(1), &inputs[..]);
            assert!(cone.clauses.iter().all(|c| c.partition == 3));
        }
    }

    #[test]
    fn owning_the_design_allows_the_borrow_to_end() {
        let u = {
            let aig = counter2();
            let mut u = Unroller::shared(Arc::new(aig));
            u.assert_initial(0);
            u.add_frame();
            u
        };
        assert_eq!(u.num_frames(), 2);
        assert_eq!(u.aig().num_latches(), 2);
    }
}
