//! Persistent (incremental) time-frame unrolling.
//!
//! The scratch [`Unroller`](crate::Unroller) is the right shape for
//! one-shot instance construction, but every bound loop that rebuilds it
//! at bound `k` re-Tseitin-encodes all `k` frames — `O(k²)` total encoding
//! work across a run that only ever *extends* the unrolling by one frame
//! at a time.
//!
//! [`IncrementalUnroller`] is the persistent variant: it owns its design
//! and keeps the frames, per-frame latch/input variable maps and Tseitin
//! caches alive across bounds, so adding frame `k+1` only encodes the
//! *delta* — the next-state cones at frame `k` and the new frame's latch
//! equalities.  Two consumption styles are supported:
//!
//! * **delta drain** ([`pending_clauses`](IncrementalUnroller::pending_clauses)
//!   / [`mark_drained`](IncrementalUnroller::mark_drained)) — feed only the
//!   newly emitted clauses into a long-lived incremental SAT solver, as the
//!   BMC engine does;
//! * **slices** ([`clauses`](IncrementalUnroller::clauses) plus
//!   [`detached_lit`](IncrementalUnroller::detached_lit) for targets that
//!   must stay out of the cache) — load a prefix of the accumulated
//!   clauses and a per-check tail into a fresh proof-logging solver, as
//!   the interpolation engines do (their partition-labelled proofs must
//!   come from a solver that saw exactly that check's formula, so only
//!   the *encoding* is shared there, never the solver).
//!
//! Clause and variable allocation order is exactly the order a scratch
//! `Unroller` driven through the same sequence of operations would
//! produce, which is what lets the engines keep their instances
//! bit-identical to the scratch path (see the seq-engine cache in the
//! model-checker crate).
//!
//! ```
//! use cnf::IncrementalUnroller;
//!
//! let mut aig = aig::Aig::new();
//! let l = aig.add_latch(false);
//! let cur = aig.latch_lit(l);
//! aig.set_next(l, !cur);
//! aig.add_bad(cur);
//!
//! let mut unroller = IncrementalUnroller::new(&aig);
//! unroller.assert_initial(0);
//! unroller.add_frame();
//! let first = unroller.pending_clauses().len();
//! unroller.mark_drained();
//! unroller.add_frame();
//! // The second frame only emitted its delta.
//! assert!(!unroller.pending_clauses().is_empty());
//! assert!(unroller.pending_clauses().len() <= first);
//! ```

use crate::unroll::FrameCore;
use crate::{Clause, Cnf, CnfBuilder, Lit};
use aig::Aig;
use std::sync::Arc;

/// A persistent unrolling of a sequential AIG: frames, variable maps and
/// Tseitin caches survive across bounds, and only delta clauses are
/// emitted when the unrolling grows.
///
/// See the module-level documentation for the two consumption styles.
#[derive(Clone, Debug)]
pub struct IncrementalUnroller {
    /// The design, shared so per-bound clones (the exact-k target path of
    /// the sequence engines) never deep-copy it.
    aig: Arc<Aig>,
    core: FrameCore,
    /// Clauses `0..drained` have already been handed to the consumer.
    drained: usize,
}

impl IncrementalUnroller {
    /// Creates a persistent unroller for `aig` (cloned, so the unroller can
    /// outlive the caller's borrow) with a single frame (frame 0).
    pub fn new(aig: &Aig) -> IncrementalUnroller {
        let core = FrameCore::new(aig);
        IncrementalUnroller {
            aig: Arc::new(aig.clone()),
            core,
            drained: 0,
        }
    }

    /// Returns the underlying design.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Number of frames created so far (at least 1).
    pub fn num_frames(&self) -> usize {
        self.core.num_frames()
    }

    /// Gives mutable access to the clause builder (for partition control
    /// and extra clauses).
    pub fn builder_mut(&mut self) -> &mut CnfBuilder {
        self.core.builder_mut()
    }

    /// Gives read access to the clause builder.
    pub fn builder(&self) -> &CnfBuilder {
        self.core.builder()
    }

    /// Returns the SAT literal of latch `latch` at frame `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame or latch index is out of range.
    pub fn latch_lit(&self, frame: usize, latch: usize) -> Lit {
        self.core.latch_lit(frame, latch)
    }

    /// Returns the SAT literals of every latch at frame `frame`.
    pub fn latch_lits(&self, frame: usize) -> Vec<Lit> {
        self.core.latch_lits(frame)
    }

    /// Returns (allocating on demand) the SAT literal of primary input
    /// `input` at frame `frame`.
    pub fn input_lit(&mut self, frame: usize, input: usize) -> Lit {
        self.core.input_lit(&self.aig, frame, input)
    }

    /// Encodes (or retrieves from the frame cache) the SAT literal of an
    /// AIG literal evaluated at frame `frame`.
    pub fn lit(&mut self, frame: usize, lit: aig::Lit) -> Lit {
        self.core.lit(&self.aig, frame, lit)
    }

    /// Asserts that frame `frame` is in the design's initial state.
    pub fn assert_initial(&mut self, frame: usize) {
        self.core.assert_initial(&self.aig, frame);
    }

    /// Adds a new frame and emits the transition constraint
    /// `T(V^{last}, V^{new})`; returns the index of the new frame.
    pub fn add_frame(&mut self) -> usize {
        self.core.add_frame(&self.aig)
    }

    /// Encodes bad-state literal `index` of the design at frame `frame`.
    pub fn bad_lit(&mut self, frame: usize, index: usize) -> Lit {
        self.core.bad_lit(&self.aig, frame, index)
    }

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

    /// Asserts an already-encoded SAT literal as a unit clause.
    pub fn assert_lit(&mut self, lit: Lit) {
        self.core.assert_lit(lit);
    }

    /// Encodes `lit` at `frame` as a scratch unrolling that ends at
    /// `frame` would, without touching this unroller: against a frame
    /// cache that holds only the frame's latch variables, with fresh input
    /// variables numbered from `first_var`, in partition `partition`.
    /// Returns the cone's clauses (`num_vars` is the next free variable)
    /// and the literal.
    ///
    /// The exact-k target of a cached unrolling is encoded this way: a
    /// scratch build encodes `bad(k)` on a fresh last frame, while the
    /// cache may already have filled that frame with next-state cones.
    pub fn detached_lit(
        &self,
        frame: usize,
        lit: aig::Lit,
        first_var: u32,
        partition: u32,
    ) -> (Cnf, Lit) {
        let (builder, lit) = self
            .core
            .detached_lit(&self.aig, frame, lit, first_var, partition);
        (builder.into_cnf(), lit)
    }

    /// Every clause emitted so far, in emission order.
    pub fn clauses(&self) -> &[Clause] {
        self.core.clauses()
    }

    /// Total clauses emitted so far (drained or not).
    pub fn num_clauses(&self) -> usize {
        self.core.clauses().len()
    }

    /// Returns the number of SAT variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.core.num_vars()
    }

    /// The clauses emitted since the last [`mark_drained`](Self::mark_drained)
    /// — the delta a long-lived incremental solver still has to load.
    pub fn pending_clauses(&self) -> &[Clause] {
        &self.core.clauses()[self.drained..]
    }

    /// Marks every clause emitted so far as consumed; subsequent
    /// [`pending_clauses`](Self::pending_clauses) calls return only newer
    /// clauses.
    pub fn mark_drained(&mut self) {
        self.drained = self.core.clauses().len();
    }

    /// Consumes the unroller and returns the accumulated CNF.
    pub fn into_cnf(self) -> Cnf {
        self.core.into_cnf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unroller;

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

    /// Drives a scratch unroller and an incremental one through the same
    /// operations: clauses and variables must match exactly.
    #[test]
    fn matches_scratch_unroller_clause_for_clause() {
        let aig = counter2();
        let mut scratch = Unroller::new(&aig);
        let mut incremental = IncrementalUnroller::new(&aig);
        scratch.builder_mut().set_partition(1);
        incremental.builder_mut().set_partition(1);
        scratch.assert_initial(0);
        incremental.assert_initial(0);
        for f in 1..=5usize {
            scratch.builder_mut().set_partition(f as u32 + 1);
            incremental.builder_mut().set_partition(f as u32 + 1);
            scratch.add_frame();
            incremental.add_frame();
            let sb = scratch.bad_lit(f, 0);
            let ib = incremental.bad_lit(f, 0);
            assert_eq!(sb, ib, "bad literal at frame {f}");
        }
        assert_eq!(scratch.num_vars(), incremental.num_vars());
        assert_eq!(scratch.clauses(), incremental.builder().clauses());
    }

    #[test]
    fn delta_drain_covers_every_clause_exactly_once() {
        let aig = counter2();
        let mut u = IncrementalUnroller::new(&aig);
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
        let mut u = IncrementalUnroller::new(&aig);
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
        let mut bulk = IncrementalUnroller::new(&aig);
        let mut single = IncrementalUnroller::new(&aig);
        bulk.assert_initial(0);
        single.assert_initial(0);
        let bulk_lits = bulk.bad_lits(0, 0..aig.num_bad());
        let single_lits: Vec<Lit> = (0..aig.num_bad()).map(|i| single.bad_lit(0, i)).collect();
        assert_eq!(bulk_lits, single_lits);
        assert_eq!(bulk.num_clauses(), single.num_clauses());
        // The shared cone structure (the latch literals) is cached: the
        // second and third cones add at most their own gates.
        let mut fresh = IncrementalUnroller::new(&aig);
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
    /// even after the cache has moved past that frame.
    #[test]
    fn detached_lit_matches_a_scratch_last_frame() {
        let aig = counter2();
        let mut u = IncrementalUnroller::new(&aig);
        u.builder_mut().set_partition(1);
        u.assert_initial(0);
        u.add_frame();
        let (clauses_at_1, vars_at_1) = (u.num_clauses(), u.num_vars());
        u.add_frame();
        let before = u.num_clauses();
        let (cone, lit) = u.detached_lit(1, aig.bad(0), vars_at_1, 3);
        assert_eq!(u.num_clauses(), before, "the cache must not grow");

        let mut scratch = Unroller::new(&aig);
        scratch.builder_mut().set_partition(1);
        scratch.assert_initial(0);
        scratch.add_frame();
        scratch.builder_mut().set_partition(3);
        assert_eq!(scratch.bad_lit(1, 0), lit);
        assert_eq!(&scratch.clauses()[clauses_at_1..], &cone.clauses[..]);
        assert_eq!(scratch.num_vars(), cone.num_vars);
        assert!(cone.clauses.iter().all(|c| c.partition == 3));
    }

    #[test]
    fn owning_the_design_allows_the_borrow_to_end() {
        let u = {
            let aig = counter2();
            let mut u = IncrementalUnroller::new(&aig);
            u.assert_initial(0);
            u.add_frame();
            u
        };
        assert_eq!(u.num_frames(), 2);
        assert_eq!(u.aig().num_latches(), 2);
    }
}
