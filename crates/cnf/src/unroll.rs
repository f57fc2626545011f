//! Time-frame expansion of sequential AIGs.
//!
//! An [`Unroller`] maintains, for every time frame `f`, a fresh SAT variable
//! per latch (`V^f` in the paper's notation) plus a cache of Tseitin
//! encodings of frame-`f` combinational logic.  Transition constraints
//! `T(V^f, V^{f+1})` are emitted by [`Unroller::add_frame`]; the caller
//! controls the partition labels so that BMC formulas can be split into the
//! `Γ_{1..n}` decomposition required by interpolation sequences.
//!
//! The same unroller serves one-shot instance construction and caches
//! that outlive any single bound: frames, variable maps and Tseitin caches
//! persist, so growing the unrolling only encodes the new frame (see
//! [`crate::incremental`] for the delta drain and detached cones).  It
//! borrows its design ([`Unroller::new`]) or shares it
//! ([`Unroller::shared`]); either way a clone never deep-copies the
//! design.

use crate::tseitin::encode_cone;
use crate::{Clause, Cnf, CnfBuilder, Lit};
use aig::{Aig, AigNode, NodeId};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// Per-frame variable maps.
#[derive(Clone, Debug)]
struct Frame {
    /// SAT literal representing each latch at this frame.
    latch: Vec<Lit>,
    /// SAT literal representing each primary input at this frame
    /// (allocated lazily).
    input: Vec<Option<Lit>>,
    /// Cache of node encodings at this frame.
    cache: HashMap<NodeId, Lit>,
}

impl Frame {
    /// A frame whose cache knows only its latch variables.
    fn fresh(aig: &Aig, latch: Vec<Lit>) -> Frame {
        let mut cache = HashMap::new();
        for (i, &lit) in latch.iter().enumerate() {
            cache.insert(aig.latch_node(i), lit);
        }
        Frame {
            latch,
            input: vec![None; aig.num_inputs()],
            cache,
        }
    }
}

/// The design an unroller encodes: borrowed, or shared so the unroller
/// can outlive the caller's borrow.
#[derive(Clone, Debug)]
enum Design<'a> {
    Borrowed(&'a Aig),
    Shared(Arc<Aig>),
}

impl Deref for Design<'_> {
    type Target = Aig;

    fn deref(&self) -> &Aig {
        match self {
            Design::Borrowed(aig) => aig,
            Design::Shared(aig) => aig,
        }
    }
}

/// Unrolls a sequential AIG over time frames, producing partition-labelled
/// CNF.
///
/// # Example
///
/// ```
/// use cnf::Unroller;
///
/// // Build a toggling latch and unroll it two frames.
/// let mut aig = aig::Aig::new();
/// let l = aig.add_latch(false);
/// let cur = aig.latch_lit(l);
/// aig.set_next(l, !cur);
/// aig.add_bad(cur);
///
/// let mut unroller = Unroller::new(&aig);
/// unroller.assert_initial(0);
/// unroller.builder_mut().set_partition(1);
/// unroller.add_frame();
/// unroller.builder_mut().set_partition(2);
/// unroller.add_frame();
/// assert_eq!(unroller.num_frames(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Unroller<'a> {
    aig: Design<'a>,
    builder: CnfBuilder,
    frames: Vec<Frame>,
    /// Clauses `0..drained` have already been handed to the consumer
    /// (see [`Unroller::mark_drained`]).
    pub(crate) drained: usize,
}

impl<'a> Unroller<'a> {
    /// Creates an unroller of the borrowed design `aig` with a single
    /// frame (frame 0) whose latch variables are freshly allocated.
    pub fn new(aig: &'a Aig) -> Unroller<'a> {
        Unroller::over(Design::Borrowed(aig))
    }

    /// Returns the underlying design.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    fn over(aig: Design<'a>) -> Unroller<'a> {
        let mut unroller = Unroller {
            aig,
            builder: CnfBuilder::new(),
            frames: Vec::new(),
            drained: 0,
        };
        unroller.push_fresh_frame();
        unroller
    }

    fn push_fresh_frame(&mut self) {
        let latch: Vec<Lit> = (0..self.aig.num_latches())
            .map(|_| self.builder.new_lit())
            .collect();
        self.frames.push(Frame::fresh(&self.aig, latch));
    }

    /// Number of frames created so far (at least 1).
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Gives mutable access to the clause builder (for partition control and
    /// extra clauses).
    pub fn builder_mut(&mut self) -> &mut CnfBuilder {
        &mut self.builder
    }

    /// Gives read access to the clause builder.
    pub fn builder(&self) -> &CnfBuilder {
        &self.builder
    }

    /// Returns the SAT literal of latch `latch` at frame `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame or latch index is out of range.
    pub fn latch_lit(&self, frame: usize, latch: usize) -> Lit {
        self.frames[frame].latch[latch]
    }

    /// Returns the SAT literals of every latch at frame `frame`.
    pub fn latch_lits(&self, frame: usize) -> Vec<Lit> {
        self.frames[frame].latch.clone()
    }

    /// Returns (allocating on demand) the SAT literal of primary input
    /// `input` at frame `frame`.
    pub fn input_lit(&mut self, frame: usize, input: usize) -> Lit {
        if let Some(lit) = self.frames[frame].input[input] {
            return lit;
        }
        let lit = self.builder.new_lit();
        self.frames[frame].input[input] = Some(lit);
        self.frames[frame]
            .cache
            .insert(self.aig.input_node(input), lit);
        lit
    }

    /// The SAT literals the primary inputs of frame `frame` have so far,
    /// allocating none: an input no encoded cone reads has none.
    pub fn frame_inputs(&self, frame: usize) -> &[Option<Lit>] {
        &self.frames[frame].input
    }

    /// Encodes (or retrieves from the frame cache) the SAT literal of an AIG
    /// literal evaluated at frame `frame`.
    ///
    /// Clauses produced during the encoding are tagged with the builder's
    /// current partition.
    pub fn lit(&mut self, frame: usize, lit: aig::Lit) -> Lit {
        // Pre-allocate input leaves so the closure below never needs the
        // frame's input map.
        self.ensure_leaves(frame, lit);
        let cache = &mut self.frames[frame].cache;
        encode_cone(&mut self.builder, &self.aig, lit, cache, &mut |_, id| {
            unreachable!("leaf {id} not pre-allocated")
        })
    }

    /// Walks the cone of `lit` and allocates SAT variables for any input
    /// leaves not yet present in the frame cache.
    fn ensure_leaves(&mut self, frame: usize, lit: aig::Lit) {
        let mut stack = vec![lit.node()];
        let mut seen = std::collections::HashSet::new();
        let mut needed_inputs = Vec::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) || self.frames[frame].cache.contains_key(&id) {
                continue;
            }
            match self.aig.node(id) {
                AigNode::And { left, right } => {
                    stack.push(left.node());
                    stack.push(right.node());
                }
                AigNode::Input { index } => needed_inputs.push(index),
                AigNode::Latch { .. } | AigNode::Const => {}
            }
        }
        for index in needed_inputs {
            let _ = self.input_lit(frame, index);
        }
    }

    /// Asserts that frame `frame` is in the design's initial state (unit
    /// clauses on the latch variables, in the current partition).
    pub fn assert_initial(&mut self, frame: usize) {
        let unguarded = vec![None; self.aig.num_latches()];
        self.assert_initial_guarded(frame, &unguarded);
    }

    /// Like [`Unroller::assert_initial`], but the reset-value constraint of
    /// latch `i` is guarded by `guards[i]` when present.
    ///
    /// # Panics
    ///
    /// Panics if `guards.len()` differs from the number of latches.
    pub fn assert_initial_guarded(&mut self, frame: usize, guards: &[Option<Lit>]) {
        assert_eq!(
            guards.len(),
            self.aig.num_latches(),
            "one guard slot per latch is required"
        );
        for (i, &guard) in guards.iter().enumerate() {
            let lit = self.latch_lit(frame, i);
            let unit = if self.aig.init(i) { lit } else { !lit };
            match guard {
                None => self.builder.add_unit(unit),
                Some(guard) => self.builder.add_clause([!guard, unit]),
            }
        }
    }

    /// Adds a new frame and emits the transition constraint
    /// `T(V^{last}, V^{new})` in the current partition.
    ///
    /// Returns the index of the new frame.
    pub fn add_frame(&mut self) -> usize {
        let unguarded = vec![None; self.aig.num_latches()];
        self.add_frame_guarded(&unguarded)
    }

    /// Like [`Unroller::add_frame`], but the transition constraint of latch
    /// `i` is guarded by `guards[i]` when present: the equality
    /// `latch^{new} ↔ next^{prev}` only has to hold when the guard literal
    /// is true.  Ungated latches behave exactly as in `add_frame`.
    ///
    /// This is the "single-instance" formulation used by counterexample
    /// based abstraction: invisible latches get an activation literal, and
    /// solving under the assumption that all activation literals are true
    /// yields an unsatisfiable core that points at the latches worth
    /// refining.
    ///
    /// # Panics
    ///
    /// Panics if `guards.len()` differs from the number of latches.
    pub fn add_frame_guarded(&mut self, guards: &[Option<Lit>]) -> usize {
        assert_eq!(
            guards.len(),
            self.aig.num_latches(),
            "one guard slot per latch is required"
        );
        let prev = self.frames.len() - 1;
        // Encode the next-state functions at the previous frame first.
        let next_lits: Vec<Lit> = (0..self.aig.num_latches())
            .map(|i| {
                let next = self.aig.next(i);
                self.lit(prev, next)
            })
            .collect();
        self.push_fresh_frame();
        let new_index = self.frames.len() - 1;
        for (i, next_lit) in next_lits.into_iter().enumerate() {
            let cur = self.latch_lit(new_index, i);
            // cur <-> next_lit, when the guard holds.
            match guards[i] {
                None => {
                    self.builder.add_clause([!cur, next_lit]);
                    self.builder.add_clause([cur, !next_lit]);
                }
                Some(guard) => {
                    self.builder.add_clause([!guard, !cur, next_lit]);
                    self.builder.add_clause([!guard, cur, !next_lit]);
                }
            }
        }
        new_index
    }

    /// Encodes bad-state literal `index` of the design at frame `frame`.
    pub fn bad_lit(&mut self, frame: usize, index: usize) -> Lit {
        let bad = self.aig.bad(index);
        self.lit(frame, bad)
    }

    /// Asserts an already-encoded SAT literal as a unit clause in the
    /// current partition.
    pub fn assert_lit(&mut self, lit: Lit) {
        self.builder.add_unit(lit);
    }

    /// Encodes `lit` at `frame` as an unrolling whose last frame is
    /// `frame`, untouched since its latch variables were allocated, would,
    /// without touching this unroller: against a frame cache that holds
    /// only the frame's latch variables, with fresh input variables
    /// numbered from `first_var`, in partition `partition`.  Returns the
    /// cone's clauses (`num_vars` is the next free variable), the literal
    /// and the cone's input literals (indexed like the design's inputs).
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
    ) -> (Cnf, Lit, Vec<Option<Lit>>) {
        let mut builder = CnfBuilder::starting_at(first_var);
        builder.set_partition(partition);
        let latch = self.frames[frame].latch.clone();
        let mut scratch = Unroller {
            frames: vec![Frame::fresh(&self.aig, latch)],
            aig: self.aig.clone(),
            builder,
            drained: 0,
        };
        let lit = scratch.lit(0, lit);
        let inputs = scratch.frames.swap_remove(0).input;
        (scratch.builder.into_cnf(), lit, inputs)
    }

    /// Consumes the unroller and returns the accumulated CNF.
    pub fn into_cnf(self) -> Cnf {
        self.builder.into_cnf()
    }

    /// Every clause emitted so far, in emission order.
    pub fn clauses(&self) -> &[Clause] {
        self.builder.clauses()
    }

    /// Total clauses emitted so far.
    pub fn num_clauses(&self) -> usize {
        self.builder.num_clauses()
    }

    /// Returns the number of SAT variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.builder.num_vars()
    }
}

impl Unroller<'static> {
    /// Creates an unroller that shares the design `aig`, so it can outlive
    /// any borrow (a per-model cache); clones share it too.
    pub fn shared(aig: Arc<Aig>) -> Unroller<'static> {
        Unroller::over(Design::Shared(aig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggler() -> Aig {
        let mut aig = Aig::new();
        let l = aig.add_latch(false);
        let cur = aig.latch_lit(l);
        aig.set_next(l, !cur);
        aig.add_bad(cur);
        aig
    }

    /// A 2-bit counter with enable input; bad when the counter reaches 3.
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

    fn brute_force_sat(cnf: &Cnf) -> bool {
        crate::testutil::dpll_sat(cnf)
    }

    #[test]
    fn new_unroller_has_one_frame() {
        let aig = toggler();
        let unroller = Unroller::new(&aig);
        assert_eq!(unroller.num_frames(), 1);
        assert_eq!(unroller.num_vars(), 1);
    }

    #[test]
    fn toggler_bad_unreachable_in_even_frames() {
        // Latch starts at 0 and toggles; bad (latch==1) holds exactly at odd
        // frames, so "initial ∧ T ∧ T ∧ bad@2" must be unsatisfiable while
        // "initial ∧ T ∧ bad@1" is satisfiable.
        let aig = toggler();

        let mut u = Unroller::new(&aig);
        u.assert_initial(0);
        u.add_frame();
        u.add_frame();
        let bad2 = u.bad_lit(2, 0);
        u.assert_lit(bad2);
        assert!(!brute_force_sat(&u.into_cnf()));

        let mut u = Unroller::new(&aig);
        u.assert_initial(0);
        u.add_frame();
        let bad1 = u.bad_lit(1, 0);
        u.assert_lit(bad1);
        assert!(brute_force_sat(&u.into_cnf()));
    }

    #[test]
    fn counter_needs_three_enabled_steps() {
        let aig = counter2();
        // After 2 frames the counter can be at most 2, so bad is unreachable.
        let mut u = Unroller::new(&aig);
        u.assert_initial(0);
        u.add_frame();
        u.add_frame();
        let bad = u.bad_lit(2, 0);
        u.assert_lit(bad);
        assert!(!brute_force_sat(&u.into_cnf()));
        // After 3 frames it is reachable (enable held high).
        let mut u = Unroller::new(&aig);
        u.assert_initial(0);
        u.add_frame();
        u.add_frame();
        u.add_frame();
        let bad = u.bad_lit(3, 0);
        u.assert_lit(bad);
        assert!(brute_force_sat(&u.into_cnf()));
    }

    #[test]
    fn partitions_follow_builder_setting() {
        let aig = toggler();
        let mut u = Unroller::new(&aig);
        u.builder_mut().set_partition(1);
        u.assert_initial(0);
        u.add_frame();
        u.builder_mut().set_partition(2);
        u.add_frame();
        let cnf = u.into_cnf();
        assert!(cnf.clauses.iter().any(|c| c.partition == 1));
        assert!(cnf.clauses.iter().any(|c| c.partition == 2));
        assert_eq!(cnf.num_partitions(), 2);
    }

    #[test]
    fn latch_vars_are_distinct_across_frames() {
        let aig = counter2();
        let mut u = Unroller::new(&aig);
        u.add_frame();
        let f0 = u.latch_lits(0);
        let f1 = u.latch_lits(1);
        assert_eq!(f0.len(), 2);
        assert_eq!(f1.len(), 2);
        assert!(f0.iter().all(|l| !f1.contains(l)));
    }

    #[test]
    fn input_lits_are_cached_per_frame() {
        let aig = counter2();
        let mut u = Unroller::new(&aig);
        let a = u.input_lit(0, 0);
        let b = u.input_lit(0, 0);
        assert_eq!(a, b);
        u.add_frame();
        let c = u.input_lit(1, 0);
        assert_ne!(a, c);
    }

    #[test]
    fn guarded_transitions_free_the_latch_when_disabled() {
        let aig = toggler();
        // With the single latch's transition guarded by an activation
        // literal, asserting bad at an even frame is satisfiable only when
        // the guard is allowed to be false.
        let mut u = Unroller::new(&aig);
        let guard = u.builder_mut().new_lit();
        let guards = vec![Some(guard)];
        u.assert_initial(0);
        u.add_frame_guarded(&guards);
        u.add_frame_guarded(&guards);
        let bad2 = u.bad_lit(2, 0);
        u.assert_lit(bad2);
        // Guard forced true: behaves like the exact transition (unsat).
        let mut constrained = u.clone();
        constrained.assert_lit(guard);
        assert!(!brute_force_sat(&constrained.into_cnf()));
        // Guard left free: the latch may take any value, so bad@2 is
        // reachable.
        assert!(brute_force_sat(&u.into_cnf()));
    }

    #[test]
    fn guarded_initial_state_can_be_relaxed() {
        let aig = toggler();
        let mut u = Unroller::new(&aig);
        let guard = u.builder_mut().new_lit();
        u.assert_initial_guarded(0, &[Some(guard)]);
        let bad0 = u.bad_lit(0, 0);
        u.assert_lit(bad0);
        // bad at frame 0 contradicts the reset value only when the guard is
        // asserted.
        let mut constrained = u.clone();
        constrained.assert_lit(guard);
        assert!(!brute_force_sat(&constrained.into_cnf()));
        assert!(brute_force_sat(&u.into_cnf()));
    }

    #[test]
    fn encoding_is_cached_within_a_frame() {
        let aig = counter2();
        let mut u = Unroller::new(&aig);
        let before = u.builder().num_clauses();
        let b1 = u.bad_lit(0, 0);
        let mid = u.builder().num_clauses();
        let b2 = u.bad_lit(0, 0);
        assert_eq!(b1, b2);
        assert_eq!(u.builder().num_clauses(), mid);
        assert!(mid > before);
    }
}
