//! The And-Inverter Graph data structure with structural hashing.

use crate::simulate::{one_lane, WordSim};
use crate::Lit;
use std::collections::HashMap;
use std::fmt;

/// Index of a node inside an [`Aig`].
pub type NodeId = u32;

/// Index of a latch (register) inside an [`Aig`].
pub type LatchId = usize;

/// The kind of a single AIG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AigNode {
    /// The constant-false node.  Always node 0.
    Const,
    /// A primary input; `index` is its position in the input list.
    Input {
        /// Position of the input in the `Aig` input-list order.
        index: usize,
    },
    /// A latch (state-holding register); `index` is its position in the
    /// latch list.
    Latch {
        /// Position of the latch in [`Aig::latches`] order.
        index: usize,
    },
    /// A two-input AND gate over (possibly complemented) fan-in literals.
    And {
        /// First fan-in literal (normalised to be `<=` the second).
        left: Lit,
        /// Second fan-in literal.
        right: Lit,
    },
}

/// Coarse classification of a node, convenient for encoders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// The constant node.
    Const,
    /// Primary input with its index.
    Input(usize),
    /// Latch with its index.
    Latch(usize),
    /// Internal AND gate.
    And,
}

#[derive(Clone, Debug)]
struct LatchData {
    node: NodeId,
    next: Lit,
    init: bool,
}

/// A sequential And-Inverter Graph.
///
/// Nodes are created through the gate constructors ([`Aig::and`],
/// [`Aig::or`], [`Aig::xor`], ...) which perform constant folding and
/// structural hashing, so building the same function twice returns the same
/// literal.
///
/// A design consists of primary inputs, latches (each with an initial value
/// and a next-state literal), ordinary outputs and *bad-state* literals.  A
/// safety property `p` is represented by a bad literal equal to `¬p`.
#[derive(Clone)]
pub struct Aig {
    nodes: Vec<AigNode>,
    inputs: Vec<NodeId>,
    latches: Vec<LatchData>,
    outputs: Vec<Lit>,
    bad: Vec<Lit>,
    strash: HashMap<(Lit, Lit), NodeId>,
    name: String,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aig")
            .field("name", &self.name)
            .field("inputs", &self.inputs.len())
            .field("latches", &self.latches.len())
            .field("ands", &self.num_ands())
            .field("outputs", &self.outputs.len())
            .field("bad", &self.bad.len())
            .finish()
    }
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![AigNode::Const],
            inputs: Vec::new(),
            latches: Vec::new(),
            outputs: Vec::new(),
            bad: Vec::new(),
            strash: HashMap::new(),
            name: String::new(),
        }
    }

    /// Sets a human-readable design name (used in benchmark reports).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Returns the design name (empty if never set).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes, including the constant node.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, AigNode::And { .. }))
            .count()
    }

    /// Number of ordinary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of bad-state literals (safety properties).
    pub fn num_bad(&self) -> usize {
        self.bad.len()
    }

    /// Returns the node stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> AigNode {
        self.nodes[id as usize]
    }

    /// Returns the coarse [`VarKind`] of a node.
    pub fn kind(&self, id: NodeId) -> VarKind {
        match self.nodes[id as usize] {
            AigNode::Const => VarKind::Const,
            AigNode::Input { index } => VarKind::Input(index),
            AigNode::Latch { index } => VarKind::Latch(index),
            AigNode::And { .. } => VarKind::And,
        }
    }

    /// Iterates over all node ids in topological order (fan-ins precede
    /// fan-outs by construction).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.nodes.len() as NodeId
    }

    /// Adds a new primary input and returns its node id.
    pub fn add_input(&mut self) -> NodeId {
        let id = self.nodes.len() as NodeId;
        let index = self.inputs.len();
        self.nodes.push(AigNode::Input { index });
        self.inputs.push(id);
        id
    }

    /// Adds a new latch with the given reset value and returns its id.
    ///
    /// The next-state function defaults to the latch's own output (a
    /// self-loop) until [`Aig::set_next`] is called.
    pub fn add_latch(&mut self, init: bool) -> LatchId {
        let node = self.nodes.len() as NodeId;
        let index = self.latches.len();
        self.nodes.push(AigNode::Latch { index });
        self.latches.push(LatchData {
            node,
            next: Lit::positive(node),
            init,
        });
        index
    }

    /// Sets the next-state function of latch `latch`.
    pub fn set_next(&mut self, latch: LatchId, next: Lit) {
        self.latches[latch].next = next;
    }

    /// Returns the next-state literal of latch `latch`.
    pub fn next(&self, latch: LatchId) -> Lit {
        self.latches[latch].next
    }

    /// Returns the reset value of latch `latch`.
    pub fn init(&self, latch: LatchId) -> bool {
        self.latches[latch].init
    }

    /// Returns the node id holding latch `latch`.
    pub fn latch_node(&self, latch: LatchId) -> NodeId {
        self.latches[latch].node
    }

    /// Returns the positive literal of latch `latch`.
    pub fn latch_lit(&self, latch: LatchId) -> Lit {
        Lit::positive(self.latches[latch].node)
    }

    /// Returns the node id of primary input `index`.
    pub fn input_node(&self, index: usize) -> NodeId {
        self.inputs[index]
    }

    /// Returns the positive literal of primary input `index`.
    pub fn input_lit(&self, index: usize) -> Lit {
        Lit::positive(self.inputs[index])
    }

    /// Registers an ordinary output.
    pub fn add_output(&mut self, lit: Lit) {
        self.outputs.push(lit);
    }

    /// Returns output `index`.
    pub fn output(&self, index: usize) -> Lit {
        self.outputs[index]
    }

    /// Registers a bad-state literal (the negation of a safety property).
    pub fn add_bad(&mut self, lit: Lit) {
        self.bad.push(lit);
    }

    /// Promotes every ordinary output to a bad-state property and returns
    /// how many were promoted.
    ///
    /// Benchmark files predating AIGER 1.9 have no `B` section — by the
    /// HWMCC convention each *output* is then a bad-state literal.  The
    /// promotion only applies when the design has no explicit bad-state
    /// properties; a design that already carries a `B` section is left
    /// untouched (its outputs are plain observables).
    pub fn promote_outputs_to_bad(&mut self) -> usize {
        if !self.bad.is_empty() {
            return 0;
        }
        self.bad = self.outputs.clone();
        self.bad.len()
    }

    /// Restricts the bad-state list to the given properties, in the
    /// given order (used to focus a verification model on one property
    /// before preprocessing).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_bads(&mut self, indices: &[usize]) {
        self.bad = indices.iter().map(|&i| self.bad[i]).collect();
    }

    /// Returns bad-state literal `index`.
    pub fn bad(&self, index: usize) -> Lit {
        self.bad[index]
    }

    /// Replaces bad-state literal `index`.
    pub fn set_bad(&mut self, index: usize, lit: Lit) {
        self.bad[index] = lit;
    }

    /// Creates (or reuses) an AND gate over `a` and `b`.
    ///
    /// Constant folding is applied first, then the fan-in pair is normalised
    /// and looked up in the structural hash table, so structurally identical
    /// gates are shared.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding and trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (left, right) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(left, right)) {
            return Lit::positive(id);
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(AigNode::And { left, right });
        self.strash.insert((left, right), id);
        Lit::positive(id)
    }

    /// Creates an OR gate (`a ∨ b`) via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Creates an XOR gate (`a ⊕ b`).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, !b);
        let t1 = self.and(!a, b);
        self.or(t0, t1)
    }

    /// Creates an XNOR / equivalence gate (`a ↔ b`).
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Creates an implication gate (`a → b`).
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// Creates a multiplexer: `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let on = self.and(sel, t);
        let off = self.and(!sel, e);
        self.or(on, off)
    }

    /// Conjunction of an arbitrary number of literals (true for empty input).
    pub fn and_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let mut acc = Lit::TRUE;
        for l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Disjunction of an arbitrary number of literals (false for empty input).
    pub fn or_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let mut acc = Lit::FALSE;
        for l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Returns the fan-in literals of an AND node, or `None` for leaves.
    pub fn and_fanins(&self, id: NodeId) -> Option<(Lit, Lit)> {
        match self.nodes[id as usize] {
            AigNode::And { left, right } => Some((left, right)),
            _ => None,
        }
    }

    /// Returns an iterator over `(LatchId, next-state literal, init value)`.
    pub fn latches(&self) -> impl Iterator<Item = (LatchId, Lit, bool)> + '_ {
        self.latches
            .iter()
            .enumerate()
            .map(|(i, l)| (i, l.next, l.init))
    }

    /// Returns an iterator over all bad-state literals.
    pub fn bad_lits(&self) -> impl Iterator<Item = Lit> + '_ {
        self.bad.iter().copied()
    }

    /// Returns an iterator over all ordinary outputs.
    pub fn outputs(&self) -> impl Iterator<Item = Lit> + '_ {
        self.outputs.iter().copied()
    }

    /// Builds a literal asserting that every latch holds its reset value.
    ///
    /// This is the symbolic initial-state predicate `S0` used by the
    /// model-checking engines.
    pub fn initial_state_lit(&mut self) -> Lit {
        let lits: Vec<Lit> = (0..self.num_latches())
            .map(|i| self.latch_lit(i).xor_complement(!self.init(i)))
            .collect();
        self.and_many(lits)
    }

    /// Evaluates a literal under a full assignment to inputs and latches:
    /// lane 0 of a [`WordSim`] over the
    /// literal's cone.
    ///
    /// `inputs[i]` is the value of primary input `i` and `latches[i]` the
    /// value of latch `i`.
    ///
    /// # Panics
    ///
    /// Panics if the cone reads an input or latch past the end of its
    /// slice.
    pub fn eval(&self, lit: Lit, inputs: &[bool], latches: &[bool]) -> bool {
        let mut sim = WordSim::new(one_lane(inputs), one_lane(latches));
        sim.eval(self, lit) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_aig_contains_only_constant() {
        let aig = Aig::new();
        assert_eq!(aig.num_nodes(), 1);
        assert_eq!(aig.node(0), AigNode::Const);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn and_constant_folding() {
        let mut aig = Aig::new();
        let a = Lit::positive(aig.add_input());
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::FALSE, a), Lit::FALSE);
        assert_eq!(aig.and(a, Lit::TRUE), a);
        assert_eq!(aig.and(Lit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_gates() {
        let mut aig = Aig::new();
        let a = Lit::positive(aig.add_input());
        let b = Lit::positive(aig.add_input());
        let g1 = aig.and(a, b);
        let g2 = aig.and(b, a);
        assert_eq!(g1, g2);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn or_and_xor_truth_tables() {
        let mut aig = Aig::new();
        let a = Lit::positive(aig.add_input());
        let b = Lit::positive(aig.add_input());
        let o = aig.or(a, b);
        let x = aig.xor(a, b);
        let e = aig.iff(a, b);
        let m = aig.mux(a, b, !b);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let inputs = [va, vb];
            assert_eq!(aig.eval(o, &inputs, &[]), va || vb);
            assert_eq!(aig.eval(x, &inputs, &[]), va ^ vb);
            assert_eq!(aig.eval(e, &inputs, &[]), va == vb);
            assert_eq!(aig.eval(m, &inputs, &[]), if va { vb } else { !vb });
        }
    }

    #[test]
    fn latch_defaults_to_self_loop() {
        let mut aig = Aig::new();
        let l = aig.add_latch(true);
        assert_eq!(aig.next(l), aig.latch_lit(l));
        assert!(aig.init(l));
    }

    #[test]
    fn initial_state_lit_matches_reset_values() {
        let mut aig = Aig::new();
        let l0 = aig.add_latch(false);
        let l1 = aig.add_latch(true);
        let s0 = aig.initial_state_lit();
        assert!(aig.eval(s0, &[], &[false, true]));
        assert!(!aig.eval(s0, &[], &[true, true]));
        assert!(!aig.eval(s0, &[], &[false, false]));
        let _ = (l0, l1);
    }

    #[test]
    fn and_many_and_or_many() {
        let mut aig = Aig::new();
        let lits: Vec<Lit> = (0..4).map(|_| Lit::positive(aig.add_input())).collect();
        let conj = aig.and_many(lits.iter().copied());
        let disj = aig.or_many(lits.iter().copied());
        assert!(aig.eval(conj, &[true, true, true, true], &[]));
        assert!(!aig.eval(conj, &[true, true, false, true], &[]));
        assert!(aig.eval(disj, &[false, false, true, false], &[]));
        assert!(!aig.eval(disj, &[false, false, false, false], &[]));
        assert_eq!(aig.and_many(std::iter::empty()), Lit::TRUE);
        assert_eq!(aig.or_many(std::iter::empty()), Lit::FALSE);
    }

    #[test]
    fn kind_classification() {
        let mut aig = Aig::new();
        let i = aig.add_input();
        let l = aig.add_latch(false);
        let a = aig.and(Lit::positive(i), aig.latch_lit(l));
        assert_eq!(aig.kind(0), VarKind::Const);
        assert_eq!(aig.kind(i), VarKind::Input(0));
        assert_eq!(aig.kind(aig.latch_node(l)), VarKind::Latch(0));
        assert_eq!(aig.kind(a.node()), VarKind::And);
    }

    #[test]
    fn bad_and_outputs_are_recorded() {
        let mut aig = Aig::new();
        let a = Lit::positive(aig.add_input());
        aig.add_output(a);
        aig.add_bad(!a);
        assert_eq!(aig.num_outputs(), 1);
        assert_eq!(aig.num_bad(), 1);
        assert_eq!(aig.output(0), a);
        assert_eq!(aig.bad(0), !a);
        aig.set_bad(0, a);
        assert_eq!(aig.bad(0), a);
    }
}
