//! Bit-parallel simulation of AIGs: 64 patterns per machine word.
//!
//! [`WordSim`] evaluates a design on 64 independent patterns at once, one
//! per bit lane of a `u64`.  It has two modes over the same node values:
//!
//! * [`WordSim::sweep`] evaluates every node in one flat topological pass,
//!   which is what sequential replay needs; [`simulate`] is its one-lane
//!   use, and [`WordSim::clock`] moves the latches to their next state;
//! * [`WordSim::eval`] evaluates only the cone of one literal.  Each node
//!   value is stamped with the generation of the leaf lanes it was
//!   computed from and reused until the leaves change.  An [`Aig`] only
//!   ever appends nodes, so a stamped value never goes stale within one
//!   generation, however much the graph grows.  [`Aig::eval`] is its
//!   one-lane use.
//!
//! Simulation replays counterexamples, validates the synthetic workloads
//! (known-failing properties must fail on some concrete input sequence),
//! and lets the fixpoint checks of the model checker refute an
//! implication from recorded witness states before asking a SAT solver.

use crate::{Aig, AigNode, Lit, NodeId};

/// The value trace produced by [`simulate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimTrace {
    /// `latches[t][i]` is the value of latch `i` at the start of cycle `t`.
    pub latches: Vec<Vec<bool>>,
    /// `bad[t][j]` is the value of bad-state literal `j` during cycle `t`.
    pub bad: Vec<Vec<bool>>,
    /// `outputs[t][j]` is the value of output `j` during cycle `t`.
    pub outputs: Vec<Vec<bool>>,
}

impl SimTrace {
    /// Returns the first cycle in which any bad-state literal is asserted,
    /// or `None` when the property holds throughout the trace.
    pub fn first_failure(&self) -> Option<usize> {
        self.bad.iter().position(|cycle| cycle.iter().any(|&b| b))
    }
}

/// A word-parallel simulator: 64 patterns of input and latch values, one
/// per bit lane, and the node values computed from them.
///
/// One simulator serves one graph, which may grow between evaluations;
/// the leaf lanes are indexed like the graph's inputs and latches.
#[derive(Clone, Debug)]
pub struct WordSim {
    inputs: Vec<u64>,
    latches: Vec<u64>,
    /// `values[n]` holds node `n`'s lanes when `stamps[n] == generation`.
    values: Vec<u64>,
    stamps: Vec<u32>,
    generation: u32,
    stack: Vec<NodeId>,
}

impl WordSim {
    /// A simulator over the given input and latch lanes.
    pub fn new(inputs: Vec<u64>, latches: Vec<u64>) -> WordSim {
        WordSim {
            inputs,
            latches,
            values: Vec::new(),
            stamps: Vec::new(),
            generation: 1,
            stack: Vec::new(),
        }
    }

    /// The lanes of every primary input.
    pub fn inputs(&self) -> &[u64] {
        &self.inputs
    }

    /// The lanes of every latch.
    pub fn latches(&self) -> &[u64] {
        &self.latches
    }

    /// Write access to the input lanes; every node value computed so far
    /// becomes stale.
    pub fn inputs_mut(&mut self) -> &mut [u64] {
        self.invalidate();
        &mut self.inputs
    }

    fn invalidate(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    fn fit(&mut self, aig: &Aig) {
        if self.values.len() < aig.num_nodes() {
            self.values.resize(aig.num_nodes(), 0);
            self.stamps.resize(aig.num_nodes(), 0);
        }
    }

    /// The lanes of `lit` from the node values at hand.
    fn lanes(&self, lit: Lit) -> u64 {
        let value = self.values[lit.node() as usize];
        if lit.is_complemented() {
            !value
        } else {
            value
        }
    }

    /// The lanes of leaf or gate `id` whose fan-ins are computed.
    fn compute(&self, aig: &Aig, id: NodeId) -> u64 {
        match aig.node(id) {
            AigNode::Const => 0,
            AigNode::Input { index } => self.inputs[index],
            AigNode::Latch { index } => self.latches[index],
            AigNode::And { left, right } => self.lanes(left) & self.lanes(right),
        }
    }

    /// Evaluates every node of `aig` in one topological pass.
    pub fn sweep(&mut self, aig: &Aig) {
        self.fit(aig);
        for id in aig.node_ids() {
            self.values[id as usize] = self.compute(aig, id);
            self.stamps[id as usize] = self.generation;
        }
    }

    /// The lanes of `lit`, evaluating only the nodes of its cone that
    /// have no value in the current generation.
    pub fn eval(&mut self, aig: &Aig, lit: Lit) -> u64 {
        self.fit(aig);
        let generation = self.generation;
        self.stack.push(lit.node());
        while let Some(&id) = self.stack.last() {
            if self.stamps[id as usize] == generation {
                self.stack.pop();
                continue;
            }
            if let AigNode::And { left, right } = aig.node(id) {
                let before = self.stack.len();
                for child in [left.node(), right.node()] {
                    if self.stamps[child as usize] != generation {
                        self.stack.push(child);
                    }
                }
                if self.stack.len() > before {
                    continue;
                }
            }
            self.values[id as usize] = self.compute(aig, id);
            self.stamps[id as usize] = generation;
            self.stack.pop();
        }
        self.lanes(lit)
    }

    /// The lanes of `lit` after a [`sweep`](WordSim::sweep) of its graph.
    ///
    /// # Panics
    ///
    /// Panics if the lanes changed since the sweep.
    pub fn value(&self, lit: Lit) -> u64 {
        assert_eq!(
            self.stamps[lit.node() as usize],
            self.generation,
            "node {} has no value for the current lanes",
            lit.node()
        );
        self.lanes(lit)
    }

    /// Moves every latch to its next-state lanes, as the last
    /// [`sweep`](WordSim::sweep) computed them: one clock cycle.
    pub fn clock(&mut self, aig: &Aig) {
        for i in 0..self.latches.len() {
            self.latches[i] = self.lanes(aig.next(i));
        }
        self.invalidate();
    }
}

/// One-lane words: lane 0 of each word carries the matching bit.
pub(crate) fn one_lane(bits: &[bool]) -> Vec<u64> {
    bits.iter().map(|&b| u64::from(b)).collect()
}

/// Simulates the design for `inputs.len()` cycles starting from the reset
/// state: lane 0 of a [`WordSim`].
///
/// `inputs[t][i]` is the value driven on primary input `i` during cycle `t`.
///
/// # Panics
///
/// Panics if any input vector is shorter than the number of primary inputs.
pub fn simulate(aig: &Aig, inputs: &[Vec<bool>]) -> SimTrace {
    let reset: Vec<bool> = (0..aig.num_latches()).map(|i| aig.init(i)).collect();
    let mut sim = WordSim::new(vec![0; aig.num_inputs()], one_lane(&reset));
    let bit = |lanes: u64| lanes & 1 == 1;
    let mut trace = SimTrace {
        latches: Vec::with_capacity(inputs.len()),
        bad: Vec::with_capacity(inputs.len()),
        outputs: Vec::with_capacity(inputs.len()),
    };
    for frame in inputs {
        assert!(
            frame.len() >= aig.num_inputs(),
            "input vector narrower than the number of primary inputs"
        );
        for (lanes, &b) in sim.inputs_mut().iter_mut().zip(frame) {
            *lanes = u64::from(b);
        }
        sim.sweep(aig);
        trace
            .latches
            .push(sim.latches().iter().map(|&l| bit(l)).collect());
        trace
            .bad
            .push(aig.bad_lits().map(|l| bit(sim.value(l))).collect());
        trace
            .outputs
            .push(aig.outputs().map(|l| bit(sim.value(l))).collect());
        sim.clock(aig);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{latch_word, word_equals_const, word_increment};

    /// A 3-bit free-running counter with a bad state at a given value.
    fn counter(bad_at: u64) -> Aig {
        let mut aig = Aig::new();
        let (ids, lits) = latch_word(&mut aig, 3, 0);
        let next = word_increment(&mut aig, &lits, Lit::TRUE);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let bad = word_equals_const(&mut aig, &lits, bad_at);
        aig.add_bad(bad);
        aig
    }

    #[test]
    fn counter_reaches_bad_state_at_expected_cycle() {
        let aig = counter(5);
        let inputs = vec![vec![]; 10];
        let trace = simulate(&aig, &inputs);
        assert_eq!(trace.first_failure(), Some(5));
    }

    #[test]
    fn counter_wraps_around() {
        let aig = counter(2);
        let inputs = vec![vec![]; 12];
        let trace = simulate(&aig, &inputs);
        // Failure at cycle 2 and again at cycle 10 after wrap-around.
        assert!(trace.bad[2][0]);
        assert!(trace.bad[10][0]);
        assert_eq!(trace.first_failure(), Some(2));
    }

    #[test]
    fn trace_records_initial_state() {
        let aig = counter(7);
        let trace = simulate(&aig, &[vec![], vec![]]);
        assert_eq!(trace.latches[0], vec![false, false, false]);
        assert_eq!(trace.latches[1], vec![true, false, false]);
    }

    #[test]
    fn inputs_drive_combinational_outputs() {
        let mut aig = Aig::new();
        let a = Lit::positive(aig.add_input());
        let b = Lit::positive(aig.add_input());
        let o = aig.xor(a, b);
        aig.add_output(o);
        let trace = simulate(
            &aig,
            &[vec![false, false], vec![true, false], vec![true, true]],
        );
        assert_eq!(trace.outputs[0], vec![false]);
        assert_eq!(trace.outputs[1], vec![true]);
        assert_eq!(trace.outputs[2], vec![false]);
        assert_eq!(trace.first_failure(), None);
    }

    /// The scalar reference evaluator: one pattern, every node in order.
    fn reference_frame(aig: &Aig, inputs: &[bool], latches: &[bool]) -> Vec<bool> {
        let mut values = vec![false; aig.num_nodes()];
        let lit = |values: &[bool], l: Lit| values[l.node() as usize] ^ l.is_complemented();
        for id in aig.node_ids() {
            values[id as usize] = match aig.node(id) {
                AigNode::Const => false,
                AigNode::Input { index } => inputs[index],
                AigNode::Latch { index } => latches[index],
                AigNode::And { left, right } => lit(&values, left) && lit(&values, right),
            };
        }
        values
    }

    fn reference_lit(values: &[bool], l: Lit) -> bool {
        values[l.node() as usize] ^ l.is_complemented()
    }

    /// A xorshift stream, so the random designs repeat.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// A random literal over the nodes built so far.
    fn random_lit(aig: &Aig, rng: &mut Rng) -> Lit {
        let node = rng.below(aig.num_nodes()) as NodeId;
        let lit = Lit::positive(node);
        lit.xor_complement(rng.below(2) == 1)
    }

    /// Adds `ands` random gates over everything built so far.
    fn grow(aig: &mut Aig, ands: usize, rng: &mut Rng) {
        for _ in 0..ands {
            let (a, b) = (random_lit(aig, rng), random_lit(aig, rng));
            aig.and(a, b);
        }
    }

    /// A random sequential design: inputs, latches with random resets and
    /// next-state functions, random gates, two bad literals and an output.
    fn random_design(rng: &mut Rng) -> Aig {
        let mut aig = Aig::new();
        let inputs = 1 + rng.below(5);
        let latches = rng.below(6);
        for _ in 0..inputs {
            aig.add_input();
        }
        let ids: Vec<_> = (0..latches)
            .map(|_| aig.add_latch(rng.below(2) == 1))
            .collect();
        grow(&mut aig, 10 + rng.below(60), rng);
        for id in ids {
            let next = random_lit(&aig, rng);
            aig.set_next(id, next);
        }
        for _ in 0..2 {
            let bad = random_lit(&aig, rng);
            aig.add_bad(bad);
        }
        let out = random_lit(&aig, rng);
        aig.add_output(out);
        aig
    }

    fn lane(words: &[u64], lane: usize) -> Vec<bool> {
        words.iter().map(|w| (w >> lane) & 1 == 1).collect()
    }

    /// Every lane of the lazy cone evaluation agrees with the scalar
    /// reference, also when the graph grows between evaluations and when
    /// the lanes change.
    #[test]
    fn cone_evaluation_agrees_with_the_scalar_reference_on_every_lane() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..40 {
            let mut aig = random_design(&mut rng);
            let leaves = |n: usize, rng: &mut Rng| (0..n).map(|_| rng.next()).collect();
            let mut sim = WordSim::new(
                leaves(aig.num_inputs(), &mut rng),
                leaves(aig.num_latches(), &mut rng),
            );
            for round in 0..6 {
                if round % 2 == 1 {
                    grow(&mut aig, 20, &mut rng);
                }
                if round == 3 {
                    for word in sim.inputs_mut() {
                        *word = rng.next();
                    }
                }
                let lanes: Vec<Vec<bool>> = (0..64)
                    .map(|l| reference_frame(&aig, &lane(sim.inputs(), l), &lane(sim.latches(), l)))
                    .collect();
                for _ in 0..10 {
                    let lit = random_lit(&aig, &mut rng);
                    let got = sim.eval(&aig, lit);
                    for (l, values) in lanes.iter().enumerate() {
                        assert_eq!((got >> l) & 1 == 1, reference_lit(values, lit), "lane {l}");
                    }
                }
            }
        }
    }

    /// Every lane of a multi-cycle word replay agrees with the scalar
    /// reference replaying that lane's own input sequence, and
    /// [`simulate`] agrees with it on one lane.
    #[test]
    fn sequential_replay_agrees_with_the_scalar_reference_on_every_lane() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        for _ in 0..40 {
            let aig = random_design(&mut rng);
            let cycles = 1 + rng.below(8);
            let stimulus: Vec<Vec<u64>> = (0..cycles)
                .map(|_| (0..aig.num_inputs()).map(|_| rng.next()).collect())
                .collect();
            let reset: Vec<u64> = (0..aig.num_latches())
                .map(|i| if aig.init(i) { !0 } else { 0 })
                .collect();
            let mut sim = WordSim::new(vec![0; aig.num_inputs()], reset);
            let mut words = Vec::new();
            for frame in &stimulus {
                sim.inputs_mut().copy_from_slice(frame);
                sim.sweep(&aig);
                let bad: Vec<u64> = aig.bad_lits().map(|b| sim.value(b)).collect();
                words.push((sim.latches().to_vec(), bad));
                sim.clock(&aig);
            }
            for l in 0..64 {
                let mut latches: Vec<bool> = (0..aig.num_latches()).map(|i| aig.init(i)).collect();
                let inputs: Vec<Vec<bool>> = stimulus.iter().map(|f| lane(f, l)).collect();
                for (t, frame) in inputs.iter().enumerate() {
                    let values = reference_frame(&aig, frame, &latches);
                    let bad: Vec<bool> =
                        aig.bad_lits().map(|b| reference_lit(&values, b)).collect();
                    assert_eq!(
                        lane(&words[t].0, l),
                        latches,
                        "latches, lane {l}, cycle {t}"
                    );
                    assert_eq!(lane(&words[t].1, l), bad, "bad, lane {l}, cycle {t}");
                    latches = (0..aig.num_latches())
                        .map(|i| reference_lit(&values, aig.next(i)))
                        .collect();
                }
                if l == 5 {
                    let trace = simulate(&aig, &inputs);
                    let bad: Vec<Vec<bool>> = words.iter().map(|(_, b)| lane(b, l)).collect();
                    assert_eq!(trace.bad, bad);
                }
            }
        }
    }

    /// Evaluation is iterative: a 100k-deep AND chain evaluates on a test
    /// thread's stack.
    #[test]
    fn deep_and_chain_evaluates_without_recursion() {
        let mut aig = Aig::new();
        let mut chain = Lit::TRUE;
        for _ in 0..100_000 {
            let input = Lit::positive(aig.add_input());
            chain = aig.and(chain, input);
        }
        let mut inputs = vec![true; aig.num_inputs()];
        assert!(aig.eval(chain, &inputs, &[]));
        inputs[0] = false;
        assert!(!aig.eval(chain, &inputs, &[]));
    }

    #[test]
    fn empty_input_sequence_gives_empty_trace() {
        let aig = counter(1);
        let trace = simulate(&aig, &[]);
        assert!(trace.latches.is_empty());
        assert_eq!(trace.first_failure(), None);
    }
}
