//! Symbolic state sets shared by the interpolation engines.
//!
//! Interpolants, their column conjunctions `ℐ_j` and the accumulated
//! reachability over-approximations `R_j` are all Boolean functions over
//! the design latches.  They are stored as literals of a single
//! combinational [`aig::Aig`] manager whose primary input `i` stands for
//! latch `i`, and they are re-encoded into time-frame CNF when they seed
//! the next bounded check.
//!
//! Containment checks (`ℐ_j ⇒ R_{j-1}`) all go to one incremental SAT
//! solver per run, created under the run's budget (interrupt, deadline,
//! memory budget and fault plan).  The solver holds a lazily grown, full
//! Tseitin encoding of the manager: a node is encoded the first time a
//! query reaches it, and never again.  The manager is append-only and
//! structurally hashed, so a node's definition never changes; every clause
//! is a definition, so learned clauses stay valid for every later query.
//! A check `a ⇒ b` is then a single solve under the assumptions `a ∧ ¬b`,
//! and it encodes only the nodes the growing `R_{j-1}` gained since the
//! previous check.
//!
//! Almost every check is satisfiable, and most are satisfied by a state an
//! earlier satisfiable check already found.  So each model's latch values
//! go into a ring of up to 64 witness states, one per bit lane of an
//! [`aig::WordSim`] over the manager, and a check first evaluates
//! `a ∧ ¬b` on the filled lanes, over the cones of `a` and `b` only.  A
//! lane in `a ∧ ¬b` refutes the implication without a query ("simulate
//! before you call SAT", as in FRAIGs); otherwise the solver decides.
//! Either way the answer is a fact about the two sets, so the engines ask
//! the same checks and get the same answers; only solver work drops.

use crate::engines::run::EngineRun;
use crate::EngineStats;
use aig::{Aig, AigNode, WordSim};
use cnf::CnfBuilder;
use sat::{IncrementalSolver, SolveResult};
use std::collections::HashMap;
use std::time::Instant;
use telemetry::Telemetry;

/// A containment query the run budget stopped before it was decided; the
/// run reports it like any other interrupted SAT call, with the budget's
/// stop reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted;

/// A manager for symbolic state sets over the latches of one design,
/// together with the run's containment solver.
#[derive(Debug)]
pub struct StateSpace {
    mgr: Aig,
    latch_inputs: Vec<aig::Lit>,
    /// The run's containment solver: the definitions of every node any
    /// query reached so far, and nothing else.
    solver: IncrementalSolver,
    /// `encoded[n]` is the solver literal of manager node `n`, once a
    /// query has reached it.
    encoded: Vec<Option<cnf::Lit>>,
    /// Witness states of earlier satisfiable checks, one per lane: input
    /// `i` of the simulator is latch `i`.
    witnesses: WordSim,
    /// The lanes holding a witness.
    filled: u64,
    /// The lane the next witness overwrites.
    next_lane: u32,
    telemetry: Telemetry,
}

impl StateSpace {
    /// Creates a state space for a design with `num_latches` latches,
    /// whose containment solver `run` creates.
    pub(crate) fn new(num_latches: usize, run: &EngineRun<'_>) -> StateSpace {
        let mut mgr = Aig::new();
        let latch_inputs = (0..num_latches)
            .map(|_| aig::Lit::positive(mgr.add_input()))
            .collect();
        StateSpace {
            mgr,
            latch_inputs,
            solver: run.incremental(),
            encoded: Vec::new(),
            witnesses: WordSim::new(vec![0; num_latches], Vec::new()),
            filled: 0,
            next_lane: 0,
            telemetry: run.telemetry().clone(),
        }
    }

    /// Replaces the containment solver with a fresh one from `run`,
    /// keeping the manager.  An engine calls this when it
    /// abandons every state set built so far (ITP restarting `R` from
    /// `S0` at a new bound): the dead encodings would otherwise stay in
    /// the solver, and every satisfiable query would assign them all.
    /// The witness states stay: they are states, whatever set they
    /// were found for.
    pub(crate) fn restart_solver(&mut self, run: &EngineRun<'_>) {
        self.solver = run.incremental();
        self.encoded.clear();
    }

    /// Number of latches (dimensions) of the state space.
    pub fn num_latches(&self) -> usize {
        self.latch_inputs.len()
    }

    /// Returns the literal standing for latch `i`.
    pub fn latch(&self, i: usize) -> aig::Lit {
        self.latch_inputs[i]
    }

    /// Gives mutable access to the underlying circuit manager (used by the
    /// interpolation context to build interpolants in place).
    pub fn manager_mut(&mut self) -> &mut Aig {
        &mut self.mgr
    }

    /// Gives read access to the underlying circuit manager.
    pub fn manager(&self) -> &Aig {
        &self.mgr
    }

    /// The state set containing exactly the initial state(s) of `design`.
    pub fn initial_states(&mut self, design: &Aig) -> aig::Lit {
        let lits: Vec<aig::Lit> = (0..design.num_latches())
            .map(|i| self.latch(i).xor_complement(!design.init(i)))
            .collect();
        self.mgr.and_many(lits)
    }

    /// Conjunction of two state sets.
    pub fn and(&mut self, a: aig::Lit, b: aig::Lit) -> aig::Lit {
        self.mgr.and(a, b)
    }

    /// Disjunction of two state sets.
    pub fn or(&mut self, a: aig::Lit, b: aig::Lit) -> aig::Lit {
        self.mgr.or(a, b)
    }

    /// Checks the implication `a ⇒ b`.  Trivial implications are
    /// answered at once.  A witness state in `a ∧ ¬b` refutes it inside a
    /// `simulate` span, counted in `stats.containment_simulated`.
    /// Otherwise one query `a ∧ ¬b` on the run's containment solver
    /// decides it, inside a `contain` span; the query counts in `stats` as
    /// a SAT call and a containment call, with its solver work and the
    /// definitions it newly encoded, and a model becomes a witness.
    pub fn implies(
        &mut self,
        a: aig::Lit,
        b: aig::Lit,
        stats: &mut EngineStats,
    ) -> Result<bool, Interrupted> {
        if a == aig::Lit::FALSE || b == aig::Lit::TRUE || a == b {
            return Ok(true);
        }
        if self.witnessed(a, b) {
            stats.containment_simulated += 1;
            return Ok(false);
        }
        let _contain = self.telemetry.span("contain");
        let encode_start = Instant::now();
        let mut clauses = 0;
        let a_lit = self.encode(a, &mut clauses);
        let b_lit = self.encode(b, &mut clauses);
        stats.clauses_encoded += clauses;
        stats.encode_time += encode_start.elapsed();
        let before = self.solver.stats();
        let result = self.solver.solve(&[a_lit, !b_lit]);
        stats.sat_calls += 1;
        stats.containment_calls += 1;
        stats.add_solver_delta(self.solver.stats() - before);
        match result {
            SolveResult::Unsat => Ok(true),
            SolveResult::Sat => {
                self.record_witness();
                Ok(false)
            }
            SolveResult::Interrupted => Err(Interrupted),
        }
    }

    /// Whether some witness state lies in `a ∧ ¬b`.
    fn witnessed(&mut self, a: aig::Lit, b: aig::Lit) -> bool {
        if self.filled == 0 {
            return false;
        }
        let _simulate = self.telemetry.span("simulate");
        let in_a = self.witnesses.eval(&self.mgr, a) & self.filled;
        in_a != 0 && in_a & !self.witnesses.eval(&self.mgr, b) != 0
    }

    /// Stores the latch values of the solver's model in the next witness
    /// lane; a latch no query has encoded reads `false`.
    fn record_witness(&mut self) {
        let bit = 1u64 << self.next_lane;
        let encoded = &self.encoded;
        let solver = &self.solver;
        for (latch, lanes) in self.latch_inputs.iter().zip(self.witnesses.inputs_mut()) {
            let value = encoded
                .get(latch.node() as usize)
                .copied()
                .flatten()
                .and_then(|lit| solver.lit_value(lit))
                .unwrap_or(false);
            *lanes = if value { *lanes | bit } else { *lanes & !bit };
        }
        self.filled |= bit;
        self.next_lane = (self.next_lane + 1) % u64::BITS;
    }

    /// Returns the solver literal of `root`, first adding the definitions
    /// of every node of its cone that no earlier query reached (counted
    /// in `clauses`).
    fn encode(&mut self, root: aig::Lit, clauses: &mut u64) -> cnf::Lit {
        self.encoded.resize(self.mgr.num_nodes(), None);
        let mut stack = vec![root.node()];
        while let Some(&id) = stack.last() {
            if self.encoded[id as usize].is_some() {
                stack.pop();
                continue;
            }
            let lit = match self.mgr.node(id) {
                AigNode::Const => {
                    let lit = cnf::Lit::positive(self.solver.new_var());
                    self.solver.add_clause([!lit]);
                    *clauses += 1;
                    lit
                }
                AigNode::Input { .. } => cnf::Lit::positive(self.solver.new_var()),
                AigNode::Latch { .. } => unreachable!("state sets only depend on latch inputs"),
                AigNode::And { left, right } => {
                    let (Some(l), Some(r)) = (self.solver_lit(left), self.solver_lit(right)) else {
                        stack.push(left.node());
                        stack.push(right.node());
                        continue;
                    };
                    let out = cnf::Lit::positive(self.solver.new_var());
                    self.solver.add_clause([!out, l]);
                    self.solver.add_clause([!out, r]);
                    self.solver.add_clause([out, !l, !r]);
                    *clauses += 3;
                    out
                }
            };
            self.encoded[id as usize] = Some(lit);
            stack.pop();
        }
        self.solver_lit(root).expect("encoded above")
    }

    /// The solver literal of `lit`, once a query has reached its node.
    fn solver_lit(&self, lit: aig::Lit) -> Option<cnf::Lit> {
        let node = self.encoded[lit.node() as usize]?;
        Some(if lit.is_complemented() { !node } else { node })
    }

    /// Evaluates a state set on a concrete latch valuation.
    pub fn contains(&self, set: aig::Lit, latches: &[bool]) -> bool {
        self.mgr.eval(set, latches, &[])
    }
}

/// Encodes a state-set literal of `space` into `builder`, over the latch
/// variables `frame_latches` of one time frame, returning the CNF literal
/// equisatisfiable with "the state at that frame belongs to the set".
///
/// `latch_map[i]` gives the index, within the unrolled design, of the latch
/// that dimension `i` of the state space talks about; pass the identity for
/// unabstracted models.
pub fn encode_state_lit(
    builder: &mut CnfBuilder,
    frame_latches: &[cnf::Lit],
    space: &StateSpace,
    set: aig::Lit,
    latch_map: &[usize],
) -> cnf::Lit {
    let mut cache = HashMap::new();
    cnf::tseitin::encode_cone(
        builder,
        space.manager(),
        set,
        &mut cache,
        &mut |_, id| match space.manager().node(id) {
            AigNode::Input { index } => frame_latches[latch_map[index]],
            _ => unreachable!("state sets only depend on latch inputs"),
        },
    )
}

/// The frame-0 constraint "the state belongs to `set`" of a check whose
/// frame-0 latch variables are `0..num_latches`: the set's Tseitin clauses
/// and the unit asserting it, in partition 1, on fresh variables from
/// `num_latches` on — exactly what a scratch unrolling emits for it
/// before its first transition.
pub(crate) fn set_constraint(
    space: &StateSpace,
    set: aig::Lit,
    latch_map: &[usize],
    num_latches: usize,
) -> cnf::Cnf {
    let frame_latches: Vec<cnf::Lit> = (0..num_latches as u32)
        .map(|v| cnf::Lit::positive(cnf::Var::new(v)))
        .collect();
    let mut builder = CnfBuilder::starting_at(num_latches as u32);
    builder.set_partition(1);
    let lit = encode_state_lit(&mut builder, &frame_latches, space, set, latch_map);
    builder.add_unit(lit);
    builder.into_cnf()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::CancelToken;
    use crate::Options;
    use cnf::Unroller;
    use sat::Solver;

    /// [`encode_state_lit`] over frame `frame` of `unroller`.
    fn encode_at(
        unroller: &mut Unroller<'_>,
        frame: usize,
        space: &StateSpace,
        set: aig::Lit,
        latch_map: &[usize],
    ) -> cnf::Lit {
        let frame_latches = unroller.latch_lits(frame);
        encode_state_lit(
            unroller.builder_mut(),
            &frame_latches,
            space,
            set,
            latch_map,
        )
    }

    /// A state space governed by a fresh run under `options`.
    fn governed(num_latches: usize, options: &Options) -> StateSpace {
        let (run, _span) =
            EngineRun::new("test.run", &Aig::new(), &[], options, &CancelToken::new());
        StateSpace::new(num_latches, &run)
    }

    fn space(num_latches: usize) -> StateSpace {
        governed(num_latches, &Options::default())
    }

    fn two_latch_design() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_latch(false);
        let b = aig.add_latch(true);
        let _ = (a, b);
        aig
    }

    #[test]
    fn initial_states_matches_reset_values() {
        let design = two_latch_design();
        let mut ss = space(2);
        let init = ss.initial_states(&design);
        assert!(ss.contains(init, &[false, true]));
        assert!(!ss.contains(init, &[true, true]));
        assert!(!ss.contains(init, &[false, false]));
    }

    #[test]
    fn implication_checks() {
        let mut ss = space(2);
        let a = ss.latch(0);
        let b = ss.latch(1);
        let ab = ss.and(a, b);
        let a_or_b = ss.or(a, b);
        let mut stats = EngineStats::default();
        let mut implies = |x, y| ss.implies(x, y, &mut stats).expect("no stop was requested");
        assert!(implies(ab, a));
        assert!(implies(ab, a_or_b));
        assert!(implies(a, a_or_b));
        // The model of this query, `a ∧ ¬b`, becomes a witness state ...
        assert!(!implies(a, b));
        // ... which refutes this check without a query.
        assert!(!implies(a_or_b, ab));
        assert!(implies(aig::Lit::FALSE, a));
        assert!(implies(a, aig::Lit::TRUE));
        assert_eq!(
            stats.containment_calls, 4,
            "trivial and witnessed checks need no query"
        );
        assert_eq!(stats.containment_simulated, 1);
        assert_eq!(stats.sat_calls, 4);
    }

    /// Only a witness in `a ∧ ¬b` refutes a check: witnesses outside `a`
    /// or inside `b` leave it to the solver.
    #[test]
    fn witnesses_refute_only_what_they_violate() {
        let mut ss = space(3);
        let (a, b, c) = (ss.latch(0), ss.latch(1), ss.latch(2));
        let mut stats = EngineStats::default();
        // Lane 0: a ∧ ¬b (latch 2 unencoded, so it reads false).
        assert_eq!(ss.implies(a, b, &mut stats), Ok(false));
        assert_eq!(ss.witnesses.inputs(), &[1, 0, 0]);
        // A witness outside `a`, or inside `b`, leaves the check to the
        // solver.
        assert_eq!(ss.implies(b, a, &mut stats), Ok(false));
        let a_not_b = ss.and(a, !b);
        assert_eq!(ss.implies(a, a_not_b, &mut stats), Ok(false));
        assert_eq!(stats.containment_simulated, 0);
        assert_eq!(stats.containment_calls, 3);
        // Lane 0 (a, ¬b, ¬c) lies in `a ∧ ¬c`.
        assert_eq!(ss.implies(a, c, &mut stats), Ok(false));
        assert_eq!(stats.containment_simulated, 1);
        assert_eq!(stats.sat_calls, 3);
    }

    /// Truth table of `set` over every valuation of (at most 8) latches.
    fn truth_table(ss: &StateSpace, set: aig::Lit) -> Vec<bool> {
        let n = ss.num_latches();
        (0..1u32 << n)
            .map(|v| {
                let latches: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
                ss.contains(set, &latches)
            })
            .collect()
    }

    /// One solver answers every query of a growing manager exactly:
    /// random sets built with interleaved `and`/`or`, each containment
    /// answer checked against brute-force evaluation.
    #[test]
    fn incremental_containment_is_exact() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for num_latches in [1usize, 3, 8] {
            let mut ss = space(num_latches);
            let mut stats = EngineStats::default();
            let mut sets: Vec<aig::Lit> = vec![aig::Lit::FALSE, aig::Lit::TRUE];
            sets.extend((0..num_latches).map(|i| ss.latch(i)));
            let mut tables: Vec<Vec<bool>> = sets.iter().map(|&s| truth_table(&ss, s)).collect();
            for _ in 0..300 {
                let pick = |i: usize, flip: usize| sets[i].xor_complement(flip == 1);
                let x = pick(next(sets.len()), next(2));
                let y = pick(next(sets.len()), next(2));
                let set = if next(2) == 0 {
                    ss.and(x, y)
                } else {
                    ss.or(x, y)
                };
                sets.push(set);
                tables.push(truth_table(&ss, set));
                for _ in 0..2 {
                    let (i, j) = (next(sets.len()), next(sets.len()));
                    let expected = tables[i].iter().zip(&tables[j]).all(|(&a, &b)| !a || b);
                    let got = ss.implies(sets[i], sets[j], &mut stats);
                    assert_eq!(
                        got,
                        Ok(expected),
                        "{num_latches} latches: set {i} => set {j}"
                    );
                }
            }
            assert!(stats.containment_calls > 0);
            if num_latches > 1 {
                assert!(
                    stats.containment_simulated > 0,
                    "{num_latches} latches: no check was refuted by a witness"
                );
            }
        }
    }

    /// A restarted containment solver answers like the old one, and
    /// encodes every cone it meets afresh.
    #[test]
    fn restarted_solver_encodes_afresh() {
        let options = Options::default();
        let (run, _span) =
            EngineRun::new("test.run", &Aig::new(), &[], &options, &CancelToken::new());
        let mut ss = StateSpace::new(2, &run);
        let (a, b) = (ss.latch(0), ss.latch(1));
        let ab = ss.and(a, b);
        let mut stats = EngineStats::default();
        assert_eq!(ss.implies(ab, a, &mut stats), Ok(true));
        let first = stats.clauses_encoded;
        ss.restart_solver(&run);
        assert_eq!(ss.implies(ab, a, &mut stats), Ok(true));
        assert_eq!(stats.clauses_encoded, 2 * first);
        assert_eq!(ss.implies(a, ab, &mut stats), Ok(false));
        assert_eq!(stats.containment_calls, 3);
    }

    #[test]
    fn a_raised_interrupt_flag_stops_containment_queries() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let options = Options::default();
        let (run, _span) = EngineRun::new("test.run", &Aig::new(), &[], &options, &cancel);
        let mut ss = StateSpace::new(2, &run);
        let (a, b) = (ss.latch(0), ss.latch(1));
        let mut stats = EngineStats::default();
        assert_eq!(ss.implies(a, b, &mut stats), Err(Interrupted));
        assert_eq!(run.stop_reason(), crate::StopReason::Cancelled);
        assert_eq!(stats.containment_calls, 1, "the stopped query still counts");
        // Trivial implications need no solver and still answer.
        assert_eq!(ss.implies(a, a, &mut stats), Ok(true));
    }

    #[test]
    fn injected_faults_fire_inside_containment_queries() {
        let plan = sat::FaultPlan::inject(sat::FaultSite::Alloc, sat::FaultKind::Panic, 1);
        let mut ss = governed(2, &Options::default().with_faults(plan.clone()));
        let (a, b) = (ss.latch(0), ss.latch(1));
        let ab = ss.and(a, b);
        assert!(!plan.fired(), "encoding is lazy: nothing allocated yet");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ss.implies(ab, a, &mut EngineStats::default())
        }));
        assert!(
            outcome.is_err(),
            "the injected panic must unwind out of implies"
        );
        assert!(plan.fired());
    }

    #[test]
    fn encode_state_lit_constrains_frame_variables() {
        // Design: one latch toggling from 0; constrain frame 0 to the set
        // "latch = 1" and check that together with the reset state the CNF
        // is unsatisfiable.
        let mut design = Aig::new();
        let l = design.add_latch(false);
        let cur = design.latch_lit(l);
        design.set_next(l, !cur);
        design.add_bad(cur);

        let ss = space(1);
        let one = ss.latch(0);

        let mut unroller = Unroller::new(&design);
        unroller.assert_initial(0);
        let set_lit = encode_at(&mut unroller, 0, &ss, one, &[0]);
        unroller.assert_lit(set_lit);
        let mut solver = Solver::new();
        solver.add_cnf(&unroller.into_cnf());
        assert_eq!(solver.solve(), SolveResult::Unsat);

        // Without the initial-state constraint the set is satisfiable.
        let mut unroller = Unroller::new(&design);
        let set_lit = encode_at(&mut unroller, 0, &ss, one, &[0]);
        unroller.assert_lit(set_lit);
        let mut solver = Solver::new();
        solver.add_cnf(&unroller.into_cnf());
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn latch_map_redirects_dimensions() {
        // A state space over one abstract latch that corresponds to the
        // second latch of the concrete design.
        let mut design = Aig::new();
        let _l0 = design.add_latch(false);
        let l1 = design.add_latch(true);
        let _ = l1;
        let ss = space(1);
        let set = ss.latch(0); // "abstract latch is 1"
        let mut unroller = Unroller::new(&design);
        unroller.assert_initial(0);
        let lit = encode_at(&mut unroller, 0, &ss, set, &[1]);
        unroller.assert_lit(lit);
        let mut solver = Solver::new();
        solver.add_cnf(&unroller.into_cnf());
        // Latch 1 resets to 1, so the constraint is consistent.
        assert_eq!(solver.solve(), SolveResult::Sat);
    }
}
