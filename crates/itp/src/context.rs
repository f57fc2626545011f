//! Interpolant extraction from resolution proofs (McMillan's system).

use crate::ItpError;
use aig::Aig;
use cnf::Var;
use sat::{Chain, ProofView, ViewOrigin};

/// Occurrence range of a variable over the original partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct VarRange {
    min: u32,
    max: u32,
}

/// Prepared interpolation state for one refutation proof.
///
/// The context pre-computes, for every SAT variable, the range of partitions
/// in which it occurs.  Interpolants for arbitrary cuts can then be
/// extracted with a single traversal of the proof per request; all cuts of
/// an interpolation sequence are computed in *one* traversal, mirroring the
/// paper's observation that the whole sequence comes from a single proof.
///
/// The proof is read through a [`ProofView`], so a solver's refutation is
/// interpolated in place ([`sat::Solver::proof_view`]); an owned
/// [`sat::Proof`] converts into a view as well, with identical results.
#[derive(Clone, Debug)]
pub struct InterpolationContext<'a> {
    proof: ProofView<'a>,
    final_chain: &'a Chain,
    ranges: Vec<Option<VarRange>>,
    /// `slots[id]` numbers the clauses of the refutation cone densely in
    /// creation order ([`NOT_NEEDED`] for the others).
    slots: Vec<u32>,
    num_needed: usize,
    partitions: u32,
}

/// The slot of a clause outside the refutation cone.
const NOT_NEEDED: u32 = u32::MAX;

impl<'a> InterpolationContext<'a> {
    /// Prepares interpolation over `proof`: one walk of the refutation's
    /// chains marks its cone, and one pass over the clauses computes the
    /// variable ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ItpError::MissingRefutation`] if the proof does not derive
    /// the empty clause, or [`ItpError::UnpartitionedClause`] if a clause
    /// participating in the refutation carries no partition label.
    pub fn new(proof: impl Into<ProofView<'a>>) -> Result<InterpolationContext<'a>, ItpError> {
        let proof = proof.into();
        let final_chain = proof
            .empty_clause_chain()
            .ok_or(ItpError::MissingRefutation)?;
        let needed = proof.refutation_cone();

        // Occurrence ranges over *all* partitioned original clauses; every
        // needed original clause must be partitioned.
        let mut ranges: Vec<Option<VarRange>> = Vec::new();
        let mut slots = vec![NOT_NEEDED; needed.len()];
        let mut num_needed = 0;
        let mut partitions = 0;
        for clause in proof.clauses() {
            if needed[clause.id] {
                slots[clause.id] = num_needed as u32;
                num_needed += 1;
            }
            let ViewOrigin::Original { partition } = clause.origin else {
                continue;
            };
            if partition == 0 {
                if needed[clause.id] {
                    return Err(ItpError::UnpartitionedClause { clause: clause.id });
                }
                continue;
            }
            partitions = partitions.max(partition);
            for lit in clause.lits() {
                let var = lit.var().index() as usize;
                if var >= ranges.len() {
                    ranges.resize(var + 1, None);
                }
                let slot = &mut ranges[var];
                *slot = Some(match *slot {
                    None => VarRange {
                        min: partition,
                        max: partition,
                    },
                    Some(r) => VarRange {
                        min: r.min.min(partition),
                        max: r.max.max(partition),
                    },
                });
            }
        }

        Ok(InterpolationContext {
            proof,
            final_chain,
            ranges,
            slots,
            num_needed,
            partitions,
        })
    }

    /// Number of partitions `n` of the underlying formula `Γ_{1..n}`.
    pub fn num_partitions(&self) -> u32 {
        self.partitions
    }

    /// Returns `true` when `var` is shared between the two sides of `cut`
    /// (occurs both in some `A_i` with `i ≤ cut` and in some `A_j` with
    /// `j > cut`).
    pub fn is_global(&self, cut: u32, var: Var) -> bool {
        match self.ranges.get(var.index() as usize).copied().flatten() {
            Some(r) => r.min <= cut && r.max > cut,
            None => false,
        }
    }

    fn is_a_local(&self, cut: u32, var: Var) -> Option<bool> {
        self.ranges
            .get(var.index() as usize)
            .copied()
            .flatten()
            .map(|r| r.max <= cut)
    }

    /// Computes the interpolant `ITP(A_1 ∧ … ∧ A_cut, A_{cut+1} ∧ … ∧ A_n)`.
    ///
    /// `var_map(cut, v)` must return the AIG literal standing for the shared
    /// variable `v` at this cut; it is only called for variables that are
    /// global for the cut.
    ///
    /// # Errors
    ///
    /// See [`InterpolationContext::sequence_for_cuts`].
    pub fn interpolant(
        &self,
        cut: u32,
        mgr: &mut Aig,
        var_map: &dyn Fn(u32, Var) -> aig::Lit,
    ) -> Result<aig::Lit, ItpError> {
        Ok(self.sequence_for_cuts(&[cut], mgr, var_map)?.remove(0))
    }

    /// Computes the full interpolation sequence `I_1 … I_{n-1}` (the paper's
    /// `I_0 = ⊤` and `I_n = ⊥` endpoints are omitted).
    ///
    /// # Errors
    ///
    /// See [`InterpolationContext::sequence_for_cuts`].
    pub fn sequence(
        &self,
        mgr: &mut Aig,
        var_map: &dyn Fn(u32, Var) -> aig::Lit,
    ) -> Result<Vec<aig::Lit>, ItpError> {
        let cuts: Vec<u32> = (1..self.partitions).collect();
        self.sequence_for_cuts(&cuts, mgr, var_map)
    }

    /// Computes interpolants for an arbitrary set of cuts in a single
    /// traversal of the proof.
    ///
    /// # Errors
    ///
    /// * [`ItpError::CutOutOfRange`] if a cut is not in `1..n`;
    /// * [`ItpError::UnclassifiableVariable`] if a resolution pivot does not
    ///   occur in any partitioned original clause.
    pub fn sequence_for_cuts(
        &self,
        cuts: &[u32],
        mgr: &mut Aig,
        var_map: &dyn Fn(u32, Var) -> aig::Lit,
    ) -> Result<Vec<aig::Lit>, ItpError> {
        for &cut in cuts {
            if cut == 0 || cut >= self.partitions {
                return Err(ItpError::CutOutOfRange {
                    cut,
                    partitions: self.partitions,
                });
            }
        }
        // Partial interpolants of the needed clauses, `cuts.len()` per
        // clause slot.
        let width = cuts.len();
        let mut partial = vec![aig::Lit::FALSE; self.num_needed * width];
        for clause in self.proof.clauses() {
            let slot = self.slots[clause.id];
            if slot == NOT_NEEDED {
                continue;
            }
            let at = slot as usize * width;
            match clause.origin {
                ViewOrigin::Original { partition } => {
                    for (i, &cut) in cuts.iter().enumerate() {
                        partial[at + i] = if partition <= cut {
                            // A-side leaf: disjunction of the global literals.
                            let mut acc = aig::Lit::FALSE;
                            for lit in clause.lits() {
                                if self.is_global(cut, lit.var()) {
                                    let leaf = var_map(cut, lit.var());
                                    let leaf = if lit.is_negative() { !leaf } else { leaf };
                                    acc = mgr.or(acc, leaf);
                                }
                            }
                            acc
                        } else {
                            // B-side leaf.
                            aig::Lit::TRUE
                        };
                    }
                }
                ViewOrigin::Learned { chain } => {
                    let itps = self.replay_chain_itps(chain, cuts, mgr, &partial)?;
                    partial[at..at + width].copy_from_slice(&itps);
                }
            }
        }
        self.replay_chain_itps(self.final_chain, cuts, mgr, &partial)
    }

    /// Replays `chain` over the partial interpolants of its antecedents
    /// (`partial` holds `cuts.len()` entries per clause slot).
    fn replay_chain_itps(
        &self,
        chain: &Chain,
        cuts: &[u32],
        mgr: &mut Aig,
        partial: &[aig::Lit],
    ) -> Result<Vec<aig::Lit>, ItpError> {
        let width = cuts.len();
        let itps = |id: usize| {
            let slot = self.slots[id];
            debug_assert!(slot != NOT_NEEDED, "antecedents are in the cone");
            &partial[slot as usize * width..(slot as usize + 1) * width]
        };
        let mut current = itps(chain.start).to_vec();
        for &(pivot, antecedent) in &chain.steps {
            let other = itps(antecedent);
            for (i, slot) in current.iter_mut().enumerate() {
                let cut = cuts[i];
                let a_local = self
                    .is_a_local(cut, pivot)
                    .ok_or(ItpError::UnclassifiableVariable { var: pivot })?;
                *slot = if a_local {
                    mgr.or(*slot, other[i])
                } else {
                    mgr.and(*slot, other[i])
                };
            }
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::{Cnf, CnfBuilder, Lit};
    use sat::{Proof, SolveResult, Solver};

    /// Helper: solve a partitioned CNF, returning the proof when UNSAT.
    fn refute(cnf: &Cnf) -> Option<Proof> {
        let mut solver = Solver::new();
        solver.add_cnf(cnf);
        match solver.solve() {
            SolveResult::Unsat => Some(solver.proof().expect("proof")),
            SolveResult::Sat | SolveResult::Interrupted => None,
        }
    }

    /// Helper: evaluate the conjunction of the clauses with partition in
    /// `range` under a total assignment.
    fn eval_side(cnf: &Cnf, assignment: &[bool], pred: impl Fn(u32) -> bool) -> bool {
        cnf.clauses.iter().filter(|c| pred(c.partition)).all(|c| {
            c.lits
                .iter()
                .any(|l| assignment[l.var().index() as usize] != l.is_negative())
        })
    }

    /// Checks the three defining properties of an interpolant for every cut,
    /// by brute force over all assignments.
    fn check_interpolant_properties(cnf: &Cnf) {
        let proof = refute(cnf).expect("formula must be unsatisfiable");
        check_proof_interpolants(cnf, &proof);
    }

    /// [`check_interpolant_properties`] on an externally produced proof.
    fn check_proof_interpolants(cnf: &Cnf, proof: &Proof) {
        proof.check().expect("proof must be valid");
        let ctx = InterpolationContext::new(proof).expect("context");
        let n = ctx.num_partitions();
        assert!(n >= 2, "need at least two partitions");

        let mut mgr = Aig::new();
        let inputs: Vec<aig::Lit> = (0..cnf.num_vars)
            .map(|_| aig::Lit::positive(mgr.add_input()))
            .collect();
        let cuts: Vec<u32> = (1..n).collect();
        let itps = ctx
            .sequence_for_cuts(&cuts, &mut mgr, &|_, v| inputs[v.index() as usize])
            .expect("sequence");

        for (idx, &cut) in cuts.iter().enumerate() {
            // Support check: the interpolant only mentions global variables.
            let support = aig::coi::combinational_support(&mgr, itps[idx]);
            for &inp in &support.inputs {
                assert!(
                    ctx.is_global(cut, Var::new(inp as u32)),
                    "cut {cut}: interpolant mentions non-shared variable x{inp}"
                );
            }
            for bits in 0..(1u64 << cnf.num_vars) {
                let assignment: Vec<bool> =
                    (0..cnf.num_vars).map(|i| (bits >> i) & 1 == 1).collect();
                let itp_value = mgr.eval(itps[idx], &assignment, &[]);
                if eval_side(cnf, &assignment, |p| p != 0 && p <= cut) {
                    assert!(itp_value, "cut {cut}: A does not imply the interpolant");
                }
                if eval_side(cnf, &assignment, |p| p > cut) {
                    assert!(!itp_value, "cut {cut}: interpolant ∧ B is satisfiable");
                }
            }
        }

        // Sequence chaining property: I_j ∧ A_{j+1} ⇒ I_{j+1}.
        for w in 0..cuts.len().saturating_sub(1) {
            let cut = cuts[w];
            for bits in 0..(1u64 << cnf.num_vars) {
                let assignment: Vec<bool> =
                    (0..cnf.num_vars).map(|i| (bits >> i) & 1 == 1).collect();
                let i_j = mgr.eval(itps[w], &assignment, &[]);
                let a_next = eval_side(cnf, &assignment, |p| p == cut + 1);
                let i_next = mgr.eval(itps[w + 1], &assignment, &[]);
                if i_j && a_next {
                    assert!(i_next, "sequence property violated at cut {cut}");
                }
            }
        }
    }

    fn lit(v: u32, neg: bool) -> Lit {
        Lit::new(Var::new(v), neg)
    }

    #[test]
    fn unit_conflict_interpolant_is_the_shared_literal() {
        let mut b = CnfBuilder::new();
        let a = b.new_lit();
        b.set_partition(1);
        b.add_unit(a);
        b.set_partition(2);
        b.add_unit(!a);
        check_interpolant_properties(&b.into_cnf());
    }

    #[test]
    fn implication_chain_interpolants() {
        // A: a, a->b ; B: b->c, ¬c  — interpolant over {b}.
        let mut b = CnfBuilder::new();
        let x: Vec<Lit> = (0..3).map(|_| b.new_lit()).collect();
        b.set_partition(1);
        b.add_unit(x[0]);
        b.add_clause([!x[0], x[1]]);
        b.set_partition(2);
        b.add_clause([!x[1], x[2]]);
        b.add_unit(!x[2]);
        check_interpolant_properties(&b.into_cnf());
    }

    #[test]
    fn three_partition_sequence() {
        // A1: a ; A2: a->b ; A3: ¬b.
        let mut b = CnfBuilder::new();
        let x: Vec<Lit> = (0..2).map(|_| b.new_lit()).collect();
        b.set_partition(1);
        b.add_unit(x[0]);
        b.set_partition(2);
        b.add_clause([!x[0], x[1]]);
        b.set_partition(3);
        b.add_unit(!x[1]);
        check_interpolant_properties(&b.into_cnf());
    }

    #[test]
    fn pigeonhole_interpolants_across_partitions() {
        // Pigeons in partition 1, hole-exclusivity in partition 2.
        let holes = 3;
        let pigeons = holes + 1;
        let mut b = CnfBuilder::new();
        let var = |p: usize, h: usize| Var::new((p * holes + h) as u32);
        for _ in 0..pigeons * holes {
            b.new_var();
        }
        b.set_partition(1);
        for p in 0..pigeons {
            b.add_clause((0..holes).map(|h| Lit::positive(var(p, h))));
        }
        b.set_partition(2);
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    b.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
                }
            }
        }
        check_interpolant_properties(&b.into_cnf());
    }

    #[test]
    fn interpolants_stay_valid_after_db_reduction_cycles() {
        // An aggressive reduction schedule forces many learned-clause
        // deletion passes *during* the proof-logging refutation; clauses
        // referenced by recorded chains are pinned, so the exported proof
        // must still be complete and its whole interpolation sequence
        // must satisfy every defining property.
        let holes = 3;
        let pigeons = holes + 1;
        let mut b = CnfBuilder::new();
        let var = |p: usize, h: usize| Var::new((p * holes + h) as u32);
        for _ in 0..pigeons * holes {
            b.new_var();
        }
        b.set_partition(1);
        for p in 0..pigeons {
            b.add_clause((0..holes).map(|h| Lit::positive(var(p, h))));
        }
        b.set_partition(2);
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    b.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
                }
            }
        }
        let cnf = b.into_cnf();
        let mut solver = Solver::new();
        solver.set_reduce_interval(Some(2));
        solver.add_cnf(&cnf);
        assert_eq!(solver.solve(), SolveResult::Unsat);
        assert!(
            solver.stats().db_reductions > 0,
            "the aggressive schedule must actually run reduction passes"
        );
        let proof = solver.proof().expect("proof");
        check_proof_interpolants(&cnf, &proof);
    }

    #[test]
    fn random_partitioned_formulas_yield_valid_sequences() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2011);
        let mut checked = 0;
        for _ in 0..200 {
            if checked >= 12 {
                break;
            }
            let num_vars = rng.gen_range(4..8u32);
            let num_partitions = rng.gen_range(2..5u32);
            let num_clauses = num_vars * 5;
            let mut b = CnfBuilder::new();
            for _ in 0..num_vars {
                b.new_var();
            }
            for _ in 0..num_clauses {
                b.set_partition(rng.gen_range(1..=num_partitions));
                let len = rng.gen_range(1..=3);
                let clause: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
                    .collect();
                b.add_clause(clause);
            }
            let cnf = b.into_cnf();
            if refute(&cnf).is_some() {
                check_interpolant_properties(&cnf);
                checked += 1;
            }
        }
        assert!(checked >= 5, "not enough unsatisfiable samples generated");
    }

    /// The whole interpolation sequence of `view` in a fresh manager with
    /// one input per variable, plus that manager's nodes.
    fn sequence_nodes(view: ProofView<'_>, num_vars: u32) -> (Vec<aig::Lit>, Vec<aig::AigNode>) {
        let ctx = InterpolationContext::new(view).expect("context");
        let mut mgr = Aig::new();
        let inputs: Vec<aig::Lit> = (0..num_vars)
            .map(|_| aig::Lit::positive(mgr.add_input()))
            .collect();
        let itps = ctx
            .sequence(&mut mgr, &|_, v| inputs[v.index() as usize])
            .expect("sequence");
        let nodes = (0..mgr.num_nodes() as aig::NodeId)
            .map(|id| mgr.node(id))
            .collect();
        (itps, nodes)
    }

    /// Interpolating from a solver's proof in place is interpolating from
    /// its export: the manager receives the same `and`/`or` calls, so the
    /// sequences are node-identical — on random partitioned formulas and
    /// on a refutation that went through forced database reductions.
    #[test]
    fn proof_views_interpolate_like_exported_proofs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(16);
        let mut compared = 0;
        let compare = |cnf: &Cnf, reduce: Option<u64>| {
            let mut solver = Solver::new();
            solver.set_reduce_interval(reduce);
            solver.add_cnf(cnf);
            if solver.solve() != SolveResult::Unsat {
                return false;
            }
            if reduce.is_some() {
                assert!(solver.stats().learned_deleted > 0, "no clause was deleted");
            }
            let view = solver.proof_view().expect("refutation");
            let owned = solver.proof().expect("refutation");
            assert_eq!(
                sequence_nodes(view, cnf.num_vars),
                sequence_nodes(owned.view(), cnf.num_vars)
            );
            true
        };
        for _ in 0..200 {
            let num_vars = rng.gen_range(4..9u32);
            let num_partitions = rng.gen_range(2..6u32);
            let mut b = CnfBuilder::new();
            for _ in 0..num_vars {
                b.new_var();
            }
            for _ in 0..num_vars * 5 {
                b.set_partition(rng.gen_range(1..=num_partitions));
                let len = rng.gen_range(1..=3);
                let clause: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
                    .collect();
                b.add_clause(clause);
            }
            compared += usize::from(compare(&b.into_cnf(), None));
        }
        assert!(compared >= 20, "only {compared} refutations compared");

        // Pigeonhole with an aggressive reduction schedule: deleted learned
        // clauses leave holes in the view's ids that the export renumbers.
        let holes = 6;
        let pigeons = holes + 1;
        let mut b = CnfBuilder::new();
        let var = |p: usize, h: usize| Var::new((p * holes + h) as u32);
        for _ in 0..pigeons * holes {
            b.new_var();
        }
        for p in 0..pigeons {
            b.set_partition(1 + (p % 3) as u32);
            b.add_clause((0..holes).map(|h| Lit::positive(var(p, h))));
        }
        b.set_partition(3);
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    b.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
                }
            }
        }
        assert!(
            compare(&b.into_cnf(), Some(2)),
            "pigeonhole is unsatisfiable"
        );
    }

    #[test]
    fn cut_out_of_range_is_reported() {
        let mut b = CnfBuilder::new();
        let a = b.new_lit();
        b.set_partition(1);
        b.add_unit(a);
        b.set_partition(2);
        b.add_unit(!a);
        let cnf = b.into_cnf();
        let proof = refute(&cnf).unwrap();
        let ctx = InterpolationContext::new(&proof).unwrap();
        let mut mgr = Aig::new();
        let err = ctx
            .interpolant(5, &mut mgr, &|_, _| aig::Lit::TRUE)
            .unwrap_err();
        assert!(matches!(err, ItpError::CutOutOfRange { cut: 5, .. }));
    }

    #[test]
    fn unpartitioned_clause_is_reported() {
        let mut solver = Solver::new();
        let a = Lit::positive(solver.new_var());
        solver.add_clause([a], 0);
        solver.add_clause([!a], 2);
        assert_eq!(solver.solve(), SolveResult::Unsat);
        let proof = solver.proof().unwrap();
        let err = InterpolationContext::new(&proof).unwrap_err();
        assert!(matches!(err, ItpError::UnpartitionedClause { .. }));
    }

    #[test]
    fn missing_refutation_is_reported() {
        let mut solver = Solver::new();
        let a = Lit::positive(solver.new_var());
        solver.add_clause([a], 1);
        assert_eq!(solver.solve(), SolveResult::Sat);
        // No proof is available at all for satisfiable formulas.
        assert!(solver.proof().is_none());
        // A hand-built proof without a final chain is rejected.
        let proof = Proof {
            clauses: vec![],
            empty_clause_chain: None,
        };
        assert!(matches!(
            InterpolationContext::new(&proof),
            Err(ItpError::MissingRefutation)
        ));
    }

    #[test]
    fn lit_helper_is_used() {
        // Keep the helper exercised even though most tests build literals
        // through CnfBuilder.
        assert!(lit(1, true).is_negative());
    }
}
