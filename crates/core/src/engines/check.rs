//! One bounded check, as a fresh solver loads it, and the interpolants
//! read off its refutation.
//!
//! A check of the interpolation engines is assembled from cached
//! encodings instead of being rebuilt: a freshly encoded frame-0
//! constraint, then clauses of a cached unrolling relocated behind it
//! (see [`cnf::Shift`]).
//! [`EngineRun::solve_check`](crate::engines::run::EngineRun::solve_check)
//! loads those slices into a fresh governed solver in one bulk pass,
//! through a single reusable relocation buffer, and returns the solver so
//! the caller interpolates straight from its proof
//! ([`sat::Solver::proof_view`]) with [`interpolants`].

use crate::state::StateSpace;
use crate::EngineStats;
use cnf::{Clause, Shift};
use itp::InterpolationContext;
use sat::ProofView;

/// The interpolants at the partition cuts `cuts` of a refutation, read
/// in place: the engines' one interpolant reader.  Every variable shared
/// across a cut is a latch variable of the refuted check: `frame_latches`
/// lists them frame by frame, numbered like the check, and `latch_map`
/// takes a latch of the checked model to its latch of `space`.  Each
/// interpolant counts in `stats.interpolants`.
pub(crate) fn interpolants(
    proof: ProofView<'_>,
    cuts: &[u32],
    frame_latches: &[Vec<cnf::Lit>],
    latch_map: &[usize],
    space: &mut StateSpace,
    stats: &mut EngineStats,
) -> Result<Vec<aig::Lit>, String> {
    // `latch_of[v]` is the space literal of check variable `v`, for the
    // frame latch variables.
    let len = frame_latches
        .iter()
        .flatten()
        .map(|lit| lit.var().index() as usize + 1)
        .max()
        .unwrap_or(0);
    let mut latch_of = vec![None; len];
    for lits in frame_latches {
        for (model_latch, lit) in lits.iter().enumerate() {
            latch_of[lit.var().index() as usize] = Some(space.latch(latch_map[model_latch]));
        }
    }
    let ctx = InterpolationContext::new(proof).map_err(|e| e.to_string())?;
    let itps = ctx
        .sequence_for_cuts(cuts, space.manager_mut(), &|_, v| {
            latch_of
                .get(v.index() as usize)
                .copied()
                .flatten()
                .expect("shared interpolant variables are frame latch variables")
        })
        .map_err(|e| e.to_string())?;
    stats.interpolants += itps.len() as u64;
    Ok(itps)
}

/// A bounded check as it is loaded: `prefix` as it stands, then `body`
/// and `tail` relocated by `shift`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Check<'a> {
    /// The frame-0 constraint (reset units, or an encoded state set).
    pub prefix: &'a [Clause],
    /// Cached clauses of the unrolling.
    pub body: &'a [Clause],
    /// The clauses the check appends to the cached ones (its target).
    pub tail: &'a [Clause],
    /// The relocation of `body` and `tail` behind `prefix`.
    pub shift: Shift,
    /// Variables of the whole check.
    pub num_vars: u32,
}

impl<'a> Check<'a> {
    /// The check that opens with the frame-0 constraint `constraint`,
    /// whose fresh variables follow the `num_latches` frame-0 latch
    /// variables, followed by cached clauses (`body`, then `tail`) that
    /// were encoded with nothing between those latch variables and their
    /// own: they move up by the constraint's fresh variables, and the
    /// check has `cached_vars` plus those variables.
    pub fn after(
        constraint: &'a cnf::Cnf,
        num_latches: usize,
        body: &'a [Clause],
        tail: &'a [Clause],
        cached_vars: u32,
    ) -> Check<'a> {
        let pivot = num_latches as u32;
        let shift = Shift {
            pivot,
            by: constraint.num_vars.saturating_sub(pivot),
        };
        Check {
            prefix: &constraint.clauses,
            body,
            tail,
            shift,
            num_vars: cached_vars + shift.by,
        }
    }

    /// A whole formula as a check, in its own numbering.
    pub fn of(cnf: &'a cnf::Cnf) -> Check<'a> {
        Check {
            prefix: &cnf.clauses,
            body: &[],
            tail: &[],
            shift: Shift::default(),
            num_vars: cnf.num_vars,
        }
    }

    /// The clauses in load order, before relocation.
    pub fn clauses(&self) -> impl Iterator<Item = &'a Clause> {
        self.prefix.iter().chain(self.body).chain(self.tail)
    }

    /// The clauses in load order, each relocated, paired with its
    /// partition.  `buffer` holds a relocated clause until the next one.
    pub fn for_each_clause(&self, mut add: impl FnMut(&[cnf::Lit], u32)) {
        for clause in self.prefix {
            add(&clause.lits, clause.partition);
        }
        let mut buffer = Vec::new();
        for clause in self.body.iter().chain(self.tail) {
            if self.shift.by == 0 {
                add(&clause.lits, clause.partition);
            } else {
                buffer.clear();
                buffer.extend(clause.lits.iter().map(|&lit| self.shift.lit(lit)));
                add(&buffer, clause.partition);
            }
        }
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.prefix.len() + self.body.len() + self.tail.len()
    }

    /// The check as one owned formula: what a scratch build produces, and
    /// what the tests compare against it.
    #[cfg(test)]
    pub fn to_cnf(self) -> cnf::Cnf {
        let mut clauses = Vec::with_capacity(self.num_clauses());
        self.for_each_clause(|lits, partition| clauses.push(Clause::new(lits.to_vec(), partition)));
        cnf::Cnf {
            num_vars: self.num_vars,
            clauses,
        }
    }
}
