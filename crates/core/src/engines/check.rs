//! One proof-logging bounded check of the interpolation engines.
//!
//! A check is assembled from cached encodings instead of being rebuilt:
//! a freshly encoded frame-0 constraint, then clauses of a cached
//! unrolling relocated behind it (see [`cnf::Shift`]).  [`solve`] loads
//! those slices into a fresh governed solver in one bulk pass, through a
//! single reusable relocation buffer, and returns the solver so the
//! caller interpolates straight from its proof
//! ([`sat::Solver::proof_view`]).

use crate::engines::{EngineProbe, RunBudget};
use crate::EngineStats;
use cnf::{Clause, Shift};
use sat::{SolveResult, Solver};
use telemetry::{ArgValue, Telemetry};

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

    /// The clauses in load order, each relocated, paired with its
    /// partition.  `buffer` holds a relocated clause until the next one.
    fn for_each_clause(&self, mut add: impl FnMut(&[cnf::Lit], u32)) {
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

/// Loads `check` into a fresh proof-logging solver governed by `budget`
/// (inside a `load` span) and solves it (inside a `sat` span).  The check
/// counts in `stats` as one SAT call with its clauses encoded and its
/// solver work.  The solver is returned for its model or its proof.
pub(crate) fn solve(
    check: &Check<'_>,
    stats: &mut EngineStats,
    budget: &RunBudget,
    reduce: Option<u64>,
    probe: &EngineProbe,
    telemetry: &Telemetry,
) -> (SolveResult, Solver) {
    let clauses = check.num_clauses() as u64;
    let load = telemetry.span_args("load", || vec![("clauses", ArgValue::U64(clauses))]);
    let mut solver = Solver::new();
    solver.set_reduce_interval(reduce);
    budget.govern(&mut solver);
    solver.set_progress_probe(probe.probe());
    let lits = check
        .prefix
        .iter()
        .chain(check.body)
        .chain(check.tail)
        .map(Clause::len)
        .sum();
    let mut loader = solver.bulk_load(check.num_vars, check.num_clauses(), lits);
    check.for_each_clause(|lits, partition| loader.add_clause(lits, partition));
    drop(loader);
    load.end();
    stats.sat_calls += 1;
    stats.clauses_encoded += clauses;
    let query = telemetry.span_args("sat", || vec![("clauses", ArgValue::U64(clauses))]);
    let result = solver.solve();
    query.end();
    stats.add_solver_delta(solver.stats());
    (result, solver)
}
