//! A CDCL SAT solver with resolution-proof logging, written for
//! interpolant extraction.
//!
//! Interpolation-based model checking needs more from its SAT solver than a
//! SAT/UNSAT answer: every refutation must come with a *resolution proof*
//! whose leaves are the original (partition-labelled) clauses, because Craig
//! interpolants and interpolation sequences are computed by annotating that
//! proof.  None of the existing pure-Rust solvers expose proofs in this
//! form, so the reproduction ships its own solver:
//!
//! * conflict-driven clause learning with first-UIP learning and
//!   recursive learned-clause minimization (proof-exact: the removals are
//!   recorded as real resolution steps),
//! * two-watched-literal propagation over a flat clause arena, with
//!   blocker literals and a binary-clause fast path so the hot loop
//!   rarely touches clause memory,
//! * LBD ("glue") tracking and periodic learned-clause database
//!   reduction with a compacting garbage collector — proof-aware:
//!   clauses referenced by recorded chains are pinned while proof
//!   logging is on ([`Solver::set_reduce_interval`]),
//! * VSIDS-style variable activities with a lazy heap,
//! * phase saving and Luby restarts,
//! * incremental assumptions with assumption-core extraction (used by the
//!   counterexample-based abstraction refinement),
//! * activation-literal clause retirement for the thousands of temporary
//!   `¬cube` clauses issued by IC3/PDR-style engines
//!   ([`IncrementalSolver`]), with periodic sweeps of the retired
//!   (root-satisfied) clauses,
//! * resolution chains recorded for every learned clause and for the final
//!   empty clause ([`Proof`]); logging is optional
//!   ([`Solver::set_proof_logging`]) and the incremental solver runs
//!   without it.
//!
//! # Example
//!
//! ```
//! use cnf::Lit;
//! use sat::{SolveResult, Solver};
//!
//! let mut solver = Solver::new();
//! let a = Lit::positive(solver.new_var());
//! let b = Lit::positive(solver.new_var());
//! solver.add_clause([a, b], 1);
//! solver.add_clause([!a, b], 1);
//! solver.add_clause([!b], 2);
//! assert_eq!(solver.solve(), SolveResult::Unsat);
//! let proof = solver.proof().expect("refutation proof");
//! assert!(!proof.clauses.is_empty());
//! ```

mod arena;
mod govern;
mod incremental;
mod luby;
mod proof;
mod solver;

pub use cnf::{Clause, Cnf, Lit, Var};
pub use govern::{FaultKind, FaultPlan, FaultSite, MemoryBudget};
pub use incremental::{ClauseGuard, IncrementalSolver};
pub use proof::{Chain, ClauseOrigin, Proof, ProofClause, ProofView, ViewClause, ViewOrigin};
pub use solver::{
    BulkLoad, ProgressProbe, SolveResult, Solver, SolverStats, DEFAULT_PROBE_INTERVAL,
    DEFAULT_REDUCE_FIRST,
};
