//! Craig interpolation from resolution proofs.
//!
//! Given a refutation proof of an unsatisfiable, partition-labelled CNF
//! formula `Γ = {A_1, …, A_n}` (produced by the [`sat`] crate), this crate
//! computes:
//!
//! * single **Craig interpolants** `ITP(A, B)` for a two-way split of the
//!   partitions (McMillan's labelled interpolation system), and
//! * complete **interpolation sequences** `(I_0, I_1, …, I_n)` where every
//!   `I_j = ITP(A_1 ∧ … ∧ A_j, A_{j+1} ∧ … ∧ A_n)` is extracted from the
//!   *same* proof, exactly as Definition 2 of *Interpolation Sequences
//!   Revisited* prescribes.
//!
//! The proof is read through a [`sat::ProofView`]: in place from the
//! solver that refuted the formula, or from an exported [`sat::Proof`].
//!
//! Interpolants are constructed as AND/OR circuits inside a caller-provided
//! [`aig::Aig`] manager, with a caller-provided mapping from shared SAT
//! variables to AIG literals.  The model-checking engines use a manager
//! whose primary inputs stand for the design latches, so that interpolants
//! are immediately usable as symbolic state sets.
//!
//! # Example
//!
//! ```
//! use cnf::Lit;
//! use sat::{SolveResult, Solver};
//! use itp::InterpolationContext;
//!
//! // A = {a}, B = {¬a}: the interpolant must be `a` itself.
//! let mut solver = Solver::new();
//! let a = Lit::positive(solver.new_var());
//! solver.add_clause([a], 1);
//! solver.add_clause([!a], 2);
//! assert_eq!(solver.solve(), SolveResult::Unsat);
//! // Interpolate straight from the solver's proof, without copying it.
//! let ctx = InterpolationContext::new(solver.proof_view().expect("refutation"))?;
//! let mut mgr = aig::Aig::new();
//! let leaf = aig::Lit::positive(mgr.add_input());
//! let itp = ctx.interpolant(1, &mut mgr, &|_, _| leaf)?;
//! assert_eq!(itp, leaf);
//! # Ok::<(), itp::ItpError>(())
//! ```

mod context;
mod error;

pub use context::InterpolationContext;
pub use error::ItpError;
