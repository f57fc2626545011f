//! CNF layer: variables, literals, clauses, Tseitin encoding and
//! time-frame unrolling for bounded model checking.
//!
//! The model-checking engines of the reproduction talk to the SAT solver
//! exclusively through this crate:
//!
//! * [`Var`] / [`Lit`] / [`Clause`] — the propositional vocabulary,
//! * [`CnfBuilder`] — clause accumulation with *partition labels*, the
//!   bookkeeping required to extract interpolation sequences from one
//!   refutation proof (each clause remembers which `A_i` of
//!   `Γ = {A_1, …, A_n}` it belongs to),
//! * [`tseitin`] — encoding of combinational AIG cones,
//! * [`Unroller`] — time-frame expansion of a sequential AIG with
//!   per-frame variable maps and Tseitin caches that persist across
//!   bounds; [`incremental`] drains only the delta clauses as the
//!   unrolling grows,
//! * [`Shift`] — the variable relocation that splices a freshly encoded
//!   frame-0 constraint in front of cached clauses,
//! * [`bmc`] — the three BMC formulations of the paper (*bound-k*,
//!   *exact-k*, *exact-assume-k*),
//! * [`dimacs`] — DIMACS export for debugging and interoperability.
//!
//! # Example
//!
//! ```
//! use cnf::{CnfBuilder, Lit};
//!
//! let mut builder = CnfBuilder::new();
//! let a = builder.new_var();
//! let b = builder.new_var();
//! builder.add_clause([Lit::positive(a), Lit::positive(b)]);
//! builder.add_clause([!Lit::positive(a)]);
//! assert_eq!(builder.num_clauses(), 2);
//! ```

pub mod bmc;
pub mod dimacs;
pub mod incremental;
#[cfg(test)]
mod testutil;
pub mod tseitin;
mod types;
pub mod unroll;

pub use bmc::{BmcCheck, BmcInstance};
pub use types::{Clause, Cnf, CnfBuilder, Lit, Shift, Var};
pub use unroll::Unroller;
