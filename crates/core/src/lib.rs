//! Unbounded model-checking engines from *Interpolation Sequences
//! Revisited* (Cabodi, Nocco, Quer — DATE 2011).
//!
//! This crate is the paper's primary contribution, rebuilt on top of the
//! substrates of the workspace (AIG circuits, partitioned CNF unrolling, a
//! proof-logging CDCL solver, Craig interpolation and BDDs):
//!
//! * [`engines::bmc`] — plain bounded model checking with the *bound-k*,
//!   *exact-k* and *exact-assume-k* formulations (Section II-A / III),
//! * [`engines::itp`] — McMillan-style standard interpolation
//!   (`ITPVERIF`, Fig. 1),
//! * [`engines::seq`] — the interpolation-sequence engines, one loop
//!   under three configurations: parallel interpolation sequences
//!   (`ITPSEQVERIF`, Fig. 2), serial interpolation sequences (`SITPSEQ`,
//!   Fig. 4, Definition 3) and serial interpolation sequences tightly
//!   integrated with counterexample-based abstraction (`ITPSEQCBAVERIF`,
//!   Fig. 5),
//! * [`engines::pdr`] — IC3/property-directed reachability, the
//!   post-2011 competitor every modern checker ships, included for
//!   head-to-head comparisons against the paper's engines,
//! * [`engines::portfolio`] — the racing portfolio ([`Engine::Portfolio`]):
//!   PDR, ITPSEQCBA and BMC run concurrently per property, the first
//!   conclusive verdict wins and the losers are cancelled through
//!   [`CancelToken`]s,
//! * [`multi`] — multi-property verification ([`Engine::verify_all`]):
//!   amortized multi-BMC and multi-PDR backends
//!   plus a COI-grouping property scheduler, with per-property statuses
//!   bit-identical in kind and counterexample depth to the per-property
//!   loop.
//!
//! All engines return an [`EngineResult`] carrying the verdict together
//! with the depth statistics `(k_fp, j_fp)` the paper's Table I reports
//! (for PDR, `k_fp` is the convergence level and `j_fp` the frame at
//! which the trace reached its fixpoint).
//!
//! [`Engine`] is the whole entry API: [`Engine::verify`] and
//! [`Engine::verify_with_cancel`] (which takes a [`CancelToken`]) for one
//! property, [`Engine::verify_all`] and [`Engine::verify_all_with_cancel`]
//! for every property of a design.  With [`Options::threads`] above 1,
//! PDR additionally parallelizes its per-frame propagation queries and
//! generalization candidates across worker threads without changing
//! verdict kinds or counterexample depths (see [`engines::pdr`] for the
//! precise determinism contract).
//!
//! # Example
//!
//! ```
//! use mc::{Engine, Options, Verdict};
//!
//! // A 3-bit saturating counter that can never reach 7 because it resets
//! // at 5: the property "counter != 7" holds.
//! let mut aig = aig::Aig::new();
//! let (ids, bits) = aig::builder::latch_word(&mut aig, 3, 0);
//! let at5 = aig::builder::word_equals_const(&mut aig, &bits, 5);
//! let inc = aig::builder::word_increment(&mut aig, &bits, aig::Lit::TRUE);
//! let zero = aig::builder::word_const(3, 0);
//! let next = aig::builder::word_mux(&mut aig, at5, &zero, &inc);
//! for (id, n) in ids.iter().zip(next.iter()) {
//!     aig.set_next(*id, *n);
//! }
//! let bad = aig::builder::word_equals_const(&mut aig, &bits, 7);
//! aig.add_bad(bad);
//!
//! let result = Engine::ItpSeq.verify(&aig, 0, &Options::default());
//! assert!(matches!(result.verdict, Verdict::Proved { .. }));
//! ```

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod abstraction;
pub mod certificate;
pub mod engines;
pub mod multi;
pub mod pipeline;
pub mod state;
mod types;

pub use certificate::{CertRecord, Certificate, InvariantCert, InvariantCone};
pub use engines::CancelToken;
pub use pipeline::{prepare, prepare_property, Prepared};
pub use sat::{FaultKind, FaultPlan, FaultSite, MemoryBudget};
pub use telemetry::Telemetry;
pub use types::{
    Engine, EngineResult, EngineStats, MultiResult, Options, PropertyStatus, StopReason, Verdict,
};
