//! And-Inverter Graph (AIG) representation of sequential circuits.
//!
//! This crate is the model substrate of the *Interpolation Sequences
//! Revisited* reproduction.  Sequential designs are stored as AIGs, the
//! de-facto standard representation used by hardware model checkers:
//!
//! * every combinational function is built from two-input AND nodes and
//!   edge inverters ([`Lit`] carries the complement bit),
//! * state is held in latches with a declared next-state function and a
//!   reset value,
//! * safety properties are expressed as *bad-state* literals (the property
//!   `p` holds iff the bad literal evaluates to false in every reachable
//!   state).
//!
//! The crate provides:
//!
//! * [`Aig`] — the graph itself, with structural hashing and constant
//!   folding on construction,
//! * [`builder`] — word-level helpers (adders, comparators, multiplexers,
//!   one-hot encoders) used by the synthetic workload generators,
//! * ASCII AIGER (`.aag`) [`reader`] and [`writer`],
//! * [`simulate()`] — cycle-accurate replay, one lane of the
//!   bit-parallel [`WordSim`] (64 patterns per machine word),
//! * [`coi`] — sequential cone-of-influence extraction used by the
//!   localization abstraction of the CBA engine,
//! * [`passes`] — the preprocessing pass pipeline (structural hashing,
//!   constant sweeping, stuck-at latch removal, dead-logic and COI
//!   reduction) with per-pass statistics and a [`passes::Reconstruction`]
//!   mapping back to the original design.
//!
//! # Example
//!
//! ```
//! use aig::{Aig, Lit};
//!
//! // A 2-bit counter that asserts it never reaches the value 3.
//! let mut aig = Aig::new();
//! let b0 = aig.add_latch(false);
//! let b1 = aig.add_latch(false);
//! let l0 = aig.latch_lit(b0);
//! let l1 = aig.latch_lit(b1);
//! let n0 = !l0;                       // bit0 toggles every cycle
//! let carry = l0;
//! let n1 = aig.xor(l1, carry);        // bit1 toggles when bit0 carries
//! aig.set_next(b0, n0);
//! aig.set_next(b1, n1);
//! let bad = aig.and(l0, l1);          // "counter == 3"
//! aig.add_bad(bad);
//! assert_eq!(aig.num_latches(), 2);
//! ```

pub mod builder;
pub mod coi;
mod graph;
mod literal;
pub mod passes;
pub mod reader;
pub mod simulate;
pub mod writer;

pub use graph::{Aig, AigNode, LatchId, NodeId, VarKind};
pub use literal::Lit;
pub use reader::{parse_aag, ParseAagError};
pub use simulate::{simulate, SimTrace, WordSim};
pub use writer::to_aag;
