//! The staged verification pipeline: parse → preprocess → solve →
//! reconstruct.
//!
//! [`prepare`] (all properties) and [`prepare_property`] (one property)
//! run the [`aig::passes`] preprocessing pipeline over a design and
//! return a [`Prepared`] model: the reduced design, the
//! [`aig::passes::Reconstruction`] mapping back to the original, and the
//! per-pass reduction statistics.  [`Prepared::verify`] /
//! [`Prepared::verify_all`] then run an engine **on the reduced model**
//! and translate everything that leaves the run back into
//! original-design coordinates:
//!
//! * counterexample input traces are lifted to the original input width
//!   ([`aig::passes::Reconstruction::lift_inputs`]; inputs proven
//!   irrelevant are driven to `false`),
//! * inductive-invariant certificates are re-indexed through the latch
//!   map, one unit clause is conjoined per stuck-at latch (the sweep's
//!   proof obligation: those latches hold their reset value in every
//!   reachable state, and the invariant's inductiveness on the original
//!   design depends on that fact), and combinational cone literals are
//!   renumbered into the original latch space,
//! * [`crate::EngineStats`] picks up the preprocessing wall-clock and
//!   the ands/latches/inputs-removed totals.
//!
//! Verdict kinds and counterexample depths are untouched: on every
//! reachable state the reduced model agrees with the original on all
//! bad-state literals cycle by cycle.  The `certify` trust path is
//! deliberately not involved — mapped-back certificates are validated by
//! the independent checker against the *raw* design, which is exactly
//! what makes aggressive preprocessing a zero-trust component.
//!
//! Telemetry: when enabled, the run carries a `preprocess` track with
//! one span per pass and a `reduction` counter sample reporting what the
//! pass removed.

use crate::certificate::{InvariantCert, InvariantCone};
use crate::engines::CancelToken;
use crate::{Engine, EngineResult, MultiResult, Options, PropertyStatus};
use aig::coi::Coi;
use aig::passes::{self, PipelineStats, Reconstruction};
use aig::Aig;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::ArgValue;

/// A design that went through the preprocessing pipeline, ready for the
/// solve stage, plus everything needed to reconstruct results.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The reduced design the engines run on.
    pub aig: Aig,
    /// The mapping from reduced coordinates back to the original design.
    pub recon: Reconstruction,
    /// Per-pass and aggregate reduction statistics.
    pub stats: PipelineStats,
    /// Wall-clock time the pass pipeline took.
    pub preprocess_time: Duration,
    /// Per-property sequential COIs in reduced coordinates, when the COI
    /// pass ran — reused by the multi-property scheduler instead of
    /// recomputing them.
    bad_cois: Option<Vec<Coi>>,
}

/// Runs the preprocessing pipeline over the whole design (all bad-state
/// properties kept, same indices) — the multi-property preparation.
pub fn prepare(aig: &Aig, options: &Options) -> Prepared {
    run_pipeline(aig, options)
}

/// Runs the preprocessing pipeline for one property: the design is first
/// narrowed to bad-state property `bad_index` (the reduced model's
/// property 0), so the cone-of-influence pass reduces with respect to
/// that property alone.
///
/// # Panics
///
/// Panics if `bad_index` is out of range.
pub fn prepare_property(aig: &Aig, bad_index: usize, options: &Options) -> Prepared {
    prepare_properties(aig, &[bad_index], options)
}

/// Runs the preprocessing pipeline for a group of properties: the design
/// is first narrowed to the bad-state properties `bad_indices` (the
/// reduced model's properties `0..bad_indices.len()`, in that order), so
/// the cone-of-influence pass keeps only the group's cones.
pub(crate) fn prepare_properties(aig: &Aig, bad_indices: &[usize], options: &Options) -> Prepared {
    let mut focused = aig.clone();
    focused.select_bads(bad_indices);
    run_pipeline(&focused, options)
}

fn run_pipeline(aig: &Aig, options: &Options) -> Prepared {
    let start = Instant::now();
    let telemetry = options.telemetry.scoped("preprocess");
    let outer = telemetry.span_args("preprocess", || {
        vec![
            ("ands", ArgValue::U64(aig.num_ands() as u64)),
            ("latches", ArgValue::U64(aig.num_latches() as u64)),
            ("inputs", ArgValue::U64(aig.num_inputs() as u64)),
        ]
    });
    let mut pipeline = passes::Pipeline::new(aig);
    for kind in options.preprocess.passes() {
        let span = telemetry.span(kind.name());
        let removed = pipeline.run_pass(kind);
        span.end();
        telemetry.counter("reduction", || {
            vec![
                ("pass", ArgValue::Str(kind.name().to_string())),
                ("ands_removed", ArgValue::U64(removed.ands_removed)),
                ("latches_removed", ArgValue::U64(removed.latches_removed)),
                ("inputs_removed", ArgValue::U64(removed.inputs_removed)),
            ]
        });
    }
    outer.end();
    let result = pipeline.finish();
    Prepared {
        aig: result.aig,
        recon: result.recon,
        stats: result.stats,
        preprocess_time: start.elapsed(),
        bad_cois: result.bad_cois,
    }
}

impl Prepared {
    /// Runs `engine` on reduced-model property `bad_index` (0 for a
    /// [`prepare_property`] model) and reconstructs the result back to
    /// original-design coordinates.
    pub fn verify(&self, engine: Engine, bad_index: usize, options: &Options) -> EngineResult {
        self.verify_with_cancel(engine, bad_index, options, &CancelToken::new())
    }

    /// [`verify`](Self::verify) under a cancellation token.
    pub fn verify_with_cancel(
        &self,
        engine: Engine,
        bad_index: usize,
        options: &Options,
        cancel: &CancelToken,
    ) -> EngineResult {
        let mut result = engine
            .dispatch(&self.aig, bad_index, options, cancel)
            .into();
        self.lift_multi(&mut result);
        result.into_single()
    }

    /// Runs `engine` over every property of the reduced model (see
    /// [`Engine::verify_all`]) and reconstructs statuses, traces and
    /// certificates back to original-design coordinates.
    ///
    /// When the cone-of-influence pass ran, every backend except
    /// multi-BMC decides each property group on the group's own narrowed
    /// model (see [`crate::multi`]).
    pub fn verify_all(&self, engine: Engine, options: &Options) -> MultiResult {
        self.verify_all_with_cancel(engine, options, &CancelToken::new())
    }

    /// [`verify_all`](Self::verify_all) under a cancellation token.
    pub fn verify_all_with_cancel(
        &self,
        engine: Engine,
        options: &Options,
        cancel: &CancelToken,
    ) -> MultiResult {
        let mut result = crate::multi::verify_all_inner(
            &self.aig,
            engine,
            options,
            cancel,
            self.bad_cois.as_deref(),
        );
        self.lift_multi(&mut result);
        result
    }

    /// Reconstructs a result on the reduced model: folds
    /// in the preprocessing accounting and lifts traces and certificates
    /// back to original-design coordinates.
    pub(crate) fn lift_multi(&self, result: &mut MultiResult) {
        self.absorb_stats(&mut result.stats);
        // A multi-PDR run shares one invariant certificate Arc across
        // every property it proves; lift each distinct certificate once
        // and keep the sharing.
        let mut lifted: HashMap<*const InvariantCert, Arc<InvariantCert>> = HashMap::new();
        for status in &mut result.statuses {
            match status {
                PropertyStatus::Proved {
                    cert: Some(cert), ..
                } => {
                    let mapped = lifted
                        .entry(Arc::as_ptr(cert))
                        .or_insert_with(|| Arc::new(self.lift_invariant(cert)))
                        .clone();
                    *cert = mapped;
                }
                PropertyStatus::Falsified { cex: Some(cex), .. } => {
                    *cex = self.recon.lift_inputs(cex);
                }
                _ => {}
            }
        }
    }

    /// Folds the preprocessing accounting into an engine's statistics.
    fn absorb_stats(&self, stats: &mut crate::EngineStats) {
        stats.preprocess_time += self.preprocess_time;
        stats.ands_removed += self.stats.ands_removed();
        stats.latches_removed += self.stats.latches_removed();
        stats.inputs_removed += self.stats.inputs_removed();
    }

    /// Translates an inductive invariant over the reduced latches into
    /// one over the original latches:
    ///
    /// * clause literals re-index through the latch map,
    /// * one unit clause per stuck-at latch pins it to its reset value —
    ///   without these the mapped invariant need not be inductive on the
    ///   original design (the reduced next-state functions were folded
    ///   *under* the stuck assumptions),
    /// * cone literals renumber: var 0 (the constant) stays, latch vars
    ///   map through the latch map, internal AND vars shift into the
    ///   original latch space.
    ///
    /// Latches outside the properties' cone of influence stay
    /// unconstrained: the invariant never mentions them, and none of the
    /// three checker queries needs them bounded.
    fn lift_invariant(&self, inv: &InvariantCert) -> InvariantCert {
        let recon = &self.recon;
        if recon.is_identity() {
            return inv.clone();
        }
        let n_reduced = inv.num_latches;
        debug_assert_eq!(n_reduced, recon.latch_map.len());
        let mut clauses: Vec<Vec<(usize, bool)>> = inv
            .clauses
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|&(latch, phase)| (recon.latch_map[latch], phase))
                    .collect()
            })
            .collect();
        for &(latch, value) in &recon.stuck {
            clauses.push(vec![(latch, value)]);
        }
        let lift_lit = |lit: u32| -> u32 {
            let var = (lit >> 1) as usize;
            let mapped = if var == 0 {
                0
            } else if var <= n_reduced {
                recon.latch_map[var - 1] + 1
            } else {
                var - n_reduced + recon.orig_latches
            };
            (mapped as u32) << 1 | (lit & 1)
        };
        let cone = inv.cone.as_ref().map(|cone| InvariantCone {
            ands: cone
                .ands
                .iter()
                .map(|&(l, r)| (lift_lit(l), lift_lit(r)))
                .collect(),
            root: lift_lit(cone.root),
        });
        InvariantCert {
            num_latches: recon.orig_latches,
            clauses,
            cone,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Certificate, Verdict};
    use aig::Lit;

    /// chain A proves/falsifies the property; a stuck latch and an
    /// out-of-COI chain pad the design.
    fn padded_design(failing: bool) -> Aig {
        let mut aig = Aig::new();
        // a 2-bit counter wrapping at 2: values 0,1,2,0,...
        let (ids, bits) = aig::builder::latch_word(&mut aig, 2, 0);
        let wrap = aig::builder::word_equals_const(&mut aig, &bits, 2);
        let inc = aig::builder::word_increment(&mut aig, &bits, Lit::TRUE);
        let zero = aig::builder::word_const(2, 0);
        let next = aig::builder::word_mux(&mut aig, wrap, &zero, &inc);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        // stuck latch (next = const = init) read by the property.
        let s = aig.add_latch(false);
        aig.set_next(s, Lit::FALSE);
        let slit = aig.latch_lit(s);
        // an out-of-COI latch chain fed by its own input.
        let free = aig.add_latch(false);
        let i = Lit::positive(aig.add_input());
        aig.set_next(free, i);
        // bad: counter == 2 (failing, depth 2) or counter == 3 (never).
        let target = if failing { 2 } else { 3 };
        let hit = aig::builder::word_equals_const(&mut aig, &bits, target);
        let bad = aig.or(hit, slit);
        aig.add_bad(bad);
        aig
    }

    #[test]
    fn prepare_property_reduces_and_engine_agrees() {
        let aig = padded_design(false);
        let options = Options::default();
        let prepared = prepare_property(&aig, 0, &options);
        assert_eq!(prepared.aig.num_latches(), 2, "counter bits only");
        assert_eq!(prepared.aig.num_inputs(), 0);
        assert_eq!(prepared.recon.stuck, vec![(2, false)]);
        let result = prepared.verify(Engine::Pdr, 0, &options);
        assert!(result.verdict.is_proved());
        assert_eq!(result.stats.latches_removed, 2);
        assert_eq!(result.stats.inputs_removed, 1);
        assert!(result.stats.ands_removed > 0);
    }

    #[test]
    fn lifted_invariant_certifies_original_design() {
        let aig = padded_design(false);
        let options = Options::default();
        let result = Engine::Pdr.verify(&aig, 0, &options);
        assert!(result.verdict.is_proved());
        let Some(Certificate::Invariant(inv)) = &result.certificate else {
            panic!("expected a lifted invariant certificate");
        };
        // The lifted certificate talks about the original design.
        assert_eq!(inv.num_latches, aig.num_latches());
        // It contains the stuck-at unit clause for latch 2.
        assert!(inv.clauses.contains(&vec![(2, false)]));
        // Initiation on the original design's reset state.
        let init: Vec<bool> = (0..aig.num_latches()).map(|l| aig.init(l)).collect();
        assert!(inv.eval(&init));
        // Safety: a state about to be counted as bad (counter == 3)
        // must be excluded.
        assert!(!inv.eval(&[true, true, false, false]));
    }

    #[test]
    fn lifted_trace_replays_on_original_design() {
        let aig = padded_design(true);
        let options = Options::default();
        let result = Engine::Bmc.verify(&aig, 0, &options);
        let Verdict::Falsified { depth } = result.verdict else {
            panic!("expected falsification");
        };
        assert_eq!(depth, 2);
        let Some(Certificate::Trace(frames)) = &result.certificate else {
            panic!("expected a lifted trace");
        };
        assert_eq!(frames.len(), depth + 1);
        for frame in frames {
            assert_eq!(frame.len(), aig.num_inputs(), "original input width");
        }
        let trace = aig::simulate(&aig, frames);
        assert_eq!(trace.first_failure(), Some(depth));
    }

    #[test]
    fn verify_all_reconstructs_shared_certificates() {
        let mut aig = padded_design(false);
        // A second holding property over the same counter.
        let bits: Vec<Lit> = (0..2).map(|l| aig.latch_lit(l)).collect();
        let hit = aig::builder::word_equals_const(&mut aig, &bits, 3);
        aig.add_bad(hit);
        let options = Options::default();
        let result = Engine::Pdr.verify_all(&aig, &options);
        assert!(result.statuses.iter().all(|s| s.is_proved()));
        let certs: Vec<&Arc<InvariantCert>> = result
            .statuses
            .iter()
            .filter_map(|s| match s {
                PropertyStatus::Proved { cert, .. } => cert.as_ref(),
                _ => None,
            })
            .collect();
        assert_eq!(certs.len(), 2);
        for cert in &certs {
            assert_eq!(cert.num_latches, aig.num_latches());
        }
        // The multi-PDR shared certificate stays shared after lifting.
        if Arc::ptr_eq(certs[0], certs[1]) {
            assert_eq!(certs[0].num_latches, aig.num_latches());
        }
        assert!(result.stats.latches_removed > 0);
    }

    #[test]
    fn preprocessing_off_produces_identical_kinds_and_depths() {
        for failing in [false, true] {
            let aig = padded_design(failing);
            let on = Options::default();
            let off = Options::default().with_preprocess(aig::passes::PassConfig::off());
            for engine in Engine::ALL {
                let a = engine.verify(&aig, 0, &on);
                let b = engine.verify(&aig, 0, &off);
                assert_eq!(
                    std::mem::discriminant(&a.verdict),
                    std::mem::discriminant(&b.verdict),
                    "{engine} kind (failing={failing})"
                );
                if let (Verdict::Falsified { depth: da }, Verdict::Falsified { depth: db }) =
                    (&a.verdict, &b.verdict)
                {
                    assert_eq!(da, db, "{engine} depth");
                }
                assert_eq!(b.stats.latches_removed, 0, "off-run reports no reduction");
            }
        }
    }

    #[test]
    fn cone_certificates_lift_into_original_latch_space() {
        let aig = padded_design(false);
        let options = Options::default();
        let result = Engine::ItpSeq.verify(&aig, 0, &options);
        assert!(result.verdict.is_proved());
        let Some(Certificate::Invariant(inv)) = &result.certificate else {
            panic!("expected an invariant certificate");
        };
        assert_eq!(inv.num_latches, aig.num_latches());
        if let Some(cone) = &inv.cone {
            let max_var = aig.num_latches() as u32 + cone.ands.len() as u32;
            let check = |lit: u32| assert!(lit >> 1 <= max_var, "cone literal in range");
            check(cone.root);
            for &(l, r) in &cone.ands {
                check(l);
                check(r);
            }
        }
        let init: Vec<bool> = (0..aig.num_latches()).map(|l| aig.init(l)).collect();
        assert!(inv.eval(&init));
    }
}
