//! Standard interpolation-based model checking (`ITPVERIF`, Fig. 1).
//!
//! McMillan's original scheme: at bound `k`, the formula is split into
//! `A = S0 ∧ T(V^0, V^1)` and `B = T^{k-1} ∧ ⋁_{i=1..k} ¬p(V^i)` (a
//! *bound-k* target).  Each refutation yields an interpolant that
//! over-approximates the image of the current frontier; the frontier is
//! substituted for `S0` and the process repeats until either a fixed point
//! proves the property or a satisfiable instance forces the bound to grow.

use crate::certificate::{Certificate, InvariantCert, InvariantCone};
use crate::engines::{CancelToken, EngineProbe, RunBudget};
use crate::state::{encode_state_lit, StateSpace};
use crate::{EngineResult, EngineStats, Options, Verdict};
use aig::Aig;
use cnf::Unroller;
use itp::InterpolationContext;
use sat::{Proof, SolveResult, Solver};
use std::collections::HashMap;
use std::time::Instant;
use telemetry::{ArgValue, Telemetry};

struct BoundInstance {
    cnf: cnf::Cnf,
    frame1_latches: Vec<cnf::Lit>,
    /// Frame-by-frame primary-input variables (cycles `0..=bound`), so a
    /// satisfiable instance from the real initial states can be read back
    /// as a replayable counterexample trace.
    frame_inputs: Vec<Vec<cnf::Lit>>,
}

/// Builds the bound-k instance with `A` in partition 1 and `B` in
/// partition 2.  `init` selects between the reset states and an arbitrary
/// frontier state set.
fn build_bound_instance(
    design: &Aig,
    bad_index: usize,
    bound: usize,
    init: Option<(&StateSpace, aig::Lit)>,
    identity: &[usize],
) -> BoundInstance {
    let mut unroller = Unroller::new(design);
    unroller.builder_mut().set_partition(1);
    match init {
        None => unroller.assert_initial(0),
        Some((space, set)) => {
            let lit = encode_state_lit(&mut unroller, 0, space, set, identity);
            unroller.assert_lit(lit);
        }
    }
    unroller.add_frame();
    unroller.builder_mut().set_partition(2);
    for _ in 2..=bound {
        unroller.add_frame();
    }
    let bads: Vec<cnf::Lit> = (1..=bound)
        .map(|f| unroller.bad_lit(f, bad_index))
        .collect();
    unroller.builder_mut().add_clause(bads);
    let frame1_latches = unroller.latch_lits(1);
    // Input variables are clause-free, so pinning them down after the
    // instance is built never changes its satisfiability or its proofs.
    let frame_inputs = (0..=bound)
        .map(|f| {
            (0..design.num_inputs())
                .map(|i| unroller.input_lit(f, i))
                .collect()
        })
        .collect();
    BoundInstance {
        cnf: unroller.into_cnf(),
        frame1_latches,
        frame_inputs,
    }
}

fn solve(
    cnf: &cnf::Cnf,
    stats: &mut EngineStats,
    budget: &RunBudget,
    reduce: Option<u64>,
    probe: &EngineProbe,
    telemetry: &Telemetry,
) -> (SolveResult, Option<Proof>, Solver) {
    let mut solver = Solver::new();
    solver.set_reduce_interval(reduce);
    budget.govern(&mut solver);
    solver.set_progress_probe(probe.probe());
    solver.add_cnf(cnf);
    stats.sat_calls += 1;
    stats.clauses_encoded += cnf.clauses.len() as u64;
    let query = telemetry.span_args("sat", || {
        vec![("clauses", ArgValue::U64(cnf.clauses.len() as u64))]
    });
    let result = solver.solve();
    query.end();
    stats.add_solver_delta(solver.stats());
    let proof = if result == SolveResult::Unsat {
        solver.proof()
    } else {
        None
    };
    (result, proof, solver)
}

/// Reads the counterexample input trace off a satisfiable bound instance.
fn extract_trace(instance: &BoundInstance, solver: &Solver) -> Vec<Vec<bool>> {
    instance
        .frame_inputs
        .iter()
        .map(|frame| {
            frame
                .iter()
                .map(|&lit| solver.lit_value(lit).unwrap_or(false))
                .collect()
        })
        .collect()
}

fn extract_interpolant(
    proof: &Proof,
    instance: &BoundInstance,
    space: &mut StateSpace,
    stats: &mut EngineStats,
) -> Result<aig::Lit, String> {
    let mut var_to_latch: HashMap<u32, usize> = HashMap::new();
    for (latch, lit) in instance.frame1_latches.iter().enumerate() {
        var_to_latch.insert(lit.var().index(), latch);
    }
    let latch_lits: Vec<aig::Lit> = (0..space.num_latches()).map(|i| space.latch(i)).collect();
    let ctx = InterpolationContext::new(proof).map_err(|e| e.to_string())?;
    let itp = ctx
        .interpolant(1, space.manager_mut(), &|_, v| {
            let latch = *var_to_latch
                .get(&v.index())
                .expect("shared interpolant variables are frame-1 latch variables");
            latch_lits[latch]
        })
        .map_err(|e| e.to_string())?;
    stats.interpolants += 1;
    Ok(itp)
}

/// Runs standard interpolation on bad-state property `bad_index`.
pub fn verify(design: &Aig, bad_index: usize, options: &Options) -> EngineResult {
    verify_with_cancel(design, bad_index, options, &CancelToken::new())
}

/// [`verify`] under a cancellation token: the bound loop, the inner
/// fixed-point iteration and each refutation stop soon after the token is
/// cancelled.
pub fn verify_with_cancel(
    design: &Aig,
    bad_index: usize,
    options: &Options,
    cancel: &CancelToken,
) -> EngineResult {
    let start = Instant::now();
    let budget = RunBudget::arm(cancel, start, options);
    let telemetry = &options.telemetry;
    let _run = telemetry.span_args("ITP.run", || {
        vec![("latches", ArgValue::U64(design.num_latches() as u64))]
    });
    let mut stats = EngineStats {
        visible_latches: design.num_latches(),
        ..EngineStats::default()
    };
    let finish = |mut stats: EngineStats,
                  verdict: Verdict,
                  certificate: Option<Certificate>,
                  start: Instant| {
        telemetry.instant_args("verdict", || {
            vec![("verdict", ArgValue::Str(verdict.to_string()))]
        });
        stats.time = start.elapsed();
        EngineResult {
            verdict,
            stats,
            certificate,
        }
    };
    if let Some((verdict, cert)) =
        crate::engines::bmc::depth0_verdict(design, bad_index, &budget, &mut stats, options)
    {
        return finish(stats, verdict, cert, start);
    }

    let probe = EngineProbe::new(telemetry, options.probe_interval);
    let mut space = StateSpace::new(design.num_latches(), &budget, options);
    let s0 = space.initial_states(design);
    let identity: Vec<usize> = (0..design.num_latches()).collect();

    for k in 1..=options.max_bound {
        if let Some(reason) = budget.stop_reason() {
            return finish(
                stats,
                Verdict::Inconclusive {
                    reason,
                    bound_reached: k - 1,
                },
                None,
                start,
            );
        }
        let _bound = telemetry.span_args("bound", || vec![("k", ArgValue::U64(k as u64))]);
        probe.set_bound(k);
        // Initial check from the real initial states.
        let encode_start = Instant::now();
        let instance = build_bound_instance(design, bad_index, k, None, &identity);
        stats.encode_time += encode_start.elapsed();
        let (result, proof, solver) = solve(
            &instance.cnf,
            &mut stats,
            &budget,
            options.reduce_interval(),
            &probe,
            telemetry,
        );
        if result == SolveResult::Sat {
            // bound-(k-1) was unsatisfiable, so the counterexample has
            // length exactly k.
            let cert = options
                .certificates
                .then(|| Certificate::Trace(extract_trace(&instance, &solver)));
            return finish(stats, Verdict::Falsified { depth: k }, cert, start);
        }
        drop(solver);
        if result == SolveResult::Interrupted {
            return finish(
                stats,
                Verdict::Inconclusive {
                    reason: budget.interrupt_reason(),
                    bound_reached: k - 1,
                },
                None,
                start,
            );
        }
        let mut proof = proof.expect("unsat result has a proof");
        let mut instance = instance;
        let mut reached = s0;
        let mut j = 0usize;
        loop {
            j += 1;
            let interpolate = telemetry.span_args("interpolate", || {
                vec![
                    ("k", ArgValue::U64(k as u64)),
                    ("j", ArgValue::U64(j as u64)),
                ]
            });
            let extracted = extract_interpolant(&proof, &instance, &mut space, &mut stats);
            interpolate.end();
            let itp = match extracted {
                Ok(itp) => itp,
                Err(reason) => {
                    return finish(
                        stats,
                        Verdict::Inconclusive {
                            reason: crate::types::StopReason::other(reason),
                            bound_reached: k,
                        },
                        None,
                        start,
                    );
                }
            };
            let Ok(fixpoint) = space.implies(itp, reached, &mut stats) else {
                return finish(
                    stats,
                    Verdict::Inconclusive {
                        reason: budget.interrupt_reason(),
                        bound_reached: k,
                    },
                    None,
                    start,
                );
            };
            if fixpoint {
                // `reached = S0 ∨ itp_1 ∨ …` is closed under the transition
                // relation at this point: it contains the initial states,
                // every disjunct excludes the bad states (each interpolant's
                // B side includes the frame-1 target), and the new image
                // over-approximation folds back into it — an inductive
                // invariant, exported as a cone over the latches.
                let cert = options.certificates.then(|| {
                    let _emit = telemetry.span("certificate.emit");
                    Certificate::Invariant(InvariantCert {
                        num_latches: design.num_latches(),
                        clauses: Vec::new(),
                        cone: Some(InvariantCone::from_cone(
                            space.manager(),
                            reached,
                            design.num_latches(),
                            &identity,
                        )),
                    })
                });
                return finish(stats, Verdict::Proved { k_fp: k, j_fp: j }, cert, start);
            }
            reached = space.or(reached, itp);
            if let Some(reason) = budget.stop_reason() {
                return finish(
                    stats,
                    Verdict::Inconclusive {
                        reason,
                        bound_reached: k,
                    },
                    None,
                    start,
                );
            }
            let encode_start = Instant::now();
            instance = build_bound_instance(design, bad_index, k, Some((&space, itp)), &identity);
            stats.encode_time += encode_start.elapsed();
            let (result, next_proof, _) = solve(
                &instance.cnf,
                &mut stats,
                &budget,
                options.reduce_interval(),
                &probe,
                telemetry,
            );
            if result == SolveResult::Sat {
                // Spurious hit from the over-approximated frontier: deepen.
                break;
            }
            if result == SolveResult::Interrupted {
                return finish(
                    stats,
                    Verdict::Inconclusive {
                        reason: budget.interrupt_reason(),
                        bound_reached: k,
                    },
                    None,
                    start,
                );
            }
            proof = next_proof.expect("unsat result has a proof");
        }
    }

    finish(
        stats,
        Verdict::Inconclusive {
            reason: crate::types::StopReason::BoundExhausted,
            bound_reached: options.max_bound,
        },
        None,
        start,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Options;
    use aig::builder::{latch_word, word_equals_const, word_increment, word_mux};

    fn modular_counter(width: usize, modulus: u64, bad_at: u64) -> Aig {
        let mut aig = Aig::new();
        let (ids, bits) = latch_word(&mut aig, width, 0);
        let wrap = word_equals_const(&mut aig, &bits, modulus - 1);
        let inc = word_increment(&mut aig, &bits, aig::Lit::TRUE);
        let zero = aig::builder::word_const(width, 0);
        let next = word_mux(&mut aig, wrap, &zero, &inc);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let bad = word_equals_const(&mut aig, &bits, bad_at);
        aig.add_bad(bad);
        aig
    }

    #[test]
    fn proves_unreachable_counter_value() {
        // Counter counts 0..5 and wraps; value 7 is unreachable.
        let aig = modular_counter(3, 6, 7);
        let result = verify(&aig, 0, &Options::default());
        assert!(result.verdict.is_proved(), "verdict: {}", result.verdict);
        assert!(result.stats.interpolants > 0);
    }

    #[test]
    fn falsifies_reachable_counter_value() {
        let aig = modular_counter(3, 6, 4);
        let result = verify(&aig, 0, &Options::default());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 4 });
    }

    #[test]
    fn verdicts_match_exact_bdd_reachability() {
        for bad_at in 1..8u64 {
            let aig = modular_counter(3, 6, bad_at);
            let exact = bdd::reach::analyze(&aig, 0, 1_000_000);
            let got = verify(&aig, 0, &Options::default());
            match exact.verdict {
                bdd::BddVerdict::Pass => {
                    assert!(got.verdict.is_proved(), "bad_at={bad_at}: {}", got.verdict)
                }
                bdd::BddVerdict::Fail { depth } => {
                    assert_eq!(got.verdict, Verdict::Falsified { depth }, "bad_at={bad_at}")
                }
                bdd::BddVerdict::Overflow => unreachable!("tiny design cannot overflow"),
            }
        }
    }

    #[test]
    fn timeout_is_reported() {
        let aig = modular_counter(4, 12, 15);
        let options = Options::default().with_timeout(std::time::Duration::ZERO);
        let result = verify(&aig, 0, &options);
        assert!(matches!(result.verdict, Verdict::Inconclusive { .. }));
    }
}
