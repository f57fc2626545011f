//! Standard interpolation-based model checking (`ITPVERIF`, Fig. 1).
//!
//! McMillan's original scheme: at bound `k`, the formula is split into
//! `A = S0 ∧ T(V^0, V^1)` and `B = T^{k-1} ∧ ⋁_{i=1..k} ¬p(V^i)` (a
//! *bound-k* target).  Each refutation yields an interpolant that
//! over-approximates the image of the current frontier; the frontier is
//! substituted for `S0` and the process repeats until either a fixed point
//! proves the property or a satisfiable instance forces the bound to grow.

use crate::certificate::{Certificate, InvariantCert, InvariantCone};
use crate::engines::check::{interpolants, Check};
use crate::engines::run::{model_values, EngineRun};
use crate::engines::CancelToken;
use crate::state::{set_constraint, StateSpace};
use crate::{EngineResult, Options, StopReason, Verdict};
use aig::Aig;
use cnf::{Cnf, Shift, Unroller};
use sat::SolveResult;
use std::time::Instant;
use telemetry::ArgValue;

/// Everything of the bound-k check but its frame-0 constraint: frame 0
/// is free (its latch variables are `0..n`), the transition into frame 1
/// is partition 1, the later transitions and the bad disjunction
/// `⋁_{f=1..k} bad(f)` are partition 2.  It is built once per bound and
/// shared by the reset check and every frontier iteration: a check
/// splices its constraint (`m` fresh variables from `n` on) in front and
/// relocates the body by `m`, which reproduces the scratch build
/// (`build_bound_instance`) variable for variable.
struct Body {
    cnf: Cnf,
    frame1_latches: Vec<cnf::Lit>,
    /// Frame-by-frame primary-input variables (cycles `0..=bound`), so a
    /// satisfiable check from the reset states can be read back as a
    /// replayable counterexample trace.
    frame_inputs: Vec<Vec<Option<cnf::Lit>>>,
}

impl Body {
    fn new(design: &Aig, bad_index: usize, bound: usize) -> Body {
        let mut unroller = Unroller::new(design);
        unroller.builder_mut().set_partition(1);
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
                for input in 0..design.num_inputs() {
                    unroller.input_lit(f, input);
                }
                unroller.frame_inputs(f).to_vec()
            })
            .collect();
        Body {
            cnf: unroller.into_cnf(),
            frame1_latches,
            frame_inputs,
        }
    }

    /// The check from the frame-0 constraint `init` (over latch variables
    /// `0..num_latches`, fresh variables from `num_latches` on).
    fn check<'a>(&'a self, init: &'a Cnf, num_latches: usize) -> Check<'a> {
        Check::after(init, num_latches, &self.cnf.clauses, &[], self.cnf.num_vars)
    }
}

/// The reset units of `design` over frame-0 latch variables `0..n`, in
/// partition 1.
fn reset_constraint(design: &Aig) -> Cnf {
    let mut unroller = Unroller::new(design);
    unroller.builder_mut().set_partition(1);
    unroller.assert_initial(0);
    unroller.into_cnf()
}

/// Builds the bound-k instance with `A` in partition 1 and `B` in
/// partition 2 from scratch: the reference [`Body::check`] is tested
/// bit-identical against.  `init` selects between the reset states and an
/// arbitrary frontier state set.
#[cfg(test)]
fn build_bound_instance(
    design: &Aig,
    bad_index: usize,
    bound: usize,
    init: Option<(&StateSpace, aig::Lit)>,
    identity: &[usize],
) -> (Cnf, Vec<cnf::Lit>) {
    let mut unroller = Unroller::new(design);
    unroller.builder_mut().set_partition(1);
    match init {
        None => unroller.assert_initial(0),
        Some((space, set)) => {
            let frame_latches = unroller.latch_lits(0);
            let lit = crate::state::encode_state_lit(
                unroller.builder_mut(),
                &frame_latches,
                space,
                set,
                identity,
            );
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
    for f in 0..=bound {
        for i in 0..design.num_inputs() {
            unroller.input_lit(f, i);
        }
    }
    (unroller.into_cnf(), frame1_latches)
}

/// Runs standard interpolation on bad-state property `bad_index`: the
/// bound loop, the inner fixed-point iteration and each refutation stop
/// soon after `cancel` is cancelled or the budget runs out.
pub(crate) fn run(
    design: &Aig,
    bad_index: usize,
    options: &Options,
    cancel: &CancelToken,
) -> EngineResult {
    let (mut run, _span) = EngineRun::new("ITP.run", design, &[], options, cancel);
    if let Some(status) = run.depth0(design, bad_index) {
        return run.finish_status(status);
    }
    let telemetry = run.telemetry();
    let mut space = StateSpace::new(design.num_latches(), &run);
    let s0 = space.initial_states(design);
    let identity: Vec<usize> = (0..design.num_latches()).collect();
    let num_latches = design.num_latches();
    let reset = reset_constraint(design);

    for k in 1..=options.max_bound {
        if run.should_stop() {
            return run.give_up(k - 1);
        }
        let _bound = telemetry.span_args("bound", || vec![("k", ArgValue::U64(k as u64))]);
        run.set_bound(k);
        if k > 1 {
            // `R` restarts from `S0`: no earlier state set is queried again.
            space.restart_solver(&run);
        }
        let encode = telemetry.span("encode");
        let encode_start = Instant::now();
        let body = Body::new(design, bad_index, k);
        run.stats.encode_time += encode_start.elapsed();
        encode.end();
        // Initial check from the real initial states.
        let (result, solver) = run.solve_check(&body.check(&reset, num_latches), true, &[]);
        match result {
            SolveResult::Unsat => {}
            SolveResult::Sat => {
                // bound-(k-1) was unsatisfiable, so the counterexample has
                // length exactly k.
                let cert = options.certificates.then(|| {
                    let trace = body.frame_inputs.iter();
                    Certificate::Trace(trace.map(|frame| model_values(&solver, frame)).collect())
                });
                return run.finish(Verdict::Falsified { depth: k }, cert);
            }
            SolveResult::Interrupted => return run.give_up(k - 1),
        }
        let mut solver = solver;
        let mut shift = Shift::default();
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
            let frame1: Vec<cnf::Lit> = body.frame1_latches.iter().map(|&l| shift.lit(l)).collect();
            let extracted = interpolants(
                solver.proof_view().expect("unsat result has a proof"),
                &[1],
                &[frame1],
                &identity,
                &mut space,
                &mut run.stats,
            );
            interpolate.end();
            let itp = match extracted {
                Ok(mut itps) => itps.remove(0),
                Err(reason) => {
                    let verdict = Verdict::Inconclusive {
                        reason: StopReason::other(reason),
                        bound_reached: k,
                    };
                    return run.finish(verdict, None);
                }
            };
            let Ok(fixpoint) = space.implies(itp, reached, &mut run.stats) else {
                return run.give_up(k);
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
                return run.finish(Verdict::Proved { k_fp: k, j_fp: j }, cert);
            }
            reached = space.or(reached, itp);
            if run.should_stop() {
                return run.give_up(k);
            }
            let encode = telemetry.span("encode");
            let encode_start = Instant::now();
            let frontier = set_constraint(&space, itp, &identity, num_latches);
            run.stats.encode_time += encode_start.elapsed();
            encode.end();
            let check = body.check(&frontier, num_latches);
            shift = check.shift;
            let (result, next) = run.solve_check(&check, true, &[]);
            match result {
                SolveResult::Unsat => solver = next,
                // Spurious hit from the over-approximated frontier: deepen.
                SolveResult::Sat => break,
                SolveResult::Interrupted => return run.give_up(k),
            }
        }
    }

    run.finish(
        Verdict::Inconclusive {
            reason: StopReason::BoundExhausted,
            bound_reached: options.max_bound,
        },
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use workloads::counter::modular as modular_counter;

    fn verify(aig: &Aig, bad_index: usize, options: &Options) -> EngineResult {
        Engine::Itp.dispatch(aig, bad_index, options, &CancelToken::new())
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

    /// A check cut from the per-bound body is the scratch build, from the
    /// reset states and from frontier sets alike: same clauses, order,
    /// variable numbering, partitions and frame-1 latch variables.
    #[test]
    fn body_checks_are_bit_identical_to_scratch_builds() {
        let mut designs = vec![modular_counter(3, 6, 7), modular_counter(4, 12, 15)];
        designs.extend(
            workloads::suite::full()
                .into_iter()
                .filter(|b| b.aig.num_latches() <= 12)
                .take(3)
                .map(|b| b.aig),
        );
        let options = Options::default();
        for design in &designs {
            let (run, _span) =
                EngineRun::new("ITP.run", design, &[], &options, &CancelToken::new());
            let n = design.num_latches();
            let identity: Vec<usize> = (0..n).collect();
            let mut space = StateSpace::new(n, &run);
            let mut frontiers = vec![space.initial_states(design), aig::Lit::TRUE];
            for i in 0..n {
                let latch = space.latch(i);
                let last = *frontiers.last().expect("non-empty");
                let grown = space.or(last, latch.xor_complement(i % 2 == 0));
                frontiers.push(space.and(grown, !frontiers[i]));
            }
            let reset = reset_constraint(design);
            for k in 1..=4 {
                let body = Body::new(design, 0, k);
                let check = body.check(&reset, n);
                let (cnf, frame1) = build_bound_instance(design, 0, k, None, &identity);
                assert_eq!(check.to_cnf(), cnf, "reset check at bound {k}");
                assert_eq!(body.frame1_latches, frame1);
                for &frontier in &frontiers {
                    let constraint = set_constraint(&space, frontier, &identity, n);
                    let check = body.check(&constraint, n);
                    let (cnf, frame1) =
                        build_bound_instance(design, 0, k, Some((&space, frontier)), &identity);
                    assert_eq!(check.to_cnf(), cnf, "frontier check at bound {k}");
                    let shifted: Vec<cnf::Lit> = body
                        .frame1_latches
                        .iter()
                        .map(|&lit| check.shift.lit(lit))
                        .collect();
                    assert_eq!(shifted, frame1);
                }
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
