//! One engine run: the context every engine entry point opens first.
//!
//! An [`EngineRun`] owns what each run needs whatever the engine: the
//! start clock, the [`RunBudget`] (cancellation, deadline, memory budget,
//! fault plan), the [`EngineProbe`] and the [`EngineStats`] under
//! construction, and it opens the `<NAME>.run` / `<NAME>.multi` span.  It
//! also owns the depth-0 check, the one stop rule and the finish step, and it
//! is the only way engine code gets a SAT solver: [`solve_check`],
//! [`incremental`] and [`incremental_with_base`] each install the reduce
//! interval, the interrupt flag, the memory budget, the fault plan and
//! the progress probe.  [`contain`] is the one containment boundary
//! around every engine run.
//!
//! [`solve_check`]: EngineRun::solve_check
//! [`incremental`]: EngineRun::incremental
//! [`incremental_with_base`]: EngineRun::incremental_with_base

use crate::certificate::Certificate;
use crate::engines::check::Check;
use crate::engines::{CancelToken, EngineProbe, RunBudget};
use crate::{
    Engine, EngineResult, EngineStats, MultiResult, Options, PropertyStatus, StopReason, Verdict,
};
use aig::Aig;
use cnf::{Clause, Cnf, Lit};
use sat::{IncrementalSolver, SolveResult, Solver};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;
use telemetry::{ArgValue, Span, Telemetry};

/// The one containment boundary of a run of `engine` on `props`
/// properties: a single-property [`Engine::dispatch`], an amortized
/// `verify_all` backend or a race entrant.  It alone counts, once per run:
///
/// * `panics_contained`: a panic in `run`, injected or not, becomes
///   [`StopReason::Panic`] for every property;
/// * `faults_injected`: the fault plan's one firing, at the first boundary
///   to end after it, however many concurrent runs share the plan;
/// * `memlimit_hits`: a run that stopped any property on
///   [`StopReason::MemLimit`].
pub(crate) fn contain(
    engine: Engine,
    props: usize,
    options: &Options,
    run: impl FnOnce() -> MultiResult,
) -> MultiResult {
    let start = Instant::now();
    let engine_arg = || ("engine", ArgValue::Str(engine.name().to_string()));
    let mut result = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = crate::types::panic_message(payload.as_ref());
        options.telemetry.instant_args("fault", || {
            vec![engine_arg(), ("panic", ArgValue::Str(message.clone()))]
        });
        let reason = StopReason::Panic(message);
        let status = PropertyStatus::Inconclusive {
            reason,
            bound_reached: 0,
        };
        let stats = EngineStats {
            time: start.elapsed(),
            panics_contained: 1,
            ..EngineStats::default()
        };
        MultiResult {
            statuses: vec![status; props],
            stats,
        }
    });
    result.stats.faults_injected += u64::from(options.faults.take_fired());
    let memlimit = |status: &PropertyStatus| match status {
        PropertyStatus::Inconclusive { reason, .. } => *reason == StopReason::MemLimit,
        _ => false,
    };
    if result.statuses.iter().any(memlimit) {
        result.stats.memlimit_hits += 1;
        options
            .telemetry
            .instant_args("memlimit", || vec![engine_arg()]);
    }
    result
}

/// The per-run context of one engine run (see the module docs).
///
/// [`new`](Self::new) also hands back the guard of the run span: the
/// caller holds it for the whole run, so the span encloses every span the
/// run opens, including those still open when the run finishes.
pub(crate) struct EngineRun<'a> {
    /// The options the run was started with.
    pub options: &'a Options,
    /// The run's counters; [`finish`](Self::finish) stamps the wall time.
    pub stats: EngineStats,
    start: Instant,
    probe: EngineProbe,
    /// The reason the first stopping [`should_stop`](Self::should_stop)
    /// poll saw.
    stopped: OnceLock<StopReason>,
    budget: RunBudget,
}

impl<'a> EngineRun<'a> {
    /// Starts a run on `design` under `options` and `cancel`, and opens
    /// its span, called `span`, whose arguments are the design's latch
    /// count followed by `args`.
    pub fn new(
        span: &str,
        design: &Aig,
        args: &[(&'static str, u64)],
        options: &'a Options,
        cancel: &CancelToken,
    ) -> (EngineRun<'a>, Span) {
        let start = Instant::now();
        let latches = design.num_latches();
        let span = options.telemetry.span_args(span, || {
            std::iter::once(("latches", latches as u64))
                .chain(args.iter().copied())
                .map(|(key, value)| (key, ArgValue::U64(value)))
                .collect()
        });
        let run = EngineRun {
            options,
            stats: EngineStats {
                visible_latches: latches,
                ..EngineStats::default()
            },
            start,
            probe: EngineProbe::new(&options.telemetry, options.probe_interval),
            stopped: OnceLock::new(),
            budget: RunBudget::arm(cancel, start, options),
        };
        (run, span)
    }

    /// The run's telemetry handle.
    pub fn telemetry(&self) -> &'a Telemetry {
        &self.options.telemetry
    }

    /// Publishes the bound (frame, level) the run is working on to the
    /// progress heartbeat.
    pub fn set_bound(&self, bound: usize) {
        self.probe.set_bound(bound);
    }

    /// The between-bounds stop decision: cancellation, the deadline, a
    /// memory-budget hit or an injected `Phase` fault (see
    /// [`RunBudget::stop_reason`]).  Once it answers `true` it keeps
    /// answering `true` without polling again, so the `Phase` fault site
    /// ticks only while the run is live.
    pub fn should_stop(&self) -> bool {
        if self.stopped.get().is_some() {
            return true;
        }
        match self.budget.stop_reason() {
            Some(reason) => {
                let _ = self.stopped.set(reason);
                true
            }
            None => false,
        }
    }

    /// The one stop rule: the reason [`should_stop`](Self::should_stop)
    /// saw, otherwise the reason behind an interrupted solve
    /// ([`RunBudget::interrupt_reason`]).
    pub fn stop_reason(&self) -> StopReason {
        match self.stopped.get() {
            Some(reason) => reason.clone(),
            None => self.budget.interrupt_reason(),
        }
    }

    /// Ends the run with `verdict` (traced as a `verdict` instant).
    pub fn finish(mut self, verdict: Verdict, certificate: Option<Certificate>) -> EngineResult {
        self.options.telemetry.instant_args("verdict", || {
            vec![("verdict", ArgValue::Str(verdict.to_string()))]
        });
        self.stats.time = self.start.elapsed();
        EngineResult {
            verdict,
            stats: self.stats,
            certificate,
        }
    }

    /// Ends the run inconclusive after `bound_reached`, for the
    /// [`stop_reason`](Self::stop_reason).
    pub fn give_up(self, bound_reached: usize) -> EngineResult {
        let reason = self.stop_reason();
        self.finish(
            Verdict::Inconclusive {
                reason,
                bound_reached,
            },
            None,
        )
    }

    /// Ends a single-property run with the status its loop decided; the
    /// status's evidence becomes the certificate.
    pub fn finish_status(self, status: PropertyStatus) -> EngineResult {
        let result = status.into_result(EngineStats::default());
        self.finish(result.verdict, result.certificate)
    }

    /// Ends a multi-property run with one status per property.
    pub fn finish_all(mut self, statuses: Vec<PropertyStatus>) -> MultiResult {
        self.stats.time = self.start.elapsed();
        MultiResult {
            statuses,
            stats: self.stats,
        }
    }

    /// The depth-0 check run before a main loop that starts at bound 1:
    /// do the initial states violate property `bad_index`?  Returns the
    /// status when the check decides it — a violation, with its
    /// single-cycle input trace unless [`Options::certificates`] is off,
    /// or an interrupt — and `None` when the initial states are safe.
    pub fn depth0(&mut self, aig: &Aig, bad_index: usize) -> Option<PropertyStatus> {
        let _span = self
            .telemetry()
            .span_args("depth0", || vec![("bad", ArgValue::U64(bad_index as u64))]);
        let encode_start = Instant::now();
        let mut unroller = cnf::Unroller::new(aig);
        unroller.assert_initial(0);
        let bad = unroller.bad_lit(0, bad_index);
        unroller.assert_lit(bad);
        // Inputs outside the bad cone become fresh unconstrained
        // variables; they add no clauses and cannot change the verdict.
        for input in 0..aig.num_inputs() {
            unroller.input_lit(0, input);
        }
        let inputs = unroller.frame_inputs(0).to_vec();
        let cnf = unroller.into_cnf();
        self.stats.encode_time += encode_start.elapsed();
        let (result, solver) = self.solve_check(&Check::of(&cnf), false, &[]);
        match result {
            SolveResult::Sat => {
                let cex = self
                    .options
                    .certificates
                    .then(|| vec![model_values(&solver, &inputs)]);
                Some(PropertyStatus::Falsified { depth: 0, cex })
            }
            SolveResult::Unsat => None,
            SolveResult::Interrupted => Some(PropertyStatus::Inconclusive {
                reason: self.stop_reason(),
                bound_reached: 0,
            }),
        }
    }

    /// Loads `check` into a fresh governed solver, proof-logging when
    /// `proof_logging` (inside a `load` span), and solves it under
    /// `assumptions` (inside a `sat` span).  The check counts as one SAT
    /// call with its clauses encoded and its solver work.  The solver is
    /// returned for its model, its assumption core or its proof.
    pub fn solve_check(
        &mut self,
        check: &Check<'_>,
        proof_logging: bool,
        assumptions: &[Lit],
    ) -> (SolveResult, Solver) {
        let telemetry = self.telemetry();
        let clauses = check.num_clauses() as u64;
        let load = telemetry.span_args("load", || vec![("clauses", ArgValue::U64(clauses))]);
        #[allow(clippy::disallowed_methods)]
        let mut solver = Solver::new();
        solver.set_proof_logging(proof_logging);
        solver.set_reduce_interval(self.options.reduce_interval());
        solver.set_interrupt(Some(self.budget.flag()));
        solver.set_memory_budget(self.options.memory_limit.clone());
        solver.set_faults(self.options.faults.clone());
        solver.set_progress_probe(self.probe.probe());
        let lits = check.clauses().map(Clause::len).sum();
        let mut loader = solver.bulk_load(check.num_vars, check.num_clauses(), lits);
        check.for_each_clause(|lits, partition| loader.add_clause(lits, partition));
        drop(loader);
        load.end();
        self.stats.sat_calls += 1;
        self.stats.clauses_encoded += clauses;
        let query = telemetry.span_args("sat", || vec![("clauses", ArgValue::U64(clauses))]);
        let result = solver.solve_with_assumptions(assumptions);
        query.end();
        self.stats.add_solver_delta(solver.stats());
        (result, solver)
    }

    /// A fresh governed incremental solver.  Its callers allocate every
    /// variable themselves, so recycling, which only reclaims
    /// solver-allocated activation variables, is off.
    pub fn incremental(&self) -> IncrementalSolver {
        #[allow(clippy::disallowed_methods)]
        let mut solver = IncrementalSolver::new();
        solver.set_recycle_threshold(0);
        self.govern(solver)
    }

    /// A governed incremental solver preloaded with `base` (loaded before
    /// the fault plan is installed).
    pub fn incremental_with_base(&self, base: &Cnf) -> IncrementalSolver {
        #[allow(clippy::disallowed_methods)]
        let solver = IncrementalSolver::with_base(base);
        self.govern(solver)
    }

    fn govern(&self, mut solver: IncrementalSolver) -> IncrementalSolver {
        solver.set_reduce_interval(self.options.reduce_interval());
        solver.set_interrupt(Some(self.budget.flag()));
        solver.set_memory_budget(self.options.memory_limit.clone());
        solver.set_faults(self.options.faults.clone());
        solver.set_progress_probe(self.probe.probe());
        solver
    }
}

/// One counted query on an incremental solver, inside a `sat` span.
pub(crate) fn solve(
    solver: &mut IncrementalSolver,
    assumptions: &[Lit],
    stats: &mut EngineStats,
    telemetry: &Telemetry,
) -> SolveResult {
    let _sat = telemetry.span("sat");
    let before = solver.stats();
    let result = solver.solve(assumptions);
    stats.sat_calls += 1;
    stats.add_solver_delta(solver.stats() - before);
    result
}

/// The values of one cycle's input literals `lits` in `solver`'s model:
/// how every engine reads a counterexample's inputs back.  An unassigned
/// literal, and an input without one (no encoded cone reads it), reads
/// `false`.
pub(crate) fn model_values(solver: &Solver, lits: &[Option<Lit>]) -> Vec<bool> {
    lits.iter()
        .map(|lit| lit.and_then(|lit| solver.lit_value(lit)).unwrap_or(false))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn options() -> Options {
        Options::default().with_timeout(Duration::from_secs(600))
    }

    /// An injected phase interrupt fires once; the run still reports it
    /// as the reason, however often the engine asks again: a re-poll would
    /// find the one-shot fault spent and blame the deadline.
    #[test]
    fn a_phase_fault_stays_the_stop_reason() {
        let plan = sat::FaultPlan::inject(sat::FaultSite::Phase, sat::FaultKind::Interrupt, 1);
        let options = options().with_faults(plan);
        let (run, _span) =
            EngineRun::new("test.run", &Aig::new(), &[], &options, &CancelToken::new());
        assert!(run.should_stop());
        assert!(run.should_stop(), "a stopped run stays stopped");
        assert_eq!(run.stop_reason(), "fault:interrupt");
        assert_eq!(
            run.give_up(3).verdict.to_string(),
            "inconclusive after bound 3: fault:interrupt"
        );
    }

    /// Without a stop poll, the reason is the interrupted solve's.
    #[test]
    fn an_interrupted_solve_reports_the_budget_reason() {
        let cancel = CancelToken::new();
        let options = options();
        let (run, _span) = EngineRun::new("test.run", &Aig::new(), &[], &options, &cancel);
        cancel.cancel();
        assert_eq!(run.stop_reason(), StopReason::Cancelled);
    }

    /// Every solver the factory makes answers to the run's interrupt flag.
    #[test]
    fn factory_solvers_are_governed() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let options = options();
        let (mut run, _span) = EngineRun::new("test.run", &Aig::new(), &[], &options, &cancel);
        let mut builder = cnf::CnfBuilder::starting_at(0);
        let x = builder.new_lit();
        builder.add_clause(vec![x, !x]);
        let cnf = builder.into_cnf();
        let (result, _) = run.solve_check(&Check::of(&cnf), true, &[]);
        assert_eq!(result, SolveResult::Interrupted);
        assert_eq!(run.stats.sat_calls, 1);
        let mut fresh = run.incremental();
        assert_eq!(fresh.solve(&[]), SolveResult::Interrupted);
        let mut based = run.incremental_with_base(&cnf);
        assert_eq!(based.solve(&[]), SolveResult::Interrupted);
    }
}
