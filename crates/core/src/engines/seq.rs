//! The interpolation-sequence engines: one outer loop, three engines.
//!
//! The three sequence-based engines of the paper share one outer loop —
//! Fig. 2 extended with the serial computation of Fig. 4 and the
//! abstraction-refinement of Fig. 5.  This module implements that loop
//! once (`run`), parameterised by the configuration `SeqConfig` that
//! each engine's dispatch picks:
//!
//! * **ITPSEQ** (`ITPSEQVERIF`, Fig. 2, [`Engine::ItpSeq`](crate::Engine::ItpSeq)):
//!   every element of the sequence is extracted from the single
//!   refutation proof of the exact-k (or assume-k) bounded check; the
//!   column conjunctions `ℐ_j` accumulate across bounds and are checked
//!   for inclusion in the running reachability over-approximation.
//! * **SITPSEQ** (Fig. 4, Definition 3,
//!   [`Engine::SerialItpSeq`](crate::Engine::SerialItpSeq)): the first
//!   `⌊αs · n⌋` elements of each sequence
//!   ([`Options::alpha_serial`]) are computed serially — every `I_j` from
//!   its own refutation of `I_{j-1} ∧ A_j ∧ ⋀_{i>j} A_i` — and the
//!   remaining elements in parallel from one proof.  The cumulative
//!   interpolation effect of the serial prefix tends to increase
//!   abstraction and converge at smaller depths, at the price of extra SAT
//!   calls.
//! * **ITPSEQCBA** (`ITPSEQCBAVERIF`, Fig. 5,
//!   [`Engine::ItpSeqCba`](crate::Engine::ItpSeqCba)): SITPSEQ on a
//!   localization abstraction of the design, whose invisible latches are
//!   free inputs.  At every bound, abstract counterexamples are checked on
//!   the concrete design (`EXTEND`); spurious ones refine the abstraction
//!   from the unsatisfiable assumption core (`REFINE`).  Once the abstract
//!   bounded check is unsatisfiable, the serial interpolation sequence is
//!   computed on the (smaller) abstract model, which yields smaller
//!   refutation proofs and more aggressive over-approximation.
//!
//! The BMC check formulation (*exact-k* or *exact-assume-k*) comes from
//! [`Options::check`].  The PDR engine keeps its own frame machinery
//! (clause traces, not interpolant columns) and does not depend on this
//! module.

use crate::abstraction::Abstraction;
use crate::certificate::{Certificate, InvariantCert, InvariantCone};
use crate::engines::check::{interpolants, Check};
use crate::engines::run::{model_values, EngineRun};
use crate::engines::CancelToken;
use crate::state::{set_constraint, Interrupted, StateSpace};
use crate::{EngineResult, EngineStats, Options, StopReason, Verdict};
use aig::Aig;
use cnf::{BmcCheck, Clause, Unroller};
use sat::{ProofView, SolveResult, Solver};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{ArgValue, Telemetry};

/// Static configuration distinguishing the three sequence engines.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SeqConfig {
    /// The engine's reporting name (labels its trace spans).
    pub name: &'static str,
    /// Fraction of the sequence computed serially (Fig. 4's `αs`).
    pub alpha_serial: f64,
    /// Enable counterexample-based abstraction (Fig. 5).
    pub use_cba: bool,
}

/// How frame 0 of an unrolling is constrained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InitKind {
    /// The design's reset state: the main bound loop.
    Reset,
    /// An arbitrary symbolic state set: the serial steps of Fig. 4 and the
    /// parallel remainder.  A cached unrolling of this kind leaves frame 0
    /// free; each instance's state set is encoded on its own and spliced
    /// in front of the cached clauses when the check is loaded.
    Set,
}

/// Where the instance with `t` transitions ends inside a
/// [`CachedUnrolling`].
#[derive(Debug)]
struct Target {
    /// The cached clauses `0..end` open the instance.
    end: usize,
    /// The clauses that follow them: the exact-k cone of `bad(t)` (when
    /// it is not part of the cache), then the target unit.
    tail: Vec<Clause>,
    /// Variables of the instance, not counting a spliced state set.
    num_vars: u32,
    /// The primary-input literals of frame `t` in the instance: the
    /// cache's (under assume-k) or the detached cone's (under exact-k).
    inputs: Vec<Option<cnf::Lit>>,
}

/// A bounded check built from a [`CachedUnrolling`], plus its frame
/// variable maps.
struct SeqInstance<'a> {
    check: Check<'a>,
    frame_latches: Vec<Vec<cnf::Lit>>,
}

/// A per-model cache of the partitioned unrolling every sequence-engine
/// check is cut from: a persistent [`Unroller`] of the shared model that
/// keeps its frames, variable maps and Tseitin caches alive, so growing
/// the bound only encodes the new frame, and an instance at any bound
/// reached so far is a slice of the cache plus a short tail.
///
/// Every instance is **bit-identical** to the scratch `build_instance`
/// — same clauses, same order, same variable numbering, same partition
/// labels — because frame `f`'s transition always carries partition
/// `f + 1` and the bad cone of frame `f` always lands in partition
/// `f + 2`, whether it is encoded as the target with `f` transitions or
/// as the assume-k property constraint of a longer instance (the tests pin
/// this equality down):
///
/// * **Reset** caches serve the main bound loop: frame 0 carries the reset
///   units, assume-k constrains frames `1..k`.
/// * **Set** caches serve the state-set instances, one cache per model:
///   frame 0 is free (its latch variables are `0..n`) and assume-k
///   constrains every frame `0..t-1`.  The instance adds the encoded set
///   (`m` fresh variables from `n` on) in front, and every cached variable
///   `≥ n` moves up by `m` ([`cnf::Shift`]): a scratch build allocates the
///   set's variables before the first transition, and the unrolling never
///   reads them.
///
/// Under assume-k, `bad(t)`'s cone is part of the cache (the next frame
/// assumes it), so the instance ends right after that cone and appends
/// the target unit.  Under exact-k, longer instances never encode it:
/// the instance ends with frame `t`'s transition, and its tail is
/// `bad(t)`'s cone encoded on a fresh frame-`t` cache, numbered from the
/// cache's variable count at that point — exactly what a scratch build
/// sees.  Tails are kept per `t`.
///
/// The proof-logging SAT solver is deliberately *not* shared: every check
/// is loaded into a fresh solver ([`EngineRun::solve_check`]), because the
/// interpolation queries need a refutation of exactly that instance's
/// partition layout.
struct CachedUnrolling {
    unroller: Unroller<'static>,
    bad_index: usize,
    check: BmcCheck,
    init: InitKind,
    /// Frames unrolled so far (0 = only the initial frame).
    bound: usize,
    /// `frame_ends[f]`: clause and variable counts right after frame
    /// `f`'s transition.
    frame_ends: Vec<(usize, u32)>,
    /// `targets[t]`: the instance with `t` transitions, once encoded.
    targets: Vec<Option<Target>>,
    /// The state-set constraint of the latest `Set` instance.
    constraint: cnf::Cnf,
}

impl CachedUnrolling {
    fn new(model: Arc<Aig>, bad_index: usize, check: BmcCheck, init: InitKind) -> CachedUnrolling {
        let mut unroller = Unroller::shared(model);
        unroller.builder_mut().set_partition(1);
        if init == InitKind::Reset {
            unroller.assert_initial(0);
        }
        let frame_ends = vec![(unroller.num_clauses(), unroller.num_vars())];
        CachedUnrolling {
            unroller,
            bad_index,
            check,
            init,
            bound: 0,
            frame_ends,
            targets: Vec::new(),
            constraint: cnf::Cnf::new(),
        }
    }

    /// Extends the cached unrolling to `k` frames, mirroring the frame
    /// loop of `build_instance` (partition `f + 1` per transition, plus
    /// the assume-k property constraint on the previous frame).
    fn ensure_bound(&mut self, k: usize) {
        let first_assumed = match self.init {
            InitKind::Reset => 2,
            InitKind::Set => 1,
        };
        while self.bound < k {
            let f = self.bound + 1;
            self.unroller.builder_mut().set_partition((f + 1) as u32);
            if self.check == BmcCheck::ExactAssume && f >= first_assumed {
                let bad_prev = self.encode_assumed_target(f - 1);
                self.unroller.assert_lit(!bad_prev);
            }
            self.unroller.add_frame();
            self.frame_ends
                .push((self.unroller.num_clauses(), self.unroller.num_vars()));
            self.bound = f;
        }
    }

    /// Under assume-k: encodes `bad(t)` into the cache in partition
    /// `t + 2` (unless an earlier request did) and records the instance
    /// with `t` transitions as ending right after it.
    fn encode_assumed_target(&mut self, t: usize) -> cnf::Lit {
        if let Some(Some(target)) = self.targets.get(t) {
            return target.tail[0].lits[0];
        }
        let partition = (t + 2) as u32;
        self.unroller.builder_mut().set_partition(partition);
        let bad = self.unroller.bad_lit(t, self.bad_index);
        self.record(
            t,
            Target {
                end: self.unroller.num_clauses(),
                tail: vec![Clause::new(vec![bad], partition)],
                num_vars: self.unroller.num_vars(),
                inputs: self.unroller.frame_inputs(t).to_vec(),
            },
        );
        bad
    }

    fn record(&mut self, t: usize, target: Target) {
        if self.targets.len() <= t {
            self.targets.resize_with(t + 1, || None);
        }
        self.targets[t] = Some(target);
    }

    /// The instance with `t` transitions, built inside an `encode` span
    /// and timed into `stats.encode_time`.  A `Set` cache encodes `set`
    /// (a state set of `space`, whose dimensions `latch_map` maps to model
    /// latches) and splices it in front.
    fn instance(
        &mut self,
        t: usize,
        set: Option<(&StateSpace, aig::Lit, &[usize])>,
        stats: &mut EngineStats,
        telemetry: &Telemetry,
    ) -> SeqInstance<'_> {
        let _encode = telemetry.span("encode");
        let encode_start = Instant::now();
        self.ensure_bound(t);
        if !matches!(self.targets.get(t), Some(Some(_))) {
            match self.check {
                BmcCheck::ExactAssume => {
                    // Growth records every earlier target, so only the
                    // deepest frame can still lack one.
                    debug_assert_eq!(t, self.bound);
                    self.encode_assumed_target(t);
                }
                BmcCheck::Exact | BmcCheck::Bound => {
                    let (end, first_var) = self.frame_ends[t];
                    let partition = (t + 2) as u32;
                    let bad = self.unroller.aig().bad(self.bad_index);
                    let (cone, lit, inputs) =
                        self.unroller.detached_lit(t, bad, first_var, partition);
                    let mut tail = cone.clauses;
                    tail.push(Clause::new(vec![lit], partition));
                    self.record(
                        t,
                        Target {
                            end,
                            tail,
                            num_vars: cone.num_vars,
                            inputs,
                        },
                    );
                }
            }
        }
        let pivot = self.unroller.latch_lits(0).len() as u32;
        self.constraint = match set {
            Some((space, set, latch_map)) => {
                debug_assert_eq!(self.init, InitKind::Set);
                set_constraint(space, set, latch_map, pivot as usize)
            }
            None => cnf::Cnf::new(),
        };
        let target = self.targets[t].as_ref().expect("encoded above");
        let check = Check::after(
            &self.constraint,
            pivot as usize,
            &self.unroller.clauses()[..target.end],
            &target.tail,
            target.num_vars,
        );
        let frame_latches = (0..=t)
            .map(|f| {
                self.unroller
                    .latch_lits(f)
                    .into_iter()
                    .map(|lit| check.shift.lit(lit))
                    .collect()
            })
            .collect();
        stats.encode_time += encode_start.elapsed();
        SeqInstance {
            check,
            frame_latches,
        }
    }

    /// The input trace (cycles `0..=t`) of the model `solver` found for
    /// the reset-state instance with `t` transitions, the deepest this
    /// cache has grown to (a reset-state check is loaded unrelocated).
    /// Frames below `t` keep the input variables their cones allocated,
    /// frame `t` those of its target; nothing is allocated or encoded.
    fn trace(&self, t: usize, solver: &Solver) -> Vec<Vec<bool>> {
        debug_assert_eq!(self.init, InitKind::Reset);
        debug_assert_eq!(t, self.bound, "later frames may reuse the tail's variables");
        let target = self.targets[t].as_ref().expect("the instance was encoded");
        let frames = (0..t).map(|f| self.unroller.frame_inputs(f));
        let frames = frames.chain([&target.inputs[..]]);
        frames.map(|inputs| model_values(solver, inputs)).collect()
    }
}

/// Builds the partitioned unrolling of `model` covering `transitions` steps
/// from scratch, where sub-frame 0 corresponds to absolute frame `offset`
/// of a bound `total_bound` problem, from the reset state or from `set`:
/// the reference every [`CachedUnrolling`] instance is tested
/// bit-identical against.
///
/// Partition layout: 1 = the initial constraint, `1 + f` = the transition
/// into sub-frame `f` (plus the assume-k property assumption on sub-frame
/// `f - 1` when applicable), `transitions + 2` = the `¬p` target.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn build_instance(
    model: &Aig,
    bad_index: usize,
    transitions: usize,
    offset: usize,
    total_bound: usize,
    check: BmcCheck,
    set: Option<(&StateSpace, aig::Lit, &[usize])>,
) -> (cnf::Cnf, Vec<Vec<cnf::Lit>>) {
    let mut unroller = Unroller::new(model);
    unroller.builder_mut().set_partition(1);
    match set {
        None => unroller.assert_initial(0),
        Some((space, set, concrete_to_model)) => {
            let frame_latches = unroller.latch_lits(0);
            let lit = crate::state::encode_state_lit(
                unroller.builder_mut(),
                &frame_latches,
                space,
                set,
                concrete_to_model,
            );
            unroller.assert_lit(lit);
        }
    }
    for f in 1..=transitions {
        unroller.builder_mut().set_partition((f + 1) as u32);
        let absolute = offset + f - 1;
        if check == BmcCheck::ExactAssume && absolute >= 1 && absolute < total_bound {
            let bad_prev = unroller.bad_lit(f - 1, bad_index);
            unroller.assert_lit(!bad_prev);
        }
        unroller.add_frame();
    }
    unroller
        .builder_mut()
        .set_partition((transitions + 2) as u32);
    let bad = unroller.bad_lit(transitions, bad_index);
    unroller.assert_lit(bad);
    let frame_latches = (0..=transitions).map(|f| unroller.latch_lits(f)).collect();
    (unroller.into_cnf(), frame_latches)
}

/// The latch correspondence between the current (abstract) model and the
/// design, both ways.
struct LatchMaps<'r> {
    model_to_concrete: &'r [usize],
    concrete_to_model: &'r [usize],
}

/// Refutes the instance with `transitions` steps from `set` (the model's
/// `Set` cache `template` supplies everything but the set) and returns
/// the interpolants at `cuts` of its refutation.
#[allow(clippy::too_many_arguments)]
fn interpolate_from(
    run: &mut EngineRun<'_>,
    maps: &LatchMaps<'_>,
    template: &mut CachedUnrolling,
    set: aig::Lit,
    transitions: usize,
    cuts: &[u32],
    what: &str,
    space: &mut StateSpace,
) -> Result<Vec<aig::Lit>, StopReason> {
    let telemetry = run.telemetry();
    let (instance_latches, (result, solver)) = {
        let set = Some((&*space, set, maps.concrete_to_model));
        let instance = template.instance(transitions, set, &mut run.stats, telemetry);
        let solved = run.solve_check(&instance.check, true, &[]);
        (instance.frame_latches, solved)
    };
    match result {
        SolveResult::Unsat => {}
        SolveResult::Sat => {
            return Err(StopReason::other(format!(
                "{what} was unexpectedly satisfiable"
            )));
        }
        SolveResult::Interrupted => return Err(run.stop_reason()),
    }
    let proof = solver.proof_view().expect("unsat result has a proof");
    let to_concrete = maps.model_to_concrete;
    interpolants(
        proof,
        cuts,
        &instance_latches,
        to_concrete,
        space,
        &mut run.stats,
    )
    .map_err(StopReason::other)
}

/// Computes the interpolation sequence `I_1 … I_k` for bound `k`, given the
/// already-refuted full instance (its frame maps and its solver's proof),
/// using the serial/parallel mix requested by `alpha_serial` (Fig. 4).
/// The serial steps and the parallel remainder are cut from the model's
/// `Set` cache `template`.
#[allow(clippy::too_many_arguments)]
fn compute_sequence(
    run: &mut EngineRun<'_>,
    maps: &LatchMaps<'_>,
    template: &mut CachedUnrolling,
    bound: usize,
    alpha_serial: f64,
    space: &mut StateSpace,
    full_latches: &[Vec<cnf::Lit>],
    full_proof: ProofView<'_>,
) -> Result<Vec<aig::Lit>, StopReason> {
    let n = bound + 1;
    let serial = ((alpha_serial * n as f64).floor() as usize).min(bound);
    let mut sequence: Vec<aig::Lit> = Vec::with_capacity(bound);
    let from_full = |cuts: &[u32], space: &mut StateSpace, stats: &mut EngineStats| {
        let to_concrete = maps.model_to_concrete;
        interpolants(full_proof, cuts, full_latches, to_concrete, space, stats)
            .map_err(StopReason::other)
    };

    // Serial part: I_j = ITP(I_{j-1} ∧ A_j, ⋀_{i>j} A_i), each from its own
    // refutation.  The first step reuses the proof of the full instance
    // (its A side is exactly S0 ∧ A_1).
    for j in 1..=serial {
        let itp = if j == 1 {
            from_full(&[2], space, &mut run.stats)?
        } else {
            let prev = sequence[j - 2];
            let what = format!("serial interpolation step {j}");
            let t = bound - j + 1;
            interpolate_from(run, maps, template, prev, t, &[2], &what, space)?
        };
        sequence.push(itp[0]);
    }

    // Parallel part: the remaining elements all come from one proof.
    if serial < bound {
        let itps = if serial == 0 {
            // Plain interpolation sequence: every element from the proof of
            // the full instance.
            let cuts: Vec<u32> = (2..=(bound + 1) as u32).collect();
            from_full(&cuts, space, &mut run.stats)?
        } else {
            let prev = sequence[serial - 1];
            let cuts: Vec<u32> = (2..=(bound - serial + 1) as u32).collect();
            let what = "parallel remainder of the serial sequence";
            interpolate_from(
                run,
                maps,
                template,
                prev,
                bound - serial,
                &cuts,
                what,
                space,
            )?
        };
        sequence.extend(itps);
    }
    debug_assert_eq!(sequence.len(), bound);
    Ok(sequence)
}

enum ExtendOutcome {
    /// The abstract counterexample concretises: the property fails.  The
    /// payload is the concrete input trace read off the satisfying
    /// assignment (`None` when certificate collection is off).
    ConcreteCounterexample(Option<Vec<Vec<bool>>>),
    /// The counterexample was spurious; the abstraction has been refined.
    Refined,
    /// The run was cancelled mid-check.
    Cancelled,
}

/// Checks an abstract counterexample against the concrete design
/// (Fig. 5's `EXTEND`) and refines the abstraction from the unsatisfiable
/// assumption core when it is spurious (`REFINE`).
fn extend_or_refine(
    run: &mut EngineRun<'_>,
    design: &Aig,
    bad_index: usize,
    bound: usize,
    abstraction: &mut Abstraction,
) -> ExtendOutcome {
    let (check, record_trace) = (run.options.check, run.options.certificates);
    let _extend = run
        .telemetry()
        .span_args("extend", || vec![("k", ArgValue::U64(bound as u64))]);
    let encode_start = Instant::now();
    let mut unroller = Unroller::new(design);
    let mut guards: Vec<Option<cnf::Lit>> = vec![None; design.num_latches()];
    let mut activation: Vec<(cnf::Lit, usize)> = Vec::new();
    for (latch, guard) in guards.iter_mut().enumerate() {
        if !abstraction.is_visible(latch) {
            let a = unroller.builder_mut().new_lit();
            *guard = Some(a);
            activation.push((a, latch));
        }
    }
    unroller.assert_initial_guarded(0, &guards);
    for f in 1..=bound {
        if check == BmcCheck::ExactAssume && f >= 2 {
            let bad_prev = unroller.bad_lit(f - 1, bad_index);
            unroller.assert_lit(!bad_prev);
        }
        unroller.add_frame_guarded(&guards);
    }
    let bad = unroller.bad_lit(bound, bad_index);
    unroller.assert_lit(bad);
    // Pin the concrete input variables of every cycle before the unroller
    // is consumed, so a concretised counterexample can be read back as a
    // replayable trace (input variables carry no clauses).
    let frame_inputs: Vec<Vec<Option<cnf::Lit>>> = if record_trace {
        (0..=bound)
            .map(|f| {
                for input in 0..design.num_inputs() {
                    unroller.input_lit(f, input);
                }
                unroller.frame_inputs(f).to_vec()
            })
            .collect()
    } else {
        Vec::new()
    };

    let cnf = unroller.into_cnf();
    run.stats.encode_time += encode_start.elapsed();
    let assumptions: Vec<cnf::Lit> = activation.iter().map(|&(a, _)| a).collect();
    // This query only reads the assumption core on Unsat, never a proof —
    // no chain recording, so DB reduction stays unrestricted.
    let (result, solver) = run.solve_check(&Check::of(&cnf), false, &assumptions);
    match result {
        SolveResult::Sat => {
            let trace = record_trace.then(|| {
                let frames = frame_inputs.iter();
                frames.map(|frame| model_values(&solver, frame)).collect()
            });
            ExtendOutcome::ConcreteCounterexample(trace)
        }
        SolveResult::Interrupted => ExtendOutcome::Cancelled,
        SolveResult::Unsat => {
            let core = solver.assumption_core();
            let mut to_add: Vec<usize> = activation
                .iter()
                .filter(|&&(a, _)| core.contains(&a) || core.contains(&!a))
                .map(|&(_, latch)| latch)
                .collect();
            if to_add.is_empty() {
                // Defensive fallback: refine with every invisible latch.
                to_add = activation.iter().map(|&(_, latch)| latch).collect();
            }
            abstraction.refine(to_add);
            ExtendOutcome::Refined
        }
    }
}

/// Fig. 2's fixpoint checks at the bound of `sequence`: conjoins each
/// `I_j` into its column `ℐ_j` and checks `ℐ_j ⇒ R_{j-1}` for
/// `j = 1, 2, …`, where `R_0 = r0` and `R_j = R_{j-1} ∨ ℐ_j`.  Returns the
/// first fixpoint as `(j, R_{j-1})`, or `None` when this bound has none.
fn find_fixpoint(
    space: &mut StateSpace,
    columns: &mut Vec<aig::Lit>,
    sequence: &[aig::Lit],
    r0: aig::Lit,
    stats: &mut EngineStats,
) -> Result<Option<(usize, aig::Lit)>, Interrupted> {
    let mut reached = r0;
    for (i, &itp) in sequence.iter().enumerate() {
        if columns.len() == i {
            columns.push(aig::Lit::TRUE);
        }
        columns[i] = space.and(columns[i], itp);
        if space.implies(columns[i], reached, stats)? {
            return Ok(Some((i + 1, reached)));
        }
        reached = space.or(reached, columns[i]);
    }
    Ok(None)
}

/// The shared outer loop of the sequence-based engines: runs the engine
/// `config` configures on bad-state property `bad_index`.
pub(crate) fn run(
    design: &Aig,
    bad_index: usize,
    options: &Options,
    config: SeqConfig,
    cancel: &CancelToken,
) -> EngineResult {
    let span = format!("{}.run", config.name);
    let cba = u64::from(config.use_cba);
    let (mut run, _span) = EngineRun::new(&span, design, &[("cba", cba)], options, cancel);
    let telemetry = run.telemetry();
    let mut space = StateSpace::new(design.num_latches(), &run);
    // `ℐ_j` column conjunctions, persisted across bounds (1-based index j).
    let mut columns: Vec<aig::Lit> = Vec::new();

    if let Some(status) = run.depth0(design, bad_index) {
        return run.finish_status(status);
    }

    let mut abstraction = if config.use_cba {
        Abstraction::initial(design, bad_index)
    } else {
        Abstraction::full(design)
    };
    run.stats.visible_latches = abstraction.num_visible();
    let abstract_model = |abstraction: &Abstraction| {
        let (model, model_to_concrete) = abstraction.abstract_model(design, bad_index);
        (Arc::new(model), model_to_concrete)
    };
    let mut current = abstract_model(&abstraction);
    // The unrolling caches of the current model (reset-state and
    // state-set); dropped on refinement (the abstract model — and with it
    // every frame encoding — changes).
    let mut cache: Option<CachedUnrolling> = None;
    let mut set_cache: Option<CachedUnrolling> = None;

    for k in 1..=options.max_bound {
        if run.should_stop() {
            return run.give_up(k - 1);
        }
        let _bound = telemetry.span_args("bound", || vec![("k", ArgValue::U64(k as u64))]);
        run.set_bound(k);

        // Bounded check at bound k (on the abstract model when CBA is on),
        // interleaved with abstraction refinement.  The reset-state
        // unrolling comes from the per-model cache, so only the new frame
        // is Tseitin-encoded when the bound grows.
        let (frame_latches, solver) = loop {
            let (model, _) = &current;
            // The abstract model carries exactly one bad-state literal —
            // the copy of `bad_index` — at index 0 (passing the concrete
            // index here panicked on every property but the first).
            let cached = cache.get_or_insert_with(|| {
                CachedUnrolling::new(Arc::clone(model), 0, options.check, InitKind::Reset)
            });
            let instance = cached.instance(k, None, &mut run.stats, telemetry);
            let (result, solver) = run.solve_check(&instance.check, true, &[]);
            match result {
                SolveResult::Unsat => break (instance.frame_latches, solver),
                SolveResult::Interrupted => return run.give_up(k - 1),
                SolveResult::Sat => {
                    if !config.use_cba || abstraction.is_complete(design) {
                        // The model is (behaviourally) the design here: CBA
                        // only falsifies through this path once complete,
                        // and its inputs then coincide with the design's.
                        // The trace is this check's model.
                        let cert = options
                            .certificates
                            .then(|| Certificate::Trace(cached.trace(k, &solver)));
                        return run.finish(Verdict::Falsified { depth: k }, cert);
                    }
                    drop(solver);
                    match extend_or_refine(&mut run, design, bad_index, k, &mut abstraction) {
                        ExtendOutcome::ConcreteCounterexample(trace) => {
                            let cert = trace.map(Certificate::Trace);
                            return run.finish(Verdict::Falsified { depth: k }, cert);
                        }
                        ExtendOutcome::Cancelled => return run.give_up(k - 1),
                        ExtendOutcome::Refined => {
                            run.stats.refinements += 1;
                            run.stats.visible_latches = abstraction.num_visible();
                            telemetry.instant_args("refine", || {
                                vec![
                                    ("k", ArgValue::U64(k as u64)),
                                    (
                                        "visible_latches",
                                        ArgValue::U64(abstraction.num_visible() as u64),
                                    ),
                                ]
                            });
                            current = abstract_model(&abstraction);
                            cache = None;
                            set_cache = None;
                        }
                    }
                }
            }
            if run.should_stop() {
                return run.give_up(k);
            }
        };

        // Interpolation sequence for this bound.
        let (model, model_to_concrete) = &current;
        let mut concrete_to_model = vec![usize::MAX; design.num_latches()];
        for (model_latch, &concrete) in model_to_concrete.iter().enumerate() {
            concrete_to_model[concrete] = model_latch;
        }
        let interpolate =
            telemetry.span_args("interpolate", || vec![("k", ArgValue::U64(k as u64))]);
        let maps = LatchMaps {
            model_to_concrete,
            concrete_to_model: &concrete_to_model,
        };
        let set_cache = set_cache.get_or_insert_with(|| {
            CachedUnrolling::new(Arc::clone(model), 0, options.check, InitKind::Set)
        });
        let full_proof = solver.proof_view().expect("unsat result has a proof");
        let sequence = match compute_sequence(
            &mut run,
            &maps,
            set_cache,
            k,
            config.alpha_serial,
            &mut space,
            &frame_latches,
            full_proof,
        ) {
            Ok(sequence) => sequence,
            Err(reason) => {
                let verdict = Verdict::Inconclusive {
                    reason,
                    bound_reached: k,
                };
                return run.finish(verdict, None);
            }
        };
        drop(solver);
        interpolate.end();

        // Column conjunctions and fixed-point checks (Fig. 2's inner loop).
        let initial_lits: Vec<aig::Lit> = (0..model.num_latches())
            .map(|i| {
                space
                    .latch(model_to_concrete[i])
                    .xor_complement(!model.init(i))
            })
            .collect();
        let r0 = space.manager_mut().and_many(initial_lits);
        match find_fixpoint(&mut space, &mut columns, &sequence, r0, &mut run.stats) {
            Ok(None) => {}
            Ok(Some((j, reached))) => {
                // `reached = R0 ∨ ℐ_1 ∨ … ∨ ℐ_{j-1}` is an inductive
                // invariant here: it contains the initial states, every
                // column excludes the bad states (its bound-j conjunct's B
                // side is exactly the bad target, and the bad cone's latch
                // support is visible in every abstraction), R0's visible
                // reset values are bad-free by the depth-0 check, and the
                // image of each disjunct lands in the next column — which
                // the fixpoint folds back into `reached`.
                let cert = options.certificates.then(|| {
                    let _emit = telemetry.span("certificate.emit");
                    let identity: Vec<usize> = (0..design.num_latches()).collect();
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
            Err(Interrupted) => return run.give_up(k),
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
    use aig::builder::{latch_word, word_equals_const, word_increment};
    use workloads::counter::modular as modular_counter;

    fn gated_counter(width: usize) -> Aig {
        let mut aig = Aig::new();
        let en = aig::Lit::positive(aig.add_input());
        let (ids, bits) = latch_word(&mut aig, width, 0);
        let next = word_increment(&mut aig, &bits, en);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let bad = word_equals_const(&mut aig, &bits, (1 << width) - 1);
        aig.add_bad(bad);
        aig
    }

    /// A design whose bad state at depth 2 also needs a primary input
    /// that only the bad cone reads: under exact-k, frame 2's copy of it
    /// exists only in the check's detached tail.  Both sequence engines
    /// falsify it with a trace read off the deciding check that replays
    /// to the bad state, and without a second solve: the depth-0 query,
    /// one query per bound and the containment queries are every SAT call.
    #[test]
    fn falsifying_traces_come_from_the_deciding_check() {
        let mut design = Aig::new();
        let trigger = aig::Lit::positive(design.add_input());
        let (ids, bits) = latch_word(&mut design, 2, 0);
        let next = word_increment(&mut design, &bits, aig::Lit::TRUE);
        for (id, n) in ids.iter().zip(next.iter()) {
            design.set_next(*id, *n);
        }
        let at_two = word_equals_const(&mut design, &bits, 2);
        let bad = design.and(at_two, trigger);
        design.add_bad(bad);
        for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
            for engine in [Engine::ItpSeq, Engine::SerialItpSeq] {
                let context = format!("{} {check:?}", engine.name());
                let options = Options::default().with_check(check);
                let result = engine.dispatch(&design, 0, &options, &CancelToken::new());
                assert_eq!(result.verdict, Verdict::Falsified { depth: 2 }, "{context}");
                let Some(Certificate::Trace(inputs)) = &result.certificate else {
                    panic!("{context}: a falsified run carries its trace");
                };
                assert_eq!(inputs.len(), 3, "{context}");
                assert!(aig::simulate(&design, inputs).bad[2][0], "{context}");
                let stats = &result.stats;
                assert_eq!(
                    stats.sat_calls,
                    1 + 2 + stats.containment_calls,
                    "{context}"
                );
            }
        }
    }

    /// A containment check the run budget stops ends the fixpoint search
    /// with `Interrupted` (which the run reports as `Inconclusive` with
    /// the budget's reason), where an unstopped budget finds the fixpoint.
    #[test]
    fn interrupted_containment_finds_no_fixpoint() {
        let options = Options::default();
        let find = |cancel: &CancelToken| {
            let (run, _span) = EngineRun::new("ITPSEQ.run", &Aig::new(), &[], &options, cancel);
            let mut space = StateSpace::new(3, &run);
            let (a, b, c) = (space.latch(0), space.latch(1), space.latch(2));
            let r0 = space.and(!a, !b);
            // ℐ_1 ⊆ R_0, so j = 1 is a fixpoint.
            let itp = space.and(r0, !c);
            let mut stats = EngineStats::default();
            let found = find_fixpoint(&mut space, &mut Vec::new(), &[itp], r0, &mut stats);
            (found.map(|f| f.map(|(j, _)| j)), run.stop_reason())
        };
        assert_eq!(find(&CancelToken::new()).0, Ok(Some(1)));
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_eq!(find(&cancelled), (Err(Interrupted), StopReason::Cancelled));
    }

    /// Raises a shared memory budget past its limit when the first
    /// containment query starts, so only that query can see the stop.
    struct ExhaustAtFirstContain {
        budget: sat::MemoryBudget,
        registered: std::sync::Mutex<u64>,
    }

    impl telemetry::TelemetrySink for ExhaustAtFirstContain {
        fn record(&self, event: telemetry::Event) {
            if event.kind == telemetry::EventKind::Begin && event.name == "contain" {
                let mut registered = self.registered.lock().expect("unpoisoned");
                self.budget
                    .update(&mut registered, self.budget.limit().saturating_add(1));
            }
        }
    }

    /// The containment solver shares the run's memory budget: exhausting
    /// it at the first fixpoint check turns a proof into a `memlimit` stop.
    #[test]
    fn containment_queries_are_memory_governed() {
        let design = modular_counter(3, 6, 7);
        let verify =
            |options: &Options| Engine::ItpSeq.dispatch(&design, 0, options, &CancelToken::new());
        let clean = verify(&Options::default());
        assert!(clean.verdict.is_proved(), "{}", clean.verdict);
        assert!(clean.stats.containment_calls > 0);

        let options = Options::default().with_memory_limit(1 << 30);
        let sink = ExhaustAtFirstContain {
            budget: options.memory_limit.clone().expect("limit set"),
            registered: std::sync::Mutex::new(0),
        };
        let options = options.with_telemetry(telemetry::Telemetry::new(std::sync::Arc::new(sink)));
        let stopped = verify(&options);
        assert!(
            matches!(
                stopped.verdict,
                Verdict::Inconclusive {
                    reason: StopReason::MemLimit,
                    ..
                }
            ),
            "{}",
            stopped.verdict
        );
        assert_eq!(stopped.stats.containment_calls, 1);
    }

    /// The cached unrolling must reproduce the scratch instance *exactly*:
    /// same clauses in the same order with the same partition labels and
    /// variable numbering — that is what keeps proofs, interpolants and
    /// therefore every reported `k_fp`/`j_fp` bit-identical to the
    /// pre-cache engine.
    #[test]
    fn cached_instances_are_bit_identical_to_scratch_builds() {
        let designs = [modular_counter(3, 6, 7), gated_counter(3)];
        let telemetry = Telemetry::off();
        for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
            for design in &designs {
                let mut cache =
                    CachedUnrolling::new(Arc::new(design.clone()), 0, check, InitKind::Reset);
                let mut stats = EngineStats::default();
                for k in 1..=6usize {
                    let cached = cache.instance(k, None, &mut stats, &telemetry);
                    let (cnf, frame_latches) = build_instance(design, 0, k, 0, k, check, None);
                    assert_eq!(
                        cached.check.to_cnf(),
                        cnf,
                        "{check:?} bound {k}: clauses must match exactly"
                    );
                    assert_eq!(
                        cached.frame_latches, frame_latches,
                        "{check:?} bound {k}: frame maps must match exactly"
                    );
                }
            }
        }
    }

    /// Random state sets over the latches of `space`, all in its one
    /// manager: constants, single latches and and/or combinations.
    fn random_sets(space: &mut StateSpace, seed: u64, count: usize) -> Vec<aig::Lit> {
        let mut state = seed;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut sets = vec![aig::Lit::FALSE, aig::Lit::TRUE];
        sets.extend((0..space.num_latches()).map(|i| space.latch(i)));
        while sets.len() < count {
            let x = sets[next(sets.len())].xor_complement(next(2) == 1);
            let y = sets[next(sets.len())].xor_complement(next(2) == 1);
            let set = if next(2) == 0 {
                space.and(x, y)
            } else {
                space.or(x, y)
            };
            sets.push(set);
        }
        sets
    }

    /// Every state-set instance cut from the `Set` cache is the scratch
    /// instance: requests in the engine's order (the serial steps' `t`
    /// falling within a bound, the bound rising), random sets of one
    /// manager, and a fresh cache after a simulated refinement that jumps
    /// straight to a deep bound.
    #[test]
    fn set_instances_are_bit_identical_to_scratch_builds() {
        let mut designs = vec![modular_counter(3, 6, 7), gated_counter(3)];
        designs.extend(
            workloads::suite::full()
                .into_iter()
                .filter(|b| b.aig.num_latches() <= 12)
                .take(3)
                .map(|b| b.aig),
        );
        let telemetry = Telemetry::off();
        let options = Options::default();
        for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
            for (index, design) in designs.iter().enumerate() {
                let (run, _span) =
                    EngineRun::new("SITPSEQ.run", design, &[], &options, &CancelToken::new());
                let n = design.num_latches();
                let identity: Vec<usize> = (0..n).collect();
                let mut space = StateSpace::new(n, &run);
                let sets = random_sets(&mut space, 0x9e37_79b9 + index as u64, 40);
                let mut stats = EngineStats::default();
                let mut cache =
                    CachedUnrolling::new(Arc::new(design.clone()), 0, check, InitKind::Set);
                let mut pick = 0;
                for bound in 2..=7usize {
                    if bound == 5 {
                        // A refinement drops the cache; the next request
                        // starts the new one at depth.
                        cache =
                            CachedUnrolling::new(Arc::new(design.clone()), 0, check, InitKind::Set);
                    }
                    for t in (1..bound).rev() {
                        let set = sets[pick % sets.len()];
                        pick += 7;
                        let request = Some((&space, set, identity.as_slice()));
                        let cached = cache.instance(t, request, &mut stats, &telemetry);
                        let (cnf, frame_latches) =
                            build_instance(design, 0, t, bound - t, bound, check, request);
                        assert_eq!(cached.check.to_cnf(), cnf, "{check:?} k={bound} t={t}");
                        assert_eq!(
                            cached.frame_latches, frame_latches,
                            "{check:?} k={bound} t={t}"
                        );
                    }
                }
            }
        }
    }

    /// Re-requesting the same bound (the CBA refinement loop does this)
    /// must not grow the cache or change the instance.
    #[test]
    fn repeated_instances_at_one_bound_are_stable() {
        let design = modular_counter(3, 6, 7);
        let telemetry = Telemetry::off();
        for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
            let mut cache =
                CachedUnrolling::new(Arc::new(design.clone()), 0, check, InitKind::Reset);
            let mut stats = EngineStats::default();
            let first = cache
                .instance(4, None, &mut stats, &telemetry)
                .check
                .to_cnf();
            let clauses_after_first = cache.unroller.num_clauses();
            let second = cache
                .instance(4, None, &mut stats, &telemetry)
                .check
                .to_cnf();
            assert_eq!(cache.unroller.num_clauses(), clauses_after_first);
            assert_eq!(first, second, "{check:?}");
        }
    }

    /// Growing bound-by-bound and jumping straight to `k` (a fresh cache
    /// after a refinement) must produce the same instance.
    #[test]
    fn incremental_growth_matches_fresh_growth() {
        let design = gated_counter(3);
        let telemetry = Telemetry::off();
        for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
            let mut grown =
                CachedUnrolling::new(Arc::new(design.clone()), 0, check, InitKind::Reset);
            let mut stats = EngineStats::default();
            for k in 1..=5usize {
                let _ = grown.instance(k, None, &mut stats, &telemetry);
            }
            let mut fresh =
                CachedUnrolling::new(Arc::new(design.clone()), 0, check, InitKind::Reset);
            let a = grown
                .instance(5, None, &mut stats, &telemetry)
                .check
                .to_cnf();
            let b = fresh
                .instance(5, None, &mut stats, &telemetry)
                .check
                .to_cnf();
            assert_eq!(a, b, "{check:?}");
        }
    }
}
