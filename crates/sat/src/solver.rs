//! The CDCL search engine.
//!
//! The hot paths run on a flat [`ClauseArena`]: watcher lists carry
//! *blocker literals* (a cached literal whose truth lets propagation skip
//! the clause without touching its memory) and a binary-clause fast path
//! (the watcher itself holds the other literal, so two-literal clauses
//! propagate without any clause access at all).  Learned clauses are
//! tagged with their LBD ("glue") at learn time, shrunk by recursive
//! minimization before backjumping, and periodically retired by a
//! proof-aware database reduction — clauses referenced by recorded
//! resolution [`Chain`]s are pinned while proof logging is on, so
//! interpolant extraction keeps working after any number of reductions.

use crate::arena::{ClauseArena, ClauseRef, NO_PROOF_ID};
use crate::govern::{FaultKind, FaultPlan, FaultSite, MemoryBudget, Registered};
use crate::luby::luby;
use crate::proof::{Chain, Proof, ProofView};
use cnf::{Cnf, Lit, Var};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Default conflict spacing of [`ProgressProbe`] samples.
pub const DEFAULT_PROBE_INTERVAL: u64 = 2048;

/// A periodic observer of the search: the callback receives a
/// [`SolverStats`] snapshot every `interval` conflicts.
///
/// The probe keeps the solver free of any dependency on the telemetry
/// layer — the model checker installs a closure that republishes the
/// snapshots as trace events.  The callback runs on the searching thread
/// and must be cheap; it fires at conflict granularity, never from the
/// propagation inner loop.  Clones of a solver share the probe (it is an
/// `Arc`), mirroring how they share the interrupt flag.
#[derive(Clone)]
pub struct ProgressProbe {
    callback: Arc<dyn Fn(&SolverStats) + Send + Sync>,
    interval: u64,
}

impl ProgressProbe {
    /// Wraps `callback` to fire every `interval` conflicts (an interval
    /// of 0 is promoted to 1).
    pub fn new(
        interval: u64,
        callback: impl Fn(&SolverStats) + Send + Sync + 'static,
    ) -> ProgressProbe {
        ProgressProbe {
            callback: Arc::new(callback),
            interval: interval.max(1),
        }
    }

    /// The conflict spacing between samples.
    pub fn interval(&self) -> u64 {
        self.interval
    }
}

impl fmt::Debug for ProgressProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProgressProbe(every {} conflicts)", self.interval)
    }
}

/// Result of a satisfiability query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment exists; read it with [`Solver::model`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The search was stopped before an answer was found — either the
    /// shared interrupt flag ([`Solver::set_interrupt`]) was raised or the
    /// per-call conflict budget ([`Solver::set_conflict_limit`]) ran out.
    ///
    /// The solver stays usable: a later call without the interruption can
    /// still answer `Sat` or `Unsat`.  Models, cores and proofs are *not*
    /// meaningful after an interrupted call.
    Interrupted,
}

/// Aggregate search statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses.
    pub learned: u64,
    /// Learned clauses deleted — by the periodic LBD-driven database
    /// reduction and by the root-satisfied sweep
    /// ([`Solver::remove_root_satisfied`]).
    pub learned_deleted: u64,
    /// Literals removed from learned clauses by recursive minimization
    /// before backjumping.
    pub minimized_literals: u64,
    /// Learned-clause database reduction passes performed.
    pub db_reductions: u64,
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, other: SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learned += other.learned;
        self.learned_deleted += other.learned_deleted;
        self.minimized_literals += other.minimized_literals;
        self.db_reductions += other.db_reductions;
    }
}

impl std::ops::Sub for SolverStats {
    type Output = SolverStats;

    /// Per-query deltas: `after - before` of a monotonically growing
    /// counter snapshot.
    fn sub(self, other: SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts - other.conflicts,
            decisions: self.decisions - other.decisions,
            propagations: self.propagations - other.propagations,
            restarts: self.restarts - other.restarts,
            learned: self.learned - other.learned,
            learned_deleted: self.learned_deleted - other.learned_deleted,
            minimized_literals: self.minimized_literals - other.minimized_literals,
            db_reductions: self.db_reductions - other.db_reductions,
        }
    }
}

/// How many conflicts-or-decisions pass between two polls of the shared
/// interrupt flag during search.
pub const INTERRUPT_CHECK_INTERVAL: u64 = 64;

/// Live learned clauses that trigger the first database reduction (the
/// default argument behind [`Solver::set_reduce_interval`]).  The
/// reproduction's workloads issue thousands of *small* incremental queries
/// rather than one giant search, so the schedule starts far earlier than
/// a standalone solver's would.
pub const DEFAULT_REDUCE_FIRST: u64 = 30;

/// Growth of the reduction trigger after each pass.
const REDUCE_INC: u64 = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// One watch-list entry.  `blocker` is some other literal of the clause:
/// if it is already true the clause is satisfied and propagation skips it
/// without touching clause memory.  For `binary` clauses the blocker *is*
/// the only other literal, so the clause body is never read at all.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
    binary: bool,
}

#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    activity: f64,
    var: Var,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.activity == other.activity && self.var == other.var
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.activity
            .partial_cmp(&other.activity)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.var.cmp(&other.var))
    }
}

/// The resolution chains recorded while proof logging is on, indexed by
/// proof-clause id (`None` for original clauses).  Clause bodies live in
/// the arena; deleted clauses drop their chains.  [`Solver::proof_view`]
/// reads both in place, and [`Solver::proof`] renumbers the survivors
/// densely on export.
#[derive(Clone, Debug, Default)]
struct ProofRecorder {
    chains: Vec<Option<Chain>>,
}

impl ProofRecorder {
    fn register_original(&mut self) -> u32 {
        self.chains.push(None);
        (self.chains.len() - 1) as u32
    }

    fn register_learned(&mut self, chain: Chain) -> u32 {
        self.chains.push(Some(chain));
        (self.chains.len() - 1) as u32
    }
}

/// A conflict-driven clause-learning SAT solver with proof logging.
///
/// See the crate-level documentation for an overview and an example.
#[derive(Clone, Debug)]
pub struct Solver {
    arena: ClauseArena,
    /// Live clauses (original plus learned, minus deleted).
    num_clauses: usize,
    /// Live learned clauses (the reduction trigger).
    learned_live: u64,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    /// Trail index of each assigned variable (stale when unassigned);
    /// orders the resolution steps of proof-exact clause minimization.
    trail_pos: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: BinaryHeap<HeapEntry>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Variables whose `seen` bit is set during conflict analysis.
    to_clear: Vec<usize>,
    /// DFS stack of the recursive-minimization redundancy check.
    min_stack: Vec<Var>,
    /// Scratch marks of the chain-extension pass (0 none, 1 kept,
    /// 2 queued for elimination).
    cmark: Vec<u8>,
    /// Per-decision-level stamps for LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    ok: bool,
    proof: Option<ProofRecorder>,
    final_chain: Option<Chain>,
    assumption_core: Vec<Lit>,
    stats: SolverStats,
    status: Option<SolveResult>,
    /// Cooperative cancellation flag, checked periodically during search.
    /// Cloned solvers share the flag, so one `cancel` stops a whole family
    /// of worker clones.
    interrupt: Option<Arc<AtomicBool>>,
    /// Per-call conflict budget; `None` means unlimited.
    conflict_limit: Option<u64>,
    /// Periodic statistics observer; clones share it like the interrupt
    /// flag.
    probe: Option<ProgressProbe>,
    /// Conflict count at which the probe fires next.
    probe_next: u64,
    /// Learned-clause count that triggers the next database reduction;
    /// `None` disables reduction.
    reduce_limit: Option<u64>,
    /// Shared memory budget ([`Solver::set_memory_budget`]); the solver
    /// folds its estimated footprint into the shared total at the same
    /// cadence as the interrupt check.
    mem_budget: Option<MemoryBudget>,
    /// Bytes this solver has registered with `mem_budget`; clones reset
    /// to 0 so only the solver that registered bytes releases them.
    mem_registered: Registered,
    /// Deterministic fault injector; unarmed (free) in production.
    faults: FaultPlan,
    /// An injected spurious interrupt from an allocation-site fault,
    /// consumed at the next cancellation point.
    injected_stop: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with proof logging enabled.
    pub fn new() -> Solver {
        Solver {
            arena: ClauseArena::default(),
            num_clauses: 0,
            learned_live: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            trail_pos: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: BinaryHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            to_clear: Vec::new(),
            min_stack: Vec::new(),
            cmark: Vec::new(),
            lbd_stamp: vec![0],
            lbd_counter: 0,
            ok: true,
            proof: Some(ProofRecorder::default()),
            final_chain: None,
            assumption_core: Vec::new(),
            stats: SolverStats::default(),
            status: None,
            interrupt: None,
            conflict_limit: None,
            probe: None,
            probe_next: 0,
            reduce_limit: Some(DEFAULT_REDUCE_FIRST),
            mem_budget: None,
            mem_registered: Registered(0),
            faults: FaultPlan::none(),
            injected_stop: false,
        }
    }

    /// Enables or disables resolution-proof logging (default: enabled).
    ///
    /// With logging off no chains are recorded, [`Solver::proof`] returns
    /// `None`, and database reduction is unrestricted; engines that only
    /// need SAT/UNSAT answers (IC3/PDR, incremental BMC) run measurably
    /// lighter this way.
    ///
    /// # Panics
    ///
    /// Panics when called after a clause has been added — a half-logged
    /// clause database could not produce a checkable proof.
    pub fn set_proof_logging(&mut self, enabled: bool) {
        assert!(
            self.arena.is_empty(),
            "proof logging must be configured before clauses are added"
        );
        self.proof = if enabled {
            Some(ProofRecorder::default())
        } else {
            None
        };
    }

    /// Returns `true` while resolution proofs are being recorded.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// Sets the learned-clause count that triggers the next database
    /// reduction pass (`None` disables reduction).  Each pass raises the
    /// trigger, so the database still grows — just sublinearly in the
    /// conflict count.
    pub fn set_reduce_interval(&mut self, first: Option<u64>) {
        self.reduce_limit = first;
    }

    /// Installs (or clears) a shared interrupt flag.
    ///
    /// While the flag reads `true`, [`Solver::solve_with_assumptions`]
    /// returns [`SolveResult::Interrupted`] at the next cancellation point
    /// (every `INTERRUPT_CHECK_INTERVAL` conflicts-or-decisions).  The
    /// flag is shared: clones of this solver observe the same cancellation.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Installs (or clears) a periodic statistics observer; see
    /// [`ProgressProbe`].  The first sample fires one interval after
    /// installation.
    pub fn set_progress_probe(&mut self, probe: Option<ProgressProbe>) {
        self.probe_next = match &probe {
            Some(p) => self.stats.conflicts + p.interval(),
            None => 0,
        };
        self.probe = probe;
    }

    /// Caps the number of conflicts a single solve call may spend before
    /// giving up with [`SolveResult::Interrupted`]; `None` removes the cap.
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Installs (or clears) a shared [`MemoryBudget`].
    ///
    /// The solver registers its estimated footprint with the budget
    /// immediately and re-registers at the interrupt-check cadence; once
    /// the *aggregate* across every solver sharing the budget exceeds the
    /// limit, solve calls answer [`SolveResult::Interrupted`] and the
    /// budget records a hit.  Dropping the solver (or clearing the budget)
    /// releases its registered bytes.
    pub fn set_memory_budget(&mut self, budget: Option<MemoryBudget>) {
        if let Some(old) = &self.mem_budget {
            old.release(&mut self.mem_registered.0);
        }
        self.mem_budget = budget;
        let now = self.estimated_bytes();
        if let Some(new) = &self.mem_budget {
            new.update(&mut self.mem_registered.0, now);
        }
    }

    /// Installs a fault-injection plan ([`FaultPlan`]); the default plan
    /// is unarmed.  Clones of the plan (across solvers of one run) share
    /// the countdown, so the configured fault fires exactly once.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// O(1) estimate of this solver's heap footprint in bytes: the clause
    /// arena's reserved capacity, two watchers per clause, and the
    /// per-variable bookkeeping (assignment, trail, activities, watch-list
    /// headers, heap entries).
    pub fn estimated_bytes(&self) -> u64 {
        const PER_VAR: u64 = 96;
        let arena = self.arena.bytes() as u64;
        let watchers = self.num_clauses as u64 * 2 * std::mem::size_of::<Watcher>() as u64;
        let vars = self.assign.len() as u64 * PER_VAR;
        arena + watchers + vars
    }

    /// Re-registers the current footprint with the shared budget; `true`
    /// when the aggregate is over the limit (the solve stops with
    /// [`SolveResult::Interrupted`] and the budget records a hit).
    fn memory_exceeded(&mut self) -> bool {
        if self.mem_budget.is_none() {
            return false;
        }
        let now = self.estimated_bytes();
        let budget = self.mem_budget.as_ref().expect("checked above");
        budget.update(&mut self.mem_registered.0, now);
        if budget.exceeded() {
            budget.record_hit();
            return true;
        }
        false
    }

    /// The `Alloc` fault-injection site: one tick per clause allocation
    /// (original and learned).  A panic/alloc-failure fault unwinds from
    /// here; a spurious interrupt is deferred to the next cancellation
    /// point, since clause addition has no `Interrupted` answer.
    fn fault_alloc(&mut self) {
        if let Some(kind) = self.faults.tick(FaultSite::Alloc) {
            match kind {
                FaultKind::Panic => panic!("injected fault: panic at clause allocation"),
                FaultKind::AllocFail => panic!("injected fault: allocation failure"),
                FaultKind::Interrupt => self.injected_stop = true,
            }
        }
    }

    #[inline]
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(AtomicOrdering::Acquire))
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.trail_pos.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.cmark.push(0);
        self.lbd_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.push(HeapEntry {
            activity: 0.0,
            var: v,
        });
        v
    }

    /// Ensures that variables `0..count` exist, growing every
    /// per-variable array once.
    pub fn ensure_vars(&mut self, count: u32) {
        let missing = count.saturating_sub(self.num_vars()) as usize;
        if missing == 0 {
            return;
        }
        self.assign.reserve(missing);
        self.level.reserve(missing);
        self.trail_pos.reserve(missing);
        self.reason.reserve(missing);
        self.activity.reserve(missing);
        self.phase.reserve(missing);
        self.seen.reserve(missing);
        self.cmark.reserve(missing);
        self.lbd_stamp.reserve(missing);
        self.watches.reserve(2 * missing);
        self.heap.reserve(missing);
        while (self.assign.len() as u32) < count {
            self.new_var();
        }
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> u32 {
        self.assign.len() as u32
    }

    /// Number of live clauses (original plus learned, minus those retired
    /// by database reduction or the root-satisfied sweep).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// VSIDS activities and saved phases of the first `upto` variables,
    /// plus the current activity increment — everything needed to warm-
    /// start a rebuilt solver (see `IncrementalSolver` recycling).
    pub(crate) fn heuristics(&self, upto: u32) -> (Vec<f64>, Vec<bool>, f64) {
        let n = (upto as usize).min(self.activity.len());
        (
            self.activity[..n].to_vec(),
            self.phase[..n].to_vec(),
            self.var_inc,
        )
    }

    /// Transplants heuristic state captured by [`Solver::heuristics`].
    pub(crate) fn restore_heuristics(&mut self, activity: &[f64], phase: &[bool], var_inc: f64) {
        self.var_inc = var_inc;
        for (v, &a) in activity.iter().enumerate() {
            if v < self.activity.len() {
                self.activity[v] = a;
                self.heap.push(HeapEntry {
                    activity: a,
                    var: Var::new(v as u32),
                });
            }
        }
        for (v, &p) in phase.iter().enumerate() {
            if v < self.phase.len() {
                self.phase[v] = p;
            }
        }
    }

    /// Adds a clause belonging to interpolation partition `partition`
    /// (use 0 when the clause takes no part in interpolation).
    ///
    /// Variables referenced by the literals are allocated on demand.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I, partition: u32) {
        let lits: Vec<Lit> = lits.into_iter().collect();
        self.ensure_clause_vars(&lits);
        if !self.ok {
            return;
        }
        // Clauses are always installed at the root level so that the watch
        // set-up below sees a consistent (level-0) partial assignment.
        self.backtrack(0);
        self.install(&lits, partition);
    }

    /// Adds every clause of a [`Cnf`], preserving the partition labels, in
    /// one [`bulk_load`](Self::bulk_load).
    pub fn add_cnf(&mut self, cnf: &Cnf) {
        let lits = cnf.clauses.iter().map(|c| c.lits.len()).sum();
        let mut load = self.bulk_load(cnf.num_vars, cnf.clauses.len(), lits);
        for clause in &cnf.clauses {
            load.add_clause(&clause.lits, clause.partition);
        }
    }

    /// Starts loading a formula of `num_vars` variables and `clauses`
    /// clauses with `lits` literals in total.  The variables, the clause
    /// arena and the root-level backtrack are sized and done once here,
    /// and the memory budget is charged once when the returned loader is
    /// dropped; each clause then goes from its slice straight into the
    /// arena.  The result is the same solver state, proof ids included,
    /// as adding the clauses one by one with [`add_clause`](Self::add_clause),
    /// and each clause still ticks the `Alloc` fault site once.
    pub fn bulk_load(&mut self, num_vars: u32, clauses: usize, lits: usize) -> BulkLoad<'_> {
        self.ensure_vars(num_vars);
        self.backtrack(0);
        self.arena.reserve(clauses, lits);
        BulkLoad { solver: self }
    }

    fn ensure_clause_vars(&mut self, lits: &[Lit]) {
        if let Some(max) = lits.iter().map(|l| l.var().index()).max() {
            if max >= self.num_vars() {
                self.ensure_vars(max + 1);
            }
        }
    }

    /// Installs an original clause; the solver is consistent and at the
    /// root level, and every variable of `lits` exists.
    fn install(&mut self, lits: &[Lit], partition: u32) {
        self.fault_alloc();
        let pid = match &mut self.proof {
            Some(recorder) => recorder.register_original(),
            None => NO_PROOF_ID,
        };
        let cref = self.arena.alloc(lits, false, partition, pid);
        self.num_clauses += 1;
        self.attach_clause(cref);
    }

    /// Chain of the root-level conflict `confl`, recorded only while proof
    /// logging is on.
    fn record_final_chain(&mut self, confl: ClauseRef) {
        if self.proof.is_some() {
            self.final_chain = Some(self.final_chain_from(confl));
        }
    }

    fn attach_clause(&mut self, cref: ClauseRef) {
        let size = self.arena.size(cref);
        if size == 0 {
            self.ok = false;
            if self.proof.is_some() {
                self.final_chain = Some(Chain {
                    start: self.arena.proof_id(cref) as usize,
                    steps: Vec::new(),
                });
            }
            return;
        }
        if size == 1 {
            let l = self.arena.lit(cref, 0);
            match self.value_lit(l) {
                LBool::True => {}
                LBool::Undef => self.enqueue(l, Some(cref)),
                LBool::False => {
                    self.ok = false;
                    self.record_final_chain(cref);
                }
            }
            return;
        }
        // Move two non-false literals to the watch positions when possible.
        let mut first_free = None;
        let mut second_free = None;
        for i in 0..size {
            if self.value_lit(self.arena.lit(cref, i)) != LBool::False {
                if first_free.is_none() {
                    first_free = Some(i);
                } else {
                    second_free = Some(i);
                    break;
                }
            }
        }
        match (first_free, second_free) {
            (None, _) => {
                self.ok = false;
                self.record_final_chain(cref);
            }
            (Some(a), None) => {
                self.arena.swap_lits(cref, 0, a);
                self.watch_clause(cref);
                let first = self.arena.lit(cref, 0);
                if self.value_lit(first) == LBool::Undef {
                    self.enqueue(first, Some(cref));
                }
            }
            (Some(a), Some(b)) => {
                // The ascending scan guarantees a < b, so the first swap
                // (0 ↔ a) cannot displace the literal at b.
                self.arena.swap_lits(cref, 0, a);
                self.arena.swap_lits(cref, 1, b);
                self.watch_clause(cref);
            }
        }
    }

    /// Installs watchers for positions 0 and 1, each blocked by the other.
    fn watch_clause(&mut self, cref: ClauseRef) {
        let l0 = self.arena.lit(cref, 0);
        let l1 = self.arena.lit(cref, 1);
        let binary = self.arena.size(cref) == 2;
        self.watches[l0.code() as usize].push(Watcher {
            cref,
            blocker: l1,
            binary,
        });
        self.watches[l1.code() as usize].push(Watcher {
            cref,
            blocker: l0,
            binary,
        });
    }

    /// Removes the two watchers of a clause (positions 0 and 1).
    fn detach_clause(&mut self, cref: ClauseRef) {
        for pos in 0..2 {
            let lit = self.arena.lit(cref, pos);
            let list = &mut self.watches[lit.code() as usize];
            let at = list
                .iter()
                .position(|w| w.cref == cref)
                .expect("watched clause is in both watch lists");
            list.swap_remove(at);
        }
    }

    #[inline]
    fn value_var(&self, var: Var) -> LBool {
        self.assign[var.index() as usize]
    }

    #[inline]
    fn value_lit(&self, lit: Lit) -> LBool {
        match self.assign[lit.var().index() as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if lit.is_negative() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if lit.is_negative() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// Returns the value assigned to `var` by the most recent satisfiable
    /// call, or `None` when the variable is unassigned.  Variables the
    /// solver has never seen (allocated by a CNF builder but mentioned in
    /// no loaded clause — e.g. a pinned input outside every encoded cone)
    /// are unconstrained, hence unassigned.
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.assign.get(var.index() as usize) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            Some(LBool::Undef) | None => None,
        }
    }

    /// Returns the value of a literal under the current assignment.
    pub fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| v != lit.is_negative())
    }

    /// Returns a total model (unassigned variables default to `false`).
    ///
    /// Only meaningful after a [`SolveResult::Sat`] answer.
    pub fn model(&self) -> Vec<bool> {
        (0..self.num_vars())
            .map(|i| self.value(Var::new(i)).unwrap_or(false))
            .collect()
    }

    /// Returns the subset of the assumptions responsible for the last
    /// `Unsat` answer of [`Solver::solve_with_assumptions`].
    ///
    /// Empty when the formula is unsatisfiable regardless of assumptions.
    pub fn assumption_core(&self) -> &[Lit] {
        &self.assumption_core
    }

    /// Returns a borrowed view of the refutation derived by the last
    /// assumption-free `Unsat` answer, read in place from the clause arena
    /// and the recorded chains, or `None` when no refutation has been
    /// derived (or proof logging is off).  Interpolation reads this view;
    /// nothing is copied.
    pub fn proof_view(&self) -> Option<ProofView<'_>> {
        let recorder = self.proof.as_ref()?;
        let final_chain = self.final_chain.as_ref()?;
        Some(ProofView::of_arena(
            &self.arena,
            &recorder.chains,
            final_chain,
        ))
    }

    /// Exports the refutation of [`proof_view`](Self::proof_view) as an
    /// owned [`Proof`] (see [`ProofView::to_proof`]), for tests and for
    /// [`Proof::check`].
    pub fn proof(&self) -> Option<Proof> {
        self.proof_view().map(|view| view.to_proof())
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(lit), LBool::Undef);
        let v = lit.var().index() as usize;
        self.assign[v] = if lit.is_negative() {
            LBool::False
        } else {
            LBool::True
        };
        self.level[v] = self.decision_level() as u32;
        self.trail_pos[v] = self.trail.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let widx = false_lit.code() as usize;
            let mut i = 0;
            'watchers: while i < self.watches[widx].len() {
                let w = self.watches[widx][i];
                let blocker_value = self.value_lit(w.blocker);
                if blocker_value == LBool::True {
                    i += 1;
                    continue;
                }
                if w.binary {
                    // The blocker is the only other literal: conclude
                    // without reading clause memory.
                    if blocker_value == LBool::False {
                        self.qhead = self.trail.len();
                        return Some(w.cref);
                    }
                    self.enqueue(w.blocker, Some(w.cref));
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                let first = self.arena.lit(cref, 0);
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    self.watches[widx][i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let size = self.arena.size(cref);
                for j in 2..size {
                    let candidate = self.arena.lit(cref, j);
                    if self.value_lit(candidate) != LBool::False {
                        self.arena.swap_lits(cref, 1, j);
                        self.watches[widx].swap_remove(i);
                        self.watches[candidate.code() as usize].push(Watcher {
                            cref,
                            blocker: first,
                            binary: false,
                        });
                        continue 'watchers;
                    }
                }
                if self.value_lit(first) == LBool::False {
                    // Conflict.
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                // Unit clause: propagate `first`.
                self.enqueue(first, Some(cref));
                self.watches[widx][i].blocker = first;
                i += 1;
            }
        }
        None
    }

    fn bump_var(&mut self, var: Var) {
        let v = var.index() as usize;
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.push(HeapEntry {
            activity: self.activity[v],
            var,
        });
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
    }

    /// Pins a clause referenced by a recorded chain: while proof logging
    /// is on such clauses are exempt from database reduction, so the
    /// eventual [`Solver::proof`] export can still read their bodies.
    fn pin_for_proof(&mut self, cref: ClauseRef) {
        if self.proof.is_some() {
            self.arena.pin(cref);
        }
    }

    /// Number of distinct decision levels among `lits` (the clause's LBD
    /// or "glue"; level 0 counts like any other level).
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0;
        for l in lits {
            let lvl = self.level[l.var().index() as usize] as usize;
            // Already-satisfied assumptions open "dummy" decision levels
            // that assign no variable, so levels can exceed the variable
            // count the stamp array was sized for — grow it on demand.
            if lvl >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lvl + 1, 0);
            }
            if self.lbd_stamp[lvl] != stamp {
                self.lbd_stamp[lvl] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis; returns the learned clause (asserting
    /// literal first, minimized), the backtrack level, the clause LBD and
    /// — while proof logging is on — the resolution chain deriving it.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, usize, u32, Option<Chain>) {
        let current_level = self.decision_level() as u32;
        let mut learned: Vec<Lit> = vec![Lit::positive(Var::new(0))];
        let mut chain = self.proof.as_ref().map(|_| Chain {
            start: self.arena.proof_id(confl) as usize,
            steps: Vec::new(),
        });
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut clause_ref = confl;

        loop {
            self.pin_for_proof(clause_ref);
            if let (Some(pl), Some(chain)) = (p, chain.as_mut()) {
                chain
                    .steps
                    .push((pl.var(), self.arena.proof_id(clause_ref) as usize));
            }
            let size = self.arena.size(clause_ref);
            for i in 0..size {
                let q = self.arena.lit(clause_ref, i);
                if let Some(pl) = p {
                    if q.var() == pl.var() {
                        continue;
                    }
                }
                let v = q.var().index() as usize;
                if self.seen[v] {
                    continue;
                }
                self.seen[v] = true;
                self.to_clear.push(v);
                self.bump_var(q.var());
                if self.level[v] == current_level {
                    path_count += 1;
                } else {
                    // Literals below the current level (including level 0)
                    // stay in the learned clause here; minimization below
                    // removes the redundant ones with exact chain
                    // extension, so the recorded resolution stays valid.
                    learned.push(q);
                }
            }
            // Find the next current-level literal to resolve on.
            loop {
                index -= 1;
                let v = self.trail[index].var().index() as usize;
                if self.seen[v] && self.level[v] == current_level {
                    break;
                }
            }
            let pivot = self.trail[index];
            path_count -= 1;
            self.seen[pivot.var().index() as usize] = false;
            if path_count == 0 {
                learned[0] = !pivot;
                break;
            }
            p = Some(pivot);
            clause_ref = self.reason[pivot.var().index() as usize]
                .expect("propagated literal at current level has a reason");
        }

        let removed = self.minimize(&mut learned, chain.as_mut());
        self.stats.minimized_literals += removed;

        for v in self.to_clear.drain(..) {
            self.seen[v] = false;
        }

        // Determine the backtrack level and place a literal of that level at
        // position 1 so it can be watched.
        let backtrack_level = if learned.len() == 1 {
            0
        } else {
            let mut max_idx = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var().index() as usize]
                    > self.level[learned[max_idx].var().index() as usize]
                {
                    max_idx = i;
                }
            }
            learned.swap(1, max_idx);
            self.level[learned[1].var().index() as usize] as usize
        };
        let lbd = self.compute_lbd(&learned);
        (learned, backtrack_level, lbd, chain)
    }

    /// Recursive learned-clause minimization: removes every literal whose
    /// falsification is implied by the rest of the clause (its reason
    /// chain bottoms out in clause literals or level-0 facts).  When a
    /// chain is being recorded, the removals are appended to it as real
    /// resolution steps, so the recorded derivation stays exact.
    ///
    /// On entry `seen` marks exactly the variables of `learned[1..]`;
    /// speculative marks added by the redundancy DFS are registered in
    /// `to_clear` like the analysis marks.  Returns the number of removed
    /// literals.
    fn minimize(&mut self, learned: &mut Vec<Lit>, chain: Option<&mut Chain>) -> u64 {
        if learned.len() <= 1 {
            return 0;
        }
        let mut kept: Vec<Lit> = Vec::with_capacity(learned.len());
        let mut removed: Vec<Lit> = Vec::new();
        let (first, rest) = learned.split_first().expect("asserting literal present");
        kept.push(*first);
        for &l in rest {
            if self.lit_redundant(l) {
                removed.push(l);
            } else {
                kept.push(l);
            }
        }
        if removed.is_empty() {
            return 0;
        }
        if let Some(chain) = chain {
            self.extend_chain_for_removed(&kept, &removed, chain);
        }
        let count = removed.len() as u64;
        *learned = kept;
        count
    }

    /// Returns `true` when `p` (a falsified literal of the learned
    /// clause) is redundant: every path through the implication graph
    /// from its reason terminates in clause literals or level-0 facts.
    fn lit_redundant(&mut self, p: Lit) -> bool {
        let v0 = p.var().index() as usize;
        if self.level[v0] == 0 {
            return true;
        }
        if self.reason[v0].is_none() {
            return false;
        }
        self.min_stack.clear();
        self.min_stack.push(p.var());
        let top = self.to_clear.len();
        while let Some(v) = self.min_stack.pop() {
            let cref = self.reason[v.index() as usize].expect("stacked literals have reasons");
            let size = self.arena.size(cref);
            for i in 0..size {
                let q = self.arena.lit(cref, i);
                if q.var() == v {
                    continue;
                }
                let qv = q.var().index() as usize;
                if self.seen[qv] || self.level[qv] == 0 {
                    continue;
                }
                if self.reason[qv].is_none() {
                    // A decision or assumption outside the clause: `p` is
                    // not redundant.  Undo this check's speculative marks.
                    for &u in &self.to_clear[top..] {
                        self.seen[u] = false;
                    }
                    self.to_clear.truncate(top);
                    return false;
                }
                self.seen[qv] = true;
                self.to_clear.push(qv);
                self.min_stack.push(q.var());
            }
        }
        // Successful marks persist: those variables are now known-
        // redundant sources for the remaining checks (and are cleared
        // with the other analysis marks at the end of `analyze`).
        true
    }

    /// Appends to `chain` the resolution steps eliminating every removed
    /// literal (and whatever falsified literals their reasons introduce),
    /// in decreasing trail order so each step's pivot is present in the
    /// running resolvent.
    fn extend_chain_for_removed(&mut self, kept: &[Lit], removed: &[Lit], chain: &mut Chain) {
        const KEPT: u8 = 1;
        const QUEUED: u8 = 2;
        let mut marked: Vec<usize> = Vec::with_capacity(kept.len() + removed.len());
        for l in kept {
            let v = l.var().index() as usize;
            self.cmark[v] = KEPT;
            marked.push(v);
        }
        // Max-heap on trail position: eliminate later assignments first.
        let mut heap: BinaryHeap<(u32, u32)> = BinaryHeap::new();
        for l in removed {
            let v = l.var().index() as usize;
            self.cmark[v] = QUEUED;
            marked.push(v);
            heap.push((self.trail_pos[v], l.var().index()));
        }
        while let Some((_, vidx)) = heap.pop() {
            let cref = self.reason[vidx as usize].expect("removed literals have reasons");
            self.pin_for_proof(cref);
            chain
                .steps
                .push((Var::new(vidx), self.arena.proof_id(cref) as usize));
            let size = self.arena.size(cref);
            for i in 0..size {
                let q = self.arena.lit(cref, i);
                let qv = q.var().index() as usize;
                if qv == vidx as usize || self.cmark[qv] != 0 {
                    continue;
                }
                // `q` is falsified and not in the kept clause: it enters
                // the resolvent here and must be eliminated in turn.
                self.cmark[qv] = QUEUED;
                marked.push(qv);
                heap.push((self.trail_pos[qv], q.var().index()));
            }
        }
        for v in marked {
            self.cmark[v] = 0;
        }
    }

    /// Builds the resolution chain refuting the formula from a conflict in
    /// which every literal is falsified at decision level 0.
    fn final_chain_from(&mut self, confl: ClauseRef) -> Chain {
        self.pin_for_proof(confl);
        let mut seen = vec![false; self.num_vars() as usize];
        for i in 0..self.arena.size(confl) {
            let l = self.arena.lit(confl, i);
            seen[l.var().index() as usize] = true;
        }
        let mut steps = Vec::new();
        for idx in (0..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = lit.var().index() as usize;
            if !seen[v] {
                continue;
            }
            let reason = self.reason[v]
                .expect("level-0 assignments used in the final conflict have reasons");
            self.pin_for_proof(reason);
            steps.push((lit.var(), self.arena.proof_id(reason) as usize));
            for i in 0..self.arena.size(reason) {
                let q = self.arena.lit(reason, i);
                seen[q.var().index() as usize] = true;
            }
        }
        Chain {
            start: self.arena.proof_id(confl) as usize,
            steps,
        }
    }

    fn backtrack(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level];
        while self.trail.len() > target {
            let lit = self.trail.pop().expect("trail not empty");
            let v = lit.var().index() as usize;
            self.phase[v] = !lit.is_negative();
            self.assign[v] = LBool::Undef;
            self.reason[v] = None;
            self.heap.push(HeapEntry {
                activity: self.activity[v],
                var: lit.var(),
            });
        }
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn add_learned(&mut self, lits: Vec<Lit>, lbd: u32, chain: Option<Chain>) -> ClauseRef {
        self.fault_alloc();
        self.stats.learned += 1;
        let pid = match (&mut self.proof, chain) {
            (Some(recorder), Some(chain)) => recorder.register_learned(chain),
            _ => NO_PROOF_ID,
        };
        let cref = self.arena.alloc(&lits, true, 0, pid);
        self.arena.set_lbd(cref, lbd);
        self.num_clauses += 1;
        self.learned_live += 1;
        if lits.len() >= 2 {
            self.watch_clause(cref);
        }
        self.enqueue(lits[0], Some(cref));
        cref
    }

    /// Returns `true` when the clause is the reason of one of its watched
    /// literals (deleting it would orphan a trail assignment).
    fn locked(&self, cref: ClauseRef) -> bool {
        let watched = self.arena.size(cref).min(2);
        for pos in 0..watched {
            let l = self.arena.lit(cref, pos);
            if self.value_lit(l) == LBool::True
                && self.reason[l.var().index() as usize] == Some(cref)
            {
                return true;
            }
        }
        false
    }

    /// Deletes a clause: detaches its watchers, marks the arena slot as
    /// garbage and drops its recorded chain (a deleted clause can never
    /// be referenced by a later one).
    fn delete_clause(&mut self, cref: ClauseRef) {
        if self.arena.size(cref) >= 2 {
            self.detach_clause(cref);
        }
        if self.arena.is_learned(cref) {
            self.learned_live -= 1;
            self.stats.learned_deleted += 1;
        }
        if let Some(recorder) = &mut self.proof {
            let pid = self.arena.proof_id(cref);
            if pid != NO_PROOF_ID {
                recorder.chains[pid as usize] = None;
            }
        }
        self.num_clauses -= 1;
        self.arena.mark_deleted(cref);
    }

    fn maybe_reduce(&mut self) {
        if let Some(limit) = self.reduce_limit {
            if self.learned_live >= limit {
                self.reduce_db();
            }
        }
    }

    /// One learned-clause database reduction pass: collects the deletable
    /// learned clauses (not glue, not binary, not locked as a reason, not
    /// pinned by a recorded proof chain) and retires the worse half by
    /// `(LBD, size)`.  Raises the next trigger and compacts the arena when
    /// enough garbage has accumulated.
    fn reduce_db(&mut self) {
        let refs: Vec<ClauseRef> = self.arena.refs().collect();
        let mut candidates: Vec<(u32, u32, ClauseRef)> = Vec::new();
        for cref in refs {
            if self.arena.is_deleted(cref)
                || !self.arena.is_learned(cref)
                || self.arena.is_pinned(cref)
            {
                continue;
            }
            let size = self.arena.size(cref);
            let lbd = self.arena.lbd(cref);
            if size <= 2 || lbd <= 2 || self.locked(cref) {
                continue;
            }
            candidates.push((lbd, size as u32, cref));
        }
        // Worst first: highest LBD, then longest, then oldest.
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        let doomed = candidates.len() / 2;
        for &(_, _, cref) in &candidates[..doomed] {
            self.delete_clause(cref);
        }
        self.stats.db_reductions += 1;
        if let Some(limit) = self.reduce_limit {
            self.reduce_limit = Some(limit + REDUCE_INC);
        }
        self.maybe_collect_garbage();
    }

    /// Removes every clause satisfied at decision level 0 — the clauses an
    /// `IncrementalSolver` retirement permanently deactivates, which would
    /// otherwise clog the watch lists forever.  Only available while proof
    /// logging is off (a no-op otherwise: exported proofs may reference
    /// any original clause).
    pub fn remove_root_satisfied(&mut self) {
        if self.proof.is_some() || !self.ok {
            return;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        let refs: Vec<ClauseRef> = self.arena.refs().collect();
        for cref in refs {
            if self.arena.is_deleted(cref) {
                continue;
            }
            let size = self.arena.size(cref);
            let satisfied =
                (0..size).any(|i| self.value_lit(self.arena.lit(cref, i)) == LBool::True);
            if !satisfied {
                continue;
            }
            // The clause may be the reason of a root assignment (e.g. a
            // retirement unit).  The assignment itself is permanent, and
            // with proof logging off level-0 reasons are never read again
            // — conflict analysis resolves only current-level literals and
            // minimization treats level-0 facts as redundant outright — so
            // the reference can be dropped along with the clause.
            for pos in 0..size.min(2) {
                let l = self.arena.lit(cref, pos);
                let v = l.var().index() as usize;
                if self.reason[v] == Some(cref) {
                    debug_assert_eq!(self.level[v], 0);
                    self.reason[v] = None;
                }
            }
            self.delete_clause(cref);
        }
        self.maybe_collect_garbage();
    }

    fn maybe_collect_garbage(&mut self) {
        let wasted = self.arena.wasted_words();
        if wasted > 0 && wasted * 3 >= self.arena.len_words() {
            self.garbage_collect();
        }
    }

    /// Compacts the arena, rewriting every watcher and reason reference
    /// through the forwarding addresses.  Clause order — and with it the
    /// proof-id order the export relies on — is preserved.
    fn garbage_collect(&mut self) {
        let refs: Vec<ClauseRef> = self.arena.refs().collect();
        let mut to = ClauseArena::with_capacity(self.arena.len_words() - self.arena.wasted_words());
        for cref in refs {
            if self.arena.is_deleted(cref) {
                continue;
            }
            let new = self.arena.copy_into(cref, &mut to);
            self.arena.set_forward(cref, new);
        }
        let arena = &self.arena;
        for list in &mut self.watches {
            for w in list.iter_mut() {
                w.cref = arena.forward(w.cref);
            }
        }
        for cref in self.reason.iter_mut().flatten() {
            *cref = arena.forward(*cref);
        }
        self.arena = to;
    }

    #[cfg(test)]
    fn arena_words(&self) -> (usize, usize) {
        (self.arena.len_words(), self.arena.wasted_words())
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(entry) = self.heap.pop() {
            if self.value_var(entry.var) == LBool::Undef {
                return Some(entry.var);
            }
        }
        // The lazy heap may run dry; fall back to a linear scan.
        (0..self.num_vars())
            .map(Var::new)
            .find(|&v| self.value_var(v) == LBool::Undef)
    }

    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.decision_level() == 0 {
            return core;
        }
        let mut seen = vec![false; self.num_vars() as usize];
        seen[failed.var().index() as usize] = true;
        let root = self.trail_lim[0];
        for i in (root..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index() as usize;
            if !seen[v] {
                continue;
            }
            match self.reason[v] {
                None => core.push(lit),
                Some(r) => {
                    for j in 0..self.arena.size(r) {
                        let q = self.arena.lit(r, j);
                        if self.level[q.var().index() as usize] > 0 {
                            seen[q.var().index() as usize] = true;
                        }
                    }
                }
            }
            seen[v] = false;
        }
        core
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals.
    ///
    /// On an `Unsat` answer caused by the assumptions,
    /// [`Solver::assumption_core`] returns the responsible subset.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.assumption_core.clear();
        self.backtrack(0);
        // An interrupt injected while loading is taken before any early
        // answer, so a fault that fired always reads as `Interrupted`.
        if std::mem::take(&mut self.injected_stop) {
            self.status = Some(SolveResult::Interrupted);
            return SolveResult::Interrupted;
        }
        if !self.ok {
            self.status = Some(SolveResult::Unsat);
            return SolveResult::Unsat;
        }
        for a in assumptions {
            self.ensure_vars(a.var().index() + 1);
        }
        if let Some(confl) = self.propagate() {
            self.ok = false;
            self.record_final_chain(confl);
            self.status = Some(SolveResult::Unsat);
            return SolveResult::Unsat;
        }

        if self.interrupted() || self.memory_exceeded() {
            self.backtrack(0);
            self.status = Some(SolveResult::Interrupted);
            return SolveResult::Interrupted;
        }

        let mut restart_round: u64 = 0;
        let mut conflicts_since_restart: u64 = 0;
        let mut restart_limit = 100 * luby(restart_round);
        let mut conflicts_this_call: u64 = 0;
        let mut steps: u64 = 0;

        loop {
            steps += 1;
            if steps.is_multiple_of(INTERRUPT_CHECK_INTERVAL)
                && (self.interrupted()
                    || std::mem::take(&mut self.injected_stop)
                    || self.memory_exceeded())
            {
                self.backtrack(0);
                self.status = Some(SolveResult::Interrupted);
                return SolveResult::Interrupted;
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if let Some(kind) = self.faults.tick(FaultSite::Conflict) {
                    match kind {
                        FaultKind::Panic => panic!("injected fault: panic at conflict"),
                        FaultKind::AllocFail => {
                            panic!("injected fault: allocation failure at conflict")
                        }
                        FaultKind::Interrupt => {
                            self.backtrack(0);
                            self.status = Some(SolveResult::Interrupted);
                            return SolveResult::Interrupted;
                        }
                    }
                }
                conflicts_since_restart += 1;
                conflicts_this_call += 1;
                if let Some(probe) = &self.probe {
                    if self.stats.conflicts >= self.probe_next {
                        let probe = probe.clone();
                        self.probe_next = self.stats.conflicts + probe.interval();
                        (probe.callback)(&self.stats);
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.record_final_chain(confl);
                    self.status = Some(SolveResult::Unsat);
                    return SolveResult::Unsat;
                }
                if self
                    .conflict_limit
                    .is_some_and(|limit| conflicts_this_call > limit)
                {
                    self.backtrack(0);
                    self.status = Some(SolveResult::Interrupted);
                    return SolveResult::Interrupted;
                }
                let (learned, backtrack_level, lbd, chain) = self.analyze(confl);
                self.backtrack(backtrack_level);
                self.add_learned(learned, lbd, chain);
                self.decay_activities();
                self.maybe_reduce();
            } else {
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    restart_round += 1;
                    conflicts_since_restart = 0;
                    restart_limit = 100 * luby(restart_round);
                    self.backtrack(0);
                    continue;
                }
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value_lit(p) {
                        LBool::True => {
                            // Already satisfied: open a dummy level so the
                            // remaining assumptions keep their positions.
                            self.new_decision_level();
                        }
                        LBool::False => {
                            self.assumption_core = self.analyze_final(p);
                            self.status = Some(SolveResult::Unsat);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.new_decision_level();
                            self.enqueue(p, None);
                        }
                    }
                } else {
                    match self.pick_branch_var() {
                        None => {
                            self.status = Some(SolveResult::Sat);
                            return SolveResult::Sat;
                        }
                        Some(v) => {
                            self.stats.decisions += 1;
                            self.new_decision_level();
                            let lit = Lit::new(v, !self.phase[v.index() as usize]);
                            self.enqueue(lit, None);
                        }
                    }
                }
            }
        }
    }

    /// Returns the result of the most recent solve call, if any.
    pub fn status(&self) -> Option<SolveResult> {
        self.status
    }
}

/// A formula being loaded into a [`Solver`]; see [`Solver::bulk_load`].
/// Dropping the loader charges the solver's footprint to its memory
/// budget.
#[derive(Debug)]
pub struct BulkLoad<'s> {
    solver: &'s mut Solver,
}

impl BulkLoad<'_> {
    /// Adds one clause, with the semantics of [`Solver::add_clause`].
    pub fn add_clause(&mut self, lits: &[Lit], partition: u32) {
        let solver = &mut *self.solver;
        solver.ensure_clause_vars(lits);
        if solver.ok {
            solver.install(lits, partition);
        }
    }
}

impl Drop for BulkLoad<'_> {
    fn drop(&mut self) {
        let solver = &mut *self.solver;
        let now = solver.estimated_bytes();
        if let Some(budget) = &solver.mem_budget {
            budget.update(&mut solver.mem_registered.0, now);
        }
    }
}

impl Drop for Solver {
    fn drop(&mut self) {
        // Release this solver's contribution to the shared memory budget
        // (clones registered nothing, so their drop releases nothing).
        if let Some(budget) = &self.mem_budget {
            budget.release(&mut self.mem_registered.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: usize, neg: bool) -> Lit {
        Lit::new(solver_vars[i], neg)
    }

    fn vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit_clause() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause([lit(&v, 0, false)], 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat_with_proof() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause([lit(&v, 0, false)], 1);
        s.add_clause([lit(&v, 0, true)], 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.proof().expect("proof available");
        proof.check().expect("proof must check");
    }

    #[test]
    fn simple_implication_chain_unsat() {
        // a, a->b, b->c, ¬c
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([lit(&v, 0, false)], 1);
        s.add_clause([lit(&v, 0, true), lit(&v, 1, false)], 1);
        s.add_clause([lit(&v, 1, true), lit(&v, 2, false)], 2);
        s.add_clause([lit(&v, 2, true)], 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
        s.proof().expect("proof").check().expect("valid proof");
    }

    #[test]
    fn satisfiable_2sat_instance() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([lit(&v, 0, false), lit(&v, 1, false)], 1);
        s.add_clause([lit(&v, 0, true), lit(&v, 2, false)], 1);
        s.add_clause([lit(&v, 1, true), lit(&v, 3, false)], 1);
        s.add_clause([lit(&v, 2, true), lit(&v, 3, true)], 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model();
        // Verify the model satisfies every clause.
        assert!(model[v[0].index() as usize] || model[v[1].index() as usize]);
        assert!(!model[v[0].index() as usize] || model[v[2].index() as usize]);
        assert!(!model[v[1].index() as usize] || model[v[3].index() as usize]);
        assert!(!model[v[2].index() as usize] || !model[v[3].index() as usize]);
    }

    /// Encodes the pigeonhole principle PHP(holes+1, holes), a classic
    /// unsatisfiable family that genuinely exercises clause learning.
    fn pigeonhole(solver: &mut Solver, holes: usize) {
        let pigeons = holes + 1;
        let var = |p: usize, h: usize| Var::new((p * holes + h) as u32);
        solver.ensure_vars((pigeons * holes) as u32);
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::positive(var(p, h))).collect();
            solver.add_clause(clause, 1);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    solver.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))], 2);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat_with_valid_proof() {
        for holes in 2..=5 {
            let mut s = Solver::new();
            pigeonhole(&mut s, holes);
            assert_eq!(s.solve(), SolveResult::Unsat, "php({holes})");
            let proof = s.proof().expect("proof");
            proof.check().expect("proof checks");
            assert!(proof.num_learned() > 0 || holes <= 2);
        }
    }

    #[test]
    fn random_3sat_agrees_with_reference_dpll() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20110316);
        for round in 0..40 {
            let num_vars = 8 + (round % 5);
            let num_clauses = (num_vars as f64 * 4.0) as usize;
            let mut cnf_builder = cnf::CnfBuilder::new();
            for _ in 0..num_vars {
                cnf_builder.new_var();
            }
            cnf_builder.set_partition(1);
            for _ in 0..num_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = Var::new(rng.gen_range(0..num_vars) as u32);
                    clause.push(Lit::new(v, rng.gen_bool(0.5)));
                }
                cnf_builder.add_clause(clause);
            }
            let cnf = cnf_builder.into_cnf();
            let expected = reference_sat(&cnf);
            let mut s = Solver::new();
            s.add_cnf(&cnf);
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, expected, "round {round}");
            if got {
                let model = s.model();
                assert!(cnf.evaluate(&model), "model must satisfy the formula");
            } else {
                s.proof().expect("proof").check().expect("proof checks");
            }
        }
    }

    fn reference_sat(cnf: &Cnf) -> bool {
        let n = cnf.num_vars;
        (0..(1u64 << n)).any(|bits| {
            let assignment: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            cnf.evaluate(&assignment)
        })
    }

    #[test]
    fn assumptions_select_branches() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        // a -> b
        s.add_clause([lit(&v, 0, true), lit(&v, 1, false)], 1);
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 0, false), lit(&v, 1, true)]),
            SolveResult::Unsat
        );
        let core = s.assumption_core().to_vec();
        assert!(!core.is_empty());
        // Without the conflicting assumption the instance is satisfiable.
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 0, false)]),
            SolveResult::Sat
        );
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn assumption_core_is_subset_of_assumptions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // x0 ∧ x1 -> conflict; x2, x3 irrelevant.
        s.add_clause([lit(&v, 0, true), lit(&v, 1, true)], 1);
        let assumptions = [
            lit(&v, 2, false),
            lit(&v, 0, false),
            lit(&v, 3, false),
            lit(&v, 1, false),
        ];
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
        for l in s.assumption_core() {
            assert!(assumptions.contains(l) || assumptions.contains(&!*l));
        }
        // The irrelevant assumptions must not both be required.
        let core = s.assumption_core();
        assert!(core.len() <= 3);
    }

    #[test]
    fn solver_is_reusable_after_sat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([lit(&v, 0, false), lit(&v, 1, false)], 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 0, true)]),
            SolveResult::Sat
        );
        assert_eq!(s.value(v[1]), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 0, true), lit(&v, 1, true)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.conflicts > 0);
        assert!(stats.decisions > 0);
        assert!(stats.propagations > 0);
    }

    #[test]
    fn preset_interrupt_flag_stops_the_search() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Some(flag.clone()));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        assert_eq!(s.status(), Some(SolveResult::Interrupted));
        // Clearing the flag makes the same solver answer definitively.
        flag.store(false, AtomicOrdering::Release);
        assert_eq!(s.solve(), SolveResult::Unsat);
        s.proof().expect("proof").check().expect("proof checks");
    }

    #[test]
    fn interrupt_flag_is_shared_across_clones() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        let flag = Arc::new(AtomicBool::new(false));
        s.set_interrupt(Some(flag.clone()));
        let mut clone = s.clone();
        flag.store(true, AtomicOrdering::Release);
        assert_eq!(clone.solve(), SolveResult::Interrupted);
        assert_eq!(s.solve(), SolveResult::Interrupted);
    }

    #[test]
    fn progress_probe_samples_the_search_periodically() {
        use std::sync::atomic::AtomicU64;
        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        let samples = Arc::new(AtomicU64::new(0));
        let high_water = Arc::new(AtomicU64::new(0));
        let (samples_in, high_water_in) = (samples.clone(), high_water.clone());
        s.set_progress_probe(Some(ProgressProbe::new(4, move |stats| {
            samples_in.fetch_add(1, AtomicOrdering::Relaxed);
            high_water_in.store(stats.conflicts, AtomicOrdering::Relaxed);
        })));
        assert_eq!(s.solve(), SolveResult::Unsat);
        let fired = samples.load(AtomicOrdering::Relaxed);
        assert!(fired > 0, "probe never fired");
        // Samples are spaced at least an interval apart.
        assert!(high_water.load(AtomicOrdering::Relaxed) >= 4 * fired);
        // Clearing the probe stops the sampling.
        s.set_progress_probe(None);
        let before = samples.load(AtomicOrdering::Relaxed);
        let mut again = Solver::new();
        pigeonhole(&mut again, 4);
        again.solve();
        assert_eq!(samples.load(AtomicOrdering::Relaxed), before);
    }

    #[test]
    fn conflict_limit_budgets_a_single_call() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        s.set_conflict_limit(Some(1));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        s.set_conflict_limit(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn memory_budget_interrupts_and_records_a_hit() {
        let budget = crate::MemoryBudget::new(64);
        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        s.set_memory_budget(Some(budget.clone()));
        assert!(budget.used() > 64, "the solver registers its footprint");
        assert_eq!(s.solve(), SolveResult::Interrupted);
        assert!(budget.hits() > 0, "the stop is attributable to memory");
        drop(s);
        assert_eq!(budget.used(), 0, "dropping releases the registration");
        assert!(budget.hits() > 0, "hits survive the release");
        // A roomy budget lets the same formula finish.
        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        s.set_memory_budget(Some(crate::MemoryBudget::new(u64::MAX)));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn cloned_solvers_do_not_double_release_the_budget() {
        let budget = crate::MemoryBudget::new(u64::MAX);
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        s.set_memory_budget(Some(budget.clone()));
        let used = budget.used();
        assert!(used > 0);
        let clone = s.clone();
        drop(clone);
        assert_eq!(
            budget.used(),
            used,
            "a clone never registered bytes, so its drop must release none"
        );
        drop(s);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn injected_interrupt_fires_exactly_once() {
        use crate::{FaultKind, FaultPlan, FaultSite};
        let plan = FaultPlan::inject(FaultSite::Conflict, FaultKind::Interrupt, 1);
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        s.set_faults(plan.clone());
        assert_eq!(s.solve(), SolveResult::Interrupted);
        assert!(plan.fired());
        // The plan never re-fires: the retry answers definitively.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn injected_panic_at_an_allocation_unwinds() {
        use crate::{FaultKind, FaultPlan, FaultSite};
        let plan = FaultPlan::inject(FaultSite::Alloc, FaultKind::Panic, 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = Solver::new();
            s.set_faults(plan.clone());
            pigeonhole(&mut s, 3);
            s.solve()
        }));
        assert!(outcome.is_err(), "the injected panic must surface");
        assert!(plan.fired());
    }

    #[test]
    fn injected_alloc_interrupt_stops_the_next_solve() {
        use crate::{FaultKind, FaultPlan, FaultSite};
        let plan = FaultPlan::inject(FaultSite::Alloc, FaultKind::Interrupt, 1);
        let mut s = Solver::new();
        s.set_faults(plan.clone());
        pigeonhole(&mut s, 4);
        assert!(plan.fired(), "the first clause allocation ticks the site");
        assert_eq!(s.solve(), SolveResult::Interrupted);
        assert_eq!(
            s.solve(),
            SolveResult::Unsat,
            "the spurious stop is one-shot"
        );
    }

    #[test]
    fn conflict_limit_does_not_mask_easy_answers() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([lit(&v, 0, false), lit(&v, 1, false)], 1);
        s.set_conflict_limit(Some(0));
        assert_eq!(s.solve(), SolveResult::Sat);
        // A root-level refutation is still reported as Unsat, not a budget
        // overrun.
        s.add_clause([lit(&v, 0, false)], 1);
        s.add_clause([lit(&v, 0, true)], 1);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn adding_clause_after_root_conflict_is_ignored() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause([lit(&v, 0, false)], 1);
        s.add_clause([lit(&v, 0, true)], 1);
        s.add_clause([lit(&v, 0, false)], 1);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_makes_formula_unsat() {
        let mut s = Solver::new();
        s.add_clause(std::iter::empty(), 1);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.proof().expect("proof");
        proof
            .check()
            .expect("empty clause proof is trivially valid");
    }

    #[test]
    fn proofs_reference_partitions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([lit(&v, 0, false)], 1);
        s.add_clause([lit(&v, 0, true), lit(&v, 1, false)], 1);
        s.add_clause([lit(&v, 1, true)], 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.proof().expect("proof");
        assert_eq!(proof.num_partitions(), 2);
        assert_eq!(proof.num_original(), 3);
    }

    #[test]
    fn minimization_shrinks_learned_clauses_and_keeps_proofs_exact() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.stats().minimized_literals > 0,
            "php(5) must exercise learned-clause minimization"
        );
        // Every chain — including the minimization extension steps — must
        // replay to a subset of its recorded clause.
        s.proof().expect("proof").check().expect("exact chains");
    }

    #[test]
    fn db_reduction_fires_and_keeps_answers() {
        let mut with = Solver::new();
        with.set_proof_logging(false);
        with.set_reduce_interval(Some(10));
        pigeonhole(&mut with, 6);
        assert_eq!(with.solve(), SolveResult::Unsat);
        let stats = with.stats();
        assert!(stats.db_reductions > 0, "reduction must trigger");
        assert!(stats.learned_deleted > 0, "reduction must delete clauses");

        let mut without = Solver::new();
        without.set_proof_logging(false);
        without.set_reduce_interval(None);
        pigeonhole(&mut without, 6);
        assert_eq!(without.solve(), SolveResult::Unsat);
        assert_eq!(without.stats().db_reductions, 0);
        assert_eq!(without.stats().learned_deleted, 0);
    }

    #[test]
    fn db_reduction_with_proof_logging_keeps_proofs_valid() {
        let mut s = Solver::new();
        s.set_reduce_interval(Some(5));
        pigeonhole(&mut s, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().db_reductions > 0, "reduction passes must run");
        // Chain-referenced clauses were pinned, so the export still
        // replays end to end.
        let proof = s.proof().expect("proof");
        proof.check().expect("proof survives reductions");
    }

    #[test]
    fn reduction_survives_incremental_reuse() {
        // Solve, reduce, then keep querying the same solver under
        // assumptions: retired clauses must not be missed.
        let mut s = Solver::new();
        s.set_proof_logging(false);
        s.set_reduce_interval(Some(8));
        pigeonhole(&mut s, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().db_reductions > 0);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn garbage_collection_compacts_the_arena() {
        let mut s = Solver::new();
        s.set_proof_logging(false);
        s.set_reduce_interval(Some(8));
        pigeonhole(&mut s, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let (len, wasted) = s.arena_words();
        assert!(
            wasted * 3 < len.max(1),
            "GC must keep garbage below a third of the arena ({wasted}/{len})"
        );
        assert!(s.stats().learned_deleted > 0);
    }

    #[test]
    fn remove_root_satisfied_drops_deactivated_clauses() {
        let mut s = Solver::new();
        s.set_proof_logging(false);
        let v = vars(&mut s, 3);
        // An activation-literal pattern: a guard, two guarded clauses.
        let guard = lit(&v, 0, false);
        s.add_clause([!guard, lit(&v, 1, false), lit(&v, 2, false)], 0);
        s.add_clause([!guard, lit(&v, 1, true)], 0);
        let before = s.num_clauses();
        // Retire the guard: the guarded clauses become root-satisfied.
        s.add_clause([!guard], 0);
        s.remove_root_satisfied();
        assert!(
            s.num_clauses() < before,
            "retired clauses must leave the database"
        );
        assert_eq!(s.solve(), SolveResult::Sat);
        // The sweep must not have touched live constraints.
        s.add_clause([lit(&v, 1, false)], 0);
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 1, true)]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn remove_root_satisfied_is_a_noop_with_proof_logging() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([lit(&v, 0, false), lit(&v, 1, false)], 1);
        s.add_clause([lit(&v, 0, false)], 1);
        let before = s.num_clauses();
        s.remove_root_satisfied();
        assert_eq!(s.num_clauses(), before, "proofs may reference any clause");
    }

    #[test]
    fn proof_logging_toggle_is_rejected_after_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause([lit(&v, 0, false)], 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.set_proof_logging(false);
        }));
        assert!(result.is_err(), "late toggles must panic");
    }

    /// A bulk load is the clause-by-clause load: same answers, same
    /// proofs (ids, arena order and partitions), same `Alloc` ticks — on
    /// random partitioned formulas, including ones whose units conflict
    /// mid-load, with database reduction forced.
    #[test]
    fn bulk_load_matches_clause_by_clause_loading() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2026);
        let mut refuted = 0;
        for round in 0..60 {
            let num_vars = 6 + (round % 7) as u32;
            let mut builder = cnf::CnfBuilder::new();
            for _ in 0..num_vars {
                builder.new_var();
            }
            for _ in 0..num_vars * 5 {
                builder.set_partition(rng.gen_range(1..=4));
                let len = rng.gen_range(1..=3);
                let clause: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
                    .collect();
                builder.add_clause(clause);
            }
            let cnf = builder.into_cnf();
            let at = rng.gen_range(1..=cnf.clauses.len() as u64 + 2);
            let run = |bulk: bool, plan: FaultPlan| {
                let mut s = Solver::new();
                s.set_reduce_interval(Some(2));
                s.set_faults(plan.clone());
                if bulk {
                    s.add_cnf(&cnf);
                } else {
                    s.ensure_vars(cnf.num_vars);
                    for clause in &cnf.clauses {
                        s.add_clause(clause.lits.iter().copied(), clause.partition);
                    }
                }
                let fired_in_load = plan.fired();
                let result = s.solve();
                (result, s.proof(), s.num_clauses(), fired_in_load, s.stats())
            };
            let bulk = run(true, FaultPlan::none());
            assert_eq!(bulk, run(false, FaultPlan::none()), "round {round}");
            refuted += usize::from(bulk.0 == SolveResult::Unsat);
            // The `Alloc` site ticks once per installed clause either way,
            // so an injected fault lands on the same clause.
            let fault = || FaultPlan::inject(FaultSite::Alloc, FaultKind::Interrupt, at);
            assert_eq!(
                run(true, fault()),
                run(false, fault()),
                "round {round}, fault at {at}"
            );
        }
        assert!(refuted >= 10, "only {refuted} refutations exercised");
    }

    #[test]
    fn proof_export_skips_unused_learned_clauses() {
        // A formula with an easy refutation plus satisfiable padding the
        // search may learn about: the export keeps every original clause
        // but only the cone of the refutation.
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.proof().expect("proof");
        proof.check().expect("valid");
        assert!(
            (proof.num_learned() as u64) <= s.stats().learned,
            "export must not invent clauses"
        );
        let refs_in_cone = proof.num_learned();
        // Solve again after the fact: the export is stable.
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.proof().expect("proof").num_learned(), refs_in_cone);
    }

    #[test]
    fn duplicate_assumptions_open_dummy_levels_safely() {
        // Already-true assumptions open decision levels that assign no
        // variable, so a conflict can occur at a level greater than the
        // variable count — the LBD stamp array must grow, not panic.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([lit(&v, 2, true), lit(&v, 1, false)], 1);
        s.add_clause([lit(&v, 2, true), lit(&v, 1, true)], 1);
        let a = lit(&v, 0, false);
        let c = lit(&v, 2, false);
        assert_eq!(
            s.solve_with_assumptions(&[a, a, a, a, c]),
            SolveResult::Unsat
        );
        assert!(!s.assumption_core().is_empty());
        assert_eq!(s.solve_with_assumptions(&[a, a, a, a]), SolveResult::Sat);
    }

    #[test]
    fn binary_chains_propagate_through_the_fast_path() {
        // A long implication chain of binary clauses, driven from an
        // assumption so the whole chain runs through the binary fast path
        // during search (attach-time enqueues would bypass it).
        let mut s = Solver::new();
        let v = vars(&mut s, 16);
        for i in 0..15 {
            s.add_clause([lit(&v, i, true), lit(&v, i + 1, false)], 1);
        }
        let before = s.stats().propagations;
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 0, false), lit(&v, 15, true)]),
            SolveResult::Unsat
        );
        assert!(
            s.stats().propagations - before >= 15,
            "the chain must propagate through the binary watchers"
        );
        assert!(!s.assumption_core().is_empty());
        assert_eq!(s.solve(), SolveResult::Sat);

        // The same chain closed by units still yields an exact proof.
        let mut closed = Solver::new();
        let w = vars(&mut closed, 16);
        closed.add_clause([lit(&w, 0, false)], 1);
        for i in 0..15 {
            closed.add_clause([lit(&w, i, true), lit(&w, i + 1, false)], 1);
        }
        closed.add_clause([lit(&w, 15, true)], 2);
        assert_eq!(closed.solve(), SolveResult::Unsat);
        closed.proof().expect("proof").check().expect("valid proof");
    }
}
