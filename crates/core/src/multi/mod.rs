//! Multi-property verification: `verify_all` and its amortized backends.
//!
//! Real AIGER designs carry many bad-state properties, and the engines of
//! this workspace pay their big fixed costs — the unrolled CNF, the PDR
//! frame trace, the learned clauses — per *run*.  Checking `P` properties
//! by looping [`Engine::verify`] re-pays those costs `P` times; this
//! module pays them once:
//!
//! * [`bmc`] — **multi-BMC**: one [`cnf::Unroller`] and one
//!   long-lived [`sat::IncrementalSolver`] serve every property.  Each
//!   bound extends the shared unrolling by one frame (`O(K)` frame
//!   encodings total instead of the loop's `O(K·P)`) and checks every
//!   live property's target as a per-property *assumption*; a satisfiable
//!   answer retires that property with its counterexample trace while the
//!   solver — learned clauses and all — keeps serving the survivors.
//! * [`pdr`] — **multi-PDR**: one frame trace and one per-frame solver
//!   family serve every property.  Frame lemmas are facts about
//!   reachability (not about any particular property), so cubes blocked
//!   while working on one property strengthen the trace for all of them;
//!   properties retire individually on counterexamples, and a converged
//!   frame proves every surviving property at once.
//! * [`scheduler`] — the **property scheduler** behind
//!   [`Engine::Portfolio`]: each property group runs the portfolio's one
//!   race (`engines::portfolio::race`) of multi-PDR against
//!   multi-BMC, whose shared retirement board gives per-property
//!   cancellation: the moment one backend decides a property, the other
//!   stops spending work on it.
//!
//! Every backend run passes the one containment boundary of engine runs
//! (`backend`): a panic costs only the statuses of its run.
//!
//! # Cone-of-influence slicing
//!
//! Sharing a trace only pays between properties whose cones share state.
//! So, after preprocessing (when the cone-of-influence pass ran), every
//! `verify_all` except multi-BMC first splits the properties into groups
//! and decides each group on its **own narrowed model** — the design
//! re-prepared with only the group's bad-state properties
//! ([`crate::pipeline::prepare`] on a copy with
//! [`Aig::select_bads`]), so no engine pays for latches outside the
//! group's cones:
//!
//! * multi-PDR and the scheduler get the latch-sharing groups of
//!   [`aig::coi::group_bads_from_cois`] — groups that share no latches
//!   gain nothing from a shared trace;
//! * the engines without a multi backend (the interpolation family) get
//!   one group per property, each on its own cone, as a per-property
//!   [`Engine::verify`] would.
//!
//! Results lift back through the group's reconstruction and then the
//! whole design's, so traces and certificates (including multi-PDR's
//! shared certificate) end up in original-design coordinates.  Multi-BMC
//! keeps one unrolling for every property: its encoding is already lazy
//! in the cones, and the shared frames are what it amortizes.  Without
//! the cone-of-influence pass every backend runs on the whole design.
//!
//! # Determinism contract
//!
//! Amortization is pure speed: for every property, the status *kind*
//! (proved / falsified / inconclusive-within-budget) and the falsified
//! *depth* are identical to the per-property [`Engine::verify`] loop —
//! depths are structurally minimal in every backend, so not even racing
//! can change them.  Proof bookkeeping (`k_fp`/`j_fp`), inconclusive
//! reasons and counterexample traces may differ between backends; compare
//! statuses with [`PropertyStatus::kind_and_depth`].  The contract is
//! pinned by `tests/multi_property.rs` over the whole benchmark suite.
//!
//! # Example
//!
//! ```
//! use mc::{Engine, Options, PropertyStatus};
//!
//! // A 2-bit counter wrapping at 3, with one property per threshold:
//! // value 2 is reached at depth 2, value 3 never.
//! let mut aig = aig::Aig::new();
//! let (ids, bits) = aig::builder::latch_word(&mut aig, 2, 0);
//! let wrap = aig::builder::word_equals_const(&mut aig, &bits, 2);
//! let inc = aig::builder::word_increment(&mut aig, &bits, aig::Lit::TRUE);
//! let zero = aig::builder::word_const(2, 0);
//! let next = aig::builder::word_mux(&mut aig, wrap, &zero, &inc);
//! for (id, n) in ids.iter().zip(next.iter()) {
//!     aig.set_next(*id, *n);
//! }
//! for threshold in [2u64, 3] {
//!     let bad = aig::builder::word_equals_const(&mut aig, &bits, threshold);
//!     aig.add_bad(bad);
//! }
//!
//! let result = Engine::Portfolio.verify_all(&aig, &Options::default());
//! assert_eq!(result.statuses[0].depth(), Some(2));
//! assert!(result.statuses[1].is_proved());
//! ```

pub mod bmc;
pub mod pdr;
pub mod scheduler;

use crate::engines::CancelToken;
use crate::{Engine, EngineStats, MultiResult, Options, Prepared, PropertyStatus, StopReason};
use aig::coi::Coi;
use aig::Aig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{ArgValue, Telemetry};

/// The narrowing step between [`Prepared::verify_all_with_cancel`] and
/// the backends: partitions the properties of `aig` into groups, decides
/// each group on its own narrowed model, and merges the statuses back in
/// `aig`'s coordinates.
///
/// `cois`, when given, are the per-property sequential COIs of `aig`
/// (the preprocessing pipeline's by-product); without them nothing is
/// narrowed and every backend runs on `aig` itself.  Multi-BMC always
/// runs on `aig`, with every property on one shared unrolling.
///
/// [`Prepared::verify_all_with_cancel`]: crate::Prepared::verify_all_with_cancel
pub(crate) fn verify_all_inner(
    aig: &Aig,
    engine: Engine,
    options: &Options,
    cancel: &CancelToken,
    cois: Option<&[Coi]>,
) -> MultiResult {
    let start = Instant::now();
    let num_props = aig.num_bad();
    if engine == Engine::Bmc {
        let props: Vec<usize> = (0..num_props).collect();
        return backend(aig, &props, engine, options, cancel, None);
    }
    let groups = partition(aig, engine, cois);
    options.telemetry.instant_args("coi.groups", || {
        vec![
            ("groups", ArgValue::U64(groups.len() as u64)),
            (
                "largest",
                ArgValue::U64(groups.iter().map(Vec::len).max().unwrap_or(0) as u64),
            ),
        ]
    });
    let narrow = cois.is_some();
    let results: Vec<MultiResult> = if engine == Engine::Portfolio {
        scheduler::verify_all_with_cancel(aig, &groups, narrow, options, cancel)
    } else {
        groups
            .iter()
            .map(|members| {
                Slice::new(aig, members, narrow, options)
                    .run(|model, props| backend(model, props, engine, options, cancel, None))
            })
            .collect()
    };

    let mut stats = EngineStats::default();
    let mut statuses: Vec<Option<PropertyStatus>> = vec![None; num_props];
    for (members, result) in groups.iter().zip(results) {
        stats.absorb(&result.stats);
        for (&prop, status) in members.iter().zip(result.statuses) {
            statuses[prop] = Some(status);
        }
    }
    stats.time = start.elapsed();
    MultiResult {
        statuses: statuses
            .into_iter()
            .map(|slot| slot.expect("every property belongs to a group"))
            .collect(),
        stats,
    }
}

/// The property groups of one `verify_all` run, each ascending, ordered
/// by smallest member: the latch-sharing COI groups for multi-PDR and the
/// scheduler, one group per property for the per-property loop.  Without
/// `cois`, multi-PDR keeps every property on one trace and the scheduler
/// groups by the COIs of `aig` itself.
fn partition(aig: &Aig, engine: Engine, cois: Option<&[Coi]>) -> Vec<Vec<usize>> {
    let num_props = aig.num_bad();
    match (engine, cois) {
        (Engine::Pdr | Engine::Portfolio, Some(cois)) => {
            debug_assert_eq!(cois.len(), num_props);
            aig::coi::group_bads_from_cois(cois)
        }
        (Engine::Portfolio, None) => aig::coi::group_bads_by_coi(aig),
        (Engine::Pdr, None) => vec![(0..num_props).collect()],
        _ => (0..num_props).map(|prop| vec![prop]).collect(),
    }
}

/// One property group of a `verify_all` run and the model it is decided
/// on: the group's own narrowed model, or the whole design.
pub(crate) struct Slice<'a> {
    whole: &'a Aig,
    /// The group's properties, as bad-state indices of the whole design.
    pub members: &'a [usize],
    /// The whole design prepared for the group's properties alone
    /// (`None`: the group runs on the whole design).
    narrowed: Option<Prepared>,
}

impl<'a> Slice<'a> {
    /// The slice of group `members` of `aig`, narrowed to the group's
    /// cones when `narrow`.
    pub fn new(aig: &'a Aig, members: &'a [usize], narrow: bool, options: &Options) -> Slice<'a> {
        Slice {
            whole: aig,
            members,
            narrowed: narrow.then(|| crate::pipeline::prepare_properties(aig, members, options)),
        }
    }

    /// Runs `backend` on the slice's model and its indices of the group's
    /// properties; the statuses come back indexed like
    /// [`members`](Self::members), in the whole design's coordinates.
    pub fn run(&self, backend: impl FnOnce(&Aig, &[usize]) -> MultiResult) -> MultiResult {
        let Some(prepared) = &self.narrowed else {
            return backend(self.whole, self.members);
        };
        let props: Vec<usize> = (0..self.members.len()).collect();
        let mut result = backend(&prepared.aig, &props);
        prepared.lift_multi(&mut result);
        result
    }
}

/// One run of `engine` on the properties `props` of `aig`, statuses
/// indexed like `props`: the amortized multi-BMC or multi-PDR backend,
/// racing over `board` when given, inside the one containment boundary;
/// for the other engines the per-property [`fallback_loop`], whose runs
/// each pass the boundary themselves.
pub(crate) fn backend(
    aig: &Aig,
    props: &[usize],
    engine: Engine,
    options: &Options,
    cancel: &CancelToken,
    board: Option<&RetireBoard>,
) -> MultiResult {
    let amortized = match engine {
        Engine::Bmc => bmc::verify_all_with_cancel,
        Engine::Pdr => crate::engines::pdr::verify_all_with_cancel,
        other => return fallback_loop(aig, props, other, options, cancel),
    };
    crate::engines::run::contain(engine, props.len(), options, || {
        amortized(aig, props, options, cancel, board)
    })
}

/// The non-amortized reference: one engine run per property, directly on
/// `aig` (the caller has already preprocessed and narrowed when asked
/// to).  The `verify_all` backend of the engines without a multi backend
/// (the interpolation family), where each call gets a one-property group
/// on its own narrowed model.
pub(crate) fn fallback_loop(
    aig: &Aig,
    props: &[usize],
    engine: Engine,
    options: &Options,
    cancel: &CancelToken,
) -> MultiResult {
    let start = Instant::now();
    let mut stats = EngineStats {
        visible_latches: aig.num_latches(),
        ..EngineStats::default()
    };
    let mut statuses = Vec::with_capacity(props.len());
    for &prop in props {
        let result = engine.dispatch(aig, prop, options, cancel);
        stats.absorb(&result.stats);
        statuses.push(PropertyStatus::from_result(&result));
    }
    stats.time = start.elapsed();
    MultiResult { statuses, stats }
}

/// The shared retirement board of a race
/// ([`crate::engines::portfolio::race`]): the entrants working on the
/// same properties publish conclusive statuses here, and the amortized
/// backends poll it to stop spending work on properties another entrant
/// already decided — per-property cancellation without tearing down
/// either run.
///
/// Slots are indexed like the `props` slice handed to the entrants.  The
/// first publisher of a slot wins; later answers for the same property
/// (the race window) are dropped — they agree on kind and depth by the
/// determinism contract, so nothing is lost.
pub(crate) struct RetireBoard {
    slots: Vec<Mutex<Option<PropertyStatus>>>,
    retired: Vec<AtomicBool>,
}

impl RetireBoard {
    /// A board for `n` undecided properties.
    pub fn new(n: usize) -> RetireBoard {
        RetireBoard {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            retired: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Returns `true` once every property is decided.
    pub fn is_full(&self) -> bool {
        self.retired.iter().all(|slot| slot.load(Ordering::Acquire))
    }

    /// Returns `true` once some backend has decided property `slot`.
    pub fn is_retired(&self, slot: usize) -> bool {
        self.retired[slot].load(Ordering::Acquire)
    }

    /// Publishes a conclusive status for `slot`; returns `true` when this
    /// call decided the property (`false` when another backend won the
    /// race).
    pub fn publish(&self, slot: usize, status: PropertyStatus) -> bool {
        debug_assert!(status.is_conclusive());
        let mut guard = self.slots[slot].lock().expect("board poisoned");
        if guard.is_some() {
            return false;
        }
        *guard = Some(status);
        drop(guard);
        self.retired[slot].store(true, Ordering::Release);
        true
    }

    /// Removes and returns the published status of `slot`, if any.
    pub fn take(&self, slot: usize) -> Option<PropertyStatus> {
        self.slots[slot].lock().expect("board poisoned").take()
    }
}

/// The per-property status bookkeeping shared by the amortized backends:
/// the statuses under construction plus the board-synchronisation
/// protocol.  Keeping the protocol in one place is what guarantees the
/// backends treat externally-retired properties identically — a skipped
/// property must always be *recorded* as yielded, never left undecided
/// (an undecided slot would later be swept up by a backend's own
/// proof/give-up path and misreported).
pub(crate) struct StatusSlots<'a> {
    board: Option<&'a RetireBoard>,
    slots: Vec<Option<PropertyStatus>>,
    telemetry: Telemetry,
}

impl<'a> StatusSlots<'a> {
    /// Bookkeeping for `n` properties, optionally racing over `board`.
    /// Retirement-board traffic (decisions, give-ups, yields) is traced
    /// onto `telemetry`.
    pub fn new(n: usize, board: Option<&'a RetireBoard>, telemetry: Telemetry) -> StatusSlots<'a> {
        StatusSlots {
            board,
            slots: vec![None; n],
            telemetry,
        }
    }

    /// Positions still undecided, in index order.
    pub fn live(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_none())
            .collect()
    }

    /// Returns `true` when every property has a status.
    pub fn all_decided(&self) -> bool {
        self.slots.iter().all(Option::is_some)
    }

    /// Records a conclusive status for slot `i` and publishes it to the
    /// board (the race's first publisher wins; a lost race still records
    /// locally — kinds and depths agree by the determinism contract).
    pub fn decide(&mut self, i: usize, status: PropertyStatus) {
        self.telemetry.instant_args("prop.decide", || {
            let (kind, depth) = status.kind_and_depth();
            let mut args = vec![
                ("prop", ArgValue::U64(i as u64)),
                ("status", ArgValue::Str(kind.to_string())),
            ];
            if let Some(depth) = depth {
                args.push(("depth", ArgValue::U64(depth as u64)));
            }
            args
        });
        if let Some(board) = self.board {
            board.publish(i, status.clone());
        }
        self.slots[i] = Some(status);
    }

    /// Marks every undecided slot inconclusive (budget exhausted).
    pub fn give_up(&mut self, reason: StopReason, bound_reached: usize) {
        let undecided = self.slots.iter().filter(|slot| slot.is_none()).count() as u64;
        if undecided > 0 {
            self.telemetry.instant_args("prop.giveup", || {
                vec![
                    ("props", ArgValue::U64(undecided)),
                    ("reason", ArgValue::Str(reason.to_string())),
                    ("bound", ArgValue::U64(bound_reached as u64)),
                ]
            });
        }
        for slot in &mut self.slots {
            if slot.is_none() {
                *slot = Some(PropertyStatus::Inconclusive {
                    reason: reason.clone(),
                    bound_reached,
                });
            }
        }
    }

    /// Records a `"retired"` placeholder for every undecided slot another
    /// entrant already decided (the race adopts that entrant's status).
    pub fn sync_board(&mut self, bound_reached: usize) {
        for i in 0..self.slots.len() {
            self.yield_if_retired(i, bound_reached);
        }
    }

    /// The in-loop form of [`sync_board`](Self::sync_board): yields slot
    /// `i` (recording the placeholder) when another entrant retired it
    /// mid-round; returns `true` when the caller must skip the property.
    pub fn yield_if_retired(&mut self, i: usize, bound_reached: usize) -> bool {
        if self.slots[i].is_some() {
            return true;
        }
        if self.board.is_some_and(|board| board.is_retired(i)) {
            self.telemetry
                .instant_args("prop.retired", || vec![("prop", ArgValue::U64(i as u64))]);
            self.slots[i] = Some(PropertyStatus::Inconclusive {
                reason: StopReason::Retired,
                bound_reached,
            });
            return true;
        }
        false
    }

    /// The final statuses.
    ///
    /// # Panics
    ///
    /// Panics if any property is still undecided.
    pub fn into_statuses(self) -> Vec<PropertyStatus> {
        self.slots
            .into_iter()
            .map(|slot| slot.expect("every property decided"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_first_publisher_wins() {
        let board = RetireBoard::new(2);
        assert!(!board.is_retired(0));
        assert!(board.publish(
            0,
            PropertyStatus::Falsified {
                depth: 3,
                cex: None
            }
        ));
        assert!(!board.publish(
            0,
            PropertyStatus::Proved {
                k_fp: 1,
                j_fp: 1,
                cert: None
            }
        ));
        assert!(board.is_retired(0));
        assert!(!board.is_retired(1));
        assert!(board.publish(
            1,
            PropertyStatus::Proved {
                k_fp: 2,
                j_fp: 1,
                cert: None
            }
        ));
        assert_eq!(
            board.take(0),
            Some(PropertyStatus::Falsified {
                depth: 3,
                cex: None
            })
        );
        assert_eq!(board.take(0), None, "take drains the slot");
    }

    #[test]
    fn fallback_loop_matches_per_property_runs() {
        // One failing (depth 2) and one holding property.
        let aig = workloads::counter::modular_multi(2, 3, &[2, 3]);
        let options = Options::default().with_max_bound(12);
        let multi = fallback_loop(&aig, &[0, 1], Engine::ItpSeq, &options, &CancelToken::new());
        assert_eq!(multi.statuses.len(), 2);
        for (prop, status) in multi.statuses.iter().enumerate() {
            let single = Engine::ItpSeq.verify(&aig, prop, &options);
            assert!(status.agrees_with(&single.verdict), "property {prop}");
        }
        assert!(multi.stats.sat_calls > 0);
    }
}
