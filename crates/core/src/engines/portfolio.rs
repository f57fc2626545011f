//! Racing engines: [`Engine::Portfolio`].
//!
//! The paper's own Table I is the motivation: no single engine dominates —
//! BMC wins on failing properties, the interpolation-sequence variants on
//! shallow proofs, PDR on large designs with small inductive invariants.
//! One race, `race`, turns that into a mode for both entries:
//! `Engine::Portfolio.verify` races the [`ENTRANTS`] on its property, and
//! `Engine::Portfolio.verify_all` races `GROUP_ENTRANTS` on each
//! cone-of-influence group ([`crate::multi::scheduler`]).
//!
//! Each entrant runs on its own scoped thread and cancel token, through
//! the one containment boundary of engine runs (`engines::run::contain`),
//! so a faulted entrant just loses.  The entrants share one retirement
//! board: the multi backends publish conclusive statuses as they go (and
//! skip what another entrant decided), the others when they return.
//! Once the board holds every property, or the outer token is cancelled,
//! every entrant is cancelled.
//!
//! # Determinism
//!
//! Racing decides *when* engines stop, never *what* they answer: every
//! engine reports depth-minimal counterexamples (checked by the
//! engine-agreement suite), conclusive kinds agree by soundness, and each
//! property adopts by fixed entrant precedence (`adopt`), not arrival
//! order, so even the `Proved` bookkeeping (`k_fp`, `j_fp`) is as stable
//! as the race allows.  The race's statistics absorb every entrant.
//!
//! # Thread budget
//!
//! [`Options::threads`] is the worker budget (`0` = ask the machine).  A
//! race runs one thread per entrant and gives PDR what exceeds the other
//! entrants' threads for its parallel frame phases (see
//! [`crate::engines::pdr`]).  With a budget of 1, the default and what the
//! scheduler passes each group, every entrant runs its deterministic
//! sequential reference.

use crate::engines::CancelToken;
use crate::multi::RetireBoard;
use crate::{Engine, EngineResult, EngineStats, MultiResult, Options, PropertyStatus};
use aig::Aig;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use telemetry::ArgValue;

/// The single-property lineup, in adoption-precedence order: PDR (the
/// strongest prover), ITPSEQCBA (the paper's best interpolation engine),
/// BMC (the fastest falsifier).
pub const ENTRANTS: [Engine; 3] = [Engine::Pdr, Engine::ItpSeqCba, Engine::Bmc];

/// The lineup of each cone-of-influence group of `verify_all`, in
/// adoption-precedence order: the two engines with an amortized
/// multi-property backend.
pub(crate) const GROUP_ENTRANTS: [Engine; 2] = [Engine::Pdr, Engine::Bmc];

/// How often a race re-examines the outer cancellation token while its
/// entrants run.
const POLL: Duration = Duration::from_millis(20);

/// `Engine::Portfolio` on bad-state property `bad_index` of `aig`: the
/// [`race`] of the [`ENTRANTS`] on that one property, inside a
/// `portfolio.race` span.  Entrants run directly on `aig`: the staged
/// pipeline entry already preprocessed the model once for the whole race.
pub(crate) fn verify(
    aig: &Aig,
    bad_index: usize,
    options: &Options,
    cancel: &CancelToken,
) -> EngineResult {
    let _race = options.telemetry.span_args("portfolio.race", || {
        vec![
            ("entrants", ArgValue::U64(ENTRANTS.len() as u64)),
            ("bad", ArgValue::U64(bad_index as u64)),
        ]
    });
    let entrant = |engine: Engine, config: &Options, token: &CancelToken, _: &RetireBoard| {
        engine.dispatch(aig, bad_index, config, token).into()
    };
    race(&ENTRANTS, 1, "", options, cancel, entrant).into_single()
}

/// Races the engines of `lineup` on `props` properties: `entrant(engine,
/// options, token, board)` runs one entrant (through the containment
/// boundary) and returns one status per property.  Each entrant traces
/// onto the track `{tracks}{NAME}`; cancelling the outer token `cancel`
/// cancels every entrant.  Returns the [`adopt`]ed statuses and every
/// entrant's statistics.
pub(crate) fn race(
    lineup: &[Engine],
    props: usize,
    tracks: &str,
    options: &Options,
    cancel: &CancelToken,
    entrant: impl Fn(Engine, &Options, &CancelToken, &RetireBoard) -> MultiResult + Sync,
) -> MultiResult {
    let start = Instant::now();
    let telemetry = &options.telemetry;
    let board = RetireBoard::new(props);
    let tokens: Vec<CancelToken> = lineup.iter().map(|_| CancelToken::new()).collect();
    let cancel_all = || tokens.iter().for_each(CancelToken::cancel);
    // An already-cancelled outer token must reach the entrants *before*
    // they start: otherwise a fast entrant could decide inside the first
    // poll interval.
    if cancel.is_cancelled() {
        cancel_all();
    }
    let pdr_workers = options
        .effective_threads()
        .saturating_sub(lineup.len() - 1)
        .max(1);
    // Release/Acquire: an entrant publishes to the board before it counts
    // itself finished, so the supervisor's `is_full` after a wake-up sees
    // every publication of the entrants it counted.
    let finished = AtomicUsize::new(0);
    let supervisor = std::thread::current();
    let results: Vec<MultiResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = lineup
            .iter()
            .zip(&tokens)
            .map(|(&engine, token)| {
                let threads = if engine == Engine::Pdr {
                    pdr_workers
                } else {
                    1
                };
                let config = options
                    .clone()
                    .with_threads(threads)
                    .with_telemetry(telemetry.scoped(&format!("{tracks}{engine}")));
                let name = ("entrant", ArgValue::Str(engine.name().to_string()));
                telemetry.instant_args("entrant.start", || vec![name.clone()]);
                let (entrant, board, finished, supervisor) =
                    (&entrant, &board, &finished, &supervisor);
                scope.spawn(move || {
                    let result = entrant(engine, &config, token, board);
                    for (slot, status) in result.statuses.iter().enumerate() {
                        if status.is_conclusive() {
                            board.publish(slot, status.clone());
                        }
                    }
                    telemetry.instant_args("entrant.done", || vec![name]);
                    finished.fetch_add(1, Ordering::Release);
                    supervisor.unpark();
                    result
                })
            })
            .collect();
        let mut stopping = false;
        while finished.load(Ordering::Acquire) < lineup.len() {
            if !stopping && (board.is_full() || cancel.is_cancelled()) {
                stopping = true;
                telemetry.instant("entrant.cancel");
                cancel_all();
            }
            std::thread::park_timeout(POLL);
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("entrant runs are contained"))
            .collect()
    });

    let mut stats = EngineStats::default();
    results
        .iter()
        .for_each(|result| stats.absorb(&result.stats));
    let (winners, statuses): (Vec<_>, Vec<_>) = adopt(&results, &board).into_iter().unzip();
    if let Some(&Some(slot)) = winners.first() {
        let winner = lineup[slot].name();
        stats.winner = Some(winner);
        telemetry.instant_args("entrant.win", || {
            vec![
                ("entrant", ArgValue::Str(winner.to_string())),
                ("verdict", ArgValue::Str(statuses[0].verdict().to_string())),
            ]
        });
    }
    stats.time = start.elapsed();
    MultiResult { statuses, stats }
}

/// The adoption rule of a race, per property, with the position in the
/// lineup of the entrant whose status is adopted:
///
/// 1. the first conclusive status in entrant order;
/// 2. else the board's status (`None`: an entrant published it, then
///    faulted);
/// 3. else the furthest inconclusive status, the earlier entrant winning
///    ties.
///
/// `entrants` holds each entrant's statuses in lineup order (at least one
/// entrant); the board's slots are taken.
fn adopt(entrants: &[MultiResult], board: &RetireBoard) -> Vec<(Option<usize>, PropertyStatus)> {
    let bound = |status: &PropertyStatus| match status {
        PropertyStatus::Inconclusive { bound_reached, .. } => *bound_reached,
        _ => 0,
    };
    (0..entrants[0].statuses.len())
        .map(|prop| {
            let column = || {
                entrants
                    .iter()
                    .map(move |result| &result.statuses[prop])
                    .enumerate()
            };
            if let Some((slot, status)) = column().find(|(_, status)| status.is_conclusive()) {
                return (Some(slot), status.clone());
            }
            if let Some(status) = board.take(prop) {
                return (None, status);
            }
            let (slot, status) = column()
                .max_by_key(|&(slot, status)| (bound(status), Reverse(slot)))
                .expect("a race has entrants");
            (Some(slot), status.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StopReason, Verdict};
    use workloads::counter::modular as modular_counter;

    fn verify(aig: &Aig, options: &Options) -> EngineResult {
        Engine::Portfolio.dispatch(aig, 0, options, &CancelToken::new())
    }

    fn options() -> Options {
        Options::default()
            .with_timeout(Duration::from_secs(20))
            .with_max_bound(40)
    }

    /// The adoption rule on synthetic statuses of a three-entrant race,
    /// one case per property, with no threads involved.
    #[test]
    fn adoption_prefers_precedence_then_the_board_then_the_furthest() {
        use StopReason::{Cancelled, Retired, Timeout};
        let stop = |reason, bound_reached| PropertyStatus::Inconclusive {
            reason,
            bound_reached,
        };
        let proved = |k_fp| PropertyStatus::Proved {
            k_fp,
            j_fp: 1,
            cert: None,
        };
        let panic = || StopReason::panic("injected");
        let falsified = PropertyStatus::Falsified {
            depth: 5,
            cex: None,
        };
        // Entrant 2 published property 0 first; some entrant published
        // property 1 and then faulted.
        let board = RetireBoard::new(4);
        board.publish(0, proved(7));
        board.publish(1, falsified.clone());
        let entrants = [
            [
                stop(Cancelled, 2),
                stop(panic(), 0),
                stop(Timeout, 3),
                stop(panic(), 0),
            ],
            [
                proved(4),
                stop(Retired, 3),
                stop(Timeout, 6),
                stop(Timeout, 5),
            ],
            [
                proved(7),
                stop(Cancelled, 1),
                stop(Timeout, 4),
                stop(Cancelled, 5),
            ],
        ]
        .map(|statuses| MultiResult {
            statuses: statuses.to_vec(),
            stats: EngineStats::default(),
        });
        let expected = vec![
            // The first conclusive status in entrant order, not the first
            // one published.
            (Some(1), proved(4)),
            // No conclusive status: the board's.
            (None, falsified),
            // The furthest inconclusive status; a tie goes to the earlier
            // entrant.
            (Some(1), stop(Timeout, 6)),
            (Some(1), stop(Timeout, 5)),
        ];
        assert_eq!(adopt(&entrants, &board), expected);
    }

    #[test]
    fn proves_and_tags_the_winner() {
        let aig = modular_counter(3, 6, 7);
        // Sequential entrants (the default budget) and the auto budget
        // (parallel PDR entrant) must both prove and tag a winner.
        for budget in [1usize, 0] {
            let result = verify(&aig, &options().with_threads(budget));
            assert!(result.verdict.is_proved(), "{}", result.verdict);
            let winner = result.stats.winner.expect("portfolio tags its winner");
            assert!(ENTRANTS.iter().any(|e| e.name() == winner));
        }
    }

    #[test]
    fn falsifies_at_the_minimal_depth() {
        for bad_at in [1u64, 4, 8] {
            let aig = modular_counter(4, 10, bad_at);
            let result = verify(&aig, &options());
            assert_eq!(
                result.verdict,
                Verdict::Falsified {
                    depth: bad_at as usize
                },
                "bad_at = {bad_at}"
            );
        }
    }

    #[test]
    fn detects_depth_zero_violations() {
        let aig = modular_counter(3, 6, 0);
        let result = verify(&aig, &options());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 0 });
    }

    #[test]
    fn outer_cancellation_stops_every_entrant() {
        let aig = modular_counter(5, 28, 31);
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = Engine::Portfolio.dispatch(&aig, 0, &options(), &cancel);
        assert!(
            matches!(result.verdict, Verdict::Inconclusive { .. }),
            "{}",
            result.verdict
        );
    }

    #[test]
    fn agrees_with_the_sequential_reference() {
        for bad_at in 1..8u64 {
            let aig = modular_counter(3, 6, bad_at);
            let reference = Engine::Pdr.verify(&aig, 0, &options());
            let raced = verify(&aig, &options());
            assert_eq!(
                reference.verdict.is_proved(),
                raced.verdict.is_proved(),
                "bad_at = {bad_at}: {} vs {}",
                reference.verdict,
                raced.verdict
            );
            if let Verdict::Falsified { depth } = reference.verdict {
                assert_eq!(raced.verdict, Verdict::Falsified { depth });
            }
        }
    }
}
