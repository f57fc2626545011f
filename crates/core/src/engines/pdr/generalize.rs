//! Cube generalization: assumption-core shrinking plus CTG-style down.
//!
//! A blocked obligation yields a core-shrunk cube whose negation is a
//! valid lemma — but usually not the *strongest* one.  This module drops
//! further literals MIC-style: each candidate (cube minus one literal) is
//! re-checked for relative induction, and when the check fails on a
//! *counterexample to generalization* (a predecessor state that is itself
//! unreachable), the CTG is blocked one frame down first and the
//! candidate retried (Hassan, Bradley, Somenzi — *Better generalization
//! in IC3*, FMCAD 2013).
//!
//! With worker threads available ([`Options::threads`](crate::Options)
//! above 1) and a cube large enough to amortise solver cloning, the
//! engine switches to a *parallel down*: every single-literal drop of the
//! current cube is screened concurrently on cloned frame solvers, the
//! first (lowest-index) blocked candidate is adopted, and the round
//! repeats until no drop survives.  Screening has no side effects on the
//! frames, so the result depends only on the cube — never on scheduling
//! or thread count.  The parallel mode trades the sequential mode's CTG
//! strengthening for wall-clock speed; both produce sound lemmas.

use super::frames::Cube;
use super::{Pdr, Query, PAR_MIN_ITEMS};

/// Counterexamples-to-generalization handled per candidate before giving
/// up on a literal drop.
const MAX_CTGS: usize = 3;

/// Strengthens the lemma `¬seed` (already blocked at `frame`) by dropping
/// as many literals as relative induction allows.
pub(super) fn generalize(pdr: &mut Pdr<'_, '_>, frame: usize, seed: Cube) -> Cube {
    if pdr.threads > 1 && seed.len() >= PAR_MIN_ITEMS {
        parallel_down(pdr, frame, seed)
    } else {
        sequential_down(pdr, frame, seed)
    }
}

/// The classic sequential MIC loop with CTG handling.
fn sequential_down(pdr: &mut Pdr<'_, '_>, frame: usize, seed: Cube) -> Cube {
    let mut cube = seed;
    let mut index = 0;
    while index < cube.len() && cube.len() > 1 {
        if pdr.run.should_stop() {
            break;
        }
        let candidate = cube.without(index);
        match try_block(pdr, frame, candidate) {
            // The candidate (or a sub-cube of it) is blocked too: adopt it
            // and retry the same position, which now holds the next
            // literal.
            Some(shrunk) => cube = shrunk,
            None => index += 1,
        }
    }
    cube
}

/// Screens every single-literal drop of the cube in parallel and adopts
/// the first surviving candidate, until the cube is minimal.
///
/// Each adopted cube is a strict sub-cube of its predecessor, so the loop
/// terminates after at most `seed.len()` rounds.
fn parallel_down(pdr: &mut Pdr<'_, '_>, frame: usize, seed: Cube) -> Cube {
    let mut cube = seed;
    while cube.len() > 1 {
        if pdr.run.should_stop() {
            break;
        }
        let candidates: Vec<Cube> = (0..cube.len()).map(|index| cube.without(index)).collect();
        let screened = pdr.screen_drop_candidates(frame, &candidates);
        match screened.into_iter().flatten().next() {
            Some(shrunk) => cube = shrunk,
            None => break,
        }
    }
    cube
}

/// Attempts to show `cube` unreachable relative to `F_{frame-1}`,
/// dispatching up to [`MAX_CTGS`] counterexamples-to-generalization along
/// the way.  Returns the core-shrunk blocked cube on success.
fn try_block(pdr: &mut Pdr<'_, '_>, frame: usize, cube: Cube) -> Option<Cube> {
    let mut ctgs = 0;
    loop {
        if cube.is_empty() || cube.contains_state(&pdr.init) || pdr.run.should_stop() {
            return None;
        }
        match pdr.relative_induction(frame, &cube) {
            Query::Blocked(core) => return Some(core),
            Query::Cancelled => return None,
            Query::Predecessor(ctg, _) => {
                // The candidate has a predecessor.  If that predecessor is
                // itself unreachable one frame down, learn a lemma against
                // it and retry; otherwise the drop fails.
                if ctgs >= MAX_CTGS || frame < 2 || ctg.contains_state(&pdr.init) {
                    return None;
                }
                match pdr.relative_induction(frame - 1, &ctg) {
                    Query::Blocked(ctg_core) => {
                        ctgs += 1;
                        let at = push_lemma_up(pdr, frame - 1, &ctg_core);
                        pdr.add_lemma(at, ctg_core);
                    }
                    Query::Predecessor(..) | Query::Cancelled => return None,
                }
            }
        }
    }
}

/// Returns the highest frame (at least `from`, at most the frontier) at
/// which `cube` is still relatively inductive.
fn push_lemma_up(pdr: &mut Pdr<'_, '_>, from: usize, cube: &Cube) -> usize {
    let mut at = from;
    while at < pdr.frames.level() {
        match pdr.relative_induction(at + 1, cube) {
            Query::Blocked(_) => at += 1,
            Query::Predecessor(..) | Query::Cancelled => break,
        }
    }
    at
}
