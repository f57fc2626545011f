//! Independent references and the per-operation verdict checks.
//!
//! An operation is one engine deciding one property in one engine run.  It
//! fails when its verdict is inconclusive, when its kind differs from the
//! reference, when its counterexample depth differs from BDD's shortest
//! counterexample or, where BDD does not complete, from the depth most
//! operations on that property report, when its certificate is missing or
//! rejected by `certify`, or — for the sequential engines — when its run's
//! work counters differ from the first run's of the same (design, engine)
//! cell.

use crate::designs::Design;
use std::collections::BTreeMap;

/// BDD node budget for the exact reference; designs that need more fall
/// back to the construction answer.
const BDD_NODE_LIMIT: usize = 200_000;

/// The independently known answer for one property.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub fails: bool,
    pub depth: Option<usize>,
}

/// Computes the reference of every property of every design.  `Err`
/// names a property no reference decides, or one where BDD and the
/// construction disagree — a fault of the benchmark's designs, not of
/// the program.
pub fn references(designs: &[Design]) -> Result<Vec<Vec<Reference>>, String> {
    designs
        .iter()
        .map(|design| {
            (0..design.num_props())
                .map(|p| {
                    let (c, q) = design.locate(p);
                    let part = &design.parts[c];
                    let exact = bdd::reach::analyze(&part.aig, q, BDD_NODE_LIMIT).verdict;
                    let known = part.fails[q];
                    let reference = match exact {
                        bdd::reach::BddVerdict::Pass => Reference {
                            fails: false,
                            depth: None,
                        },
                        bdd::reach::BddVerdict::Fail { depth } => Reference {
                            fails: true,
                            depth: Some(depth),
                        },
                        bdd::reach::BddVerdict::Overflow => Reference {
                            fails: known.ok_or_else(|| {
                                format!("{} property {p}: no reference decides it", design.name)
                            })?,
                            depth: None,
                        },
                    };
                    if known.is_some_and(|f| f != reference.fails) {
                        return Err(format!(
                            "{} property {p}: BDD and construction disagree",
                            design.name
                        ));
                    }
                    Ok(reference)
                })
                .collect()
        })
        .collect()
}

/// What one operation produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub design: usize,
    pub prop: usize,
    pub engine: usize,
    /// `None` for an inconclusive verdict, else `Some(depth)` with depth
    /// `None` for a proof.
    pub verdict: Option<Option<usize>>,
    /// `Err(reason)` when the certificate was missing or rejected.
    pub certificate: Result<(), String>,
    /// The run's work counters differed from the cell's first run's.
    pub counters_drifted: bool,
}

/// Counts the failed operations; prints one line per failure to stderr.
pub fn count_failures(
    outcomes: &[Outcome],
    refs: &[Vec<Reference>],
    design_names: &[&str],
    engine_names: &[&str],
) -> u64 {
    // The depth most falsifying operations report, per property, for
    // properties without a reference depth.
    let mut votes: BTreeMap<(usize, usize), BTreeMap<usize, usize>> = BTreeMap::new();
    for o in outcomes {
        if let Some(Some(depth)) = o.verdict {
            *votes
                .entry((o.design, o.prop))
                .or_default()
                .entry(depth)
                .or_default() += 1;
        }
    }
    let consensus = |design: usize, prop: usize| -> Option<usize> {
        let tally = votes.get(&(design, prop))?;
        let best = tally.values().max()?;
        tally.iter().find(|(_, n)| *n == best).map(|(d, _)| *d)
    };
    let mut failed = 0;
    for o in outcomes {
        let reference = refs[o.design][o.prop];
        let problem = match o.verdict {
            None => Some("inconclusive".to_string()),
            Some(depth) if depth.is_some() != reference.fails => Some(format!(
                "{} where the reference says {}",
                if depth.is_some() {
                    "falsified"
                } else {
                    "proved"
                },
                if reference.fails {
                    "falsified"
                } else {
                    "proved"
                }
            )),
            Some(Some(depth)) => {
                let expected = reference.depth.or_else(|| consensus(o.design, o.prop));
                (Some(depth) != expected).then(|| format!("depth {depth}, expected {expected:?}"))
            }
            Some(None) => None,
        }
        .or_else(|| o.certificate.clone().err())
        .or_else(|| {
            o.counters_drifted
                .then(|| "work counters drifted".to_string())
        });
        if let Some(problem) = problem {
            failed += 1;
            eprintln!(
                "FAILED {} property {} engine {}: {problem}",
                design_names[o.design], o.prop, engine_names[o.engine]
            );
        }
    }
    failed
}
