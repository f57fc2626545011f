//! Resolution proofs produced by the solver.
//!
//! The proof is a DAG of clauses.  Leaves are the original clauses (with
//! their interpolation partition); internal nodes are learned clauses, each
//! carrying the *trivial resolution chain* by which conflict analysis
//! derived it; the root is the empty clause, derived by the final chain.
//!
//! A chain `(start, [(v₁, c₁), (v₂, c₂), …])` denotes the linear resolution
//! `((start ⊗_{v₁} c₁) ⊗_{v₂} c₂) ⊗ …` where `⊗_v` resolves on variable
//! `v`.  Chains reference clauses by their index in [`Proof::clauses`].
//!
//! A [`ProofView`] reads a refutation in place — straight from a solver's
//! clause arena and resolution recorder ([`crate::Solver::proof_view`]),
//! or from an owned [`Proof`] — so interpolation needs no copy of the
//! clauses.  [`ProofView::to_proof`] is the owned export, kept for tests
//! and for [`Proof::check`].

use crate::arena::ClauseArena;
use cnf::{Lit, Var};

/// Index of a clause inside a [`Proof`].
pub type ProofClauseId = usize;

/// A linear resolution chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// The clause the chain starts from.
    pub start: ProofClauseId,
    /// Successive resolution steps: `(pivot variable, antecedent clause)`.
    pub steps: Vec<(Var, ProofClauseId)>,
}

/// Where a proof clause comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClauseOrigin {
    /// An input clause, tagged with its interpolation partition
    /// (1-based; 0 means "outside every partition").
    Original {
        /// The partition index assigned when the clause was added.
        partition: u32,
    },
    /// A clause learned by conflict analysis, derived by `chain`.
    Learned {
        /// The resolution chain deriving this clause.
        chain: Chain,
    },
}

/// A single clause of the proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofClause {
    /// The literals of the clause.
    pub lits: Vec<Lit>,
    /// Leaf (original) or derived (learned).
    pub origin: ClauseOrigin,
}

impl ProofClause {
    /// Returns `true` for input clauses.
    pub fn is_original(&self) -> bool {
        matches!(self.origin, ClauseOrigin::Original { .. })
    }

    /// Returns the partition of an original clause, or `None` for learned
    /// clauses.
    pub fn partition(&self) -> Option<u32> {
        match self.origin {
            ClauseOrigin::Original { partition } => Some(partition),
            ClauseOrigin::Learned { .. } => None,
        }
    }
}

/// A complete refutation proof.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Proof {
    /// All clauses, original and learned, in the order the solver created
    /// them (chains only ever reference earlier clauses).
    pub clauses: Vec<ProofClause>,
    /// The chain deriving the empty clause.  `None` only for proofs of
    /// formulas that were never refuted (which the solver never returns).
    pub empty_clause_chain: Option<Chain>,
}

impl Proof {
    /// A borrowed view of this proof, with clause ids equal to indices
    /// into [`Proof::clauses`].
    pub fn view(&self) -> ProofView<'_> {
        ProofView {
            clauses: Clauses::Owned(&self.clauses),
            empty_clause_chain: self.empty_clause_chain.as_ref(),
        }
    }

    /// Number of original (leaf) clauses.
    pub fn num_original(&self) -> usize {
        self.clauses.iter().filter(|c| c.is_original()).count()
    }

    /// Number of learned clauses.
    pub fn num_learned(&self) -> usize {
        self.clauses.len() - self.num_original()
    }

    /// Returns the largest partition index appearing on any original clause.
    pub fn num_partitions(&self) -> u32 {
        self.clauses
            .iter()
            .filter_map(|c| c.partition())
            .max()
            .unwrap_or(0)
    }

    /// Replays a resolution chain and returns the resulting clause literals
    /// (sorted and deduplicated).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description when a step's pivot does not
    /// occur with opposite phases in the two operands, which would make the
    /// chain invalid.
    pub fn replay_chain(&self, chain: &Chain) -> Result<Vec<Lit>, String> {
        let mut current: Vec<Lit> = self.clauses[chain.start].lits.clone();
        current.sort_unstable();
        current.dedup();
        for &(pivot, antecedent) in &chain.steps {
            let other = &self.clauses[antecedent].lits;
            let pos = Lit::positive(pivot);
            let neg = Lit::negative(pivot);
            let in_current_pos = current.contains(&pos);
            let in_current_neg = current.contains(&neg);
            let in_other_pos = other.contains(&pos);
            let in_other_neg = other.contains(&neg);
            let ok = (in_current_pos && in_other_neg) || (in_current_neg && in_other_pos);
            if !ok {
                return Err(format!(
                    "pivot {pivot:?} does not occur with opposite phases in operands"
                ));
            }
            current.retain(|&l| l.var() != pivot);
            for &l in other {
                if l.var() != pivot && !current.contains(&l) {
                    current.push(l);
                }
            }
            current.sort_unstable();
        }
        Ok(current)
    }

    /// Checks the whole proof: every learned clause must be derivable by its
    /// chain (the replayed clause must be a subset of the recorded one), and
    /// the final chain must derive the empty clause.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn check(&self) -> Result<(), String> {
        for (id, clause) in self.clauses.iter().enumerate() {
            if let ClauseOrigin::Learned { chain } = &clause.origin {
                if chain.start >= id || chain.steps.iter().any(|&(_, c)| c >= id) {
                    return Err(format!("clause {id} references a later clause"));
                }
                let derived = self.replay_chain(chain)?;
                let mut recorded: Vec<Lit> = clause.lits.clone();
                recorded.sort_unstable();
                recorded.dedup();
                if !derived.iter().all(|l| recorded.contains(l)) {
                    return Err(format!(
                        "clause {id}: derived clause {derived:?} is not a subset of recorded {recorded:?}"
                    ));
                }
            }
        }
        match &self.empty_clause_chain {
            None => Err("proof has no final chain".to_string()),
            Some(chain) => {
                let derived = self.replay_chain(chain)?;
                if derived.is_empty() {
                    Ok(())
                } else {
                    Err(format!(
                        "final chain derives {derived:?}, not the empty clause"
                    ))
                }
            }
        }
    }
}

/// Where the clauses of a [`ProofView`] live.
#[derive(Clone, Copy, Debug)]
enum Clauses<'a> {
    /// A solver's arena: ids are proof ids, and `chains[id]` is the chain
    /// of learned clause `id` (`None` for original clauses).
    Arena {
        arena: &'a ClauseArena,
        chains: &'a [Option<Chain>],
    },
    /// An exported proof: ids are indices.
    Owned(&'a [ProofClause]),
}

/// A borrowed refutation: its clauses in creation order, with resolution
/// chains referring to clauses by id.
///
/// Ids are dense for an owned [`Proof`]; for a live solver they are its
/// proof ids, which also count learned clauses that database reduction
/// deleted since.  [`ProofView::clauses`] skips deleted clauses and
/// yields literals in the solver's arena order, which is exactly what
/// [`ProofView::to_proof`] exports.
#[derive(Clone, Copy, Debug)]
pub struct ProofView<'a> {
    clauses: Clauses<'a>,
    empty_clause_chain: Option<&'a Chain>,
}

/// How a clause of a [`ProofView`] came about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewOrigin<'a> {
    /// An input clause with its interpolation partition.
    Original {
        /// The partition index assigned when the clause was added.
        partition: u32,
    },
    /// A learned clause and the chain deriving it.
    Learned {
        /// The resolution chain, over view ids.
        chain: &'a Chain,
    },
}

/// One clause of a [`ProofView`].
#[derive(Clone, Copy, Debug)]
pub struct ViewClause<'a> {
    /// The clause's id, as chains refer to it.
    pub id: usize,
    /// Leaf (original) or derived (learned).
    pub origin: ViewOrigin<'a>,
    codes: &'a [u32],
    lits: &'a [Lit],
}

impl<'a> ViewClause<'a> {
    /// The literals of the clause.
    pub fn lits(&self) -> impl Iterator<Item = Lit> + 'a {
        let codes = self.codes.iter().map(|&code| Lit::from_code(code));
        codes.chain(self.lits.iter().copied())
    }
}

impl<'a> From<&'a Proof> for ProofView<'a> {
    fn from(proof: &'a Proof) -> ProofView<'a> {
        proof.view()
    }
}

impl<'a> ProofView<'a> {
    /// A view of a solver's arena and recorded chains.
    pub(crate) fn of_arena(
        arena: &'a ClauseArena,
        chains: &'a [Option<Chain>],
        empty_clause_chain: &'a Chain,
    ) -> ProofView<'a> {
        ProofView {
            clauses: Clauses::Arena { arena, chains },
            empty_clause_chain: Some(empty_clause_chain),
        }
    }

    /// The chain deriving the empty clause; `None` for an owned proof of
    /// a formula that was never refuted.
    pub fn empty_clause_chain(&self) -> Option<&'a Chain> {
        self.empty_clause_chain
    }

    /// An upper bound on clause ids (every id is below it).
    pub fn num_ids(&self) -> usize {
        match self.clauses {
            Clauses::Arena { chains, .. } => chains.len(),
            Clauses::Owned(clauses) => clauses.len(),
        }
    }

    /// The chain of learned clause `id`, or `None` for an original one.
    pub fn chain(&self, id: usize) -> Option<&'a Chain> {
        match self.clauses {
            Clauses::Arena { chains, .. } => chains[id].as_ref(),
            Clauses::Owned(clauses) => match &clauses[id].origin {
                ClauseOrigin::Learned { chain } => Some(chain),
                ClauseOrigin::Original { .. } => None,
            },
        }
    }

    /// The clauses in creation order (chains only reference earlier
    /// ones).
    pub fn clauses(&self) -> impl Iterator<Item = ViewClause<'a>> + 'a {
        let (arena, chains, owned): (Option<&ClauseArena>, &[Option<Chain>], &[ProofClause]) =
            match self.clauses {
                Clauses::Arena { arena, chains } => (Some(arena), chains, &[]),
                Clauses::Owned(clauses) => (None, &[], clauses),
            };
        let from_arena = arena.into_iter().flat_map(move |arena| {
            arena
                .refs()
                .filter(move |&c| !arena.is_deleted(c))
                .map(move |c| {
                    let id = arena.proof_id(c) as usize;
                    let origin = if arena.is_learned(c) {
                        ViewOrigin::Learned {
                            chain: chains[id]
                                .as_ref()
                                .expect("live learned clauses keep their chains"),
                        }
                    } else {
                        ViewOrigin::Original {
                            partition: arena.partition(c),
                        }
                    };
                    ViewClause {
                        id,
                        origin,
                        codes: arena.codes(c),
                        lits: &[],
                    }
                })
        });
        let from_owned = owned.iter().enumerate().map(|(id, clause)| ViewClause {
            id,
            origin: match &clause.origin {
                ClauseOrigin::Original { partition } => ViewOrigin::Original {
                    partition: *partition,
                },
                ClauseOrigin::Learned { chain } => ViewOrigin::Learned { chain },
            },
            codes: &[],
            lits: &clause.lits,
        });
        from_arena.chain(from_owned)
    }

    /// Marks the clauses the refutation uses: the empty-clause chain and,
    /// transitively, the chains of the learned clauses it reaches.
    /// Everything is unmarked when there is no refutation.
    pub fn refutation_cone(&self) -> Vec<bool> {
        let mut needed = vec![false; self.num_ids()];
        let Some(final_chain) = self.empty_clause_chain else {
            return needed;
        };
        let mut stack: Vec<usize> = Vec::new();
        let push_chain = |chain: &Chain, stack: &mut Vec<usize>| {
            stack.push(chain.start);
            stack.extend(chain.steps.iter().map(|&(_, c)| c));
        };
        push_chain(final_chain, &mut stack);
        while let Some(id) = stack.pop() {
            if needed[id] {
                continue;
            }
            needed[id] = true;
            if let Some(chain) = self.chain(id) {
                push_chain(chain, &mut stack);
            }
        }
        needed
    }

    /// Exports an owned [`Proof`]: every original clause (interpolation
    /// needs the full partition layout for its variable-occurrence
    /// ranges), but only the learned clauses in the refutation cone, with
    /// chains renumbered densely.
    pub fn to_proof(&self) -> Proof {
        let needed = self.refutation_cone();
        let mut remap = vec![usize::MAX; self.num_ids()];
        let renumber = |chain: &Chain, remap: &[usize]| {
            debug_assert!(remap[chain.start] != usize::MAX);
            Chain {
                start: remap[chain.start],
                steps: chain
                    .steps
                    .iter()
                    .map(|&(v, c)| {
                        debug_assert!(remap[c] != usize::MAX);
                        (v, remap[c])
                    })
                    .collect(),
            }
        };
        let mut clauses = Vec::new();
        for clause in self.clauses() {
            let origin = match clause.origin {
                ViewOrigin::Learned { .. } if !needed[clause.id] => continue,
                ViewOrigin::Learned { chain } => ClauseOrigin::Learned {
                    chain: renumber(chain, &remap),
                },
                ViewOrigin::Original { partition } => ClauseOrigin::Original { partition },
            };
            remap[clause.id] = clauses.len();
            clauses.push(ProofClause {
                lits: clause.lits().collect(),
                origin,
            });
        }
        Proof {
            clauses,
            empty_clause_chain: self.empty_clause_chain.map(|c| renumber(c, &remap)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, neg: bool) -> Lit {
        Lit::new(Var::new(v), neg)
    }

    /// Hand-built proof of UNSAT for {a, ¬a ∨ b, ¬b}.
    fn tiny_proof() -> Proof {
        Proof {
            clauses: vec![
                ProofClause {
                    lits: vec![lit(0, false)],
                    origin: ClauseOrigin::Original { partition: 1 },
                },
                ProofClause {
                    lits: vec![lit(0, true), lit(1, false)],
                    origin: ClauseOrigin::Original { partition: 1 },
                },
                ProofClause {
                    lits: vec![lit(1, true)],
                    origin: ClauseOrigin::Original { partition: 2 },
                },
            ],
            empty_clause_chain: Some(Chain {
                start: 2,
                steps: vec![(Var::new(1), 1), (Var::new(0), 0)],
            }),
        }
    }

    #[test]
    fn replay_of_valid_chain_gives_empty_clause() {
        let proof = tiny_proof();
        let chain = proof.empty_clause_chain.clone().unwrap();
        assert_eq!(proof.replay_chain(&chain).unwrap(), vec![]);
        assert!(proof.check().is_ok());
    }

    #[test]
    fn replay_detects_bad_pivot() {
        let proof = tiny_proof();
        let bad = Chain {
            start: 0,
            steps: vec![(Var::new(1), 2)],
        };
        assert!(proof.replay_chain(&bad).is_err());
    }

    #[test]
    fn counts_are_consistent() {
        let proof = tiny_proof();
        assert_eq!(proof.num_original(), 3);
        assert_eq!(proof.num_learned(), 0);
        assert_eq!(proof.num_partitions(), 2);
    }

    #[test]
    fn check_rejects_missing_final_chain() {
        let mut proof = tiny_proof();
        proof.empty_clause_chain = None;
        assert!(proof.check().is_err());
    }

    #[test]
    fn check_rejects_forward_references() {
        let mut proof = tiny_proof();
        proof.clauses.push(ProofClause {
            lits: vec![],
            origin: ClauseOrigin::Learned {
                chain: Chain {
                    start: 5,
                    steps: vec![],
                },
            },
        });
        assert!(proof.check().is_err());
    }
}
