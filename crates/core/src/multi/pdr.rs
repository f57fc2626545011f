//! Amortized multi-property PDR.
//!
//! The loop lives with the engine (`engines::pdr::check`)
//! because single-property PDR is the same loop over one property: one
//! frame trace, one per-frame solver family and one transition template
//! (carrying *every* property's bad cone at frame 0) serve the whole
//! property set.  What is shared and why it is sound:
//!
//! * **frame lemmas** are facts about reachability — "no state of this
//!   cube is reachable within `frame` steps" — and mention no property,
//!   so a cube blocked while working on one property strengthens the
//!   trace for all of them ("keeping blocked cubes for the survivors");
//! * **counterexamples** retire exactly one property: an obligation chain
//!   reaching frame 0 witnesses a path to *that* property's bad cone, at
//!   the level's structurally minimal depth;
//! * **proofs** retire every survivor at once: a converged frame after a
//!   level whose blocking phases cleaned every live property's frontier
//!   is one inductive invariant excluding all of their bad states.
//!
//! This module holds the multi-property regression tests.

#[cfg(test)]
mod tests {
    use crate::engines::pdr::verify_all_with_cancel;
    use crate::engines::CancelToken;
    use crate::{Engine, MultiResult, Options, PropertyStatus};
    use aig::Aig;
    use std::time::Duration;

    fn options() -> Options {
        Options::default()
            .with_timeout(Duration::from_secs(10))
            .with_max_bound(40)
    }

    /// Multi-PDR on the properties `props` of `aig`, on the design as given.
    fn verify_all(aig: &Aig, props: &[usize], options: &Options) -> MultiResult {
        verify_all_with_cancel(aig, props, options, &CancelToken::new(), None)
    }

    #[test]
    fn statuses_match_the_per_property_loop() {
        let aig = workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
        let multi = Engine::Pdr.verify_all(&aig, &options());
        for prop in 0..aig.num_bad() {
            let single = Engine::Pdr.verify(&aig, prop, &options());
            assert!(
                multi.statuses[prop].agrees_with(&single.verdict),
                "property {prop}: {} vs {}",
                multi.statuses[prop],
                single.verdict
            );
        }
    }

    #[test]
    fn mixed_verdicts_retire_property_by_property() {
        let aig = workloads::counter::modular_multi(3, 6, &[0, 5, 7]);
        let multi = Engine::Pdr.verify_all(&aig, &options());
        assert_eq!(multi.statuses[0].depth(), Some(0));
        assert_eq!(multi.statuses[1].depth(), Some(5));
        assert!(multi.statuses[2].is_proved(), "{}", multi.statuses[2]);
    }

    #[test]
    fn all_safe_properties_prove_together() {
        // A converged trace proves every survivor with the same (k_fp,
        // j_fp): one invariant covers them all.
        let aig = workloads::counter::modular_multi(3, 5, &[5, 6, 7]);
        let multi = Engine::Pdr.verify_all(&aig, &options());
        assert!(multi.statuses.iter().all(PropertyStatus::is_proved));
        let keys: Vec<_> = multi
            .statuses
            .iter()
            .map(|s| match s {
                PropertyStatus::Proved { k_fp, j_fp, .. } => (*k_fp, *j_fp),
                other => panic!("expected proof, got {other}"),
            })
            .collect();
        assert!(keys.windows(2).all(|w| w[0] == w[1]), "{keys:?}");
    }

    #[test]
    fn overlapping_cones_share_the_trace() {
        // Per-client arbiter properties read almost the same latches; the
        // shared trace must still split verdicts correctly.
        let aig = workloads::arbiter::round_robin_multi(3, false);
        let multi = Engine::Pdr.verify_all(&aig, &options());
        assert!(
            multi.statuses.iter().all(PropertyStatus::is_proved),
            "{:?}",
            multi.statuses
        );
        let buggy = workloads::arbiter::round_robin_multi(3, true);
        let multi = Engine::Pdr.verify_all(&buggy, &options());
        for (prop, status) in multi.statuses.iter().enumerate() {
            let single = Engine::Pdr.verify(&buggy, prop, &options());
            assert!(
                status.agrees_with(&single.verdict),
                "property {prop}: {} vs {}",
                status,
                single.verdict
            );
        }
    }

    #[test]
    fn cancellation_reaches_every_live_property() {
        let aig = workloads::counter::modular_multi(5, 28, &[27, 30]);
        let cancel = CancelToken::new();
        cancel.cancel();
        let multi = verify_all_with_cancel(&aig, &[0, 1], &options(), &cancel, None);
        for status in &multi.statuses {
            match status {
                PropertyStatus::Inconclusive { reason, .. } => assert_eq!(reason, "cancelled"),
                other => panic!("cancelled run must be inconclusive, got {other}"),
            }
        }
    }

    #[test]
    fn empty_property_list_finishes_immediately() {
        let aig = workloads::counter::modular_multi(3, 6, &[2, 7]);
        let multi = verify_all(&aig, &[], &options());
        assert!(multi.statuses.is_empty());
    }

    #[test]
    fn property_subsets_are_respected() {
        // Verifying a subset reports on exactly that subset, in order.
        let aig = workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
        let multi = verify_all(&aig, &[2, 1], &options());
        assert_eq!(multi.statuses.len(), 2);
        assert_eq!(multi.statuses[0].depth(), Some(7), "props[0] = property 2");
        assert!(multi.statuses[1].is_proved(), "props[1] = property 1");
    }
}
