//! The curated benchmark suites used by the experiment regenerators.

use crate::{arbiter, counter, fifo, industrial, token_ring, traffic};
use aig::{Aig, AigNode, Lit};

/// Size class of a benchmark, mirroring the two halves of the paper's
/// Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchmarkClass {
    /// Publicly-available-style mid-size problems (upper half of Table I).
    MidSize,
    /// Industrial-style problems with large irrelevant state
    /// (lower half of Table I).
    Industrial,
}

/// A named benchmark instance.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Unique, human-readable name (also the design name of the AIG).
    pub name: String,
    /// The design; bad-state property 0 is the one to verify.
    pub aig: Aig,
    /// Expected verdict when known: `Some(true)` = the property fails,
    /// `Some(false)` = the property holds, `None` = unknown a priori.
    pub expect_fail: Option<bool>,
    /// Which half of Table I the instance belongs to.
    pub class: BenchmarkClass,
}

impl Benchmark {
    fn new(aig: Aig, expect_fail: Option<bool>, class: BenchmarkClass) -> Benchmark {
        Benchmark {
            name: aig.name().to_string(),
            aig,
            expect_fail,
            class,
        }
    }
}

/// The mid-size suite: counters, rings, arbiters, FIFOs and traffic
/// controllers of varying depth, both passing and failing.
pub fn mid_size() -> Vec<Benchmark> {
    let mut suite = Vec::new();
    // Counters: passing (bad value out of range) and failing at several
    // depths, to spread convergence bounds.
    for (width, modulus) in [(3usize, 6u64), (4, 10), (4, 14), (5, 20), (5, 28)] {
        suite.push(Benchmark::new(
            counter::modular(width, modulus, (1 << width) - 1),
            Some(false),
            BenchmarkClass::MidSize,
        ));
        suite.push(Benchmark::new(
            counter::modular(width, modulus, modulus - 1),
            Some(true),
            BenchmarkClass::MidSize,
        ));
    }
    // Gated counters (deeper counterexamples, harder bound-k checks).
    for (width, modulus) in [(3usize, 7u64), (4, 12)] {
        suite.push(Benchmark::new(
            counter::gated(width, modulus, (1 << width) - 1),
            Some(false),
            BenchmarkClass::MidSize,
        ));
        suite.push(Benchmark::new(
            counter::gated(width, modulus, modulus / 2),
            Some(true),
            BenchmarkClass::MidSize,
        ));
    }
    // Synchronised counters.
    suite.push(Benchmark::new(
        counter::synchronised(3, 5, 7, 4),
        Some(true),
        BenchmarkClass::MidSize,
    ));
    suite.push(Benchmark::new(
        counter::synchronised(3, 4, 6, 5),
        Some(false),
        BenchmarkClass::MidSize,
    ));
    // Token rings.
    for stations in [4usize, 6, 8] {
        suite.push(Benchmark::new(
            token_ring::ring(stations, false),
            Some(false),
            BenchmarkClass::MidSize,
        ));
    }
    suite.push(Benchmark::new(
        token_ring::ring(5, true),
        Some(true),
        BenchmarkClass::MidSize,
    ));
    // Arbiters.
    for clients in [3usize, 4, 5] {
        suite.push(Benchmark::new(
            arbiter::round_robin(clients, false),
            Some(false),
            BenchmarkClass::MidSize,
        ));
    }
    suite.push(Benchmark::new(
        arbiter::round_robin(4, true),
        Some(true),
        BenchmarkClass::MidSize,
    ));
    // FIFO controllers.
    for width in [2usize, 3, 4] {
        suite.push(Benchmark::new(
            fifo::controller(width, false),
            Some(false),
            BenchmarkClass::MidSize,
        ));
    }
    suite.push(Benchmark::new(
        fifo::controller(3, true),
        Some(true),
        BenchmarkClass::MidSize,
    ));
    // Traffic controllers.
    suite.push(Benchmark::new(
        traffic::crossing(3, false),
        Some(false),
        BenchmarkClass::MidSize,
    ));
    suite.push(Benchmark::new(
        traffic::crossing(4, false),
        Some(false),
        BenchmarkClass::MidSize,
    ));
    suite.push(Benchmark::new(
        traffic::crossing(3, true),
        Some(true),
        BenchmarkClass::MidSize,
    ));
    suite
}

/// The industrial-like suite: control pipelines surrounded by irrelevant
/// payload state of increasing size.
pub fn industrial() -> Vec<Benchmark> {
    let mut suite = Vec::new();
    let configs = [
        // (counter_bits, modulus, bad_at, pipeline, payload, seed, fails)
        (4usize, 10u64, 12u64, 3usize, 16usize, 11u64, false),
        (4, 10, 7, 3, 16, 12, true),
        (4, 12, 14, 4, 32, 13, false),
        (4, 12, 9, 4, 32, 14, true),
        (5, 20, 24, 5, 48, 15, false),
        (5, 18, 11, 5, 48, 16, true),
        (5, 24, 28, 6, 64, 17, false),
    ];
    for (counter_bits, modulus, bad_at, pipeline_depth, payload_latches, seed, fails) in configs {
        let params = industrial::IndustrialParams {
            counter_bits,
            modulus,
            bad_at,
            pipeline_depth,
            payload_latches,
            seed,
        };
        suite.push(Benchmark::new(
            industrial::pipeline(params),
            Some(fails),
            BenchmarkClass::Industrial,
        ));
    }
    suite
}

/// The full suite (mid-size plus industrial-like), as used by Fig. 6.
pub fn full() -> Vec<Benchmark> {
    let mut suite = mid_size();
    suite.extend(industrial());
    suite
}

/// A named multi-property benchmark instance: one design carrying several
/// bad-state properties, as `verify_all` consumes them.
#[derive(Clone, Debug)]
pub struct MultiBenchmark {
    /// Unique, human-readable name (also the design name of the AIG).
    pub name: String,
    /// The design; every bad-state literal is a property to verify.
    pub aig: Aig,
    /// Expected per-property verdicts when known (indexed like the bad
    /// literals): `Some(true)` = the property fails, `Some(false)` = it
    /// holds, `None` = unknown a priori.
    pub expect_fail: Vec<Option<bool>>,
}

impl MultiBenchmark {
    fn new(aig: Aig, expect_fail: Vec<Option<bool>>) -> MultiBenchmark {
        assert_eq!(
            aig.num_bad(),
            expect_fail.len(),
            "one expectation per property"
        );
        MultiBenchmark {
            name: aig.name().to_string(),
            aig,
            expect_fail,
        }
    }
}

/// The multi-property suite: designs with several bad-state outputs whose
/// verdicts mix `Proved` and `Falsified` (at different depths), used by
/// the `verify_all` agreement and determinism tests.  The single-property
/// suites above are deliberately untouched — their benches and tables
/// still verify property 0 only.
pub fn multi_property() -> Vec<MultiBenchmark> {
    let fails = |bad_ats: &[u64], modulus: u64| -> Vec<Option<bool>> {
        bad_ats.iter().map(|&b| Some(b < modulus)).collect()
    };
    let mut suite = Vec::new();
    // Counters with thresholds on both sides of the modulus: properties
    // retire one by one as BMC reaches their depths, the rest prove.
    for (width, modulus, bad_ats) in [
        (4usize, 10u64, vec![3u64, 11, 7, 15]),
        (3, 6, vec![0, 5, 7]),
        (5, 20, vec![9, 21, 14, 30, 2]),
    ] {
        suite.push(MultiBenchmark::new(
            counter::modular_multi(width, modulus, &bad_ats),
            fails(&bad_ats, modulus),
        ));
    }
    // Arbiters with per-client safety properties: heavily overlapping
    // cones of influence, all-pass and all-fail variants.
    suite.push(MultiBenchmark::new(
        arbiter::round_robin_multi(3, false),
        vec![Some(false); 3],
    ));
    suite.push(MultiBenchmark::new(
        arbiter::round_robin_multi(3, true),
        vec![None; 3],
    ));
    suite
}

/// A concatenation of small independent designs — two counters with two
/// thresholds each, a token ring, an arbiter with a seeded bug and a FIFO
/// controller — sharing no inputs, latches or gates.  Every property's
/// cone of influence lies inside its own part, so the `verify_all`
/// backends must decide each part on its own narrowed model, and each
/// status must equal the part's per-property answer.
pub fn concatenated() -> MultiBenchmark {
    let parts = [
        (
            counter::modular_multi(3, 6, &[5, 7]),
            vec![Some(true), Some(false)],
        ),
        (token_ring::ring(4, false), vec![Some(false)]),
        (
            counter::modular_multi(4, 10, &[9, 12]),
            vec![Some(true), Some(false)],
        ),
        (arbiter::round_robin(3, true), vec![Some(true)]),
        (fifo::controller(2, false), vec![Some(false)]),
    ];
    let mut aig = Aig::new();
    aig.set_name("concat_disjoint");
    let mut expect_fail = Vec::new();
    for (part, expect) in &parts {
        append(&mut aig, part);
        expect_fail.extend(expect);
    }
    MultiBenchmark::new(aig, expect_fail)
}

/// Copies the inputs, latches, gates and bad-state literals of `part` into
/// `aig`, after its own: the copy shares nothing with what `aig` holds.
fn append(aig: &mut Aig, part: &Aig) {
    let mut map = vec![Lit::FALSE; part.num_nodes()];
    let translate =
        |map: &[Lit], lit: Lit| map[lit.node() as usize].xor_complement(lit.is_complemented());
    let mut latches = Vec::new();
    for id in part.node_ids() {
        map[id as usize] = match part.node(id) {
            AigNode::Const => Lit::FALSE,
            AigNode::Input { .. } => Lit::positive(aig.add_input()),
            AigNode::Latch { index } => {
                let latch = aig.add_latch(part.init(index));
                latches.push((index, latch));
                aig.latch_lit(latch)
            }
            AigNode::And { left, right } => {
                let (a, b) = (translate(&map, left), translate(&map, right));
                aig.and(a, b)
            }
        };
    }
    for (index, latch) in latches {
        aig.set_next(latch, translate(&map, part.next(index)));
    }
    for bad in part.bad_lits() {
        aig.add_bad(translate(&map, bad));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suite_names_are_unique() {
        let names: HashSet<String> = full().into_iter().map(|b| b.name).collect();
        assert_eq!(names.len(), full().len());
    }

    #[test]
    fn suite_mixes_passing_and_failing_instances() {
        let suite = full();
        let failing = suite.iter().filter(|b| b.expect_fail == Some(true)).count();
        let passing = suite
            .iter()
            .filter(|b| b.expect_fail == Some(false))
            .count();
        assert!(failing >= 8, "failing instances: {failing}");
        assert!(passing >= 15, "passing instances: {passing}");
    }

    #[test]
    fn every_benchmark_has_a_property() {
        // The single-property suites verify property 0; requiring *at
        // least* one bad output (instead of exactly one, as this test
        // used to) is what lets multi-bad designs join the workloads
        // without breaking the per-property tables.
        for b in full() {
            assert!(b.aig.num_bad() >= 1, "{}", b.name);
            assert!(b.aig.num_latches() >= 1, "{}", b.name);
        }
    }

    #[test]
    fn multi_property_suite_is_well_formed() {
        let suite = multi_property();
        assert!(suite.len() >= 4);
        let names: HashSet<String> = suite.iter().map(|b| b.name.clone()).collect();
        assert_eq!(names.len(), suite.len(), "names must be unique");
        let mut failing = 0;
        let mut passing = 0;
        for b in &suite {
            assert!(b.aig.num_bad() >= 2, "{} must be multi-property", b.name);
            assert_eq!(b.expect_fail.len(), b.aig.num_bad());
            failing += b.expect_fail.iter().filter(|e| **e == Some(true)).count();
            passing += b.expect_fail.iter().filter(|e| **e == Some(false)).count();
        }
        assert!(failing >= 4, "failing properties: {failing}");
        assert!(passing >= 4, "passing properties: {passing}");
        // The single-property suites are untouched by the multi variants.
        assert!(full().iter().all(|b| b.aig.num_bad() == 1));
    }

    #[test]
    fn concatenated_parts_form_disjoint_coi_groups() {
        let b = concatenated();
        assert_eq!(b.expect_fail.len(), b.aig.num_bad());
        assert_eq!(
            aig::coi::group_bads_by_coi(&b.aig),
            vec![vec![0, 1], vec![2], vec![3, 4], vec![5], vec![6]]
        );
    }

    #[test]
    fn multi_property_expectations_are_confirmed_by_simulation() {
        for b in multi_property() {
            let stim: Vec<Vec<bool>> = (0..64).map(|_| vec![true; b.aig.num_inputs()]).collect();
            let sim = aig::simulate(&b.aig, &stim);
            for (p, expect) in b.expect_fail.iter().enumerate() {
                let fired = sim.bad.iter().any(|cycle| cycle[p]);
                match expect {
                    // All-ones is one stimulus, not all of them: a failing
                    // property need not fire under it when the design has
                    // free inputs, but a firing property must be expected
                    // to fail.
                    Some(false) => assert!(!fired, "{} property {p}", b.name),
                    Some(true) if b.aig.num_inputs() == 0 => {
                        assert!(fired, "{} property {p}", b.name)
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn industrial_instances_are_larger_than_mid_size_ones() {
        let mid_max = mid_size()
            .iter()
            .map(|b| b.aig.num_latches())
            .max()
            .unwrap();
        let ind_min = industrial()
            .iter()
            .map(|b| b.aig.num_latches())
            .min()
            .unwrap();
        assert!(ind_min >= mid_max.min(20));
    }

    #[test]
    fn expected_failures_are_confirmed_by_simulation() {
        // Drive every input high for a generous number of cycles; all the
        // seeded-bug instances in the suite fail under this stimulus or are
        // validated by the engine tests elsewhere.
        for b in full() {
            if b.expect_fail == Some(true) {
                let stim: Vec<Vec<bool>> =
                    (0..64).map(|_| vec![true; b.aig.num_inputs()]).collect();
                let sim = aig::simulate(&b.aig, &stim);
                assert!(
                    sim.first_failure().is_some() || b.aig.num_inputs() > 1,
                    "{} should fail under an all-ones stimulus",
                    b.name
                );
            }
        }
    }
}
