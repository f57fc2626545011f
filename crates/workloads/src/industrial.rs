//! "Industrial-like" designs: deep control pipelines surrounded by large
//! amounts of property-irrelevant state.
//!
//! The paper's `industrialA..E` rows are characterised by hundreds of
//! latches of which only a fraction matters to each property — exactly the
//! situation in which localization abstraction (the CBA engine) shines.
//! This family reproduces that structure synthetically: a modular counter
//! plus a handshake pipeline carry the property, and a configurable amount
//! of random-ish "payload" logic (shift registers scrambled by inputs) is
//! bolted on without influencing the property.

use aig::builder::{latch_word, word_equals_const, word_increment, word_mux};
use aig::{Aig, Lit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of an industrial-like benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndustrialParams {
    /// Width of the control counter (sequential depth ≈ `2^width`).
    pub counter_bits: usize,
    /// Modulus of the control counter.
    pub modulus: u64,
    /// Counter value the property claims is unreachable (below
    /// `2^counter_bits`).
    pub bad_at: u64,
    /// Length of the request/acknowledge pipeline in front of the counter.
    pub pipeline_depth: usize,
    /// Number of irrelevant payload registers.
    pub payload_latches: usize,
    /// Seed for the payload interconnect.
    pub seed: u64,
}

impl Default for IndustrialParams {
    fn default() -> Self {
        IndustrialParams {
            counter_bits: 4,
            modulus: 10,
            bad_at: 12,
            pipeline_depth: 4,
            payload_latches: 24,
            seed: 1,
        }
    }
}

/// Builds an industrial-like design.
///
/// The property ("the control counter never reaches `bad_at`") holds iff
/// `bad_at >= modulus`.  Only the counter and the pipeline feeding it are in
/// the property's cone of influence; the payload registers are not.
///
/// # Panics
///
/// Panics unless `1 <= modulus <= 2^counter_bits` and
/// `bad_at < 2^counter_bits`.
pub fn pipeline(params: IndustrialParams) -> Aig {
    let IndustrialParams {
        counter_bits,
        modulus,
        bad_at,
        pipeline_depth,
        payload_latches,
        seed,
    } = params;
    assert!(modulus >= 1 && modulus <= 1u64 << counter_bits);
    // `word_equals_const` keeps only the word's low bits: a larger
    // `bad_at` would alias to a reachable value.
    assert!(
        bad_at < 1u64 << counter_bits,
        "bad_at {bad_at} does not fit in {counter_bits} counter bits"
    );
    let mut aig = Aig::new();
    aig.set_name(format!(
        "industrial_c{counter_bits}m{modulus}b{bad_at}p{pipeline_depth}x{payload_latches}s{seed}"
    ));
    let mut rng = StdRng::seed_from_u64(seed);

    // Request pipeline: a request input travels through `pipeline_depth`
    // stages before it enables the counter.
    let request = Lit::positive(aig.add_input());
    let mut stage = request;
    for _ in 0..pipeline_depth {
        let l = aig.add_latch(false);
        aig.set_next(l, stage);
        stage = aig.latch_lit(l);
    }
    let advance = stage;

    // Control counter.
    let (ids, bits) = latch_word(&mut aig, counter_bits, 0);
    let wrap = word_equals_const(&mut aig, &bits, modulus - 1);
    let inc = word_increment(&mut aig, &bits, advance);
    let zero = aig::builder::word_const(counter_bits, 0);
    let wrap_now = aig.and(wrap, advance);
    let next = word_mux(&mut aig, wrap_now, &zero, &inc);
    for (id, n) in ids.iter().zip(next.iter()) {
        aig.set_next(*id, *n);
    }

    // Irrelevant payload: scrambled shift registers driven by extra inputs.
    let noise: Vec<Lit> = (0..4).map(|_| Lit::positive(aig.add_input())).collect();
    let mut payload_lits: Vec<Lit> = Vec::new();
    for i in 0..payload_latches {
        let l = aig.add_latch(i % 3 == 0);
        payload_lits.push(aig.latch_lit(l));
    }
    for (i, &cur) in payload_lits.clone().iter().enumerate() {
        let other = payload_lits[rng.gen_range(0..payload_lits.len())];
        let n = noise[rng.gen_range(0..noise.len())];
        let mixed = aig.xor(other, n);
        let next = aig.mux(n, mixed, cur);
        // Payload latches were created after the pipeline and counter, so
        // their ids follow them; recover the latch id from the literal.
        let latch_id = match aig.node(cur.node()) {
            aig::AigNode::Latch { index } => index,
            _ => unreachable!(),
        };
        aig.set_next(latch_id, next);
        let _ = i;
    }

    let bad = word_equals_const(&mut aig, &bits, bad_at);
    aig.add_bad(bad);
    aig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_design_has_expected_shape() {
        let params = IndustrialParams::default();
        let aig = pipeline(params);
        assert_eq!(
            aig.num_latches(),
            params.pipeline_depth + params.counter_bits + params.payload_latches
        );
        assert_eq!(aig.num_inputs(), 5);
        assert_eq!(aig.num_bad(), 1);
    }

    #[test]
    fn payload_is_outside_the_property_cone() {
        let aig = pipeline(IndustrialParams::default());
        let coi = aig::coi::property_coi(&aig);
        // Only the pipeline + counter latches influence the property.
        assert_eq!(coi.latches.len(), 4 + 4);
    }

    #[test]
    fn passing_and_failing_variants_simulate_as_expected() {
        let pass = pipeline(IndustrialParams {
            bad_at: 12,
            ..IndustrialParams::default()
        });
        let stim: Vec<Vec<bool>> = (0..40).map(|_| vec![true; 5]).collect();
        assert_eq!(aig::simulate(&pass, &stim).first_failure(), None);

        let fail = pipeline(IndustrialParams {
            bad_at: 6,
            ..IndustrialParams::default()
        });
        // Request held high: counter starts moving after the pipeline fills
        // (4 cycles) and reaches 6 after 6 more.
        assert_eq!(aig::simulate(&fail, &stim).first_failure(), Some(10));
    }

    #[test]
    fn seeds_change_the_payload_but_not_the_property() {
        let a = pipeline(IndustrialParams {
            seed: 7,
            ..IndustrialParams::default()
        });
        let b = pipeline(IndustrialParams {
            seed: 8,
            ..IndustrialParams::default()
        });
        assert_eq!(a.num_latches(), b.num_latches());
        let stim: Vec<Vec<bool>> = (0..30).map(|i| vec![i % 2 == 0; 5]).collect();
        assert_eq!(
            aig::simulate(&a, &stim).first_failure(),
            aig::simulate(&b, &stim).first_failure()
        );
    }

    #[test]
    #[should_panic(expected = "does not fit in 5 counter bits")]
    fn out_of_range_bad_at_is_rejected() {
        // 34 would alias to 2, a value the counter reaches.
        pipeline(IndustrialParams {
            counter_bits: 5,
            modulus: 30,
            bad_at: 34,
            ..IndustrialParams::default()
        });
    }
}
