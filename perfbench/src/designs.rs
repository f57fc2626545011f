//! The designs of the three workloads, generated from the run's seed.
//!
//! Every design is handed to the program as AIGER text.  Each one is built
//! from one or more *components* — generator outputs whose verdicts are
//! known independently of the engines: by exact BDD reachability on the
//! component where it completes, and otherwise by the generator's
//! construction.  A multi-property design concatenates its components
//! (disjoint state, inputs and properties), so property `p` of the design
//! is property `q` of exactly one component.
//!
//! The seed changes only what cannot change an engine's work: the order in
//! which a sweep visits the designs and the interconnect of the
//! property-irrelevant payload registers of the industrial-style pipelines,
//! which preprocessing removes before any engine runs.

use aig::{Aig, AigNode, Lit};
use workloads::industrial::{self, IndustrialParams};
use workloads::{arbiter, counter, fifo, suite, token_ring, traffic};

/// One generator output with its independently known answers.
pub struct Component {
    /// The component as generated (the BDD reference runs on it).
    pub aig: Aig,
    /// Per-property construction knowledge: `Some(true)` = fails,
    /// `Some(false)` = holds, `None` = unknown (BDD must decide).
    pub fails: Vec<Option<bool>>,
}

impl Component {
    fn new(aig: Aig, fails: Option<bool>) -> Component {
        assert_eq!(aig.num_bad(), 1, "{}", aig.name());
        Component {
            aig,
            fails: vec![fails],
        }
    }
}

/// One design of a workload.
pub struct Design {
    /// Design name.
    pub name: String,
    /// The AIGER text the program parses.
    pub text: String,
    /// `true` when every property is verified at once (`verify_all`),
    /// `false` for single-property designs (`verify` on property 0).
    pub multi: bool,
    /// The components, in property order.
    pub parts: Vec<Component>,
}

impl Design {
    fn single(part: Component) -> Design {
        Design {
            name: part.aig.name().to_string(),
            text: aig::to_aag(&part.aig),
            multi: false,
            parts: vec![part],
        }
    }

    fn multi(name: &str, parts: Vec<Component>) -> Design {
        let merged = merge(name, parts.iter().map(|p| &p.aig));
        Design {
            name: name.to_string(),
            text: aig::to_aag(&merged),
            multi: true,
            parts,
        }
    }

    /// Number of properties the design carries.
    pub fn num_props(&self) -> usize {
        self.parts.iter().map(|p| p.aig.num_bad()).sum()
    }

    /// Maps design property `p` to (component, component property).
    pub fn locate(&self, mut p: usize) -> (usize, usize) {
        for (c, part) in self.parts.iter().enumerate() {
            if p < part.aig.num_bad() {
                return (c, p);
            }
            p -= part.aig.num_bad();
        }
        panic!("property out of range")
    }
}

/// The workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["table1", "deep", "multi"];

/// Builds the designs of `workload` for `seed`, in sweep order.
pub fn build(workload: &str, seed: u64) -> Option<Vec<Design>> {
    let mut rng = SplitMix(seed);
    let mut designs = match workload {
        "table1" => table1(),
        "deep" => deep(&mut rng),
        "multi" => multi(&mut rng),
        _ => return None,
    };
    rng.shuffle(&mut designs);
    Some(designs)
}

/// The paper's suite, unchanged: 31 mid-size and 7 industrial-style
/// designs, one property each.
fn table1() -> Vec<Design> {
    suite::full()
        .into_iter()
        .map(|b| Design::single(Component::new(b.aig, b.expect_fail)))
        .collect()
}

/// An industrial-style pipeline.  `bad_at` stays below `2^counter_bits`:
/// the generator compares only the low `counter_bits` bits of `bad_at`,
/// so a larger value would alias to a reachable one.
fn pipeline(
    counter_bits: usize,
    modulus: u64,
    bad_at: u64,
    pipeline_depth: usize,
    payload_latches: usize,
    seed: u64,
) -> Component {
    assert!(bad_at < 1 << counter_bits);
    let aig = industrial::pipeline(IndustrialParams {
        counter_bits,
        modulus,
        bad_at,
        pipeline_depth,
        payload_latches,
        seed,
    });
    Component::new(aig, Some(bad_at < modulus))
}

/// Deep fixpoints, long counterexamples and wide irrelevant state.
fn deep(rng: &mut SplitMix) -> Vec<Design> {
    vec![
        Component::new(token_ring::ring(20, false), Some(false)),
        Component::new(arbiter::round_robin(12, false), Some(false)),
        Component::new(traffic::crossing(4, false), Some(false)),
        Component::new(counter::gated(6, 60, 63), Some(false)),
        Component::new(counter::gated(6, 60, 20), Some(true)),
        pipeline(5, 20, 24, 5, 300, rng.next() % 1000),
        pipeline(5, 18, 11, 5, 300, rng.next() % 1000),
        pipeline(6, 40, 45, 6, 400, rng.next() % 1000),
    ]
    .into_iter()
    .map(Design::single)
    .collect()
}

/// A modular counter with one property per threshold; threshold `b`
/// fails iff `b < modulus`.
fn thresholds(width: usize, modulus: u64, bad_ats: &[u64]) -> Component {
    Component {
        aig: counter::modular_multi(width, modulus, bad_ats),
        fails: bad_ats.iter().map(|&b| Some(b < modulus)).collect(),
    }
}

/// A per-client arbiter: its properties share almost all of their cone.
fn arbiter_multi(clients: usize, seeded_bug: bool) -> Component {
    let aig = arbiter::round_robin_multi(clients, seeded_bug);
    let known = (!seeded_bug).then_some(false);
    Component {
        fails: vec![known; aig.num_bad()],
        aig,
    }
}

/// HWMCC-style multi-property designs: two whose properties have disjoint
/// cones of influence, two whose properties share most of theirs.
fn multi(rng: &mut SplitMix) -> Vec<Design> {
    let control = vec![
        Component::new(traffic::crossing(3, false), Some(false)),
        Component::new(traffic::crossing(3, true), Some(true)),
        Component::new(fifo::controller(3, false), Some(false)),
        Component::new(fifo::controller(3, true), Some(true)),
        Component::new(token_ring::ring(6, false), Some(false)),
        Component::new(token_ring::ring(5, true), Some(true)),
        Component::new(arbiter::round_robin(4, false), Some(false)),
        Component::new(arbiter::round_robin(4, true), Some(true)),
    ];
    let counters = vec![
        Component::new(counter::gated(4, 12, 15), Some(false)),
        Component::new(counter::gated(4, 12, 6), Some(true)),
        Component::new(counter::modular(4, 10, 15), Some(false)),
        Component::new(counter::modular(4, 10, 9), Some(true)),
        pipeline(4, 10, 12, 3, 100, rng.next() % 1000),
        pipeline(4, 10, 7, 3, 100, rng.next() % 1000),
    ];
    let thresholds = vec![
        thresholds(4, 12, &[2, 5, 8, 11, 12, 14, 15]),
        pipeline(5, 20, 24, 5, 200, rng.next() % 1000),
    ];
    let arbiters = vec![
        arbiter_multi(6, true),
        arbiter_multi(5, false),
        Component::new(token_ring::ring(12, false), Some(false)),
        Component::new(token_ring::ring(10, false), Some(false)),
    ];
    let rings = vec![
        Component::new(token_ring::ring(16, false), Some(false)),
        Component::new(token_ring::ring(14, false), Some(false)),
        Component::new(token_ring::ring(7, true), Some(true)),
        Component::new(arbiter::round_robin(10, false), Some(false)),
    ];
    vec![
        Design::multi("multi_rings", rings),
        Design::multi("multi_control", control),
        Design::multi("multi_counters", counters),
        Design::multi("multi_thresholds", thresholds),
        Design::multi("multi_arbiters", arbiters),
    ]
}

/// Concatenates designs: inputs, latches, gates and bad literals of each
/// part are copied in order, so the parts share nothing.
fn merge<'a>(name: &str, parts: impl Iterator<Item = &'a Aig>) -> Aig {
    let mut out = Aig::new();
    out.set_name(name);
    for part in parts {
        let mut map = vec![Lit::FALSE; part.num_nodes()];
        let mut latches = Vec::new();
        for id in part.node_ids() {
            let lit = match part.node(id) {
                AigNode::Const => Lit::FALSE,
                AigNode::Input { .. } => Lit::positive(out.add_input()),
                AigNode::Latch { index } => {
                    let latch = out.add_latch(part.init(index));
                    latches.push((index, latch));
                    out.latch_lit(latch)
                }
                AigNode::And { left, right } => {
                    let (a, b) = (translate(&map, left), translate(&map, right));
                    out.and(a, b)
                }
            };
            map[id as usize] = lit;
        }
        for (index, latch) in latches {
            out.set_next(latch, translate(&map, part.next(index)));
        }
        for bad in part.bad_lits() {
            out.add_bad(translate(&map, bad));
        }
    }
    out
}

fn translate(map: &[Lit], lit: Lit) -> Lit {
    map[lit.node() as usize].xor_complement(lit.is_complemented())
}

/// SplitMix64: a small, well-mixed generator for seeds and permutations.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
