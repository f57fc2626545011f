//! Criterion group contrasting scratch re-encoding against the
//! incremental unrolling cache: the total cost of producing the CNF for
//! every bound `1..=K` of a BMC run, the pattern the engines' bound loops
//! execute.  The scratch path re-Tseitin-encodes all `k` frames at every
//! bound (`O(K²)` work); the incremental path encodes each frame once
//! (`O(K)`).

use cnf::{BmcCheck, Unroller};
use criterion::{criterion_group, criterion_main, Criterion};

/// Encodes every bound up to `max_bound` from scratch, as the engines did
/// before the unrolling cache.
fn scratch_encode(aig: &aig::Aig, max_bound: usize, check: BmcCheck) -> usize {
    let mut total_clauses = 0;
    for k in 1..=max_bound {
        let instance = cnf::bmc::build(aig, 0, k, check);
        total_clauses += instance.cnf.clauses.len();
    }
    total_clauses
}

/// Grows one persistent unrolling to `max_bound`, draining only the delta
/// clauses per bound — the pattern of the incremental BMC engine.
fn incremental_encode(aig: &aig::Aig, max_bound: usize) -> usize {
    let mut unroller = Unroller::new(aig);
    unroller.assert_initial(0);
    let mut total_clauses = 0;
    for k in 1..=max_bound {
        unroller.add_frame();
        let _ = unroller.bad_lit(k, 0);
        total_clauses += unroller.pending_clauses().len();
        unroller.mark_drained();
    }
    total_clauses
}

fn fig_unroll(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_unroll");
    group.sample_size(10);
    for benchmark in workloads::suite::mid_size() {
        for max_bound in [16usize, 32] {
            group.bench_function(format!("scratch/{}/{max_bound}", benchmark.name), |b| {
                b.iter(|| scratch_encode(&benchmark.aig, max_bound, BmcCheck::ExactAssume))
            });
            group.bench_function(format!("incremental/{}/{max_bound}", benchmark.name), |b| {
                b.iter(|| incremental_encode(&benchmark.aig, max_bound))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig_unroll);
criterion_main!(benches);
