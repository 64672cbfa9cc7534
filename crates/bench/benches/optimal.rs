//! Criterion bench for **E7/E10b**: the memory-optimal queue's operation
//! cost as a function of the thread bound `T`.
//!
//! Every operation of Listing 5 scans the announcement array
//! (`findOp`/`readElem`) — the slots of the handles *registered*, one
//! here, not all `T` (DESIGN.md §7.2) — so this sweep reads flat;
//! `throughput_table`'s E10b section sweeps the registered count too.
//!
//! Run: `cargo bench -p bq-bench --bench optimal`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bq_core::{ConcurrentQueue, OptimalQueue};

fn bench_optimal_vs_t(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("optimal_solo_pairs_vs_T");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for t in [1usize, 4, 16, 64] {
        let ops = 2_000u64;
        group.throughput(Throughput::Elements(2 * ops));
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            let q = OptimalQueue::with_capacity_and_threads(1024, t);
            let mut h = q.register();
            b.iter(|| {
                for v in 1..=ops {
                    q.enqueue(&mut h, v).unwrap();
                    q.dequeue(&mut h).unwrap();
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_optimal_vs_t);
criterion_main!(benches);
