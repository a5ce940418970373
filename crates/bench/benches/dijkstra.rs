//! Microbenchmark of the lazy Dijkstra iterator underlying §3: full
//! expansion, bounded expansion, and the peek/next interleave pattern the
//! iterator heap exercises — each in the one-shot form (fresh state per
//! run) and the pooled form (one recycled arena block, the steady-state
//! serving shape where the node table keeps its allocation).

use banks_bench::corpus;
use banks_core::{GraphConfig, TupleGraph};
use banks_graph::{Dijkstra, Direction, NodeId, SearchArena};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_dijkstra(c: &mut Criterion) {
    let dataset = corpus("small");
    let tg = TupleGraph::build(&dataset.db, &GraphConfig::default()).unwrap();
    let graph = tg.graph();
    let start = NodeId(0);

    let mut group = c.benchmark_group("dijkstra");
    group.sample_size(20);
    group.bench_function("full_expansion_reverse", |b| {
        b.iter(|| {
            let it = Dijkstra::new(graph, start, Direction::Reverse);
            black_box(it.count())
        });
    });
    group.bench_function("full_expansion_forward", |b| {
        b.iter(|| {
            let it = Dijkstra::new(graph, start, Direction::Forward);
            black_box(it.count())
        });
    });
    let mut arena = SearchArena::new();
    group.bench_function("full_expansion_reverse_pooled", |b| {
        b.iter(|| {
            let it = Dijkstra::new_in(graph, start, Direction::Reverse, arena.checkout());
            let mut it = black_box(it);
            let n = it.by_ref().count();
            arena.recycle(it.into_state());
            black_box(n)
        });
    });
    group.bench_function("bounded_expansion_pooled/1000", |b| {
        b.iter(|| {
            let it = Dijkstra::new_in(graph, start, Direction::Reverse, arena.checkout())
                .with_max_settled(1000);
            let mut it = black_box(it);
            let n = it.by_ref().count();
            arena.recycle(it.into_state());
            black_box(n)
        });
    });
    for budget in [100usize, 1000, 10000] {
        group.bench_with_input(
            BenchmarkId::new("bounded_expansion", budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    let it =
                        Dijkstra::new(graph, start, Direction::Reverse).with_max_settled(budget);
                    black_box(it.count())
                });
            },
        );
    }
    // Satellite check for the precomputed per-edge score term: summing
    // the CSR-parallel score array vs recomputing `log2(1 + w/w_min)`
    // per edge — the work `Scorer::tree_edge_score` saves on every
    // generated connection tree.
    group.bench_function("edge_score_precomputed", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for v in graph.nodes() {
                for &e in graph.out_escores(v) {
                    sum += e;
                }
            }
            black_box(sum)
        });
    });
    group.bench_function("edge_score_recomputed", |b| {
        let w_min = graph.min_edge_weight();
        b.iter(|| {
            let mut sum = 0.0;
            for v in graph.nodes() {
                let (_, weights) = graph.out_adjacency(v);
                for &w in weights {
                    sum += (1.0 + w / w_min).log2();
                }
            }
            black_box(sum)
        });
    });
    group.bench_function("peek_next_interleave", |b| {
        b.iter(|| {
            let mut it = Dijkstra::new(graph, start, Direction::Reverse).with_max_settled(1000);
            let mut sum = 0.0;
            while let Some(d) = it.peek_dist() {
                sum += d;
                if it.next().is_none() {
                    break;
                }
            }
            black_box(sum)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_dijkstra);
criterion_main!(benches);
