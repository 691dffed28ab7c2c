//! Criterion benchmarks for the graph substrates: connectivity /
//! spanning trees and Euler tours.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bcc_connectivity::bfs::{bfs_tree, TraversalTuning};
use bcc_connectivity::sv::connected_components;
use bcc_connectivity::traversal::work_stealing_tree;
use bcc_euler::{dfs_euler_tour, euler_tour_classic, tree_computations, Ranker};
use bcc_graph::{gen, Csr};
use bcc_smp::Pool;

const N: u32 = 1 << 16;
const THREADS: &[usize] = &[1, 4];

fn bench_connectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("spanning_tree");
    group.sample_size(10);
    let g = gen::random_connected(N, 4 * N as usize, 7);
    let csr = Csr::build(&g);
    for &p in THREADS {
        let pool = Pool::new(p);
        group.bench_with_input(BenchmarkId::new("shiloach_vishkin", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(connected_components(&pool, N, g.edges()).rounds))
        });
        group.bench_with_input(BenchmarkId::new("bfs", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(bfs_tree(&pool, &csr, 0, &TraversalTuning).reached))
        });
        group.bench_with_input(BenchmarkId::new("work_stealing", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(work_stealing_tree(&pool, &csr, 0).reached))
        });
    }
    group.bench_function("csr_build", |b| {
        b.iter(|| std::hint::black_box(Csr::build(&g).m()))
    });
    group.finish();
}

fn bench_euler(c: &mut Criterion) {
    let mut group = c.benchmark_group("euler_tour");
    group.sample_size(10);
    let tree = gen::random_tree(N, 3);
    let csr = Csr::build(&tree);
    let bfs = bcc_connectivity::bfs::bfs_tree_seq(&csr, 0);
    for &p in THREADS {
        let pool = Pool::new(p);
        group.bench_with_input(BenchmarkId::new("classic_hj", p), &p, |b, _| {
            b.iter(|| {
                let t = euler_tour_classic(&pool, N, tree.edges().to_vec(), 0, Ranker::HelmanJaja);
                std::hint::black_box(t.num_arcs())
            })
        });
        group.bench_with_input(BenchmarkId::new("dfs_order", p), &p, |b, _| {
            b.iter(|| {
                let t = dfs_euler_tour(&pool, N, tree.edges().to_vec(), &bfs.parent, 0);
                std::hint::black_box(t.num_arcs())
            })
        });
        group.bench_with_input(BenchmarkId::new("tree_computations", p), &p, |b, _| {
            let t = dfs_euler_tour(&pool, N, tree.edges().to_vec(), &bfs.parent, 0);
            b.iter(|| std::hint::black_box(tree_computations(&pool, &t, 0).size[0]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_connectivity, bench_euler);
criterion_main!(benches);
