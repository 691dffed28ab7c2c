//! Criterion benchmarks for the four end-to-end biconnected-components
//! algorithms (a compact, statistically-tracked companion to the
//! `bcc-bench paper fig3` preset).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bcc_core::{Algorithm, BccConfig};
use bcc_graph::gen;
use bcc_smp::Pool;

const N: u32 = 1 << 15;
const THREADS: &[usize] = &[1, 4];

fn bench_bcc_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcc_sparse_m_eq_4n");
    group.sample_size(10);
    let g = gen::random_connected(N, 4 * N as usize, 11);
    group.bench_function("sequential", |b| {
        let pool = Pool::new(1);
        b.iter(|| {
            let r = BccConfig::new(Algorithm::Sequential)
                .run(&pool, &g)
                .unwrap()
                .result;
            std::hint::black_box(r.num_components)
        })
    });
    for &p in THREADS {
        let pool = Pool::new(p);
        for alg in [Algorithm::TvSmp, Algorithm::TvOpt, Algorithm::TvFilter] {
            group.bench_with_input(BenchmarkId::new(alg.name(), p), &p, |b, _| {
                b.iter(|| {
                    let r = BccConfig::new(alg).run(&pool, &g).unwrap().result;
                    std::hint::black_box(r.num_components)
                })
            });
        }
    }
    group.finish();
}

fn bench_bcc_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcc_dense_m_eq_nlogn");
    group.sample_size(10);
    let logn = (32 - N.leading_zeros()) as usize;
    let g = gen::random_connected(N, logn * N as usize, 12);
    group.bench_function("sequential", |b| {
        let pool = Pool::new(1);
        b.iter(|| {
            let r = BccConfig::new(Algorithm::Sequential)
                .run(&pool, &g)
                .unwrap()
                .result;
            std::hint::black_box(r.num_components)
        })
    });
    for &p in THREADS {
        let pool = Pool::new(p);
        for alg in [Algorithm::TvOpt, Algorithm::TvFilter] {
            group.bench_with_input(BenchmarkId::new(alg.name(), p), &p, |b, _| {
                b.iter(|| {
                    let r = BccConfig::new(alg).run(&pool, &g).unwrap().result;
                    std::hint::black_box(r.num_components)
                })
            });
        }
    }
    group.finish();
}

fn bench_derived_outputs(c: &mut Criterion) {
    use bcc_core::verify::{articulation_points, articulation_points_par, bridges, bridges_par};
    let mut group = c.benchmark_group("derived_outputs");
    group.sample_size(10);
    let g = gen::random_connected(N, 3 * N as usize, 21);
    let pool1 = Pool::new(1);
    let r = BccConfig::new(Algorithm::TvFilter)
        .run(&pool1, &g)
        .unwrap()
        .result;
    group.bench_function("articulation_seq", |b| {
        b.iter(|| std::hint::black_box(articulation_points(&g, &r.edge_comp).len()))
    });
    group.bench_function("bridges_seq", |b| {
        b.iter(|| std::hint::black_box(bridges(&g, &r.edge_comp).len()))
    });
    for &p in THREADS {
        let pool = Pool::new(p);
        group.bench_with_input(BenchmarkId::new("articulation_par", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(articulation_points_par(&pool, &g, &r.edge_comp).len()))
        });
        group.bench_with_input(BenchmarkId::new("bridges_par", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(bridges_par(&pool, &g, &r.edge_comp).len()))
        });
    }
    group.bench_function("schmidt_chain_decomposition", |b| {
        b.iter(|| std::hint::black_box(bcc_core::chain_decomposition(&g).bridges.len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bcc_sparse,
    bench_bcc_dense,
    bench_derived_outputs
);
criterion_main!(benches);
