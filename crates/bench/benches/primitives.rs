//! Criterion micro-benchmarks for the parallel primitives (prefix sum,
//! list ranking, sorting, compaction, range tables).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;

use bcc_primitives::{
    compact::compact_with,
    list_rank::{list_rank_hj, list_rank_seq, list_rank_wyllie},
    rmq::{Extremum, RangeTable},
    scan::{exclusive_scan_par, exclusive_scan_seq},
    sort::par_radix_sort_u64,
};
use bcc_smp::{Pool, NIL};

const N: usize = 1 << 18;
const THREADS: &[usize] = &[1, 4];

fn random_u64s(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

fn random_list(n: usize, seed: u64) -> (Vec<u32>, u32) {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut succ = vec![NIL; n];
    for w in perm.windows(2) {
        succ[w[0] as usize] = w[1];
    }
    (succ, perm[0])
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_sum");
    group.sample_size(10);
    let base: Vec<u64> = (0..N as u64).collect();
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut a = base.clone();
            std::hint::black_box(exclusive_scan_seq(&mut a))
        })
    });
    for &p in THREADS {
        let pool = Pool::new(p);
        group.bench_with_input(BenchmarkId::new("parallel", p), &p, |b, _| {
            b.iter(|| {
                let mut a = base.clone();
                std::hint::black_box(exclusive_scan_par(&pool, &mut a))
            })
        });
    }
    group.finish();
}

fn bench_list_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("list_ranking");
    group.sample_size(10);
    let (succ, head) = random_list(N, 1);
    group.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box(list_rank_seq(&succ, head)))
    });
    for &p in THREADS {
        let pool = Pool::new(p);
        group.bench_with_input(BenchmarkId::new("wyllie", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(list_rank_wyllie(&pool, &succ, head)))
        });
        group.bench_with_input(BenchmarkId::new("helman_jaja", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(list_rank_hj(&pool, &succ, head)))
        });
    }
    group.finish();
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sorting");
    group.sample_size(10);
    let base = random_u64s(N, 2);
    group.bench_function("std_unstable", |b| {
        b.iter(|| {
            let mut a = base.clone();
            a.sort_unstable();
            std::hint::black_box(a[0])
        })
    });
    for &p in THREADS {
        let pool = Pool::new(p);
        group.bench_with_input(BenchmarkId::new("radix_sort", p), &p, |b, _| {
            b.iter(|| {
                let mut a = base.clone();
                par_radix_sort_u64(&pool, &mut a);
                std::hint::black_box(a[0])
            })
        });
    }
    group.finish();
}

fn bench_compact_and_rmq(c: &mut Criterion) {
    let mut group = c.benchmark_group("compact_rmq");
    group.sample_size(10);
    let data: Vec<u32> = (0..N as u32).collect();
    for &p in THREADS {
        let pool = Pool::new(p);
        group.bench_with_input(BenchmarkId::new("compact_half", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(compact_with(&pool, &data, |_, &x| x % 2 == 0).len()))
        });
        group.bench_with_input(BenchmarkId::new("range_table_build", p), &p, |b, _| {
            b.iter(|| {
                let t = RangeTable::build(&pool, &data, Extremum::Min);
                std::hint::black_box(t.query(0, N))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scan,
    bench_list_rank,
    bench_sort,
    bench_compact_and_rmq
);
criterion_main!(benches);
