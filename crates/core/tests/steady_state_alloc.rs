//! Steady-state allocation counting for the whole pipeline, behind the
//! debug-only [`bcc_smp::CountingAlloc`].
//!
//! This is a dedicated single-`#[test]` binary: the counting allocator
//! wraps the *global* allocator, and `cargo test` runs tests of one
//! binary concurrently, so any second test here would pollute the
//! counters.
//!
//! The property: once a shared [`BccWorkspace`] is warm, a repeated
//! identical run through [`BccConfig::run`] performs **zero arena
//! misses** and sheds the scratch-allocation traffic entirely. The warm
//! run still allocates the structures that deliberately stay plain —
//! the escaping `edge_comp` result, the `PhaseReport`, and (for the
//! CSR-based pipelines) the adjacency structure and traversal internals
//! — so the calibrated bounds below assert a strict drop in allocator
//! *calls* and at least a 2x drop in allocated *bytes*, not literal
//! zero. Measured at calibration time (n=2000, m=10000, p=4): warm vs
//! cold allocator calls were 44/82 (TV-SMP), 56/95 (TV-opt), 113/149
//! (TV-filter); warm bytes dropped 1.7x (TV-filter, plain CSR + two
//! m-sized outputs over O(n) arena scratch) to 18x+ (TV-SMP).
//!
//! The same holds for a disconnected input through
//! [`BccConfig::run_any`], which labels every component in one pipeline
//! pass: the warm rerun misses nothing, and its allocator calls do not
//! grow with the number of components (a per-component driver made
//! 40–70 calls per component). That count is taken on a one-thread
//! pool, where it is exact: at p > 1 a pool level's per-thread buffers
//! grow by a racy number of reallocations, so two counts could differ
//! by more than the bound with no change in the code. The p = 4 reruns
//! still check for zero misses and identical labels.

use bcc_core::{Algorithm, BccConfig, BccWorkspace};
use bcc_graph::{gen, Edge, Graph, GraphBuilder};
use bcc_smp::{CountingAlloc, Pool};
use std::sync::Arc;

/// The connected input plus `cycles` disjoint five-cycles and 300
/// isolated vertices.
fn with_small_components(cycles: u32) -> Graph {
    let base = gen::random_connected(2_000, 10_000, 42);
    let mut edges = base.edges().to_vec();
    let mut next = base.n();
    for _ in 0..cycles {
        edges.extend((0..5).map(|j| Edge::new(next + j, next + (j + 1) % 5)));
        next += 5;
    }
    GraphBuilder::new(next + 300).edges(edges).build().unwrap()
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warmed_rerun_sheds_all_scratch_allocation() {
    let g = gen::random_connected(2_000, 10_000, 42);
    let pool = Pool::new(4);
    let one = Pool::new(1);
    for alg in [
        Algorithm::TvSmp,
        Algorithm::TvOpt,
        Algorithm::TvFilter,
        Algorithm::FastBcc,
    ] {
        let ws = Arc::new(BccWorkspace::new());
        let cfg = BccConfig::new(alg).workspace(Arc::clone(&ws));

        // Cold run: populates the arena (every take is a miss).
        let cold_allocs_before = CountingAlloc::allocations();
        let cold_bytes_before = CountingAlloc::allocated_bytes();
        let cold = cfg.run(&pool, &g).unwrap();
        let cold_allocs = CountingAlloc::allocations() - cold_allocs_before;
        let cold_bytes = CountingAlloc::allocated_bytes() - cold_bytes_before;
        assert!(cold.report.alloc_bytes > 0);

        // Warm run: the arena serves every scratch take.
        let ws_before = ws.stats();
        let warm_allocs_before = CountingAlloc::allocations();
        let warm_bytes_before = CountingAlloc::allocated_bytes();
        let warm = cfg.run(&pool, &g).unwrap();
        let warm_allocs = CountingAlloc::allocations() - warm_allocs_before;
        let warm_bytes = CountingAlloc::allocated_bytes() - warm_bytes_before;
        let delta = ws.stats().delta_since(&ws_before);

        assert_eq!(
            delta.misses,
            0,
            "{}: arena miss on warmed rerun",
            alg.name()
        );
        assert_eq!(warm.report.alloc_bytes, 0, "{}", alg.name());
        assert_eq!(warm.result.edge_comp, cold.result.edge_comp);
        assert!(
            warm_allocs < cold_allocs,
            "{}: warm run made {warm_allocs} allocator calls vs {cold_allocs} cold",
            alg.name()
        );
        // The certificate pipelines' arena scratch is O(n) (no O(m)
        // candidate copy or id remap), so there is far less to shed:
        // the arena saves ~40% of bytes, not 2x+. The plain remainder
        // is the CSR, the BFS internals, and the two escaping m-sized
        // outputs.
        let required_drop_pct = match alg {
            Algorithm::TvFilter | Algorithm::FastBcc => 125,
            _ => 200,
        };
        assert!(
            warm_bytes * required_drop_pct <= cold_bytes * 100,
            "{}: warm run allocated {warm_bytes} bytes vs {cold_bytes} cold — \
             expected at least a {required_drop_pct}% drop",
            alg.name()
        );

        // Disconnected inputs in one pass: a warm rerun per input and
        // pool, counting the one-thread rerun's allocator calls.
        let warm_calls = [40, 160].map(|cycles| {
            let g = with_small_components(cycles);
            let warm_rerun = |pool: &Pool| {
                let ws = Arc::new(BccWorkspace::new());
                let cfg = BccConfig::new(alg).workspace(Arc::clone(&ws));
                let cold = cfg.run_any(pool, &g).unwrap();
                let ws_before = ws.stats();
                let allocs_before = CountingAlloc::allocations();
                let warm = cfg.run_any(pool, &g).unwrap();
                let calls = CountingAlloc::allocations() - allocs_before;
                let delta = ws.stats().delta_since(&ws_before);
                assert_eq!(
                    delta.misses,
                    0,
                    "{} with {cycles} cycles at p = {}: arena miss on warmed rerun",
                    alg.name(),
                    pool.threads()
                );
                assert_eq!(warm.result.edge_comp, cold.result.edge_comp);
                calls
            };
            warm_rerun(&pool);
            warm_rerun(&one)
        });
        assert!(
            warm_calls[1].abs_diff(warm_calls[0]) <= 6,
            "{}: warm allocator calls grew with the component count: {warm_calls:?} \
             for 40 and 160 five-cycles",
            alg.name()
        );
    }
}
