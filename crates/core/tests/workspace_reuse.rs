//! Workspace-arena reuse across whole pipeline runs (satellite of the
//! zero-allocation-steady-state PR).
//!
//! Three properties:
//!
//! * **Transparency** — running with a shared [`BccWorkspace`] yields
//!   bit-identical `BccResult`s to fresh-allocation runs, across graph
//!   growth, shrinkage, and algorithm switches on the same arena.
//! * **Steady state** — a repeated identical run through
//!   [`BccConfig::run`] takes every scratch buffer from the shelf:
//!   zero arena misses, `PhaseReport::alloc_bytes == 0`,
//!   `arena_hit_rate == 1.0`, and the shelf stops growing.
//! * **O(n) certificate scratch** — TV-filter and FAST-BCC shelve the
//!   same bytes whether the graph has 4n or 32n edges.

use bcc_core::{Algorithm, BccConfig, BccWorkspace};
use bcc_graph::{gen, GraphBuilder};
use bcc_smp::Pool;
use std::sync::Arc;

const PARALLEL: [Algorithm; 4] = [
    Algorithm::TvSmp,
    Algorithm::TvOpt,
    Algorithm::TvFilter,
    Algorithm::FastBcc,
];

#[test]
fn shared_workspace_is_transparent_across_grow_shrink_and_alg_switch() {
    let pool = Pool::new(3);
    let big = gen::random_connected(400, 1_600, 11);
    let small = gen::torus(6, 6);
    let ws = Arc::new(BccWorkspace::new());
    // One arena serves every (algorithm, graph) combination in turn:
    // grow (small→big within an algorithm), shrink (big→small on the
    // next), and algorithm switches in between.
    for alg in PARALLEL {
        for g in [&small, &big, &small] {
            let fresh = BccConfig::new(alg).run(&pool, g).unwrap().result;
            let reused = BccConfig::new(alg)
                .workspace(Arc::clone(&ws))
                .run(&pool, g)
                .unwrap()
                .result;
            assert_eq!(reused.edge_comp, fresh.edge_comp, "{}", alg.name());
            assert_eq!(
                reused.num_components,
                fresh.num_components,
                "{}",
                alg.name()
            );
        }
    }
}

#[test]
fn repeated_identical_run_reaches_zero_miss_steady_state() {
    let g = gen::random_connected(300, 1_000, 7);
    for alg in PARALLEL {
        for p in [1usize, 2, 4] {
            let pool = Pool::new(p);
            let ws = Arc::new(BccWorkspace::new());
            let cfg = BccConfig::new(alg).workspace(Arc::clone(&ws));
            let cold = cfg.run(&pool, &g).unwrap();
            assert!(
                cold.report.alloc_bytes > 0,
                "{} p={p}: cold run must populate the arena",
                alg.name()
            );
            let before = ws.stats();
            let warm = cfg.run(&pool, &g).unwrap();
            let delta = ws.stats().delta_since(&before);
            assert_eq!(
                delta.misses,
                0,
                "{} p={p}: warmed rerun must serve every take from the shelf",
                alg.name()
            );
            assert!(
                delta.hits > 0,
                "{} p={p}: pipeline must use the arena",
                alg.name()
            );
            assert_eq!(warm.report.alloc_bytes, 0, "{} p={p}", alg.name());
            assert_eq!(warm.report.arena_hit_rate, 1.0, "{} p={p}", alg.name());
            assert_eq!(warm.result.edge_comp, cold.result.edge_comp);

            // The shelf is in equilibrium: further identical runs
            // neither allocate nor accumulate buffers.
            let shelved = ws.shelved_buffers();
            cfg.run(&pool, &g).unwrap();
            assert_eq!(
                ws.shelved_buffers(),
                shelved,
                "{} p={p}: shelf must not grow run-over-run",
                alg.name()
            );
        }
    }
}

#[test]
fn smaller_graph_reuses_a_larger_graphs_arena_without_misses() {
    let pool = Pool::new(2);
    let big = gen::random_connected(500, 2_000, 3);
    let small = gen::random_connected(120, 400, 5);
    for alg in PARALLEL {
        let ws = Arc::new(BccWorkspace::new());
        let cfg = BccConfig::new(alg).workspace(Arc::clone(&ws));
        // Warm on the small graph first so every size class the small
        // graph needs exists, then on the big one (supersedes the small
        // classes), then measure the small graph again.
        cfg.run(&pool, &small).unwrap();
        cfg.run(&pool, &big).unwrap();
        let before = ws.stats();
        let run = cfg.run(&pool, &small).unwrap();
        let delta = ws.stats().delta_since(&before);
        assert_eq!(delta.misses, 0, "{}: small-after-big must hit", alg.name());
        assert_eq!(run.report.alloc_bytes, 0, "{}", alg.name());
    }
}

#[test]
fn disconnected_error_path_returns_buffers_to_the_arena() {
    let g = GraphBuilder::new(6)
        .edges([(0, 1), (1, 2), (3, 4), (4, 5)])
        .build()
        .unwrap();
    let pool = Pool::new(2);
    for alg in PARALLEL {
        let ws = Arc::new(BccWorkspace::new());
        let cfg = BccConfig::new(alg).workspace(Arc::clone(&ws));
        assert!(cfg.run(&pool, &g).is_err());
        let before = ws.stats();
        assert!(cfg.run(&pool, &g).is_err());
        let delta = ws.stats().delta_since(&before);
        assert_eq!(
            delta.misses,
            0,
            "{}: failed runs must still recycle their scratch",
            alg.name()
        );
        // run_any succeeds on the same arena afterwards and agrees with
        // the sequential oracle.
        let base = BccConfig::new(Algorithm::Sequential)
            .run_any(&pool, &g)
            .unwrap()
            .result;
        let r = cfg.run_any(&pool, &g).unwrap().result;
        assert_eq!(r.edge_comp, base.edge_comp, "{}", alg.name());
    }
}

#[test]
fn certificate_scratch_stays_linear_in_n() {
    // Same n, 8x the edges: the certificate pipelines' scratch (BFS
    // arrays, tree tags, certificate, tail) is sized by n, so the
    // shelf a dense run leaves behind is no larger than a sparse run's.
    let pool = Pool::new(2);
    let sparse = gen::random_connected(4000, 16_000, 1);
    let dense = gen::random_connected(4000, 128_000, 1);
    for alg in [Algorithm::TvFilter, Algorithm::FastBcc] {
        let ws = Arc::new(BccWorkspace::new());
        let cfg = BccConfig::new(alg).workspace(Arc::clone(&ws));
        cfg.run(&pool, &sparse).unwrap();
        let after_sparse = ws.shelved_bytes();
        cfg.run(&pool, &dense).unwrap();
        let after_dense = ws.shelved_bytes();
        assert!(
            after_dense * 4 <= after_sparse * 5,
            "{}: shelf grew {after_sparse} -> {after_dense} bytes from m = 4n to m = 32n",
            alg.name()
        );
    }
}
