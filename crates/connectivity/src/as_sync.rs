//! Synchronous Awerbuch–Shiloach connected components.
//!
//! The PRAM-faithful variant of graft-and-shortcut (Awerbuch & Shiloach
//! 1987, the algorithm the paper cites alongside Shiloach–Vishkin):
//! every round performs, in lockstep across threads,
//!
//! 1. **star detection** — a tree is a star iff it has depth ≤ 1;
//! 2. **conditional graft** — star roots hook onto *smaller* neighbor
//!    labels;
//! 3. **star re-detection**, then **unconditional graft** — stagnant
//!    stars (neither hooked nor hooked onto in step 2) hook onto *any*
//!    different neighbor label (safe: two adjacent stagnant stars
//!    cannot both survive step 2);
//! 4. **pointer jumping** until the forest is flat.
//!
//! Guaranteed O(log n) rounds, at the price of touching every edge in
//! both graft sub-steps — the work/overhead trade the asynchronous
//! [`crate::sv`] implementation makes differently. Both are exposed so
//! the bench crate can compare them (ABL-SPT).

use crate::sv::SvResult;
use bcc_graph::Edge;
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{Pool, NIL};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Connected components by the synchronous Awerbuch–Shiloach algorithm.
/// Output contract matches [`crate::sv::connected_components`].
pub fn awerbuch_shiloach(pool: &Pool, n: u32, edges: &[Edge]) -> SvResult {
    let n_us = n as usize;
    let m = edges.len();
    let mut label: Vec<u32> = (0..n).collect();
    let mut graft_edge: Vec<u32> = vec![NIL; n_us];
    let mut rounds = 0u32;

    if n > 0 && m > 0 {
        let label_a = as_atomic_u32(&mut label);
        let graft_a = as_atomic_u32(&mut graft_edge);
        let star: Vec<AtomicBool> = (0..n_us).map(|_| AtomicBool::new(false)).collect();
        // Roots hooked onto by this round's conditional graft. Their
        // trees are not stagnant, even one that is still a star because
        // only a singleton hooked onto it, so they sit out the
        // unconditional graft: two adjacent stars that both took part
        // there could hook onto each other and close a cycle.
        let hooked: Vec<AtomicBool> = (0..n_us).map(|_| AtomicBool::new(false)).collect();
        let changed = AtomicBool::new(true);
        let live = AtomicBool::new(true);
        let round_ctr = AtomicU32::new(0);

        // One graft attempt: hook the root of `hi_root` onto `lo`,
        // recording the winning edge. Exactly one CAS can win per root.
        let try_graft = |hi_root: u32, lo: u32, eid: u32| -> bool {
            if label_a[hi_root as usize]
                .compare_exchange(hi_root, lo, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                graft_a[hi_root as usize].swap(eid, Ordering::Relaxed);
                true
            } else {
                false
            }
        };

        // Star detection (Awerbuch–Shiloach): star[v]=true; vertices
        // whose grandparent differs from their parent clear themselves
        // AND their grandparent; finally inherit the parent's flag.
        let detect_star = |ctx: &bcc_smp::Ctx| {
            for v in ctx.block_range(n_us) {
                star[v].store(true, Ordering::Relaxed);
            }
            ctx.barrier();
            for v in ctx.block_range(n_us) {
                let p = label_a[v].load(Ordering::Relaxed);
                let gp = label_a[p as usize].load(Ordering::Relaxed);
                if p != gp {
                    star[v].store(false, Ordering::Relaxed);
                    star[gp as usize].store(false, Ordering::Relaxed);
                }
            }
            ctx.barrier();
            for v in ctx.block_range(n_us) {
                let p = label_a[v].load(Ordering::Relaxed);
                if !star[p as usize].load(Ordering::Relaxed) {
                    star[v].store(false, Ordering::Relaxed);
                }
            }
            ctx.barrier();
        };

        pool.run(|ctx| loop {
            ctx.barrier();
            if !changed.load(Ordering::Acquire) {
                break;
            }
            ctx.barrier();
            if ctx.is_leader() {
                changed.store(false, Ordering::Release);
                round_ctr.fetch_add(1, Ordering::Relaxed);
            }
            ctx.barrier();

            // 1–2: conditional graft of stars onto smaller labels.
            for v in ctx.block_range(n_us) {
                hooked[v].store(false, Ordering::Relaxed);
            }
            detect_star(ctx);
            let mut local_changed = false;
            for i in ctx.block_range(m) {
                let e = edges[i];
                for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                    if star[a as usize].load(Ordering::Relaxed) {
                        let da = label_a[a as usize].load(Ordering::Relaxed);
                        let db = label_a[b as usize].load(Ordering::Relaxed);
                        if db < da && try_graft(da, db, i as u32) {
                            hooked[db as usize].store(true, Ordering::Relaxed);
                            local_changed = true;
                        }
                    }
                }
            }
            ctx.barrier();

            // 3: stagnant stars graft onto any different neighbor label.
            // Every tree a stagnant star can reach here was hooked onto
            // in step 2, so the `hooked` test also covers a `da` re-read
            // after `a`'s own root grafted in this step.
            detect_star(ctx);
            for i in ctx.block_range(m) {
                let e = edges[i];
                for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                    if star[a as usize].load(Ordering::Relaxed) {
                        let da = label_a[a as usize].load(Ordering::Relaxed);
                        let db = label_a[b as usize].load(Ordering::Relaxed);
                        if db != da
                            && !hooked[da as usize].load(Ordering::Relaxed)
                            && try_graft(da, db, i as u32)
                        {
                            local_changed = true;
                        }
                    }
                }
            }
            if local_changed {
                changed.store(true, Ordering::Release);
            }
            ctx.barrier();

            // 4: pointer jumping until flat.
            loop {
                ctx.barrier();
                if ctx.is_leader() {
                    live.store(false, Ordering::Release);
                }
                ctx.barrier();
                let mut any = false;
                for v in ctx.block_range(n_us) {
                    let p = label_a[v].load(Ordering::Relaxed);
                    let gp = label_a[p as usize].load(Ordering::Relaxed);
                    if p != gp {
                        label_a[v].store(gp, Ordering::Relaxed);
                        any = true;
                    }
                }
                if any {
                    live.store(true, Ordering::Release);
                }
                ctx.barrier();
                if !live.load(Ordering::Acquire) {
                    break;
                }
            }
        });
        rounds = round_ctr.load(Ordering::Relaxed);
    }

    let tree_edges: Vec<u32> = graft_edge.iter().copied().filter(|&e| e != NIL).collect();
    let num_components = n - tree_edges.len() as u32;
    SvResult {
        label,
        tree_edges,
        num_components,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use bcc_graph::{gen, Graph};

    fn check(g: &Graph, p: usize) {
        let pool = Pool::new(p);
        let res = awerbuch_shiloach(&pool, g.n(), g.edges());
        let oracle = seq::components_union_find(g.n(), g.edges());
        assert_eq!(res.num_components, oracle.count, "count (p={p})");
        for e in g.edges() {
            assert_eq!(res.label[e.u as usize], res.label[e.v as usize]);
        }
        // Partition equivalence via pair canonicalization.
        let mut pairs: Vec<(u32, u32)> = res
            .label
            .iter()
            .zip(oracle.label.iter())
            .map(|(&a, &b)| (a, b))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len() as u32, oracle.count);
        // Forest validity.
        assert_eq!(res.tree_edges.len() as u32, g.n() - oracle.count);
        let forest: Vec<Edge> = res
            .tree_edges
            .iter()
            .map(|&i| g.edges()[i as usize])
            .collect();
        assert_eq!(
            seq::components_union_find(g.n(), &forest).count,
            oracle.count,
            "recorded graft edges must form a spanning forest"
        );
    }

    #[test]
    fn families_match_oracle() {
        for p in [1, 2, 4] {
            check(&gen::path(64), p);
            check(&gen::cycle(65), p);
            check(&gen::star(50), p);
            check(&gen::complete(24), p);
            check(&gen::torus(5, 6), p);
            check(&gen::random_connected(800, 2400, p as u64), p);
            check(&gen::random_gnm(800, 500, p as u64), p);
        }
    }

    #[test]
    fn logarithmic_round_bound_on_paths() {
        // Paths are the adversarial case for hooking algorithms; the
        // synchronous algorithm still converges in O(log n) rounds.
        for &n in &[256u32, 1024, 4096] {
            let g = gen::path(n);
            let pool = Pool::new(2);
            let r = awerbuch_shiloach(&pool, g.n(), g.edges());
            assert_eq!(r.num_components, 1);
            let bound = 4 * (32 - n.leading_zeros()) + 8;
            assert!(
                r.rounds <= bound,
                "n={n}: {} rounds exceeds bound {bound}",
                r.rounds
            );
        }
    }

    #[test]
    fn trivial_inputs() {
        let pool = Pool::new(3);
        let r = awerbuch_shiloach(&pool, 0, &[]);
        assert_eq!(r.num_components, 0);
        let r = awerbuch_shiloach(&pool, 6, &[]);
        assert_eq!(r.num_components, 6);
    }

    #[test]
    fn agrees_with_async_sv() {
        for seed in 0..4u64 {
            let g = gen::random_gnm(300, 350, seed);
            let pool = Pool::new(4);
            let a = awerbuch_shiloach(&pool, g.n(), g.edges());
            let b = crate::sv::connected_components(&pool, g.n(), g.edges());
            assert_eq!(a.num_components, b.num_components);
        }
    }
}
