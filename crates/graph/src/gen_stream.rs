//! Streaming generate-to-disk for xl-scale benchmark inputs.
//!
//! The in-memory generators ([`gen::rmat`](crate::gen::rmat),
//! [`gen::geometric`](crate::gen::geometric)) dedup through a
//! `HashSet<u64>` and hand the edge list to
//! [`GraphBuilder`](crate::GraphBuilder), which is fine at
//! benchmark-tier sizes but wasteful at 10M+ vertices: the set
//! alone costs ~48 bytes per edge on top of the 8-byte edges, and the
//! builder clones the list into a [`Graph`](crate::Graph). The
//! streaming variants here hold exactly **one** in-memory edge copy —
//! a single `Vec<Edge>` deduplicated by sort (`sort_unstable_by_key` on
//! the packed 64-bit key, then `dedup`) — and scatter it straight into
//! a writable mapping of the output `.bccsr` file via
//! [`bccsr::write_edges`], whose own scratch is ~16 bytes per vertex.
//! Peak anonymous memory for a generate-to-disk run is therefore
//! `8m + O(n)` bytes; the 16-bytes-per-edge adjacency image exists only
//! in the page cache, never as a second heap copy.
//!
//! Both families are **stitched to connected** (union-find over the
//! generated edges, then a star of representative links — see
//! `stitch_connected` for why not a chain): the xl tier measures the
//! connected-input pipelines directly through [`BccConfig::run`], and a
//! disconnected R-MAT would route through the per-component driver,
//! whose subgraph materialization would dominate the peak-RSS signal
//! the tier exists to compare. The stitch appends at most
//! `components - 1` extra edges, so R-MAT output carries `>= m` edges
//! (reported exactly in the returned [`WriteSummary`]).
//!
//! Output is deterministic per seed. The streamed R-MAT draws the same
//! quadrant-descent distribution as `gen::rmat` but is **not**
//! edge-for-edge identical to it: batch sort-dedup keeps a different
//! resolution of collisions than first-seen-wins hashing.
//!
//! [`BccConfig::run`]: ../../bcc_core/struct.BccConfig.html#method.run

use crate::bccsr::{self, WriteSummary};
use crate::edge::Edge;
use crate::gen::max_edges;
use rand::prelude::*;
use std::io;
use std::path::Path;

/// Sorts by the packed `(u, v)` key and drops duplicates in place —
/// the streaming replacement for the in-memory generators' `HashSet`.
fn sort_dedup(edges: &mut Vec<Edge>) {
    edges.sort_unstable_by_key(|e| e.key());
    edges.dedup();
}

/// Appends the `components - 1` stitch edges that make the edge set
/// connected on `n` vertices: union-find over the existing edges, then
/// every later component representative linked to the *first* one (a
/// star, still deterministic). `gen::geometric` chains representatives
/// in vertex order instead, which is fine at grid sizes but wrong here:
/// a skewed xl-scale draw can leave millions of singleton components,
/// and a chain stitch would thread them into a path that dominates the
/// graph's diameter — every level-synchronous kernel downstream (BFS,
/// the level-sweep low/high) would then measure the stitch artifact,
/// not the family. The star adds the same `components - 1` edges at
/// depth ≤ 1 from the anchor. Returns the number of edges appended.
fn stitch_connected(n: u32, edges: &mut Vec<Edge>) -> usize {
    let mut parent: Vec<u32> = (0..n).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut x = v;
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for &Edge { u, v } in edges.iter() {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    let before = edges.len();
    let mut anchor: Option<u32> = None;
    for v in 0..n {
        if find(&mut parent, v) == v {
            if let Some(a) = anchor {
                edges.push(Edge::new(a, v));
                parent[v as usize] = a;
            } else {
                anchor = Some(v);
            }
        }
    }
    edges.len() - before
}

/// Saturation guard for the redraw loops: with `before` edges at the
/// start of a round and `len` after its sort-dedup, reports whether the
/// round's net yield collapsed against a *large* shortfall. Skewed
/// distributions near their effective edge capacity (R-MAT hub pairs at
/// high `m/n`) can reach a regime where each full-shortfall redraw is
/// almost entirely duplicates, and since every round re-sorts the whole
/// vector, chasing the exact target would cost unbounded `m log m`
/// passes for negligible yield. Small shortfalls (< 4096) never trip
/// the guard: a nearly-complete tiny graph legitimately needs a few
/// low-yield rounds to place its last edges, and those rounds are cheap.
fn saturated(before: usize, len: usize, target: usize) -> bool {
    let shortfall = target - before;
    shortfall >= 4096 && (len - before) * 64 < shortfall
}

/// One R-MAT quadrant descent (Chakrabarti–Zhan–Faloutsos), identical
/// draw to `gen::rmat` including the per-level noise on `a`.
fn rmat_draw(rng: &mut StdRng, scale: u32, a: f64, b: f64, c: f64, d: f64) -> (u32, u32) {
    let (mut u, mut v) = (0u32, 0u32);
    for bit in (0..scale).rev() {
        let noise = 0.9 + 0.2 * rng.gen::<f64>();
        let (pa, pb, pc) = (a * noise, b, c);
        let total = pa + pb + pc + d;
        let r = rng.gen::<f64>() * total;
        if r < pa {
            // top-left: no bits set
        } else if r < pa + pb {
            v |= 1 << bit;
        } else if r < pa + pb + pc {
            u |= 1 << bit;
        } else {
            u |= 1 << bit;
            v |= 1 << bit;
        }
    }
    (u, v)
}

/// Generates a connected R-MAT graph (`n = 2^scale` vertices, `m`
/// unique edges plus the connectivity stitch) straight to a `.bccsr`
/// file in bounded memory: one `Vec<Edge>` with sort-based dedup, no
/// hash set, no intermediate [`Graph`](crate::Graph).
///
/// Each round draws exactly the current shortfall of candidates (self
/// loops skipped), then sort-dedups the whole list; the list length is
/// monotone and never exceeds `m`, so peak memory is one `8m`-byte
/// edge array. Near-saturated parameter regions (dense hubs at high
/// `m/n`) can leave rounds that are almost entirely duplicates, so the
/// loop also stops once a round fills less than 1/64 of a large
/// shortfall (see `saturated`) — the output then carries slightly
/// fewer than `m` edges (plus the stitch), which the returned
/// [`WriteSummary`] reports exactly.
pub fn rmat_to_bccsr(
    path: &Path,
    scale: u32,
    m: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
) -> io::Result<WriteSummary> {
    assert!((1..31).contains(&scale));
    let d = 1.0 - a - b - c;
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0,
        "bad quadrant probabilities"
    );
    let n = 1u32 << scale;
    assert!(m <= max_edges(n));
    let mut rng = StdRng::seed_from_u64(seed);
    // +n/2 headroom for the stitch edges, to keep the final appends
    // from forcing a doubling reallocation of a nearly-full vector.
    let mut edges: Vec<Edge> = Vec::with_capacity(m + (n as usize / 2).min(m / 8 + 16));
    while edges.len() < m {
        let before = edges.len();
        for _ in 0..m - before {
            let (u, v) = rmat_draw(&mut rng, scale, a, b, c, d);
            if u != v {
                edges.push(Edge::new(u, v).normalized());
            }
        }
        sort_dedup(&mut edges);
        if saturated(before, edges.len(), m) {
            break;
        }
    }
    stitch_connected(n, &mut edges);
    bccsr::write_edges(path, n, &edges)
}

/// Generates a connected spatial ("geo") graph — `n` uniform points in
/// the unit square joined within the radius yielding `target_degree`
/// expected neighbors, plus `chords` unique long-range edges — straight
/// to a `.bccsr` file in bounded memory.
///
/// Two deviations from `gen::geometric` keep the footprint flat at
/// 10M+ vertices: the r-grid buckets are a counting-sorted CSR
/// (`offsets` + `order`, 8 bytes per vertex) instead of a
/// `Vec<Vec<u32>>` with a 24-byte header per cell, and dedup is
/// sort-based over the single edge vector. Disk edges are unique by
/// construction (each unordered pair is examined once, from its
/// smaller-id endpoint), so only the chord rounds re-sort.
pub fn geometric_to_bccsr(
    path: &Path,
    n: u32,
    target_degree: f64,
    chords: usize,
    seed: u64,
) -> io::Result<WriteSummary> {
    assert!(n >= 1);
    assert!(target_degree > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let r = (target_degree / (n as f64 * std::f64::consts::PI))
        .sqrt()
        .min(1.0);
    let cells = ((1.0 / r).ceil() as usize).max(1);
    let cell_of = |p: (f64, f64)| {
        let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
        let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
        cy * cells + cx
    };

    // Counting-sort the points into an r-grid CSR.
    let mut offsets = vec![0u32; cells * cells + 1];
    for &p in &pts {
        offsets[cell_of(p) + 1] += 1;
    }
    for i in 0..cells * cells {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut order = vec![0u32; n as usize];
    for (v, &p) in pts.iter().enumerate() {
        let c = cell_of(p);
        order[cursor[c] as usize] = v as u32;
        cursor[c] += 1;
    }
    drop(cursor);
    let bucket = |cy: usize, cx: usize| {
        let c = cy * cells + cx;
        &order[offsets[c] as usize..offsets[c + 1] as usize]
    };

    // Disk edges: 3×3 neighborhood scan, each pair once from its
    // smaller endpoint — no dedup structure needed.
    let mut edges: Vec<Edge> = Vec::new();
    let r2 = r * r;
    for cy in 0..cells {
        for cx in 0..cells {
            for &u in bucket(cy, cx) {
                let (ux, uy) = pts[u as usize];
                for dy in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
                    for dx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                        for &v in bucket(dy, dx) {
                            if v <= u {
                                continue;
                            }
                            let (vx, vy) = pts[v as usize];
                            let (ddx, ddy) = (ux - vx, uy - vy);
                            if ddx * ddx + ddy * ddy <= r2 {
                                edges.push(Edge::new(u, v));
                            }
                        }
                    }
                }
            }
        }
    }
    drop(pts);
    drop(order);
    drop(offsets);

    // Chords: draw the shortfall, sort-dedup, repeat. Sorting keeps
    // the disk edges in the same vector, so a chord that collides with
    // a disk edge (or another chord) simply vanishes in the dedup and
    // is re-drawn next round.
    sort_dedup(&mut edges);
    let target = (edges.len() + chords).min(max_edges(n));
    while edges.len() < target {
        let before = edges.len();
        for _ in 0..target - before {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                edges.push(Edge::new(u, v).normalized());
            }
        }
        sort_dedup(&mut edges);
        if saturated(before, edges.len(), target) {
            break;
        }
    }
    stitch_connected(n, &mut edges);
    bccsr::write_edges(path, n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bccsr::MappedCsr;
    use crate::validate;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bcc-gen-stream-{}-{name}", std::process::id()))
    }

    #[test]
    fn rmat_stream_is_connected_simple_and_deterministic() {
        let p1 = tmp("rmat-a.bccsr");
        let p2 = tmp("rmat-b.bccsr");
        let s1 = rmat_to_bccsr(&p1, 10, 4000, 0.57, 0.19, 0.19, 7).unwrap();
        let s2 = rmat_to_bccsr(&p2, 10, 4000, 0.57, 0.19, 0.19, 7).unwrap();
        assert_eq!(s1.n, 1024);
        assert!(s1.m >= 4000, "stitch only adds edges: {}", s1.m);
        let g1 = MappedCsr::open_graph(&p1).unwrap();
        let g2 = MappedCsr::open_graph(&p2).unwrap();
        assert_eq!(g1.edges(), g2.edges(), "same seed, same file");
        assert_eq!(s1.m, s2.m);
        validate::assert_simple(&g1);
        assert!(validate::is_connected(&g1));
        // Degree skew survives the streaming path.
        let avg = 2.0 * g1.m() as f64 / g1.n() as f64;
        let max = *g1.degrees().iter().max().unwrap() as f64;
        assert!(max > 4.0 * avg, "max {max} vs avg {avg}");
        let p3 = tmp("rmat-c.bccsr");
        let s3 = rmat_to_bccsr(&p3, 10, 4000, 0.57, 0.19, 0.19, 8).unwrap();
        let g3 = MappedCsr::open_graph(&p3).unwrap();
        assert!(g3.edges() != g1.edges() || s3.m != s1.m, "seed must matter");
        for p in [p1, p2, p3] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn geometric_stream_is_connected_simple_and_deterministic() {
        let p1 = tmp("geo-a.bccsr");
        let p2 = tmp("geo-b.bccsr");
        let s1 = geometric_to_bccsr(&p1, 800, 10.0, 40, 3).unwrap();
        geometric_to_bccsr(&p2, 800, 10.0, 40, 3).unwrap();
        assert_eq!(s1.n, 800);
        let g1 = MappedCsr::open_graph(&p1).unwrap();
        let g2 = MappedCsr::open_graph(&p2).unwrap();
        assert_eq!(g1.edges(), g2.edges());
        validate::assert_simple(&g1);
        assert!(validate::is_connected(&g1));
        let avg = 2.0 * g1.m() as f64 / g1.n() as f64;
        assert!((5.0..20.0).contains(&avg), "avg degree {avg}");
        for p in [p1, p2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn geometric_stream_matches_in_memory_disk_edges() {
        // With no chords and the same seed, the disk-edge set must be
        // identical to gen::geometric's (same points, same radius) —
        // only the dedup mechanism differs, and disk edges never
        // collide. The in-memory output is already sorted by build;
        // compare as sorted sets to be robust to ordering policy.
        let p = tmp("geo-match.bccsr");
        geometric_to_bccsr(&p, 500, 8.0, 0, 11).unwrap();
        let streamed = MappedCsr::open_graph(&p).unwrap();
        let reference = crate::gen::geometric(500, 8.0, 0, 11);
        let mut a: Vec<u64> = streamed.edges().iter().map(|e| e.key()).collect();
        let mut b: Vec<u64> = reference.edges().iter().map(|e| e.key()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn stitch_appends_exactly_component_count_minus_one() {
        let mut edges = vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(5, 6)];
        // Components: {0,1}, {2,3}, {4}, {5,6} -> 3 stitch edges.
        assert_eq!(stitch_connected(7, &mut edges), 3);
        assert_eq!(edges.len(), 6);
        let g = crate::GraphBuilder::new(7).edges(edges).build().unwrap();
        assert!(validate::is_connected(&g));
    }

    #[test]
    fn saturation_guard_fires_only_on_large_low_yield_rounds() {
        // Tiny shortfalls always retry, even at zero yield.
        assert!(!saturated(0, 0, 6));
        assert!(!saturated(999_000, 999_000, 1_000_000));
        // Healthy yield on a large shortfall keeps looping.
        assert!(!saturated(0, 100_000, 1_000_000));
        // Collapsed yield (< 1/64) on a large shortfall stops.
        assert!(saturated(0, 1_000, 1_000_000));
    }

    #[test]
    fn degenerate_sizes() {
        let p = tmp("degenerate.bccsr");
        // Single vertex: no edges, still a valid (if empty) file.
        let s = geometric_to_bccsr(&p, 1, 4.0, 0, 0).unwrap();
        assert_eq!((s.n, s.m), (1, 0));
        // Two vertices: the stitch guarantees the one possible edge.
        let s = geometric_to_bccsr(&p, 2, 4.0, 0, 0).unwrap();
        assert_eq!((s.n, s.m), (2, 1));
        // Tiny saturated R-MAT still terminates.
        let s = rmat_to_bccsr(&p, 2, 6, 0.25, 0.25, 0.25, 1).unwrap();
        assert_eq!((s.n, s.m), (4, 6));
        let _ = std::fs::remove_file(p);
    }
}
