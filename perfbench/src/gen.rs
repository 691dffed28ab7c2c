//! Seeded input generators. Every input the benchmark feeds the system
//! comes from here, so the same `--seed` always yields the same edges
//! and the same operation stream.

use bcc_graph::Edge;

/// SplitMix64: a small, fast, well-mixed generator whose stream depends
/// only on its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for sub-task `k` of the generator seeded
    /// with `seed` (chunks of a parallel generator, parts of an
    /// instance).
    pub fn derive(seed: u64, k: u64) -> Self {
        let mut r = Rng(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// R-MAT edge endpoints (Chakrabarti et al.) with quadrant
/// probabilities `a = 0.57`, `b = c = 0.19`, `d = 0.05`: `edge_factor ·
/// 2^scale` raw edges on vertices `offset .. offset + 2^scale`,
/// self loops and duplicates included (the lenient builder drops them).
/// Generated in fixed-size chunks with derived seeds on `threads`
/// threads, so the output does not depend on the thread count.
pub fn rmat(scale: u32, edge_factor: u64, offset: u32, seed: u64, threads: usize) -> Vec<Edge> {
    const CHUNK: u64 = 1 << 16;
    let m = edge_factor << scale;
    let chunks = m.div_ceil(CHUNK);
    let gen_chunk = |k: u64| -> Vec<Edge> {
        let mut rng = Rng::derive(seed, k);
        let len = CHUNK.min(m - k * CHUNK);
        (0..len)
            .map(|_| {
                let (mut u, mut v) = (0u32, 0u32);
                for _ in 0..scale {
                    let r = rng.unit();
                    let (du, dv) = if r < 0.57 {
                        (0, 0)
                    } else if r < 0.76 {
                        (0, 1)
                    } else if r < 0.95 {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    u = (u << 1) | du;
                    v = (v << 1) | dv;
                }
                Edge::new(offset + u, offset + v)
            })
            .collect()
    };
    let threads = threads.max(1) as u64;
    let mut parts: Vec<Vec<Vec<Edge>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let gen_chunk = &gen_chunk;
                s.spawn(move || {
                    (t..chunks)
                        .step_by(threads as usize)
                        .map(gen_chunk)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("R-MAT generator thread panicked"))
            .collect()
    });
    // Reassemble chunk k from thread k % threads, position k / threads.
    let mut out = Vec::with_capacity(m as usize);
    let mut iters: Vec<_> = parts.iter_mut().map(|p| p.drain(..)).collect();
    for k in 0..chunks {
        out.extend(iters[(k % threads) as usize].next().expect("chunk present"));
    }
    out
}

/// A road-like planar lattice on vertices `offset .. offset + rows·cols`
/// (row-major): each grid edge is kept with probability `keep`, and a
/// dropped edge is added back only where it rejoins two components of
/// what is kept so far. The result is connected, has grid-like diameter
/// (`rows + cols − 2` hops corner to corner), and many bridges and small
/// blocks. Edges are listed in lattice order.
pub fn road(rows: u32, cols: u32, keep: f64, offset: u32, seed: u64) -> Vec<Edge> {
    let n = (rows * cols) as usize;
    let mut rng = Rng::new(seed);
    // Lattice edges in order: right then down from each vertex.
    let mut lattice: Vec<(u32, u32, bool)> = Vec::with_capacity(2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                lattice.push((v, v + 1, rng.unit() < keep));
            }
            if r + 1 < rows {
                lattice.push((v, v + cols, rng.unit() < keep));
            }
        }
    }
    let mut uf = UnionFind::new(n);
    for &(u, v, kept) in &lattice {
        if kept {
            uf.union(u, v);
        }
    }
    for e in lattice.iter_mut() {
        if !e.2 && uf.union(e.0, e.1) {
            e.2 = true;
        }
    }
    lattice
        .into_iter()
        .filter(|e| e.2)
        .map(|(u, v, _)| Edge::new(offset + u, offset + v))
        .collect()
}

/// A path `first, first+1, …, first+len−1`.
pub fn path(first: u32, len: u32) -> Vec<Edge> {
    (first..first + len - 1)
        .map(|v| Edge::new(v, v + 1))
        .collect()
}

struct UnionFind(Vec<u32>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n as u32).collect())
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            let gp = self.0[self.0[x as usize] as usize];
            self.0[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Joins the classes of `a` and `b`; false if they were one already.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra.max(rb) as usize] = ra.min(rb);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::{Algorithm, BccConfig};
    use bcc_graph::{validate, GraphBuilder};
    use bcc_smp::Pool;

    #[test]
    fn same_seed_same_edges() {
        assert_eq!(rmat(12, 8, 0, 7, 2), rmat(12, 8, 0, 7, 1));
        assert_eq!(rmat(12, 8, 0, 7, 2), rmat(12, 8, 0, 7, 3));
        assert_ne!(rmat(12, 8, 0, 7, 2), rmat(12, 8, 0, 8, 2));
        assert_eq!(road(40, 50, 0.7, 0, 3), road(40, 50, 0.7, 0, 3));
        assert_ne!(road(40, 50, 0.7, 0, 3), road(40, 50, 0.7, 0, 4));
    }

    #[test]
    fn rmat_is_skewed() {
        let edges = rmat(14, 8, 0, 1, 2);
        assert_eq!(edges.len(), 8 << 14);
        let mut deg = vec![0u32; 1 << 14];
        for e in &edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        // Mean degree is 16; R-MAT hubs are orders of magnitude above it.
        assert!(max > 1000, "max degree {max}");
    }

    #[test]
    fn road_is_connected_with_many_blocks() {
        let (rows, cols) = (128, 128);
        for seed in [1, 2, 3] {
            let edges = road(rows, cols, 0.7, 0, seed);
            let n = rows * cols;
            let g = GraphBuilder::new(n).edges(edges).build().unwrap();
            assert!(validate::is_connected(&g));
            // Keep 0.7 of ~2n lattice edges, plus rejoins.
            let m = g.m() as f64;
            assert!(m > 1.40 * n as f64 && m < 1.48 * n as f64, "m = {m}");
            let r = BccConfig::new(Algorithm::Sequential)
                .run(&Pool::new(1), &g)
                .unwrap();
            // ≈112k blocks at 1024×1024 scales to ≈1.75k at 128×128.
            let blocks = r.result.num_components as f64;
            let expect = 112_000.0 * n as f64 / (1024.0 * 1024.0);
            assert!(
                blocks > 0.8 * expect && blocks < 1.2 * expect,
                "{blocks} blocks, expected ≈{expect}"
            );
        }
    }
}
