//! List ranking: positions of nodes in a linked list.
//!
//! Given a successor array describing a NIL-terminated linked list over
//! all `n` nodes, compute for every node its distance from the head
//! (`rank[head] = 0`). List ranking is the workhorse that turns an Euler
//! tour (a linked list of arcs) into an array of tour positions — and it
//! is exactly the primitive TV-opt engineers *away* (replacing it with
//! prefix sums over a DFS-order tour), so both variants live here for the
//! paper's ablation.
//!
//! Three implementations:
//! * [`list_rank_seq`] — the obvious O(n) walk; the baseline every
//!   parallel version must beat.
//! * [`list_rank_wyllie`] — Wyllie's pointer jumping, O(n log n) work,
//!   the PRAM textbook algorithm used by TV-SMP's emulation.
//! * [`list_rank_hj`] — Helman–JáJá sampled sublists, O(n) work: `s`
//!   splitters partition the list into sublists walked sequentially in
//!   parallel, a p-sized chain of sublist lengths is scanned by thread 0,
//!   and a second sweep adds offsets.

use bcc_smp::{BccWorkspace, Pool, SharedSlice, NIL};

/// Sequential list ranking. `succ[i]` is the successor of node `i`
/// (`NIL` terminates). Every node must be on the single list starting at
/// `head`. Returns `rank` with `rank[head] == 0`.
pub fn list_rank_seq(succ: &[u32], head: u32) -> Vec<u32> {
    list_rank_seq_ws(succ, head, &BccWorkspace::new())
}

/// [`list_rank_seq`] with the rank array taken from `ws` (the caller
/// owns it).
pub fn list_rank_seq_ws(succ: &[u32], head: u32, ws: &BccWorkspace) -> Vec<u32> {
    let n = succ.len();
    let mut rank = ws.take_filled(n, NIL);
    if n == 0 {
        return rank;
    }
    let mut u = head;
    let mut r = 0u32;
    let mut visited = 0usize;
    while u != NIL {
        assert!(
            rank[u as usize] == NIL,
            "cycle detected in list at node {u}"
        );
        rank[u as usize] = r;
        r += 1;
        visited += 1;
        u = succ[u as usize];
    }
    assert_eq!(
        visited, n,
        "list must cover all {n} nodes (covered {visited})"
    );
    rank
}

/// Wyllie's pointer-jumping list ranking (O(n log n) work).
///
/// Synchronous PRAM semantics are emulated with double buffering and a
/// barrier per jumping round.
pub fn list_rank_wyllie(pool: &Pool, succ: &[u32], head: u32) -> Vec<u32> {
    list_rank_wyllie_ws(pool, succ, head, &BccWorkspace::new())
}

/// [`list_rank_wyllie`] with all four jumping buffers and the returned
/// rank array taken from `ws` (scratch is given back; the caller owns
/// the result).
pub fn list_rank_wyllie_ws(pool: &Pool, succ: &[u32], head: u32, ws: &BccWorkspace) -> Vec<u32> {
    let n = succ.len();
    if n == 0 {
        return vec![];
    }
    debug_assert!((head as usize) < n);

    // dist[i] = number of hops from i to the tail; next[i] jumps ahead.
    let mut next_a: Vec<u32> = ws.take(n);
    next_a.extend_from_slice(succ);
    let mut next_b: Vec<u32> = ws.take_filled(n, NIL);
    let mut dist_a: Vec<u32> = ws.take(n);
    dist_a.extend(succ.iter().map(|&s| u32::from(s != NIL)));
    let mut dist_b: Vec<u32> = ws.take_filled(n, 0);

    let rounds = usize::BITS - (n - 1).leading_zeros().min(usize::BITS - 1); // ceil(log2 n)
    for _ in 0..rounds.max(1) {
        {
            let na = SharedSlice::new(&mut next_a);
            let nb = SharedSlice::new(&mut next_b);
            let da = SharedSlice::new(&mut dist_a);
            let db = SharedSlice::new(&mut dist_b);
            pool.run(|ctx| {
                for i in ctx.block_range(n) {
                    let nx = na.get(i);
                    if nx != NIL {
                        unsafe {
                            db.write(i, da.get(i) + da.get(nx as usize));
                            nb.write(i, na.get(nx as usize));
                        }
                    } else {
                        unsafe {
                            db.write(i, da.get(i));
                            nb.write(i, NIL);
                        }
                    }
                }
            });
        }
        std::mem::swap(&mut next_a, &mut next_b);
        std::mem::swap(&mut dist_a, &mut dist_b);
    }

    // dist_a[i] is now distance-to-tail; rank-from-head = (n-1) - dist.
    let total = dist_a[head as usize];
    assert_eq!(
        total as usize,
        n - 1,
        "head must reach the tail through all nodes"
    );
    let mut rank = ws.take_filled(n, 0u32);
    {
        let d = SharedSlice::new(&mut dist_a);
        let r = SharedSlice::new(&mut rank);
        pool.run(|ctx| {
            for i in ctx.block_range(n) {
                unsafe { r.write(i, (n as u32 - 1) - d.get(i)) };
            }
        });
    }
    ws.give(next_a);
    ws.give(next_b);
    ws.give(dist_a);
    ws.give(dist_b);
    rank
}

/// Helman–JáJá sampled list ranking (O(n) work).
///
/// ```
/// use bcc_primitives::list_rank::list_rank_hj;
/// use bcc_smp::{Pool, NIL};
///
/// // The list 2 -> 0 -> 1 (1 is the tail).
/// let succ = vec![1, NIL, 0];
/// let ranks = list_rank_hj(&Pool::new(2), &succ, 2);
/// assert_eq!(ranks, vec![1, 2, 0]);
/// ```
///
/// `s ≈ 8·p` splitters (always including the head) cut the list into
/// sublists. Each sublist is walked sequentially by the thread owning its
/// splitter; sublist lengths form a tiny list that thread 0 scans; a
/// second parallel walk writes final ranks.
pub fn list_rank_hj(pool: &Pool, succ: &[u32], head: u32) -> Vec<u32> {
    list_rank_hj_ws(pool, succ, head, &BccWorkspace::new())
}

/// [`list_rank_hj`] with all scratch and the returned rank array taken
/// from `ws` (scratch is given back; the caller owns the result).
pub fn list_rank_hj_ws(pool: &Pool, succ: &[u32], head: u32, ws: &BccWorkspace) -> Vec<u32> {
    let n = succ.len();
    if n == 0 {
        return vec![];
    }
    let p = pool.threads();
    if p == 1 || n < 4 * p {
        return list_rank_seq_ws(succ, head, ws);
    }
    let mut rank = ws.take_filled(n, NIL);

    // Deterministic splitter choice: head plus every stride-th node *by
    // index*. Indices are uncorrelated with list positions for the lists
    // we rank (Euler tours of arbitrary trees), giving balanced expected
    // sublist lengths as in the randomized original.
    let s = (8 * p).min(n);
    let stride = n / s;
    let mut is_splitter = ws.take_filled(n, false);
    let mut splitters: Vec<u32> = ws.take(s + 1);
    is_splitter[head as usize] = true;
    splitters.push(head);
    for k in 0..s {
        let v = (k * stride) as u32;
        if !is_splitter[v as usize] {
            is_splitter[v as usize] = true;
            splitters.push(v);
        }
    }
    let ns = splitters.len();
    // splitter_id[v] for splitter nodes.
    let mut splitter_id = ws.take_filled(n, NIL);
    for (j, &v) in splitters.iter().enumerate() {
        splitter_id[v as usize] = j as u32;
    }

    // Per-splitter: length of its sublist and the id of the next splitter.
    let mut sub_len = ws.take_filled(ns, 0u32);
    let mut next_split = ws.take_filled(ns, NIL);

    {
        let rank_s = SharedSlice::new(&mut rank);
        let len_s = SharedSlice::new(&mut sub_len);
        let nxt_s = SharedSlice::new(&mut next_split);
        let splitters = &splitters;
        let is_splitter = &is_splitter;
        let splitter_id = &splitter_id;
        pool.run(|ctx| {
            // Pass 1: walk own sublists recording local ranks.
            for j in ctx.block_range(ns) {
                let start = splitters[j];
                unsafe { rank_s.write(start as usize, 0) };
                let mut local = 1u32;
                let mut u = succ[start as usize];
                while u != NIL && !is_splitter[u as usize] {
                    unsafe { rank_s.write(u as usize, local) };
                    local += 1;
                    u = succ[u as usize];
                }
                unsafe {
                    len_s.write(j, local);
                    nxt_s.write(
                        j,
                        if u == NIL {
                            NIL
                        } else {
                            splitter_id[u as usize]
                        },
                    );
                }
            }
        });
    }

    // Thread 0 work (tiny, O(s)): scan the splitter chain from the head.
    let mut offset = ws.take_filled(ns, NIL);
    {
        let mut j = 0u32; // head's splitter id is 0 by construction
        let mut acc = 0u32;
        let mut seen = 0usize;
        while j != NIL {
            assert!(offset[j as usize] == NIL, "splitter chain has a cycle");
            offset[j as usize] = acc;
            acc += sub_len[j as usize];
            seen += 1;
            j = next_split[j as usize];
        }
        assert_eq!(seen, ns, "all splitters must be reachable from head");
        assert_eq!(acc as usize, n, "sublists must cover the whole list");
    }

    // Pass 2: add offsets.
    {
        let rank_s = SharedSlice::new(&mut rank);
        let splitters = &splitters;
        let is_splitter = &is_splitter;
        let offset = &offset;
        pool.run(|ctx| {
            for j in ctx.block_range(ns) {
                let off = offset[j];
                let start = splitters[j];
                unsafe { rank_s.write(start as usize, off) };
                let mut local = 1u32;
                let mut u = succ[start as usize];
                while u != NIL && !is_splitter[u as usize] {
                    unsafe { rank_s.write(u as usize, off + local) };
                    local += 1;
                    u = succ[u as usize];
                }
            }
        });
    }

    ws.give(is_splitter);
    ws.give(splitters);
    ws.give(splitter_id);
    ws.give(sub_len);
    ws.give(next_split);
    ws.give(offset);
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// Builds a list over 0..n whose traversal order is `perm`.
    fn list_from_order(perm: &[u32]) -> (Vec<u32>, u32) {
        let n = perm.len();
        let mut succ = vec![NIL; n];
        for w in perm.windows(2) {
            succ[w[0] as usize] = w[1];
        }
        (succ, perm.first().copied().unwrap_or(NIL))
    }

    fn random_perm(n: usize, seed: u64) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed));
        perm
    }

    #[test]
    fn seq_identity_list() {
        let succ = vec![1, 2, 3, NIL];
        let rank = list_rank_seq(&succ, 0);
        assert_eq!(rank, vec![0, 1, 2, 3]);
    }

    #[test]
    fn seq_reversed_list() {
        let succ = vec![NIL, 0, 1, 2];
        let rank = list_rank_seq(&succ, 3);
        assert_eq!(rank, vec![3, 2, 1, 0]);
    }

    #[test]
    fn singleton_list() {
        let succ = vec![NIL];
        assert_eq!(list_rank_seq(&succ, 0), vec![0]);
        let pool = Pool::new(3);
        assert_eq!(list_rank_wyllie(&pool, &succ, 0), vec![0]);
        assert_eq!(list_rank_hj(&pool, &succ, 0), vec![0]);
    }

    #[test]
    fn empty_list() {
        let pool = Pool::new(2);
        assert!(list_rank_seq(&[], 0).is_empty());
        assert!(list_rank_wyllie(&pool, &[], 0).is_empty());
        assert!(list_rank_hj(&pool, &[], 0).is_empty());
    }

    #[test]
    fn wyllie_matches_seq_random() {
        for p in [1, 2, 4] {
            let pool = Pool::new(p);
            for n in [2usize, 3, 17, 64, 257, 1000] {
                let perm = random_perm(n, n as u64 * 31 + p as u64);
                let (succ, head) = list_from_order(&perm);
                let want = list_rank_seq(&succ, head);
                let got = list_rank_wyllie(&pool, &succ, head);
                assert_eq!(got, want, "wyllie p={p} n={n}");
            }
        }
    }

    #[test]
    fn hj_matches_seq_random() {
        for p in [1, 2, 3, 5] {
            let pool = Pool::new(p);
            for n in [2usize, 16, 63, 64, 500, 2048] {
                let perm = random_perm(n, n as u64 * 7 + p as u64);
                let (succ, head) = list_from_order(&perm);
                let want = list_rank_seq(&succ, head);
                let got = list_rank_hj(&pool, &succ, head);
                assert_eq!(got, want, "hj p={p} n={n}");
            }
        }
    }

    #[test]
    fn hj_handles_adversarial_in_order_list() {
        // List traversal order equals index order: all splitters cut at
        // regular positions — degenerate but must still be correct.
        let n = 999;
        let perm: Vec<u32> = (0..n as u32).collect();
        let (succ, head) = list_from_order(&perm);
        let pool = Pool::new(4);
        assert_eq!(list_rank_hj(&pool, &succ, head), list_rank_seq(&succ, head));
    }

    #[test]
    #[should_panic]
    fn seq_detects_cycle() {
        let succ = vec![1, 0];
        let _ = list_rank_seq(&succ, 0);
    }

    #[test]
    #[should_panic]
    fn seq_detects_uncovered_nodes() {
        let succ = vec![1, NIL, NIL]; // node 2 unreachable
        let _ = list_rank_seq(&succ, 0);
    }
}
