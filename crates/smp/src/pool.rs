//! The SPMD pool: run one closure on `p` threads with a shared barrier.
//!
//! Unlike fork-join frameworks, the SPMD model gives every thread the
//! whole program: threads coordinate through barriers and partition index
//! spaces among themselves. This matches the structure of the paper's
//! algorithms (graft-and-shortcut rounds, level-synchronous BFS, block
//! scans), where phases alternate between full-array parallel loops and
//! O(p) sequential stitches done by thread 0.
//!
//! The pool is **persistent**: worker threads are spawned once at
//! construction and parked between phases, so a pipeline that issues
//! dozens of [`Pool::run`] calls pays the thread-creation cost exactly
//! once (the `smp_overhead` bench quantifies the per-phase cost that
//! remains: one wake + one completion handshake).

use crate::barrier::Barrier;
use crate::telemetry::Telemetry;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Work below which a dispatch runs on the calling thread
/// ([`Pool::run_sized`]): waking the workers and joining them costs
/// more than a few thousand elements of loop body on the 2-vCPU
/// reference host, so a narrower parallel loop loses to its serial
/// twin.
pub const GRAIN: usize = 4096;

/// An SPMD executor with a fixed thread count.
///
/// The calling thread participates as thread 0; `p - 1` persistent
/// workers handle the rest. `Pool` is `Clone` (clones share the same
/// workers) and `run` calls are serialized internally, so a pool can be
/// stored once and used from anywhere — though *nested* `run` calls
/// from inside an SPMD closure deadlock by construction and are
/// rejected in debug builds.
pub struct Pool {
    inner: Arc<Inner>,
}

/// Shared state between the pool handle(s) and the workers.
struct Inner {
    threads: usize,
    /// Serializes concurrent `run` calls from clones.
    run_lock: Mutex<()>,
    /// Phase hand-off: generation counter + erased job packet.
    state: Mutex<PhaseState>,
    wake: Condvar,
    /// Completion count for the current phase (workers only; thread 0
    /// is the caller).
    done: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// Set when a worker's closure panicked during the current phase.
    worker_panicked: std::sync::atomic::AtomicBool,
    /// Number of live `Pool` handles (workers hold `Arc<Inner>` too, so
    /// `Arc::strong_count` cannot detect the last handle).
    handles: AtomicUsize,
    /// Optional counter sink; `None` costs one pointer test per phase.
    telemetry: Option<Arc<Telemetry>>,
}

struct PhaseState {
    generation: u64,
    /// Erased pointer to the current [`JobPacket`]; valid only for the
    /// duration of the phase (the caller blocks until all workers
    /// finish before invalidating it).
    packet: *const JobPacket<'static>,
    shutdown: bool,
}

// SAFETY: the raw packet pointer is only dereferenced by workers during
// a phase, while the issuing `run` call keeps the packet alive; access
// is ordered by the state mutex and the done handshake.
unsafe impl Send for PhaseState {}

struct JobPacket<'a> {
    f: &'a (dyn Fn(&Ctx) + Sync),
    barrier: &'a Barrier,
}

impl Pool {
    /// Creates a pool of `threads` SPMD threads. Must be >= 1.
    pub fn new(threads: usize) -> Self {
        Pool::with_telemetry(threads, None)
    }

    fn with_telemetry(threads: usize, telemetry: Option<Arc<Telemetry>>) -> Self {
        assert!(threads >= 1, "pool needs at least one thread");
        if let Some(sink) = &telemetry {
            assert_eq!(
                sink.threads(),
                threads,
                "telemetry sink sized for {} threads, pool has {threads}",
                sink.threads(),
            );
        }
        let inner = Arc::new(Inner {
            threads,
            run_lock: Mutex::new(()),
            state: Mutex::new(PhaseState {
                generation: 0,
                packet: std::ptr::null(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            done: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            worker_panicked: std::sync::atomic::AtomicBool::new(false),
            handles: AtomicUsize::new(1),
            telemetry,
        });
        for tid in 1..threads {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("bcc-smp-{tid}"))
                .spawn(move || worker_loop(&inner, tid))
                .expect("failed to spawn pool worker");
        }
        Pool { inner }
    }

    /// Starts configuring a pool (thread count, telemetry sink).
    pub fn builder() -> PoolBuilder {
        PoolBuilder {
            threads: None,
            telemetry: None,
        }
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`).
    pub fn machine() -> Self {
        Pool::new(Pool::default_threads())
    }

    /// The machine's available parallelism, clamped to `1..=64` so a
    /// misreported core count (containers, exotic SMPs) cannot oversubscribe
    /// the barrier's spin loops into pathology.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 64)
    }

    /// Number of SPMD threads.
    #[inline]
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// The telemetry sink attached at construction, if any.
    #[inline]
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.inner.telemetry.as_ref()
    }

    /// Runs `f` on all threads of the pool. `f(ctx)` is invoked once per
    /// thread with a [`Ctx`] carrying the thread id and barrier.
    ///
    /// The single-threaded case runs inline with no synchronization, so
    /// `p = 1` measurements carry no threading overhead (the paper's
    /// sequential baselines are separate code paths, but the `p = 1`
    /// parallel runs should only pay *algorithmic* overhead).
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&Ctx) + Sync,
    {
        let p = self.inner.threads;
        let telem = self.inner.telemetry.as_deref();
        if let Some(t) = telem {
            t.record_run();
        }
        let barrier = Barrier::new(p);
        if p == 1 {
            let ctx = Ctx::new(0, 1, &barrier, telem);
            let start = telem.map(|_| Instant::now());
            f(&ctx);
            if let Some(t) = telem {
                let elapsed = start.unwrap().elapsed().as_nanos() as u64;
                let wait = ctx.wait_ns.get();
                t.record_thread(0, elapsed.saturating_sub(wait), wait);
                // The (trivial) end-of-phase join still counts as the
                // phase's barrier episode, so episode counts don't
                // change shape between p = 1 and p > 1.
                t.record_episode();
            }
            return;
        }

        let packet = JobPacket {
            f: &f,
            barrier: &barrier,
        };
        let _serial = self.inner.run_lock.lock().unwrap();
        self.inner.done.store(0, Ordering::Release);
        self.inner.worker_panicked.store(false, Ordering::Release);
        {
            let mut state = self.inner.state.lock().unwrap();
            debug_assert!(state.packet.is_null(), "nested Pool::run detected");
            // SAFETY (lifetime erasure): the packet outlives the phase —
            // `PhaseGuard` blocks (even during unwinding) until every
            // worker has finished before `packet` can be dropped.
            state.packet = unsafe {
                std::mem::transmute::<*const JobPacket<'_>, *const JobPacket<'static>>(
                    &packet as *const JobPacket<'_>,
                )
            };
            state.generation += 1;
            self.inner.wake.notify_all();
        }
        let phase_guard = PhaseGuard { inner: &self.inner };

        // Participate as thread 0.
        let ctx = Ctx::new(0, p, &barrier, telem);
        let start = telem.map(|_| Instant::now());
        f(&ctx);
        let closure_ns = start.map(|s| s.elapsed().as_nanos() as u64);

        let join_start = telem.map(|_| Instant::now());
        drop(phase_guard); // waits for workers, clears the packet
        if let Some(t) = telem {
            // Thread 0's wait for the stragglers is the phase's implicit
            // join barrier: bill it as barrier wait, count one episode.
            let join_ns = join_start.unwrap().elapsed().as_nanos() as u64;
            let wait = ctx.wait_ns.get();
            t.record_thread(0, closure_ns.unwrap().saturating_sub(wait), wait + join_ns);
            t.record_episode();
        }
        if self.inner.worker_panicked.load(Ordering::Acquire) {
            panic!("a pool worker panicked during Pool::run");
        }
    }

    /// Runs `f` per thread and collects each thread's return value,
    /// ordered by thread id. Useful for gathering per-thread partial
    /// results (per-thread frontier buffers).
    pub fn run_map<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&Ctx) -> R + Sync,
        R: Send,
    {
        let out: Vec<Mutex<Option<R>>> =
            (0..self.inner.threads).map(|_| Mutex::new(None)).collect();
        self.run(|ctx| {
            let r = f(ctx);
            *out[ctx.tid()].lock().unwrap() = Some(r);
        });
        out.into_iter()
            .map(|m| m.into_inner().unwrap().expect("thread produced no value"))
            .collect()
    }

    /// [`run_map`](Pool::run_map) for a dispatch that states its `work`
    /// (the elements or arcs its loop visits). Below [`GRAIN`], `f` runs
    /// once on the calling thread with a one-thread [`Ctx`], the way
    /// [`run`](Pool::run) runs at p = 1, and the result has one entry.
    /// Such a run is not a pool phase: it wakes no worker and records
    /// nothing in the telemetry sink, so `barrier_episodes` counts only
    /// real dispatches.
    pub fn run_sized<F, R>(&self, work: usize, f: F) -> Vec<R>
    where
        F: Fn(&Ctx) -> R + Sync,
        R: Send,
    {
        if work >= GRAIN {
            return self.run_map(f);
        }
        let barrier = Barrier::new(1);
        vec![f(&Ctx::new(0, 1, &barrier, None))]
    }

    /// Applies `f` to every item of a slice under static block
    /// partitioning and returns the results in input order — the
    /// batch-execution helper behind the query engine's fan-out. `f`
    /// receives `(index, &item)`.
    ///
    /// Each thread fills its own contiguous block, so results are
    /// assembled by concatenating per-thread vectors in tid order (block
    /// ranges tile `0..items.len()` ascending); answers are therefore
    /// identical to a sequential `items.iter().map(...)` run.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let parts = self.run_map(|ctx| {
            let r = ctx.block_range(items.len());
            let start = r.start;
            items[r]
                .iter()
                .enumerate()
                .map(|(i, t)| f(start + i, t))
                .collect::<Vec<R>>()
        });
        let mut all = Vec::with_capacity(items.len());
        for p in parts {
            all.extend(p);
        }
        all
    }

    /// [`par_map`](Pool::par_map) for items of skewed cost: `weight`
    /// estimates each item's work (a vertex's degree, a query's expected
    /// fan-out) and items are handed out in dynamically scheduled chunks
    /// of roughly `budget` total weight, so one heavy item cannot strand
    /// the rest of a static block behind a single thread. Results are in
    /// input order, identical to a sequential map.
    pub fn par_map_weighted<T, R, F, W>(
        &self,
        items: &[T],
        budget: usize,
        weight: W,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        W: Fn(usize, &T) -> usize,
    {
        let work = crate::dynamic::ChunkCounter::weighted(items.len(), budget.max(1), |i| {
            weight(i, &items[i])
        });
        let parts = self.run_map(|_ctx| {
            let mut local: Vec<(usize, R)> = Vec::new();
            while let Some(r) = work.next_chunk() {
                for i in r {
                    local.push((i, f(i, &items[i])));
                }
            }
            local
        });
        // Reassemble in input order: each index was produced exactly once.
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for part in parts {
            for (i, v) in part {
                debug_assert!(out[i].is_none());
                out[i] = Some(v);
            }
        }
        out.into_iter()
            .map(|v| v.expect("weighted chunks must cover every index"))
            .collect()
    }
}

/// Blocks until all workers finish the current phase, then clears the
/// packet — runs on the normal path *and* when thread 0's closure
/// unwinds, so the erased packet pointer can never dangle.
struct PhaseGuard<'a> {
    inner: &'a Inner,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let p = self.inner.threads;
        let mut guard = self.inner.done_lock.lock().unwrap();
        while self.inner.done.load(Ordering::Acquire) != p - 1 {
            guard = self.inner.done_cv.wait(guard).unwrap();
        }
        drop(guard);
        self.inner.state.lock().unwrap().packet = std::ptr::null();
    }
}

impl Clone for Pool {
    fn clone(&self) -> Self {
        self.inner.handles.fetch_add(1, Ordering::Relaxed);
        Pool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Last *handle* shuts the workers down; the workers' own Arcs
        // keep `Inner` alive until they observe the flag and exit.
        if self.inner.handles.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut state = self.inner.state.lock().unwrap();
            state.shutdown = true;
            state.generation += 1;
            self.inner.wake.notify_all();
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::machine()
    }
}

fn worker_loop(inner: &Inner, tid: usize) {
    let mut seen_generation = 0u64;
    loop {
        // Wait for the next phase (or shutdown).
        let packet: *const JobPacket<'static>;
        {
            let mut state = inner.state.lock().unwrap();
            while state.generation == seen_generation && !state.shutdown {
                state = inner.wake.wait(state).unwrap();
            }
            if state.shutdown {
                return;
            }
            seen_generation = state.generation;
            packet = state.packet;
        }
        if packet.is_null() {
            continue; // spurious (e.g. shutdown bump raced)
        }
        // SAFETY: the issuing `run` keeps the packet alive until every
        // worker has bumped `done` below.
        let packet = unsafe { &*packet };
        let telem = inner.telemetry.as_deref();
        let ctx = Ctx::new(tid, inner.threads, packet.barrier, telem);
        let start = telem.map(|_| Instant::now());
        // Catch panics so a failing closure cannot wedge the handshake.
        // (A panic while *other* threads wait on an in-closure barrier
        // still deadlocks them — inherent to barrier programs, same as
        // the pthreads original.)
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (packet.f)(&ctx))).is_err() {
            inner.worker_panicked.store(true, Ordering::Release);
        }
        if let Some(t) = telem {
            let elapsed = start.unwrap().elapsed().as_nanos() as u64;
            let wait = ctx.wait_ns.get();
            t.record_thread(tid, elapsed.saturating_sub(wait), wait);
        }
        // Signal completion.
        let _g = inner.done_lock.lock().unwrap();
        inner.done.fetch_add(1, Ordering::AcqRel);
        inner.done_cv.notify_one();
    }
}

/// Configures a [`Pool`] before construction.
///
/// ```
/// use bcc_smp::{Pool, Telemetry};
/// use std::sync::Arc;
///
/// let sink = Arc::new(Telemetry::new(2));
/// let pool = Pool::builder().threads(2).telemetry(sink.clone()).build();
/// pool.run(|_| {});
/// assert_eq!(sink.snapshot().phase_runs, 1);
/// ```
pub struct PoolBuilder {
    threads: Option<usize>,
    telemetry: Option<Arc<Telemetry>>,
}

impl PoolBuilder {
    /// Sets the SPMD thread count (default: [`Pool::default_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches a counter sink. Must be sized for the pool's thread
    /// count ([`Telemetry::new`] with the same `threads`).
    pub fn telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Spawns the pool.
    ///
    /// # Panics
    ///
    /// If a telemetry sink was attached whose [`Telemetry::threads`]
    /// disagrees with the pool's thread count.
    pub fn build(self) -> Pool {
        let threads = self.threads.unwrap_or_else(Pool::default_threads);
        Pool::with_telemetry(threads, self.telemetry)
    }
}

/// Per-thread execution context handed to SPMD closures.
pub struct Ctx<'a> {
    tid: usize,
    threads: usize,
    barrier: &'a Barrier,
    sense: Cell<bool>,
    /// Phase-local barrier-wait accumulator, flushed to `telem` by the
    /// thread that owns this context once its closure returns.
    wait_ns: Cell<u64>,
    telem: Option<&'a Telemetry>,
}

impl<'a> Ctx<'a> {
    fn new(tid: usize, threads: usize, barrier: &'a Barrier, telem: Option<&'a Telemetry>) -> Self {
        Ctx {
            tid,
            threads,
            barrier,
            sense: Cell::new(false),
            wait_ns: Cell::new(0),
            telem,
        }
    }

    /// This thread's id in `0..threads`.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Total number of SPMD threads.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True for thread 0, which performs the O(p) sequential stitches.
    #[inline]
    pub fn is_leader(&self) -> bool {
        self.tid == 0
    }

    /// Waits until every thread of the pool reaches this barrier.
    /// Returns `true` on exactly one thread per episode.
    #[inline]
    pub fn barrier(&self) -> bool {
        let mut sense = self.sense.get();
        let leader = match self.telem {
            None => self.barrier.wait(&mut sense),
            Some(t) => {
                let start = Instant::now();
                let leader = self.barrier.wait(&mut sense);
                self.wait_ns
                    .set(self.wait_ns.get() + start.elapsed().as_nanos() as u64);
                if leader {
                    t.record_episode();
                }
                leader
            }
        };
        self.sense.set(sense);
        leader
    }

    /// The contiguous block of `0..n` owned by this thread under static
    /// block partitioning: blocks differ in size by at most one element.
    #[inline]
    pub fn block_range(&self, n: usize) -> Range<usize> {
        block_range(self.tid, self.threads, n)
    }

    /// Block partition of an arbitrary range.
    #[inline]
    pub fn block_range_of(&self, range: Range<usize>) -> Range<usize> {
        let n = range.end - range.start;
        let r = self.block_range(n);
        range.start + r.start..range.start + r.end
    }

    /// Iterates this thread's indices under a strided (cyclic) partition,
    /// `tid, tid + p, tid + 2p, ...` — useful when per-index cost varies
    /// systematically across the range.
    #[inline]
    pub fn strided(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        (self.tid..n).step_by(self.threads)
    }
}

/// Static block partition: thread `tid` of `threads` owns this subrange
/// of `0..n`. The first `n % threads` blocks get one extra element.
#[inline]
pub fn block_range(tid: usize, threads: usize, n: usize) -> Range<usize> {
    debug_assert!(tid < threads);
    let base = n / threads;
    let extra = n % threads;
    let start = tid * base + tid.min(extra);
    let len = base + usize::from(tid < extra);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn block_ranges_tile_exactly() {
        for threads in 1..=9 {
            for n in [0usize, 1, 2, 7, 64, 100, 101] {
                let mut covered = vec![false; n];
                let mut prev_end = 0;
                for tid in 0..threads {
                    let r = block_range(tid, threads, n);
                    assert_eq!(r.start, prev_end, "blocks must be contiguous");
                    prev_end = r.end;
                    for i in r {
                        assert!(!covered[i]);
                        covered[i] = true;
                    }
                }
                assert_eq!(prev_end, n);
                assert!(covered.into_iter().all(|c| c));
            }
        }
    }

    #[test]
    fn block_sizes_balanced() {
        for threads in 1..=8 {
            for n in [1usize, 5, 16, 33, 1000] {
                let sizes: Vec<usize> = (0..threads)
                    .map(|t| block_range(t, threads, n).len())
                    .collect();
                let max = *sizes.iter().max().unwrap();
                let min = *sizes.iter().min().unwrap();
                assert!(max - min <= 1, "p={threads} n={n}: {sizes:?}");
            }
        }
    }

    #[test]
    fn run_visits_every_tid_once() {
        let pool = Pool::new(5);
        let visits = [const { AtomicUsize::new(0) }; 5];
        pool.run(|ctx| {
            visits[ctx.tid()].fetch_add(1, Ordering::Relaxed);
            assert_eq!(ctx.threads(), 5);
        });
        for v in &visits {
            assert_eq!(v.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn run_map_orders_by_tid() {
        let pool = Pool::new(6);
        let got = pool.run_map(|ctx| ctx.tid() * 10);
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn par_map_preserves_input_order() {
        for p in [1, 3, 4, 7] {
            let pool = Pool::new(p);
            let items: Vec<u64> = (0..1013).collect();
            let got = pool.par_map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let want: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn par_map_empty_and_fewer_items_than_threads() {
        let pool = Pool::new(6);
        assert_eq!(pool.par_map(&[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[9u32, 4], |_, &x| x + 1), vec![10, 5]);
    }

    #[test]
    fn par_map_weighted_matches_sequential_map_under_skew() {
        for p in [1, 4] {
            let pool = Pool::new(p);
            // Star-like skew: item 0 carries almost all the weight.
            let items: Vec<u64> = (0..997).collect();
            let got = pool.par_map_weighted(
                &items,
                64,
                |i, _| if i == 0 { 10_000 } else { 1 },
                |i, &x| {
                    assert_eq!(i as u64, x);
                    x * 7 + 2
                },
            );
            let want: Vec<u64> = items.iter().map(|&x| x * 7 + 2).collect();
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn par_map_weighted_empty_and_non_copy_results() {
        let pool = Pool::new(3);
        assert_eq!(
            pool.par_map_weighted(&[] as &[u32], 8, |_, _| 1, |_, &x| x),
            Vec::<u32>::new()
        );
        let got = pool.par_map_weighted(&[1u32, 2, 3], 1, |_, &x| x as usize, |_, &x| vec![x; 2]);
        assert_eq!(got, vec![vec![1, 1], vec![2, 2], vec![3, 3]]);
    }

    #[test]
    fn many_phases_reuse_the_same_workers() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 500 * 4);
    }

    #[test]
    fn borrowed_data_flows_into_phases() {
        let pool = Pool::new(3);
        let data: Vec<usize> = (0..999).collect();
        let total = AtomicUsize::new(0);
        pool.run(|ctx| {
            let r = ctx.block_range(data.len());
            let local: usize = data[r].iter().sum();
            total.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 998 / 2);
    }

    #[test]
    fn clones_share_workers_and_serialize() {
        let pool = Pool::new(4);
        let clone = pool.clone();
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..50 {
                    pool.run(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            s.spawn(|| {
                for _ in 0..50 {
                    clone.run(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100 * 4);
    }

    #[test]
    fn drop_shuts_workers_down() {
        // Workers hold the only remaining Arcs after the handle drops;
        // observe them exit via a Weak reference.
        for _ in 0..20 {
            let pool = Pool::new(3);
            pool.run(|_| {});
            let weak = Arc::downgrade(&pool.inner);
            drop(pool);
            let mut spins = 0u32;
            while weak.strong_count() > 0 {
                assert!(spins < 2_000_000, "workers failed to shut down");
                crate::barrier::backoff(&mut spins);
            }
        }
    }

    #[test]
    fn clone_keeps_workers_alive_until_last_handle() {
        let pool = Pool::new(2);
        let clone = pool.clone();
        drop(pool);
        // Still fully functional through the clone.
        let hits = AtomicUsize::new(0);
        clone.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn barriers_synchronize_phases() {
        let pool = Pool::new(4);
        let n = 1024;
        let mut a: Vec<usize> = (0..n).collect();
        let mut b = vec![0usize; n];
        {
            let a_s = crate::shared::SharedSlice::new(&mut a);
            let b_s = crate::shared::SharedSlice::new(&mut b);
            pool.run(|ctx| {
                // Phase 1: b[i] = a[i] * 2 on own block.
                for i in ctx.block_range(n) {
                    unsafe { b_s.write(i, a_s.get(i) * 2) };
                }
                ctx.barrier();
                // Phase 2: a[i] = b[(i + 1) % n] — reads another block's
                // writes, valid only because of the barrier.
                for i in ctx.block_range(n) {
                    unsafe { a_s.write(i, b_s.get((i + 1) % n)) };
                }
            });
        }
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(x, ((i + 1) % n) * 2);
        }
    }

    #[test]
    fn strided_partition_covers_all() {
        let pool = Pool::new(3);
        let hits = [const { AtomicUsize::new(0) }; 17];
        pool.run(|ctx| {
            for i in ctx.strided(17) {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn leader_is_unique_per_barrier_episode() {
        let pool = Pool::new(4);
        let leaders = AtomicUsize::new(0);
        pool.run(|ctx| {
            for _ in 0..32 {
                if ctx.barrier() {
                    leaders.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn telemetry_records_one_barrier_entry_per_run() {
        for p in [1, 4] {
            let sink = Arc::new(Telemetry::new(p));
            let pool = Pool::builder()
                .threads(p)
                .telemetry(Arc::clone(&sink))
                .build();
            for _ in 0..10 {
                pool.run(|_| {});
            }
            let snap = sink.snapshot();
            assert_eq!(snap.phase_runs, 10, "p={p}");
            assert_eq!(
                snap.barrier_episodes, 10,
                "p={p}: each run's join is exactly one episode"
            );
        }
    }

    #[test]
    fn run_sized_covers_every_index_once_on_both_sides_of_the_grain() {
        for p in [1, 2, 4] {
            let pool = Pool::new(p);
            for len in [0, GRAIN - 1, GRAIN, GRAIN + 1] {
                let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let parts = pool.run_sized(len, |ctx| {
                    for i in ctx.block_range(len) {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.tid()
                });
                let want: Vec<usize> = if len < GRAIN {
                    vec![0]
                } else {
                    (0..p).collect()
                };
                assert_eq!(parts, want, "p={p} len={len}");
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "p={p} len={len}"
                );
            }
        }
    }

    #[test]
    fn below_grain_run_is_not_a_pool_phase() {
        for p in [1, 2] {
            let sink = Arc::new(Telemetry::new(p));
            let pool = Pool::builder()
                .threads(p)
                .telemetry(Arc::clone(&sink))
                .build();
            pool.run_sized(GRAIN - 1, |ctx| {
                assert_eq!(ctx.threads(), 1);
                ctx.barrier();
            });
            let snap = sink.snapshot();
            assert_eq!(snap.phase_runs, 0, "p={p}");
            assert_eq!(snap.barrier_episodes, 0, "p={p}");
            pool.run_sized(GRAIN, |_| {});
            let snap = sink.snapshot();
            assert_eq!(snap.phase_runs, 1, "p={p}");
            assert_eq!(snap.barrier_episodes, 1, "p={p}");
        }
    }

    #[test]
    fn telemetry_counts_explicit_barrier_episodes() {
        let p = 3;
        let sink = Arc::new(Telemetry::new(p));
        let pool = Pool::builder()
            .threads(p)
            .telemetry(Arc::clone(&sink))
            .build();
        for _ in 0..5 {
            pool.run(|ctx| {
                ctx.barrier();
                ctx.barrier();
                ctx.barrier();
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.phase_runs, 5);
        // 3 explicit episodes + the implicit join, per run.
        assert_eq!(snap.barrier_episodes, 5 * 4);
    }

    #[test]
    fn telemetry_sees_skew_as_wait_and_imbalance() {
        let p = 2;
        let sink = Arc::new(Telemetry::new(p));
        let pool = Pool::builder()
            .threads(p)
            .telemetry(Arc::clone(&sink))
            .build();
        pool.run(|ctx| {
            if ctx.tid() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            ctx.barrier();
        });
        let snap = sink.snapshot();
        // Thread 1 worked ~20ms; thread 0 waited for it at the barrier.
        assert!(
            snap.busy[1] >= std::time::Duration::from_millis(15),
            "sleeping thread's busy time: {:?}",
            snap.busy
        );
        assert!(
            snap.barrier_wait[0] >= std::time::Duration::from_millis(10),
            "idle thread's barrier wait: {:?}",
            snap.barrier_wait
        );
        assert!(snap.imbalance() > 1.2, "imbalance: {}", snap.imbalance());
    }

    #[test]
    fn pools_without_telemetry_have_none() {
        let pool = Pool::new(2);
        assert!(pool.telemetry().is_none());
        let built = Pool::builder().threads(2).build();
        assert!(built.telemetry().is_none());
    }

    #[test]
    fn builder_defaults_match_machine() {
        let pool = Pool::builder().build();
        assert_eq!(pool.threads(), Pool::default_threads());
        assert!(Pool::default_threads() >= 1);
        assert!(Pool::default_threads() <= 64);
    }

    #[test]
    #[should_panic(expected = "telemetry sink sized for")]
    fn builder_rejects_mismatched_sink() {
        let sink = Arc::new(Telemetry::new(3));
        let _ = Pool::builder().threads(2).telemetry(sink).build();
    }

    #[test]
    fn panics_propagate_worker_free() {
        // A panic on thread 0 (the caller) must not wedge the pool.
        let pool = Pool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|_| panic!("boom"));
        }));
        assert!(result.is_err());
        // Pool still usable afterwards at p = 1.
        let ok = AtomicUsize::new(0);
        pool.run(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }
}
