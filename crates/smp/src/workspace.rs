//! Reusable-buffer arena for allocation-free steady-state runs.
//!
//! Every phase of the Tarjan–Vishkin pipeline works over dense arrays
//! sized by `n`, `m`, or `2(n-1)`; a fresh run heap-allocates each of
//! them and frees them minutes of CPU time later. On SMPs the cost is
//! not the `malloc` bookkeeping itself but the page faults and cache
//! misses of first-touching cold memory every run — repeated-run
//! workloads (benchmark trials, `bcc-query`'s `IndexStore` rebuilds) pay it
//! every time. [`BccWorkspace`] is a typed free-list arena: callers
//! [`take`](BccWorkspace::take) a `Vec<T>` with at least the capacity
//! they need and [`give`](BccWorkspace::give) it back when the phase is
//! done, so a second run of the same or smaller graph is served entirely
//! from warm, already-faulted buffers.
//!
//! Design points:
//!
//! * **Typed shelves.** Buffers are shelved by element type
//!   (`TypeId` of `Vec<T>`), so a `Vec<u32>` can never be handed out as
//!   a `Vec<Edge>`. No `unsafe`, no lifetime ties: the arena hands out
//!   plain owned `Vec`s.
//! * **Size-classed service.** A `take(min_cap)` returns the *smallest*
//!   shelved buffer with `capacity >= min_cap` (best-fit), so one big
//!   buffer does not get burned on a tiny request. Misses round the
//!   fresh allocation up to the next power of two, which makes
//!   moderately-growing workloads converge onto a stable set of
//!   capacities.
//! * **Telemetry.** Hit/miss counts and byte counters
//!   ([`WorkspaceStats`]) let the pipeline report `alloc_bytes` and
//!   `arena_hit_rate` per run; the steady-state tests assert a literal
//!   zero-miss second run.
//! * **Thread-safe.** A single `Mutex` guards the shelves; pipeline
//!   phases take a handful of buffers per run (not per element), so the
//!   lock is contended a few dozen times per run at most. Pool threads
//!   may take/give their own per-thread scratch directly.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One shelved buffer: its capacity (in elements), its capacity in
/// bytes (so [`BccWorkspace::trim`] can budget across types), and the
/// type-erased `Vec<T>` itself (always empty — `give` clears before
/// shelving).
struct ShelfEntry {
    cap: usize,
    bytes: usize,
    buf: Box<dyn Any + Send>,
}

/// A reusable-buffer arena for the BCC pipeline.
///
/// ```
/// use bcc_smp::BccWorkspace;
///
/// let ws = BccWorkspace::new();
/// let mut a: Vec<u32> = ws.take(100);
/// a.extend(0..100);
/// ws.give(a);
///
/// let b: Vec<u32> = ws.take(50); // served from the shelf: a hit
/// assert!(b.capacity() >= 50 && b.is_empty());
/// let s = ws.stats();
/// assert_eq!((s.hits, s.misses), (1, 1));
/// ```
#[derive(Default)]
pub struct BccWorkspace {
    shelves: Mutex<HashMap<TypeId, Vec<ShelfEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_served: AtomicU64,
}

impl BccWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a `Vec<T>` with `capacity >= min_cap` and `len == 0`.
    ///
    /// Served best-fit from the shelf when possible (a *hit*);
    /// otherwise freshly allocated with capacity rounded up to the next
    /// power of two (a *miss*). Zero-capacity requests are free and do
    /// not touch the shelves or the counters.
    pub fn take<T: Send + 'static>(&self, min_cap: usize) -> Vec<T> {
        if min_cap == 0 || std::mem::size_of::<T>() == 0 {
            return Vec::new();
        }
        let key = TypeId::of::<Vec<T>>();
        {
            let mut shelves = self.shelves.lock().unwrap();
            if let Some(entries) = shelves.get_mut(&key) {
                let mut best: Option<usize> = None;
                for (i, e) in entries.iter().enumerate() {
                    if e.cap >= min_cap && best.is_none_or(|b| e.cap < entries[b].cap) {
                        best = Some(i);
                    }
                }
                if let Some(i) = best {
                    let entry = entries.swap_remove(i);
                    drop(shelves);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.bytes_served.fetch_add(
                        (entry.cap * std::mem::size_of::<T>()) as u64,
                        Ordering::Relaxed,
                    );
                    let v = *entry
                        .buf
                        .downcast::<Vec<T>>()
                        .expect("workspace shelf holds a mistyped buffer");
                    debug_assert!(v.is_empty() && v.capacity() >= min_cap);
                    return v;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let cap = min_cap.checked_next_power_of_two().unwrap_or(min_cap);
        self.bytes_allocated
            .fetch_add((cap * std::mem::size_of::<T>()) as u64, Ordering::Relaxed);
        Vec::with_capacity(cap)
    }

    /// Takes a `Vec<T>` of exactly `len` elements, all equal to `fill`.
    ///
    /// Shorthand for [`take`](Self::take) + `resize`, the pattern for
    /// the pipeline's `vec![init; n]` buffers.
    pub fn take_filled<T: Clone + Send + 'static>(&self, len: usize, fill: T) -> Vec<T> {
        let mut v = self.take(len);
        v.resize(len, fill);
        v
    }

    /// Takes a `Vec<u32>` holding `0, 1, …, len-1` — the pipeline's
    /// identity-label initialization (`(0..n).collect()`).
    pub fn take_iota(&self, len: usize) -> Vec<u32> {
        let mut v = self.take(len);
        v.extend(0..len as u32);
        v
    }

    /// Returns a buffer to the arena for reuse.
    ///
    /// The buffer is cleared (element destructors run now) and shelved
    /// under its capacity. Zero-capacity buffers are dropped.
    pub fn give<T: Send + 'static>(&self, mut v: Vec<T>) {
        if v.capacity() == 0 || std::mem::size_of::<T>() == 0 {
            return;
        }
        v.clear();
        let cap = v.capacity();
        let key = TypeId::of::<Vec<T>>();
        let mut shelves = self.shelves.lock().unwrap();
        shelves.entry(key).or_default().push(ShelfEntry {
            cap,
            bytes: cap * std::mem::size_of::<T>(),
            buf: Box::new(v),
        });
    }

    /// A snapshot of the hit/miss and byte counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_allocated: self.bytes_allocated.load(Ordering::Relaxed),
            bytes_served: self.bytes_served.load(Ordering::Relaxed),
        }
    }

    /// Resets the counters to zero (the shelves keep their buffers).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes_allocated.store(0, Ordering::Relaxed);
        self.bytes_served.store(0, Ordering::Relaxed);
    }

    /// Number of buffers currently shelved (all types).
    pub fn shelved_buffers(&self) -> usize {
        self.shelves.lock().unwrap().values().map(Vec::len).sum()
    }

    /// Total bytes of capacity currently shelved (all types). Buffers
    /// that are out on loan are not counted.
    pub fn shelved_bytes(&self) -> usize {
        self.shelves
            .lock()
            .unwrap()
            .values()
            .flatten()
            .map(|e| e.bytes)
            .sum()
    }

    /// Drops the largest shelved buffers (across all types) until at
    /// most `max_bytes` of capacity remain shelved.
    ///
    /// A long-lived arena shelves buffers sized by the *largest* job it
    /// ever served — after one whole-graph build, an index store whose
    /// incremental commits only need region-sized scratch would pin the
    /// full-graph buffers forever. `trim(0)` is equivalent to
    /// [`clear`](Self::clear); smaller budgets keep the small, hot
    /// buffers and release the oversized cold ones.
    pub fn trim(&self, max_bytes: usize) {
        let mut shelves = self.shelves.lock().unwrap();
        let mut total: usize = shelves.values().flatten().map(|e| e.bytes).sum();
        while total > max_bytes {
            let (key, idx, bytes) = shelves
                .iter()
                .flat_map(|(k, entries)| {
                    entries
                        .iter()
                        .enumerate()
                        .map(move |(i, e)| (*k, i, e.bytes))
                })
                .max_by_key(|&(_, _, b)| b)
                .expect("total > 0 implies a shelved entry exists");
            shelves.get_mut(&key).unwrap().swap_remove(idx);
            total -= bytes;
        }
        shelves.retain(|_, entries| !entries.is_empty());
    }

    /// Drops every shelved buffer, releasing the memory to the system.
    pub fn clear(&self) {
        self.shelves.lock().unwrap().clear();
    }
}

impl std::fmt::Debug for BccWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BccWorkspace")
            .field("shelved_buffers", &self.shelved_buffers())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Point-in-time counters of a [`BccWorkspace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// `take` calls served from the shelf.
    pub hits: u64,
    /// `take` calls that had to heap-allocate.
    pub misses: u64,
    /// Bytes freshly allocated by misses.
    pub bytes_allocated: u64,
    /// Bytes of capacity served by hits.
    pub bytes_served: u64,
}

impl WorkspaceStats {
    /// Fraction of takes served from the shelf; `1.0` when there were
    /// no takes at all (an idle arena misses nothing).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter increments since `earlier` (same workspace, earlier
    /// snapshot).
    pub fn delta_since(&self, earlier: &WorkspaceStats) -> WorkspaceStats {
        WorkspaceStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bytes_allocated: self.bytes_allocated - earlier.bytes_allocated,
            bytes_served: self.bytes_served - earlier.bytes_served,
        }
    }
}

/// A counting wrapper around the system allocator, for steady-state
/// allocation tests.
///
/// Install it as the `#[global_allocator]` of a *dedicated* test binary
/// (one `#[test]` per binary — `cargo test` runs tests inside one
/// binary concurrently, which would pollute the counters):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: bcc_smp::CountingAlloc = bcc_smp::CountingAlloc::new();
/// ```
///
/// The counters are process-global statics, so the type is a unit
/// struct and the accessors are associated functions.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    /// A new counting allocator (counters are global, not per-value).
    pub const fn new() -> Self {
        CountingAlloc
    }

    /// Total number of allocation calls (alloc + realloc) so far.
    pub fn allocations() -> usize {
        ALLOC_CALLS.load(Ordering::Relaxed)
    }

    /// Total bytes requested from the allocator so far.
    pub fn allocated_bytes() -> usize {
        ALLOC_BYTES.load(Ordering::Relaxed)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation verbatim to `System`; the counter
// updates are atomic and have no effect on the returned memory.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_is_a_hit() {
        let ws = BccWorkspace::new();
        let mut v: Vec<u32> = ws.take(1000);
        assert!(v.capacity() >= 1000 && v.is_empty());
        v.extend(0..1000);
        let cap = v.capacity();
        ws.give(v);
        assert_eq!(ws.shelved_buffers(), 1);

        let w: Vec<u32> = ws.take(512);
        assert!(w.is_empty(), "give must clear the buffer");
        assert_eq!(w.capacity(), cap);
        let s = ws.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.bytes_served >= 512 * 4);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        let ws = BccWorkspace::new();
        let small: Vec<u64> = ws.take(100);
        let big: Vec<u64> = ws.take(10_000);
        let (small_cap, big_cap) = (small.capacity(), big.capacity());
        assert!(small_cap < big_cap);
        ws.give(big);
        ws.give(small);
        let got: Vec<u64> = ws.take(50);
        assert_eq!(
            got.capacity(),
            small_cap,
            "best fit must pick the small shelf"
        );
        let got_big: Vec<u64> = ws.take(5_000);
        assert_eq!(got_big.capacity(), big_cap);
        assert_eq!(ws.stats().misses, 2);
        assert_eq!(ws.stats().hits, 2);
    }

    #[test]
    fn shelves_are_typed() {
        let ws = BccWorkspace::new();
        let v: Vec<u32> = ws.take(64);
        ws.give(v);
        // Same byte size per element, different type: must miss.
        let _f: Vec<f32> = ws.take(64);
        let s = ws.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn zero_capacity_requests_are_free() {
        let ws = BccWorkspace::new();
        let v: Vec<u32> = ws.take(0);
        assert_eq!(v.capacity(), 0);
        ws.give(v);
        assert_eq!(ws.shelved_buffers(), 0);
        assert_eq!(ws.stats(), WorkspaceStats::default());
    }

    #[test]
    fn take_filled_and_iota() {
        let ws = BccWorkspace::new();
        let v = ws.take_filled(5, 7u32);
        assert_eq!(v, vec![7; 5]);
        ws.give(v);
        let v = ws.take_iota(5);
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
        assert_eq!(ws.stats().hits, 1);
    }

    #[test]
    fn grow_shrink_sequence_converges() {
        let ws = BccWorkspace::new();
        for n in [100usize, 1000, 500, 1000, 100] {
            let v: Vec<u32> = ws.take(n);
            ws.give(v);
        }
        // After the 1000-cap buffer exists every smaller take hits.
        let s = ws.stats();
        assert_eq!(s.misses, 2, "only 100 and 1000 should miss");
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn stats_delta_and_reset() {
        let ws = BccWorkspace::new();
        let before = ws.stats();
        let v: Vec<u32> = ws.take(10);
        ws.give(v);
        let _v2: Vec<u32> = ws.take(10);
        let d = ws.stats().delta_since(&before);
        assert_eq!((d.hits, d.misses), (1, 1));
        assert!((d.hit_rate() - 0.5).abs() < 1e-12);
        ws.reset_stats();
        assert_eq!(ws.stats(), WorkspaceStats::default());
        assert_eq!(ws.stats().hit_rate(), 1.0);
    }

    #[test]
    fn shelved_bytes_track_capacity() {
        let ws = BccWorkspace::new();
        let a: Vec<u32> = ws.take(1000); // rounded to 1024 elements
        let b: Vec<u64> = ws.take(100); // rounded to 128 elements
        assert_eq!(ws.shelved_bytes(), 0, "loaned buffers are not shelved");
        let expect = a.capacity() * 4 + b.capacity() * 8;
        ws.give(a);
        ws.give(b);
        assert_eq!(ws.shelved_bytes(), expect);
        ws.clear();
        assert_eq!(ws.shelved_bytes(), 0);
    }

    #[test]
    fn trim_drops_largest_buffers_first() {
        let ws = BccWorkspace::new();
        let small: Vec<u32> = ws.take(64);
        let mid: Vec<u32> = ws.take(1024);
        let big: Vec<u32> = ws.take(1 << 16);
        let (small_bytes, mid_bytes) = (small.capacity() * 4, mid.capacity() * 4);
        ws.give(small);
        ws.give(mid);
        ws.give(big);
        // Budget for small + mid: exactly the big buffer goes.
        ws.trim(small_bytes + mid_bytes);
        assert_eq!(ws.shelved_buffers(), 2);
        assert_eq!(ws.shelved_bytes(), small_bytes + mid_bytes);
        // A zero budget empties the arena like clear().
        ws.trim(0);
        assert_eq!(ws.shelved_buffers(), 0);
        // Trimming an empty arena is a no-op.
        ws.trim(0);
        assert_eq!(ws.shelved_bytes(), 0);
    }

    #[test]
    fn trim_within_budget_keeps_everything() {
        let ws = BccWorkspace::new();
        let v: Vec<u32> = ws.take(100);
        ws.give(v);
        let before = ws.shelved_bytes();
        ws.trim(usize::MAX);
        assert_eq!(ws.shelved_bytes(), before);
        assert_eq!(ws.shelved_buffers(), 1);
    }

    #[test]
    fn concurrent_takes_from_pool_threads() {
        use crate::pool::Pool;
        let ws = BccWorkspace::new();
        let pool = Pool::new(4);
        pool.run(|ctx| {
            for _ in 0..10 {
                let mut v: Vec<u32> = ws.take(256);
                v.push(ctx.tid() as u32);
                ws.give(v);
            }
        });
        let s = ws.stats();
        assert_eq!(s.hits + s.misses, 40);
        assert!(s.misses <= 4, "at most one cold buffer per thread");
    }
}
