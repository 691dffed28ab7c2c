//! Concurrent bitmaps for frontier bookkeeping.
//!
//! Direction-optimizing BFS keeps its frontiers as bit vectors during
//! bottom-up sweeps: membership tests are one load + mask, and a whole
//! cache line answers 512 vertices. The words are `AtomicU64` grouped
//! into cache-line-aligned blocks so concurrent `set`s from different
//! threads touching different lines never false-share with the block
//! header of an adjacent allocation.
//!
//! Writes use `Relaxed` ordering: every use in this workspace publishes
//! the bits through a pool barrier before any other thread reads them,
//! which carries the necessary happens-before edge.
//!
//! Set bits are read in bulk by one word-at-a-time drain,
//! [`Bitmap::for_each_one`] / [`Bitmap::for_each_one_in`], and counted
//! by [`Bitmap::count_ones_in`]; the tests check both against a per-bit
//! [`Bitmap::test`] probe.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of `u64` words per cache line (64 B / 8 B).
const WORDS_PER_LINE: usize = 8;

/// A 64-byte-aligned block of bitmap words; the storage unit of
/// [`Bitmap`].
#[repr(align(64))]
#[derive(Default)]
struct Line([AtomicU64; WORDS_PER_LINE]);

/// A fixed-size concurrent bitmap over `0..len` bits.
///
/// ```
/// use bcc_smp::Bitmap;
///
/// let bm = Bitmap::new(200);
/// assert!(bm.test_and_set(64));
/// assert!(!bm.test_and_set(64)); // second setter loses
/// bm.set(130);
/// assert!(bm.test(64) && bm.test(130) && !bm.test(0));
/// let mut ones = vec![];
/// bm.for_each_one(|i| ones.push(i));
/// assert_eq!(ones, vec![64, 130]);
/// assert_eq!(bm.count_ones(), 2);
/// ```
pub struct Bitmap {
    lines: Vec<Line>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        let mut lines = Vec::new();
        lines.resize_with(words.div_ceil(WORDS_PER_LINE), Line::default);
        Bitmap { lines, len }
    }

    /// An all-zero bitmap of `len` bits whose line storage is taken
    /// from (and can be [`recycle`](Self::recycle)d back to) `ws`.
    pub fn new_in(len: usize, ws: &crate::workspace::BccWorkspace) -> Self {
        let words = len.div_ceil(64);
        let mut lines: Vec<Line> = ws.take(words.div_ceil(WORDS_PER_LINE));
        lines.resize_with(words.div_ceil(WORDS_PER_LINE), Line::default);
        Bitmap { lines, len }
    }

    /// Returns the line storage to `ws` for reuse.
    pub fn recycle(self, ws: &crate::workspace::BccWorkspace) {
        ws.give(self.lines);
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of 64-bit words backing the bitmap (`ceil(len / 64)`).
    #[inline]
    pub fn words(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// True if the bitmap holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn word(&self, i: usize) -> &AtomicU64 {
        let w = i / 64;
        &self.lines[w / WORDS_PER_LINE].0[w % WORDS_PER_LINE]
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        self.word(i).fetch_or(1 << (i % 64), Ordering::Relaxed);
    }

    /// Sets bit `i` without an atomic read-modify-write (plain
    /// load-or-store). Only safe to race with nothing: use it from the
    /// single-threaded fill phase between pool barriers (e.g. rebuilding
    /// a frontier bitmap on the coordinating thread), where it is ~4×
    /// cheaper than the `lock or` of [`Bitmap::set`].
    #[inline]
    pub fn set_unsync(&self, i: usize) {
        debug_assert!(i < self.len);
        let w = self.word(i);
        w.store(w.load(Ordering::Relaxed) | 1 << (i % 64), Ordering::Relaxed);
    }

    /// Tests bit `i`.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.word(i).load(Ordering::Relaxed) >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`, returning `true` iff this call flipped it from 0
    /// to 1 (exactly one concurrent setter wins).
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1 << (i % 64);
        self.word(i).fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Clears every bit (call from one thread between barriers).
    pub fn clear(&self) {
        for line in &self.lines {
            for w in &line.0 {
                w.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Loads word `w` (bits `w*64 .. w*64+64`) in one read.
    #[inline]
    pub fn load_word(&self, w: usize) -> u64 {
        self.lines[w / WORDS_PER_LINE].0[w % WORDS_PER_LINE].load(Ordering::Relaxed)
    }

    /// Stores word `w` wholesale with a plain (non-RMW) store. Like
    /// [`set_unsync`](Self::set_unsync) this is only safe to race with
    /// nothing: call it when this thread owns the word outright (e.g. a
    /// word-partitioned flag pass between pool barriers). Bits past
    /// `len` in the final word must be zero — debug-asserted here — or
    /// the popcount kernels would overcount.
    #[inline]
    pub fn store_word_unsync(&self, w: usize, bits: u64) {
        debug_assert!(
            w + 1 < self.words() || self.len.is_multiple_of(64) || bits >> (self.len % 64) == 0,
            "store_word_unsync: bits set past the bitmap length"
        );
        self.lines[w / WORDS_PER_LINE].0[w % WORDS_PER_LINE].store(bits, Ordering::Relaxed);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.lines
            .iter()
            .flat_map(|l| l.0.iter())
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// The word `range` (for [`load_word`](Self::load_word) /
    /// [`for_each_one_in`](Self::for_each_one_in)) covering bit range
    /// `bits`, clamped to the bitmap: word-aligned work partitioning in
    /// one place, so each pool thread owns whole words and bulk stores
    /// never straddle another thread's bits.
    #[inline]
    pub fn word_range_of(bits: std::ops::Range<usize>) -> std::ops::Range<usize> {
        bits.start / 64..bits.end.div_ceil(64)
    }

    /// Number of set bits within the bit range `range`, one `popcnt`
    /// per word with the edge words masked.
    pub fn count_ones_in(&self, range: std::ops::Range<usize>) -> u64 {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len);
        if start >= end {
            return 0;
        }
        let mut total = 0u64;
        for w in start / 64..end.div_ceil(64) {
            total += u64::from(self.masked_word(w, start, end).count_ones());
        }
        total
    }

    /// Word `w` with bits outside `[start, end)` cleared.
    #[inline]
    fn masked_word(&self, w: usize, start: usize, end: usize) -> u64 {
        let mut bits = self.load_word(w);
        if w == start / 64 {
            bits &= !0u64 << (start % 64);
        }
        if (w + 1) * 64 > end {
            bits &= (!0u64) >> ((64 - end % 64) % 64);
        }
        bits
    }

    /// Calls `f(i)` for every set bit `i`, ascending. Word-skipping:
    /// zero words cost one load + one branch for 64 bits, and set bits
    /// are peeled with `trailing_zeros` + clear-lowest — no per-bit
    /// iterator state. The compaction scatter and the bottom-up BFS
    /// sweep are built on it.
    #[inline]
    pub fn for_each_one(&self, f: impl FnMut(usize)) {
        self.for_each_one_in(0..self.len, f);
    }

    /// [`for_each_one`](Self::for_each_one) restricted to the bit range
    /// `range` — each pool thread walks its own block word-at-a-time.
    #[inline]
    pub fn for_each_one_in(&self, range: std::ops::Range<usize>, mut f: impl FnMut(usize)) {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len);
        if start >= end {
            return;
        }
        for w in start / 64..end.div_ceil(64) {
            let mut bits = self.masked_word(w, start, end);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(w * 64 + b);
            }
        }
    }

    /// Sets every bit in `range` with whole-word stores (edge words via
    /// read-modify-write of this thread's own view). Unsynchronized:
    /// the caller must own every *word* the range touches — partition
    /// with [`word_range_of`](Self::word_range_of) so range boundaries
    /// fall on word boundaries, or fill from a single thread.
    pub fn fill_range_unsync(&self, range: std::ops::Range<usize>) {
        self.bulk_range_unsync(range, true);
    }

    /// Clears every bit in `range`; same ownership contract as
    /// [`fill_range_unsync`](Self::fill_range_unsync).
    pub fn clear_range_unsync(&self, range: std::ops::Range<usize>) {
        self.bulk_range_unsync(range, false);
    }

    fn bulk_range_unsync(&self, range: std::ops::Range<usize>, value: bool) {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len);
        if start >= end {
            return;
        }
        for w in start / 64..end.div_ceil(64) {
            // Mask of the range's bits within this word.
            let mut mask = !0u64;
            if w == start / 64 {
                mask &= !0u64 << (start % 64);
            }
            if (w + 1) * 64 > end {
                mask &= (!0u64) >> ((64 - end % 64) % 64);
            }
            let old = self.load_word(w);
            let new = if value { old | mask } else { old & !mask };
            self.lines[w / WORDS_PER_LINE].0[w % WORDS_PER_LINE].store(new, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bitmap")
            .field("len", &self.len)
            .field("ones", &self.count_ones())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;

    #[test]
    fn set_test_roundtrip_across_words() {
        let bm = Bitmap::new(1000);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 511, 512, 999] {
            assert!(!bm.test(i));
            bm.set(i);
            assert!(bm.test(i));
        }
        assert_eq!(bm.count_ones(), 10);
    }

    #[test]
    fn set_unsync_matches_set() {
        let bm = Bitmap::new(300);
        for i in [0usize, 5, 63, 64, 192, 299] {
            bm.set_unsync(i);
            assert!(bm.test(i));
        }
        // Mixing with atomic sets on the same word keeps earlier bits.
        bm.set(6);
        assert!(bm.test(5) && bm.test(6));
        assert_eq!(bm.count_ones(), 7);
    }

    #[test]
    fn test_and_set_has_one_winner_per_bit() {
        let bm = Bitmap::new(4096);
        let pool = Pool::new(4);
        let wins: Vec<std::sync::atomic::AtomicU32> = (0..4096)
            .map(|_| std::sync::atomic::AtomicU32::new(0))
            .collect();
        pool.run(|_| {
            for (i, w) in wins.iter().enumerate() {
                if bm.test_and_set(i) {
                    w.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert!(wins.iter().all(|w| w.load(Ordering::Relaxed) == 1));
        assert_eq!(bm.count_ones(), 4096);
    }

    /// The set bits in `range`, ascending, by [`Bitmap::for_each_one_in`].
    fn ones_in(bm: &Bitmap, range: std::ops::Range<usize>) -> Vec<usize> {
        let mut got = vec![];
        bm.for_each_one_in(range, |i| got.push(i));
        got
    }

    #[test]
    fn for_each_one_matches_set_bits() {
        let bm = Bitmap::new(777);
        let want: Vec<usize> = (0..777).filter(|i| i % 7 == 3).collect();
        for &i in &want {
            bm.set(i);
        }
        let mut got = vec![];
        bm.for_each_one(|i| got.push(i));
        assert_eq!(got, want);
        assert_eq!(bm.count_ones() as usize, want.len());
    }

    #[test]
    fn for_each_one_in_respects_subrange_boundaries() {
        let bm = Bitmap::new(300);
        for i in 0..300 {
            bm.set(i);
        }
        for (a, b) in [(0, 300), (0, 0), (5, 64), (63, 65), (64, 128), (100, 259)] {
            let want: Vec<usize> = (a..b).collect();
            assert_eq!(ones_in(&bm, a..b), want, "range {a}..{b}");
        }
    }

    #[test]
    fn subranges_tile_the_whole_iteration() {
        let bm = Bitmap::new(1031);
        let want: Vec<usize> = (0..1031).filter(|i| i % 3 == 0).collect();
        for &i in &want {
            bm.set(i);
        }
        let mut got = vec![];
        for t in 0..5 {
            got.extend(ones_in(&bm, crate::pool::block_range(t, 5, 1031)));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn for_each_one_matches_bit_probe_on_ranges() {
        let bm = Bitmap::new(1031);
        for i in (0..1031).filter(|i| i % 5 == 2 || i % 97 == 0) {
            bm.set(i);
        }
        for (a, b) in [
            (0, 1031),
            (0, 0),
            (5, 64),
            (63, 65),
            (64, 128),
            (100, 259),
            (1000, 2000),
        ] {
            let want: Vec<usize> = (a..b.min(1031)).filter(|&i| bm.test(i)).collect();
            assert_eq!(ones_in(&bm, a..b), want, "range {a}..{b}");
            assert_eq!(bm.count_ones_in(a..b), want.len() as u64, "range {a}..{b}");
        }
        let mut all = vec![];
        bm.for_each_one(|i| all.push(i));
        assert_eq!(all, (0..1031).filter(|&i| bm.test(i)).collect::<Vec<_>>());
    }

    #[test]
    fn word_access_roundtrip() {
        let bm = Bitmap::new(200);
        bm.store_word_unsync(1, 0b1011);
        assert!(bm.test(64) && !bm.test(66) && bm.test(67));
        assert_eq!(bm.load_word(1), 0b1011);
        assert_eq!(bm.words(), 4);
        assert_eq!(Bitmap::word_range_of(5..130), 0..3);
        assert_eq!(Bitmap::word_range_of(64..128), 1..2);
    }

    #[test]
    fn fill_and_clear_ranges() {
        let bm = Bitmap::new(300);
        bm.fill_range_unsync(10..200);
        assert_eq!(bm.count_ones(), 190);
        assert!(!bm.test(9) && bm.test(10) && bm.test(199) && !bm.test(200));
        bm.clear_range_unsync(63..129);
        assert_eq!(bm.count_ones(), 190 - (129 - 63));
        assert!(bm.test(62) && !bm.test(63) && !bm.test(128) && bm.test(129));
        // Ranges past the end are clamped.
        bm.fill_range_unsync(290..400);
        assert!(bm.test(299));
        bm.clear_range_unsync(0..10_000);
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn word_partitioned_parallel_fill_is_race_free() {
        let n = 4099;
        let bm = Bitmap::new(n);
        let pool = Pool::new(4);
        pool.run(|ctx| {
            // Word-aligned ownership: each thread stores whole words.
            let words = Bitmap::word_range_of(0..n);
            let my = ctx.block_range_of(words);
            for w in my {
                let hi = (w * 64 + 64).min(n);
                let mut bits = 0u64;
                for i in w * 64..hi {
                    if i % 3 == 0 {
                        bits |= 1 << (i % 64);
                    }
                }
                bm.store_word_unsync(w, bits);
            }
        });
        let want: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
        assert_eq!(bm.count_ones() as usize, want.len());
        let mut got = vec![];
        bm.for_each_one(|i| got.push(i));
        assert_eq!(got, want);
    }

    #[test]
    fn clear_resets() {
        let bm = Bitmap::new(100);
        bm.set(5);
        bm.set(99);
        bm.clear();
        assert_eq!(bm.count_ones(), 0);
        assert!(ones_in(&bm, 0..100).is_empty());
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert!(ones_in(&bm, 0..64).is_empty());
    }
}
