//! Active-frontier compaction and scratch-arena reuse.
//!
//! Every solver in the study is a synchronous round loop, and by the later
//! rounds only a small fraction of vertices is still live. The dense
//! formulations re-sweep the full participant list each round (the paper's
//! baselines do exactly that — see `sb_core::mis::luby`); the frontier
//! formulations instead keep the live set in a [`BitFrontier`] and
//! *compact* it between rounds, so each round's sweeps touch only
//! still-live vertices or edges.
//!
//! Two pieces live here:
//!
//! * [`BitFrontier`] — the live set as u64 words plus the sorted list of
//!   nonzero word indices. Iteration is a trailing-zeros walk over the
//!   nonzero words (ascending, so every order-sensitive sweep sees members
//!   in increasing index order), winner masks against a [`WordMarks`]
//!   array are word-level ANDs, and compaction emits word-index runs 64×
//!   shorter than the member list. No allocation happens once the buffers
//!   have grown to their high-water mark (round 1).
//! * [`Scratch`] — a typed buffer arena. Solvers borrow per-call working
//!   arrays (`degree`, `marked`, `proposal`, FORBIDDEN offsets, …) from it
//!   instead of `vec![0; n]`-ing fresh ones, and give them back when done.
//!   The arena counts fresh allocations vs reuses so tests can pin that a
//!   second solve on the same arena allocates nothing.

use rayon::prelude::*;

use crate::atomic::as_atomic_u64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Frontier/arena observability (DESIGN.md §12). Every series here is
/// `Logical`-class: compaction counts, items scanned, and arena
/// allocation behavior are fixed by the algorithm and must be identical
/// at 1 and N threads — the CLI determinism test pins that.
struct FrontierMetrics {
    /// Compaction passes executed (one per rebuild, retain or selection).
    compactions: sb_metrics::Counter,
    /// Live-set members scanned across all compaction passes.
    items_scanned: sb_metrics::Counter,
    /// Scratch-arena buffers that had to be freshly allocated.
    scratch_fresh_allocs: sb_metrics::Counter,
    /// Scratch-arena buffers handed out without allocating.
    scratch_reuses: sb_metrics::Counter,
}

fn metrics() -> &'static FrontierMetrics {
    static METRICS: OnceLock<FrontierMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        use sb_metrics::Class::Logical;
        let r = sb_metrics::global();
        FrontierMetrics {
            compactions: r.counter("sb_par_frontier_compactions", Logical),
            items_scanned: r.counter("sb_par_frontier_items_scanned", Logical),
            scratch_fresh_allocs: r.counter("sb_par_scratch_fresh_allocs", Logical),
            scratch_reuses: r.counter("sb_par_scratch_reuses", Logical),
        }
    })
}

/// Compact the index range `0..n` into a fresh order-stable worklist.
///
/// One-shot entry for participant scans that want an explicit index list
/// (the round loops hold their live set in a [`BitFrontier`] instead).
/// Equivalent to `(0..n).filter(keep).collect()`.
pub fn compact_range<F>(n: usize, keep: F) -> Vec<u32>
where
    F: Fn(u32) -> bool + Sync + Send,
{
    crate::prim::compact_indices(n, |i| keep(i as u32))
}

/// A per-vertex (or per-edge) mark array shared across a parallel sweep:
/// one bit per index.
///
/// Solvers write marks from inside kernels (`put`) and read them from
/// neighbors (`get`). Marks are set/cleared with atomic OR/ANDNOT on the
/// containing word, and whole words are exposed to
/// [`BitFrontier::select_marked_into`] so the live∩marked intersection is
/// a word-level AND.
pub struct WordMarks {
    words: Vec<u64>,
}

impl WordMarks {
    fn at(&self, w: usize) -> &AtomicU64 {
        // SAFETY: `AtomicU64` has the same layout as `u64`, the index is in
        // bounds (asserted: `put`/`get` are safe and take any index), and
        // every access to the buffer while it is shared goes through these
        // atomic views.
        assert!(w < self.words.len(), "mark index out of range");
        unsafe { &*(self.words.as_ptr().add(w) as *const AtomicU64) }
    }

    /// The whole mark word covering indices `64w..64w+64`.
    fn word(&self, w: usize) -> u64 {
        self.at(w).load(Ordering::Relaxed)
    }

    /// Set or clear index `i`'s mark (atomic; racing distinct indices is fine).
    pub fn put(&self, i: u32, val: bool) {
        let bit = 1u64 << (i & 63);
        let w = self.at(i as usize >> 6);
        if val {
            w.fetch_or(bit, Ordering::Relaxed);
        } else {
            w.fetch_and(!bit, Ordering::Relaxed);
        }
    }

    /// Read index `i`'s mark.
    pub fn get(&self, i: u32) -> bool {
        self.word(i as usize >> 6) >> (i & 63) & 1 != 0
    }
}

/// A u64-bitset live set: bit `i & 63` of `words[i >> 6]` says whether
/// index `i` is live.
///
/// The invariant `words[w] != 0  ⇔  w ∈ live` is maintained by every
/// operation, and `live` (the sorted nonzero-word index list) is what the
/// per-round compaction emits — word-index runs, 64× shorter than the
/// member list — so sweeps skip dead regions at word granularity while
/// iteration inside a word is a trailing-zeros loop. Members always come
/// out in increasing index order.
#[derive(Debug, Default)]
pub struct BitFrontier {
    words: Vec<u64>,
    live: Vec<u32>,
    spare: Vec<u32>,
    len: usize,
}

/// Visit the set bits of `bits` (word index `w`) as global indices.
#[inline]
fn for_bits(w: u32, mut bits: u64, f: &mut impl FnMut(u32)) {
    let base = w * 64;
    while bits != 0 {
        f(base + bits.trailing_zeros());
        bits &= bits - 1;
    }
}

impl BitFrontier {
    /// Empty bitset frontier with no capacity.
    pub fn new() -> BitFrontier {
        BitFrontier::default()
    }

    /// Current members, materialized in increasing order (test/debug aid;
    /// the solvers never materialize).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_seq(|v| out.push(v));
        out
    }

    /// Resize the word array for a universe of `n` indices, zeroing it.
    fn reset_words(&mut self, n: usize) {
        let nw = n.div_ceil(64);
        if self.words.len() == nw {
            // Clearing only the live words beats a full memset once the
            // set is sparse.
            for &w in &self.live {
                self.words[w as usize] = 0;
            }
        } else {
            self.words.clear();
            self.words.resize(nw, 0);
        }
        self.live.clear();
        self.len = 0;
    }

    /// Set `live` to the nonzero words among `candidates` (ascending word
    /// indices, order-stable) and recount `len`.
    fn collect_live(&mut self, candidates: impl Iterator<Item = u32>) {
        self.spare.clear();
        let words = &self.words;
        self.spare
            .extend(candidates.filter(|&w| words[w as usize] != 0));
        std::mem::swap(&mut self.live, &mut self.spare);
        self.len = self
            .live
            .iter()
            .map(|&w| self.words[w as usize].count_ones() as usize)
            .sum();
    }

    /// Rebuild `live` and `len` from the whole word array (sequential: the
    /// word array is 64× smaller than the universe).
    fn rebuild_live(&mut self) {
        self.collect_live(0..self.words.len() as u32);
    }

    /// Capacity currently held (for arena reuse accounting).
    fn capacity(&self) -> usize {
        self.words.capacity() + self.live.capacity() + self.spare.capacity()
    }

    /// Rebuild as `{i in 0..n : keep(i)}`.
    pub fn reset_range<F>(&mut self, n: usize, keep: F)
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        let m = metrics();
        m.compactions.inc();
        m.items_scanned.add(n as u64);
        self.reset_words(n);
        self.words.par_iter_mut().enumerate().for_each(|(w, word)| {
            let lo = w * 64;
            let hi = n.min(lo + 64);
            let mut bits = 0u64;
            for i in lo..hi {
                if keep(i as u32) {
                    bits |= 1 << (i - lo);
                }
            }
            *word = bits;
        });
        self.rebuild_live();
    }

    /// Rebuild from an explicit member list drawn from `0..universe`.
    pub fn reset_from(&mut self, items: &[u32], universe: usize) {
        self.reset_words(universe);
        for &i in items {
            self.words[i as usize >> 6] |= 1 << (i & 63);
        }
        self.rebuild_live();
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no member is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every member failing `keep` (the per-round compaction).
    pub fn retain<F>(&mut self, keep: F)
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        let m = metrics();
        m.compactions.inc();
        m.items_scanned.add(self.len as u64);
        let words = as_atomic_u64(&mut self.words);
        self.live.par_iter().for_each(|&w| {
            let old = words[w as usize].load(Ordering::Relaxed);
            let mut kept = 0u64;
            for_bits(w, old, &mut |i| {
                if keep(i) {
                    kept |= 1 << (i & 63);
                }
            });
            if kept != old {
                words[w as usize].store(kept, Ordering::Relaxed);
            }
        });
        let live = std::mem::take(&mut self.live);
        self.collect_live(live.iter().copied());
        self.spare = live;
    }

    /// Parallel sweep over the members.
    pub fn for_each<F>(&self, f: F)
    where
        F: Fn(u32) + Sync + Send,
    {
        let words = &self.words;
        self.live
            .par_iter()
            .for_each(|&w| for_bits(w, words[w as usize], &mut |i| f(i)));
    }

    /// Sequential sweep over the members in increasing order.
    pub fn for_each_seq<F>(&self, mut f: F)
    where
        F: FnMut(u32),
    {
        for &w in &self.live {
            for_bits(w, self.words[w as usize], &mut f);
        }
    }

    /// `dst := {v in self : pred(v)}`.
    pub fn select_into<F>(&self, pred: F, dst: &mut BitFrontier)
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        self.select_words_into(dst, |w, bits| {
            let mut kept = 0u64;
            for_bits(w, bits, &mut |i| {
                if pred(i) {
                    kept |= 1 << (i & 63);
                }
            });
            kept
        });
    }

    /// `dst := self ∩ marks` — the conflict/winner-mask step, one AND per
    /// live word.
    pub fn select_marked_into(&self, marks: &WordMarks, dst: &mut BitFrontier) {
        self.select_words_into(dst, |w, bits| bits & marks.word(w as usize));
    }

    /// `dst` := for each live word `w` of `self`, the bits `keep(w, word)`.
    fn select_words_into<K>(&self, dst: &mut BitFrontier, keep: K)
    where
        K: Fn(u32, u64) -> u64 + Sync + Send,
    {
        let m = metrics();
        m.compactions.inc();
        m.items_scanned.add(self.len as u64);
        dst.reset_words(self.words.len() * 64);
        let src = &self.words;
        let out = as_atomic_u64(&mut dst.words);
        self.live.par_iter().for_each(|&w| {
            let kept = keep(w, src[w as usize]);
            if kept != 0 {
                out[w as usize].store(kept, Ordering::Relaxed);
            }
        });
        // Only words live in `self` can be live in `dst`.
        dst.collect_live(self.live.iter().copied());
    }
}

/// Allocation statistics of a [`Scratch`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Buffers handed out that had to be freshly allocated (or regrown).
    pub fresh_allocs: u64,
    /// Buffers handed out from the pool without allocating.
    pub reuses: u64,
}

/// A typed buffer arena for per-solver working memory.
///
/// One `Scratch` lives for a whole composite run; each solver phase
/// borrows the arrays it needs (`take_*`), uses them for its round loop,
/// and returns them (`recycle_*`). The first call per shape allocates; all
/// later calls reuse, so a run's allocation count stops growing after its
/// first solve — [`Scratch::stats`] exposes the counts so tests can pin
/// exactly that.
#[derive(Debug, Default)]
pub struct Scratch {
    u8s: Vec<Vec<u8>>,
    u32s: Vec<Vec<u32>>,
    marks: Vec<Vec<u64>>,
    usizes: Vec<Vec<usize>>,
    frontiers: Vec<BitFrontier>,
    fresh_allocs: u64,
    reuses: u64,
}

fn take_buf<T: Copy>(
    pool: &mut Vec<Vec<T>>,
    n: usize,
    fill: T,
    fresh: &mut u64,
    reuses: &mut u64,
) -> Vec<T> {
    match pool.pop() {
        Some(mut b) if b.capacity() >= n => {
            *reuses += 1;
            b.clear();
            b.resize(n, fill);
            b
        }
        _ => {
            *fresh += 1;
            vec![fill; n]
        }
    }
}

impl Scratch {
    /// Fresh, empty arena.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Borrow a `u8` buffer of length `n`, every entry set to `fill`.
    pub fn take_u8(&mut self, n: usize, fill: u8) -> Vec<u8> {
        take_buf(
            &mut self.u8s,
            n,
            fill,
            &mut self.fresh_allocs,
            &mut self.reuses,
        )
    }

    /// Borrow a `u32` buffer of length `n`, every entry set to `fill`.
    pub fn take_u32(&mut self, n: usize, fill: u32) -> Vec<u32> {
        take_buf(
            &mut self.u32s,
            n,
            fill,
            &mut self.fresh_allocs,
            &mut self.reuses,
        )
    }

    /// Borrow a `usize` buffer of length `n`, every entry set to `fill`.
    pub fn take_usize(&mut self, n: usize, fill: usize) -> Vec<usize> {
        take_buf(
            &mut self.usizes,
            n,
            fill,
            &mut self.fresh_allocs,
            &mut self.reuses,
        )
    }

    /// Borrow an empty [`BitFrontier`] (its buffers keep the capacity they
    /// had when recycled).
    pub fn take_frontier(&mut self) -> BitFrontier {
        match self.frontiers.pop() {
            Some(mut f) => {
                if f.capacity() > 0 {
                    self.reuses += 1;
                } else {
                    self.fresh_allocs += 1;
                }
                f.words.clear();
                f.live.clear();
                f.spare.clear();
                f.len = 0;
                f
            }
            None => {
                self.fresh_allocs += 1;
                BitFrontier::new()
            }
        }
    }

    /// Borrow a [`WordMarks`] array covering `0..n`, every mark set to
    /// `fill`.
    pub fn take_marks(&mut self, n: usize, fill: bool) -> WordMarks {
        let words = take_buf(
            &mut self.marks,
            n.div_ceil(64),
            if fill { !0 } else { 0 },
            &mut self.fresh_allocs,
            &mut self.reuses,
        );
        WordMarks { words }
    }

    /// Return a `u8` buffer to the pool.
    pub fn recycle_u8(&mut self, b: Vec<u8>) {
        self.u8s.push(b);
    }

    /// Return a mark array to the pool.
    pub fn recycle_marks(&mut self, m: WordMarks) {
        self.marks.push(m.words);
    }

    /// Return a frontier (with its grown buffers) to the pool.
    pub fn recycle_frontier(&mut self, f: BitFrontier) {
        self.frontiers.push(f);
    }

    /// Return a `u32` buffer to the pool.
    pub fn recycle_u32(&mut self, b: Vec<u32>) {
        self.u32s.push(b);
    }

    /// Return a `usize` buffer to the pool.
    pub fn recycle_usize(&mut self, b: Vec<usize>) {
        self.usizes.push(b);
    }

    /// Allocation counters accumulated so far.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            fresh_allocs: self.fresh_allocs,
            reuses: self.reuses,
        }
    }
}

impl Drop for Scratch {
    /// Publish the arena's lifetime totals to the global metrics registry,
    /// so arena behavior is observable (`--metrics`) without any caller
    /// plumbing. Untouched arenas (including the empties `mem::take`
    /// leaves behind) publish nothing.
    fn drop(&mut self) {
        if self.fresh_allocs == 0 && self.reuses == 0 {
            return;
        }
        let m = metrics();
        m.scratch_fresh_allocs.add(self.fresh_allocs);
        m.scratch_reuses.add(self.reuses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_reuses_buffers() {
        let mut s = Scratch::new();
        let a = s.take_u32(100, 7);
        assert_eq!(a, vec![7u32; 100]);
        let ptr = a.as_ptr();
        s.recycle_u32(a);
        let b = s.take_u32(50, 9);
        assert_eq!(b.as_ptr(), ptr, "recycled buffer handed back out");
        assert_eq!(b, vec![9u32; 50]);
        let st = s.stats();
        assert_eq!(st.fresh_allocs, 1);
        assert_eq!(st.reuses, 1);
    }

    #[test]
    fn scratch_regrows_undersized_buffers() {
        let mut s = Scratch::new();
        let a = s.take_u8(10, 0);
        s.recycle_u8(a);
        let b = s.take_u8(10_000, 1); // does not fit: fresh allocation
        assert_eq!(b.len(), 10_000);
        assert_eq!(s.stats().fresh_allocs, 2);
    }

    #[test]
    fn bit_frontier_matches_filtered_index_lists() {
        // Drive a BitFrontier through a retain sequence and require the
        // member list of the equivalent filter at every step — across word
        // boundaries (universe deliberately not a multiple of 64).
        let n = 64 * 3 + 7;
        let mut s = Scratch::new();
        let mut bs = s.take_frontier();
        bs.reset_range(n, |i| i % 3 != 0);
        let mut want: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 0).collect();
        assert_eq!(bs.to_vec(), want);
        assert_eq!(bs.len(), want.len());
        for round in 2..6u32 {
            bs.retain(move |i| i % round != 1);
            want.retain(|i| i % round != 1);
            assert_eq!(bs.to_vec(), want, "round {round}");
            assert_eq!(bs.len(), want.len());
        }
    }

    #[test]
    fn bit_frontier_multi_word_retain_allocates_nothing_at_steady_state() {
        let mut f = BitFrontier::new();
        f.reset_range(64 * 40, |_| true);
        f.retain(|_| true); // live and spare now at high-water capacity
        let cap = f.capacity();
        for round in 0..6 {
            f.retain(move |i| i % (round + 2) != 0);
        }
        assert_eq!(f.capacity(), cap);
    }

    #[test]
    fn bit_frontier_word_boundaries() {
        // The classic off-by-one sites: bits 63, 64, 65 live in different
        // words; membership, retain, and select must all agree there.
        let mut bs = BitFrontier::new();
        bs.reset_from(&[63, 64, 65], 130);
        assert_eq!(bs.to_vec(), vec![63, 64, 65]);
        assert_eq!(bs.len(), 3);
        bs.retain(|i| i != 64);
        assert_eq!(bs.to_vec(), vec![63, 65]);
        let mut dst = BitFrontier::new();
        bs.select_into(|i| i == 65, &mut dst);
        assert_eq!(dst.to_vec(), vec![65]);
        bs.retain(|_| false);
        assert!(bs.is_empty());
    }

    #[test]
    fn bit_frontier_select_marked_is_word_and() {
        let n = 200;
        let mut s = Scratch::new();
        let mut bs = s.take_frontier();
        bs.reset_range(n, |i| i % 2 == 0);
        let marks = s.take_marks(n, false);
        for i in [0u32, 62, 63, 64, 65, 127, 128, 198] {
            marks.put(i, true);
        }
        marks.put(64, false); // exercise the clear path too
        let mut dst = s.take_frontier();
        bs.select_marked_into(&marks, &mut dst);
        assert_eq!(dst.to_vec(), vec![0, 62, 128, 198]);
        // Reusing dst for a second selection must fully replace it.
        marks.put(2, true);
        bs.select_marked_into(&marks, &mut dst);
        assert_eq!(dst.to_vec(), vec![0, 2, 62, 128, 198]);
    }

    #[test]
    fn word_marks_fill_put_and_get() {
        let mut s = Scratch::new();
        let wm = s.take_marks(150, true);
        assert!((0..150u32).all(|i| wm.get(i)), "fill sets every mark");
        for i in [0u32, 1, 63, 64, 65, 100, 149] {
            wm.put(i, false);
        }
        wm.put(64, true);
        for i in 0..150u32 {
            let cleared = [0, 1, 63, 65, 100, 149].contains(&i);
            assert_eq!(wm.get(i), !cleared, "mark mismatch at {i}");
        }
    }

    #[test]
    fn scratch_frontier_roundtrip() {
        let mut s = Scratch::new();
        let mut f = s.take_frontier();
        f.reset_range(1000, |_| true);
        s.recycle_frontier(f);
        let f2 = s.take_frontier();
        assert!(f2.is_empty(), "recycled frontier comes back empty");
        assert!(f2.capacity() > 0, "but keeps its capacity");
        let st = s.stats();
        assert_eq!(st.fresh_allocs, 1);
        assert_eq!(st.reuses, 1);
    }
}
