//! Set-associative cache structures for the PIPM simulator.
//!
//! One generic structure, [`SetAssoc`], backs every tagged hardware
//! structure in the system: L1 data caches and LLCs (keyed by
//! [`LineAddr`]), the PIPM local/global remapping caches (keyed by
//! [`PageNum`]), and the CXL device coherence directory (keyed by
//! [`LineAddr`]). Each entry carries caller-defined metadata `M`
//! (coherence state, dirty bit, remapping entry, …). Replacement is LRU.
//!
//! # Layout
//!
//! Every structure shares one layout, filled lazily. Each set has a
//! one-word *head* holding the offset of the set's block of lanes in a
//! shared lane store, the block's size and the set's occupancy; each lane
//! is a `(key, metadata, last_use)` tuple. A probe loads the head, then
//! scans the occupied lanes in place: one dependent load from head to
//! lanes, no per-set vector header to chase. A set reaches the lane store
//! only on its first insert, which appends a block of four lanes (or
//! `ways`, if fewer); a set that fills its block moves, lanes in order, to
//! an appended block twice the size, up to `ways`. Memory and clone cost
//! therefore grow with the entries a run actually holds, never with the
//! geometry: the device directory's sets average under two entries, so
//! its probes stay within a few dense cache lines. Nothing at all is
//! allocated before the first insert, which allocates the head array
//! zeroed: an untouched head is all zero bits, so even the 2²⁶-lane
//! remapping cache of the Fig. 16/17 `inf` point costs one `calloc`ed
//! array whose untouched pages stay unwritten.
//!
//! Within a set, lanes `0..len` are occupied in insertion order; removal
//! moves the last occupied lane into the hole (`Vec::swap_remove`
//! order), and the LRU victim is the lowest lane with the oldest
//! `last_use`.
//!
//! # Example
//!
//! ```
//! use pipm_cache::SetAssoc;
//! use pipm_types::LineAddr;
//!
//! // 4 sets × 2 ways, bool metadata (a dirty bit).
//! let mut c: SetAssoc<LineAddr, bool> = SetAssoc::new(4, 2);
//! assert!(c.insert(LineAddr::new(0), false).is_none());
//! assert!(c.insert(LineAddr::new(4), false).is_none()); // same set, 2nd way
//! *c.lookup(LineAddr::new(0)).unwrap() = true;          // touch + dirty
//! // Inserting a third line into the set evicts the LRU way (line 4).
//! let victim = c.insert(LineAddr::new(8), false).unwrap();
//! assert_eq!(victim.0, LineAddr::new(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pipm_types::{LineAddr, PageNum};

/// Keys that can index a set-associative structure.
///
/// This trait is sealed in spirit: it is implemented for the address types
/// used by the simulator ([`LineAddr`], [`PageNum`], and `u64`).
pub trait CacheKey: Copy + Eq + std::fmt::Debug {
    /// A stable integer projection of the key, used for set selection.
    fn as_index(self) -> u64;
}

impl CacheKey for LineAddr {
    #[inline]
    fn as_index(self) -> u64 {
        self.raw()
    }
}

impl CacheKey for PageNum {
    #[inline]
    fn as_index(self) -> u64 {
        self.raw()
    }
}

impl CacheKey for u64 {
    #[inline]
    fn as_index(self) -> u64 {
        self
    }
}

/// Hit/miss/eviction counters for a cache structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Insertions that displaced a valid entry.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Head flag marking a set whose lane block has been allocated. An
/// untouched set's head is zero, so a fresh head array is all zero bits.
const TOUCHED: u64 = 1 << 31;

/// Head bits below [`TOUCHED`]: the block's capacity exponent from bit
/// `CAP_SHIFT` up, the set's occupancy below it.
const CAP_SHIFT: u32 = 26;

/// log₂ of a set's first block size (capped at `ways`). The device
/// directory's and remapping caches' sets mostly hold one or two entries,
/// so their lanes stay dense; a full block moves to one twice its size.
const FIRST_BLOCK_LOG2: u64 = 2;

/// A set-associative, LRU-replaced tag structure with per-entry metadata.
#[derive(Debug)]
pub struct SetAssoc<K, M> {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two (the common geometry), so
    /// the per-access set index is a mask instead of a hardware divide;
    /// `u64::MAX` sentinel otherwise (fall back to `%`).
    set_mask: u64,
    /// One head per set: the lane-store offset of the set's block in the
    /// high 32 bits, [`TOUCHED`], the block's capacity exponent and the
    /// occupancy. Zero means the set has never been written and owns no
    /// lanes. The array itself stays unallocated until the first insert.
    heads: Vec<u64>,
    /// `(key, metadata, last_use)` lanes: per set, a block of
    /// `min(2^k, ways)` lanes, appended when the set is first written or
    /// outgrows its block. Lanes past a set's occupancy, and blocks a set
    /// has moved out of, are stale; every lane holds a key of its set.
    lanes: Vec<(K, M, u64)>,
    tick: u64,
    stats: CacheStats,
}

/// Splits a head into `(block offset, occupancy)`; `(0, 0)` if untouched.
#[inline]
fn unpack(head: u64) -> (usize, usize) {
    (
        (head >> 32) as usize,
        (head & ((1 << CAP_SHIFT) - 1)) as usize,
    )
}

/// The head of a touched set.
fn pack(base: usize, cap_log2: u64, len: usize) -> u64 {
    (base as u64) << 32 | TOUCHED | cap_log2 << CAP_SHIFT | len as u64
}

impl<K: CacheKey, M: Copy> SetAssoc<K, M> {
    /// Creates a structure with `sets` sets of `ways` ways. Nothing is
    /// allocated until the first insert.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if the structure would hold
    /// more than 2³¹ lanes (moved-out blocks at most double the lane store,
    /// whose offsets are 32-bit) or 2²⁶ ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be nonzero");
        let lanes = sets.checked_mul(ways).expect("cache geometry overflow");
        assert!(
            lanes as u64 <= 1 << 31 && ways < 1 << CAP_SHIFT,
            "cache geometry overflow"
        );
        SetAssoc {
            sets,
            ways,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                u64::MAX
            },
            heads: Vec::new(),
            lanes: Vec::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of valid entries currently stored.
    pub fn len(&self) -> usize {
        self.heads.iter().map(|&h| unpack(h).1).sum()
    }

    /// Whether the structure holds no entries.
    pub fn is_empty(&self) -> bool {
        self.heads.iter().all(|&h| unpack(h).1 == 0)
    }

    /// The set `key` maps to.
    #[inline]
    fn set_of(&self, key: K) -> usize {
        let idx = key.as_index();
        if self.set_mask != u64::MAX {
            (idx & self.set_mask) as usize
        } else {
            (idx % self.sets as u64) as usize
        }
    }

    /// The set `key` maps to and that set's head (zero if untouched).
    #[inline]
    fn locate(&self, key: K) -> (usize, u64) {
        let set = self.set_of(key);
        (set, self.heads.get(set).copied().unwrap_or(0))
    }

    /// Absolute lane index of `key`, scanning only the occupied lanes of
    /// its set.
    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        let (base, len) = unpack(self.locate(key).1);
        self.lanes[base..base + len]
            .iter()
            .position(|e| e.0 == key)
            .map(|i| base + i)
    }

    /// Looks up `key`, updating recency and hit/miss statistics. Returns a
    /// mutable reference to the metadata on a hit.
    #[inline]
    pub fn lookup(&mut self, key: K) -> Option<&mut M> {
        self.tick += 1;
        match self.find(key) {
            Some(lane) => {
                self.stats.hits += 1;
                let e = &mut self.lanes[lane];
                e.2 = self.tick;
                Some(&mut e.1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Reads `key` without updating recency or statistics.
    #[inline]
    pub fn peek(&self, key: K) -> Option<&M> {
        self.find(key).map(|lane| &self.lanes[lane].1)
    }

    /// Mutates `key`'s metadata without updating recency or statistics.
    #[inline]
    pub fn peek_mut(&mut self, key: K) -> Option<&mut M> {
        self.find(key).map(|lane| &mut self.lanes[lane].1)
    }

    /// Inserts `key` with `meta`, returning the evicted `(key, meta)` if the
    /// set was full. If `key` is already present its metadata is replaced
    /// (and nothing is evicted).
    pub fn insert(&mut self, key: K, meta: M) -> Option<(K, M)> {
        self.tick += 1;
        let entry = (key, meta, self.tick);
        let (set, head) = self.locate(key);
        let (base, len) = unpack(head);
        let ways = self.ways;
        // One pass over the occupied lanes finds `key` and, for a full set,
        // the LRU victim: the first lane with the oldest recency (strict
        // `<` keeps the lowest lane on ties, which cannot occur anyway:
        // each tick touches exactly one entry).
        let (mut victim, mut oldest, mut hit) = (0, u64::MAX, None);
        for (i, e) in self.lanes[base..base + len].iter().enumerate() {
            if e.0 == key {
                hit = Some(base + i);
                break;
            }
            if e.2 < oldest {
                (victim, oldest) = (i, e.2);
            }
        }
        if let Some(lane) = hit {
            self.lanes[lane] = entry;
            return None;
        }
        if head == 0 {
            // First touch: append the set's first block, lane 0 occupied.
            // The first insert of all also allocates the zeroed head array.
            if self.heads.is_empty() {
                self.heads = vec![0; self.sets];
            }
            let base = self.lanes.len();
            self.lanes
                .resize(base + ways.min(1 << FIRST_BLOCK_LOG2), entry);
            self.heads[set] = pack(base, FIRST_BLOCK_LOG2, 1);
            return None;
        }
        if len < ways {
            let cap_log2 = (head & (TOUCHED - 1)) >> CAP_SHIFT;
            if len < 1 << cap_log2 {
                self.lanes[base + len] = entry;
                self.heads[set] += 1;
            } else {
                // Block full: move the set, lanes in order, to a new block
                // twice the size (at most `ways`).
                let moved = self.lanes.len();
                self.lanes.extend_from_within(base..base + len);
                self.lanes.resize(moved + ways.min(2 << cap_log2), entry);
                self.heads[set] = pack(moved, cap_log2 + 1, len + 1);
            }
            return None;
        }
        // Evict the LRU victim: `swap_remove(victim)` + push.
        let block = &mut self.lanes[base..base + ways];
        let old = block[victim];
        block[victim] = block[ways - 1];
        block[ways - 1] = entry;
        self.stats.evictions += 1;
        Some((old.0, old.1))
    }

    /// Removes occupied `lane` of `set`, moving the set's last occupied
    /// lane into the hole (`Vec::swap_remove` order).
    fn remove_lane(&mut self, set: usize, lane: usize) -> (K, M) {
        let (base, len) = unpack(self.heads[set]);
        let old = self.lanes[lane];
        self.lanes[lane] = self.lanes[base + len - 1];
        self.heads[set] -= 1;
        (old.0, old.1)
    }

    /// Removes `key`, returning its metadata if present.
    pub fn invalidate(&mut self, key: K) -> Option<M> {
        let lane = self.find(key)?;
        Some(self.remove_lane(self.set_of(key), lane).1)
    }

    /// Removes every entry matched by `pred`, returning the removed pairs.
    /// Used for page-granularity invalidations (migration shootdowns).
    pub fn invalidate_matching<F: FnMut(&K, &M) -> bool>(&mut self, mut pred: F) -> Vec<(K, M)> {
        let mut out = Vec::new();
        for set in 0..self.heads.len() {
            let mut i = 0;
            while i < unpack(self.heads[set]).1 {
                let lane = unpack(self.heads[set]).0 + i;
                let e = &self.lanes[lane];
                if pred(&e.0, &e.1) {
                    out.push(self.remove_lane(set, lane));
                } else {
                    i += 1;
                }
            }
        }
        out
    }

    /// Iterates over all `(key, meta)` pairs, set by set in set-index
    /// order and lane order within a set.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &M)> {
        self.heads.iter().flat_map(move |&h| {
            let (base, len) = unpack(h);
            self.lanes[base..base + len].iter().map(|(k, m, _)| (k, m))
        })
    }

    /// Counts entries satisfying `pred` without touching LRU order or
    /// statistics. The invariant harness uses this to observe cache state
    /// (e.g. exclusive-holder counts) without perturbing replacement.
    pub fn count_matching<F: FnMut(&K, &M) -> bool>(&self, mut pred: F) -> usize {
        self.iter().filter(|(k, m)| pred(k, m)).count()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics without disturbing contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Seeds the statistics counters, e.g. to carry accumulated hit/miss
    /// counts across a structural rebuild (cache resizing mid-run).
    pub fn set_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }
}

/// A clone costs what the run touched. When the lane store is small next
/// to the head array — the 2²⁶-lane remapping caches of the Fig. 16/17
/// `inf` point — only touched sets' heads are copied into a fresh zeroed
/// array, found through the keys in the lanes (every lane holds a key of
/// the set that wrote it, and every touched set has a lane).
impl<K: CacheKey, M: Copy> Clone for SetAssoc<K, M> {
    fn clone(&self) -> Self {
        let heads = if self.lanes.len() * 8 < self.heads.len() {
            let mut heads = vec![0; self.sets];
            for lane in &self.lanes {
                let set = self.set_of(lane.0);
                heads[set] = self.heads[set];
            }
            heads
        } else {
            self.heads.clone()
        };
        SetAssoc {
            heads,
            lanes: self.lanes.clone(),
            ..*self
        }
    }
}

/// Invalidates all 64 lines of `page` from a line-keyed structure,
/// returning the removed pairs. Cheaper than a full scan: probes only the
/// sets the page's lines map to.
pub fn invalidate_page_lines<M: Copy>(
    cache: &mut SetAssoc<LineAddr, M>,
    page: PageNum,
) -> Vec<(LineAddr, M)> {
    let mut out = Vec::new();
    for i in 0..pipm_types::LINES_PER_PAGE as usize {
        let line = page.line(i);
        if let Some(m) = cache.invalidate(line) {
            out.push((line, m));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_miss_counting() {
        let mut c: SetAssoc<u64, ()> = SetAssoc::new(2, 2);
        assert!(c.lookup(1).is_none());
        c.insert(1, ());
        assert!(c.lookup(1).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn count_matching_is_non_perturbing() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        let stats_before = c.stats();
        assert_eq!(c.count_matching(|_, m| *m >= 20), 2);
        assert_eq!(c.count_matching(|k, _| *k == 1), 1);
        // No stats movement, and LRU order untouched: inserting a fourth
        // entry still evicts the oldest (key 1), not a recently-counted one.
        assert_eq!(c.stats(), stats_before);
        let evicted = c.insert(4, 40).unwrap();
        assert_eq!(evicted.0, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 3);
        c.insert(10, 0);
        c.insert(20, 0);
        c.insert(30, 0);
        c.lookup(10); // 20 is now LRU
        let (victim, _) = c.insert(40, 0).unwrap();
        assert_eq!(victim, 20);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 2);
        c.insert(1, 100);
        assert!(c.insert(1, 200).is_none());
        assert_eq!(*c.peek(1).unwrap(), 200);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(4, 2);
        c.insert(5, 7);
        assert_eq!(c.invalidate(5), Some(7));
        assert_eq!(c.invalidate(5), None);
        assert!(c.is_empty());
    }

    #[test]
    fn untouched_structure_answers_empty() {
        // The Fig. 16/17 "infinite" local remapping cache geometry: only
        // the zeroed head array exists, and every query sees no entries.
        for sets in [1 << 23, 1000] {
            let mut c: SetAssoc<u64, u32> = SetAssoc::new(sets, 8);
            assert!(c.is_empty());
            assert_eq!(c.len(), 0);
            assert!(c.iter().next().is_none());
            assert_eq!(c.count_matching(|_, _| true), 0);
            assert!(c.peek(7).is_none());
            assert!(c.peek_mut(7).is_none());
            assert!(c.invalidate(7).is_none());
            assert!(c.invalidate_matching(|_, _| true).is_empty());
            assert!(c.lookup(7).is_none());
            assert_eq!(
                c.stats(),
                CacheStats {
                    hits: 0,
                    misses: 1,
                    evictions: 0
                }
            );
            assert_eq!(c.capacity(), sets * 8);
        }
    }

    #[test]
    fn sparse_clone_is_exact() {
        // Few touched sets out of 2¹⁶: the clone rebuilds the heads from
        // the lanes. Set 3 outgrows its first block (leaving a stale one);
        // an emptied set keeps its block in both copies.
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(1 << 16, 8);
        for k in [
            70_001u64, 3, 65_539, 131_075, 196_611, 262_147, 9_999_999, 42,
        ] {
            c.insert(k, k * 2);
        }
        c.invalidate(42);
        let mut d = c.clone();
        assert_eq!(d.heads, c.heads);
        assert_eq!(d.lanes, c.lanes);
        for k in [42u64, 3, 327_683, 393_219, 458_755, 524_291, 7] {
            assert_eq!(c.insert(k, k), d.insert(k, k));
            assert_eq!(c.lookup(k + 1).copied(), d.lookup(k + 1).copied());
        }
        assert_eq!(c.heads, d.heads);
        assert_eq!(c.lanes, d.lanes);
        assert_eq!(c.stats(), d.stats());
    }

    #[test]
    fn zero_key_does_not_false_hit() {
        // A key whose projection is zero must miss until actually
        // inserted, including in a set whose block already exists.
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(2, 4);
        assert!(c.lookup(0).is_none());
        assert!(c.peek(0).is_none());
        c.insert(2, 1); // same set as 0 under the power-of-two mask
        assert!(c.peek(0).is_none());
        c.insert(0, 9);
        assert_eq!(*c.peek(0).unwrap(), 9);
    }

    #[test]
    fn page_invalidation() {
        use pipm_types::{LineAddr, PageNum, LINES_PER_PAGE};
        let mut c: SetAssoc<LineAddr, ()> = SetAssoc::new(16, 8);
        let page = PageNum::new(3);
        for i in 0..8 {
            c.insert(page.line(i * 7 % LINES_PER_PAGE as usize), ());
        }
        c.insert(PageNum::new(4).line(0), ());
        let removed = invalidate_page_lines(&mut c, page);
        assert_eq!(removed.len(), 8);
        assert_eq!(c.len(), 1); // the other page's line survives
    }

    #[test]
    fn invalidate_matching_predicate() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(4, 4);
        for k in 0..12 {
            c.insert(k, k as u32);
        }
        let removed = c.invalidate_matching(|_, m| *m % 2 == 0);
        assert_eq!(removed.len(), 6);
        assert!(c.iter().all(|(_, m)| m % 2 == 1));
    }

    #[test]
    fn capacity_respected() {
        let mut c: SetAssoc<u64, ()> = SetAssoc::new(8, 4);
        for k in 0..1000u64 {
            c.insert(k, ());
        }
        assert!(c.len() <= c.capacity());
        assert_eq!(c.capacity(), 32);
    }

    proptest! {
        /// The structure never exceeds capacity, and a just-inserted key is
        /// always present immediately afterwards.
        #[test]
        fn prop_insert_then_found(keys in proptest::collection::vec(0u64..512, 1..200)) {
            let mut c: SetAssoc<u64, u64> = SetAssoc::new(4, 2);
            for (i, k) in keys.iter().enumerate() {
                c.insert(*k, i as u64);
                prop_assert!(c.peek(*k).is_some());
                prop_assert!(c.len() <= c.capacity());
            }
        }

        /// LRU within a set: the victim is never the most recently used key.
        #[test]
        fn prop_victim_not_mru(keys in proptest::collection::vec(0u64..64, 2..100)) {
            let mut c: SetAssoc<u64, ()> = SetAssoc::new(1, 4);
            let mut last_inserted = None;
            for k in keys {
                if let Some((victim, _)) = c.insert(k, ()) {
                    prop_assert_ne!(Some(victim), last_inserted);
                }
                last_inserted = Some(k);
            }
        }

        /// Any geometry (including non-power-of-two set counts, which
        /// take the `%` path) under arbitrary interleaved traffic — sets
        /// first touched in random order, inserts, lookups, removals,
        /// predicate shootdowns and full iterations — agrees with a plain
        /// per-set `Vec` model on every result, on the statistics, and on
        /// iteration order; a clone taken mid-sequence then evolves
        /// identically to the original.
        #[test]
        fn prop_matches_shadow_model(
            sets in 1usize..7,
            ways in 1usize..11,
            ops in proptest::collection::vec((0u8..8, 0u64..64), 1..300),
            clone_at in 0usize..300,
        ) {
            let mut c: SetAssoc<u64, u64> = SetAssoc::new(sets, ways);
            let mut shadow = Shadow { sets: vec![Vec::new(); sets], ways, tick: 0, stats: CacheStats::default() };
            let mut fork: Option<(SetAssoc<u64, u64>, Shadow)> = None;
            for (n, (op, key)) in ops.into_iter().enumerate() {
                if n == clone_at {
                    fork = Some((c.clone(), shadow.clone()));
                }
                let expect = shadow.apply(op, key);
                prop_assert_eq!(apply(&mut c, op, key), expect.clone());
                prop_assert_eq!(c.len(), shadow.sets.iter().map(Vec::len).sum::<usize>());
                if let Some((fc, fs)) = fork.as_mut() {
                    let fexpect = fs.apply(op, key);
                    prop_assert_eq!(apply(fc, op, key), fexpect);
                }
            }
            prop_assert_eq!(c.stats(), shadow.stats);
            prop_assert_eq!(apply(&mut c, 7, 0), shadow.apply(7, 0));
            if let Some((mut fc, mut fs)) = fork {
                prop_assert_eq!(fc.stats(), fs.stats);
                prop_assert_eq!(apply(&mut fc, 7, 0), fs.apply(7, 0));
            }
        }
    }

    /// The result of one operation in [`prop_matches_shadow_model`].
    #[derive(Clone, Debug, PartialEq)]
    enum Outcome {
        Evicted(Option<(u64, u64)>),
        Meta(Option<u64>),
        Entries(Vec<(u64, u64)>),
    }

    /// Applies op `op` (0–1 insert, 2 lookup, 3 invalidate, 4 peek,
    /// 5 invalidate_matching, 6–7 iter) with `key` to the structure.
    fn apply(c: &mut SetAssoc<u64, u64>, op: u8, key: u64) -> Outcome {
        match op {
            0 | 1 => Outcome::Evicted(c.insert(key, key * 10 + op as u64)),
            2 => Outcome::Meta(c.lookup(key).map(|m| *m)),
            3 => Outcome::Meta(c.invalidate(key)),
            4 => Outcome::Meta(c.peek(key).copied()),
            5 => Outcome::Entries(c.invalidate_matching(|k, _| k % 5 == key % 5)),
            _ => Outcome::Entries(c.iter().map(|(k, m)| (*k, *m)).collect()),
        }
    }

    /// Reference model: per-set `Vec<(key, meta, last_use)>` with
    /// `swap_remove` removal and first-minimum LRU victims.
    #[derive(Clone)]
    struct Shadow {
        sets: Vec<Vec<(u64, u64, u64)>>,
        ways: usize,
        tick: u64,
        stats: CacheStats,
    }

    impl Shadow {
        fn apply(&mut self, op: u8, key: u64) -> Outcome {
            let n = self.sets.len();
            let slot = &mut self.sets[(key % n as u64) as usize];
            match op {
                0 | 1 => {
                    self.tick += 1;
                    let entry = (key, key * 10 + op as u64, self.tick);
                    Outcome::Evicted(if let Some(e) = slot.iter_mut().find(|e| e.0 == key) {
                        *e = entry;
                        None
                    } else if slot.len() < self.ways {
                        slot.push(entry);
                        None
                    } else {
                        let v = slot
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| e.2)
                            .map(|(i, _)| i)
                            .unwrap();
                        let victim = slot.swap_remove(v);
                        slot.push(entry);
                        self.stats.evictions += 1;
                        Some((victim.0, victim.1))
                    })
                }
                2 => {
                    self.tick += 1;
                    let tick = self.tick;
                    let hit = slot.iter_mut().find(|e| e.0 == key).map(|e| {
                        e.2 = tick;
                        e.1
                    });
                    if hit.is_some() {
                        self.stats.hits += 1;
                    } else {
                        self.stats.misses += 1;
                    }
                    Outcome::Meta(hit)
                }
                3 => Outcome::Meta(
                    slot.iter()
                        .position(|e| e.0 == key)
                        .map(|i| slot.swap_remove(i).1),
                ),
                4 => Outcome::Meta(slot.iter().find(|e| e.0 == key).map(|e| e.1)),
                5 => {
                    let mut out = Vec::new();
                    for set in &mut self.sets {
                        let mut i = 0;
                        while i < set.len() {
                            if set[i].0 % 5 == key % 5 {
                                let e = set.swap_remove(i);
                                out.push((e.0, e.1));
                            } else {
                                i += 1;
                            }
                        }
                    }
                    Outcome::Entries(out)
                }
                _ => Outcome::Entries(
                    self.sets
                        .iter()
                        .flat_map(|s| s.iter().map(|e| (e.0, e.1)))
                        .collect(),
                ),
            }
        }
    }
}
