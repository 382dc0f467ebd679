//! Set-associative LRU cache model.

/// A set-associative cache over 64 B lines with true-LRU replacement.
///
/// Stores line numbers (address / 64). The set count is a power of two:
/// line `L` lives in set `L & (sets − 1)` under tag `(L >> log2(sets)) + 1`
/// (0 marks a free slot). Each slot holds a `u32` tag, a `u32` LRU stamp
/// and a dirty bit in three parallel arrays, 9 B per slot. Tags are
/// converted checked: a line whose tag would not fit 32 bits (at or
/// above `(2^32 − 1) · sets`) panics instead of aliasing.
///
/// [`Cache::probe`], [`Cache::fill`], [`Cache::contains`] and
/// [`Cache::mark_dirty`] scan one set, O(ways). [`Cache::fill_range`]
/// fills a contiguous range set by set: a straight write into an empty
/// set, O(ways log ways) into any other.
///
/// Stamps come from a tick bumped by every probe and fill. When the tick
/// would overflow, each set's stamps are renumbered by rank and the tick
/// restarts above them; LRU order, and so every hit, miss and victim, is
/// unchanged.
///
/// # Example
///
/// ```
/// use melody_cpu::Cache;
/// let mut l1 = Cache::new(48 * 1024, 12);
/// assert!(!l1.contains(3));
/// l1.fill(3, false);
/// assert!(l1.probe(3));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    // log2(sets): a line's set is its low `shift` bits, its tag the rest.
    shift: u32,
    // Per way-slot: tag (line >> shift) + 1, 0 = free.
    tags: Vec<u32>,
    // LRU stamp per slot; higher = more recent, 0 on free slots.
    stamps: Vec<u32>,
    dirty: Vec<bool>,
    tick: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity.
    ///
    /// The set count is rounded down to a power of two (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, the capacity is smaller than one way of
    /// lines, or the cache has more than `u32::MAX / 2` slots (its stamps
    /// could not be renumbered below the tick limit).
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        let lines = capacity_bytes / 64;
        assert!(lines >= ways, "capacity below one set");
        // Round the set count down to a power of two for cheap indexing.
        let raw = lines / ways;
        let sets = (1usize << (usize::BITS - 1 - raw.leading_zeros())).max(1);
        assert!(
            sets * ways <= (u32::MAX / 2) as usize,
            "cache too large for 32-bit LRU stamps"
        );
        Self {
            sets,
            ways,
            shift: sets.trailing_zeros(),
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            dirty: vec![false; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * 64
    }

    #[inline]
    fn tag_of(&self, line: u64) -> u32 {
        u32::try_from(line >> self.shift)
            .ok()
            .and_then(|t| t.checked_add(1))
            .unwrap_or_else(|| panic!("line {line:#x} beyond the cache's tag range"))
    }

    /// First slot index of `line`'s set and its tag.
    #[inline]
    fn locate(&self, line: u64) -> (usize, u32) {
        let set = (line as usize) & (self.sets - 1);
        (set * self.ways, self.tag_of(line))
    }

    /// Advances the LRU tick, renumbering stamps first when it would
    /// overflow.
    #[inline]
    fn next_tick(&mut self) -> u32 {
        if self.tick == u32::MAX {
            self.renumber();
        }
        self.tick += 1;
        self.tick
    }

    /// Replaces every set's stamps by their rank (1 = LRU) and restarts
    /// the tick above the largest rank. Relative order within each set,
    /// the only thing replacement reads, is preserved.
    #[cold]
    fn renumber(&mut self) {
        let mut order = Vec::with_capacity(self.ways);
        for base in (0..self.tags.len()).step_by(self.ways) {
            order.clear();
            order.extend((base..base + self.ways).filter(|&i| self.tags[i] != 0));
            order.sort_unstable_by_key(|&i| self.stamps[i]);
            for (rank, &i) in order.iter().enumerate() {
                self.stamps[i] = rank as u32 + 1;
            }
        }
        self.tick = self.ways as u32;
    }

    /// Checks for presence without touching LRU state or stats.
    pub fn contains(&self, line: u64) -> bool {
        let (base, tag) = self.locate(line);
        self.tags[base..base + self.ways].contains(&tag)
    }

    /// Looks up `line`, updating LRU and hit/miss stats. Returns true on
    /// hit.
    pub fn probe(&mut self, line: u64) -> bool {
        let (base, tag) = self.locate(line);
        let stamp = self.next_tick();
        match self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
        {
            Some(i) => {
                self.stamps[base + i] = stamp;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Marks a present line dirty (no-op if absent). Returns whether the
    /// line was present.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (base, tag) = self.locate(line);
        match self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
        {
            Some(i) => {
                self.dirty[base + i] = true;
                true
            }
            None => false,
        }
    }

    /// Inserts `line`, evicting the LRU victim of its set if needed.
    /// Returns the evicted line and its dirty bit, if any.
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let (base, tag) = self.locate(line);
        let stamp = self.next_tick();
        let set = (line as usize) & (self.sets - 1);
        self.place(base, tag, stamp, dirty)
            .map(|(old, d)| ((u64::from(old - 1) << self.shift) | set as u64, d))
    }

    /// Puts `tag` into the set starting at slot `base` with `stamp`: a
    /// resident tag is refreshed in place, otherwise the first free slot
    /// or else the least recently used one takes it. Returns the evicted
    /// tag and its dirty bit, if any.
    #[inline]
    fn place(&mut self, base: usize, tag: u32, stamp: u32, dirty: bool) -> Option<(u32, bool)> {
        let set = base..base + self.ways;
        if let Some(i) = self.tags[set.clone()].iter().position(|&t| t == tag) {
            self.stamps[base + i] = stamp;
            self.dirty[base + i] |= dirty;
            return None;
        }
        let mut victim = base;
        let mut oldest = u32::MAX;
        for i in set {
            if self.tags[i] == 0 {
                victim = i;
                break;
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        let old = self.tags[victim];
        let evicted = (old != 0).then(|| (old, self.dirty[victim]));
        self.tags[victim] = tag;
        self.stamps[victim] = stamp;
        self.dirty[victim] = dirty;
        evicted
    }

    /// Fills the clean lines `start..start + n`, ending in the state `n`
    /// ascending [`Cache::fill`] calls leave: the same slots, stamps,
    /// dirty bits and tick (fills never touch the hit/miss counts). Only
    /// a stamp renumbering (see the type docs) may fall at a different
    /// point, which leaves LRU order unchanged. Evicted lines are not
    /// reported.
    ///
    /// The range is filled in chunks of at most one cache capacity, each
    /// one set at a time.
    pub fn fill_range(&mut self, start: u64, n: u64) {
        let cap = (self.sets * self.ways) as u64;
        let mut done = 0;
        while done < n {
            let m = (n - done).min(cap);
            self.fill_chunk(start + done, m);
            done += m;
        }
    }

    /// [`Cache::fill_range`] for `1 ≤ m ≤ sets × ways` lines.
    ///
    /// Sets are independent, and line `start + j` would get stamp
    /// `tick + j + 1`, so each set can take all its lines at once. A set
    /// receives `k ≤ ways` of them, with consecutive tags and stamps above
    /// every resident's; a miss therefore always lands on a free slot or
    /// an untouched resident, never on a line of this chunk. An empty set
    /// simply takes its lines in slots `0..k`; any other set goes through
    /// [`Cache::place_run`].
    fn fill_chunk(&mut self, start: u64, m: u64) {
        // Tags grow with the line, so this bounds every tag below.
        self.tag_of(start.saturating_add(m - 1));
        if m > u64::from(u32::MAX - self.tick) {
            self.renumber();
        }
        let tick0 = self.tick;
        let step = self.sets as u32;
        let mut scratch = RunScratch::default();
        for off in 0..m.min(self.sets as u64) {
            let (base, tag0) = self.locate(start + off);
            let k = (((m - 1 - off) >> self.shift) + 1) as u32;
            let stamp0 = tick0 + off as u32 + 1;
            if self.tags[base..base + self.ways].iter().all(|&t| t == 0) {
                // A set never written still has clean dirty bits; leaving
                // them untouched spares their pages on a fresh cache.
                for i in 0..k {
                    let slot = base + i as usize;
                    self.tags[slot] = tag0 + i;
                    self.stamps[slot] = stamp0 + i * step;
                }
            } else {
                self.place_run(base, tag0, k, stamp0, step, &mut scratch);
            }
        }
        self.tick = tick0 + m as u32;
    }

    /// Places the clean tags `tag0..tag0 + k` (`k ≤ ways`) into the set at
    /// `base` with stamps `stamp0 + i·step`, in the order and with the
    /// outcome of `k` calls to [`Cache::place`], in O(ways log ways): a
    /// resident tag is refreshed in place unless an earlier miss evicted
    /// it; misses take free slots in index order, then evict residents
    /// in ascending old-stamp order. Every resident stamp is below
    /// `stamp0`, so a refreshed or newly placed slot is never the victim.
    fn place_run(
        &mut self,
        base: usize,
        tag0: u32,
        k: u32,
        stamp0: u32,
        step: u32,
        scratch: &mut RunScratch,
    ) {
        let set = base..base + self.ways;
        let RunScratch { lru, resident } = scratch;
        resident.clear();
        resident.resize(k as usize, usize::MAX);
        for i in set.clone() {
            let r = self.tags[i].wrapping_sub(tag0);
            if r < k {
                resident[r as usize] = i;
            }
        }
        // Built on the first eviction: sets that hit or have room skip it.
        lru.clear();
        let mut free = set.start;
        let mut next_lru = 0;
        for r in 0..k {
            let stamp = stamp0 + r * step;
            let hit = resident[r as usize];
            if hit != usize::MAX {
                self.stamps[hit] = stamp;
                continue;
            }
            while free < set.end && self.tags[free] != 0 {
                free += 1;
            }
            let victim = if free < set.end {
                free
            } else {
                if lru.is_empty() {
                    lru.extend(set.clone());
                    lru.sort_unstable_by_key(|&i| self.stamps[i]);
                }
                // The least recently used resident not refreshed yet.
                while self.stamps[lru[next_lru]] >= stamp0 {
                    next_lru += 1;
                }
                let v = lru[next_lru];
                next_lru += 1;
                let gone = self.tags[v].wrapping_sub(tag0);
                if gone < k {
                    resident[gone as usize] = usize::MAX;
                }
                v
            };
            self.tags[victim] = tag0 + r;
            self.stamps[victim] = stamp;
            self.dirty[victim] = false;
        }
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Per-set working buffers of [`Cache::place_run`], reused across the
/// sets of one chunk.
#[derive(Default)]
struct RunScratch {
    // Resident slots, least recently used first.
    lru: Vec<usize>,
    // Slot holding incoming tag `tag0 + r`, or `usize::MAX`.
    resident: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use melody_sim::SimRng;
    use proptest::prelude::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(4096, 4);
        assert!(!c.probe(10));
        c.fill(10, false);
        assert!(c.probe(10));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(64 * 4, 4); // 1 set, 4 ways
        assert_eq!(c.sets(), 1);
        for line in 0..4 {
            c.fill(line, false);
        }
        c.probe(0); // 0 is now MRU; 1 is LRU
        let evicted = c.fill(100, false);
        assert_eq!(evicted, Some((1, false)));
        assert!(c.contains(0));
        assert!(!c.contains(1));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = Cache::new(64 * 2, 2); // 1 set, 2 ways
        c.fill(1, false);
        c.mark_dirty(1);
        c.fill(2, false);
        let evicted = c.fill(3, false);
        assert_eq!(evicted, Some((1, true)));
    }

    #[test]
    fn mark_dirty_absent_line() {
        let mut c = Cache::new(4096, 4);
        assert!(!c.mark_dirty(42));
    }

    #[test]
    fn refill_refreshes_without_evicting() {
        let mut c = Cache::new(64 * 2, 2);
        c.fill(1, false);
        c.fill(2, false);
        assert_eq!(c.fill(1, true), None);
        // 2 is now LRU.
        assert_eq!(c.fill(3, false), Some((2, false)));
        // 1 kept its dirty bit from the refresh.
        assert_eq!(c.fill(4, false), Some((1, true)));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = Cache::new(64 * 8, 2); // 4 sets, 2 ways
        assert_eq!(c.sets(), 4);
        // Lines 0..4 land in distinct sets.
        for line in 0..4 {
            c.fill(line, false);
        }
        for line in 0..4 {
            assert!(c.contains(line), "line {line} evicted unexpectedly");
        }
    }

    #[test]
    fn working_set_larger_than_cache_mostly_misses() {
        let mut c = Cache::new(64 * 1024, 8); // 64 KiB
                                              // Stream a 1 MiB working set twice.
        for pass in 0..2 {
            for line in 0..16_384u64 {
                let hit = c.probe(line);
                if pass == 1 {
                    assert!(!hit, "line {line} cannot survive a 16x overflow");
                }
                if !hit {
                    c.fill(line, false);
                }
            }
        }
    }

    #[test]
    fn working_set_smaller_than_cache_all_hits_second_pass() {
        let mut c = Cache::new(1024 * 1024, 16);
        for line in 0..1_000u64 {
            c.fill(line, false);
        }
        for line in 0..1_000u64 {
            assert!(c.probe(line));
        }
    }

    proptest! {
        #[test]
        fn contains_agrees_with_probe(lines in proptest::collection::vec(0u64..10_000, 1..500)) {
            let mut c = Cache::new(32 * 1024, 8);
            for &l in &lines {
                if !c.probe(l) {
                    c.fill(l, false);
                }
                prop_assert!(c.contains(l));
            }
        }

        #[test]
        fn eviction_returns_lines_from_same_set(lines in proptest::collection::vec(0u64..100_000, 1..500)) {
            let mut c = Cache::new(8 * 1024, 4);
            let sets = c.sets() as u64;
            for &l in &lines {
                if let Some((victim, _)) = c.fill(l, false) {
                    prop_assert_eq!(victim % sets, l % sets, "victim from wrong set");
                }
            }
        }
    }

    /// The per-line cache this model replaced: `u64` tags and stamps, a
    /// division per lookup, one `fill` per warmed line. Kept as the
    /// reference the compact layout and [`Cache::fill_range`] are
    /// checked against.
    struct RefCache {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        dirty: Vec<bool>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl RefCache {
        fn new(sets: usize, ways: usize, tick: u64) -> Self {
            Self {
                sets,
                ways,
                tags: vec![0; sets * ways],
                stamps: vec![0; sets * ways],
                dirty: vec![false; sets * ways],
                tick,
                hits: 0,
                misses: 0,
            }
        }

        fn slot_range(&self, line: u64) -> (usize, u64) {
            let set = (line as usize) & (self.sets - 1);
            (set * self.ways, line / self.sets as u64 + 1)
        }

        fn contains(&self, line: u64) -> bool {
            let (base, tag) = self.slot_range(line);
            self.tags[base..base + self.ways].contains(&tag)
        }

        fn probe(&mut self, line: u64) -> bool {
            let (base, tag) = self.slot_range(line);
            self.tick += 1;
            for i in base..base + self.ways {
                if self.tags[i] == tag {
                    self.stamps[i] = self.tick;
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            false
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            let (base, tag) = self.slot_range(line);
            for i in base..base + self.ways {
                if self.tags[i] == tag {
                    self.dirty[i] = true;
                    return true;
                }
            }
            false
        }

        fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
            let (base, tag) = self.slot_range(line);
            self.tick += 1;
            for i in base..base + self.ways {
                if self.tags[i] == tag {
                    self.stamps[i] = self.tick;
                    self.dirty[i] |= dirty;
                    return None;
                }
            }
            let mut victim = base;
            let mut oldest = u64::MAX;
            for i in base..base + self.ways {
                if self.tags[i] == 0 {
                    victim = i;
                    break;
                }
                if self.stamps[i] < oldest {
                    oldest = self.stamps[i];
                    victim = i;
                }
            }
            let evicted = if self.tags[victim] != 0 {
                let set = base / self.ways;
                let old_line = (self.tags[victim] - 1) * self.sets as u64 + set as u64;
                Some((old_line, self.dirty[victim]))
            } else {
                None
            };
            self.tags[victim] = tag;
            self.stamps[victim] = self.tick;
            self.dirty[victim] = dirty;
            evicted
        }
    }

    /// Per-test iteration count: `MELODY_PROP_ITERS` when set (the
    /// scheduled deep-property CI job raises it), else `default`.
    fn iters(default: u64) -> u64 {
        std::env::var("MELODY_PROP_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Slot indices of one set, least recently used first.
    fn lru_order(tags: &[u64], stamps: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..tags.len()).filter(|&i| tags[i] != 0).collect();
        order.sort_by_key(|&i| stamps[i]);
        order
    }

    /// Checks `c` against the reference: the same lines in the same
    /// slots with the same dirty bits, the same LRU order in every set
    /// and the same hit/miss counts. Until the reference's tick passes
    /// `u32::MAX` no renumbering can have happened, so the stamps and the
    /// tick must then be equal too.
    fn assert_same(c: &Cache, r: &RefCache, ctx: &str) {
        assert_eq!((c.hits, c.misses), (r.hits, r.misses), "{ctx}: stats");
        assert_eq!(c.dirty, r.dirty, "{ctx}: dirty bits");
        let tags: Vec<u64> = c.tags.iter().map(|&t| u64::from(t)).collect();
        let stamps: Vec<u64> = c.stamps.iter().map(|&s| u64::from(s)).collect();
        assert_eq!(tags, r.tags, "{ctx}: slots");
        if r.tick <= u64::from(u32::MAX) {
            assert_eq!(stamps, r.stamps, "{ctx}: stamps");
            assert_eq!(u64::from(c.tick), r.tick, "{ctx}: tick");
        } else {
            for base in (0..tags.len()).step_by(c.ways) {
                let set = base..base + c.ways;
                assert_eq!(
                    lru_order(&tags[set.clone()], &stamps[set.clone()]),
                    lru_order(&r.tags[set.clone()], &r.stamps[set]),
                    "{ctx}: LRU order of the set at slot {base}"
                );
            }
        }
    }

    /// Random `fill`/`probe`/`mark_dirty`/`contains`/`fill_range` streams
    /// over random geometries agree with the per-line reference,
    /// including bulk fills into warm caches (overlapping residents,
    /// evicting them, spanning several capacities) and stamp wraps forced
    /// by seeding the tick just below `u32::MAX`.
    #[test]
    fn compact_cache_matches_per_line_reference() {
        for case in 0..iters(60) {
            let mut rng = SimRng::seed_from(0xCAC4E ^ case);
            let ways = [1, 2, 3, 4, 8, 12, 16][rng.below(7) as usize];
            let sets = 1usize << rng.below(7);
            let mut c = Cache::new(sets * ways * 64, ways);
            assert_eq!((c.sets(), c.ways()), (sets, ways));
            let tick = if rng.chance(0.5) {
                u32::MAX - rng.below(4 * (sets * ways) as u64) as u32
            } else {
                0
            };
            c.tick = tick;
            let mut r = RefCache::new(sets, ways, u64::from(tick));
            let cap = (sets * ways) as u64;
            let span = cap * (1 + rng.below(4));
            for op in 0..300 {
                let ctx = format!("case {case} op {op} ({sets}x{ways}, tick {tick})");
                let line = rng.below(span);
                match rng.below(10) {
                    0..=2 => {
                        let dirty = rng.chance(0.3);
                        assert_eq!(c.fill(line, dirty), r.fill(line, dirty), "{ctx}: fill");
                    }
                    3..=5 => assert_eq!(c.probe(line), r.probe(line), "{ctx}: probe"),
                    6 => assert_eq!(c.mark_dirty(line), r.mark_dirty(line), "{ctx}: dirty"),
                    7 => assert_eq!(c.contains(line), r.contains(line), "{ctx}: contains"),
                    _ => {
                        let n = rng.below(3 * cap + 2);
                        c.fill_range(line, n);
                        for l in line..line + n {
                            r.fill(l, false);
                        }
                    }
                }
                assert_same(&c, &r, &ctx);
            }
        }
    }

    #[test]
    fn fill_range_on_empty_cache_matches_fills_exactly() {
        for (sets, ways, start, n) in [(64, 12, 5, 768), (8, 4, 3, 17), (1, 16, 100, 16)] {
            let mut bulk = Cache::new(sets * ways * 64, ways);
            let mut each = bulk.clone();
            bulk.fill_range(start, n);
            for l in start..start + n {
                each.fill(l, false);
            }
            assert_eq!(bulk.tags, each.tags);
            assert_eq!(bulk.stamps, each.stamps);
            assert_eq!(bulk.dirty, each.dirty);
            assert_eq!(bulk.tick, each.tick);
        }
    }

    #[test]
    fn stamp_wrap_keeps_lru_order() {
        let mut c = Cache::new(64 * 4, 4); // 1 set, 4 ways
        c.tick = u32::MAX - 2;
        for line in 0..4 {
            c.fill(line, false); // wraps on the third fill
        }
        assert!(c.tick < 16, "tick restarted: {}", c.tick);
        c.probe(0); // 0 is now MRU; 1 is LRU
        assert_eq!(c.fill(100, false), Some((1, false)));
        assert_eq!(c.fill(101, false), Some((2, false)));
    }

    /// Largest line whose tag fits: tag `(line >> shift) + 1 ≤ u32::MAX`.
    fn max_line(c: &Cache) -> u64 {
        (u64::from(u32::MAX) << c.shift) - 1
    }

    #[test]
    fn largest_line_with_a_32_bit_tag_is_cached() {
        let mut c = Cache::new(48 * 1024, 12); // an L1: 64 sets
        assert_eq!(c.sets(), 64);
        let top = max_line(&c);
        assert_eq!(c.fill(top, true), None);
        assert!(c.contains(top));
        c.fill_range(top - 1_000, 1_001);
        assert!(c.probe(top));
    }

    #[test]
    #[should_panic(expected = "beyond the cache's tag range")]
    fn line_beyond_tag_range_panics() {
        let mut c = Cache::new(48 * 1024, 12);
        c.fill(max_line(&c) + 1, false);
    }

    #[test]
    #[should_panic(expected = "beyond the cache's tag range")]
    fn fill_range_beyond_tag_range_panics() {
        let mut c = Cache::new(48 * 1024, 12);
        c.fill_range(max_line(&c) - 5, 10);
    }
}
