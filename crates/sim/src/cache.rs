//! Set-associative cache hierarchy with `clflush` support.
//!
//! Each core owns a private hierarchy (Table 1 of the paper gives every
//! core a private 4 MB last-level cache slice): an L1, an optional L2
//! (§10.3 adds a 256 KB L2), and an LLC. Caches are write-back,
//! write-allocate, LRU. A `clflush` invalidates the line in every level
//! and emits a writeback if it was dirty — exactly what the attack loops
//! rely on to force every access to DRAM.
//!
//! A four-core system holds four hierarchies and a run touches few of
//! their sets, so a set costs memory only once it holds a line: five
//! bytes of index and occupancy per set, plus one `ways`-wide block
//! from the level's slab on the set's first fill.
//! The crate README's "Cache model" section gives the numbers.

use lh_dram::{Span, LINE_BYTES};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Hit latency of this level.
    pub hit_latency: Span,
}

impl CacheLevelConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.capacity / (LINE_BYTES * self.ways as u64)).max(1) as usize
    }
}

/// Hierarchy configuration for one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// L1 data cache.
    pub l1: CacheLevelConfig,
    /// Optional private L2 (§10.3 sensitivity study).
    pub l2: Option<CacheLevelConfig>,
    /// Last-level cache (private per core, per Table 1).
    pub llc: CacheLevelConfig,
}

impl CacheConfig {
    /// Table 1 configuration: 32 KB 8-way L1 (1 ns), no L2, 4 MB 16-way
    /// LLC (12 ns).
    pub fn paper_default() -> CacheConfig {
        CacheConfig {
            l1: CacheLevelConfig {
                capacity: 32 * 1024,
                ways: 8,
                hit_latency: Span::from_ns(1),
            },
            l2: None,
            llc: CacheLevelConfig {
                capacity: 4 * 1024 * 1024,
                ways: 16,
                hit_latency: Span::from_ns(12),
            },
        }
    }

    /// §10.3 configuration: adds a 256 KB 8-way L2 (4 ns) and grows the
    /// LLC to 6 MB per core.
    pub fn large_hierarchy() -> CacheConfig {
        CacheConfig {
            l2: Some(CacheLevelConfig {
                capacity: 256 * 1024,
                ways: 8,
                hit_latency: Span::from_ns(4),
            }),
            llc: CacheLevelConfig {
                capacity: 6 * 1024 * 1024,
                ways: 16,
                hit_latency: Span::from_ns(12),
            },
            ..CacheConfig::paper_default()
        }
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::paper_default()
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Hit latency if some level hit; `None` means the access goes to
    /// memory.
    pub hit_latency: Option<Span>,
    /// Dirty lines evicted on the way (must be written back to memory).
    pub writeback: Option<u64>,
}

/// One cache level: per-set recency-ordered (front = MRU) line lists.
///
/// A set costs five bytes until it holds a line: a `u32` block index
/// (0 = no block yet) and a `u8` occupancy. Its first fill takes a
/// `ways`-wide block from the level's slab, which the set keeps for the
/// rest of the run, even after a `clflush` empties it. A block holds
/// `line << 1 | dirty` entries, MRU first; the first `occupancy` are
/// valid.
#[derive(Debug, Clone)]
struct Level {
    config: CacheLevelConfig,
    ways: usize,
    /// `block[set]`: 1-based index of the set's block in `slab`.
    block: Vec<u32>,
    /// `len[set]`: valid lines in the set's block.
    len: Vec<u8>,
    /// `ways`-wide blocks, allocated in first-fill order.
    slab: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Level {
    fn new(config: CacheLevelConfig, name: &str) -> Level {
        assert!(
            config.ways > 0,
            "{name}: a cache level needs at least one way"
        );
        assert!(
            config.ways <= u8::MAX as u32,
            "{name}: {} ways exceed the model's limit of {}",
            config.ways,
            u8::MAX
        );
        let sets = config.sets();
        Level {
            config,
            ways: config.ways as usize,
            block: vec![0; sets],
            len: vec![0; sets],
            slab: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line % self.block.len() as u64) as usize
    }

    /// Offset of `set`'s block in `slab` and its valid lines; the offset
    /// is meaningless while the set has no block (and no lines).
    #[inline]
    fn locate(&self, set: usize) -> (usize, usize) {
        let len = self.len[set] as usize;
        let block = self.block[set] as usize;
        (block.wrapping_sub(1).wrapping_mul(self.ways), len)
    }

    /// Where `line` sits in `set`'s block, if present.
    #[inline]
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let (base, len) = self.locate(set);
        if len == 0 {
            return None;
        }
        self.slab[base..base + len]
            .iter()
            .position(|&e| e >> 1 == line)
    }

    /// Gives `set` the slab's next block. Out of line and cold so the
    /// lookups around it stay small enough to inline into
    /// `CacheHierarchy`: a flush+fill loop ran about twice as slow
    /// while they did not.
    #[cold]
    fn alloc_block(&mut self, set: usize) {
        let blocks = self.slab.len() / self.ways;
        self.block[set] = u32::try_from(blocks + 1).expect("more than u32::MAX cache sets");
        self.slab.resize(self.slab.len() + self.ways, 0);
    }

    /// Moves the entry at `pos` to the MRU slot and ORs in `dirty`.
    #[inline]
    fn promote(&mut self, set: usize, pos: usize, dirty: bool) {
        let (base, _) = self.locate(set);
        let block = &mut self.slab[base..base + pos + 1];
        let entry = block[pos] | dirty as u64;
        if pos > 0 {
            block.copy_within(..pos, 1);
        }
        block[0] = entry;
    }

    /// Looks up `line`; on hit, refreshes LRU and ORs `mark_dirty`.
    #[inline]
    fn access(&mut self, line: u64, mark_dirty: bool) -> bool {
        let set = self.set_of(line);
        if let Some(pos) = self.find(set, line) {
            self.promote(set, pos, mark_dirty);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks presence without touching LRU or stats.
    #[inline]
    fn probe(&self, line: u64) -> bool {
        self.find(self.set_of(line), line).is_some()
    }

    /// Inserts `line`; returns an evicted dirty line if any.
    #[inline]
    fn fill(&mut self, line: u64, dirty: bool) -> Option<u64> {
        let set = self.set_of(line);
        if let Some(pos) = self.find(set, line) {
            self.promote(set, pos, dirty);
            return None;
        }
        if self.block[set] == 0 {
            self.alloc_block(set);
        }
        let (base, len) = self.locate(set);
        let block = &mut self.slab[base..base + self.ways];
        let victim = block[block.len() - 1];
        let kept = len.min(block.len() - 1);
        if kept > 0 {
            block.copy_within(..kept, 1);
        }
        block[0] = line << 1 | dirty as u64;
        if len == self.ways {
            return (victim & 1 == 1).then_some(victim >> 1);
        }
        self.len[set] += 1;
        None
    }

    /// Removes `line`; returns whether it was present and dirty.
    #[inline]
    fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let Some(pos) = self.find(set, line) else {
            return false;
        };
        let (base, len) = self.locate(set);
        let block = &mut self.slab[base..base + len];
        let dirty = block[pos] & 1 == 1;
        if pos + 1 < len {
            block.copy_within(pos + 1.., pos);
        }
        self.len[set] -= 1;
        dirty
    }
}

/// Hit/miss counts per level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses (DRAM accesses).
    pub llc_misses: u64,
    /// clflush operations executed.
    pub flushes: u64,
}

/// A private cache hierarchy for one core.
///
/// # Examples
///
/// ```
/// use lh_sim::{CacheConfig, CacheHierarchy};
///
/// let mut c = CacheHierarchy::new(CacheConfig::paper_default());
/// assert!(c.access(0x1000, false).hit_latency.is_none()); // cold miss
/// c.fill(0x1000, false);
/// assert!(c.access(0x1000, false).hit_latency.is_some()); // now a hit
/// c.flush(0x1000);
/// assert!(c.access(0x1000, false).hit_latency.is_none()); // flushed
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Level,
    l2: Option<Level>,
    llc: Level,
    flushes: u64,
}

impl CacheHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// If a level has 0 ways or more than 255 (a set's occupancy is a
    /// `u8`).
    pub fn new(config: CacheConfig) -> CacheHierarchy {
        CacheHierarchy {
            l1: Level::new(config.l1, "L1"),
            l2: config.l2.map(|l2| Level::new(l2, "L2")),
            llc: Level::new(config.llc, "LLC"),
            flushes: 0,
        }
    }

    fn line_of(addr: u64) -> u64 {
        addr / LINE_BYTES
    }

    /// Performs a demand access. On a hit, returns the hit level's
    /// latency; on a full miss returns `None` (caller fetches from DRAM
    /// and calls [`CacheHierarchy::fill`] at completion).
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        let line = Self::line_of(addr);
        if self.l1.access(line, write) {
            return CacheAccess {
                hit_latency: Some(self.l1.config.hit_latency),
                writeback: None,
            };
        }
        if let Some(l2) = &mut self.l2 {
            if l2.access(line, write) {
                // Promote into L1.
                let wb = self.l1.fill(line, write);
                return CacheAccess {
                    hit_latency: Some(l2.config.hit_latency),
                    writeback: wb.map(|l| l * LINE_BYTES),
                };
            }
        }
        if self.llc.access(line, write) {
            let mut wb = self.l1.fill(line, write);
            if let Some(l2) = &mut self.l2 {
                let wb2 = l2.fill(line, false);
                wb = wb.or(wb2);
            }
            return CacheAccess {
                hit_latency: Some(self.llc.config.hit_latency),
                writeback: wb.map(|l| l * LINE_BYTES),
            };
        }
        CacheAccess {
            hit_latency: None,
            writeback: None,
        }
    }

    /// Inserts a line fetched from memory into every level; returns dirty
    /// evictions (as byte addresses) that must be written back.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Vec<u64> {
        let line = Self::line_of(addr);
        let mut wbs = Vec::new();
        if let Some(v) = self.l1.fill(line, dirty) {
            wbs.push(v * LINE_BYTES);
        }
        if let Some(l2) = &mut self.l2 {
            if let Some(v) = l2.fill(line, false) {
                wbs.push(v * LINE_BYTES);
            }
        }
        if let Some(v) = self.llc.fill(line, false) {
            wbs.push(v * LINE_BYTES);
        }
        wbs
    }

    /// Inserts a prefetched line into the levels below L1 (prefetches do
    /// not pollute the L1); returns dirty evictions.
    pub fn fill_prefetch(&mut self, addr: u64) -> Vec<u64> {
        let line = Self::line_of(addr);
        let mut wbs = Vec::new();
        if let Some(l2) = &mut self.l2 {
            if let Some(v) = l2.fill(line, false) {
                wbs.push(v * LINE_BYTES);
            }
        }
        if let Some(v) = self.llc.fill(line, false) {
            wbs.push(v * LINE_BYTES);
        }
        wbs
    }

    /// Whether `addr`'s line is present in any level (no LRU side effect).
    pub fn contains(&self, addr: u64) -> bool {
        let line = Self::line_of(addr);
        self.l1.probe(line)
            || self.l2.as_ref().is_some_and(|l2| l2.probe(line))
            || self.llc.probe(line)
    }

    /// `clflush`: invalidates the line everywhere; returns `true` if a
    /// dirty copy existed (the caller must issue a memory writeback).
    pub fn flush(&mut self, addr: u64) -> bool {
        self.flushes += 1;
        let line = Self::line_of(addr);
        let mut dirty = self.l1.invalidate(line);
        if let Some(l2) = &mut self.l2 {
            dirty |= l2.invalidate(line);
        }
        dirty | self.llc.invalidate(line)
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            l1_hits: self.l1.hits,
            l1_misses: self.l1.misses,
            l2_hits: self.l2.as_ref().map_or(0, |l| l.hits),
            l2_misses: self.l2.as_ref().map_or(0, |l| l.misses),
            llc_hits: self.llc.hits,
            llc_misses: self.llc.misses,
            flushes: self.flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig {
            l1: CacheLevelConfig {
                capacity: 512,
                ways: 2,
                hit_latency: Span::from_ns(1),
            },
            l2: None,
            llc: CacheLevelConfig {
                capacity: 2048,
                ways: 4,
                hit_latency: Span::from_ns(12),
            },
        }
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = CacheHierarchy::new(small());
        assert!(c.access(0x0, false).hit_latency.is_none());
        c.fill(0x0, false);
        let a = c.access(0x0, false);
        assert_eq!(a.hit_latency, Some(Span::from_ns(1)));
    }

    #[test]
    fn l1_eviction_falls_back_to_llc() {
        let mut c = CacheHierarchy::new(small());
        // L1: 512 B / 2 ways → 4 sets; lines mapping to set 0: 0, 4, 8...
        for line in [0u64, 4, 8] {
            c.fill(line * 64, false);
        }
        // Line 0 evicted from L1 (2 ways), but still in LLC (4 ways/set,
        // LLC has 8 sets so they spread differently).
        let a = c.access(0, false);
        assert_eq!(a.hit_latency, Some(Span::from_ns(12)), "LLC hit expected");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = CacheHierarchy::new(small());
        // Fill set 0 of the LLC (8 sets, 4 ways): lines 0,8,16,24,32 — the
        // fifth fill evicts line 0. Mark line 0 dirty everywhere.
        c.fill(0, true);
        let mut wb_seen = false;
        for line in [8u64, 16, 24, 32] {
            // Flushing from L1 first keeps only the LLC copy... just fill
            // and collect writebacks.
            let wbs = c.fill(line * 64, false);
            wb_seen |= wbs.contains(&0);
        }
        // The dirty line 0 must eventually be written back from L1 or LLC.
        assert!(
            wb_seen || c.contains(0),
            "dirty line lost without writeback"
        );
    }

    #[test]
    fn flush_removes_from_all_levels_and_reports_dirty() {
        let mut c = CacheHierarchy::new(small());
        c.fill(0x40, false);
        c.access(0x40, true); // dirty in L1
        assert!(c.flush(0x40), "flush of dirty line reports dirty");
        assert!(!c.contains(0x40));
        assert!(!c.flush(0x40), "second flush is clean");
    }

    #[test]
    fn repeated_flush_access_always_misses() {
        // The attack-loop invariant: flush+load never hits in cache.
        let mut c = CacheHierarchy::new(CacheConfig::paper_default());
        for _ in 0..100 {
            c.flush(0x1234_0000);
            assert!(c.access(0x1234_0000, false).hit_latency.is_none());
            c.fill(0x1234_0000, false);
        }
        assert_eq!(c.stats().l1_misses, 100);
    }

    #[test]
    fn prefetch_fill_skips_l1() {
        let mut c = CacheHierarchy::new(CacheConfig::large_hierarchy());
        c.fill_prefetch(0x2000);
        // L1 miss but L2 hit.
        let a = c.access(0x2000, false);
        assert_eq!(a.hit_latency, Some(Span::from_ns(4)));
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = CacheHierarchy::new(small());
        // Two lines in one L1 set (2 ways): 0 and 4. Touch 0, insert 8:
        // 4 must be the victim, 0 stays.
        c.fill(0, false);
        c.fill(4 * 64, false);
        c.access(0, false);
        c.fill(8 * 64, false);
        assert!(c.access(0, false).hit_latency == Some(Span::from_ns(1)));
    }

    #[test]
    fn stats_count_one_flush_per_call() {
        let mut c = CacheHierarchy::new(small());
        c.fill(0x40, true);
        c.flush(0x40);
        c.flush(0x40); // absent: still a clflush executed
        c.flush(0x80);
        assert_eq!(c.stats().flushes, 3);
    }

    #[test]
    fn flushed_set_reuses_its_block() {
        let mut c = CacheHierarchy::new(small());
        for _ in 0..10 {
            c.fill(0x40, false);
            c.flush(0x40);
        }
        assert_eq!(c.l1.slab.len(), 2, "one 2-way L1 block, reused");
        assert_eq!(c.llc.slab.len(), 4, "one 4-way LLC block, reused");
    }

    #[test]
    #[should_panic(expected = "LLC: a cache level needs at least one way")]
    fn zero_ways_is_rejected() {
        let mut cfg = small();
        cfg.llc.ways = 0;
        CacheHierarchy::new(cfg);
    }

    #[test]
    #[should_panic(expected = "L1: 256 ways exceed the model's limit of 255")]
    fn more_than_255_ways_is_rejected() {
        let mut cfg = small();
        cfg.l1 = CacheLevelConfig {
            capacity: 256 * 64,
            ways: 256,
            hit_latency: Span::from_ns(1),
        };
        CacheHierarchy::new(cfg);
    }

    #[test]
    fn paper_configs_have_expected_shape() {
        let d = CacheConfig::paper_default();
        assert_eq!(d.l1.sets(), 64);
        assert!(d.l2.is_none());
        assert_eq!(d.llc.sets(), 4096);
        let l = CacheConfig::large_hierarchy();
        assert_eq!(l.l2.unwrap().sets(), 512);
        assert_eq!(l.llc.capacity, 6 * 1024 * 1024);
    }
}
