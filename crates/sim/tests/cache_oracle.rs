//! The slab-backed cache model checked against a reference model: the
//! Vec-per-set `Level` the simulator used before, kept here verbatim.
//! Random `access`/`fill`/`fill_prefetch`/`flush`/`contains` streams over
//! small geometries (1, 2, 4 and 16 ways; one set and many) must give
//! the same return value at every step and the same `stats()` at the end.

use proptest::prelude::*;

use lh_dram::{Span, LINE_BYTES};
use lh_sim::{CacheAccess, CacheConfig, CacheHierarchy, CacheLevelConfig, CacheStats};

/// The reference model: one recency-ordered `Vec` per set.
mod reference {
    use super::*;

    /// One cache level: per-set recency-ordered (front = MRU) tag lists.
    #[derive(Debug, Clone)]
    struct Level {
        config: CacheLevelConfig,
        /// `sets[i]` holds `(tag, dirty)` in recency order.
        sets: Vec<Vec<(u64, bool)>>,
        hits: u64,
        misses: u64,
    }

    impl Level {
        fn new(config: CacheLevelConfig) -> Level {
            Level {
                config,
                sets: vec![Vec::new(); config.sets()],
                hits: 0,
                misses: 0,
            }
        }

        fn set_of(&self, line: u64) -> usize {
            (line % self.sets.len() as u64) as usize
        }

        /// Looks up `line`; on hit, refreshes LRU and ORs `mark_dirty`.
        fn access(&mut self, line: u64, mark_dirty: bool) -> bool {
            let set = self.set_of(line);
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&(t, _)| t == line) {
                let (tag, dirty) = ways.remove(pos);
                ways.insert(0, (tag, dirty || mark_dirty));
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        /// Checks presence without touching LRU or stats.
        fn probe(&self, line: u64) -> bool {
            let set = self.set_of(line);
            self.sets[set].iter().any(|&(t, _)| t == line)
        }

        /// Inserts `line`; returns an evicted dirty line if any.
        fn fill(&mut self, line: u64, dirty: bool) -> Option<u64> {
            let ways_cap = self.config.ways as usize;
            let set = self.set_of(line);
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&(t, _)| t == line) {
                let (tag, was_dirty) = ways.remove(pos);
                ways.insert(0, (tag, was_dirty || dirty));
                return None;
            }
            ways.insert(0, (line, dirty));
            if ways.len() > ways_cap {
                let (victim, victim_dirty) = ways.pop().expect("overfull set");
                return victim_dirty.then_some(victim);
            }
            None
        }

        /// Removes `line`; returns whether it was present and dirty.
        fn invalidate(&mut self, line: u64) -> bool {
            let set = self.set_of(line);
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&(t, _)| t == line) {
                let (_, dirty) = ways.remove(pos);
                dirty
            } else {
                false
            }
        }
    }

    /// `CacheHierarchy` over the reference levels.
    pub struct Hierarchy {
        l1: Level,
        l2: Option<Level>,
        llc: Level,
        flushes: u64,
    }

    impl Hierarchy {
        pub fn new(config: CacheConfig) -> Hierarchy {
            Hierarchy {
                l1: Level::new(config.l1),
                l2: config.l2.map(Level::new),
                llc: Level::new(config.llc),
                flushes: 0,
            }
        }

        fn line_of(addr: u64) -> u64 {
            addr / LINE_BYTES
        }

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

        pub fn contains(&self, addr: u64) -> bool {
            let line = Self::line_of(addr);
            self.l1.probe(line)
                || self.l2.as_ref().is_some_and(|l2| l2.probe(line))
                || self.llc.probe(line)
        }

        pub fn flush(&mut self, addr: u64) -> bool {
            self.flushes += 1;
            let line = Self::line_of(addr);
            let mut dirty = self.l1.invalidate(line);
            if let Some(l2) = &mut self.l2 {
                dirty |= l2.invalidate(line);
            }
            dirty | self.llc.invalidate(line)
        }

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
}

const WAYS: [u32; 4] = [1, 2, 4, 16];
/// One set, a non-power-of-two count and a larger power of two.
const SETS: [u64; 3] = [1, 6, 32];

/// A level of `WAYS[w]` ways and `SETS[s]` sets.
fn level(w: usize, s: usize, latency_ns: u64) -> CacheLevelConfig {
    let ways = WAYS[w];
    CacheLevelConfig {
        capacity: SETS[s] * ways as u64 * LINE_BYTES,
        ways,
        hit_latency: Span::from_ns(latency_ns),
    }
}

/// `(l1, l2, llc)` as `(ways index, sets index)`; `l2.0 == 4` is no L2.
fn geometry() -> impl Strategy<Value = CacheConfig> {
    (
        (0usize..4, 0usize..3),
        (0usize..5, 0usize..3),
        (0usize..4, 0usize..3),
    )
        .prop_map(|((l1w, l1s), (l2w, l2s), (llcw, llcs))| CacheConfig {
            l1: level(l1w, l1s, 1),
            l2: (l2w < 4).then(|| level(l2w, l2s, 4)),
            llc: level(llcw, llcs, 12),
        })
}

/// `(operation, line seed, byte offset, flag)`.
fn ops() -> impl Strategy<Value = Vec<(u8, u64, u64, bool)>> {
    proptest::collection::vec(
        (0u8..5, 0u64..1 << 16, 0u64..LINE_BYTES, any::<bool>()),
        1..400,
    )
}

/// Applies one operation to both models; returns its name and the two
/// results, formatted.
fn step(
    model: &mut CacheHierarchy,
    oracle: &mut reference::Hierarchy,
    op: u8,
    addr: u64,
    flag: bool,
) -> (&'static str, String, String) {
    match op {
        0 => (
            "access",
            format!("{:?}", model.access(addr, flag)),
            format!("{:?}", oracle.access(addr, flag)),
        ),
        1 => (
            "fill",
            format!("{:?}", model.fill(addr, flag)),
            format!("{:?}", oracle.fill(addr, flag)),
        ),
        2 => (
            "fill_prefetch",
            format!("{:?}", model.fill_prefetch(addr)),
            format!("{:?}", oracle.fill_prefetch(addr)),
        ),
        3 => (
            "flush",
            format!("{:?}", model.flush(addr)),
            format!("{:?}", oracle.flush(addr)),
        ),
        _ => (
            "contains",
            format!("{:?}", model.contains(addr)),
            format!("{:?}", oracle.contains(addr)),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every return value and the final `stats()` equal the reference
    /// model's. Lines are drawn from twice the largest level's capacity
    /// so sets fill, evict dirty victims and empty again under `clflush`.
    #[test]
    fn slab_levels_match_the_vec_per_set_reference(cfg in geometry(), stream in ops()) {
        let lines = 2 * [Some(cfg.l1), cfg.l2, Some(cfg.llc)]
            .iter()
            .flatten()
            .map(|l| l.capacity / LINE_BYTES)
            .max()
            .unwrap_or(1)
            + 3;
        let mut model = CacheHierarchy::new(cfg);
        let mut oracle = reference::Hierarchy::new(cfg);
        for (i, &(op, seed, offset, flag)) in stream.iter().enumerate() {
            let addr = (seed % lines) * LINE_BYTES + offset;
            let (name, got, want) = step(&mut model, &mut oracle, op, addr, flag);
            prop_assert_eq!(&got, &want, "{name} #{i} at {addr:#x} under {cfg:?}: {got} != {want}");
        }
        prop_assert_eq!(model.stats(), oracle.stats(), "stats under {cfg:?}");
    }
}
