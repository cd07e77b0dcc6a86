//! Memory footprint of the cache model and the sketch trackers, counted
//! by a global allocator that tracks the live heap bytes of each thread.
//!
//! A set costs five bytes until its first fill (see `cache.rs`); the
//! Vec-per-set layout it replaced spent a 24-byte `Vec` header on every
//! set at construction (≈ 100 KiB per Table 1 hierarchy) and grew every
//! full set to 32 slots. Either regression turns these tests red.
//!
//! A CoMeT or BlockHammer sketch stores only the cells activations have
//! touched; the dense arrays it replaced cost 128 MiB (CoMeT) and
//! 512 MiB (BlockHammer) per 64-bank system at N_RH = 128.

use std::alloc::{GlobalAlloc, Layout, System as Malloc};
use std::cell::Cell;
use std::sync::Arc;

use lh_defenses::{build_defense, DefenseConfig, DefenseKind};
use lh_dram::{DramTiming, Geometry, Span, Time};
use lh_sim::{run_lanes, CacheConfig, CacheHierarchy, SimConfig, SystemBuilder};
use lh_workloads::{four_core_mixes, SharedTrace, TraceReplay};

/// Counts the current thread's live heap bytes and their high-water
/// mark. Per-thread, so tests running side by side do not see each
/// other. A block freed on another thread than the one that allocated it
/// moves both threads' counts (hence signed), which the measured code
/// never does.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as isize));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so `Counting` upholds exactly the `GlobalAlloc` contract
// `Malloc` does. The bookkeeping only touches `const`-initialised
// thread-local `Cell`s, which neither allocate nor register destructors,
// and `try_with` skips it during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        Malloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        Malloc.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        Malloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        Malloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result and the peak of live heap bytes it
/// added on this thread.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

#[test]
fn paper_default_hierarchy_allocates_at_most_24_kib() {
    let (cache, bytes) = peak_of(|| CacheHierarchy::new(CacheConfig::paper_default()));
    // 4 096 LLC sets + 64 L1 sets at five bytes each: 20 800 B.
    assert!(
        bytes <= 24 * 1024,
        "CacheHierarchy::new allocated {bytes} B"
    );
    drop(cache);
}

/// Peak heap of one 4-core fig13 lane over a fresh shared trace:
/// measured at 1 143 042 B, plus a 20 % margin. About 0.8 MB of it is
/// the trace's memoized steps, which the first lane to replay them
/// generates; the system itself peaks near 0.33 MB. The Vec-per-set
/// layout read 1 764 306 B.
const LANE_BUDGET: usize = 1_375_000;

/// The shared trace of mix 0 of the quick study at seed 1.
fn quick_mix_trace(seed: u64) -> Arc<SharedTrace> {
    let profiles = four_core_mixes(2, seed)[0].to_vec();
    let cfg = SimConfig::paper_default(DefenseConfig::none());
    let mapping = lh_memctrl::AddressMapping::new(cfg.mapping, cfg.device.geometry);
    let seeds: Vec<u64> = (0..4).map(|i| seed ^ (i * 31)).collect();
    SharedTrace::decode_uncounted(profiles, mapping, &seeds)
}

/// One fig13 lane over the quick horizon (150 µs of replay plus the
/// 5 µs drain fig13 allows): the four cores of `trace` under `defense`
/// at `nrh`. Returns the instructions each core retired.
fn fig13_lane(trace: &Arc<SharedTrace>, seed: u64, defense: DefenseKind, nrh: u32) -> Vec<u64> {
    let end = Time::ZERO + Span::from_us(150);
    let defense = DefenseConfig::for_threshold(defense, nrh, &DramTiming::ddr5_4800());
    let mut sys = SystemBuilder::new(defense)
        .seed(seed)
        .disturb_tracking(false)
        .build()
        .expect("valid configuration");
    let pids: Vec<_> = (0..4)
        .map(|core| {
            let replay = TraceReplay::new(Arc::clone(trace), core, end);
            let mlp = replay.mlp();
            sys.add_process(Box::new(replay), mlp, Time::ZERO)
        })
        .collect();
    sys.run_until(end + Span::from_us(5));
    pids.iter()
        .map(|&pid| {
            sys.process_as::<TraceReplay>(pid)
                .expect("replay present")
                .instructions()
        })
        .collect()
}

#[test]
fn four_core_fig13_lane_stays_in_budget() {
    // Mix 0 of the quick study, PRAC at N_RH = 256.
    let trace = quick_mix_trace(1);
    let (_, bytes) = peak_of(|| run_lanes(1, |_| fig13_lane(&trace, 1, DefenseKind::Prac, 256)));
    assert!(
        bytes <= LANE_BUDGET,
        "a 4-core fig13 lane peaked at {bytes} B"
    );
}

/// A batch holds one system per worker: the calling thread's heap
/// during a 25-lane fig13 batch (fig13's five defenses over its five
/// thresholds) peaks at one lane's budget plus the results, not at the
/// 25 systems an engine that builds every lane up front would hold
/// (6 679 018 B when every lane was built on the caller).
#[test]
fn fig13_batch_holds_one_system_per_worker() {
    let defenses = [
        DefenseKind::Prac,
        DefenseKind::Prfm,
        DefenseKind::PracRiac,
        DefenseKind::FrRfm,
        DefenseKind::PracBank,
    ];
    let cells: Vec<(DefenseKind, u32)> = defenses
        .iter()
        .flat_map(|&d| [1024, 512, 256, 128, 64].map(|nrh| (d, nrh)))
        .collect();
    let trace = quick_mix_trace(1);
    let (results, bytes) = peak_of(|| {
        run_lanes(cells.len(), |i| {
            let (defense, nrh) = cells[i];
            fig13_lane(&trace, 1, defense, nrh)
        })
    });
    // The result vectors, the slot table and the caller's share of the
    // lanes' `Metrics` maps, which it re-emits: well under 64 KiB.
    let results_budget = 64 * 1024;
    assert_eq!(results.len(), cells.len());
    assert!(
        bytes <= LANE_BUDGET + results_budget,
        "the calling thread peaked at {bytes} B during a 25-lane batch"
    );
}

/// What a sketch-tracker defense may add to a system's peak heap over
/// [`DefenseConfig::none`].
const SKETCH_BUDGET: usize = 64 * 1024;

/// The two count-min-sketch defenses at N_RH = 128.
fn sketch_defenses() -> [DefenseConfig; 2] {
    let timing = DramTiming::ddr5_4800();
    [DefenseKind::Comet, DefenseKind::BlockHammer]
        .map(|kind| DefenseConfig::for_threshold(kind, 128, &timing))
}

#[test]
fn sketch_defense_systems_build_within_64_kib_of_none() {
    let build = |defense: &DefenseConfig| {
        let (sys, bytes) = peak_of(|| {
            SystemBuilder::new(defense.clone())
                .seed(1)
                .build()
                .expect("valid configuration")
        });
        drop(sys);
        bytes
    };
    let none = build(&DefenseConfig::none());
    for defense in sketch_defenses() {
        let bytes = build(&defense);
        assert!(
            bytes <= none + SKETCH_BUDGET,
            "{:?} system peaked at {bytes} B, none at {none} B",
            defense.kind()
        );
    }
}

/// A few hundred activations through the defense the controller builds
/// — double-sided pairs in eight banks, across CoMeT's epoch and three
/// of BlockHammer's windows — touch a few hundred cells, not the sketch.
#[test]
fn sketch_defenses_grow_with_the_cells_activations_touch() {
    let geometry = Geometry::paper_default();
    let banks: Vec<_> = geometry.banks_in_channel(0).step_by(8).collect();
    for config in sketch_defenses() {
        let (stats, bytes) = peak_of(|| {
            let mut defense = build_defense(&config, &geometry, 1);
            for i in 0..400u32 {
                let bank = banks[i as usize % banks.len()];
                let row = 1000 + 2 * (i / 8 % 2) + 16 * (i % 3);
                let now = Time::ZERO + Span::from_us(150 * u64::from(i));
                defense.on_activate(bank, row, now);
            }
            defense.stats()
        });
        assert!(
            bytes <= SKETCH_BUDGET,
            "{:?} peaked at {bytes} B over 400 activations ({stats:?})",
            config.kind()
        );
    }
}
