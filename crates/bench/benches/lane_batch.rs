//! Lane-batch bench: an 8-lane fig13-shaped batch (one decoded trace,
//! `lh_sim::run_lanes`) against the same eight cells run the pre-lane way —
//! eight sequential single-lane systems, each re-decoding its own
//! trace. A plain `main` on `std::time::Instant` (`cargo bench -p
//! lh-bench --bench lane_batch`): it first asserts the two sides
//! simulated the same thing, then times each and prints the ratio.
//!
//! Both sides simulate the identical eight `(defense, NRH)` cells of
//! one quick-scale four-core mix, so the printed `speedup` line is the
//! honest per-sweep win. Measured on the development container (2
//! vCPUs, a noisy neighbour; minimum of ten samples per side):
//!
//! | commit | `sequential_8x1_quick` | `lane_batch_8_quick` | speedup |
//! |---|---|---|---|
//! | PR 8 – PR 11 (per-entry FR-FCFS scans, per-rank legality memo) | 534 ms | 313 ms | ≈ 1.7× |
//! | PR 13 (per-bank candidate table, `controller/batch.rs`) | 526 ms | 228 ms | ≈ 2.3× |
//! | PR 14 (every `System` on the batched controller service) | 311 ms | 207 ms | ≈ 1.5× |
//! | lanes on every core (two workers: the caller and one helper) | 222 ms | 144 ms | ≈ 1.5× |
//! | whole-lane runs (`run_lanes`: one system per worker, two workers) | 225 ms | 128 ms | ≈ 1.8× |
//!
//! The last two rows are medians of five alternating runs per side,
//! kept in `BENCH_33.json` and `BENCH_34.json`. The single-thread
//! engine before them, timed in the first set of runs, read 201 ms
//! sequential against 215 ms for the batch (≈ 0.95×): on that
//! container one thread of lanes had stopped beating eight solo
//! systems, and the second core wins the ratio back. In the runs of the
//! last row the sliced two-worker engine read 202 ms against 125 ms:
//! the batch side is flat, and the sequential side, which does not use
//! the lane engine, moved with the host.
//!
//! Up to PR 13 the sequential side took the per-entry reference
//! `service` path, so most of the ratio was the controller service, not
//! the lanes. Since PR 14 both sides service the controller the same
//! way and the ratio is the lane engine's own: one shared decode
//! instead of eight, and the cells touching the same trace region
//! while it is cache-warm. The lane side did not move in PR 14 (it was
//! already batched); the sequential side fell by 40 %, which is the
//! saving every solo `System` — the figure experiments — now gets.
//! What bounds both sides is the work every command costs —
//! `DramDevice::issue`, the defense hooks, the sections ahead of the
//! demand stage after each row command — and the per-lane core/cache
//! model, which lanes do not share. `BENCH_13.json` and `BENCH_14.json`
//! at the repo root have the two controller changes measured by the
//! repo benchmark over ten alternating pairs each.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{DramTiming, Span, Time};
use lh_memctrl::AddressMapping;
use lh_sim::{run_lanes, SimConfig, SystemBuilder};
use lh_workloads::{four_core_mixes, AppProfile, SharedTrace, SyntheticApp, TraceReplay};

const SIM_SEED: u64 = 3;
const SPAN_US: u64 = 150; // quick-scale fig13 span

/// Eight fig13-shaped cells: every figure-13 defense, ladder of NRHs.
fn cells() -> [(DefenseKind, u32); 8] {
    [
        (DefenseKind::Prac, 1024),
        (DefenseKind::Prac, 256),
        (DefenseKind::Prfm, 512),
        (DefenseKind::Prfm, 128),
        (DefenseKind::PracRiac, 256),
        (DefenseKind::FrRfm, 512),
        (DefenseKind::FrRfm, 128),
        (DefenseKind::PracBank, 1024),
    ]
}

fn mix() -> Vec<AppProfile> {
    four_core_mixes(2, 1)[0].to_vec()
}

fn defense_cfg(defense: DefenseKind, nrh: u32) -> DefenseConfig {
    DefenseConfig::for_threshold(defense, nrh, &DramTiming::ddr5_4800())
}

/// One cell the pre-lane way: its own system, its own
/// [`SyntheticApp`] decode. Returns total instructions
/// (consumed via `black_box` so nothing is optimized away).
fn run_sequential_cell(mix: &[AppProfile], defense: DefenseKind, nrh: u32) -> u64 {
    let mut sys = SystemBuilder::new(defense_cfg(defense, nrh))
        .seed(SIM_SEED)
        .disturb_tracking(false)
        .build()
        .expect("valid configuration");
    let mapping: AddressMapping = *sys.mapping();
    let end = Time::ZERO + Span::from_us(SPAN_US);
    let mut pids = Vec::new();
    for (i, profile) in mix.iter().enumerate() {
        let app = SyntheticApp::new(profile.clone(), mapping, SIM_SEED ^ (i as u64 * 31), end);
        let mlp = app.mlp();
        pids.push(sys.add_process(Box::new(app), mlp, Time::ZERO));
    }
    sys.run_until(end + Span::from_us(5));
    pids.iter()
        .map(|&pid| {
            sys.process_as::<SyntheticApp>(pid)
                .expect("app present")
                .instructions()
        })
        .sum()
}

fn run_sequential(mix: &[AppProfile]) -> u64 {
    cells()
        .iter()
        .map(|&(d, n)| run_sequential_cell(mix, d, n))
        .sum()
}

/// All eight cells as one lane batch over one decoded trace.
fn run_lane_batch(mix: &[AppProfile]) -> u64 {
    let sim = SimConfig::paper_default(DefenseConfig::none());
    let mapping = AddressMapping::new(sim.mapping, sim.device.geometry);
    let seeds: Vec<u64> = (0..mix.len()).map(|i| SIM_SEED ^ (i as u64 * 31)).collect();
    let trace = SharedTrace::decode(mix.to_vec(), mapping, &seeds);
    let end = Time::ZERO + Span::from_us(SPAN_US);
    let cells = cells();
    let per_lane = run_lanes(cells.len(), |i| {
        let (d, n) = cells[i];
        let mut sys = SystemBuilder::new(defense_cfg(d, n))
            .seed(SIM_SEED)
            .disturb_tracking(false)
            .build()
            .expect("valid configuration");
        let pids: Vec<_> = (0..trace.cores())
            .map(|core| {
                let replay = TraceReplay::new(Arc::clone(&trace), core, end);
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
            .sum::<u64>()
    });
    per_lane.iter().sum()
}

/// Wall-clock samples per side; each side reports its minimum.
const SAMPLES: usize = 10;

fn min_of(side: &str, f: impl Fn() -> u64) -> Duration {
    let best = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .min()
        .expect("at least one sample");
    println!("lane_batch/{side}: min {best:.3?} of {SAMPLES} samples");
    best
}

fn main() {
    let mix = mix();

    // The two sides must agree on what they simulated — the batch is an
    // engine, not an approximation. (This run doubles as the warm-up.)
    assert_eq!(run_sequential(&mix), run_lane_batch(&mix));

    let seq = min_of("sequential_8x1_quick", || run_sequential(&mix));
    let lane = min_of("lane_batch_8_quick", || run_lane_batch(&mix));
    // Advisory; see the module docs for what the ratio measures.
    println!(
        "lane_batch speedup: {:.2}x (sequential {seq:.3?} vs lane batch {lane:.3?})",
        seq.as_secs_f64() / lane.as_secs_f64()
    );
}
