//! The Fig. 13 performance study: weighted speedup of PRAC, PRFM,
//! PRAC-RIAC, FR-RFM and PRAC-Bank over RowHammer thresholds
//! 1024 → 64, normalized to a system with no mitigation.

use std::sync::Arc;

use lh_analysis::{mean, normalized_ws, weighted_speedup, AppPerf};
use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{Span, Time};
use lh_memctrl::AddressMapping;
use lh_sim::{ProcId, SimConfig, SystemBuilder};
use lh_workloads::{four_core_mixes, SharedTrace, TraceReplay};

use crate::Scale;

/// The paper's swept RowHammer thresholds.
pub const NRH_SWEEP: [u32; 5] = [1024, 512, 256, 128, 64];

/// One (defense, NRH) cell of Fig. 13.
#[derive(Debug, Clone, Copy)]
pub struct PerfPoint {
    /// The defense.
    pub defense: DefenseKind,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Mean normalized weighted speedup over the workload mixes
    /// (1.0 = no overhead).
    pub normalized_ws: f64,
}

/// The Fig. 13 dataset.
#[derive(Debug, Clone)]
pub struct PerfStudy {
    /// All measured cells.
    pub points: Vec<PerfPoint>,
    /// Number of four-core mixes averaged.
    pub mixes: usize,
}

/// Decodes the shared access trace of one four-core mix: profile `i`
/// replays on the stream seeded `sim_seed ^ (i * 31)` — the exact
/// per-app seed derivation every simulation of this mix uses, so one
/// decode serves the alone runs, the no-defense mix and every
/// `(defense, nrh)` cell.
///
/// `counted` selects [`SharedTrace::decode`] (one `sim.trace.decodes`
/// tick, for the path that owns the trace) versus
/// [`SharedTrace::decode_uncounted`] (for memo-fallback re-decodes
/// whose per-unit counter attribution must not depend on which process
/// got the memo hit — the pinned envelope snapshots carry no decode
/// counter, and must stay byte-identical across execution modes).
pub fn decode_mix_trace(
    mix_index: usize,
    mixes_seed: u64,
    sim_seed: u64,
    scale: Scale,
    counted: bool,
) -> Arc<SharedTrace> {
    let mixes = four_core_mixes(scale.mixes(), mixes_seed);
    let profiles = mixes[mix_index].to_vec();
    let cfg = SimConfig::paper_default(DefenseConfig::none());
    let mapping = AddressMapping::new(cfg.mapping, cfg.device.geometry);
    let seeds: Vec<u64> = (0..profiles.len())
        .map(|i| sim_seed ^ (i as u64 * 31))
        .collect();
    if counted {
        SharedTrace::decode(profiles, mapping, &seeds)
    } else {
        SharedTrace::decode_uncounted(profiles, mapping, &seeds)
    }
}

/// Runs one performance lane per `(defense, cores)` entry on `trace`,
/// the trace cores `cores` replaying under `defense` for the scale's
/// span, and returns each lane's per-app performance in entry order.
/// Performance runs do not need disturb ground truth; skipping it
/// speeds the sweep up considerably.
fn run_perf_lanes(
    trace: &Arc<SharedTrace>,
    sim_seed: u64,
    scale: Scale,
    lanes: &[(DefenseConfig, Vec<usize>)],
) -> Vec<Vec<AppPerf>> {
    let span = Span::from_us(scale.perf_span_us());
    let end = Time::ZERO + span;
    lh_sim::run_lanes(lanes.len(), |i| {
        let (defense, cores) = &lanes[i];
        let mut sys = SystemBuilder::new(defense.clone())
            .seed(sim_seed)
            .disturb_tracking(false)
            .build()
            .expect("valid configuration");
        let pids: Vec<ProcId> = cores
            .iter()
            .map(|&core| {
                let replay = TraceReplay::new(Arc::clone(trace), core, end);
                let mlp = replay.mlp();
                sys.add_process(Box::new(replay), mlp, Time::ZERO)
            })
            .collect();
        sys.run_until(end + Span::from_us(5));
        pids.iter()
            .map(|&pid| AppPerf {
                instructions: sys
                    .process_as::<TraceReplay>(pid)
                    .expect("replay present")
                    .instructions(),
                seconds: span.as_secs(),
            })
            .collect()
    })
}

/// One mix's defense-independent intermediates, shared by every
/// `(defense, nrh)` cell of that mix: the alone-run baselines and the
/// no-defense weighted speedup everything is normalized to.
#[derive(Debug, Clone)]
pub struct MixBaseline {
    /// Per-app alone (no defense, no co-runners) performance.
    pub alone: Vec<AppPerf>,
    /// Weighted speedup of the shared no-defense run.
    pub base_ws: f64,
}

/// Runs one mix's baseline simulations on a shared decoded `trace`:
/// the mix under no defense plus each app alone (no defense, no
/// co-runners) — five lanes, the shared mix, the longest, first.
pub fn run_perf_baseline_on(trace: &Arc<SharedTrace>, sim_seed: u64, scale: Scale) -> MixBaseline {
    let all: Vec<usize> = (0..trace.cores()).collect();
    let lanes: Vec<(DefenseConfig, Vec<usize>)> = std::iter::once(all)
        .chain((0..trace.cores()).map(|core| vec![core]))
        .map(|cores| (DefenseConfig::none(), cores))
        .collect();
    let mut perf = run_perf_lanes(trace, sim_seed, scale, &lanes);
    let shared = perf.remove(0);
    let alone: Vec<AppPerf> = perf.into_iter().map(|solo| solo[0]).collect();
    let base_ws = weighted_speedup(&shared, &alone);
    MixBaseline { alone, base_ws }
}

/// Runs a batch of `(defense, nrh)` cells of one mix on a shared
/// decoded `trace` — one lane per cell — against a precomputed
/// [`MixBaseline`]. `sim_seed` must equal the baseline's: the alone and
/// defended runs of a mix share one simulation seed.
pub fn run_perf_cells_on(
    trace: &Arc<SharedTrace>,
    sim_seed: u64,
    cells: &[(DefenseKind, u32)],
    baseline: &MixBaseline,
    scale: Scale,
) -> Vec<PerfPoint> {
    let timing = lh_dram::DramTiming::ddr5_4800();
    let all: Vec<usize> = (0..trace.cores()).collect();
    let lanes: Vec<(DefenseConfig, Vec<usize>)> = cells
        .iter()
        .map(|&(defense, nrh)| {
            let cfg = DefenseConfig::for_threshold(defense, nrh, &timing);
            (cfg, all.clone())
        })
        .collect();
    let perf = run_perf_lanes(trace, sim_seed, scale, &lanes);
    cells
        .iter()
        .zip(perf)
        .map(|(&(defense, nrh), shared)| {
            let ws = weighted_speedup(&shared, &baseline.alone);
            PerfPoint {
                defense,
                nrh,
                normalized_ws: normalized_ws(ws, baseline.base_ws),
            }
        })
        .collect()
}

/// Runs one `(mix, defense, nrh)` cell against a precomputed
/// [`MixBaseline`], decoding the trace itself. The mix list is derived
/// from `mixes_seed` (the study's master seed) while the simulation
/// runs on `sim_seed`, which must equal the baseline's. Callers that
/// hold a memoized trace use [`run_perf_cells_on`] directly.
pub fn run_perf_cell(
    mix_index: usize,
    mixes_seed: u64,
    sim_seed: u64,
    defense: DefenseKind,
    nrh: u32,
    baseline: &MixBaseline,
    scale: Scale,
) -> PerfPoint {
    let trace = decode_mix_trace(mix_index, mixes_seed, sim_seed, scale, false);
    run_perf_cells_on(&trace, sim_seed, &[(defense, nrh)], baseline, scale)
        .pop()
        .expect("one cell in, one point out")
}

/// Averages per-mix cell values (one [`run_perf_cells_on`] result per
/// mix, all over the same cell list) into the Fig. 13 study.
pub fn merge_perf_mixes(per_mix: &[Vec<PerfPoint>]) -> PerfStudy {
    let mixes = per_mix.len();
    let cells = per_mix.first().map_or(0, Vec::len);
    let points = (0..cells)
        .map(|c| {
            let values: Vec<f64> = per_mix.iter().map(|m| m[c].normalized_ws).collect();
            PerfPoint {
                normalized_ws: mean(&values),
                ..per_mix[0][c]
            }
        })
        .collect();
    PerfStudy { points, mixes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-scale study over `defenses` × `nrh_values`: every mix
    /// on its own simulation seed, merged.
    fn study(defenses: &[DefenseKind], nrh_values: &[u32], seed: u64) -> PerfStudy {
        let scale = Scale::Quick;
        let cells: Vec<(DefenseKind, u32)> = defenses
            .iter()
            .flat_map(|&d| nrh_values.iter().map(move |&n| (d, n)))
            .collect();
        let per_mix: Vec<Vec<PerfPoint>> = (0..scale.mixes())
            .map(|m| {
                let sim_seed = seed ^ (m as u64) << 16;
                let trace = decode_mix_trace(m, seed, sim_seed, scale, true);
                let baseline = run_perf_baseline_on(&trace, sim_seed, scale);
                run_perf_cells_on(&trace, sim_seed, &cells, &baseline, scale)
            })
            .collect();
        merge_perf_mixes(&per_mix)
    }

    fn cell(study: &PerfStudy, defense: DefenseKind, nrh: u32) -> f64 {
        study
            .points
            .iter()
            .find(|p| p.defense == defense && p.nrh == nrh)
            .expect("cell measured")
            .normalized_ws
    }

    #[test]
    fn defenses_cost_little_at_high_nrh_and_a_lot_at_low_nrh() {
        let study = study(&[DefenseKind::Prac, DefenseKind::FrRfm], &[1024, 64], 3);
        let prac_high = cell(&study, DefenseKind::Prac, 1024);
        let frrfm_high = cell(&study, DefenseKind::FrRfm, 1024);
        let frrfm_low = cell(&study, DefenseKind::FrRfm, 64);
        // At NRH=1024 both defenses are cheap (>80 % of baseline).
        assert!(prac_high > 0.8, "PRAC@1024 {prac_high}");
        assert!(frrfm_high > 0.75, "FR-RFM@1024 {frrfm_high}");
        // At NRH=64 FR-RFM collapses (paper: ~0.06× baseline).
        assert!(frrfm_low < 0.5, "FR-RFM@64 {frrfm_low}");
        assert!(frrfm_low < frrfm_high, "overhead must grow as NRH shrinks");
    }

    #[test]
    fn riac_beats_fr_rfm_at_very_low_nrh() {
        let study = study(&[DefenseKind::PracRiac, DefenseKind::FrRfm], &[64], 5);
        let riac = cell(&study, DefenseKind::PracRiac, 64);
        let frrfm = cell(&study, DefenseKind::FrRfm, 64);
        assert!(
            riac > frrfm,
            "§11.4: RIAC ({riac}) must outperform FR-RFM ({frrfm}) at NRH=64"
        );
    }

    #[test]
    fn prac_bank_tracks_prac() {
        let study = study(&[DefenseKind::Prac, DefenseKind::PracBank], &[256], 7);
        let prac = cell(&study, DefenseKind::Prac, 256);
        let bank = cell(&study, DefenseKind::PracBank, 256);
        // §11.4: PRAC-Bank performs within a few percent of PRAC.
        assert!(
            (prac - bank).abs() < 0.08,
            "PRAC {prac} vs PRAC-Bank {bank} must be close"
        );
    }
}
