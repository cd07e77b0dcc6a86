//! The Fig. 13 performance study: weighted speedup of PRAC, PRFM,
//! PRAC-RIAC, FR-RFM and PRAC-Bank over RowHammer thresholds
//! 1024 → 64, normalized to a system with no mitigation.
//!
//! ## Cells that replay the undefended run
//!
//! A PRAC-family device asserts ABO only when a row it closes has
//! reached `N_BO` activations. Until then a PRAC or PRAC-Bank system
//! sends the DRAM the undefended system's commands, one for one: the
//! PRAC family shares `DeviceSideDefense` (no controller-side trigger)
//! with no defense, and every other PRAC branch in the device and the
//! controller (the back-off window, the recovery RFMs, the channel or
//! bank stall, the cool-down) runs only after an alert.
//!
//! So the undefended shared run of a mix carries a *certificate*: the
//! highest activation count any row reached
//! ([`lh_dram::RowCounters::max_value`]; the run sends no RFM, so no
//! counter is ever reset and the final maximum is the run's maximum).
//! A zero-initialised PRAC or PRAC-Bank cell whose `N_BO` exceeds the
//! certificate never alerts, by induction over the command stream, so
//! its result *is* the undefended run's: the cell takes that run's
//! per-app instructions and re-emits its captured counters instead of
//! simulating. These cells still simulate:
//!
//! * PRAC-RIAC: its counters start at random values below `N_BO`, so
//!   the certificate bounds nothing;
//! * a cell whose `N_BO` is at or below the certificate;
//! * any cell inside a flight-capture scope, whose event log needs the
//!   commands.
//!
//! The undefended run travels two ways. [`run_perf_baseline_on`] keeps
//! it with the `Arc<SharedTrace>` it ran on, where
//! [`run_perf_cells_on`] on the same `Arc` finds it. The `fig13` job
//! carries it in its baseline unit's result, so a cell unit replays
//! from its dependency in whichever process or cache run it lands.
//! Every replayed cell adds one to `CELLS_REPLAYED` on
//! [`lh_obs::Registry::global`], the process-lifetime channel: no unit's
//! counters or envelope see it.

use std::sync::Arc;

use lh_analysis::{mean, normalized_ws, weighted_speedup, AppPerf};
use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{CounterInit, Span, Time};
use lh_memctrl::AddressMapping;
use lh_obs::Metrics;
use lh_sim::{ProcId, SimConfig, SystemBuilder};
use lh_workloads::{four_core_mixes, SharedTrace, TraceReplay};

use crate::Scale;

/// The paper's swept RowHammer thresholds.
pub const NRH_SWEEP: [u32; 5] = [1024, 512, 256, 128, 64];

/// Process-lifetime count of cells that took the undefended run's
/// result instead of simulating (see the module docs).
pub(crate) const CELLS_REPLAYED: &str = "fig13.cells_replayed";

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
    pub(crate) mixes: usize,
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

/// What one performance lane did: each replayed core's instructions,
/// the highest activation count any row reached, and the counters the
/// lane recorded (captured, not yet emitted).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaneRun {
    pub(crate) instructions: Vec<u64>,
    pub(crate) max_act: u32,
    pub(crate) metrics: Metrics,
}

/// The undefended shared run of one mix, for the cells that replay it
/// (see the module docs). Only a cell on the same simulation seed and
/// scale may replay it.
#[derive(Debug, Clone)]
pub(crate) struct UndefendedRun {
    pub(crate) sim_seed: u64,
    pub(crate) scale: Scale,
    /// The run itself; its `max_act` is the certificate.
    pub(crate) lane: LaneRun,
}

impl UndefendedRun {
    /// Whether a system under `defense` provably sends this run's
    /// commands: a zero-initialised PRAC-family device whose `N_BO` no
    /// row of this run reached.
    pub(crate) fn admits(&self, defense: &DefenseConfig) -> bool {
        defense
            .device_prac()
            .is_some_and(|p| p.counter_init == CounterInit::Zero && p.nbo > self.lane.max_act)
    }
}

/// Per-app performance of the cores that retired `instructions` over
/// the scale's span.
pub(crate) fn app_perf(instructions: &[u64], scale: Scale) -> Vec<AppPerf> {
    let seconds = Span::from_us(scale.perf_span_us()).as_secs();
    instructions
        .iter()
        .map(|&instructions| AppPerf {
            instructions,
            seconds,
        })
        .collect()
}

/// Runs one performance lane per `(defense, cores)` entry on `trace`,
/// the trace cores `cores` replaying under `defense` for the scale's
/// span, and returns the lanes in entry order, their counters captured
/// rather than emitted. Performance runs do not need disturb ground
/// truth; skipping it speeds the sweep up considerably.
fn run_perf_lanes(
    trace: &Arc<SharedTrace>,
    sim_seed: u64,
    scale: Scale,
    lanes: &[(DefenseConfig, Vec<usize>)],
) -> Vec<LaneRun> {
    let span = Span::from_us(scale.perf_span_us());
    let end = Time::ZERO + span;
    lh_sim::run_lanes(lanes.len(), |i| {
        let (defense, cores) = &lanes[i];
        // The system drops, flushing its last counters, inside the
        // scope.
        let ((instructions, max_act), metrics) = lh_obs::record(|| {
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
            let instructions: Vec<u64> = pids
                .iter()
                .map(|&pid| {
                    sys.process_as::<TraceReplay>(pid)
                        .expect("replay present")
                        .instructions()
                })
                .collect();
            (
                instructions,
                sys.controller().device().counters().max_value(),
            )
        });
        LaneRun {
            instructions,
            max_act,
            metrics,
        }
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

/// [`run_perf_baseline_on`], also returning the undefended shared run
/// instead of keeping it with `trace`.
pub(crate) fn run_perf_baseline(
    trace: &Arc<SharedTrace>,
    sim_seed: u64,
    scale: Scale,
) -> (MixBaseline, UndefendedRun) {
    let all: Vec<usize> = (0..trace.cores()).collect();
    let lanes: Vec<(DefenseConfig, Vec<usize>)> = std::iter::once(all)
        .chain((0..trace.cores()).map(|core| vec![core]))
        .map(|cores| (DefenseConfig::none(), cores))
        .collect();
    let mut runs = run_perf_lanes(trace, sim_seed, scale, &lanes);
    runs.iter().for_each(|run| lh_obs::emit(&run.metrics));
    let shared = runs.remove(0);
    let alone: Vec<AppPerf> = runs
        .iter()
        .map(|solo| app_perf(&solo.instructions, scale)[0])
        .collect();
    let base_ws = weighted_speedup(&app_perf(&shared.instructions, scale), &alone);
    let undefended = UndefendedRun {
        sim_seed,
        scale,
        lane: shared,
    };
    (MixBaseline { alone, base_ws }, undefended)
}

/// Runs one mix's baseline simulations on a shared decoded `trace`:
/// the mix under no defense plus each app alone (no defense, no
/// co-runners) — five lanes, the shared mix, the longest, first. The
/// undefended shared run is kept with `trace`, for
/// [`run_perf_cells_on`] to replay (see the module docs).
pub fn run_perf_baseline_on(trace: &Arc<SharedTrace>, sim_seed: u64, scale: Scale) -> MixBaseline {
    let (baseline, undefended) = run_perf_baseline(trace, sim_seed, scale);
    trace.keep(undefended);
    baseline
}

/// One lane per entry of `defenses`, all cores of `trace` under it, in
/// entry order: the undefended run's own lane for every defense it
/// admits (unless a flight capture is on), a simulation for the rest.
/// Nothing is emitted.
pub(crate) fn cell_lanes(
    trace: &Arc<SharedTrace>,
    sim_seed: u64,
    scale: Scale,
    defenses: &[DefenseConfig],
    undefended: Option<&UndefendedRun>,
) -> Vec<LaneRun> {
    let undefended = undefended
        .filter(|u| u.sim_seed == sim_seed && u.scale == scale && !lh_obs::flight::active());
    let replay = |defense: &DefenseConfig| undefended.filter(|u| u.admits(defense));
    let all: Vec<usize> = (0..trace.cores()).collect();
    let lanes: Vec<(DefenseConfig, Vec<usize>)> = defenses
        .iter()
        .filter(|d| replay(d).is_none())
        .map(|d| (d.clone(), all.clone()))
        .collect();
    let replayed = defenses.len() - lanes.len();
    if replayed > 0 {
        lh_obs::Registry::global().add(CELLS_REPLAYED, replayed as u64);
    }
    let mut simulated = run_perf_lanes(trace, sim_seed, scale, &lanes).into_iter();
    defenses
        .iter()
        .map(|d| match replay(d) {
            Some(u) => u.lane.clone(),
            None => simulated.next().expect("one simulated lane per cell"),
        })
        .collect()
}

/// [`run_perf_cells_on`] with the undefended run to replay given
/// explicitly rather than found with `trace`.
pub(crate) fn run_perf_cells_replaying(
    trace: &Arc<SharedTrace>,
    sim_seed: u64,
    cells: &[(DefenseKind, u32)],
    baseline: &MixBaseline,
    scale: Scale,
    undefended: Option<&UndefendedRun>,
) -> Vec<PerfPoint> {
    let timing = lh_dram::DramTiming::ddr5_4800();
    let defenses: Vec<DefenseConfig> = cells
        .iter()
        .map(|&(defense, nrh)| DefenseConfig::for_threshold(defense, nrh, &timing))
        .collect();
    let lanes = cell_lanes(trace, sim_seed, scale, &defenses, undefended);
    cells
        .iter()
        .zip(lanes)
        .map(|(&(defense, nrh), lane)| {
            lh_obs::emit(&lane.metrics);
            let ws = weighted_speedup(&app_perf(&lane.instructions, scale), &baseline.alone);
            PerfPoint {
                defense,
                nrh,
                normalized_ws: normalized_ws(ws, baseline.base_ws),
            }
        })
        .collect()
}

/// Runs a batch of `(defense, nrh)` cells of one mix on a shared
/// decoded `trace` — one lane per cell — against a precomputed
/// [`MixBaseline`]. `sim_seed` must equal the baseline's: the alone and
/// defended runs of a mix share one simulation seed. A cell the
/// undefended run kept with `trace` admits replays it instead of
/// simulating (see the module docs).
pub fn run_perf_cells_on(
    trace: &Arc<SharedTrace>,
    sim_seed: u64,
    cells: &[(DefenseKind, u32)],
    baseline: &MixBaseline,
    scale: Scale,
) -> Vec<PerfPoint> {
    let undefended = trace.kept::<UndefendedRun>();
    run_perf_cells_replaying(
        trace,
        sim_seed,
        cells,
        baseline,
        scale,
        undefended.as_deref(),
    )
}

/// Runs one `(mix, defense, nrh)` cell against a precomputed
/// [`MixBaseline`], decoding the trace itself. The mix list is derived
/// from `mixes_seed` (the study's master seed) while the simulation
/// runs on `sim_seed`, which must equal the baseline's. The fresh trace
/// holds no undefended run, so the cell always simulates. Callers that
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

    /// The decoded trace and undefended run of `fig13`'s mix `mix` at
    /// master seed 1 (its derived simulation seed).
    fn undefended(mix: usize, scale: Scale) -> (Arc<SharedTrace>, UndefendedRun) {
        let sim_seed = lh_harness::derive_seed("fig13", mix, 1);
        let trace = decode_mix_trace(mix, 1, sim_seed, scale, false);
        let (_, run) = run_perf_baseline(&trace, sim_seed, scale);
        (trace, run)
    }

    /// Every `figure13_set() × NRH_SWEEP` cell's defense, with its kind.
    fn grid() -> Vec<(DefenseKind, DefenseConfig)> {
        let timing = lh_dram::DramTiming::ddr5_4800();
        DefenseKind::figure13_set()
            .iter()
            .flat_map(|&d| {
                NRH_SWEEP
                    .iter()
                    .map(move |&n| (d, DefenseConfig::for_threshold(d, n, &timing)))
            })
            .collect()
    }

    #[test]
    fn replayed_cells_equal_a_forced_simulation() {
        let cases = [(0, Scale::Quick), (1, Scale::Quick), (0, Scale::Default)];
        for (mix, scale) in cases {
            let (trace, run) = undefended(mix, scale);
            let sim_seed = run.sim_seed;
            // The certificate needs counters that were never reset.
            assert_eq!(
                run.lane.metrics.get("sim.cmd.rfm"),
                0,
                "{scale:?} mix {mix}"
            );
            let admitted: Vec<(DefenseKind, DefenseConfig)> =
                grid().into_iter().filter(|(_, d)| run.admits(d)).collect();
            let kinds: Vec<DefenseKind> = admitted.iter().map(|&(k, _)| k).collect();
            assert_eq!(
                kinds,
                [[DefenseKind::Prac; 5], [DefenseKind::PracBank; 5]].concat(),
                "{scale:?} mix {mix}: certificate {} admits exactly PRAC and PRAC-Bank",
                run.lane.max_act
            );
            let defenses: Vec<DefenseConfig> = admitted.into_iter().map(|(_, d)| d).collect();
            let before = lh_obs::Registry::global().totals().get(CELLS_REPLAYED);
            let replayed = cell_lanes(&trace, sim_seed, scale, &defenses, Some(&run));
            let after = lh_obs::Registry::global().totals().get(CELLS_REPLAYED);
            assert!(
                after - before >= defenses.len() as u64,
                "every cell replayed"
            );
            let forced = cell_lanes(&trace, sim_seed, scale, &defenses, None);
            assert_eq!(replayed, forced, "{scale:?} mix {mix}");
        }
    }

    #[test]
    fn a_cell_whose_nbo_equals_the_certificate_simulates_and_backs_off() {
        let (trace, run) = undefended(0, Scale::Quick);
        let cert = run.lane.max_act;
        let at = [DefenseConfig::prac(cert), DefenseConfig::prac_bank(cert)];
        let above = [
            DefenseConfig::prac(cert + 1),
            DefenseConfig::prac_bank(cert + 1),
        ];
        let lanes = cell_lanes(&trace, run.sim_seed, Scale::Quick, &at, Some(&run));
        for (defense, lane) in at.iter().zip(&lanes) {
            assert!(
                !run.admits(defense),
                "N_BO = certificate {cert} must simulate"
            );
            assert!(
                lane.metrics.get("sim.cmd.rfm") > 0,
                "{defense:?} reaches its N_BO and backs off"
            );
        }
        let replayed = cell_lanes(&trace, run.sim_seed, Scale::Quick, &above, Some(&run));
        let forced = cell_lanes(&trace, run.sim_seed, Scale::Quick, &above, None);
        assert_eq!(replayed, forced);
        assert!(replayed.iter().all(|lane| *lane == run.lane));
    }

    #[test]
    fn replay_needs_the_kept_run_and_no_flight_capture() {
        let scale = Scale::Quick;
        let sim_seed = lh_harness::derive_seed("fig13", 0, 1);
        let trace = decode_mix_trace(0, 1, sim_seed, scale, false);
        let baseline = run_perf_baseline_on(&trace, sim_seed, scale);
        let cells = [(DefenseKind::Prac, 1024), (DefenseKind::PracBank, 64)];
        let points = |trace: &Arc<SharedTrace>| {
            lh_obs::record(|| run_perf_cells_on(trace, sim_seed, &cells, &baseline, scale))
        };
        // The same `Arc` finds the kept run; a fresh decode of the same
        // trace holds none and simulates — to the same bytes.
        let (kept, kept_metrics) = points(&trace);
        let fresh = decode_mix_trace(0, 1, sim_seed, scale, false);
        assert!(fresh.kept::<UndefendedRun>().is_none());
        let (simulated, simulated_metrics) = points(&fresh);
        let ws = |ps: &[PerfPoint]| ps.iter().map(|p| p.normalized_ws).collect::<Vec<_>>();
        assert_eq!(ws(&kept), ws(&simulated));
        assert_eq!(kept_metrics, simulated_metrics);
        // Inside a flight capture the cells simulate, so the log holds
        // their commands.
        let run = trace
            .kept::<UndefendedRun>()
            .expect("baseline kept its run");
        let defenses = [DefenseConfig::prac(128)];
        let (_, log) =
            lh_obs::flight::capture(|| cell_lanes(&trace, sim_seed, scale, &defenses, Some(&run)));
        assert!(!log.is_empty(), "a captured cell simulates");
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
