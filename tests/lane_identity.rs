//! Lane-batch identity: `LaneBatch` with K lanes over one shared trace
//! must reproduce, byte for byte, what each lane computes when run
//! alone as a plain `System` — the command mix, the per-process and
//! cache statistics, the defense counters, a probe's latency trace, and
//! the per-lane obs counters.
//!
//! The batch engine is an *engine*, not an approximation, so equality
//! here is exact structural equality, never tolerance-based. Both sides
//! take the controller's one scheduler (`MemoryController::service`);
//! its candidate table against the per-entry oracle scan is pinned step
//! by step in `crates/memctrl/tests/properties.rs` and, in this
//! dev-profile suite, by the `debug_assertions` shadows of every
//! verdict.

use std::sync::Arc;

use proptest::prelude::*;

use lh_attacks::{ChannelLayout, FingerprintProbe};
use lh_defenses::{DefenseConfig, DefenseKind, DefenseStats};
use lh_dram::{DramTiming, Span, Time};
use lh_memctrl::CtrlStats;
use lh_mitigate::MitigationConfig;
use lh_obs::Metrics;
use lh_sim::{CacheStats, LaneBatch, LatencyTrace, ProcId, ProcStats, System, SystemBuilder};
use lh_workloads::{AppProfile, Intensity, SharedTrace, TraceReplay};

const SIM_SEED: u64 = 11;
const SPAN_US: u64 = 25;

/// One lane's configuration: a defense plus a mitigation stack.
#[derive(Debug, Clone)]
struct LaneSpec {
    defense: DefenseConfig,
    mitigations: Vec<MitigationConfig>,
}

/// Everything a lane computes that downstream consumers can observe.
#[derive(Debug, Clone, PartialEq)]
struct LaneResult {
    ctrl: CtrlStats,
    defense: DefenseStats,
    /// Per replay core: instructions retired, process stats, cache stats.
    cores: Vec<(u64, ProcStats, CacheStats)>,
    /// The measurement loop's raw latency trace.
    probe: LatencyTrace,
    /// Obs counters captured at the lane's finalization flush.
    metrics: Metrics,
}

fn defense_pool(kind_idx: usize, nrh_idx: usize) -> DefenseConfig {
    let kinds = [
        DefenseKind::None,
        DefenseKind::Prac,
        DefenseKind::Prfm,
        DefenseKind::FrRfm,
        DefenseKind::PracRiac,
        DefenseKind::PracBank,
        DefenseKind::Para,
    ];
    let nrhs = [64, 128, 256, 512, 1024];
    DefenseConfig::for_threshold(
        kinds[kind_idx % kinds.len()],
        nrhs[nrh_idx % nrhs.len()],
        &DramTiming::ddr5_4800(),
    )
}

fn mitigation_pool(idx: usize) -> Vec<MitigationConfig> {
    match idx % 5 {
        0 => vec![],
        1 => vec![MitigationConfig::PassThrough],
        2 => vec![MitigationConfig::Jitter {
            max: Span::from_ns(200),
        }],
        3 => vec![MitigationConfig::Batch {
            quantum: Span::from_us(1),
        }],
        _ => vec![
            MitigationConfig::Jitter {
                max: Span::from_ns(100),
            },
            MitigationConfig::Batch {
                quantum: Span::from_ns(500),
            },
        ],
    }
}

fn builder(spec: &LaneSpec) -> SystemBuilder {
    SystemBuilder::new(spec.defense.clone())
        .mitigations(spec.mitigations.clone())
        .seed(SIM_SEED)
        .disturb_tracking(false)
}

fn shared_trace() -> Arc<SharedTrace> {
    trace_of(vec![
        AppProfile::category(Intensity::High),
        AppProfile::category(Intensity::Medium),
    ])
}

fn trace_of(profiles: Vec<AppProfile>) -> Arc<SharedTrace> {
    let seeds: Vec<u64> = (0..profiles.len())
        .map(|i| SIM_SEED ^ (i as u64 * 31))
        .collect();
    let sim = lh_sim::SimConfig::paper_default(DefenseConfig::none());
    let mapping = lh_memctrl::AddressMapping::new(sim.mapping, sim.device.geometry);
    SharedTrace::decode_uncounted(profiles, mapping, &seeds)
}

/// Adds the lane's processes — one replay per trace core plus one
/// latency probe — to `sys`, returning (replay pids, probe pid).
fn add_processes(sys: &mut System, trace: &Arc<SharedTrace>, end: Time) -> (Vec<ProcId>, ProcId) {
    let pids: Vec<ProcId> = (0..trace.cores())
        .map(|core| {
            let replay = TraceReplay::new(Arc::clone(trace), core, end);
            let mlp = replay.mlp();
            sys.add_process(Box::new(replay), mlp, Time::ZERO)
        })
        .collect();
    let layout = ChannelLayout::default_bank(sys.mapping());
    let probe = FingerprintProbe::new(
        vec![layout.receiver_row, layout.noise_rows[0]],
        15,
        Span::from_ns(30),
        end,
    );
    let probe_pid = sys.add_process(Box::new(probe), 1, Time::ZERO);
    (pids, probe_pid)
}

fn collect(sys: &System, pids: &[ProcId], probe: ProcId, metrics: Metrics) -> LaneResult {
    LaneResult {
        ctrl: *sys.controller().stats(),
        defense: sys.controller().defense_stats(),
        cores: pids
            .iter()
            .map(|&p| {
                let replay = sys.process_as::<TraceReplay>(p).expect("replay present");
                (replay.instructions(), sys.proc_stats(p), sys.cache_stats(p))
            })
            .collect(),
        probe: sys
            .process_as::<FingerprintProbe>(probe)
            .expect("probe present")
            .trace()
            .clone(),
        metrics,
    }
}

/// The reference: the lane alone in a plain `System`, with its obs
/// counters captured at an identical finalization flush.
fn run_solo(spec: &LaneSpec, trace: &Arc<SharedTrace>, end: Time, horizon: Time) -> LaneResult {
    let mut sys = builder(spec).build().expect("valid configuration");
    let (pids, probe) = add_processes(&mut sys, trace, end);
    sys.run_until(horizon);
    let ((), metrics) = lh_obs::record(|| sys.flush_obs());
    collect(&sys, &pids, probe, metrics)
}

/// All `specs` as one lane batch over the shared wake heap.
fn run_batch(
    specs: &[LaneSpec],
    trace: &Arc<SharedTrace>,
    end: Time,
    horizon: Time,
) -> Vec<LaneResult> {
    let mut batch = LaneBatch::new();
    let mut lane_pids = Vec::new();
    for spec in specs {
        let lane = batch
            .push_lane(builder(spec), horizon)
            .expect("valid configuration");
        let (pids, probe) = add_processes(batch.lane_mut(lane), trace, end);
        lane_pids.push((lane, pids, probe));
    }
    batch.run();
    lane_pids
        .into_iter()
        .map(|(lane, pids, probe)| {
            collect(batch.lane(lane), &pids, probe, batch.metrics(lane).clone())
        })
        .collect()
}

fn assert_lane_eq(got: &LaneResult, want: &LaneResult, what: &str) {
    assert_eq!(got.ctrl, want.ctrl, "{what}: controller stats diverged");
    assert_eq!(got.defense, want.defense, "{what}: defense stats diverged");
    assert_eq!(got.cores, want.cores, "{what}: per-core results diverged");
    assert_eq!(got.probe, want.probe, "{what}: latency trace diverged");
    assert_eq!(got.metrics, want.metrics, "{what}: obs counters diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// lanes=K ≡ lanes=1 over random (defense, NRH, mitigation-stack)
    /// lane sets: every lane of a K-lane batch equals the same cell run
    /// alone.
    #[test]
    fn lanes_k_equal_lanes_1(
        lanes in proptest::collection::vec((0usize..7, 0usize..5, 0usize..5), 1..4),
    ) {
        let specs: Vec<LaneSpec> = lanes
            .iter()
            .map(|&(k, n, m)| LaneSpec {
                defense: defense_pool(k, n),
                mitigations: mitigation_pool(m),
            })
            .collect();
        let trace = shared_trace();
        let end = Time::ZERO + Span::from_us(SPAN_US);
        let horizon = end + Span::from_us(5);
        let batched = run_batch(&specs, &trace, end, horizon);
        for (i, (spec, got)) in specs.iter().zip(&batched).enumerate() {
            let solo = run_solo(spec, &trace, end, horizon);
            assert_lane_eq(got, &solo, &format!("lane {i} ({:?})", spec.defense.kind()));
        }
    }
}

/// The degenerate single-lane batch is not a special case: it must be
/// byte-identical to the solo run too.
#[test]
fn degenerate_single_lane_batch_matches_solo() {
    let spec = LaneSpec {
        defense: DefenseConfig::for_threshold(DefenseKind::Prac, 512, &DramTiming::ddr5_4800()),
        mitigations: vec![],
    };
    let trace = shared_trace();
    let end = Time::ZERO + Span::from_us(SPAN_US);
    let horizon = end + Span::from_us(5);
    let batched = run_batch(std::slice::from_ref(&spec), &trace, end, horizon);
    assert_eq!(batched.len(), 1);
    let solo = run_solo(&spec, &trace, end, horizon);
    assert_lane_eq(&batched[0], &solo, "degenerate single-lane batch");
}

/// Twin lanes exercise the heap's tie-break (identical configurations
/// produce equal wake times at every step, so every pop is a tie
/// resolved by lane index): both lanes must match the solo run exactly,
/// and a second batch run must reproduce the first bit for bit.
#[test]
fn twin_lanes_tie_break_deterministically() {
    let twin = LaneSpec {
        defense: DefenseConfig::for_threshold(DefenseKind::FrRfm, 256, &DramTiming::ddr5_4800()),
        mitigations: vec![MitigationConfig::Batch {
            quantum: Span::from_us(1),
        }],
    };
    let specs = vec![twin.clone(), twin.clone()];
    let trace = shared_trace();
    let end = Time::ZERO + Span::from_us(SPAN_US);
    let horizon = end + Span::from_us(5);
    let first = run_batch(&specs, &trace, end, horizon);
    let solo = run_solo(&twin, &trace, end, horizon);
    assert_lane_eq(&first[0], &solo, "twin lane 0");
    assert_lane_eq(&first[1], &solo, "twin lane 1");
    let second = run_batch(&specs, &trace, end, horizon);
    assert_eq!(
        first, second,
        "twin-lane batch must be run-to-run deterministic"
    );
}

/// Deep queues: eight memory-bound cores with wide miss parallelism
/// keep both 64-entry queues at capacity (requests bounce off full
/// queues), so the controller's per-bank candidate table runs with
/// every bank active, multi-entry bank FIFOs and write drains.
#[test]
fn deep_queue_lane_matches_solo() {
    let mut hog = AppProfile::with_rbmpki("hog", 60.0);
    hog.mlp = 24;
    let trace = trace_of(vec![hog; 8]);
    let specs = [
        LaneSpec {
            defense: DefenseConfig::for_threshold(DefenseKind::Prfm, 128, &DramTiming::ddr5_4800()),
            mitigations: vec![],
        },
        LaneSpec {
            defense: DefenseConfig::for_threshold(DefenseKind::FrRfm, 64, &DramTiming::ddr5_4800()),
            mitigations: vec![],
        },
    ];
    let end = Time::ZERO + Span::from_us(SPAN_US);
    let horizon = end + Span::from_us(5);
    let batched = run_batch(&specs, &trace, end, horizon);
    for (i, (spec, got)) in specs.iter().zip(&batched).enumerate() {
        assert!(
            got.ctrl.rejections > 0,
            "lane {i}: the queues never filled — not a deep-queue lane"
        );
        let solo = run_solo(spec, &trace, end, horizon);
        assert_lane_eq(got, &solo, &format!("deep lane {i}"));
    }
}

/// Throttled rows: under BlockHammer the probe's hammered rows get
/// blacklisted, which routes the demand stage to the per-entry scan
/// for as long as a throttle is live — the lane must still equal the
/// solo run.
#[test]
fn throttled_lane_matches_solo() {
    let spec = LaneSpec {
        defense: DefenseConfig::for_threshold(
            DefenseKind::BlockHammer,
            64,
            &DramTiming::ddr5_4800(),
        ),
        mitigations: vec![],
    };
    let trace = shared_trace();
    let end = Time::ZERO + Span::from_us(SPAN_US);
    let horizon = end + Span::from_us(5);
    let batched = run_batch(std::slice::from_ref(&spec), &trace, end, horizon);
    assert!(
        batched[0].ctrl.throttles > 0,
        "BlockHammer never throttled — not a throttled lane"
    );
    let solo = run_solo(&spec, &trace, end, horizon);
    assert_lane_eq(&batched[0], &solo, "throttled lane");
}
