//! `perf_sweep`: the Fig. 13 quick grid driven straight on the simulator.
//!
//! Both four-core mixes of `four_core_mixes(2, 1)`, each as a 5-lane
//! baseline batch plus a 25-lane `figure13_set() x NRH_SWEEP` batch at
//! `Scale::Quick` (150 us per core) — the computation the `fig13` job
//! shards into units, with the harness left out. Read+write traffic
//! over every bank with deep queues: lane engine, batched controller
//! service, FR-FCFS scan, device legality and the PRAC/PRFM/FR-RFM hooks
//! do all the work.
//!
//! `--seed` draws the access streams (the simulation seeds the harness
//! would derive for `fig13` at that master seed); which applications
//! make up the two mixes is pinned, because a mix of lighter
//! applications is simply less work and would read as a faster commit.
//! At seed 1 mixes and seeds are both `fig13`'s, so the cells and the
//! command count must equal the committed `fig13.quick.json`.

use leakyhammer::experiment::perf::{
    decode_mix_trace, merge_perf_mixes, run_perf_baseline_on, run_perf_cells_on, PerfPoint,
    NRH_SWEEP,
};
use leakyhammer::Scale;
use lh_defenses::DefenseKind;
use lh_harness::hash::Hasher;
use lh_harness::{derive_seed, json};

use crate::report::{Checks, Report};
use crate::spans::Recorder;
use crate::workloads::{cmds, snapshot_path, Rep, RunConfig, Workload};

const SCALE: Scale = Scale::Quick;

/// The master seed whose mixes every run simulates.
const MIXES_SEED: u64 = 1;

pub struct PerfSweep {
    cfg: RunConfig,
    cells: Vec<(DefenseKind, u32)>,
    /// The last repetition's study and command count, for the
    /// reference check after the timed loop.
    last: Option<(Vec<PerfPoint>, u64)>,
}

impl PerfSweep {
    pub fn new(cfg: &RunConfig) -> PerfSweep {
        let cells = DefenseKind::figure13_set()
            .iter()
            .flat_map(|&d| NRH_SWEEP.iter().map(move |&n| (d, n)))
            .collect();
        PerfSweep {
            cfg: cfg.clone(),
            cells,
            last: None,
        }
    }

    /// At seed 1 the study and its command count must be the committed
    /// `fig13` quick envelope's.
    fn check_against_snapshot(&self, checks: &mut Checks, points: &[PerfPoint], commands: u64) {
        if self.cfg.seed != 1 {
            checks.skip("snapshot:fig13", "snapshots are pinned at seed 1");
            return;
        }
        let text = std::fs::read_to_string(snapshot_path(&self.cfg, "fig13")).unwrap_or_default();
        let Ok(doc) = json::parse(&text) else {
            checks.check("fig13.quick.json is readable", false);
            return;
        };
        let reference = doc["result"]["cells"].as_array();
        let same = reference.len() == points.len()
            && reference.iter().zip(points).all(|(r, p)| {
                r["defense"].as_str() == Some(p.defense.label())
                    && r["nrh"].as_u64() == Some(u64::from(p.nrh))
                    && r["normalized_ws"].as_f64() == Some(p.normalized_ws)
            });
        checks.check("Fig. 13 cells equal fig13.quick.json", same);
        let totals = lh_harness::metrics_from_json(&doc["metrics"]["totals"]);
        checks.check(
            "simulated command count equals fig13.quick.json",
            cmds(&totals) == commands,
        );
    }
}

impl Workload for PerfSweep {
    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Rep {
        let seed = self.cfg.seed;
        let (per_mix, executed) = lh_obs::record(|| {
            (0..SCALE.mixes())
                .map(|mix| {
                    // The seed the harness derives for this mix's
                    // baseline unit, which its cells inherit.
                    let sim_seed = derive_seed("fig13", mix, seed);
                    let trace = decode_mix_trace(mix, MIXES_SEED, sim_seed, SCALE, true);
                    let span = rec.enter("perf.baseline");
                    let baseline = run_perf_baseline_on(&trace, sim_seed, SCALE);
                    rec.exit(span);
                    let span = rec.enter("perf.cells");
                    let points = run_perf_cells_on(&trace, sim_seed, &self.cells, &baseline, SCALE);
                    rec.exit(span);
                    points
                })
                .collect::<Vec<_>>()
        });
        let study = merge_perf_mixes(&per_mix);
        checks.ops(per_mix.len() as u64);
        checks.check(
            "every Fig. 13 cell is in (0, 1.05]",
            study.points.len() == self.cells.len()
                && study
                    .points
                    .iter()
                    .all(|p| p.normalized_ws > 0.0 && p.normalized_ws <= 1.05),
        );

        let mut hasher = Hasher::new();
        for p in &study.points {
            hasher
                .field(p.defense.label())
                .number(u64::from(p.nrh))
                .number(p.normalized_ws.to_bits());
        }
        for (name, n) in executed.iter() {
            hasher.field(name).number(n);
        }
        self.last = Some((study.points, cmds(&executed)));
        Rep {
            digest: hasher.digest(),
            executed,
            ..Rep::default()
        }
    }

    fn finish(&mut self, _reps: &[Rep], report: &mut Report) {
        if let Some((points, commands)) = self.last.take() {
            self.check_against_snapshot(&mut report.checks, &points, commands);
        }
    }
}
