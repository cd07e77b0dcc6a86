//! Harness invariants, end to end through real experiments: parallel
//! runs are bit-identical to serial runs — including DAG-scheduled jobs
//! with cross-unit dependencies (fig13) and distributed execution
//! across `lh-coord` workers — and a warm cache skips all recomputation
//! while reproducing the output byte for byte.

use lh_harness::{DiskCache, JobContext, Runner, RunnerOptions, ScaleLevel};

fn ctx() -> JobContext {
    JobContext::new(ScaleLevel::Quick, 11)
}

fn runner(jobs: usize, cache: Option<DiskCache>) -> Runner {
    Runner::new(RunnerOptions {
        jobs,
        cache,
        ..Default::default()
    })
}

#[test]
fn noise_sweep_is_bit_identical_across_job_counts() {
    let registry = leakyhammer::registry();
    let job = registry.get("fig4").expect("fig4 registered");
    let serial = runner(1, None).run(job, &ctx()).expect("serial run");
    for jobs in [2, 8] {
        let parallel = runner(jobs, None).run(job, &ctx()).expect("parallel run");
        assert_eq!(
            serial.merged, parallel.merged,
            "--jobs {jobs} must produce bit-identical results to --jobs 1"
        );
        assert_eq!(
            job.render_text(&serial.merged, &ctx()),
            job.render_text(&parallel.merged, &ctx()),
            "--jobs {jobs} must render the identical report"
        );
    }
    // Sanity: the sweep actually has multiple points to shard.
    assert!(serial.stats.units_total >= 3);
}

#[test]
fn fig13_dag_is_bit_identical_across_job_counts() {
    let registry = leakyhammer::registry();
    let job = registry.get("fig13").expect("fig13 registered");

    // The decomposition really is a DAG: per-mix baselines plus one
    // unit per (mix, defense, NRH) cell depending on its baseline and,
    // for a twin cell, on the earlier cell of its mix whose lane it
    // takes.
    let units = job.units(&ctx());
    let baselines = units.iter().filter(|u| u.starts_with("baseline:")).count();
    assert!(baselines >= 2, "one baseline unit per mix");
    assert!(
        units.len() > baselines * 10,
        "cells dominate: {} units for {baselines} baselines",
        units.len()
    );
    for (i, unit) in units.iter().enumerate() {
        let deps = job.deps(i, &ctx());
        if unit.starts_with("baseline:") {
            assert!(deps.is_empty(), "{unit} must be a root");
        } else {
            let mix = unit.split(':').nth(1).expect("cell unit names its mix");
            assert_eq!(
                units[deps[0]],
                format!("baseline:mix:{mix}"),
                "{unit} depends on its mix baseline"
            );
            match deps[1..] {
                [] => {}
                [sibling] => assert!(
                    sibling < i && units[sibling].starts_with(&format!("mix:{mix}:")),
                    "{unit}'s twin {} is an earlier cell of its mix",
                    units[sibling]
                ),
                _ => panic!("{unit} depends on more than its baseline and one twin"),
            }
        }
    }

    let serial = runner(1, None).run(job, &ctx()).expect("serial run");
    let parallel = runner(8, None).run(job, &ctx()).expect("parallel run");
    assert_eq!(
        serial.merged, parallel.merged,
        "--jobs 8 must produce a bit-identical merged envelope on the fig13 DAG"
    );
    assert_eq!(
        job.render_text(&serial.merged, &ctx()),
        job.render_text(&parallel.merged, &ctx())
    );
}

#[test]
fn chansweep_dag_is_bit_identical_across_job_counts() {
    // The link-layer channel sweep shards like fig13: per-defense
    // calibration baselines feed every (defense, modulation, noise)
    // cell through the dependency channel. Placement must not leak
    // into the envelope.
    let registry = leakyhammer::registry();
    let job = registry.get("chansweep").expect("chansweep registered");

    let units = job.units(&ctx());
    let baselines = units.iter().filter(|u| u.starts_with("baseline:")).count();
    assert!(baselines >= 12, "one baseline per registered defense");
    assert!(
        units.len() >= baselines * 4,
        "cells dominate: {} units for {baselines} baselines",
        units.len()
    );
    for (i, unit) in units.iter().enumerate() {
        let deps = job.deps(i, &ctx());
        if unit.starts_with("baseline:") {
            assert!(deps.is_empty(), "{unit} must be a root");
        } else {
            assert_eq!(deps.len(), 1, "{unit} depends on its defense baseline");
            assert!(units[deps[0]].starts_with("baseline:"));
        }
    }

    let serial = runner(1, None).run(job, &ctx()).expect("serial run");
    let parallel = runner(8, None).run(job, &ctx()).expect("parallel run");
    assert_eq!(
        serial.merged, parallel.merged,
        "--jobs 8 must produce a bit-identical merged envelope on the chansweep DAG"
    );
    assert_eq!(
        job.render_text(&serial.merged, &ctx()),
        job.render_text(&parallel.merged, &ctx())
    );
}

#[test]
fn fig13_distributed_workers_are_bit_identical_to_in_process() {
    // The coordinator ships dependency results in assignment messages
    // and workers derive per-unit seeds themselves, so where a unit
    // lands — which worker, in what order — must not leak into the
    // envelope: `--workers 4` reproduces `--jobs 1` byte for byte.
    // Thread workers speak the same serialized protocol as process
    // workers; CI additionally diffs real child-process runs.
    let registry = leakyhammer::registry();
    let job = registry.get("fig13").expect("fig13 registered");
    let serial = runner(1, None).run(job, &ctx()).expect("serial run");

    let mut coordinator = lh_coord::Coordinator::new(
        Box::new(lh_coord::ThreadSpawner::new(leakyhammer::registry)),
        lh_coord::CoordinatorOptions {
            workers: 4,
            ..Default::default()
        },
    );
    let distributed = coordinator.run(job, &ctx()).expect("distributed run");
    assert_eq!(
        serial.merged, distributed.merged,
        "--workers 4 must produce a bit-identical merged envelope on the fig13 DAG"
    );
    assert_eq!(
        distributed.stats.units_executed, serial.stats.units_total,
        "an uncached distributed run executes every unit"
    );
    assert_eq!(
        job.render_text(&serial.merged, &ctx()),
        job.render_text(&distributed.merged, &ctx())
    );
}

#[test]
fn warm_cache_skips_recompute_and_reproduces_output() {
    let dir = std::env::temp_dir().join(format!(
        "lh-harness-integration-{}-warm-cache",
        std::process::id()
    ));
    let cache = DiskCache::new(&dir);
    cache.clear().expect("fresh cache dir");

    let registry = leakyhammer::registry();
    let job = registry.get("fig4").expect("fig4 registered");

    let cold = runner(8, Some(cache.clone()))
        .run(job, &ctx())
        .expect("cold run");
    assert_eq!(
        cold.stats.units_cached, 0,
        "cold run must start from an empty cache"
    );
    assert_eq!(cold.stats.units_executed, cold.stats.units_total);

    let warm = runner(8, Some(cache.clone()))
        .run(job, &ctx())
        .expect("warm run");
    assert!(
        warm.stats.merged_cached,
        "warm run must hit the merged-result cache"
    );
    assert_eq!(
        warm.stats.units_executed, 0,
        "warm run must skip all recompute"
    );
    assert_eq!(
        warm.merged, cold.merged,
        "cached results must be bit-identical"
    );
    assert_eq!(
        job.render_text(&warm.merged, &ctx()),
        job.render_text(&cold.merged, &ctx()),
        "cached render must match the cold run byte for byte"
    );

    // The deterministic metrics block replays from cache too: the warm
    // run executed zero units, yet its full JSON envelope — result AND
    // metrics — is byte-identical to the cold run's. This is the
    // contract that lets volatile wall-clock data never enter cacheable
    // envelopes: everything in here is a pure function of the
    // computation.
    assert_eq!(
        lh_harness::sink::envelope(job, &warm, &ctx()).to_pretty(),
        lh_harness::sink::envelope(job, &cold, &ctx()).to_pretty(),
        "warm-cache envelope must be byte-identical, metrics included"
    );
    let totals = &cold.metrics["totals"];
    assert!(
        totals["sim.service_wakes"].as_u64().unwrap_or(0) > 0,
        "the envelope being compared actually carries sim counters: {totals:?}"
    );

    // A different master seed must not be served from this cache.
    let other_ctx = JobContext { seed: 12, ..ctx() };
    let other = runner(8, Some(cache.clone()))
        .run(job, &other_ctx)
        .expect("other-seed run");
    assert!(!other.stats.merged_cached);
    assert_eq!(other.stats.units_executed, other.stats.units_total);

    cache.clear().expect("cleanup");
}

#[test]
fn derived_seeds_differ_per_experiment_and_unit() {
    // The whole determinism story rests on unit seeds being a pure
    // function of (experiment id, unit index, master seed).
    let a = lh_harness::derive_seed("fig4", 0, 11);
    assert_eq!(a, lh_harness::derive_seed("fig4", 0, 11));
    assert_ne!(a, lh_harness::derive_seed("fig4", 1, 11));
    assert_ne!(a, lh_harness::derive_seed("fig7", 0, 11));
    assert_ne!(a, lh_harness::derive_seed("fig4", 0, 12));
}

#[test]
fn metrics_histograms_are_bit_identical_across_jobs_workers_and_replay() {
    // Histograms are the newest passengers on the deterministic
    // channel: power-of-two latency buckets sampled in simulated time,
    // merged bucket-wise across units. Like the counters they ride
    // with, they must be a pure function of the computation — never of
    // scheduling. Pin byte-identity across every execution strategy.
    let registry = leakyhammer::registry();
    let job = registry.get("fig13").expect("fig13 registered");

    let serial = runner(1, None).run(job, &ctx()).expect("serial run");
    let baseline = serial.metrics["histograms"].to_compact();
    for name in ["sim.queue_wait", "sim.maintenance.slack"] {
        assert!(
            serial.metrics["histograms"][name]["count"]
                .as_u64()
                .unwrap_or(0)
                > 0,
            "fig13 must sample {name}: {baseline}"
        );
    }

    let parallel = runner(8, None).run(job, &ctx()).expect("parallel run");
    assert_eq!(
        parallel.metrics["histograms"].to_compact(),
        baseline,
        "--jobs 8 must merge bit-identical histograms"
    );

    let mut coordinator = lh_coord::Coordinator::new(
        Box::new(lh_coord::ThreadSpawner::new(leakyhammer::registry)),
        lh_coord::CoordinatorOptions {
            workers: 2,
            ..Default::default()
        },
    );
    let distributed = coordinator.run(job, &ctx()).expect("distributed run");
    assert_eq!(
        distributed.metrics["histograms"].to_compact(),
        baseline,
        "--workers 2 must merge bit-identical histograms"
    );

    // A warm replay executes zero units, yet reports the same
    // histograms: buckets ride the cache entries next to counters.
    let dir = std::env::temp_dir().join(format!(
        "lh-harness-integration-{}-hist-replay",
        std::process::id()
    ));
    let cache = DiskCache::new(&dir);
    cache.clear().expect("fresh cache dir");
    let cold = runner(8, Some(cache.clone()))
        .run(job, &ctx())
        .expect("cold run");
    let warm = runner(8, Some(cache.clone()))
        .run(job, &ctx())
        .expect("warm run");
    assert_eq!(warm.stats.units_executed, 0, "warm run must replay");
    assert_eq!(cold.metrics["histograms"].to_compact(), baseline);
    assert_eq!(
        warm.metrics["histograms"].to_compact(),
        baseline,
        "cache replay must reproduce histograms byte for byte"
    );
    cache.clear().expect("cleanup");
}
