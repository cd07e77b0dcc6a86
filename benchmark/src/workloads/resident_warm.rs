//! `resident_warm`: warm replay of the whole quick catalogue through
//! the three resident paths.
//!
//! Set-up fills a scratch `DiskCache` with a cold quick run of all 22
//! experiments and binds an in-process `lh_serve::Server` on a loopback
//! port over that cache. A repetition then fetches every experiment
//! (a) through a `Runner`, (b) through a `Coordinator` with a resident
//! two-worker `ThreadSpawner` fleet, and (c) over HTTP — `POST /runs`,
//! follow `/runs/<id>/stream` to `finished`, `GET /runs/<id>/envelope` —
//! with a `/metrics` and a `/healthz` scrape every tenth trip. The
//! simulators do nothing here: cache reads, `lh_harness::json`
//! parse/render, envelope assembly, the coord warm path and HTTP do
//! everything, and every path must serve the cold run's bytes.
//!
//! Pass counts are fixed, not timed: the service keeps every finished
//! run for its lifetime, so the process's peak memory is comparable
//! between two commits only when both serve the same number of runs.

use std::io::BufRead;
use std::time::Instant;

use lh_coord::{Coordinator, CoordinatorOptions, ThreadSpawner};
use lh_harness::{
    json, DiskCache, ExperimentRun, Job, JobContext, Json, Registry, Runner, RunnerOptions,
    ScaleLevel,
};
use lh_serve::{client, ServeOptions, Server};

use crate::report::{Checks, Report};
use crate::spans::Recorder;
use crate::workloads::{digest_of, run_jobs, Rep, RunConfig, Workload};

/// Warm catalogue passes per repetition through the `Runner`.
const RUNNER_PASSES: usize = 36;
/// ... through the `Coordinator`.
const COORD_PASSES: usize = 36;
/// ... over HTTP (22 round trips each).
const HTTP_PASSES: usize = 6;
/// A `/metrics` and a `/healthz` scrape ride every this-many-th trip.
const SCRAPE_EVERY: usize = 10;

const WORKERS: usize = 2;

pub struct ResidentWarm {
    seed: u64,
    registry: Registry,
    /// The whole catalogue at Quick.
    jobs: Vec<(&'static str, ScaleLevel)>,
    cache: DiskCache,
    /// The cold run's envelopes in catalogue order: the reference every
    /// warm path must reproduce byte for byte.
    cold: Vec<(&'static str, String)>,
    coordinator: Coordinator,
    base_url: String,
    trips: usize,
}

impl ResidentWarm {
    pub fn new(cfg: &RunConfig, checks: &mut Checks) -> Result<ResidentWarm, String> {
        let registry = leakyhammer::registry();
        let cache = DiskCache::new(cfg.tmp.join("warm-cache"));
        // A run sets up more than once; each fill must start cold.
        cache
            .clear()
            .map_err(|e| format!("clearing the scratch cache: {e}"))?;
        let jobs: Vec<_> = registry
            .ids()
            .into_iter()
            .map(|id| (id, ScaleLevel::Quick))
            .collect();
        let filler = Runner::new(RunnerOptions {
            jobs: WORKERS,
            cache: Some(cache.clone()),
            ..RunnerOptions::default()
        });
        let cold = run_jobs(
            &registry,
            &jobs,
            cfg.seed,
            &mut Recorder::off(&cfg.workload),
            checks,
            &mut Rep::default(),
            |job, ctx| filler.run(job, ctx),
        );
        if cold.len() < jobs.len() {
            return Err("the cold fill of the scratch cache failed".into());
        }

        let coordinator = Coordinator::new(
            Box::new(ThreadSpawner::new(leakyhammer::registry)),
            CoordinatorOptions {
                workers: WORKERS,
                cache: Some(cache.clone()),
                ..CoordinatorOptions::default()
            },
        );
        let server = Server::bind(
            "127.0.0.1:0",
            Box::new(ThreadSpawner::new(leakyhammer::registry)),
            leakyhammer::registry,
            ServeOptions {
                workers: WORKERS,
                cache: Some(cache.clone()),
            },
        )
        .map_err(|e| format!("binding the service failed: {e}"))?;
        let addr = server.addr().map_err(|e| e.to_string())?;
        // The accept loop has no shutdown: the thread — and the service
        // of an earlier set-up, bound but idle — ends with the process.
        std::thread::Builder::new()
            .name("bench-serve-accept".into())
            .spawn(move || {
                let _ = server.run();
            })
            .map_err(|e| e.to_string())?;
        Ok(ResidentWarm {
            seed: cfg.seed,
            registry,
            jobs,
            cache,
            cold,
            coordinator,
            base_url: format!("http://{addr}"),
            trips: 0,
        })
    }

    /// One submit -> stream -> envelope round trip; returns the envelope
    /// bytes, or what went wrong.
    fn trip(&mut self, rec: &mut Recorder, rep: &mut Rep, id: &str) -> Result<String, String> {
        let io = |e: std::io::Error| e.to_string();
        let started = Instant::now();
        let span = rec.enter("serve.submit");
        let body = Json::object()
            .with("experiment", id)
            .with("scale", "quick")
            .with("seed", self.seed)
            .to_compact();
        let accepted =
            client::post(&format!("{}/runs", self.base_url), body.as_bytes()).map_err(io)?;
        rec.exit(span);
        rep.sample("serve.submit_ms", started.elapsed().as_secs_f64() * 1e3);
        if accepted.status != 202 {
            return Err(format!("POST /runs answered {}", accepted.status));
        }
        let run = json::parse(accepted.text().trim())
            .ok()
            .and_then(|doc| doc["id"].as_u64())
            .ok_or("POST /runs answered without a run id")?;

        let span = rec.enter("serve.stream");
        let (status, lines) =
            client::get_stream(&format!("{}/runs/{run}/stream", self.base_url)).map_err(io)?;
        if status != 200 {
            return Err(format!("GET stream answered {status}"));
        }
        let mut finished = false;
        for (i, line) in lines.lines().enumerate() {
            let line = line.map_err(io)?;
            if i == 0 {
                rep.sample("serve.first_byte_ms", started.elapsed().as_secs_f64() * 1e3);
            }
            finished |= line.starts_with("{\"event\":\"finished\"");
        }
        rec.exit(span);
        if !finished {
            return Err("stream ended without a finished event".into());
        }

        let span = rec.enter("serve.envelope");
        let envelope =
            client::get(&format!("{}/runs/{run}/envelope", self.base_url)).map_err(io)?;
        rec.exit(span);
        rep.sample("serve.rt_ms", started.elapsed().as_secs_f64() * 1e3);
        if envelope.status != 200 {
            return Err(format!("GET envelope answered {}", envelope.status));
        }
        Ok(envelope.text())
    }

    fn scrape(&self, rec: &mut Recorder, rep: &mut Rep, path: &str, name: &'static str) -> bool {
        let started = Instant::now();
        let span = rec.enter(&format!("serve{}", path.replace('/', ".")));
        let answer = client::get(&format!("{}{path}", self.base_url));
        rec.exit(span);
        rep.sample(name, started.elapsed().as_secs_f64() * 1e3);
        answer.is_ok_and(|r| r.status == 200 && !r.body.is_empty())
    }
}

impl Workload for ResidentWarm {
    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Rep {
        let mut rep = Rep::default();
        // Every path is compared with the cold bytes; the digest covers
        // what went over HTTP.
        let mut served_http = Vec::new();

        let runner = Runner::new(RunnerOptions {
            jobs: WORKERS,
            cache: Some(self.cache.clone()),
            ..RunnerOptions::default()
        });
        let coordinator = &mut self.coordinator;
        type Run<'a> = &'a mut dyn FnMut(&dyn Job, &JobContext) -> Result<ExperimentRun, String>;
        let paths: [(&str, &'static str, usize, Run); 2] = [
            (
                "warm.runner",
                "harness.warm_replay_ms",
                RUNNER_PASSES,
                &mut |job, ctx| runner.run(job, ctx),
            ),
            (
                "warm.coord",
                "coord.warm_all_ms",
                COORD_PASSES,
                &mut |job, ctx| coordinator.run(job, ctx),
            ),
        ];
        for (path, sample, passes, run) in paths {
            for _ in 0..passes {
                let started = Instant::now();
                let span = rec.enter(path);
                let served = run_jobs(
                    &self.registry,
                    &self.jobs,
                    self.seed,
                    rec,
                    checks,
                    &mut rep,
                    &mut *run,
                );
                rec.exit(span);
                rep.sample(sample, started.elapsed().as_secs_f64() * 1e3);
                checks.check(
                    &format!("{path} serves the cold run's bytes"),
                    served == self.cold,
                );
            }
        }

        for _ in 0..HTTP_PASSES {
            for i in 0..self.jobs.len() {
                let id = self.jobs[i].0;
                let span = rec.enter("serve.trip");
                let served = self.trip(rec, &mut rep, id);
                rec.exit(span);
                self.trips += 1;
                match served {
                    Ok(envelope) => {
                        checks.check(
                            &format!("{id} over HTTP serves the cold run's bytes"),
                            envelope == self.cold[i].1,
                        );
                        served_http.push((id, envelope));
                    }
                    Err(e) => {
                        rep.sample("serve.http_errors", 1.0);
                        checks.check(&format!("{id} over HTTP: {e}"), false);
                    }
                }
                if self.trips.is_multiple_of(SCRAPE_EVERY) {
                    let ok = self.scrape(rec, &mut rep, "/metrics", "serve.metrics_scrape_ms")
                        & self.scrape(rec, &mut rep, "/healthz", "serve.healthz_ms");
                    checks.check("/metrics and /healthz answer 200", ok);
                }
            }
        }
        let stats = self.coordinator.stats();
        rep.requeued = stats.units_requeued as u64;
        rep.respawns = stats.respawns_used as u64;
        rep.digest = digest_of(&served_http);
        rep
    }

    fn finish(&mut self, reps: &[Rep], report: &mut Report) {
        report.checks.check(
            "the timed phases executed no unit and simulated no command",
            reps.iter()
                .all(|r| r.units_executed == 0 && r.executed.is_empty()),
        );
        report.note("resident_warm.http_trips", self.trips);
    }
}
