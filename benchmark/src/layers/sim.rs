//! `workloads` and `sim` drivers: the access generators, the cache
//! hierarchy, and system construction.

use std::hint::black_box;

use lh_defenses::DefenseConfig;
use lh_dram::{Span, Time};
use lh_memctrl::AddressMapping;
use lh_sim::{CacheConfig, CacheHierarchy, Process, ProcessStep, SimConfig, SystemBuilder};
use lh_workloads::{AppProfile, BrowserProcess, SyntheticApp, WebsiteProfile, WEBSITES};

use crate::layers::ns_per_call;
use crate::report::Report;
use crate::workloads::RunConfig;

/// Accesses generated per generator, and replayed through the caches.
const ACCESSES: u64 = 1_000_000;
/// Systems built.
const BUILDS: u64 = 100;

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    let sim = SimConfig::paper_default(DefenseConfig::none());
    let mapping = AddressMapping::new(sim.mapping, sim.device.geometry);

    // Trace decode is lazy (it returns at once), so time the generator
    // the lanes pull from.
    let mut app = SyntheticApp::new(
        AppProfile::with_rbmpki("bench-9", 9.0),
        mapping,
        cfg.seed,
        Time::MAX,
    );
    let mut stream = Vec::with_capacity(ACCESSES as usize);
    let gen_ns = ns_per_call(ACCESSES, |_| match app.step(Time::ZERO) {
        ProcessStep::Access(a) => stream.push((a.addr, a.write)),
        other => unreachable!("the unbounded generator produced {other:?}"),
    });
    report.metric("workloads.gen_ns_per_access", gen_ns);

    let load = Span::from_us(400);
    let mut browser = BrowserProcess::new(
        WebsiteProfile::of_site(cfg.seed as usize % WEBSITES.len()),
        mapping,
        cfg.seed,
        Time::ZERO,
        load,
    );
    let browser_ns = ns_per_call(ACCESSES, |i| {
        let now = Time::from_ps(i * 997_000 % load.as_ps());
        black_box(browser.step(now));
    });
    report.metric("workloads.browser_gen_ns_per_access", browser_ns);

    let mut caches = CacheHierarchy::new(CacheConfig::paper_default());
    let cache_ns = ns_per_call(ACCESSES, |i| {
        let (addr, write) = stream[i as usize];
        if caches.access(addr, write).hit_latency.is_none() {
            black_box(caches.fill(addr, write));
        }
    });
    black_box(caches.stats());
    report.metric("sim.cache_access_ns", cache_ns);

    let build_ns = ns_per_call(BUILDS, |i| {
        let system = SystemBuilder::new(DefenseConfig::prac(128))
            .seed(cfg.seed + i)
            .disturb_tracking(false)
            .build()
            .expect("the paper's configuration builds");
        black_box(&system);
    });
    report.metric("sim.build_us_per_system", build_ns / 1e3);
}
