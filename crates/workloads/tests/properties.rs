//! Property-based tests on the synthetic workload generators: the
//! substitution stated in the crate docs (`src/lib.rs`) rests on these
//! generators having the properties the paper's real workloads supply
//! (distinct per-site profiles, RBMPKI-ordered memory intensity,
//! deterministic replay).

use proptest::prelude::*;

use lh_dram::{Span, Time};
use lh_memctrl::{AddressMapping, MappingScheme};
use lh_sim::{Process, ProcessStep};
use lh_workloads::{
    four_core_mixes, AppProfile, BrowserProcess, Intensity, SyntheticApp, WebsiteProfile, WEBSITES,
};

fn mapping() -> AddressMapping {
    AddressMapping::new(
        MappingScheme::RowBankCol,
        lh_dram::Geometry::paper_default(),
    )
}

/// Drains a process's first `n` steps into (addresses, think spans).
fn drain(p: &mut dyn Process, n: usize) -> Vec<(u64, Span)> {
    let mut out = Vec::new();
    let mut t = Time::ZERO;
    while out.len() < n {
        match p.step(t) {
            ProcessStep::Access(a) => {
                out.push((a.addr, a.think));
                t += Span::from_ns(100);
            }
            ProcessStep::SleepUntil(u) => t = u.max(t + Span::from_ps(1)),
            ProcessStep::Halt => break,
        }
    }
    out
}

proptest! {
    /// A SyntheticApp replays identically for the same seed and diverges
    /// for different seeds (deterministic reproducibility).
    #[test]
    fn synthetic_app_is_seed_deterministic(seed in any::<u64>(), other in any::<u64>()) {
        prop_assume!(seed != other);
        let profile = AppProfile::category(Intensity::Medium);
        let until = Time::from_us(500);
        let mut a = SyntheticApp::new(profile.clone(), mapping(), seed, until);
        let mut b = SyntheticApp::new(profile.clone(), mapping(), seed, until);
        let mut c = SyntheticApp::new(profile, mapping(), other, until);
        let sa = drain(&mut a, 50);
        let sb = drain(&mut b, 50);
        let sc = drain(&mut c, 50);
        prop_assert_eq!(&sa, &sb, "same seed must replay identically");
        prop_assert_ne!(&sa, &sc, "different seeds must diverge");
    }

    /// Four-core mixes always contain four apps drawn from the pool, and
    /// the generator is deterministic per seed.
    #[test]
    fn mixes_are_deterministic(n in 1usize..8, seed in any::<u64>()) {
        let a = four_core_mixes(n, seed);
        let b = four_core_mixes(n, seed);
        prop_assert_eq!(a.len(), n);
        for (x, y) in a.iter().zip(&b) {
            for (px, py) in x.iter().zip(y) {
                prop_assert_eq!(&px.name, &py.name);
            }
        }
    }

    /// Every website index yields a profile and the traces of two
    /// different sites differ (the fingerprint separability premise).
    #[test]
    fn websites_have_distinct_profiles(a in 0usize..40, b in 0usize..40) {
        prop_assume!(a != b);
        let span = Span::from_us(200);
        let mut pa =
            BrowserProcess::new(WebsiteProfile::of_site(a), mapping(), 1, Time::ZERO, span);
        let mut pb =
            BrowserProcess::new(WebsiteProfile::of_site(b), mapping(), 1, Time::ZERO, span);
        let sa = drain(&mut pa, 40);
        let sb = drain(&mut pb, 40);
        prop_assert_ne!(sa, sb, "sites {} and {} produce identical traces", a, b);
    }
}

#[test]
fn intensity_categories_are_ordered_by_rbmpki() {
    let l = AppProfile::category(Intensity::Low).rbmpki();
    let m = AppProfile::category(Intensity::Medium).rbmpki();
    let h = AppProfile::category(Intensity::High).rbmpki();
    assert!(l < m && m < h, "RBMPKI must order L < M < H: {l} {m} {h}");
}

#[test]
fn website_list_matches_the_paper() {
    assert_eq!(WEBSITES.len(), 40, "the paper fingerprints 40 sites");
    for pair in ["wikipedia", "reddit", "youtube"] {
        assert!(WEBSITES.contains(&pair), "missing {pair}");
    }
    let mut sorted: Vec<&str> = WEBSITES.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 40, "site names must be unique");
}
