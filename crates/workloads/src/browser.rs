//! Synthetic website / browser memory traces (§8 substitution).
//!
//! The paper records Chrome's memory accesses with Intel Pin while loading
//! each of 40 popular websites and replays them in simulation. We have no
//! browser or Pin, so each website gets a *seeded synthetic profile*: a
//! sequence of load phases (network wait, HTML parse, script execution,
//! layout, paint, ...) whose count, duration, access intensity and hot-row
//! working sets are deterministic functions of the site identity, with
//! per-trace jitter modeling load-to-load variation. The attack stack
//! consumes only the *timing of the back-offs* a load produces, which this
//! model generates end-to-end through the real simulator.

use core::any::Any;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lh_dram::{BankId, DramAddr, Span, Time};
use lh_memctrl::AddressMapping;
use lh_sim::{MemAccess, Process, ProcessStep};

/// The 40 websites fingerprinted by the paper (§8, footnote 5).
pub const WEBSITES: [&str; 40] = [
    "aliexpress",
    "amazon",
    "apple",
    "baidu",
    "bilibili",
    "bing",
    "canva",
    "chatgpt",
    "discord",
    "duckduckgo",
    "facebook",
    "fandom",
    "github",
    "globo",
    "imdb",
    "instagram",
    "linkedin",
    "live",
    "naver",
    "netflix",
    "nytimes",
    "office",
    "pinterest",
    "quora",
    "reddit",
    "roblox",
    "samsung",
    "spotify",
    "telegram",
    "temu",
    "tiktok",
    "twitch",
    "weather",
    "whatsapp",
    "wikipedia",
    "x",
    "yahoo",
    "yandex",
    "youtube",
    "zoom",
];

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One load phase of a website profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Share of the total load time this phase occupies.
    pub duration_share: f64,
    /// Gap between consecutive memory accesses in this phase.
    pub access_gap: Span,
    /// Number of hot rows the phase cycles over (alternating rows forces
    /// row activations).
    pub hot_rows: u32,
    /// Fraction of accesses that thrash the cache (modeled as flushing
    /// loads) versus cache-friendly ones.
    pub thrash_frac: f64,
}

/// A deterministic per-site load profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WebsiteProfile {
    /// Index into [`WEBSITES`].
    pub site: usize,
    /// The load phases.
    pub phases: Vec<Phase>,
}

impl WebsiteProfile {
    /// Derives the profile of website `site` (0..40).
    ///
    /// # Panics
    ///
    /// Panics if `site >= WEBSITES.len()`.
    pub fn of_site(site: usize) -> WebsiteProfile {
        assert!(site < WEBSITES.len(), "site index {site} out of range");
        let h = splitmix64(0xC0FFEE ^ (site as u64).wrapping_mul(0x1234_5678_9abc_def1));
        let n_phases = 3 + (h % 4) as usize; // 3..=6 phases
        let mut phases = Vec::with_capacity(n_phases);
        let mut share_acc = 0.0;
        for p in 0..n_phases {
            let hp = splitmix64(h ^ ((p as u64) * 0x9e37_79b9));
            let share = 0.5 + ((hp >> 8) % 100) as f64 / 100.0; // 0.5..1.5
            share_acc += share;
            phases.push(Phase {
                duration_share: share,
                // 60 ns .. 1.2 µs between accesses.
                access_gap: Span::from_ns(60 + (hp % 24) * 50),
                hot_rows: 2 + ((hp >> 16) % 3) as u32,
                thrash_frac: 0.35 + ((hp >> 24) % 60) as f64 / 100.0,
            });
        }
        // Normalize shares.
        for ph in &mut phases {
            ph.duration_share /= share_acc;
        }
        WebsiteProfile { site, phases }
    }

    /// The site's name.
    pub fn name(&self) -> &'static str {
        WEBSITES[self.site]
    }
}

/// A browser process loading one website.
#[derive(Debug, Clone)]
pub struct BrowserProcess {
    profile: WebsiteProfile,
    mapping: AddressMapping,
    rng: StdRng,
    start: Time,
    load_span: Span,
    /// Jittered phase end times (absolute).
    phase_ends: Vec<Time>,
    i: u64,
    hot_base_row: u32,
}

impl BrowserProcess {
    /// Creates a load of `profile` starting at `start` and lasting
    /// `load_span`, with per-trace `trace_seed` jitter.
    pub fn new(
        profile: WebsiteProfile,
        mapping: AddressMapping,
        trace_seed: u64,
        start: Time,
        load_span: Span,
    ) -> BrowserProcess {
        let mut rng = StdRng::seed_from_u64(trace_seed ^ splitmix64(profile.site as u64 * 0xABCD));
        // Jitter phase boundaries by ±10 %.
        let mut phase_ends = Vec::with_capacity(profile.phases.len());
        let mut t = start;
        for ph in &profile.phases {
            let nominal = load_span.as_ps() as f64 * ph.duration_share;
            let jitter = rng.gen_range(0.9..1.1);
            t += Span::from_ps((nominal * jitter) as u64);
            phase_ends.push(t);
        }
        *phase_ends.last_mut().expect("profiles have phases") = start + load_span;
        let hot_base_row = 2048 + (splitmix64(profile.site as u64) % 1024) as u32 * 8;
        BrowserProcess {
            profile,
            mapping,
            rng,
            start,
            load_span,
            phase_ends,
            i: 0,
            hot_base_row,
        }
    }

    /// The profile being loaded.
    pub fn profile(&self) -> &WebsiteProfile {
        &self.profile
    }

    fn phase_at(&self, now: Time) -> Option<&Phase> {
        let idx = self.phase_ends.iter().position(|&e| now < e)?;
        Some(&self.profile.phases[idx])
    }
}

impl Process for BrowserProcess {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now < self.start {
            return ProcessStep::SleepUntil(self.start);
        }
        if now >= self.start + self.load_span {
            return ProcessStep::Halt;
        }
        let Some(phase) = self.phase_at(now).copied() else {
            return ProcessStep::Halt;
        };
        let g = *self.mapping.geometry();
        // Cycle the phase's hot rows in a fixed bank region; alternating
        // rows in the same bank forces activations that drive the PRAC
        // counters (and hence back-offs) at site-specific rates.
        let hot_idx = (self.i % phase.hot_rows as u64) as u32;
        let bank = g.bank_from_flat(0, self.profile.site % g.banks_per_channel() as usize);
        let row = (self.hot_base_row + hot_idx * 4) % g.rows_per_bank();
        let col = (self.i / phase.hot_rows as u64 % g.cols_per_row() as u64) as u32;
        self.i += 1;
        let addr = self.mapping.encode(DramAddr::new(bank, row, col));
        let thrash = self.rng.gen_bool(phase.thrash_frac.clamp(0.0, 1.0));
        let _ = BankId::new(0, 0, 0, 0);
        ProcessStep::Access(MemAccess {
            addr,
            write: false,
            flush: thrash,
            think: phase.access_gap,
            blocking: true,
        })
    }

    fn label(&self) -> String {
        format!("browser[{}]", self.profile.name())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_defenses::DefenseConfig;
    use lh_sim::{SimConfig, System};

    #[test]
    fn site_profiles_are_deterministic_and_distinct() {
        let a1 = WebsiteProfile::of_site(3);
        let a2 = WebsiteProfile::of_site(3);
        assert_eq!(a1, a2);
        let b = WebsiteProfile::of_site(7);
        assert_ne!(a1, b);
        assert_eq!(a1.name(), "baidu");
    }

    #[test]
    fn phase_shares_sum_to_one() {
        for site in 0..WEBSITES.len() {
            let p = WebsiteProfile::of_site(site);
            let total: f64 = p.phases.iter().map(|ph| ph.duration_share).sum();
            assert!((total - 1.0).abs() < 1e-9, "{site}: {total}");
            assert!((3..=6).contains(&p.phases.len()));
        }
    }

    #[test]
    fn browser_load_triggers_backoffs_at_low_nrh() {
        // NRH = 64 (the §8 evaluation point) → NBO = 24.
        let cfg = SimConfig::paper_default(DefenseConfig::for_threshold(
            lh_defenses::DefenseKind::Prac,
            64,
            &lh_dram::DramTiming::ddr5_4800(),
        ));
        let mapping = AddressMapping::new(cfg.mapping, cfg.device.geometry);
        let mut sys = System::new(cfg).unwrap();
        let browser = BrowserProcess::new(
            WebsiteProfile::of_site(24), // reddit
            mapping,
            1,
            Time::ZERO,
            Span::from_us(400),
        );
        sys.add_process(Box::new(browser), 1, Time::ZERO);
        sys.run_until(Time::from_us(450));
        assert!(
            sys.controller().stats().backoffs > 2,
            "browser load must trigger back-offs, got {}",
            sys.controller().stats().backoffs
        );
    }

    #[test]
    fn different_trace_seeds_jitter_the_same_site() {
        let m = AddressMapping::new(
            lh_memctrl::MappingScheme::RowBankCol,
            lh_dram::Geometry::paper_default(),
        );
        let b1 = BrowserProcess::new(
            WebsiteProfile::of_site(5),
            m,
            1,
            Time::ZERO,
            Span::from_ms(1),
        );
        let b2 = BrowserProcess::new(
            WebsiteProfile::of_site(5),
            m,
            2,
            Time::ZERO,
            Span::from_ms(1),
        );
        assert_ne!(b1.phase_ends, b2.phase_ends, "traces must jitter");
    }

    #[test]
    fn forty_sites_exist() {
        assert_eq!(WEBSITES.len(), 40);
        assert_eq!(WEBSITES[38], "youtube");
    }
}
