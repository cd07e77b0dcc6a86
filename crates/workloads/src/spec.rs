//! SPEC-like synthetic applications.
//!
//! The paper uses SPEC CPU2017/2006 workloads in two roles: as
//! interference (categorized L/M/H by row-buffer misses per kilo
//! instruction, RBMPKI) and as multiprogrammed load for the Fig. 13
//! weighted-speedup study. These generators reproduce the relevant
//! property — the rate and locality of DRAM row activations per unit of
//! executed instructions — with a simple phased row-streaming model:
//! visit a row, read `lines_per_row` consecutive cache lines, move on.

use core::any::Any;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lh_dram::{BankId, DramAddr, Span, Time};
use lh_memctrl::AddressMapping;
use lh_sim::{MemAccess, Process, ProcessStep};

/// Instruction latency at 3 GHz, CPI 1.
pub const INSTR_TIME: Span = Span::from_ps(333);

/// Memory-intensity category (§6.3 / Fig. 5 grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intensity {
    /// Low RBMPKI (≈1).
    Low,
    /// Medium RBMPKI (≈5).
    Medium,
    /// High RBMPKI (≈20).
    High,
}

impl Intensity {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Intensity::Low => "L",
            Intensity::Medium => "M",
            Intensity::High => "H",
        }
    }
}

/// Static description of a synthetic application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Workload name (reports).
    pub name: String,
    /// Instructions between consecutive memory accesses.
    pub instr_per_access: u64,
    /// Consecutive cache lines read per row visit (row-buffer locality).
    pub lines_per_row: u32,
    /// Rows in the application's working set (per bank).
    pub footprint_rows: u32,
    /// Outstanding-miss parallelism.
    pub mlp: u32,
    /// Fraction of accesses that are stores.
    pub write_frac: f64,
}

impl AppProfile {
    /// A profile achieving approximately `rbmpki` row-buffer misses per
    /// kilo instruction.
    ///
    /// RBMPKI ≈ 1000 / (instr_per_access × lines_per_row).
    pub fn with_rbmpki(name: &str, rbmpki: f64) -> AppProfile {
        let lines_per_row = 8u32;
        let instr_per_access =
            ((1000.0 / (rbmpki.max(0.05) * lines_per_row as f64)).round() as u64).max(1);
        AppProfile {
            name: name.to_owned(),
            instr_per_access,
            lines_per_row,
            footprint_rows: 2048,
            mlp: 4,
            write_frac: 0.25,
        }
    }

    /// The category preset of §6.3 (L ≈ 1, M ≈ 5, H ≈ 20 RBMPKI).
    pub fn category(intensity: Intensity) -> AppProfile {
        match intensity {
            Intensity::Low => AppProfile::with_rbmpki("spec-low", 1.0),
            Intensity::Medium => AppProfile::with_rbmpki("spec-medium", 5.0),
            Intensity::High => AppProfile::with_rbmpki("spec-high", 20.0),
        }
    }

    /// The approximate RBMPKI of this profile.
    pub fn rbmpki(&self) -> f64 {
        1000.0 / (self.instr_per_access as f64 * self.lines_per_row as f64)
    }
}

/// A running synthetic application.
#[derive(Debug, Clone)]
pub struct SyntheticApp {
    profile: AppProfile,
    mapping: AddressMapping,
    rng: StdRng,
    until: Time,
    /// Current streaming position.
    row_addr: Option<DramAddr>,
    lines_left: u32,
    instructions: u64,
    halted_at: Option<Time>,
}

impl SyntheticApp {
    /// Creates an app that runs until `until` (its instruction count is
    /// then read for IPC).
    pub fn new(
        profile: AppProfile,
        mapping: AddressMapping,
        seed: u64,
        until: Time,
    ) -> SyntheticApp {
        SyntheticApp {
            profile,
            mapping,
            rng: StdRng::seed_from_u64(seed),
            until,
            row_addr: None,
            lines_left: 0,
            instructions: 0,
            halted_at: None,
        }
    }

    /// The profile.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// When the app halted, if it has.
    pub fn halted_at(&self) -> Option<Time> {
        self.halted_at
    }

    /// The app's memory-level parallelism (pass to
    /// [`lh_sim::System::add_process`]).
    pub fn mlp(&self) -> u32 {
        self.profile.mlp
    }

    fn next_addr(&mut self) -> u64 {
        let g = *self.mapping.geometry();
        if self.lines_left == 0 || self.row_addr.is_none() {
            // Fresh row: random bank, random row inside the footprint,
            // offset past the attack rows (which live below row 1024).
            let flat = self.rng.gen_range(0..g.banks_per_channel() as usize);
            let bank: BankId = g.bank_from_flat(0, flat);
            let row = 1024
                + self.rng.gen_range(0..self.profile.footprint_rows) % (g.rows_per_bank() - 1024);
            self.row_addr = Some(DramAddr::new(bank, row, 0));
            self.lines_left = self.profile.lines_per_row;
        }
        let addr = self.row_addr.expect("streaming row set above");
        self.lines_left -= 1;
        let col = (self.profile.lines_per_row - 1 - self.lines_left)
            % self.mapping.geometry().cols_per_row();
        self.row_addr = Some(DramAddr::new(addr.bank, addr.row, col));
        self.mapping.encode(DramAddr::new(addr.bank, addr.row, col))
    }
}

impl Process for SyntheticApp {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now >= self.until {
            self.halted_at = self.halted_at.or(Some(now));
            return ProcessStep::Halt;
        }
        self.instructions += self.profile.instr_per_access;
        let think = INSTR_TIME * self.profile.instr_per_access;
        let addr = self.next_addr();
        let write = self.rng.gen_bool(self.profile.write_frac);
        let access = if write {
            MemAccess::store_async(addr, think)
        } else {
            MemAccess {
                blocking: self.profile.mlp <= 1,
                ..MemAccess::load_async(addr, think)
            }
        };
        ProcessStep::Access(access)
    }

    fn label(&self) -> String {
        self.profile.name.clone()
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
    fn rbmpki_presets_are_ordered() {
        let l = AppProfile::category(Intensity::Low).rbmpki();
        let m = AppProfile::category(Intensity::Medium).rbmpki();
        let h = AppProfile::category(Intensity::High).rbmpki();
        assert!(l < m && m < h, "L={l} M={m} H={h}");
        assert!((0.8..1.3).contains(&l));
        assert!((15.0..26.0).contains(&h));
    }

    #[test]
    fn app_streams_rows_with_locality() {
        let cfg = SimConfig::paper_default(DefenseConfig::none());
        let mapping = AddressMapping::new(cfg.mapping, cfg.device.geometry);
        let mut app = SyntheticApp::new(
            AppProfile::category(Intensity::High),
            mapping,
            1,
            Time::from_us(10),
        );
        // Collect the first 16 accesses: the first 8 share a row.
        let mut rows = Vec::new();
        let mut t = Time::ZERO;
        for _ in 0..16 {
            match app.step(t) {
                ProcessStep::Access(a) => rows.push(mapping.decode(a.addr)),
                other => panic!("{other:?}"),
            }
            t += Span::from_ns(100);
        }
        assert!(rows[..8]
            .windows(2)
            .all(|w| w[0].row == w[1].row && w[0].bank == w[1].bank));
        assert_ne!((rows[7].bank, rows[7].row), (rows[8].bank, rows[8].row));
    }

    #[test]
    fn app_generates_dram_traffic_in_a_system() {
        let cfg = SimConfig::paper_default(DefenseConfig::none());
        let mapping = AddressMapping::new(cfg.mapping, cfg.device.geometry);
        let mut sys = System::new(cfg).unwrap();
        let app = SyntheticApp::new(
            AppProfile::category(Intensity::High),
            mapping,
            2,
            Time::from_us(200),
        );
        let mlp = app.mlp();
        let pid = sys.add_process(Box::new(app), mlp, Time::ZERO);
        sys.run_until(Time::from_us(250));
        let app = sys.process_as::<SyntheticApp>(pid).unwrap();
        assert!(
            app.instructions() > 10_000,
            "{} instructions",
            app.instructions()
        );
        assert!(sys.controller().stats().reads_served > 100);
        // Row locality: several column accesses per activate.
        let cpa = sys.controller().device().stats().columns_per_act();
        assert!(cpa > 2.0, "columns/ACT {cpa}");
    }

    #[test]
    fn higher_rbmpki_means_more_activations_per_time() {
        let acts = |intensity: Intensity| -> u64 {
            let cfg = SimConfig::paper_default(DefenseConfig::none());
            let mapping = AddressMapping::new(cfg.mapping, cfg.device.geometry);
            let mut sys = System::new(cfg).unwrap();
            let app = SyntheticApp::new(
                AppProfile::category(intensity),
                mapping,
                3,
                Time::from_us(200),
            );
            let mlp = app.mlp();
            sys.add_process(Box::new(app), mlp, Time::ZERO);
            sys.run_until(Time::from_us(200));
            sys.controller().device().stats().activates
        };
        let low = acts(Intensity::Low);
        let high = acts(Intensity::High);
        assert!(high > low * 3, "high {high} vs low {low}");
    }
}
