//! # lh-sim — discrete-event full-system simulator
//!
//! The gem5-substitute of the LeakyHammer reproduction (this crate's
//! README describes the engine; `lh-workloads`' crate docs say what
//! stands in for the paper's workloads): simple cores stepping
//! [`Process`] state machines, private per-core cache hierarchies with
//! `clflush` ([`CacheHierarchy`]), an optional Best-Offset prefetcher
//! ([`BestOffsetPrefetcher`], §10.3), and one DDR5 channel behind an
//! FR-FCFS memory controller.
//!
//! Time is integer picoseconds end-to-end and every run is deterministic
//! for a fixed seed — a correctness requirement for reproducing covert
//! channels.
//!
//! ## Example: measuring row-conflict latency from "userspace"
//!
//! ```
//! use lh_defenses::DefenseConfig;
//! use lh_dram::{BankId, DramAddr, Span, Time};
//! use lh_sim::{LoopProcess, SimConfig, System};
//!
//! let mut sys = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
//! // Two rows in the same bank → every access is a row-buffer conflict.
//! let bank = BankId::new(0, 0, 0, 0);
//! let a = sys.mapping().encode(DramAddr::new(bank, 10, 0));
//! let b = sys.mapping().encode(DramAddr::new(bank, 20, 0));
//! let probe = LoopProcess::new(vec![a, b], 64, Span::from_ns(30));
//! let pid = sys.add_process(Box::new(probe), 1, Time::ZERO);
//! sys.run_until(Time::from_us(100));
//! let trace = sys.process_as::<LoopProcess>(pid).unwrap().trace();
//! assert!(trace.mean_ns() > 50.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod cache;
mod lane;
mod looper;
mod prefetch;
mod process;
mod system;
mod trace;

pub use cache::{CacheAccess, CacheConfig, CacheHierarchy, CacheLevelConfig, CacheStats};
pub use lane::run_lanes;
pub use looper::LoopProcess;
pub use prefetch::{BestOffsetPrefetcher, BopConfig};
pub use process::{MemAccess, Process, ProcessStep};
pub use system::{ProcId, ProcStats, SimConfig, System, SystemBuilder};
pub use trace::{LatencySample, LatencyTrace};

#[cfg(test)]
mod tests {
    use super::*;
    use lh_defenses::DefenseConfig;
    use lh_dram::{BankId, DramAddr, Span, Time};

    fn addr(sys: &System, bank: BankId, row: u32, col: u32) -> u64 {
        sys.mapping().encode(DramAddr::new(bank, row, col))
    }

    fn bank0() -> BankId {
        BankId::new(0, 0, 0, 0)
    }

    #[test]
    fn conflicting_loop_sees_higher_latency_than_hitting_loop() {
        // Conflicts: two rows, same bank.
        let mut sys = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
        let a = addr(&sys, bank0(), 10, 0);
        let b = addr(&sys, bank0(), 20, 0);
        let pid = sys.add_process(
            Box::new(LoopProcess::new(vec![a, b], 200, Span::from_ns(30))),
            1,
            Time::ZERO,
        );
        assert!(sys.run_until_halted(Time::from_ms(1)));
        let conflict_mean = sys
            .process_as::<LoopProcess>(pid)
            .unwrap()
            .trace()
            .mean_ns();

        // Hits: one row, flushed each time but the row stays open.
        let mut sys2 = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
        let a2 = addr(&sys2, bank0(), 10, 0);
        let pid2 = sys2.add_process(
            Box::new(LoopProcess::new(vec![a2], 200, Span::from_ns(30))),
            1,
            Time::ZERO,
        );
        assert!(sys2.run_until_halted(Time::from_ms(1)));
        let hit_mean = sys2
            .process_as::<LoopProcess>(pid2)
            .unwrap()
            .trace()
            .mean_ns();

        assert!(
            conflict_mean > hit_mean + 20.0,
            "conflict mean {conflict_mean:.1} ns vs hit mean {hit_mean:.1} ns"
        );
    }

    #[test]
    fn flushed_loop_always_misses_cache() {
        let mut sys = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
        let a = addr(&sys, bank0(), 10, 0);
        let pid = sys.add_process(
            Box::new(LoopProcess::new(vec![a], 50, Span::from_ns(30))),
            1,
            Time::ZERO,
        );
        assert!(sys.run_until_halted(Time::from_ms(1)));
        let stats = sys.proc_stats(pid);
        assert_eq!(stats.dram_reads, 50, "every flushed access must go to DRAM");
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn unflushed_loop_hits_in_cache() {
        let mut sys = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
        let a = addr(&sys, bank0(), 10, 0);
        let pid = sys.add_process(
            Box::new(LoopProcess::without_flush(vec![a], 50, Span::from_ns(5))),
            1,
            Time::ZERO,
        );
        assert!(sys.run_until_halted(Time::from_ms(1)));
        let stats = sys.proc_stats(pid);
        assert_eq!(stats.dram_reads, 1, "only the cold miss reaches DRAM");
        assert_eq!(stats.cache_hits, 49);
    }

    #[test]
    fn periodic_refresh_appears_in_latency_trace() {
        let mut sys = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
        let a = addr(&sys, bank0(), 10, 0);
        // Row hits for a while; refreshes (~every 3.9 us per rank) produce
        // latency spikes well above the hit latency.
        let pid = sys.add_process(
            Box::new(LoopProcess::new(vec![a], 400, Span::from_ns(30))),
            1,
            Time::ZERO,
        );
        assert!(sys.run_until_halted(Time::from_ms(2)));
        let trace = sys.process_as::<LoopProcess>(pid).unwrap().trace();
        let spikes = trace.above(Span::from_ns(300)).count();
        assert!(spikes >= 2, "expected refresh spikes, got {spikes}");
        // But they are rare.
        assert!(spikes < trace.len() / 4);
    }

    #[test]
    fn prac_backoff_visible_from_process() {
        let mut cfg = SimConfig::paper_default(DefenseConfig::prac(64));
        cfg.defense.prac_mut().unwrap().nbo = 64;
        let mut sys = System::new(cfg).unwrap();
        let a = addr(&sys, bank0(), 10, 0);
        let b = addr(&sys, bank0(), 20, 0);
        let pid = sys.add_process(
            Box::new(LoopProcess::new(vec![a, b], 400, Span::from_ns(30))),
            1,
            Time::ZERO,
        );
        assert!(sys.run_until_halted(Time::from_ms(2)));
        let trace = sys.process_as::<LoopProcess>(pid).unwrap().trace();
        // ~400 conflicting accesses with NBO=64 → ~3 back-offs, visible
        // as ≥1200 ns iterations.
        let backoffs = trace.above(Span::from_ns(1_200)).count();
        assert!(backoffs >= 2, "expected visible back-offs, got {backoffs}");
        assert!(sys.controller().stats().backoffs >= 2);
    }

    #[test]
    fn mlp_overlaps_misses() {
        // One blocking process vs one MLP-4 process issuing the same
        // number of independent misses: the MLP process finishes sooner.
        use core::any::Any;

        #[derive(Debug)]
        struct Streamer {
            n: usize,
            i: usize,
            done_at: Option<Time>,
            blocking: bool,
        }
        impl Process for Streamer {
            fn step(&mut self, now: Time) -> ProcessStep {
                if self.i >= self.n {
                    self.done_at = self.done_at.or(Some(now));
                    return ProcessStep::Halt;
                }
                // Stride of one row (8 KB × banks) so accesses spread over
                // rows and stay independent.
                let addr = 0x100_0000 + (self.i as u64) * 64 * 128 * 64;
                self.i += 1;
                ProcessStep::Access(MemAccess {
                    addr,
                    write: false,
                    flush: false,
                    think: Span::from_ns(2),
                    blocking: self.blocking,
                })
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }

        let run = |blocking: bool, mlp: u32| -> Time {
            let mut sys = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
            let pid = sys.add_process(
                Box::new(Streamer {
                    n: 64,
                    i: 0,
                    done_at: None,
                    blocking,
                }),
                mlp,
                Time::ZERO,
            );
            assert!(sys.run_until_halted(Time::from_ms(4)));
            sys.process_as::<Streamer>(pid).unwrap().done_at.unwrap()
        };
        let serial = run(true, 1);
        let parallel = run(false, 4);
        assert!(
            parallel < serial,
            "MLP run ({parallel}) must beat serial run ({serial})"
        );
    }

    #[test]
    fn sleep_until_wakes_at_requested_time() {
        use core::any::Any;

        #[derive(Debug)]
        struct Sleeper {
            woke: Option<Time>,
            slept: bool,
        }
        impl Process for Sleeper {
            fn step(&mut self, now: Time) -> ProcessStep {
                if !self.slept {
                    self.slept = true;
                    return ProcessStep::SleepUntil(Time::from_us(25));
                }
                self.woke = Some(now);
                ProcessStep::Halt
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sys = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
        let pid = sys.add_process(
            Box::new(Sleeper {
                woke: None,
                slept: false,
            }),
            1,
            Time::ZERO,
        );
        sys.run_until(Time::from_us(100));
        let woke = sys.process_as::<Sleeper>(pid).unwrap().woke.unwrap();
        assert_eq!(woke, Time::from_us(25));
    }

    #[test]
    fn prefetcher_issues_useful_prefetches_on_streams() {
        let mut cfg = SimConfig::paper_default(DefenseConfig::none());
        cfg.prefetch = Some(BopConfig::paper_default());
        let mut sys = System::new(cfg).unwrap();
        // Sequential, unflushed stream over 512 lines.
        let base = addr(&sys, bank0(), 40, 0);
        let addrs: Vec<u64> = (0..512u64).map(|i| base + i * 64).collect();
        let pid = sys.add_process(
            Box::new(LoopProcess::without_flush(addrs, 512, Span::from_ns(10))),
            1,
            Time::ZERO,
        );
        assert!(sys.run_until_halted(Time::from_ms(4)));
        let stats = sys.proc_stats(pid);
        // With a trained prefetcher many demand accesses become hits.
        assert!(
            stats.cache_hits > 100,
            "prefetching should convert misses into hits, got {} hits",
            stats.cache_hits
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut cfg = SimConfig::paper_default(DefenseConfig::prac(64));
            cfg.seed = 99;
            let mut sys = System::new(cfg).unwrap();
            let a = addr(&sys, bank0(), 10, 0);
            let b = addr(&sys, bank0(), 20, 0);
            let pid = sys.add_process(
                Box::new(LoopProcess::new(vec![a, b], 300, Span::from_ns(30))),
                1,
                Time::ZERO,
            );
            sys.run_until(Time::from_ms(1));
            sys.process_as::<LoopProcess>(pid).unwrap().trace().clone()
        };
        assert_eq!(run(), run(), "same seed must give identical traces");
    }

    #[test]
    fn two_processes_share_the_channel() {
        let mut sys = System::new(SimConfig::paper_default(DefenseConfig::none())).unwrap();
        let a = addr(&sys, bank0(), 10, 0);
        let b = addr(&sys, bank0(), 20, 0);
        let p1 = sys.add_process(
            Box::new(LoopProcess::new(vec![a], 200, Span::from_ns(30))),
            1,
            Time::ZERO,
        );
        let p2 = sys.add_process(
            Box::new(LoopProcess::new(vec![b], 200, Span::from_ns(30))),
            1,
            Time::ZERO,
        );
        assert!(sys.run_until_halted(Time::from_ms(2)));
        // Both made progress; their interleaved accesses to different rows
        // of the same bank create row conflicts for each other.
        let t1 = sys.process_as::<LoopProcess>(p1).unwrap().trace();
        let t2 = sys.process_as::<LoopProcess>(p2).unwrap().trace();
        assert_eq!(t1.len(), 200);
        assert_eq!(t2.len(), 200);
        assert!(
            t1.mean_ns() > 80.0,
            "conflicts should slow p1: {}",
            t1.mean_ns()
        );
        assert!(sys.controller().stats().reads_served >= 400);
    }
}
