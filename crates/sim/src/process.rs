//! The process (software) model.
//!
//! A [`Process`] is a state machine that the simulator steps: on every call
//! it either performs a memory access, sleeps until a wall-clock instant
//! (the covert-channel transmission windows synchronize this way), or
//! halts. The step times the simulator passes are exactly the
//! `m5_rpns()`-style fine-grained timestamps of the paper's Listings 1
//! and 2: a process measures memory latency by subtracting consecutive
//! step times.

use core::any::Any;
use core::fmt;

use lh_dram::{Span, Time};

/// A memory operation requested by a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Physical address (the simulator is the allocator, so processes
    /// construct addresses with [`lh_memctrl::AddressMapping::encode`]).
    pub addr: u64,
    /// Store (true) or load (false).
    pub write: bool,
    /// Execute a `clflush` of the line before the access, forcing it to
    /// memory (the attack loops of Listings 1/2 do this every iteration).
    pub flush: bool,
    /// CPU time spent before the access issues (loop instructions,
    /// timestamp reads, ...).
    pub think: Span,
    /// Whether the process waits for the data before its next step
    /// (dependent load) or continues (memory-level parallelism).
    pub blocking: bool,
}

impl MemAccess {
    /// A dependent (blocking) load with a `clflush` first — one iteration
    /// of the paper's measurement loop.
    pub fn flushed_load(addr: u64, think: Span) -> MemAccess {
        MemAccess {
            addr,
            write: false,
            flush: true,
            think,
            blocking: true,
        }
    }

    /// A plain blocking load.
    pub fn load(addr: u64, think: Span) -> MemAccess {
        MemAccess {
            addr,
            write: false,
            flush: false,
            think,
            blocking: true,
        }
    }

    /// A non-blocking load (background application traffic).
    pub fn load_async(addr: u64, think: Span) -> MemAccess {
        MemAccess {
            addr,
            write: false,
            flush: false,
            think,
            blocking: false,
        }
    }

    /// A non-blocking store.
    pub fn store_async(addr: u64, think: Span) -> MemAccess {
        MemAccess {
            addr,
            write: true,
            flush: false,
            think,
            blocking: false,
        }
    }
}

/// What a process does when stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessStep {
    /// Perform a memory access.
    Access(MemAccess),
    /// Do nothing until the given instant (wall-clock synchronization).
    SleepUntil(Time),
    /// The process is finished.
    Halt,
}

/// A program running on one simulated core.
///
/// The simulator calls [`Process::step`] with the current simulated time:
///
/// * at process start,
/// * when a blocking access completes (the time is the data-arrival time
///   plus the cache-fill overhead — i.e. what `rdtsc` would show),
/// * when a sleep expires, and
/// * for non-blocking accesses, as soon as the access has issued (or a
///   memory-level-parallelism slot frees up).
pub trait Process {
    /// Advances the process; `now` is the current simulated time.
    fn step(&mut self, now: Time) -> ProcessStep;

    /// Short, human-readable name for traces and stats.
    fn label(&self) -> String {
        "process".to_owned()
    }

    /// Downcast support so experiments can recover concrete process types
    /// (and their recorded measurements) after a simulation.
    fn as_any(&self) -> &dyn Any;
}

impl fmt::Debug for dyn Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Process({})", self.label())
    }
}

/// A process that does nothing (useful as a placeholder in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleProcess;

impl Process for IdleProcess {
    fn step(&mut self, _now: Time) -> ProcessStep {
        ProcessStep::Halt
    }

    fn label(&self) -> String {
        "idle".to_owned()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flags() {
        let a = MemAccess::flushed_load(0x40, Span::from_ns(30));
        assert!(a.flush && a.blocking && !a.write);
        let b = MemAccess::load_async(0x80, Span::ZERO);
        assert!(!b.flush && !b.blocking && !b.write);
        let c = MemAccess::store_async(0xc0, Span::ZERO);
        assert!(c.write && !c.blocking);
    }

    #[test]
    fn idle_process_halts_immediately() {
        let mut p = IdleProcess;
        assert_eq!(p.step(Time::ZERO), ProcessStep::Halt);
        assert_eq!(p.label(), "idle");
        assert!(p.as_any().downcast_ref::<IdleProcess>().is_some());
    }
}
