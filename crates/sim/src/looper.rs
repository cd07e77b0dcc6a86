//! A generic measured access loop — the building block of the paper's
//! Listing 1/2 routines and a convenient workload for tests.

use core::any::Any;

use lh_dram::{Span, Time};

use crate::process::{MemAccess, Process, ProcessStep};
use crate::trace::LatencyTrace;

/// A process that loops over a set of addresses with dependent (blocking)
/// accesses, recording the latency of every iteration, exactly like the
/// measurement routine of Listing 1:
///
/// ```text
/// for i in 0..iterations {
///     clflush(addrs[i % addrs.len()]);
///     *(volatile char*) addrs[i % addrs.len()];
///     latency[i] = rdtsc_delta();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct LoopProcess {
    addrs: Vec<u64>,
    iterations: usize,
    think: Span,
    flush: bool,
    i: usize,
    last: Option<Time>,
    trace: LatencyTrace,
}

impl LoopProcess {
    /// A flush+load loop over `addrs` for `iterations` iterations, with
    /// `think` CPU time per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn new(addrs: Vec<u64>, iterations: usize, think: Span) -> LoopProcess {
        assert!(!addrs.is_empty(), "loop needs at least one address");
        LoopProcess {
            addrs,
            iterations,
            think,
            flush: true,
            i: 0,
            last: None,
            trace: LatencyTrace::new(),
        }
    }

    /// As [`LoopProcess::new`] but without the per-iteration `clflush`
    /// (accesses may hit in cache).
    #[cfg(test)]
    pub(crate) fn without_flush(addrs: Vec<u64>, iterations: usize, think: Span) -> LoopProcess {
        LoopProcess {
            flush: false,
            ..LoopProcess::new(addrs, iterations, think)
        }
    }

    /// The recorded per-iteration latencies.
    pub fn trace(&self) -> &LatencyTrace {
        &self.trace
    }

    /// Iterations completed so far.
    pub fn completed(&self) -> usize {
        self.i
    }
}

impl Process for LoopProcess {
    fn step(&mut self, now: Time) -> ProcessStep {
        if let Some(last) = self.last {
            self.trace.push(now, now - last);
        }
        self.last = Some(now);
        if self.i >= self.iterations {
            return ProcessStep::Halt;
        }
        let addr = self.addrs[self.i % self.addrs.len()];
        self.i += 1;
        let access = if self.flush {
            MemAccess::flushed_load(addr, self.think)
        } else {
            MemAccess::load(addr, self.think)
        };
        ProcessStep::Access(access)
    }

    fn label(&self) -> String {
        format!("loop[{} addrs x {}]", self.addrs.len(), self.iterations)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_emits_accesses_then_halts() {
        let mut p = LoopProcess::new(vec![0x40, 0x80], 3, Span::from_ns(10));
        let mut t = Time::ZERO;
        for expect_addr in [0x40u64, 0x80, 0x40] {
            t += Span::from_ns(100);
            match p.step(t) {
                ProcessStep::Access(a) => {
                    assert_eq!(a.addr, expect_addr);
                    assert!(a.flush && a.blocking);
                }
                other => panic!("expected access, got {other:?}"),
            }
        }
        t += Span::from_ns(100);
        assert_eq!(p.step(t), ProcessStep::Halt);
        // 3 latency samples were recorded (one per completed iteration).
        assert_eq!(p.trace().len(), 3);
        assert_eq!(p.trace().samples()[0].latency, Span::from_ns(100));
    }

    #[test]
    #[should_panic]
    fn empty_address_list_panics() {
        let _ = LoopProcess::new(vec![], 1, Span::ZERO);
    }
}
