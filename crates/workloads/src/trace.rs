//! Decode-once shared access traces.
//!
//! A [`SyntheticApp`]'s access stream — the `(address, is_write)`
//! sequence — is a pure function of its profile and seed: the RNG draws
//! do not depend on simulated time, only on the step index. Every cell
//! of a sweep that replays the same mix therefore re-derives the exact
//! same stream. [`SharedTrace`] decodes each core's stream once, lazily
//! and behind an `Arc`, and [`TraceReplay`] is a drop-in [`Process`]
//! that replays it step-for-step — byte-identical to running the
//! original app, for *any* co-runner timing, because the step index is
//! the only coupling.
//!
//! The `sim.trace.decodes` counter proves the memoization: it is
//! emitted once per *counted* decode ([`SharedTrace::decode`]), so a
//! sweep whose baselines and cells share one trace shows exactly one
//! decode per shared trace. [`SharedTrace::decode_uncounted`] builds
//! the identical trace without touching the counter — for fallback
//! paths whose attribution would otherwise depend on scheduling.
//!
//! A caller can also [`keep`](SharedTrace::keep) one value it derived
//! from running the trace with the trace itself, for a later caller
//! that holds the same `Arc` (a sweep's undefended run, read back by
//! the sweep's cells).

use std::sync::{Arc, Mutex};

use core::any::Any;

use lh_dram::Time;
use lh_memctrl::AddressMapping;
use lh_obs::Counter;
use lh_sim::{MemAccess, Process, ProcessStep};

use crate::spec::{AppProfile, SyntheticApp, INSTR_TIME};

/// Counted trace decodes (one per [`SharedTrace::decode`] call).
const TRACE_DECODES: Counter = Counter::new("sim.trace.decodes");

/// Lazy per-core stream generator: the original app stepped at a fixed
/// instant, with every produced access memoized by step index.
struct CoreGen {
    app: SyntheticApp,
    steps: Vec<(u64, bool)>,
}

/// A decode-once access trace for one multi-core mix.
///
/// Construction is cheap; each core's stream is generated on demand the
/// first time a step index is requested (under a per-core mutex, so
/// concurrent lanes of one process share the work) and memoized
/// forever after.
pub struct SharedTrace {
    profiles: Vec<AppProfile>,
    cores: Vec<Mutex<CoreGen>>,
    kept: Mutex<Option<Arc<dyn Any + Send + Sync>>>,
}

impl std::fmt::Debug for SharedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTrace")
            .field("cores", &self.profiles.len())
            .finish()
    }
}

impl SharedTrace {
    /// Decodes the trace of one mix: core `i` replays `profiles[i]`
    /// seeded with `seeds[i]`. Emits one `sim.trace.decodes` tick —
    /// call this on the path that owns the trace (a sweep's baseline
    /// unit), so the counter proves cells stopped re-decoding.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` and `seeds` differ in length.
    pub fn decode(
        profiles: Vec<AppProfile>,
        mapping: AddressMapping,
        seeds: &[u64],
    ) -> Arc<SharedTrace> {
        TRACE_DECODES.incr();
        SharedTrace::decode_uncounted(profiles, mapping, seeds)
    }

    /// [`SharedTrace::decode`] without the obs tick — for fallback
    /// re-decodes whose unit attribution must stay byte-identical
    /// across execution modes.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` and `seeds` differ in length.
    pub fn decode_uncounted(
        profiles: Vec<AppProfile>,
        mapping: AddressMapping,
        seeds: &[u64],
    ) -> Arc<SharedTrace> {
        assert_eq!(profiles.len(), seeds.len(), "one seed per core");
        let cores = profiles
            .iter()
            .zip(seeds)
            .map(|(p, &seed)| {
                Mutex::new(CoreGen {
                    // `until` is a horizon the generator never reaches:
                    // the stream is unbounded and cut by each replay.
                    app: SyntheticApp::new(p.clone(), mapping, seed, Time::MAX),
                    steps: Vec::new(),
                })
            })
            .collect();
        Arc::new(SharedTrace {
            profiles,
            cores,
            kept: Mutex::new(None),
        })
    }

    /// Keeps `value` with this trace, in place of whatever was kept
    /// before.
    pub fn keep<T: Any + Send + Sync>(&self, value: T) {
        *self.kept.lock().expect("kept value poisoned") = Some(Arc::new(value));
    }

    /// The value last [kept](SharedTrace::keep) with this trace, if it
    /// is a `T`.
    pub fn kept<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        let kept = self.kept.lock().expect("kept value poisoned").clone()?;
        kept.downcast().ok()
    }

    /// Number of cores (= profiles) in the trace.
    pub fn cores(&self) -> usize {
        self.profiles.len()
    }

    /// The profile replayed by `core`.
    pub fn profile(&self, core: usize) -> &AppProfile {
        &self.profiles[core]
    }

    /// The `(address, is_write)` of step `idx` on `core`, generating
    /// and memoizing the stream up to `idx` on first request.
    #[cfg(test)]
    fn step(&self, core: usize, idx: usize) -> (u64, bool) {
        let mut gen = self.cores[core].lock().expect("trace generator poisoned");
        while gen.steps.len() <= idx {
            // The generator app never halts (its horizon is `Time::MAX`)
            // and a SyntheticApp step is always an access.
            match gen.app.step(Time::ZERO) {
                ProcessStep::Access(a) => gen.steps.push((a.addr, a.write)),
                other => unreachable!("unbounded generator produced {other:?}"),
            }
        }
        gen.steps[idx]
    }

    /// Copies steps `[start, start + out.capacity())` of `core` into
    /// `out`, generating as needed — one lock acquisition per block
    /// instead of one per access, for replays that walk sequentially.
    fn steps_block(&self, core: usize, start: usize, out: &mut Vec<(u64, bool)>) {
        out.clear();
        let want = start + out.capacity().max(1);
        let mut gen = self.cores[core].lock().expect("trace generator poisoned");
        while gen.steps.len() < want {
            match gen.app.step(Time::ZERO) {
                ProcessStep::Access(a) => gen.steps.push((a.addr, a.write)),
                other => unreachable!("unbounded generator produced {other:?}"),
            }
        }
        out.extend_from_slice(&gen.steps[start..want]);
    }
}

/// A [`Process`] replaying one core of a [`SharedTrace`] — step-for-step
/// identical to the [`SyntheticApp`] the trace was decoded from.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Arc<SharedTrace>,
    core: usize,
    until: Time,
    idx: usize,
    instructions: u64,
    halted_at: Option<Time>,
    /// Locally buffered steps `[buf_start, buf_start + buf.len())` of
    /// the shared stream, refilled a block at a time so steady-state
    /// replay stays off the generator mutex.
    buf: Vec<(u64, bool)>,
    buf_start: usize,
}

/// Steps fetched per generator-mutex acquisition by [`TraceReplay`].
const REPLAY_BLOCK: usize = 256;

impl TraceReplay {
    /// A replay of `trace`'s `core` running until `until` (the same
    /// horizon contract as [`SyntheticApp::new`]).
    pub fn new(trace: Arc<SharedTrace>, core: usize, until: Time) -> TraceReplay {
        TraceReplay {
            trace,
            core,
            until,
            idx: 0,
            instructions: 0,
            halted_at: None,
            buf: Vec::with_capacity(REPLAY_BLOCK),
            buf_start: 0,
        }
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// When the replay halted, if it has.
    pub fn halted_at(&self) -> Option<Time> {
        self.halted_at
    }

    /// The replayed profile's memory-level parallelism (pass to
    /// [`lh_sim::System::add_process`]).
    pub fn mlp(&self) -> u32 {
        self.trace.profile(self.core).mlp
    }
}

impl Process for TraceReplay {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now >= self.until {
            self.halted_at = self.halted_at.or(Some(now));
            return ProcessStep::Halt;
        }
        let profile = self.trace.profile(self.core);
        self.instructions += profile.instr_per_access;
        let think = INSTR_TIME * profile.instr_per_access;
        let blocking = profile.mlp <= 1;
        if self.idx >= self.buf_start + self.buf.len() {
            self.buf_start = self.idx;
            let (trace, core) = (&self.trace, self.core);
            trace.steps_block(core, self.idx, &mut self.buf);
        }
        let (addr, write) = self.buf[self.idx - self.buf_start];
        self.idx += 1;
        let access = if write {
            MemAccess::store_async(addr, think)
        } else {
            MemAccess {
                blocking,
                ..MemAccess::load_async(addr, think)
            }
        };
        ProcessStep::Access(access)
    }

    fn label(&self) -> String {
        self.trace.profile(self.core).name.clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Intensity;
    use lh_defenses::DefenseConfig;
    use lh_sim::SimConfig;

    fn mapping() -> AddressMapping {
        let cfg = SimConfig::paper_default(DefenseConfig::none());
        AddressMapping::new(cfg.mapping, cfg.device.geometry)
    }

    #[test]
    fn replay_reproduces_the_original_stream() {
        let profile = AppProfile::category(Intensity::High);
        let m = mapping();
        let trace = SharedTrace::decode_uncounted(vec![profile.clone()], m, &[42]);
        let mut replay = TraceReplay::new(trace, 0, Time::from_us(10));
        let mut app = SyntheticApp::new(profile, m, 42, Time::from_us(10));
        let mut t = Time::ZERO;
        for _ in 0..500 {
            let a = match app.step(t) {
                ProcessStep::Access(a) => a,
                other => panic!("{other:?}"),
            };
            let b = match replay.step(t) {
                ProcessStep::Access(b) => b,
                other => panic!("{other:?}"),
            };
            assert_eq!(
                (a.addr, a.write, a.think, a.blocking),
                (b.addr, b.write, b.think, b.blocking)
            );
            t += lh_dram::Span::from_ns(17);
        }
        assert_eq!(app.instructions(), replay.instructions());
        // Both halt at the horizon.
        t = Time::from_us(10);
        assert!(matches!(app.step(t), ProcessStep::Halt));
        assert!(matches!(replay.step(t), ProcessStep::Halt));
    }

    #[test]
    fn decode_ticks_the_counter_once_and_uncounted_never() {
        let profile = AppProfile::category(Intensity::Low);
        let m = mapping();
        let ((), metrics) = lh_obs::record(|| {
            let trace = SharedTrace::decode(vec![profile.clone()], m, &[7]);
            // Replays of the shared trace never re-decode.
            for _ in 0..3 {
                let mut r = TraceReplay::new(Arc::clone(&trace), 0, Time::from_us(1));
                for _ in 0..50 {
                    let _ = r.step(Time::ZERO);
                }
            }
            let _ = SharedTrace::decode_uncounted(vec![profile.clone()], m, &[7]);
        });
        assert_eq!(metrics.get("sim.trace.decodes"), 1);
    }

    #[test]
    fn lazy_generation_is_index_stable() {
        let profile = AppProfile::category(Intensity::Medium);
        let m = mapping();
        let a = SharedTrace::decode_uncounted(vec![profile.clone()], m, &[9]);
        let b = SharedTrace::decode_uncounted(vec![profile], m, &[9]);
        // Walk `a` far first, then compare early indices against `b`.
        let _ = a.step(0, 999);
        for i in 0..1000 {
            assert_eq!(a.step(0, i), b.step(0, i));
        }
    }
}
