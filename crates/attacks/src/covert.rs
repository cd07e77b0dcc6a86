//! LeakyHammer covert channels (§6.3, §7.3 of the paper).
//!
//! The sender and receiver synchronize on the wall clock in fixed-length
//! transmission windows:
//!
//! * **PRAC channel** — the sender transmits a logic-1 by hammering its
//!   private rows until the shared activation counters reach `NBO` and the
//!   receiver observes a back-off latency; a logic-0 by staying idle. Both
//!   sides stop accessing once they detect the back-off to avoid wasting
//!   counter budget (window 25 µs in the paper).
//! * **RFM channel** — the sender's activations push the per-bank PRFM
//!   counter past `TRFM` several times per window; the receiver counts
//!   RFM-class latencies and compares against `Trecv` (window 20 µs,
//!   `Trecv` = 3).
//! * **Multibit extension** (§6.3) — the sender modulates its access
//!   intensity so the back-off arrives after a symbol-specific number of
//!   receiver accesses.
//!
//! The sender and receiver are [`Process`]es. The sender's pace is its
//! per-symbol intensity table and nothing else ([`SenderConfig::binary`]
//! builds the two-entry table: idle, or hammer at one think time).
//! Decoding happens outside the simulated processes from the receiver's
//! per-window observations: thresholding, multibit amplitude
//! demodulation, pulse-position decoding, preamble synchronization and
//! channel codecs live in the `lh-link` link layer, which consumes the
//! [`WindowObservation`] stream this module produces.

use core::any::Any;

use lh_dram::{Span, Time};
use lh_sim::{MemAccess, Process, ProcessStep};

/// Per-window observations recorded by the receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowObservation {
    /// High-latency events detected (≥ the configured threshold).
    pub events: u32,
    /// Receiver accesses completed before the first event (or all of
    /// them, if no event occurred).
    pub accesses_before_event: u32,
    /// Total receiver accesses completed in the window.
    pub accesses: u32,
}

/// §10.1 periodic-refresh filter.
///
/// When the back-off latency overlaps the refresh band (1-RFM back-offs),
/// the receiver cannot separate the two by magnitude. The paper's
/// modified attack filters by *cadence* instead: periodic refreshes
/// arrive on a strict `tREFI` grid, so a candidate event whose distance
/// from an earlier candidate is a small multiple of the refresh interval
/// (within `tolerance`) is classified as a refresh and not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshFilterConfig {
    /// The periodic-refresh interval (`tREFI`, per rank).
    pub(crate) period: Span,
    /// Cadence-match tolerance.
    pub(crate) tolerance: Span,
}

impl RefreshFilterConfig {
    /// A filter for the given timing's `tREFI` with a tolerance that
    /// absorbs scheduling slack but stays well under the interval.
    pub fn from_timing(t: &lh_dram::DramTiming) -> RefreshFilterConfig {
        RefreshFilterConfig {
            period: t.t_refi,
            tolerance: t.t_rfc / 2,
        }
    }
}

/// Refresh-phase predictor driving the §10.1 filter.
///
/// The first in-band candidate anchors the predicted refresh grid
/// (conservatively treated as a refresh); later candidates within
/// `tolerance` of the rolled-forward prediction re-anchor the grid and
/// are filtered, everything else counts as a defense event. A back-off at
/// a random phase is misfiltered with probability
/// `2 × tolerance / period` (≈ 5 % at the default tolerance).
#[derive(Debug, Clone, Copy, Default)]
struct RefreshPhase {
    /// Next predicted refresh completion.
    next: Option<Time>,
}

impl RefreshPhase {
    /// Classifies the candidate at `t`; `true` means "periodic refresh,
    /// filter it".
    fn is_refresh(&mut self, t: Time, cfg: &RefreshFilterConfig) -> bool {
        let Some(mut p) = self.next else {
            self.next = Some(t + cfg.period);
            return true;
        };
        // Roll the prediction forward past unobserved refreshes.
        while p + cfg.tolerance < t {
            p += cfg.period;
        }
        // Now p ≥ t − tolerance; a match additionally needs p ≤ t + tol.
        if p <= t + cfg.tolerance {
            // Re-anchor on the observation to absorb scheduling drift.
            self.next = Some(t + cfg.period);
            true
        } else {
            self.next = Some(p);
            false
        }
    }
}

/// Covert-channel receiver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverConfig {
    /// Physical address of the receiver's private row (`RowR`).
    pub row_addr: u64,
    /// Transmission-window length.
    pub window: Span,
    /// Transmission start (both sides agree on it).
    pub start: Time,
    /// Number of windows (= symbols) to receive.
    pub n_windows: usize,
    /// Loop overhead per iteration.
    pub think: Span,
    /// Lower latency bound for counting an event.
    pub detect: Span,
    /// Upper latency bound for counting an event (exclusive). The RFM
    /// channel uses the RFM band's upper edge so periodic refreshes
    /// (~2×tRFC, above the band) are not miscounted; the PRAC channel
    /// uses `Span::MAX` since nothing is slower than a back-off.
    pub detect_max: Span,
    /// Stop accessing for the rest of a window once an event is seen
    /// (PRAC channel behaviour; the RFM channel keeps counting).
    pub sleep_after_detect: bool,
    /// §10.1 cadence-based refresh filtering (used when back-off and
    /// refresh latencies overlap and magnitude cannot separate them).
    pub refresh_filter: Option<RefreshFilterConfig>,
}

/// The covert-channel receiver process.
#[derive(Debug, Clone)]
pub struct CovertReceiver {
    cfg: ReceiverConfig,
    obs: Vec<WindowObservation>,
    last: Option<Time>,
    detected_window: Option<usize>,
    /// Refresh-grid predictor for the §10.1 filter.
    ref_phase: RefreshPhase,
}

impl CovertReceiver {
    /// Creates a receiver.
    pub fn new(cfg: ReceiverConfig) -> CovertReceiver {
        CovertReceiver {
            obs: vec![WindowObservation::default(); cfg.n_windows],
            cfg,
            last: None,
            detected_window: None,
            ref_phase: RefreshPhase::default(),
        }
    }

    /// The per-window observations (valid after the run).
    pub fn observations(&self) -> &[WindowObservation] {
        &self.obs
    }

    fn window_of(&self, t: Time) -> Option<usize> {
        if t < self.cfg.start {
            return None;
        }
        let w = ((t - self.cfg.start) / self.cfg.window) as usize;
        (w < self.cfg.n_windows).then_some(w)
    }

    fn window_end(&self, w: usize) -> Time {
        self.cfg.start + self.cfg.window * (w as u64 + 1)
    }
}

impl Process for CovertReceiver {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now < self.cfg.start {
            return ProcessStep::SleepUntil(self.cfg.start);
        }
        // Attribute the just-finished access to the window it *started*
        // in. The refresh filter sees every in-band candidate.
        if let Some(last) = self.last.take() {
            let latency = now - last;
            let mut in_band = latency >= self.cfg.detect && latency < self.cfg.detect_max;
            if in_band {
                if let Some(filter) = self.cfg.refresh_filter {
                    if self.ref_phase.is_refresh(now, &filter) {
                        in_band = false;
                    }
                }
            }
            if let Some(w) = self.window_of(last) {
                let o = &mut self.obs[w];
                o.accesses += 1;
                if in_band {
                    if o.events == 0 {
                        o.accesses_before_event = o.accesses - 1;
                    }
                    o.events += 1;
                    if self.cfg.sleep_after_detect {
                        self.detected_window = Some(w);
                    }
                } else if o.events == 0 {
                    o.accesses_before_event = o.accesses;
                }
            }
        }
        let Some(w) = self.window_of(now) else {
            return ProcessStep::Halt;
        };
        if self.detected_window == Some(w) {
            // Sleep out the rest of this window (PRAC channel).
            return ProcessStep::SleepUntil(self.window_end(w));
        }
        self.last = Some(now);
        ProcessStep::Access(MemAccess::flushed_load(self.cfg.row_addr, self.cfg.think))
    }

    fn label(&self) -> String {
        format!("covert-rx[{} windows]", self.cfg.n_windows)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Covert-channel sender configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenderConfig {
    /// The sender's two private rows (`RowS1`, `RowS2`), accessed
    /// alternately to force row activations.
    pub rows: [u64; 2],
    /// Transmission-window length (must match the receiver).
    pub window: Span,
    /// Transmission start (must match the receiver).
    pub start: Time,
    /// Latency at which the sender itself recognizes a back-off and
    /// (if `stop_after_detect`) sleeps until the window ends.
    pub detect: Span,
    /// Stop hammering after detecting the preventive action (PRAC
    /// channel); the RFM channel hammers the whole window.
    pub stop_after_detect: bool,
    /// The symbol sequence to transmit (for binary channels these are the
    /// message bits).
    pub symbols: Vec<u8>,
    /// Per-symbol loop overhead per iteration, the sender's only pace;
    /// `None` encodes an idle window (symbol 0). `intensity[s]` is used
    /// for symbol `s`.
    pub intensity: Vec<Option<Span>>,
}

impl SenderConfig {
    /// A binary sender: symbol 0 = idle, symbol 1 = hammer at `think`.
    pub fn binary(
        rows: [u64; 2],
        window: Span,
        start: Time,
        think: Span,
        detect: Span,
        stop_after_detect: bool,
        bits: Vec<u8>,
    ) -> SenderConfig {
        SenderConfig {
            rows,
            window,
            start,
            detect,
            stop_after_detect,
            symbols: bits,
            intensity: vec![None, Some(think)],
        }
    }
}

/// The covert-channel sender process.
#[derive(Debug, Clone)]
pub struct CovertSender {
    cfg: SenderConfig,
    i: usize,
    last: Option<Time>,
    detected_window: Option<usize>,
}

impl CovertSender {
    /// Creates a sender.
    ///
    /// # Panics
    ///
    /// Panics if a symbol has no entry in the intensity table.
    pub fn new(cfg: SenderConfig) -> CovertSender {
        assert!(
            cfg.symbols
                .iter()
                .all(|&s| (s as usize) < cfg.intensity.len()),
            "every symbol needs an intensity entry"
        );
        CovertSender {
            cfg,
            i: 0,
            last: None,
            detected_window: None,
        }
    }

    fn window_of(&self, t: Time) -> Option<usize> {
        if t < self.cfg.start {
            return None;
        }
        let w = ((t - self.cfg.start) / self.cfg.window) as usize;
        (w < self.cfg.symbols.len()).then_some(w)
    }

    fn window_end(&self, w: usize) -> Time {
        self.cfg.start + self.cfg.window * (w as u64 + 1)
    }
}

impl Process for CovertSender {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now < self.cfg.start {
            return ProcessStep::SleepUntil(self.cfg.start);
        }
        // Sender-side back-off detection.
        if let Some(last) = self.last.take() {
            if now - last >= self.cfg.detect && self.cfg.stop_after_detect {
                if let Some(w) = self.window_of(last) {
                    self.detected_window = Some(w);
                }
            }
        }
        let Some(w) = self.window_of(now) else {
            return ProcessStep::Halt;
        };
        let symbol = self.cfg.symbols[w];
        let Some(think) = self.cfg.intensity[symbol as usize] else {
            // Idle symbol: sleep out the window.
            return ProcessStep::SleepUntil(self.window_end(w));
        };
        if self.detected_window == Some(w) {
            return ProcessStep::SleepUntil(self.window_end(w));
        }
        let addr = self.cfg.rows[self.i % 2];
        self.i += 1;
        self.last = Some(now);
        ProcessStep::Access(MemAccess::flushed_load(addr, think))
    }

    fn label(&self) -> String {
        format!("covert-tx[{} symbols]", self.cfg.symbols.len())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx_cfg(n: usize) -> ReceiverConfig {
        ReceiverConfig {
            row_addr: 0x1000,
            window: Span::from_us(25),
            start: Time::from_us(10),
            n_windows: n,
            think: Span::from_ns(30),
            detect: Span::from_ns(1_000),
            detect_max: Span::MAX,
            sleep_after_detect: true,
            refresh_filter: None,
        }
    }

    #[test]
    fn receiver_band_excludes_latencies_above_detect_max() {
        let mut cfg = rx_cfg(1);
        cfg.sleep_after_detect = false;
        cfg.detect = Span::from_ns(300);
        cfg.detect_max = Span::from_ns(600);
        let mut rx = CovertReceiver::new(cfg);
        let mut t = Time::from_us(10);
        let _ = rx.step(t);
        t += Span::from_ns(450); // in band
        let _ = rx.step(t);
        t += Span::from_ns(900); // refresh-class: above band
        let _ = rx.step(t);
        assert_eq!(rx.observations()[0].events, 1);
    }

    #[test]
    fn receiver_waits_for_start() {
        let mut rx = CovertReceiver::new(rx_cfg(2));
        assert_eq!(
            rx.step(Time::ZERO),
            ProcessStep::SleepUntil(Time::from_us(10))
        );
    }

    #[test]
    fn receiver_attributes_event_to_start_window() {
        let mut rx = CovertReceiver::new(rx_cfg(2));
        let _ = rx.step(Time::from_us(10)); // first access issued
                                            // Completion 1.5 us later: above threshold → event in window 0.
        let _ = rx.step(Time::from_us(10) + Span::from_ns(1_500));
        assert_eq!(rx.observations()[0].events, 1);
        assert_eq!(rx.observations()[0].accesses_before_event, 0);
        assert_eq!(rx.observations()[1].events, 0);
    }

    #[test]
    fn receiver_sleeps_out_window_after_detect() {
        let mut rx = CovertReceiver::new(rx_cfg(2));
        let _ = rx.step(Time::from_us(10));
        let step = rx.step(Time::from_us(10) + Span::from_ns(1_500));
        // Detected in window 0 → sleeps until its end (start + 25 us).
        assert_eq!(step, ProcessStep::SleepUntil(Time::from_us(35)));
    }

    #[test]
    fn receiver_counts_multiple_events_when_not_sleeping() {
        let mut cfg = rx_cfg(1);
        cfg.sleep_after_detect = false;
        cfg.detect = Span::from_ns(300);
        let mut rx = CovertReceiver::new(cfg);
        let mut t = Time::from_us(10);
        let _ = rx.step(t);
        for _ in 0..4 {
            t += Span::from_ns(400); // four RFM-ish latencies
            let step = rx.step(t);
            assert!(matches!(step, ProcessStep::Access(_)));
        }
        assert_eq!(rx.observations()[0].events, 4);
    }

    #[test]
    fn receiver_halts_after_all_windows() {
        let mut rx = CovertReceiver::new(rx_cfg(1));
        let _ = rx.step(Time::from_us(10));
        let step = rx.step(Time::from_us(40)); // past start + 25 us
        assert_eq!(step, ProcessStep::Halt);
    }

    #[test]
    fn sender_idles_on_zero_and_hammers_on_one() {
        let cfg = SenderConfig::binary(
            [0x2000, 0x4000],
            Span::from_us(25),
            Time::from_us(10),
            Span::from_ns(30),
            Span::from_ns(1_000),
            true,
            vec![0, 1],
        );
        let mut tx = CovertSender::new(cfg);
        // Window 0: bit 0 → sleeps until window end.
        assert_eq!(
            tx.step(Time::from_us(10)),
            ProcessStep::SleepUntil(Time::from_us(35))
        );
        // Window 1: bit 1 → alternating accesses.
        match tx.step(Time::from_us(35)) {
            ProcessStep::Access(a) => assert_eq!(a.addr, 0x2000),
            other => panic!("expected access, got {other:?}"),
        }
        match tx.step(Time::from_us(35) + Span::from_ns(150)) {
            ProcessStep::Access(a) => assert_eq!(a.addr, 0x4000),
            other => panic!("expected access, got {other:?}"),
        }
    }

    #[test]
    fn sender_stops_after_detecting_backoff() {
        let cfg = SenderConfig::binary(
            [0x2000, 0x4000],
            Span::from_us(25),
            Time::ZERO,
            Span::from_ns(30),
            Span::from_ns(1_000),
            true,
            vec![1],
        );
        let mut tx = CovertSender::new(cfg);
        let _ = tx.step(Time::ZERO);
        // The next step comes 1.5 us later: sender saw the back-off.
        let step = tx.step(Time::ZERO + Span::from_ns(1_500));
        assert_eq!(step, ProcessStep::SleepUntil(Time::from_us(25)));
    }

    #[test]
    fn refresh_phase_filters_the_grid_and_passes_offgrid_events() {
        let cfg = RefreshFilterConfig {
            period: Span::from_us(4),
            tolerance: Span::from_ns(200),
        };
        let mut phase = RefreshPhase::default();
        // First candidate anchors the grid (conservatively a refresh).
        assert!(phase.is_refresh(Time::from_us(10), &cfg));
        // On-grid candidates (±tolerance) filter.
        assert!(phase.is_refresh(Time::from_us(14), &cfg));
        assert!(phase.is_refresh(Time::from_us(18) + Span::from_ns(150), &cfg));
        // An off-grid candidate (a back-off) passes.
        assert!(!phase.is_refresh(Time::from_us(20), &cfg));
        // The grid survives the interleaved event.
        assert!(phase.is_refresh(Time::from_us(22) + Span::from_ns(200), &cfg));
    }

    #[test]
    fn refresh_phase_rolls_over_long_unobserved_gaps() {
        let cfg = RefreshFilterConfig {
            period: Span::from_us(4),
            tolerance: Span::from_ns(200),
        };
        let mut phase = RefreshPhase::default();
        assert!(phase.is_refresh(Time::from_us(10), &cfg));
        // 12 periods later (the receiver slept): still on-grid.
        assert!(phase.is_refresh(Time::from_us(58), &cfg));
        // Half a period off: an event.
        assert!(!phase.is_refresh(Time::from_us(64), &cfg));
    }

    #[test]
    fn receiver_with_filter_drops_cadenced_events_and_counts_the_rest() {
        let mut cfg = rx_cfg(1);
        cfg.window = Span::from_us(40);
        cfg.start = Time::ZERO;
        cfg.sleep_after_detect = false;
        cfg.detect = Span::from_ns(300);
        cfg.detect_max = Span::MAX;
        cfg.refresh_filter = Some(RefreshFilterConfig {
            period: Span::from_us(4),
            tolerance: Span::from_ns(200),
        });
        let mut rx = CovertReceiver::new(cfg);
        let mut t = Time::ZERO;
        let access_until = |rx: &mut CovertReceiver, t: &mut Time, target: Time| {
            // Fast accesses (60 ns) until `target`, then one slow one.
            while *t + Span::from_ns(60) < target {
                let _ = rx.step(*t);
                *t += Span::from_ns(60);
            }
            let _ = rx.step(*t);
            *t = target + Span::from_ns(500); // slow completion, in band
            let _ = rx.step(*t);
        };
        // Slow events at 4, 8, 12 µs (the refresh grid) and one at 14 µs.
        access_until(&mut rx, &mut t, Time::from_us(4));
        access_until(&mut rx, &mut t, Time::from_us(8));
        access_until(&mut rx, &mut t, Time::from_us(12));
        access_until(&mut rx, &mut t, Time::from_us(14));
        assert_eq!(
            rx.observations()[0].events,
            1,
            "grid events filtered, off-grid event counted"
        );
    }

    #[test]
    #[should_panic]
    fn sender_rejects_symbol_without_intensity() {
        let cfg = SenderConfig {
            rows: [0, 64],
            window: Span::from_us(25),
            start: Time::ZERO,
            detect: Span::from_ns(1_000),
            stop_after_detect: true,
            symbols: vec![3],
            intensity: vec![None, Some(Span::from_ns(30))],
        };
        let _ = CovertSender::new(cfg);
    }
}
