//! Window-stream synchronization: preamble detection + drift correction.
//!
//! The paper's sender and receiver agree on the wall clock out of band;
//! a real link cannot. [`PreambleSync`] removes that assumption: the
//! sender prepends a known on/off pattern, and the receiver — which may
//! have started observing windows early or late, with a slightly
//! mismatched window clock — searches (offset, drift) space for the
//! alignment that best correlates with the preamble, then maps payload
//! windows through it.

use lh_attacks::WindowObservation;

use crate::modem::Calibration;

/// The alignment a synchronizer recovered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alignment {
    /// Observation index where the preamble starts.
    pub offset: usize,
    /// Relative window-clock drift: payload window `i` lands at
    /// observation `offset + round((preamble_len + i) × (1 + drift))`.
    pub drift: f64,
    /// Preamble windows that matched at this alignment.
    pub matches: usize,
    /// Preamble length the score is out of.
    pub out_of: usize,
}

impl Alignment {
    /// Whether the preamble was found convincingly (strictly better
    /// than a coin-flip over the pattern).
    pub fn locked(&self) -> bool {
        self.matches * 2 > self.out_of
    }
}

/// Preamble-correlating synchronizer with a drift-candidate grid.
///
/// The `Default` synchronizer is none at all: no preamble and nothing
/// to search — a receiver that shares the sender's clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreambleSync {
    /// On/off preamble pattern the sender transmits first (1 = the
    /// modulator's highest-intensity symbol, 0 = idle).
    pub pattern: Vec<u8>,
    /// Inclusive upper bound of the start-offset search, in windows.
    pub max_offset: usize,
    /// Candidate per-window drift rates. `[0.0]` disables drift
    /// correction; a symmetric grid around zero corrects clock skew up
    /// to the grid's edge.
    pub drift_grid: Vec<f64>,
}

impl PreambleSync {
    /// The default synchronizer: a length-7 Barker sequence — the
    /// binary pattern with minimal off-peak autocorrelation, so partial
    /// overlaps score poorly — searched over `max_offset` windows, no
    /// drift correction.
    pub fn barker7(max_offset: usize) -> PreambleSync {
        PreambleSync {
            pattern: vec![1, 1, 1, 0, 0, 1, 0],
            max_offset,
            drift_grid: vec![0.0],
        }
    }

    /// Adds a symmetric drift grid of `steps` points per side, `step`
    /// apart (e.g. `with_drift(2, 0.01)` → ±1 %, ±2 %).
    pub fn with_drift(mut self, steps: usize, step: f64) -> PreambleSync {
        let mut grid = vec![0.0];
        for i in 1..=steps {
            grid.push(step * i as f64);
            grid.push(-step * i as f64);
        }
        self.drift_grid = grid;
        self
    }

    /// Index of window `w` of the *transmission* (preamble window 0 is
    /// `w = 0`) under `offset`/`drift`.
    fn index(&self, offset: usize, drift: f64, w: usize) -> usize {
        offset + (w as f64 * (1.0 + drift)).round().max(0.0) as usize
    }

    /// Searches (offset, drift) space for the best preamble alignment.
    ///
    /// Scoring thresholds each observation into on/off via
    /// `cal.trecv` and counts pattern agreements; ties prefer zero
    /// drift, then the earliest offset, so the result is deterministic.
    pub fn align(&self, obs: &[WindowObservation], cal: &Calibration) -> Alignment {
        let on: Vec<u8> = obs.iter().map(|o| (o.events >= cal.trecv) as u8).collect();
        let mut best = Alignment {
            offset: 0,
            drift: 0.0,
            matches: 0,
            out_of: self.pattern.len(),
        };
        let mut best_key = (0usize, f64::INFINITY, usize::MAX);
        for offset in 0..=self.max_offset {
            for &drift in &self.drift_grid {
                let matches = self
                    .pattern
                    .iter()
                    .enumerate()
                    .filter(|&(w, &p)| on.get(self.index(offset, drift, w)) == Some(&p))
                    .count();
                // Higher match count wins; then smaller |drift|; then
                // smaller offset. The key orders "better" as greater.
                let key = (matches, -drift.abs(), usize::MAX - offset);
                if key.0 > best_key.0
                    || (key.0 == best_key.0 && key.1 > best_key.1)
                    || (key.0 == best_key.0 && key.1 == best_key.1 && key.2 > best_key.2)
                {
                    best_key = key;
                    best = Alignment {
                        offset,
                        drift,
                        matches,
                        out_of: self.pattern.len(),
                    };
                }
            }
        }
        best
    }

    /// Extracts the `n` payload windows following the preamble under
    /// `alignment`. Out-of-range windows yield empty observations (the
    /// receiver stopped watching — those windows decode as silence).
    pub fn extract_payload(
        &self,
        obs: &[WindowObservation],
        alignment: &Alignment,
        n: usize,
    ) -> Vec<WindowObservation> {
        (0..n)
            .map(|i| {
                let w = self.pattern.len() + i;
                obs.get(self.index(alignment.offset, alignment.drift, w))
                    .copied()
                    .unwrap_or_default()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_obs() -> WindowObservation {
        WindowObservation {
            events: 3,
            accesses_before_event: 5,
            accesses: 40,
        }
    }

    fn off_obs() -> WindowObservation {
        WindowObservation {
            events: 0,
            accesses_before_event: 40,
            accesses: 40,
        }
    }

    /// Builds an observation stream: `lead` idle windows, then the
    /// pattern, then `payload` on/off windows.
    fn stream(lead: usize, sync: &PreambleSync, payload: &[u8]) -> Vec<WindowObservation> {
        let mut v = vec![off_obs(); lead];
        for &p in &sync.pattern {
            v.push(if p == 1 { on_obs() } else { off_obs() });
        }
        for &p in payload {
            v.push(if p == 1 { on_obs() } else { off_obs() });
        }
        v
    }

    #[test]
    fn finds_the_preamble_at_any_lead() {
        let sync = PreambleSync::barker7(10);
        for lead in [0usize, 1, 4, 9] {
            let obs = stream(lead, &sync, &[1, 0, 1]);
            let a = sync.align(&obs, &Calibration::nominal(1));
            assert_eq!(a.offset, lead, "lead {lead}");
            assert_eq!(a.matches, 7);
            assert!(a.locked());
            let payload = sync.extract_payload(&obs, &a, 3);
            assert_eq!(payload[0].events, 3);
            assert_eq!(payload[1].events, 0);
            assert_eq!(payload[2].events, 3);
        }
    }

    #[test]
    fn tolerates_a_corrupted_preamble_window() {
        let sync = PreambleSync::barker7(6);
        let mut obs = stream(3, &sync, &[1, 1, 0]);
        obs[4] = off_obs(); // second preamble window loses its events
        let a = sync.align(&obs, &Calibration::nominal(1));
        assert_eq!(a.offset, 3);
        assert_eq!(a.matches, 6);
        assert!(a.locked());
    }

    #[test]
    fn unlocked_when_the_channel_is_silent() {
        let sync = PreambleSync::barker7(4);
        let obs = vec![off_obs(); 20];
        let a = sync.align(&obs, &Calibration::nominal(1));
        // Best "alignment" only matches the pattern's zero windows.
        assert_eq!(a.matches, 3);
        assert!(!a.locked());
    }

    #[test]
    fn drift_correction_recovers_a_stretched_clock() {
        // Receiver windows run 25% short: transmission window w lands at
        // observation round(w * 1.25) (every 4th sender window spans two
        // receiver windows; sampling at the stretched grid is exact for
        // this synthetic stream).
        let sync = PreambleSync::barker7(4).with_drift(1, 0.25);
        let tx: Vec<u8> = sync
            .pattern
            .iter()
            .copied()
            .chain([1, 0, 0, 1, 1, 0, 1])
            .collect();
        let lead = 2;
        let total = lead + (tx.len() as f64 * 1.25).ceil() as usize + 2;
        let mut obs = vec![off_obs(); total];
        for (w, &sym) in tx.iter().enumerate() {
            let idx = lead + (w as f64 * 1.25).round() as usize;
            obs[idx] = if sym == 1 { on_obs() } else { off_obs() };
        }
        let a = sync.align(&obs, &Calibration::nominal(1));
        assert_eq!(a.offset, lead);
        assert!((a.drift - 0.25).abs() < 1e-12, "drift {}", a.drift);
        let payload = sync.extract_payload(&obs, &a, 7);
        let decoded: Vec<u8> = payload.iter().map(|o| (o.events >= 1) as u8).collect();
        assert_eq!(decoded, vec![1, 0, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn zero_drift_preferred_on_ties() {
        let sync = PreambleSync::barker7(2).with_drift(2, 0.01);
        let obs = stream(0, &sync, &[1]);
        let a = sync.align(&obs, &Calibration::nominal(1));
        assert_eq!(a.drift, 0.0);
        assert_eq!(a.offset, 0);
    }
}
