//! Window-stream synchronization: preamble detection.
//!
//! The paper's sender and receiver agree on the wall clock out of band;
//! a real link cannot. [`PreambleSync`] removes that assumption: the
//! sender prepends a known on/off pattern, and the receiver — which may
//! have started observing windows early or late — searches the start
//! offsets for the one that best correlates with the preamble, then
//! reads the payload windows that follow it.

use lh_attacks::WindowObservation;

use crate::modem::Calibration;

/// The alignment a synchronizer recovered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alignment {
    /// Observation index where the preamble starts.
    pub offset: usize,
    /// Preamble windows that matched at this alignment.
    pub(crate) matches: usize,
    /// Preamble length the score is out of.
    pub(crate) out_of: usize,
}

impl Alignment {
    /// Whether the preamble was found convincingly (strictly better
    /// than a coin-flip over the pattern).
    pub fn locked(&self) -> bool {
        self.matches * 2 > self.out_of
    }
}

/// Preamble-correlating synchronizer.
///
/// The `Default` synchronizer is none at all: no preamble and nothing
/// to search — a receiver that shares the sender's clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreambleSync {
    /// On/off preamble pattern the sender transmits first (1 = the
    /// modulator's highest-intensity symbol, 0 = idle).
    pub pattern: Vec<u8>,
    /// Inclusive upper bound of the start-offset search, in windows.
    pub(crate) max_offset: usize,
}

impl PreambleSync {
    /// The default synchronizer: a length-7 Barker sequence — the
    /// binary pattern with minimal off-peak autocorrelation, so partial
    /// overlaps score poorly — searched over `max_offset` windows.
    pub(crate) fn barker7(max_offset: usize) -> PreambleSync {
        PreambleSync {
            pattern: vec![1, 1, 1, 0, 0, 1, 0],
            max_offset,
        }
    }

    /// Searches the start offsets `0..=max_offset` for the best
    /// preamble alignment.
    ///
    /// Scoring thresholds each observation into on/off via
    /// `cal.trecv` and counts pattern agreements; ties keep the
    /// earliest offset, so the result is deterministic.
    pub(crate) fn align(&self, obs: &[WindowObservation], cal: &Calibration) -> Alignment {
        let on: Vec<u8> = obs.iter().map(|o| (o.events >= cal.trecv) as u8).collect();
        let mut best = Alignment {
            offset: 0,
            matches: 0,
            out_of: self.pattern.len(),
        };
        for offset in 0..=self.max_offset {
            let matches = self
                .pattern
                .iter()
                .enumerate()
                .filter(|&(w, &p)| on.get(offset + w) == Some(&p))
                .count();
            if matches > best.matches {
                best = Alignment {
                    offset,
                    matches,
                    out_of: self.pattern.len(),
                };
            }
        }
        best
    }

    /// Extracts the `n` payload windows following the preamble under
    /// `alignment`. Out-of-range windows yield empty observations (the
    /// receiver stopped watching — those windows decode as silence).
    pub(crate) fn extract_payload(
        &self,
        obs: &[WindowObservation],
        alignment: &Alignment,
        n: usize,
    ) -> Vec<WindowObservation> {
        (0..n)
            .map(|i| {
                let w = self.pattern.len() + i;
                obs.get(alignment.offset + w).copied().unwrap_or_default()
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
}
