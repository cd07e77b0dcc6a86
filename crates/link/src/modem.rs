//! Modulators: coded bits ↔ per-window transmission symbols.
//!
//! A [`Modulator`] decides how the sender's activation intensity encodes
//! bits into the defense's maintenance behavior, window by window, and
//! how the receiver's per-window [`WindowObservation`]s turn back into
//! bits. The sender side is expressed entirely through the existing
//! [`lh_attacks::CovertSender`] symbol/intensity vocabulary, so every
//! modulator runs against every defense unchanged.

use lh_attacks::WindowObservation;
use lh_dram::Span;

/// Receiver-side decision parameters learned from a per-defense
/// calibration transmission (see `pipeline::calibrate`).
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Events per window at/above which a window counts as "on".
    pub trecv: u32,
    /// Ascending access-count boundaries separating non-zero amplitude
    /// symbols (multi-level modulation only; empty otherwise).
    pub bins: Vec<u32>,
    /// Mean events observed per "on" calibration window.
    pub on_events: f64,
    /// Mean events observed per idle calibration window.
    pub off_events: f64,
}

impl Calibration {
    /// A fallback calibration: one event marks an "on" window, no
    /// amplitude bins. This is the paper's PRAC-channel assumption.
    pub fn nominal(trecv: u32) -> Calibration {
        Calibration {
            trecv,
            bins: Vec::new(),
            on_events: f64::NAN,
            off_events: f64::NAN,
        }
    }

    /// Whether the calibration saw an actually usable channel (the "on"
    /// windows were distinguishable from the idle ones).
    pub fn separable(&self) -> bool {
        self.on_events > self.off_events
    }
}

/// A modulation scheme over maintenance-window counts.
pub trait Modulator: Send + Sync {
    /// Stable name used in unit labels and reports.
    fn name(&self) -> &'static str;

    /// Number of window-symbol levels, including the idle symbol 0. The
    /// sender's intensity table has exactly this many entries.
    fn symbol_levels(&self) -> u8;

    /// The symbol transmitted for a sync-preamble "on" window — always
    /// the highest-intensity level.
    fn on_symbol(&self) -> u8 {
        self.symbol_levels() - 1
    }

    /// Information rate in coded bits per transmission window.
    fn bits_per_window(&self) -> f64;

    /// Windows consumed transmitting `n_bits` coded bits.
    fn windows_for(&self, n_bits: usize) -> usize;

    /// Maps coded bits to the per-window symbol schedule
    /// (`windows_for(bits.len())` symbols).
    fn modulate(&self, bits: &[u8]) -> Vec<u8>;

    /// Per-symbol sender think times (`None` = idle window), indexed by
    /// symbol. Smaller think = harder hammering = earlier maintenance.
    fn intensity_table(&self, think: Span) -> Vec<Option<Span>>;

    /// Recovers coded bits from the aligned payload observations. The
    /// slice holds exactly the payload windows, in order.
    fn demodulate(&self, obs: &[WindowObservation], cal: &Calibration) -> Vec<u8>;
}

impl std::fmt::Debug for dyn Modulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Modulator({})", self.name())
    }
}

/// On/off keying: one bit per window; 1 = hammer, 0 = idle.
///
/// This is exactly the paper's §6.3 (PRAC) and §7.3 (RFM) binary
/// channel; `Calibration::trecv` is the paper's `Trecv` threshold.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnOffKeying;

impl Modulator for OnOffKeying {
    fn name(&self) -> &'static str {
        "ook"
    }

    fn symbol_levels(&self) -> u8 {
        2
    }

    fn bits_per_window(&self) -> f64 {
        1.0
    }

    fn windows_for(&self, n_bits: usize) -> usize {
        n_bits
    }

    fn modulate(&self, bits: &[u8]) -> Vec<u8> {
        bits.iter().map(|&b| b & 1).collect()
    }

    fn intensity_table(&self, think: Span) -> Vec<Option<Span>> {
        vec![None, Some(think)]
    }

    fn demodulate(&self, obs: &[WindowObservation], cal: &Calibration) -> Vec<u8> {
        obs.iter().map(|o| (o.events >= cal.trecv) as u8).collect()
    }
}

/// Pulse-position modulation: `log2(slots)` bits per frame of `slots`
/// windows, carried by *which* window of the frame the sender hammers.
///
/// PPM trades rate for robustness against amplitude noise: the decision
/// is a per-frame argmax over event counts, so a uniform noise floor
/// cancels out instead of flipping bits.
#[derive(Debug, Clone, Copy)]
pub struct PulsePosition {
    /// Windows per frame (power of two ≥ 2).
    pub slots: usize,
}

impl PulsePosition {
    /// A PPM modulator with `slots` windows per frame.
    ///
    /// # Panics
    ///
    /// Panics unless `slots` is a power of two ≥ 2.
    pub fn new(slots: usize) -> PulsePosition {
        assert!(
            slots.is_power_of_two() && slots >= 2,
            "PPM slots must be a power of two ≥ 2, got {slots}"
        );
        PulsePosition { slots }
    }

    /// Bits per frame.
    fn k(&self) -> usize {
        self.slots.trailing_zeros() as usize
    }
}

impl Modulator for PulsePosition {
    fn name(&self) -> &'static str {
        "ppm"
    }

    fn symbol_levels(&self) -> u8 {
        2
    }

    fn bits_per_window(&self) -> f64 {
        self.k() as f64 / self.slots as f64
    }

    fn windows_for(&self, n_bits: usize) -> usize {
        n_bits.div_ceil(self.k()) * self.slots
    }

    fn modulate(&self, bits: &[u8]) -> Vec<u8> {
        let k = self.k();
        let mut symbols = Vec::with_capacity(self.windows_for(bits.len()));
        for chunk in bits.chunks(k) {
            let mut v = 0usize;
            for &b in chunk {
                v = (v << 1) | usize::from(b & 1);
            }
            // Pad the final partial chunk with zeros on the right, as the
            // analysis-crate symbol packing does.
            v <<= k - chunk.len();
            for slot in 0..self.slots {
                symbols.push(u8::from(slot == v));
            }
        }
        symbols
    }

    fn intensity_table(&self, think: Span) -> Vec<Option<Span>> {
        vec![None, Some(think)]
    }

    fn demodulate(&self, obs: &[WindowObservation], cal: &Calibration) -> Vec<u8> {
        let k = self.k();
        let mut bits = Vec::with_capacity(obs.len() / self.slots * k);
        for frame in obs.chunks(self.slots) {
            // Argmax events, earliest slot winning ties. A frame with no
            // events at all decodes as slot 0 — same tie-break.
            let mut best = 0usize;
            for (slot, o) in frame.iter().enumerate() {
                if o.events > frame[best].events {
                    best = slot;
                }
            }
            let _ = cal; // PPM needs no threshold: the argmax decides.
            for i in (0..k).rev() {
                bits.push(((best >> i) & 1) as u8);
            }
        }
        bits
    }
}

/// Multi-level amplitude modulation: `log2(levels)` bits per window,
/// encoded in *how hard* the sender hammers — harder hammering triggers
/// the preventive action after fewer receiver accesses (§6.3's
/// multibit extension, generalized).
///
/// Any alphabet size ≥ 2 works in the symbol domain
/// ([`MultiLevelAmplitude::symbol_of`], [`Modulator::intensity_table`]
/// — the §6.3 ternary channel uses 3); the *bit-domain*
/// [`Modulator::modulate`]/[`Modulator::demodulate`] path additionally
/// needs a power of two so windows carry a whole number of bits.
#[derive(Debug, Clone, Copy)]
pub struct MultiLevelAmplitude {
    /// Symbol alphabet size including idle (≥ 2).
    pub levels: u8,
}

impl MultiLevelAmplitude {
    /// An amplitude modulator with `levels` intensity levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn new(levels: u8) -> MultiLevelAmplitude {
        assert!(levels >= 2, "amplitude needs at least 2 levels");
        MultiLevelAmplitude { levels }
    }

    /// Bits per window for the bit-domain path.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is a power of two.
    fn k(&self) -> usize {
        assert!(
            self.levels.is_power_of_two(),
            "bit-domain (de)modulation needs a power-of-two alphabet, got {} levels",
            self.levels
        );
        self.levels.trailing_zeros() as usize
    }

    /// Decodes one observation to a symbol via the calibrated bins:
    /// no event → idle symbol 0; otherwise fewer receiver accesses
    /// before the event means the sender hammered harder → higher
    /// symbol. This is the decision rule that used to live on
    /// `CovertReceiver::decode_multibit`.
    pub fn symbol_of(&self, o: &WindowObservation, bins: &[u32]) -> u8 {
        if o.events == 0 {
            return 0;
        }
        let c = o.accesses_before_event;
        let mut sym = bins.len() as u8 + 1;
        for (i, &b) in bins.iter().enumerate() {
            if c >= b {
                sym = (bins.len() - i) as u8;
            }
        }
        sym.min(self.levels - 1)
    }
}

impl Modulator for MultiLevelAmplitude {
    fn name(&self) -> &'static str {
        "mla"
    }

    fn symbol_levels(&self) -> u8 {
        self.levels
    }

    fn bits_per_window(&self) -> f64 {
        f64::from(self.levels).log2()
    }

    fn windows_for(&self, n_bits: usize) -> usize {
        n_bits.div_ceil(self.k())
    }

    fn modulate(&self, bits: &[u8]) -> Vec<u8> {
        let k = self.k();
        bits.chunks(k)
            .map(|chunk| {
                let mut v = 0u8;
                for &b in chunk {
                    v = (v << 1) | (b & 1);
                }
                v << (k - chunk.len())
            })
            .collect()
    }

    fn intensity_table(&self, think: Span) -> Vec<Option<Span>> {
        // Geometric intensity ladder: symbol s hammers with think time
        // 3^(levels-1-s) × think, so each level's preventive action
        // arrives ~3× later than the next. Matches the §6.3 table for
        // 2 and 4 levels ([30, 90, 270 ns] at the default think).
        let mut table = vec![None];
        for s in 1..self.levels {
            table.push(Some(think * 3u64.pow(u32::from(self.levels - 1 - s))));
        }
        table
    }

    fn demodulate(&self, obs: &[WindowObservation], cal: &Calibration) -> Vec<u8> {
        let k = self.k();
        let mut bits = Vec::with_capacity(obs.len() * k);
        for o in obs {
            let sym = self.symbol_of(o, &cal.bins);
            for i in (0..k).rev() {
                bits.push((sym >> i) & 1);
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(events: u32, before: u32) -> WindowObservation {
        WindowObservation {
            events,
            accesses_before_event: before,
            accesses: before + 10,
        }
    }

    #[test]
    fn ook_roundtrips_through_thresholding() {
        let m = OnOffKeying;
        let bits = vec![1, 0, 1, 1, 0];
        assert_eq!(m.modulate(&bits), bits);
        let stream: Vec<WindowObservation> =
            bits.iter().map(|&b| obs(u32::from(b) * 3, 100)).collect();
        assert_eq!(m.demodulate(&stream, &Calibration::nominal(1)), bits);
        assert_eq!(m.windows_for(5), 5);
    }

    #[test]
    fn ppm_places_one_pulse_per_frame() {
        let m = PulsePosition::new(4);
        let bits = vec![1, 0, 0, 1]; // symbols 2 and 1
        let symbols = m.modulate(&bits);
        assert_eq!(symbols, vec![0, 0, 1, 0, 0, 1, 0, 0]);
        assert_eq!(m.windows_for(4), 8);
        assert!((m.bits_per_window() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ppm_argmax_decodes_and_breaks_ties_low() {
        let m = PulsePosition::new(4);
        let frame = vec![obs(1, 0), obs(4, 0), obs(1, 0), obs(0, 0)];
        assert_eq!(m.demodulate(&frame, &Calibration::nominal(1)), vec![0, 1]);
        let silent = vec![obs(0, 0); 4];
        assert_eq!(m.demodulate(&silent, &Calibration::nominal(1)), vec![0, 0]);
    }

    #[test]
    fn ppm_roundtrips_with_padding() {
        let m = PulsePosition::new(4);
        let bits = vec![1, 1, 0]; // second frame padded to 0b00
        let symbols = m.modulate(&bits);
        assert_eq!(symbols.len(), 8);
        let stream: Vec<WindowObservation> =
            symbols.iter().map(|&s| obs(u32::from(s) * 2, 50)).collect();
        let decoded = m.demodulate(&stream, &Calibration::nominal(1));
        assert_eq!(&decoded[..3], &bits[..]);
    }

    #[test]
    fn mla_symbol_mapping_matches_the_legacy_multibit_rule() {
        let m = MultiLevelAmplitude::new(4);
        let bins = vec![140, 190];
        // The exact cases the old decode_multibit test pinned.
        assert_eq!(m.symbol_of(&obs(0, 200), &bins), 0);
        assert_eq!(m.symbol_of(&obs(1, 210), &bins), 1);
        assert_eq!(m.symbol_of(&obs(1, 160), &bins), 2);
        assert_eq!(m.symbol_of(&obs(1, 100), &bins), 3);
    }

    #[test]
    fn mla_modulates_two_bits_per_window() {
        let m = MultiLevelAmplitude::new(4);
        assert_eq!(m.modulate(&[1, 0, 0, 1, 1, 1]), vec![2, 1, 3]);
        assert_eq!(m.windows_for(6), 3);
        let table = m.intensity_table(Span::from_ns(30));
        assert_eq!(table[0], None);
        assert_eq!(table[1], Some(Span::from_ns(270)));
        assert_eq!(table[2], Some(Span::from_ns(90)));
        assert_eq!(table[3], Some(Span::from_ns(30)));
    }

    #[test]
    fn on_symbol_is_the_hardest_level() {
        assert_eq!(OnOffKeying.on_symbol(), 1);
        assert_eq!(PulsePosition::new(8).on_symbol(), 1);
        assert_eq!(MultiLevelAmplitude::new(4).on_symbol(), 3);
    }

    #[test]
    #[should_panic]
    fn ppm_rejects_non_power_of_two() {
        let _ = PulsePosition::new(3);
    }

    #[test]
    fn ternary_mla_works_in_the_symbol_domain() {
        let m = MultiLevelAmplitude::new(3);
        assert_eq!(m.intensity_table(Span::from_ns(30)).len(), 3);
        assert_eq!(m.on_symbol(), 2);
        assert!((m.bits_per_window() - 3.0f64.log2()).abs() < 1e-12);
        let bins = vec![100];
        assert_eq!(m.symbol_of(&obs(0, 150), &bins), 0);
        assert_eq!(m.symbol_of(&obs(1, 150), &bins), 1);
        assert_eq!(m.symbol_of(&obs(1, 50), &bins), 2);
    }

    #[test]
    #[should_panic]
    fn ternary_mla_rejects_bit_domain_modulation() {
        let _ = MultiLevelAmplitude::new(3).modulate(&[1, 0]);
    }
}
