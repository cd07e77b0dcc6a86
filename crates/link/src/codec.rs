//! Bit-level channel codecs.
//!
//! A [`Codec`] turns message bits into coded bits before modulation and
//! recovers the message (correcting or at least detecting channel
//! errors) after demodulation. Implementations must be deterministic and
//! rate-stable: [`Codec::coded_len`] is a pure function of the message
//! length, so the link pipeline can size transmission windows up front.

/// Outcome of decoding a (possibly corrupted) coded bit string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// Recovered message bits. May be longer than the original message
    /// when the codec pads to a block size; callers truncate.
    pub bits: Vec<u8>,
    /// Frames the codec could delimit (0 for unframed codecs).
    pub frames: usize,
    /// Frames whose integrity check failed (0 for codecs without one).
    pub frame_errors: usize,
}

/// A forward-error-correction or framing scheme over the bit channel.
pub trait Codec: Send + Sync {
    /// Stable name used in unit labels and reports.
    fn name(&self) -> &'static str;

    /// Coded length for an `n`-bit message (including padding).
    fn coded_len(&self, n: usize) -> usize;

    /// Encodes message bits into coded bits.
    fn encode(&self, bits: &[u8]) -> Vec<u8>;

    /// Decodes coded bits (clamped to 0/1 by the caller) back into
    /// message bits. `coded` must have the length `encode` produced;
    /// codecs tolerate arbitrary bit errors within it.
    fn decode(&self, coded: &[u8]) -> Decoded;
}

impl std::fmt::Debug for dyn Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Codec({})", self.name())
    }
}

/// The identity codec: coded bits are the message bits.
///
/// This is the configuration the paper's §6.3/§7.3 channels run — no
/// redundancy, every window carries payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain;

impl Codec for Plain {
    fn name(&self) -> &'static str {
        "plain"
    }

    fn coded_len(&self, n: usize) -> usize {
        n
    }

    fn encode(&self, bits: &[u8]) -> Vec<u8> {
        bits.to_vec()
    }

    fn decode(&self, coded: &[u8]) -> Decoded {
        Decoded {
            bits: coded.to_vec(),
            frames: 0,
            frame_errors: 0,
        }
    }
}

/// Repetition code: every bit sent `k` times, majority decode.
///
/// Corrects up to `⌊k/2⌋` errors per bit at a rate of `1/k`.
#[derive(Debug, Clone, Copy)]
pub struct Repetition {
    /// Repetitions per bit (odd values give an unambiguous majority).
    pub(crate) k: usize,
}

impl Repetition {
    /// A `k`-repetition code.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Repetition {
        assert!(k > 0, "repetition factor must be positive");
        Repetition { k }
    }
}

impl Codec for Repetition {
    fn name(&self) -> &'static str {
        "rep"
    }

    fn coded_len(&self, n: usize) -> usize {
        n * self.k
    }

    fn encode(&self, bits: &[u8]) -> Vec<u8> {
        bits.iter()
            .flat_map(|&b| core::iter::repeat_n(b & 1, self.k))
            .collect()
    }

    fn decode(&self, coded: &[u8]) -> Decoded {
        let bits = coded
            .chunks(self.k)
            .map(|c| {
                let ones = c.iter().filter(|&&b| b != 0).count();
                // Ties (even k) round towards 1: the channels' dominant
                // error mode is missing an event, i.e. 1 → 0.
                (ones * 2 >= c.len()) as u8
            })
            .collect();
        Decoded {
            bits,
            frames: 0,
            frame_errors: 0,
        }
    }
}

/// Hamming(7,4): four data bits per seven-bit codeword, corrects any
/// single bit error per codeword.
///
/// Bit positions follow the classic construction: positions 1–7 hold
/// `p1 p2 d1 p4 d2 d3 d4`, each parity bit covering the positions whose
/// index has the matching bit set, so the syndrome *is* the (1-based)
/// error position.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hamming74;

impl Codec for Hamming74 {
    fn name(&self) -> &'static str {
        "hamming74"
    }

    fn coded_len(&self, n: usize) -> usize {
        n.div_ceil(4) * 7
    }

    fn encode(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.coded_len(bits.len()));
        for chunk in bits.chunks(4) {
            let d = |i: usize| chunk.get(i).map_or(0, |&b| b & 1);
            let (d1, d2, d3, d4) = (d(0), d(1), d(2), d(3));
            let p1 = d1 ^ d2 ^ d4;
            let p2 = d1 ^ d3 ^ d4;
            let p4 = d2 ^ d3 ^ d4;
            out.extend_from_slice(&[p1, p2, d1, p4, d2, d3, d4]);
        }
        out
    }

    fn decode(&self, coded: &[u8]) -> Decoded {
        let mut bits = Vec::with_capacity(coded.len() / 7 * 4);
        for chunk in coded.chunks(7) {
            let mut w = [0u8; 7];
            for (i, &b) in chunk.iter().enumerate() {
                w[i] = b & 1;
            }
            // Syndrome: each parity check sums the positions (1-based)
            // with the corresponding index bit set.
            let s1 = w[0] ^ w[2] ^ w[4] ^ w[6];
            let s2 = w[1] ^ w[2] ^ w[5] ^ w[6];
            let s4 = w[3] ^ w[4] ^ w[5] ^ w[6];
            let syndrome = (usize::from(s4) << 2) | (usize::from(s2) << 1) | usize::from(s1);
            if syndrome != 0 && chunk.len() == 7 {
                w[syndrome - 1] ^= 1;
            }
            bits.extend_from_slice(&[w[2], w[4], w[5], w[6]]);
        }
        Decoded {
            bits,
            frames: 0,
            frame_errors: 0,
        }
    }
}

/// CRC-8 (polynomial 0x07) over a bit string, MSB-first.
pub fn crc8(bits: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in bits {
        crc ^= (b & 1) << 7;
        crc = if crc & 0x80 != 0 {
            (crc << 1) ^ 0x07
        } else {
            crc << 1
        };
    }
    crc
}

/// CRC-framed packets: the message is cut into fixed-size frames, each
/// followed by its CRC-8.
///
/// The codec corrects nothing — it *detects*: corrupted frames are
/// counted in [`Decoded::frame_errors`], which the link layer surfaces
/// as packet loss. Data bits pass through regardless so bit-error rates
/// stay comparable across codecs.
#[derive(Debug, Clone, Copy)]
pub struct CrcFramed {
    /// Payload bits per frame (the final frame may be shorter; its CRC
    /// covers whatever it carries).
    pub(crate) frame_bits: usize,
}

impl CrcFramed {
    /// Frames of `frame_bits` payload bits plus an 8-bit CRC each.
    ///
    /// # Panics
    ///
    /// Panics if `frame_bits` is zero.
    pub fn new(frame_bits: usize) -> CrcFramed {
        assert!(frame_bits > 0, "frames need at least one payload bit");
        CrcFramed { frame_bits }
    }
}

impl Codec for CrcFramed {
    fn name(&self) -> &'static str {
        "crc8"
    }

    fn coded_len(&self, n: usize) -> usize {
        n + n.div_ceil(self.frame_bits) * 8
    }

    fn encode(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.coded_len(bits.len()));
        for frame in bits.chunks(self.frame_bits) {
            out.extend(frame.iter().map(|&b| b & 1));
            let crc = crc8(frame);
            out.extend((0..8).rev().map(|i| (crc >> i) & 1));
        }
        out
    }

    fn decode(&self, coded: &[u8]) -> Decoded {
        let mut bits = Vec::new();
        let mut frames = 0;
        let mut frame_errors = 0;
        for frame in coded.chunks(self.frame_bits + 8) {
            let payload_len = frame.len().saturating_sub(8);
            let (payload, crc_bits) = frame.split_at(payload_len);
            frames += 1;
            let received = crc_bits.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1));
            if crc8(payload) != received {
                frame_errors += 1;
            }
            bits.extend(payload.iter().map(|&b| b & 1));
        }
        Decoded {
            bits,
            frames,
            frame_errors,
        }
    }
}

/// Deterministically flips each bit with probability `p` — the noisy
/// channel the codec tests (and anyone reasoning about correction
/// budgets) run messages through. SplitMix64 keeps it dependency-free
/// and reproducible for a given `seed`.
pub fn flip_bits(bits: &[u8], p: f64, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    bits.iter()
        .map(|&b| {
            let u = (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if u < p {
                (b & 1) ^ 1
            } else {
                b & 1
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_is_identity() {
        let bits = vec![1, 0, 1, 1, 0];
        assert_eq!(Plain.encode(&bits), bits);
        assert_eq!(Plain.decode(&bits).bits, bits);
        assert_eq!(Plain.coded_len(5), 5);
    }

    #[test]
    fn repetition_majority_corrects_single_flips() {
        let c = Repetition::new(3);
        let bits = vec![1, 0, 1];
        let mut coded = c.encode(&bits);
        assert_eq!(coded.len(), c.coded_len(3));
        coded[1] ^= 1; // one flip inside the first bit's triple
        coded[5] ^= 1; // and one inside the second's
        assert_eq!(c.decode(&coded).bits, bits);
    }

    #[test]
    fn repetition_even_k_tie_rounds_to_one() {
        let c = Repetition::new(2);
        assert_eq!(c.decode(&[1, 0]).bits, vec![1]);
    }

    #[test]
    fn hamming_corrects_any_single_error_per_block() {
        let bits = vec![1, 0, 1, 1, 0, 1, 0, 0];
        let coded = Hamming74.encode(&bits);
        assert_eq!(coded.len(), 14);
        for pos in 0..7 {
            let mut corrupted = coded.clone();
            corrupted[pos] ^= 1;
            assert_eq!(
                Hamming74.decode(&corrupted).bits,
                bits,
                "flip at {pos} must be corrected"
            );
        }
    }

    #[test]
    fn hamming_pads_partial_blocks_with_zeros() {
        let bits = vec![1, 1];
        let coded = Hamming74.encode(&bits);
        assert_eq!(coded.len(), 7);
        let decoded = Hamming74.decode(&coded);
        assert_eq!(&decoded.bits[..2], &bits[..]);
        assert_eq!(&decoded.bits[2..], &[0, 0]);
    }

    #[test]
    fn crc_framing_detects_corruption_and_passes_data_through() {
        let c = CrcFramed::new(8);
        let bits: Vec<u8> = (0..16).map(|i| (i % 3 == 0) as u8).collect();
        let mut coded = c.encode(&bits);
        assert_eq!(coded.len(), c.coded_len(16));
        let clean = c.decode(&coded);
        assert_eq!(clean.bits, bits);
        assert_eq!((clean.frames, clean.frame_errors), (2, 0));
        coded[3] ^= 1;
        let dirty = c.decode(&coded);
        assert_eq!(dirty.frames, 2);
        assert_eq!(dirty.frame_errors, 1, "the corrupted frame is flagged");
        assert_eq!(dirty.bits.len(), bits.len());
    }

    #[test]
    fn crc8_changes_on_any_single_flip() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let base = crc8(&bits);
        for i in 0..bits.len() {
            let mut b = bits.clone();
            b[i] ^= 1;
            assert_ne!(crc8(&b), base, "flip at {i} must change the CRC");
        }
    }

    #[test]
    fn flip_bits_is_deterministic_and_rate_plausible() {
        let bits = vec![0u8; 10_000];
        let a = flip_bits(&bits, 0.1, 7);
        let b = flip_bits(&bits, 0.1, 7);
        assert_eq!(a, b);
        let flips = a.iter().filter(|&&x| x == 1).count();
        assert!((800..1200).contains(&flips), "{flips} flips at p=0.1");
        assert_eq!(flip_bits(&bits, 0.0, 7), bits);
    }
}
