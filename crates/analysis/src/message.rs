//! Message encodings used by the covert-channel experiments.

/// The test-message patterns of §6.3 / §7.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessagePattern {
    /// All logic-1 bits.
    AllOnes,
    /// All logic-0 bits.
    AllZeros,
    /// `0101...01`.
    Checkered0,
    /// `1010...10`.
    Checkered1,
}

impl MessagePattern {
    /// The four patterns the paper transmits.
    pub fn paper_set() -> [MessagePattern; 4] {
        [
            MessagePattern::AllOnes,
            MessagePattern::AllZeros,
            MessagePattern::Checkered0,
            MessagePattern::Checkered1,
        ]
    }

    /// Generates `n` bits of this pattern.
    pub fn bits(&self, n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| match self {
                MessagePattern::AllOnes => 1,
                MessagePattern::AllZeros => 0,
                MessagePattern::Checkered0 => (i % 2) as u8,
                MessagePattern::Checkered1 => ((i + 1) % 2) as u8,
            })
            .collect()
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MessagePattern::AllOnes => "all-1s",
            MessagePattern::AllZeros => "all-0s",
            MessagePattern::Checkered0 => "checkered-0",
            MessagePattern::Checkered1 => "checkered-1",
        }
    }
}

/// Encodes ASCII text as MSB-first bits ("MICRO" → 40 bits, as in the
/// paper's Figs. 3 and 6).
pub fn bits_of_str(s: &str) -> Vec<u8> {
    s.bytes()
        .flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1))
        .collect()
}

/// Decodes MSB-first bits back to ASCII text (inverse of
/// [`bits_of_str`]). Trailing partial bytes are dropped.
pub fn str_of_bits(bits: &[u8]) -> String {
    bits.chunks_exact(8)
        .map(|chunk| chunk.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1)) as char)
        .collect()
}

/// Converts bits to base-`base` symbols for multibit transmission
/// (§6.3): each symbol carries `log2(base)` bits; the bit string is
/// consumed MSB-first in groups of `bits_per_symbol`.
pub fn bits_to_symbols(bits: &[u8], base: u8) -> Vec<u8> {
    assert!(
        base.is_power_of_two() && base >= 2,
        "base must be a power of two ≥ 2"
    );
    let k = base.trailing_zeros() as usize;
    bits.chunks(k)
        .map(|chunk| {
            let mut v = 0u8;
            for &b in chunk {
                v = (v << 1) | (b & 1);
            }
            // Pad the final partial chunk with zeros on the right.
            v << (k - chunk.len())
        })
        .collect()
}

/// Inverse of [`bits_to_symbols`], producing exactly `n_bits` bits.
pub fn symbols_to_bits(symbols: &[u8], base: u8, n_bits: usize) -> Vec<u8> {
    assert!(base.is_power_of_two() && base >= 2);
    let k = base.trailing_zeros() as usize;
    let mut bits = Vec::with_capacity(symbols.len() * k);
    for &s in symbols {
        for i in (0..k).rev() {
            bits.push((s >> i) & 1);
        }
    }
    bits.truncate(n_bits);
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_is_40_bits() {
        let bits = bits_of_str("MICRO");
        assert_eq!(bits.len(), 40);
        assert_eq!(str_of_bits(&bits), "MICRO");
        // 'M' = 0x4D = 0100_1101.
        assert_eq!(&bits[..8], &[0, 1, 0, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn patterns_have_expected_shape() {
        assert_eq!(MessagePattern::AllOnes.bits(4), vec![1, 1, 1, 1]);
        assert_eq!(MessagePattern::AllZeros.bits(4), vec![0, 0, 0, 0]);
        assert_eq!(MessagePattern::Checkered0.bits(4), vec![0, 1, 0, 1]);
        assert_eq!(MessagePattern::Checkered1.bits(4), vec![1, 0, 1, 0]);
        assert_eq!(MessagePattern::paper_set().len(), 4);
    }

    #[test]
    fn symbol_roundtrip_quaternary() {
        let bits = bits_of_str("Hi");
        let syms = bits_to_symbols(&bits, 4);
        assert_eq!(syms.len(), 8);
        assert!(syms.iter().all(|&s| s < 4));
        assert_eq!(symbols_to_bits(&syms, 4, bits.len()), bits);
    }

    #[test]
    fn symbol_roundtrip_with_padding() {
        let bits = vec![1, 0, 1]; // not a multiple of 2
        let syms = bits_to_symbols(&bits, 4);
        assert_eq!(syms, vec![0b10, 0b10]); // last chunk padded
        assert_eq!(symbols_to_bits(&syms, 4, 3), bits);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_base_panics() {
        let _ = bits_to_symbols(&[1, 0], 3);
    }
}
