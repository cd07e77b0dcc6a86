//! Channel-capacity metrics (§5.2, Eq. 1 of the paper).

/// Binary entropy `H(e) = -e log2 e - (1-e) log2 (1-e)`.
///
/// `H(0) = H(1) = 0`, `H(0.5) = 1`.
///
/// # Panics
///
/// Panics if `e` is outside `[0, 1]`.
pub fn binary_entropy(e: f64) -> f64 {
    assert!((0.0..=1.0).contains(&e), "probability out of range: {e}");
    if e == 0.0 || e == 1.0 {
        return 0.0;
    }
    -e * e.log2() - (1.0 - e) * (1.0 - e).log2()
}

/// Channel capacity per Eq. 1: `RawBitRate × (1 − H(e))`, in the same
/// unit as `raw_bit_rate`.
pub fn channel_capacity(raw_bit_rate: f64, error_probability: f64) -> f64 {
    raw_bit_rate * (1.0 - binary_entropy(error_probability))
}

/// Outcome of a covert-channel transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelResult {
    /// Bits transmitted.
    pub bits: usize,
    /// Bits decoded incorrectly.
    pub bit_errors: usize,
    /// Raw bit rate in bits/second.
    pub raw_bit_rate: f64,
}

impl ChannelResult {
    /// Computes the result from sent/received bit strings and the wall
    /// time the transmission took (seconds).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or `seconds` is not positive.
    pub fn from_bits(sent: &[u8], received: &[u8], seconds: f64) -> ChannelResult {
        assert_eq!(sent.len(), received.len(), "bit strings must align");
        assert!(seconds > 0.0, "transmission time must be positive");
        let bit_errors = sent.iter().zip(received).filter(|(a, b)| a != b).count();
        ChannelResult {
            bits: sent.len(),
            bit_errors,
            raw_bit_rate: sent.len() as f64 / seconds,
        }
    }

    /// Error probability `e`.
    pub fn error_probability(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }

    /// Channel capacity in bits/second (Eq. 1).
    pub fn capacity(&self) -> f64 {
        channel_capacity(self.raw_bit_rate, self.error_probability().min(0.5))
    }

    /// Capacity in Kbps (the unit the paper reports).
    pub fn capacity_kbps(&self) -> f64 {
        self.capacity() / 1_000.0
    }

    /// Raw bit rate in Kbps.
    pub fn raw_kbps(&self) -> f64 {
        self.raw_bit_rate / 1_000.0
    }

    /// Merges several transmissions (e.g. the four message patterns of
    /// §6.3) into an aggregate result.
    ///
    /// Total when the input is empty or degenerate: an empty iterator
    /// merges to the all-zero result (0 bits, rate 0, capacity 0), a
    /// zero-bit entry contributes nothing, and an entry with bits but a
    /// non-positive rate ("the transmission never finished") pins the
    /// merged rate to 0 rather than poisoning it with NaN.
    pub fn merge<'a, I: IntoIterator<Item = &'a ChannelResult>>(results: I) -> ChannelResult {
        let mut bits = 0;
        let mut errors = 0;
        let mut secs = 0.0;
        let mut stalled = false;
        for r in results {
            bits += r.bits;
            errors += r.bit_errors;
            if r.bits > 0 {
                if r.raw_bit_rate > 0.0 {
                    secs += r.bits as f64 / r.raw_bit_rate;
                } else {
                    stalled = true;
                }
            }
        }
        ChannelResult {
            bits,
            bit_errors: errors,
            raw_bit_rate: if secs > 0.0 && !stalled {
                bits as f64 / secs
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_extremes() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_is_symmetric() {
        for e in [0.01, 0.1, 0.3, 0.45] {
            assert!((binary_entropy(e) - binary_entropy(1.0 - e)).abs() < 1e-12);
        }
    }

    #[test]
    fn capacity_matches_paper_example() {
        // §6.3: 39.0 Kbps raw at e=0.05 → 28.8 Kbps-ish capacity.
        let c = channel_capacity(39_000.0, 0.05) / 1000.0;
        assert!((27.0..30.0).contains(&c), "capacity {c}");
    }

    #[test]
    fn zero_error_capacity_equals_raw_rate() {
        assert_eq!(channel_capacity(48_700.0, 0.0), 48_700.0);
    }

    #[test]
    fn result_from_bits() {
        let sent = [1u8, 0, 1, 1, 0, 0, 1, 0];
        let recv = [1u8, 0, 0, 1, 0, 0, 1, 1];
        let r = ChannelResult::from_bits(&sent, &recv, 8.0 / 40_000.0);
        assert_eq!(r.bits, 8);
        assert_eq!(r.bit_errors, 2);
        assert!((r.error_probability() - 0.25).abs() < 1e-12);
        assert!((r.raw_kbps() - 40.0).abs() < 1e-9);
        assert!(r.capacity() < r.raw_bit_rate);
    }

    #[test]
    fn merge_pools_errors_and_rates() {
        let a = ChannelResult {
            bits: 100,
            bit_errors: 0,
            raw_bit_rate: 40_000.0,
        };
        let b = ChannelResult {
            bits: 100,
            bit_errors: 10,
            raw_bit_rate: 40_000.0,
        };
        let m = ChannelResult::merge([&a, &b]);
        assert_eq!(m.bits, 200);
        assert_eq!(m.bit_errors, 10);
        assert!((m.error_probability() - 0.05).abs() < 1e-12);
        assert!((m.raw_bit_rate - 40_000.0).abs() < 1e-6);
    }

    #[test]
    fn merge_of_nothing_is_the_zero_result() {
        let m = ChannelResult::merge([]);
        assert_eq!(m.bits, 0);
        assert_eq!(m.bit_errors, 0);
        assert_eq!(m.raw_bit_rate, 0.0);
        // Every derived metric stays finite and zero — no NaN, no
        // division by zero.
        assert_eq!(m.error_probability(), 0.0);
        assert_eq!(m.capacity(), 0.0);
        assert_eq!(m.capacity_kbps(), 0.0);
    }

    #[test]
    fn merge_tolerates_degenerate_entries_without_nan() {
        // A zero-bit result (e.g. a skipped pattern) contributes
        // nothing; 0/0 must not poison the aggregate.
        let empty = ChannelResult {
            bits: 0,
            bit_errors: 0,
            raw_bit_rate: 0.0,
        };
        let real = ChannelResult {
            bits: 100,
            bit_errors: 5,
            raw_bit_rate: 40_000.0,
        };
        let m = ChannelResult::merge([&empty, &real]);
        assert!(m.raw_bit_rate.is_finite());
        assert!((m.raw_bit_rate - 40_000.0).abs() < 1e-6);
        assert_eq!(m.bits, 100);

        // A stalled transmission (bits but no rate) means the aggregate
        // took unbounded time: the merged rate is 0, not inflated.
        let stalled = ChannelResult {
            bits: 100,
            bit_errors: 50,
            raw_bit_rate: 0.0,
        };
        let m = ChannelResult::merge([&stalled, &real]);
        assert_eq!(m.raw_bit_rate, 0.0);
        assert_eq!(m.bits, 200);
        assert!(m.capacity().is_finite());
        assert_eq!(m.capacity(), 0.0);
    }

    #[test]
    #[should_panic]
    fn entropy_rejects_out_of_range() {
        let _ = binary_entropy(1.5);
    }
}
