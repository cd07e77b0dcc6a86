//! The sparse per-bank map keyed by row index that [`crate::RowCounters`]
//! and [`crate::DisturbTracker`] share.
//!
//! Row indices come from the simulator's own address mapping, never from
//! outside the program, so the map trades the std SipHash default (and
//! its collision-flooding protection) for one multiply: at simulator
//! command rates the hash is a measurable share of every ACT, PRE and
//! REF. Nothing observable may depend on the map's iteration order —
//! every reader either looks a row up or folds all entries under a
//! total order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for `u32` row indices: one multiply, then the high half folded
/// into the low one so power-of-two row strides still spread over the
/// table's low-bit bucket index.
#[derive(Debug, Default)]
pub struct RowHasher(u64);

impl Hasher for RowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u32(&mut self, n: u32) {
        let h = u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A sparse `row → V` map of one bank.
pub type RowMap<V> = HashMap<u32, V, BuildHasherDefault<RowHasher>>;
