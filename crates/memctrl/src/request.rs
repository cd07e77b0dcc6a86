//! Memory requests and completions.

use lh_dram::{DramAddr, Time};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load (the requester waits for the data).
    Read,
    /// A store / writeback (posted; the requester does not wait).
    Write,
}

/// A request entering the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique id assigned by the issuer.
    pub id: u64,
    /// Decoded DRAM location.
    pub addr: DramAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// When the request arrived at the controller.
    pub arrival: Time,
    /// Identifier of the issuing agent (core / process), for attribution.
    pub source: u32,
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// The issuing agent.
    pub(crate) source: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// The request's DRAM location.
    pub(crate) addr: DramAddr,
    /// Arrival time at the controller.
    pub arrival: Time,
    /// When the data burst finished (read data available / write retired).
    pub finished: Time,
}

impl Completion {
    /// Queueing + service latency inside the memory system.
    pub fn latency(&self) -> lh_dram::Span {
        self.finished - self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_dram::{BankId, Span};

    #[test]
    fn completion_latency() {
        let c = Completion {
            id: 1,
            source: 0,
            kind: AccessKind::Read,
            addr: DramAddr::new(BankId::new(0, 0, 0, 0), 1, 2),
            arrival: Time::from_ns(100),
            finished: Time::from_ns(164),
        };
        assert_eq!(c.latency(), Span::from_ns(64));
    }
}
