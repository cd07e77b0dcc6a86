//! `memctrl` driver: a standalone controller under three closed-loop
//! request streams, once through `service` and once through
//! `service_batched`, which must complete the same requests at the same
//! instants.

use std::time::Instant;

use lh_defenses::DefenseConfig;
use lh_dram::{BankId, DeviceConfig, DramAddr, Geometry, Time};
use lh_memctrl::{AccessKind, Completion, CtrlConfig, CtrlScratch, MemRequest, MemoryController};

use crate::layers::mix64;
use crate::report::Report;
use crate::workloads::RunConfig;

/// Requests completed per shape and service path.
const REQUESTS: usize = 20_000;

/// One closed-loop request stream.
struct Shape {
    name: &'static str,
    /// Requests kept in flight.
    depth: usize,
    /// Share of writes, in percent.
    write_percent: u32,
    /// Confine the stream to three rows of one bank: every access is a
    /// row conflict, the attackers' pattern.
    one_bank: bool,
}

const SHAPES: [Shape; 3] = [
    // Every bank, 30 % writes, moderately deep queues: the sweep's mix.
    Shape {
        name: "mix",
        depth: 16,
        write_percent: 30,
        one_bank: false,
    },
    // Both queues held at capacity: the FR-FCFS scan at its longest.
    Shape {
        name: "deep",
        depth: 128,
        write_percent: 30,
        one_bank: false,
    },
    // One bank, two aggressor rows and a probe row, shallow queue.
    Shape {
        name: "hammer",
        depth: 4,
        write_percent: 0,
        one_bank: true,
    },
];

struct Driven {
    completions: Vec<Completion>,
    secs: f64,
    wakes: u64,
    commands: u64,
}

/// Request `id` of the stream: a pure function of `(seed, id)`, so both
/// service paths see the same requests whatever order they retire in.
fn request(shape: &Shape, seed: u64, id: u64, g: &Geometry) -> MemRequest {
    let addr = if shape.one_bank {
        DramAddr::new(BankId::new(0, 0, 0, 0), 2_000 + 2 * (id % 3) as u32, 0)
    } else {
        // Eight-line row visits, like the synthetic applications.
        let visit = mix64(seed ^ (id / 8).wrapping_mul(0x9e37_79b9));
        let bank = g.bank_from_flat(0, (visit % u64::from(g.banks_per_channel())) as usize);
        DramAddr::new(bank, 1_024 + (visit >> 32) as u32 % 2_048, (id % 8) as u32)
    };
    let write = mix64(!seed ^ id) % 100 < u64::from(shape.write_percent);
    MemRequest {
        id,
        addr,
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        arrival: Time::ZERO,
        source: 0,
    }
}

fn drive_shape(shape: &Shape, seed: u64, batched: bool) -> Driven {
    let mut mc = MemoryController::new(
        CtrlConfig::paper_default(),
        DeviceConfig::paper_default(),
        DefenseConfig::prac(128),
        seed,
    )
    .expect("the paper's configuration builds");
    let geometry = *mc.device().geometry();
    let mut scratch = CtrlScratch::for_controller(&mc);
    let mut completions = Vec::with_capacity(REQUESTS);
    let mut fresh = Vec::new();
    let mut held: Option<MemRequest> = None;
    let (mut issued, mut in_flight) = (0u64, 0usize);
    let mut now = Time::ZERO;
    let started = Instant::now();
    while completions.len() < REQUESTS {
        while in_flight < shape.depth && (held.is_some() || (issued as usize) < REQUESTS) {
            let mut req = held.take().unwrap_or_else(|| {
                issued += 1;
                request(shape, seed, issued - 1, &geometry)
            });
            req.arrival = now;
            match mc.enqueue(req) {
                Ok(()) => in_flight += 1,
                Err(back) => {
                    // That queue is full: offer the request again after
                    // the controller made progress.
                    held = Some(back);
                    break;
                }
            }
        }
        now = if batched {
            mc.service_batched(now, &mut scratch)
        } else {
            mc.service(now)
        };
        mc.drain_completed_into(&mut fresh);
        in_flight -= fresh.len();
        completions.append(&mut fresh);
    }
    let secs = started.elapsed().as_secs_f64();
    let d = mc.device().stats();
    Driven {
        completions,
        secs,
        wakes: mc.stats().service_calls,
        commands: d.activates + d.precharges + d.reads + d.writes + d.refreshes + d.rfms,
    }
}

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    for shape in &SHAPES {
        let legacy = drive_shape(shape, cfg.seed, false);
        let batched = drive_shape(shape, cfg.seed, true);
        report.checks.check(
            &format!(
                "memctrl.{}: service and service_batched complete identically",
                shape.name
            ),
            legacy.completions == batched.completions && legacy.wakes == batched.wakes,
        );
        let per_wake = |d: &Driven| d.secs * 1e9 / d.wakes as f64;
        report.metric_for("memctrl.service_ns_per_wake", shape.name, per_wake(&legacy));
        report.metric_for(
            "memctrl.service_batched_ns_per_wake",
            shape.name,
            per_wake(&batched),
        );
        report.metric_for(
            "memctrl.wakes_per_request",
            shape.name,
            batched.wakes as f64 / REQUESTS as f64,
        );
        if shape.name == "mix" {
            report.metric(
                "memctrl.cmds_per_wake.mix",
                batched.commands as f64 / batched.wakes as f64,
            );
        }
    }
}
