//! `dram` driver: a bare `DramDevice` under a seeded open-page command
//! stream, each command issued at the instant `earliest_legal` names —
//! legal by that query's soundness property, so a `DramError` is a
//! failed operation.

use std::hint::black_box;
use std::time::Instant;

use lh_dram::{Command, DeviceConfig, DramDevice, PracConfig, Time};

use crate::layers::Rng;
use crate::report::Report;
use crate::workloads::RunConfig;

/// Commands per device (one device with PRAC counting, one without).
const COMMANDS: usize = 150_000;

/// The next command of an open-page stream over every bank: a column
/// access if the drawn row is open, else the PRE or ACT that gets there.
fn next_command(
    dev: &DramDevice,
    rng: &mut Rng,
    target: &mut Option<(usize, u32, u32)>,
) -> Command {
    let g = dev.geometry();
    let (flat, row, left) = target.take().unwrap_or_else(|| {
        (
            rng.below(g.banks_per_channel()) as usize,
            1_024 + rng.below(8_192),
            1 + rng.below(8),
        )
    });
    let bank = g.bank_from_flat(0, flat);
    match dev.open_row(bank) {
        Some(open) if open == row => {
            if left > 1 {
                *target = Some((flat, row, left - 1));
            }
            if rng.chance(25) {
                Command::Write { bank, col: left }
            } else {
                Command::Read { bank, col: left }
            }
        }
        Some(_) => {
            *target = Some((flat, row, left));
            Command::Precharge { bank }
        }
        None => {
            *target = Some((flat, row, left));
            Command::Activate { bank, row }
        }
    }
}

/// Drives one device configuration; returns `(query+issue seconds,
/// issue-only seconds, errors)`.
fn drive_device(prac: Option<PracConfig>, seed: u64) -> (f64, f64, u64) {
    let config = DeviceConfig {
        prac,
        seed,
        ..DeviceConfig::paper_default()
    };
    let fresh = || DramDevice::new(config.clone()).expect("the paper's device builds");
    let mut errors = 0;
    // Untimed: draw the stream (it depends on the open rows) and record
    // the schedule.
    let mut dev = fresh();
    let mut rng = Rng::new(seed);
    let mut target = None;
    let mut schedule = Vec::with_capacity(COMMANDS);
    let mut now = Time::ZERO;
    for _ in 0..COMMANDS {
        let cmd = next_command(&dev, &mut rng, &mut target);
        now = dev.earliest_legal(&cmd, now);
        errors += u64::from(dev.issue(&cmd, now).is_err());
        schedule.push((cmd, now));
    }
    // Timed: ask and issue on a fresh device, then issue only on
    // another; the difference is the legality query.
    let mut dev = fresh();
    let mut now = Time::ZERO;
    let started = Instant::now();
    for (cmd, _) in &schedule {
        now = dev.earliest_legal(cmd, now);
        errors += u64::from(dev.issue(cmd, now).is_err());
    }
    let both = started.elapsed().as_secs_f64();
    let mut dev = fresh();
    let started = Instant::now();
    for (cmd, at) in &schedule {
        errors += u64::from(black_box(dev.issue(cmd, *at)).is_err());
    }
    (both, started.elapsed().as_secs_f64(), errors)
}

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    let (both_a, issue_a, err_a) = drive_device(Some(PracConfig::paper_default()), cfg.seed);
    let (both_b, issue_b, err_b) = drive_device(None, cfg.seed);
    let n = (2 * COMMANDS) as f64;
    report.checks.check(
        "dram: every command issued at its earliest legal instant is accepted",
        err_a + err_b == 0,
    );
    let issue_ns = (issue_a + issue_b) * 1e9 / n;
    report.metric("dram.issue_ns", issue_ns);
    report.metric(
        "dram.earliest_legal_ns",
        ((both_a + both_b) * 1e9 / n - issue_ns).max(0.0),
    );
    report.metric("dram.cmds", n);
}
