//! Property-based tests on the total-time scheduling contract: progress,
//! exactly-once completion and latency sanity for arbitrary request
//! batches under every defense family, plus the three guarantees of
//! [`DramDevice::earliest_legal`] the controller's scheduler builds on —
//! it is *total* (never an error, even for transiently illegal
//! commands), *monotone* in `now`, and *agrees with actual issue
//! legality* at the returned instant.
//!
//! The last section pins the scheduler itself: the per-bank candidate
//! table's demand verdict must equal the per-entry oracle scan's before
//! and after every service call, and three closed-loop runs must
//! reproduce a recorded digest of their wakes, command stream,
//! completions and statistics — asserted by the tests themselves, so the
//! checks hold under `cargo test --release` too, not only through the
//! controller's `debug_assertions` shadows.
//!
//! [`DramDevice::earliest_legal`]: lh_dram::DramDevice::earliest_legal

use proptest::prelude::*;

use lh_defenses::trackers::BlockHammerConfig;
use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{
    BankId, Command, DeviceConfig, DramAddr, DramDevice, DramTiming, Geometry, PracConfig,
    RfmScope, Span, Time,
};
use lh_memctrl::{AccessKind, Completion, CtrlConfig, CtrlStats, MemRequest, MemoryController};
use lh_obs::flight::{self, EventBuffer, FlightEvent};

/// Builds a controller over the tiny geometry with the given defense.
fn controller(defense: DefenseConfig, seed: u64) -> MemoryController {
    let mut dev = DeviceConfig::paper_default();
    dev.geometry = Geometry::tiny();
    MemoryController::new(CtrlConfig::paper_default(), dev, defense, seed).unwrap()
}

/// A compact encoding of a request: (bank-group, bank, row, col, read?,
/// arrival offset in ns).
type ReqSpec = (u32, u32, u32, u32, bool, u64);

fn defense_of(sel: u8) -> DefenseConfig {
    match sel % 6 {
        0 => DefenseConfig::none(),
        1 => DefenseConfig::prac(64),
        2 => DefenseConfig::prfm(16),
        3 => DefenseConfig::fr_rfm(16, DramTiming::ddr5_4800().t_rc),
        4 => DefenseConfig::graphene(256, &DramTiming::ddr5_4800()),
        // N_RH = 64: the FR-RFM period floors at tRFM + 300 ns — the
        // pathologically dense schedule of the ROADMAP hot loop.
        _ => DefenseConfig::for_threshold(DefenseKind::FrRfm, 64, &DramTiming::ddr5_4800()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every accepted request completes exactly once, with a sane latency
    /// (at least the device's column latency, completion after arrival),
    /// under every defense family.
    #[test]
    fn all_requests_complete_exactly_once(
        specs in proptest::collection::vec(
            (0u32..2, 0u32..2, 0u32..32, 0u32..16, any::<bool>(), 0u64..40_000),
            1..60,
        ),
        defense_sel in 0u8..6,
    ) {
        let mut mc = controller(defense_of(defense_sel), 7);
        let g = Geometry::tiny();
        let mut reqs: Vec<MemRequest> = specs
            .iter()
            .enumerate()
            .map(|(i, &(bg, b, row, col, read, at)): (usize, &ReqSpec)| MemRequest {
                id: i as u64,
                addr: DramAddr::new(
                    BankId::new(0, 0, bg % g.bank_groups_per_rank(), b % g.banks_per_group()),
                    row % g.rows_per_bank(),
                    col,
                ),
                kind: if read { AccessKind::Read } else { AccessKind::Write },
                arrival: Time::ZERO + Span::from_ns(at),
                source: 0,
            })
            .collect();
        reqs.sort_by_key(|r| r.arrival);

        let mut now = Time::ZERO;
        let mut done: Vec<(u64, Time, Time, AccessKind)> = Vec::new();
        let mut pending = reqs.into_iter().peekable();
        let deadline = Time::from_us(4_000);
        let mut outstanding = 0usize;
        while (pending.peek().is_some() || outstanding > 0) && now < deadline {
            while let Some(r) = pending.peek() {
                if r.arrival <= now {
                    let r = pending.next().unwrap();
                    match mc.enqueue(r) {
                        Ok(()) => outstanding += 1,
                        Err(_r) => {
                            // Queue full: drop from this test's stream
                            // (back-pressure is exercised elsewhere).
                        }
                    }
                } else {
                    break;
                }
            }
            let next = mc.service(now);
            // The total-time contract: wakes are strictly in the future,
            // so the driver needs no anti-livelock guard.
            prop_assert!(next > now, "service wake {next} not after {now}");
            for c in mc.take_completed() {
                done.push((c.id, c.arrival, c.finished, c.kind));
                outstanding -= 1;
            }
            let next_arrival = pending.peek().map(|r| r.arrival).unwrap_or(Time::MAX);
            now = next.min(next_arrival);
        }
        prop_assert_eq!(outstanding, 0, "requests stuck at {}", now);

        // Exactly-once, and sane latencies.
        let mut ids: Vec<u64> = done.iter().map(|d| d.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), done.len(), "duplicate completions");
        let t = mc.device().timing();
        for &(id, arrival, finished, kind) in &done {
            prop_assert!(finished > arrival, "req {id} finished before arrival");
            // Reads cannot beat the read column latency; writes complete
            // at the (shorter) write-data end.
            let min_latency = match kind {
                AccessKind::Read => t.read_latency(),
                AccessKind::Write => t.t_cwl + t.t_burst,
            };
            prop_assert!(
                finished - arrival >= min_latency,
                "req {id} latency {} below column latency {}",
                finished - arrival,
                min_latency
            );
        }
    }

    /// The controller's service() always returns a strictly increasing
    /// wake time (no livelock), even while idle.
    #[test]
    fn service_always_advances(defense_sel in 0u8..6, steps in 1usize..50) {
        let mut mc = controller(defense_of(defense_sel), 3);
        let mut now = Time::ZERO;
        for _ in 0..steps {
            let next = mc.service(now);
            prop_assert!(next > now, "service must move time forward");
            now = next;
        }
    }
}

fn tiny_bank(i: u32) -> BankId {
    BankId::new(0, 0, i % 2, (i / 2) % 2)
}

fn tiny_device(prac: Option<PracConfig>) -> DramDevice {
    let mut cfg = DeviceConfig::paper_default();
    cfg.geometry = Geometry::tiny();
    cfg.prac = prac;
    DramDevice::new(cfg).unwrap()
}

/// Whether `cmd` is legal in the device's *current* row state (when
/// false, `earliest_legal` answers with an implied-prep lower bound).
fn state_legal(dev: &DramDevice, cmd: &Command) -> bool {
    match *cmd {
        Command::Activate { bank, .. } => dev.open_row(bank).is_none(),
        Command::Read { bank, .. } | Command::Write { bank, .. } => dev.open_row(bank).is_some(),
        Command::Refresh { rank, .. } => (0..4).all(|i| {
            let b = tiny_bank(i);
            b.rank != rank || dev.open_row(b).is_none()
        }),
        Command::Rfm { rank, scope, .. } => dev
            .rfm_banks(rank, scope)
            .iter()
            .all(|&f| dev.open_row(dev.geometry().bank_from_flat(0, f)).is_none()),
        Command::Precharge { .. } | Command::PrechargeAll { .. } => true,
    }
}

/// The probe commands checked after every step of the driver.
fn probes(step: u32) -> Vec<Command> {
    let bank = tiny_bank(step);
    vec![
        Command::Activate {
            bank,
            row: step % 64,
        },
        Command::Precharge { bank },
        Command::Read { bank, col: 0 },
        Command::Write { bank, col: 1 },
        Command::PrechargeAll {
            channel: 0,
            rank: 0,
        },
        Command::Refresh {
            channel: 0,
            rank: 0,
        },
        Command::Rfm {
            channel: 0,
            rank: 0,
            scope: RfmScope::AllBank,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `earliest_legal` is total, `>= now`, monotone in `now`, and
    /// sound: issuing before the returned instant always fails, and
    /// issuing *at* it succeeds exactly for state-legal commands
    /// (for transiently illegal ones the bound is about timing — the
    /// controller still owes the preparatory commands).
    #[test]
    fn earliest_legal_is_total_monotone_and_sound(
        ops in proptest::collection::vec((0u8..4, 0u32..4, 0u32..32), 1..80),
        with_prac in proptest::arbitrary::any::<bool>(),
    ) {
        let prac = if with_prac {
            let mut p = PracConfig::paper_default();
            p.nbo = 16;
            Some(p)
        } else {
            None
        };
        let mut dev = tiny_device(prac);
        let mut now = Time::ZERO;
        for (i, &(op, b, row)) in ops.iter().enumerate() {
            // Drive one legal command forward.
            let bank = tiny_bank(b);
            let cmd = match (op % 3, dev.open_row(bank)) {
                (0, None) => Command::Activate { bank, row },
                (0 | 1, Some(_)) => Command::Read { bank, col: row % 16 },
                (1, None) => Command::Activate { bank, row },
                (_, Some(_))  => Command::Precharge { bank },
                (_, None) if state_legal(&dev, &Command::Refresh { channel: 0, rank: 0 }) =>
                    Command::Refresh { channel: 0, rank: 0 },
                (_, None) => Command::Activate { bank, row },
            };
            let at = dev.earliest_legal(&cmd, now);
            prop_assert!(at >= now, "earliest_legal went backwards");
            dev.issue(&cmd, at).unwrap();
            now = at;

            // Probe every command class against the new state.
            for probe in probes(i as u32) {
                // Total: never panics, never errors — and the result is
                // clamped to `now`.
                let e0 = dev.earliest_legal(&probe, now);
                prop_assert!(e0 >= now);
                // Monotone in `now`.
                let later = now + Span::from_ns(500);
                let e1 = dev.earliest_legal(&probe, later);
                prop_assert!(e1 >= e0, "earliest_legal not monotone in now");
                prop_assert!(e1 >= later);
                // Sound: strictly before `e0` the command never issues.
                if e0 > now {
                    let mut probe_dev = dev.clone();
                    prop_assert!(
                        probe_dev.issue(&probe, e0 - Span::from_ps(1)).is_err(),
                        "issue before earliest_legal must fail"
                    );
                }
                // Agreement at the returned instant.
                let mut probe_dev = dev.clone();
                let ok = probe_dev.issue(&probe, e0).is_ok();
                prop_assert_eq!(
                    ok,
                    state_legal(&dev, &probe),
                    "issue at earliest_legal disagrees with state legality for {:?}",
                    probe
                );
            }
        }
    }
}

// --- the candidate table against its oracle ---------------------------------

/// Defenses that exercise every skip rule of the demand stage on the
/// tiny geometry: channel- and bank-scope ABO stalls, PRFM-blocked
/// banks, FR-RFM- and refresh-quiesced ranks, PARA-owned banks and
/// BlockHammer-throttled rows (with a short delay, so throttles come
/// and go within a run).
fn twin_defense_of(sel: u8) -> DefenseConfig {
    let t = DramTiming::ddr5_4800();
    match sel % 8 {
        0 => DefenseConfig::none(),
        1 => DefenseConfig::prac(8),
        2 => DefenseConfig::prac_bank(8),
        3 => DefenseConfig::prfm(4),
        4 => DefenseConfig::fr_rfm(16, t.t_rc),
        5 => DefenseConfig::para(0.3),
        6 => DefenseConfig::for_threshold(DefenseKind::FrRfm, 64, &t),
        _ => DefenseConfig::BlockHammer(BlockHammerConfig {
            blacklist_threshold: 3,
            delay: Span::from_us(2),
            ..BlockHammerConfig::for_threshold(64, t.t_rc, t.t_refw, 5)
        }),
    }
}

/// Asserts the candidate table's demand verdict equals the per-entry
/// oracle scan's at `now`: same wake, same command, same served queue
/// position.
fn assert_table_matches_oracle(mc: &mut MemoryController, now: Time) {
    let [table, oracle] = mc.demand_verdicts(now);
    assert_eq!(
        table, oracle,
        "table verdict diverged from per-entry scan at {now}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One random request stream: the table verdict equals the
    /// per-entry oracle before and after every service call, every wake
    /// is strictly in the future, and every accepted request completes
    /// exactly once. Few rows and a small column cap make hits,
    /// conflicts and capped streaks common; the defenses supply blocked
    /// banks, quiesced ranks and throttled rows.
    #[test]
    fn table_matches_the_oracle_step_by_step(
        specs in proptest::collection::vec(
            (0u32..2, 0u32..2, 0u32..5, 0u32..16, any::<bool>(), 0u64..30_000),
            1..160,
        ),
        defense_sel in 0u8..8,
        col_cap in 1u32..4,
    ) {
        let mut cfg = CtrlConfig::paper_default();
        cfg.col_cap = col_cap;
        let mut dev = DeviceConfig::paper_default();
        dev.geometry = Geometry::tiny();
        let mut mc =
            MemoryController::new(cfg, dev, twin_defense_of(defense_sel), 7).unwrap();

        let mut arrivals: Vec<u64> = specs.iter().map(|s| s.5).collect();
        arrivals.sort_unstable();
        let mut pending = specs
            .iter()
            .zip(arrivals)
            .enumerate()
            .map(|(i, (&(bg, b, row, col, read, _), at)): (usize, (&ReqSpec, u64))| MemRequest {
                id: i as u64,
                addr: DramAddr::new(BankId::new(0, 0, bg, b), row, col),
                kind: if read { AccessKind::Read } else { AccessKind::Write },
                arrival: Time::ZERO + Span::from_ns(at),
                source: 0,
            })
            .peekable();

        let mut now = Time::ZERO;
        let mut accepted = Vec::new();
        let mut done = Vec::new();
        while (pending.peek().is_some() || done.len() < accepted.len())
            && now < Time::from_us(4_000)
        {
            while let Some(r) = pending.next_if(|r| r.arrival <= now) {
                if mc.enqueue(r).is_ok() {
                    accepted.push(r.id);
                }
            }
            assert_table_matches_oracle(&mut mc, now);
            let wake = mc.service(now);
            prop_assert!(wake > now, "service wake {wake} not after {now}");
            assert_table_matches_oracle(&mut mc, now);
            done.extend(mc.take_completed().iter().map(|c| c.id));
            now = wake.min(pending.peek().map_or(Time::MAX, |r| r.arrival));
        }
        done.sort_unstable();
        prop_assert_eq!(done, accepted, "requests stuck or completed twice at {}", now);
    }
}

/// Everything observable about one closed-loop run.
#[derive(Debug)]
struct Driven {
    completions: Vec<Completion>,
    /// The wake returned by every service call, in order.
    wakes: Vec<Time>,
    /// The issued command stream (flight `Cmd` / `Maint` events).
    commands: Vec<FlightEvent>,
    stats: CtrlStats,
}

/// Drives `mc` closed-loop — `depth` requests in flight, request `id`
/// drawn from `request(id)`, `total` completions — recording the
/// command stream through the flight recorder and checking the table
/// verdict against the per-entry oracle around every service call.
fn drive_closed_loop(
    mut mc: MemoryController,
    depth: usize,
    total: usize,
    request: impl Fn(u64) -> (DramAddr, AccessKind),
) -> Driven {
    let (out, _log) = flight::capture(|| {
        let mut sink = EventBuffer::new();
        let mut out = Driven {
            completions: Vec::new(),
            wakes: Vec::new(),
            commands: Vec::new(),
            stats: CtrlStats::default(),
        };
        let mut held: Option<MemRequest> = None;
        let (mut issued, mut in_flight) = (0u64, 0usize);
        let mut now = Time::ZERO;
        while out.completions.len() < total {
            while in_flight < depth && (held.is_some() || (issued as usize) < total) {
                let mut req = held.take().unwrap_or_else(|| {
                    let (addr, kind) = request(issued);
                    issued += 1;
                    MemRequest {
                        id: issued - 1,
                        addr,
                        kind,
                        arrival: now,
                        source: 0,
                    }
                });
                req.arrival = now;
                match mc.enqueue(req) {
                    Ok(()) => in_flight += 1,
                    Err(back) => {
                        // That queue is full: offer the request again
                        // after the controller made progress.
                        held = Some(back);
                        break;
                    }
                }
            }
            assert_table_matches_oracle(&mut mc, now);
            let wake = mc.service(now);
            assert_table_matches_oracle(&mut mc, now);
            now = wake;
            out.wakes.push(now);
            let done = mc.take_completed();
            in_flight -= done.len();
            out.completions.extend(done);
            mc.drain_flight(&mut sink);
            out.commands.extend(sink.drain().0);
        }
        out.stats = *mc.stats();
        out
    });
    assert!(
        !out.commands.is_empty(),
        "flight recording captured nothing"
    );
    out
}

/// FNV-1a over the `Debug` rendering of a closed-loop run's wakes,
/// command stream, completions and statistics.
fn digest(run: &Driven) -> u64 {
    let text = format!(
        "{:?}",
        (&run.wakes, &run.commands, &run.completions, &run.stats)
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts a closed-loop run reproduces its recorded digest. The
/// digests were recorded from the per-entry scheduler the candidate
/// table replaced, so they pin the table to that scheduler's command
/// stream. A deliberate scheduling change re-records them and says why.
fn assert_digest(run: &Driven, wakes: usize, want: u64) {
    assert_eq!(run.wakes.len(), wakes, "wake count");
    assert_eq!(
        digest(run),
        want,
        "closed-loop digest {:#018x}",
        digest(run)
    );
}

/// A cheap integer mixer for the deterministic request streams.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn paper_controller(defense: DefenseConfig) -> MemoryController {
    MemoryController::new(
        CtrlConfig::paper_default(),
        DeviceConfig::paper_default(),
        defense,
        9,
    )
    .unwrap()
}

/// Deep: both 64-entry queues held at capacity over every bank of the
/// paper geometry — the scan at its longest, write drains included.
#[test]
fn deep_queues_issue_the_recorded_command_stream() {
    let g = Geometry::paper_default();
    let run = drive_closed_loop(
        paper_controller(DefenseConfig::prac(128)),
        128,
        6_000,
        |id| {
            // Eight-line row visits over all banks, 30 % writes.
            let visit = mix64((id / 8).wrapping_mul(0x9e37_79b9));
            let bank = g.bank_from_flat(0, (visit % u64::from(g.banks_per_channel())) as usize);
            let addr = DramAddr::new(bank, 1_024 + (visit >> 32) as u32 % 2_048, (id % 8) as u32);
            let write = mix64(!id) % 100 < 30;
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (addr, kind)
        },
    );
    assert!(run.stats.rejections > 0, "queues never filled");
    assert!(run.stats.writes_served > 0 && run.stats.reads_served > 0);
    assert_digest(&run, 7_622, 0xf0a8_698c_42f5_057c);
}

/// Hammer: one bank, three rows, shallow queue — every access a row
/// conflict, PRAC back-offs included.
#[test]
fn one_bank_hammer_issues_the_recorded_command_stream() {
    let run = drive_closed_loop(paper_controller(DefenseConfig::prac(128)), 4, 3_000, |id| {
        let row = 2_000 + 2 * (id % 3) as u32;
        (
            DramAddr::new(BankId::new(0, 0, 0, 0), row, 0),
            AccessKind::Read,
        )
    });
    assert!(run.stats.backoffs > 0, "the hammer never tripped PRAC");
    assert_digest(&run, 4_558, 0x0dbd_5745_c99c_e650);
}

/// Throttled: a BlockHammer-blacklisted aggressor pair keeps rows
/// throttled while bystander traffic flows — the shape that routes the
/// demand stage to the per-entry scan.
#[test]
fn blockhammer_throttled_rows_issue_the_recorded_command_stream() {
    let t = DramTiming::ddr5_4800();
    let defense = DefenseConfig::BlockHammer(BlockHammerConfig {
        delay: Span::from_us(3),
        ..BlockHammerConfig::for_threshold(64, t.t_rc, t.t_refw, 3)
    });
    let run = drive_closed_loop(paper_controller(defense), 6, 1_500, |id| {
        let kind = if id % 5 == 4 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        if id % 3 == 2 {
            // Bystander: some other bank, few rows.
            let v = mix64(id);
            let bank = BankId::new(0, (v % 2) as u32, (v >> 8) as u32 % 8, 1);
            (DramAddr::new(bank, 500 + (v >> 16) as u32 % 4, 0), kind)
        } else {
            let row = 2_000 + 2 * (id % 2) as u32;
            (DramAddr::new(BankId::new(0, 0, 0, 0), row, 0), kind)
        }
    });
    assert!(run.stats.throttles > 0, "BlockHammer never throttled");
    assert_digest(&run, 4_549, 0x9268_e68b_2340_f987);
}
