//! Experiment kernels — one module per table/figure of the paper.
//!
//! A kernel measures **one unit from one seed** (a transmission, a
//! sweep point, a defense class, a trace, a mix's cells) and returns a
//! typed outcome. It holds no grid, no loop over points, no merge
//! across units and no table: those belong to the experiment's
//! [`lh_harness::Job`] in `registry`, the only place they are
//! stated. Where a merge is arithmetic worth typing
//! ([`perf::merge_perf_mixes`], `countermeasures::reduction_pct`)
//! the function lives here and the job's `finish` calls it.
//!
//! The attack parameters per defense (window, detection band, `Trecv`,
//! stop-on-detect) are [`lh_link::LinkTuning::for_defense`]'s;
//! [`covert::CovertOptions::new`] takes its defaults from there, and
//! [`covert::run_covert`] transmits over [`lh_link::transmit_windows`].
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`latency_trace`] | Fig. 2 and the §6.2 / §7.2 latency observations |
//! | [`covert`] | Figs. 3 and 6 (the 40-bit "MICRO" transmissions) |
//! | `noise_sweep` | Figs. 4, 7 and 11 |
//! | `app_noise` | Figs. 5 and 8 |
//! | `multibit` | §6.3 ternary/quaternary channels |
//! | [`fingerprint`] | Figs. 9, 10 and Table 2 |
//! | [`counter_leak`] | §9.1 activation-counter leakage |
//! | `capability` | Table 3 and the §12 taxonomy |
//! | [`taxonomy`] | §12 made quantitative: realized capacity per defense class |
//! | `latency_sweep` | Fig. 12 |
//! | `cache_sensitivity` | §10.3 |
//! | `countermeasures` | §11.4 capacity reduction |
//! | [`perf`] | Fig. 13 |
//! | `row_policy` | §9: closed-row policy kills DRAMA, not LeakyHammer |

pub(crate) mod app_noise;
pub(crate) mod cache_sensitivity;
pub(crate) mod capability;
pub mod counter_leak;
pub(crate) mod countermeasures;
pub mod covert;
pub mod fingerprint;
pub(crate) mod latency_sweep;
pub mod latency_trace;
pub(crate) mod multibit;
pub(crate) mod noise_sweep;
pub mod perf;
pub(crate) mod row_policy;
pub mod taxonomy;
