//! Plain-text report formatting: the aligned [`table`] every
//! [`mod@crate::registry`] job renders its merged JSON through, plus the
//! five renderers that format one *typed* outcome — the text a
//! single-unit job stores in its result, and what the examples print
//! for one kernel call. Multi-unit tables live beside their `Job`
//! (`render_text`), rendered from the merged JSON and nowhere else.

use core::fmt::Write as _;

use crate::experiment::capability::{capability_matrix, leak_of, taxonomy_table, Colocation, Leak};
use crate::experiment::counter_leak::CounterLeakOutcome;
use crate::experiment::covert::CovertOutcome;
use crate::experiment::latency_trace::LatencyTraceOutcome;

/// Renders a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{}", fmt_row(&header_cells, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row, &widths));
    }
    out
}

/// Fig. 2 / §6.2 / §7.2 report.
pub fn latency_trace_report(out: &LatencyTraceOutcome) -> String {
    let mut rows: Vec<Vec<String>> = out
        .mean_ns
        .iter()
        .map(|(class, mean, n)| vec![format!("{class:?}"), format!("{mean:.1}"), n.to_string()])
        .collect();
    rows.sort_by(|a, b| a[0].cmp(&b[0]));
    let mut s = table(&["latency class", "mean (ns)", "samples"], &rows);
    if let Some(r) = out.requests_per_backoff {
        let _ = writeln!(s, "requests per back-off: {r:.1} (paper: ~255 at NBO=128)");
    }
    if let Some(r) = out.requests_per_rfm {
        let _ = writeln!(s, "requests per RFM: {r:.1} (paper: ~41.8 at TRFM=40)");
    }
    if let Some(r) = out.backoff_over_refresh() {
        let _ = writeln!(s, "back-off / refresh latency ratio: {r:.2}x (paper: 1.9x)");
    }
    s
}

/// Fig. 3 / Fig. 6 report.
pub fn covert_report(label: &str, out: &CovertOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{label}");
    let _ = writeln!(
        s,
        "  raw bit rate: {:.1} Kbps | errors: {}/{} (e={:.3}) | capacity: {:.1} Kbps",
        out.result.raw_kbps(),
        out.result.bit_errors,
        out.result.bits,
        out.result.error_probability(),
        out.result.capacity_kbps()
    );
    let _ = writeln!(s, "  back-offs: {} | RFMs: {}", out.backoffs, out.rfms);
    s
}

/// Table 3 report.
pub fn table3_report() -> String {
    fn leak_str(l: Leak) -> &'static str {
        match l {
            Leak::Nothing => "N/A",
            Leak::PreventiveAction => "victim triggered a preventive action",
            Leak::BankActivationCount => "victim's activation count in the bank",
            Leak::RowActivationCount => "victim's activation count of the row",
            Leak::RowBufferState => "victim accessed a conflicting/same row",
        }
    }
    let rows: Vec<Vec<String>> = capability_matrix()
        .into_iter()
        .map(|(attack, _)| {
            let cell = |c: Colocation| leak_str(leak_of(attack, c)).to_owned();
            vec![
                attack.label().to_owned(),
                cell(Colocation::ChannelOrBankGroup),
                cell(Colocation::Bank),
                cell(Colocation::Row),
            ]
        })
        .collect();
    table(&["attack", "channel/bank-group", "bank", "row"], &rows)
}

/// §12 taxonomy report.
pub fn taxonomy_report() -> String {
    let rows: Vec<Vec<String>> = taxonomy_table()
        .into_iter()
        .map(|r| {
            vec![
                r.defense.label().to_owned(),
                r.risk.map_or("n/a".to_owned(), |x| format!("{x:?}")),
            ]
        })
        .collect();
    table(&["defense", "timing-channel risk"], &rows)
}

/// §9.1 report.
pub fn counter_leak_report(out: &CounterLeakOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "counter leak @ NBO={}: mean |error| {:.1} acts over {} trials",
        out.nbo,
        out.mean_abs_error,
        out.trials.len()
    );
    let _ = writeln!(
        s,
        "mean measurement time {:.1} us -> throughput {:.0} Kbps (paper: 13.6 us, 501 Kbps)",
        out.mean_elapsed_us, out.throughput_kbps
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let s = table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].ends_with('2'));
    }

    #[test]
    fn table3_report_contains_the_key_cells() {
        let s = table3_report();
        assert!(s.contains("LeakyHammer-PRAC"));
        assert!(s.contains("DRAMA"));
        assert!(
            s.contains("N/A"),
            "DRAMA leaks nothing at channel granularity"
        );
        assert!(s.contains("preventive action"));
    }

    #[test]
    fn taxonomy_report_lists_all_defenses() {
        let s = taxonomy_report();
        for d in ["PRAC", "PRFM", "FR-RFM", "PRAC-RIAC", "PRAC-Bank", "PARA"] {
            assert!(s.contains(d), "missing {d}");
        }
    }
}
