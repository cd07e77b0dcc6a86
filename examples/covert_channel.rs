//! Covert channels over RowHammer defenses (case studies 1 and 2).
//!
//! Transmits the 40-bit message "MICRO" over both LeakyHammer channels —
//! PRAC back-offs (§6.3, Fig. 3) and PRFM RFM commands (§7.3, Fig. 6) —
//! and prints the per-window detections plus channel metrics.
//!
//! Run with: `cargo run --release --example covert_channel`

use leakyhammer::experiment::covert::{run_covert, ChannelKind, CovertOptions};
use leakyhammer::report;
use lh_analysis::{bits_of_str, str_of_bits};

fn show(kind: ChannelKind, label: &str) {
    let message = "MICRO";
    let opts = CovertOptions::new(kind, bits_of_str(message));
    let out = run_covert(&opts);
    print!("{}", report::covert_report(label, &out));
    println!("  sent:    {:?}", message);
    println!("  decoded: {:?}", str_of_bits(&out.decoded));
    print!("  events/window: ");
    for (i, e) in out.per_window_events.iter().enumerate() {
        if i % 8 == 0 && i > 0 {
            print!("| ");
        }
        print!("{e} ");
    }
    println!("\n");
}

fn main() {
    println!("LeakyHammer covert channels: transmitting \"MICRO\"\n");
    show(
        ChannelKind::Prac,
        "case study 1: PRAC back-off channel (25 us windows, NBO=128)",
    );
    show(
        ChannelKind::Rfm,
        "case study 2: PRFM RFM channel (20 us windows, TRFM=40, Trecv=3)",
    );
    println!(
        "The PRAC channel encodes a 1-bit as 'the receiver observed a back-off';\n\
         the RFM channel counts RFM-band latencies per window against Trecv."
    );
}
