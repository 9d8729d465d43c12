//! IPS literal matching: the Snort-style scenario.
//!
//! Payloads are scanned against a keyword dictionary with an Aho–Corasick
//! automaton serialized into guest memory. One query = one full payload
//! scan; the trie CFA streams the text through the automaton and returns the
//! total number of keyword occurrences.
//!
//! ```text
//! cargo run --release --example ids_literal_match
//! ```

use std::sync::Arc;

use qei::prelude::*;
use qei::workloads::snort::SnortAc;

fn main() {
    let mut sys = System::new(MachineConfig::skylake_sp_24(), 23);
    println!("building the AC automaton (2000 keywords)...");
    let ips = SnortAc::build(sys.guest_mut(), 2_000, 12, 1_024, 4);
    println!(
        "automaton: {} keywords, {} states; scanning {} x 1 KB payloads",
        ips.automaton().keywords(),
        ips.automaton().nodes(),
        ips.jobs().len()
    );

    // Every payload has planted keywords; print the per-payload match counts
    // the accelerator will have to reproduce exactly.
    print!("expected matches per payload:");
    for m in ips.expected() {
        print!(" {m}");
    }
    println!();

    // A hand-built workload prices through a SimSession wrapping the system;
    // every run forks the one built image, for the baseline and each scheme.
    let session = SimSession::adopt(sys, Arc::new(ips));
    let run = |mode, scheme| session.run(mode, scheme, ConfigOverrides::none(), "ids");
    let baseline = run(RunMode::Baseline, None);
    println!(
        "software AC scan : {:>9} cycles total ({:.0} cycles/payload, frontend-bound {:.0}%)",
        baseline.cycles,
        baseline.cycles_per_query(),
        baseline.run.frontend_bound() * 100.0
    );

    for scheme in [Scheme::CoreIntegrated, Scheme::ChaTlb, Scheme::DeviceDirect] {
        let qei = run(RunMode::QeiBlocking, Some(scheme));
        println!(
            "{:16}: {:>9} cycles ({:.2}x), core instructions/scan {:.0} (vs {:.0})",
            scheme.label(),
            qei.cycles,
            baseline.cycles as f64 / qei.cycles as f64,
            qei.uops_per_query(),
            baseline.uops_per_query(),
        );
    }

    println!(
        "\nthe per-byte automaton walk costs the core thousands of dynamic\n\
         instructions per payload; QEI collapses each scan to a single\n\
         QUERY instruction (the paper's Fig. 11 effect)."
    );
}
