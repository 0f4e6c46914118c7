//! Shared helpers for the example binaries. Their networks come from
//! [`scenario::NetSpec`], the one builder every harness uses.
//!
//! Each example is a runnable scenario narrated to stdout; run them with
//! `cargo run -p examples --example <name>`. Start with `quickstart`.

use scenario::ScenarioNet;
use wire::Addr;

/// Summarize what host slot `slot` received from `source` on the net's
/// group.
pub fn describe_reception(net: &ScenarioNet, slot: usize, source: Addr) -> String {
    let seqs = net.seqs(slot, source);
    if seqs.is_empty() {
        return "nothing".to_string();
    }
    format!(
        "{} packets (seq {}..={}){}",
        seqs.len(),
        seqs.iter().min().expect("nonempty"),
        seqs.iter().max().expect("nonempty"),
        if seqs.windows(2).all(|w| w[1] == w[0] + 1) {
            ", in order, no gaps"
        } else {
            ""
        }
    )
}
