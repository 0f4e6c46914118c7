//! `write_dec` against `std`: it prints what `{}` prints for a `u64`.
//! The JSONL stream and the explorer's trace lines write their numbers
//! with it, so their bytes rest on this. (`Addr::write_to` is held to
//! `std` octet by octet in `scenario`'s `trace_render_pins.rs`.)

use proptest::prelude::*;
use wire::write_dec;

fn dec(n: u64) -> String {
    let mut s = String::new();
    write_dec(&mut s, n).expect("a String never fails");
    s
}

/// Every decimal length and both sides of each carry: 0, 9, 10, 99,
/// 100, every `10^k - 1` and `10^k`, and `u64::MAX`.
#[test]
fn write_dec_prints_what_std_prints_at_every_length() {
    let mut edges = vec![0, 9, 10, 99, 100, u64::MAX];
    for k in 1..=19 {
        edges.extend([10u64.pow(k) - 1, 10u64.pow(k)]);
    }
    for n in edges {
        assert_eq!(dec(n), format!("{n}"), "write_dec({n})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn write_dec_prints_what_std_prints(n in any::<u64>()) {
        prop_assert_eq!(dec(n), format!("{n}"));
    }
}
