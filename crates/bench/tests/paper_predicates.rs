//! The paper's Fig. 2 claims as predicates over the committed `--quick`
//! pins, so that a pin may move and a claim may not.
//!
//! `scripts/check.sh` compares `fig2a --quick` and `fig2b --quick` byte
//! for byte against `pins/fig2a_quick.txt` and `pins/fig2b_quick.txt`, so
//! a predicate on a pin is a predicate on the program. A change that moves
//! a pin re-records it, and these tests then say whether the paper's shape
//! survived.
//!
//! Sample size and rule: each pin holds 50 random graphs (or networks) a
//! degree, for degrees 3 to 8, at seed 1994, and every predicate is read
//! off the printed rows, at every degree.
//!
//! * Fig. 2(a): the mean max-delay ratio of the centre-based tree to the
//!   shortest-path trees is above 1; the minimum is exactly 1.000, as no
//!   real data point lies below 1 (footnote 2); the maximum is at most 2
//!   (Wall's bound).
//! * Fig. 2(b): the centre-based tree concentrates at least as many flows
//!   on its hottest link as the shortest-path trees (`cbt/spt` ≥ 1), and
//!   the SPT mean falls strictly from each degree to the next.
//!
//! Not asserted: that Fig. 2(a)'s mean ratio rises with degree. At 50
//! graphs a degree it does not resolve: the pin reads 1.1653 at degree 5
//! and 1.1556 at degree 6. At 500 graphs (the full run, EXPERIMENTS.md)
//! it rises from 1.090 to 1.173, so that is a full-size claim.

use std::collections::HashMap;

/// The data rows of the pin `name`, one map from column header to cell
/// per row; `#` lines are commentary.
fn rows(name: &str) -> Vec<HashMap<String, String>> {
    let path = format!("{}/pins/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines
        .next()
        .expect("a header row")
        .split_whitespace()
        .collect();
    lines
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cells.len(), header.len(), "{name}: ragged row {l:?}");
            header
                .iter()
                .zip(cells)
                .map(|(h, c)| (h.to_string(), c.to_string()))
                .collect()
        })
        .collect()
}

/// The cell `col` of `row` as a number.
fn num(row: &HashMap<String, String>, col: &str) -> f64 {
    row[col]
        .parse()
        .unwrap_or_else(|e| panic!("{col} = {:?}: {e}", row[col]))
}

/// Every degree from 3 to 8 is present, in order, at the stated size.
fn assert_sweep(name: &str, rows: &[HashMap<String, String>]) {
    let degrees: Vec<f64> = rows.iter().map(|r| num(r, "degree")).collect();
    assert_eq!(degrees, [3.0, 4.0, 5.0, 6.0, 7.0, 8.0], "{name}: degrees");
    for r in rows {
        assert_eq!(num(r, "trials"), 50.0, "{name}: trials a degree");
    }
}

#[test]
fn fig2a_center_tree_delay_is_above_one_and_within_walls_bound() {
    let rows = rows("fig2a_quick.txt");
    assert_sweep("fig2a", &rows);
    for r in &rows {
        let degree = &r["degree"];
        assert!(
            num(r, "mean_ratio") > 1.0,
            "degree {degree}: mean ratio ≤ 1"
        );
        assert_eq!(r["min"], "1.000", "degree {degree}: footnote 2's minimum");
        assert!(num(r, "max") <= 2.0, "degree {degree}: past Wall's bound");
    }
}

#[test]
fn fig2b_center_tree_concentrates_and_spt_falls_with_degree() {
    let rows = rows("fig2b_quick.txt");
    assert_sweep("fig2b", &rows);
    for r in &rows {
        assert!(
            num(r, "cbt/spt") >= 1.0,
            "degree {}: CBT concentrates fewer flows than SPT",
            r["degree"]
        );
    }
    for w in rows.windows(2) {
        assert!(
            num(&w[1], "spt_mean") < num(&w[0], "spt_mean"),
            "SPT mean does not fall from degree {} to {}",
            w[0]["degree"],
            w[1]["degree"]
        );
    }
}
