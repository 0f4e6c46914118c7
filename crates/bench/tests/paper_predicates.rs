//! The paper's claims as predicates over the committed figure pins, so
//! that a pin may move and a claim may not.
//!
//! `scripts/check.sh` compares each figure command's stdout byte for byte
//! against its pin in `pins/` (a pin is named after its command), so a
//! predicate on a pin is a predicate on the program. A change that moves
//! a pin re-records it, and these tests then say whether the paper's shape
//! survived.
//!
//! Sample size and rule, pin by pin; every predicate is read off the
//! printed rows (or, where noted, the printed commentary):
//!
//! * `fig2a_quick.txt`, `fig2b_quick.txt`: 50 random graphs (or
//!   networks) a degree, for degrees 3 to 8, at seed 1994; every predicate
//!   holds at every degree.
//!   * Fig. 2(a): the mean max-delay ratio of the centre-based tree to the
//!     shortest-path trees is above 1; the minimum is exactly 1.000, as no
//!     real data point lies below 1 (footnote 2); the maximum is at most 2
//!     (Wall's bound).
//!   * Fig. 2(b): the centre-based tree concentrates at least as many
//!     flows on its hottest link as the shortest-path trees (`cbt/spt` ≥
//!     1), and the SPT mean falls strictly from each degree to the next.
//! * `fig1.txt`: one run of the three-domain internet. DVMRP puts data on
//!   every router-router link the header counts, and PIM-SPT, PIM-shared
//!   and CBT on fewer (Fig. 1(a)→(b)); every protocol delivers every
//!   expected packet; the commentary's hottest backbone link carries more
//!   under CBT than under PIM-SPT (Fig. 1(c)).
//! * `overhead_trials_2_congestion.txt`: 2 topologies a point, members 2 to
//!   40, at seed 1994. DVMRP's data-carrying links are the same at every
//!   member count; PIM-SPT's, PIM-shared's and CBT's data transits rise
//!   strictly with membership (§1.2).
//! * `spt_switch_seed_7.txt`: one 24-packet run per policy on the diamond.
//!   Every latency is the RP-path or the shortest-path delay the header
//!   states; `immediate` drops to the shorter once, the `after m pkts`
//!   policy holds exactly its first m packets on the RP path, `never`
//!   stays on it; no policy loses or duplicates a packet (§3.3, §3.5).
//! * `ablation_trials_2.txt`: 2 trials a row at seed 1994. PIM-shared's
//!   control traffic is above CBT's at every loss rate, and PIM's falls
//!   strictly as the refresh period grows: the overhead side of footnote
//!   4's trade.
//!
//! Not asserted:
//! * that Fig. 2(a)'s mean ratio rises with degree. At 50 graphs a degree
//!   it does not resolve: the pin reads 1.1653 at degree 5 and 1.1556 at
//!   degree 6. At 500 graphs (the full run, EXPERIMENTS.md) it rises from
//!   1.090 to 1.173, so that is a full-size claim;
//! * the overhead pin's `state` ordering: PIM-SPT holds more state than
//!   DVMRP at 40 members;
//! * the ablation pin's delivery ordering: at 2 trials it flips between
//!   the protocols at 30 % loss.

use std::collections::HashMap;

/// The text of the pin `name`.
fn pin(name: &str) -> String {
    let path = format!("{}/pins/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The data rows of the pin `name`, one map from column header to cell
/// per row. A pin may hold several tables: a `#` line (commentary) ends
/// a table, the next non-blank line is the next table's header, and blank
/// lines inside a table only space its rows.
fn rows(name: &str) -> Vec<HashMap<String, String>> {
    let text = pin(name);
    let mut header: Option<Vec<&str>> = None;
    let mut rows = Vec::new();
    for l in text.lines() {
        if l.starts_with('#') {
            header = None;
            continue;
        }
        let cells: Vec<&str> = l.split_whitespace().collect();
        match &header {
            _ if cells.is_empty() => {}
            None => header = Some(cells),
            Some(header) => {
                assert_eq!(cells.len(), header.len(), "{name}: ragged row {l:?}");
                rows.push(
                    header
                        .iter()
                        .zip(cells)
                        .map(|(h, c)| (h.to_string(), c.to_string()))
                        .collect(),
                );
            }
        }
    }
    rows
}

/// The number that follows the first `marker` in `text`, up to its
/// first character that is neither a digit nor a point.
fn number_after(text: &str, marker: &str) -> f64 {
    let at = text.find(marker).unwrap_or_else(|| panic!("no {marker:?}"));
    let rest = &text[at + marker.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("after {marker:?}: {:?}: {e}", &rest[..end]))
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

/// The rows of `protocol` in `rows`, in pin order.
fn of<'a>(rows: &'a [HashMap<String, String>], protocol: &str) -> Vec<&'a HashMap<String, String>> {
    rows.iter().filter(|r| r["protocol"] == protocol).collect()
}

#[test]
fn fig1_dvmrp_floods_every_link_and_cbt_concentrates_on_the_core() {
    let text = pin("fig1.txt");
    let rows = rows("fig1.txt");
    let links = number_after(&text, "routers, ");
    assert_eq!(links, 24.0, "fig1: router-router links in the header");
    let [dvmrp] = of(&rows, "DVMRP")[..] else {
        panic!("fig1: one DVMRP row");
    };
    assert_eq!(num(dvmrp, "links"), links, "DVMRP misses a link");
    for protocol in ["PIM-SPT", "PIM-shared", "CBT"] {
        let [r] = of(&rows, protocol)[..] else {
            panic!("fig1: one {protocol} row");
        };
        assert!(num(r, "links") < links, "{protocol} uses every link");
    }
    for r in &rows {
        let (dlv, exp) = r["dlv/exp"].split_once('/').expect("dlv/exp");
        assert_eq!(dlv, exp, "{}: lost packets", r["protocol"]);
    }
    let cbt = number_after(&text, "backbone link carried ");
    let spt = number_after(&text, "data packets under CBT vs ");
    assert!(text.contains(&format!("vs {spt} under PIM-SPT")));
    assert!(cbt > spt, "CBT's backbone link {cbt} ≤ PIM-SPT's {spt}");
}

#[test]
fn overhead_dvmrp_links_ignore_membership_and_sparse_data_grows_with_it() {
    let name = "overhead_trials_2_congestion.txt";
    assert_eq!(
        number_after(&pin(name), "averaged over "),
        2.0,
        "topologies"
    );
    // The protocol table; the control-attribution table has no `links`.
    let rows: Vec<_> = rows(name)
        .into_iter()
        .filter(|r| r.contains_key("links"))
        .collect();
    for protocol in ["PIM-SPT", "PIM-shared", "CBT", "DVMRP"] {
        let members: Vec<f64> = of(&rows, protocol)
            .iter()
            .map(|r| num(r, "members"))
            .collect();
        assert_eq!(members, [2.0, 5.0, 10.0, 20.0, 40.0], "{protocol}");
    }
    let dvmrp = of(&rows, "DVMRP");
    for r in &dvmrp {
        assert_eq!(
            num(r, "links"),
            num(dvmrp[0], "links"),
            "DVMRP links at {} members",
            r["members"]
        );
    }
    for protocol in ["PIM-SPT", "PIM-shared", "CBT"] {
        for w in of(&rows, protocol).windows(2) {
            assert!(
                num(w[1], "data") > num(w[0], "data"),
                "{protocol}: data does not rise from {} to {} members",
                w[0]["members"],
                w[1]["members"]
            );
        }
    }
}

#[test]
fn spt_switch_cuts_latency_by_the_path_difference_without_loss() {
    let text = pin("spt_switch_seed_7.txt");
    let rp_path = number_after(&text, "RP path delay ");
    let spt = number_after(&text, "shortest path delay ");
    assert_eq!((rp_path, spt), (5.0, 4.0), "the diamond's delays");
    let mut policies = Vec::new();
    for block in text.split("\npolicy: ").skip(1) {
        let name = block.lines().next().expect("a policy name");
        let at = block.find("latency: [").expect("a latency list") + "latency: [".len();
        let list = &block[at..at + block[at..].find(']').expect("a closed list")];
        let latency: Vec<f64> = list
            .split(", ")
            .map(|l| l.parse().expect("a latency"))
            .collect();
        assert_eq!(latency.len(), 24, "{name}: packets");
        assert!(
            latency.iter().all(|&l| l == rp_path || l == spt),
            "{name}: a latency off both paths"
        );
        assert_eq!(number_after(block, "lost: "), 0.0, "{name}: lost");
        assert_eq!(
            number_after(block, "duplicates: "),
            0.0,
            "{name}: duplicates"
        );
        policies.push((name, latency));
    }
    let names: Vec<&str> = policies.iter().map(|p| p.0).collect();
    assert_eq!(
        names,
        ["immediate", "after 6 pkts in 1000t", "never (shared only)"]
    );
    let on_rp_path = |latency: &[f64]| latency.iter().take_while(|&&l| l == rp_path).count();
    let switches = |latency: &[f64]| latency.windows(2).filter(|w| w[0] != w[1]).count();
    let immediate = &policies[0].1;
    assert!(on_rp_path(immediate) > 0 && switches(immediate) == 1);
    assert_eq!(immediate.last(), Some(&spt), "immediate never switched");
    let after = &policies[1].1;
    let m = number_after(policies[1].0, "after ") as usize;
    assert_eq!(
        (on_rp_path(after), switches(after)),
        (m, 1),
        "after {m} pkts"
    );
    let never = &policies[2].1;
    assert_eq!(on_rp_path(never), never.len(), "never switched");
}

#[test]
fn ablation_soft_state_costs_more_control_and_refresh_sets_the_price() {
    let rows = rows("ablation_trials_2.txt");
    let by_loss: Vec<_> = rows.iter().filter(|r| r.contains_key("loss")).collect();
    let losses: Vec<&str> = by_loss.iter().map(|r| r["loss"].as_str()).collect();
    assert_eq!(losses, ["0%", "0%", "5%", "5%", "15%", "15%", "30%", "30%"]);
    for pair in by_loss.chunks(2) {
        let [pim, cbt] = pair else { unreachable!() };
        assert_eq!(
            (&*pim["protocol"], &*cbt["protocol"]),
            ("PIM-shared", "CBT")
        );
        assert!(
            num(pim, "ctrl") > num(cbt, "ctrl"),
            "{} loss: PIM-shared's control ≤ CBT's",
            pim["loss"]
        );
    }
    let refresh: Vec<_> = rows.iter().filter(|r| r.contains_key("refresh")).collect();
    let periods: Vec<&str> = refresh.iter().map(|r| r["refresh"].as_str()).collect();
    assert_eq!(periods, ["20t", "60t", "120t", "240t"]);
    for w in refresh.windows(2) {
        assert!(
            num(w[1], "ctrl") < num(w[0], "ctrl"),
            "control does not fall from {} to {}",
            w[0]["refresh"],
            w[1]["refresh"]
        );
    }
}
