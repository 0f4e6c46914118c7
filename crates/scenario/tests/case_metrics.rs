//! A case's metrics are values: the per-kind impairment and decode-drop
//! counts the aggregator keeps equal a scan of the JSONL stream, and
//! finished aggregators of independent runs merge into exactly what one
//! aggregator recording both runs would hold.

use scenario::{
    case_text, random_schedule, run_case, topology, FaultEvent, FaultSchedule, Protocol,
};
use std::collections::BTreeMap;
use telemetry::{Histogram, MetricsAggregator};

/// Extract `"key":"value"` from a JSONL line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// The explorer's chaos summary as it was counted before the metrics
/// sink kept these counts: read back from the JSONL stream.
fn scan(telemetry: &str) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let mut impairments = BTreeMap::<String, u64>::new();
    let mut drops = BTreeMap::<String, u64>::new();
    for line in telemetry.lines() {
        match json_str(line, "ev") {
            Some("channel_impaired") => {
                if let Some(what) = json_str(line, "what") {
                    *impairments.entry(what.to_string()).or_default() += 1;
                }
            }
            Some("decode_failed") => {
                if let Some(kind) = json_str(line, "kind") {
                    *drops.entry(kind.to_string()).or_default() += 1;
                }
            }
            _ => {}
        }
    }
    (impairments, drops)
}

fn owned(m: &BTreeMap<&str, u64>) -> BTreeMap<String, u64> {
    m.iter().map(|(k, n)| (k.to_string(), *n)).collect()
}

/// Both members joined; the data train crosses links that corrupt,
/// duplicate and reorder until every impairment is healed.
fn impaired_schedule() -> FaultSchedule {
    let mut s = FaultSchedule::default();
    s.push(30, FaultEvent::Join(1));
    s.push(40, FaultEvent::Join(2));
    s.push(150, FaultEvent::CorruptLink(0, 300));
    s.push(150, FaultEvent::DuplicateLink(1, 400));
    s.push(150, FaultEvent::ReorderLink(2, 400, 20));
    s.push(1500, FaultEvent::CorruptLink(0, 0));
    s.push(1500, FaultEvent::DuplicateLink(1, 0));
    s.push(1500, FaultEvent::ReorderLink(2, 0, 0));
    s
}

#[test]
fn per_kind_counts_equal_the_jsonl_scan() {
    let topo = topology("diamond").unwrap();
    for protocol in Protocol::ALL {
        let outcome = run_case(&topo, protocol, &impaired_schedule(), 9);
        let metrics = outcome.metrics.as_ref().expect("the run finished");
        let text = case_text(&topo, protocol, &impaired_schedule(), 9, 1);
        let (impairments, drops) = scan(&text.telemetry);
        for kind in ["corrupt", "duplicate", "reorder"] {
            assert!(
                impairments.get(kind).is_some_and(|&n| n > 0),
                "{}: the channel must {kind}: {impairments:?}",
                protocol.name()
            );
        }
        assert!(!drops.is_empty(), "{}: corruption drops", protocol.name());
        assert_eq!(
            owned(&metrics.impairments),
            impairments,
            "{}",
            protocol.name()
        );
        assert_eq!(owned(&metrics.decode_drops), drops, "{}", protocol.name());
    }
}

/// One histogram that recorded `a`'s samples, then `b`'s.
fn recorded(a: &Histogram, b: &Histogram) -> Histogram {
    let mut h = Histogram::default();
    for &s in a.samples().iter().chain(b.samples()) {
        h.record(s);
    }
    h
}

#[test]
fn merged_runs_equal_one_aggregator_over_both() {
    let diamond = topology("diamond").unwrap();
    let mesh = topology("mesh").unwrap();
    let a = run_case(&diamond, Protocol::Pim, &impaired_schedule(), 9);
    let b = run_case(&mesh, Protocol::Pim, &random_schedule(&mesh, 5, false), 5);
    let (a, b) = (a.metrics.unwrap(), b.metrics.unwrap());
    assert!(a.reconvergence.count() > 0 && b.reconvergence.count() > 0);

    let mut merged: MetricsAggregator = a.clone();
    merged.merge(&b);
    for ((name, m), ((_, ha), (_, hb))) in merged
        .histograms()
        .into_iter()
        .zip(a.histograms().into_iter().zip(b.histograms()))
    {
        let both = recorded(ha, hb);
        // Counts, sum (through the mean), max and buckets (through the
        // rendering) and the samples in recording order: the whole value.
        assert_eq!(m.render(), both.render(), "{name}");
        assert_eq!(m, &both, "{name}");
        let mut got = m.samples().to_vec();
        let mut want = [ha.samples(), hb.samples()].concat();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{name}: the sample multiset");
    }
    assert_eq!(merged.queue_depth, recorded(&a.queue_depth, &b.queue_depth));
    assert_eq!(merged.queue_drops, a.queue_drops + b.queue_drops);
    assert_eq!(merged.ecn_marks, a.ecn_marks + b.ecn_marks);
    for (mine, x, y) in [
        (&merged.impairments, &a.impairments, &b.impairments),
        (&merged.decode_drops, &a.decode_drops, &b.decode_drops),
    ] {
        let mut want = x.clone();
        for (k, n) in y {
            *want.entry(k).or_default() += n;
        }
        assert_eq!(mine, &want);
    }
    assert!(!merged.impairments.is_empty());
}
