//! The JSONL writer and the coverage fold against their references, over
//! arbitrary event streams: every variant, node and link ids up to
//! `u32::MAX`, tokens, deadlines and byte counts up to `u64::MAX`, every
//! flag byte, and `Fault` texts with quotes, backslashes, control
//! characters and non-ASCII.
//!
//! The references are the writer and the fold as first written — JSON
//! through `fmt::Write`, field by field, and one FNV feature id per
//! event. The JSON reference calls none of the writers it judges:
//! numbers and dotted quads go through `std`'s `{}`, and flag sets are
//! spelled from a name table of its own. The sinks must reproduce them
//! byte for byte and count for count: the JSONL bytes are the
//! determinism fingerprint of every replay, and the coverage map's
//! entries and digest steer the search and pin its corpus.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::LazyLock;
use telemetry::{
    feature, flags, strpart, CoverageMap, CoverageSink, EntryKey, Event, JsonlSink, Sink, Ticks,
};
use wire::{Addr, Group};

// ---------------------------------------------------------------------
// Reference: the JSON writer
// ---------------------------------------------------------------------

fn reference_write_json(
    ev: &Event,
    node: u32,
    at: Ticks,
    out: &mut impl fmt::Write,
) -> fmt::Result {
    let mut j = JsonFields(out);
    write!(j.0, "{{\"t\":{at}")?;
    j.num("node", u64::from(node))?;
    j.text("ev", ev.kind())?;
    match ev {
        Event::EntryCreated {
            group,
            key,
            flags: f,
        } => {
            j.addr("group", group.addr())?;
            j.entry_key(*key)?;
            j.flags("flags", *f)?;
        }
        Event::EntryModified {
            group,
            key,
            from,
            to,
        } => {
            j.addr("group", group.addr())?;
            j.entry_key(*key)?;
            j.flags("from", *from)?;
            j.flags("to", *to)?;
        }
        Event::EntryExpired { group, key } => {
            j.addr("group", group.addr())?;
            j.entry_key(*key)?;
        }
        Event::TimerArmed { token, deadline } => {
            j.num("token", *token)?;
            j.num("deadline", *deadline)?;
        }
        Event::TimerFired { token } | Event::TimerCancelled { token } => j.num("token", *token)?,
        Event::CtrlSend { kind, dst } => {
            j.text("kind", kind)?;
            j.addr("dst", *dst)?;
        }
        Event::CtrlRecv { kind, src } => {
            j.text("kind", kind)?;
            j.addr("src", *src)?;
        }
        Event::DataDelivered { group, source } | Event::SptSwitchStart { group, source } => {
            j.addr("group", group.addr())?;
            j.addr("source", *source)?;
        }
        Event::LocalMemberJoined { group } | Event::LocalMemberLeft { group } => {
            j.addr("group", group.addr())?
        }
        Event::DrChanged { iface, is_dr } => {
            j.num("iface", u64::from(*iface))?;
            j.flag("is_dr", *is_dr)?;
        }
        Event::QuerierChanged { iface, is_querier } => {
            j.num("iface", u64::from(*iface))?;
            j.flag("is_querier", *is_querier)?;
        }
        Event::RpFailover { group, from, to } => {
            j.addr("group", group.addr())?;
            j.addr("from", *from)?;
            j.addr("to", *to)?;
        }
        Event::RouteChanged { dst } => j.addr("dst", *dst)?,
        Event::Fault { desc } => j.escaped("desc", desc)?,
        Event::DecodeFailed { kind, iface } => {
            j.text("kind", kind)?;
            j.num("iface", u64::from(*iface))?;
        }
        Event::ChannelImpaired { what, link } | Event::QueueDrop { what, link } => {
            j.text("what", what)?;
            j.num("link", u64::from(*link))?;
        }
        Event::EcnMark { link } => j.num("link", u64::from(*link))?,
        Event::QueueDepth { link, bytes } => {
            j.num("link", u64::from(*link))?;
            j.num("bytes", *bytes)?;
        }
    }
    j.0.write_char('}')
}

/// Each flag bit with its name, in the order a flag set spells them.
const FLAG_NAMES: [(u8, &str); 5] = [
    (flags::WC, "WC"),
    (flags::RP, "RP"),
    (flags::SPT, "SPT"),
    (flags::PRUNED, "PRUNED"),
    (flags::ON_TREE, "ON_TREE"),
];

struct JsonFields<'a, W>(&'a mut W);

impl<W: fmt::Write> JsonFields<'_, W> {
    fn name(&mut self, name: &str) -> fmt::Result {
        self.0.write_str(",\"")?;
        self.0.write_str(name)?;
        self.0.write_str("\":")
    }

    fn num(&mut self, name: &str, n: u64) -> fmt::Result {
        self.name(name)?;
        write!(self.0, "{n}")
    }

    fn flag(&mut self, name: &str, b: bool) -> fmt::Result {
        self.name(name)?;
        self.0.write_str(if b { "true" } else { "false" })
    }

    fn text(&mut self, name: &str, v: &str) -> fmt::Result {
        self.name(name)?;
        self.0.write_char('"')?;
        self.0.write_str(v)?;
        self.0.write_char('"')
    }

    fn addr(&mut self, name: &str, a: Addr) -> fmt::Result {
        self.name(name)?;
        let [a, b, c, d] = a.to_bytes();
        write!(self.0, "\"{a}.{b}.{c}.{d}\"")
    }

    fn entry_key(&mut self, key: EntryKey) -> fmt::Result {
        match key {
            EntryKey::Star => self.text("key", "*"),
            EntryKey::Source(s) => self.addr("key", s),
        }
    }

    fn flags(&mut self, name: &str, f: u8) -> fmt::Result {
        self.name(name)?;
        self.0.write_char('"')?;
        let mut sep = "";
        for (bit, flag) in FLAG_NAMES {
            if f & bit != 0 {
                write!(self.0, "{sep}{flag}")?;
                sep = "|";
            }
        }
        if sep.is_empty() {
            self.0.write_char('-')?;
        }
        self.0.write_char('"')
    }

    fn escaped(&mut self, name: &str, v: &str) -> fmt::Result {
        self.name(name)?;
        self.0.write_char('"')?;
        for c in v.chars() {
            match c {
                '"' => self.0.write_str("\\\"")?,
                '\\' => self.0.write_str("\\\\")?,
                '\n' => self.0.write_str("\\n")?,
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.write_char(c)?,
            }
        }
        self.0.write_char('"')
    }
}

// ---------------------------------------------------------------------
// Reference: the coverage fold
// ---------------------------------------------------------------------

/// One feature id per event, hashed as the event arrives, and the
/// per-node event-kind digram. (`feature("x", parts)` is the fold's
/// `feature_from(strpart("x"), parts)` bit for bit; the previous kind is
/// kept per node in a map, so any `u32` node id is cheap.)
struct ReferenceCoverage {
    map: CoverageMap,
    tag: u64,
    last: BTreeMap<u32, u64>,
}

impl ReferenceCoverage {
    fn new(tag: u64) -> ReferenceCoverage {
        ReferenceCoverage {
            map: CoverageMap::new(),
            tag,
            last: BTreeMap::new(),
        }
    }

    fn event(&mut self, node: u32, ev: &Event) {
        let t = self.tag;
        let n = u64::from(node);
        let key_class = |k: &EntryKey| -> u64 {
            match k {
                EntryKey::Star => 0,
                EntryKey::Source(_) => 1,
            }
        };
        let k = strpart(ev.kind());
        let f = match ev {
            Event::EntryCreated { key, flags: f2, .. } => {
                feature("entry-flags", &[t, n, key_class(key), 0, u64::from(*f2)])
            }
            Event::EntryModified { key, from, to, .. } => feature(
                "entry-flags",
                &[t, n, key_class(key), u64::from(*from), u64::from(*to)],
            ),
            Event::EntryExpired { key, .. } => feature("entry-expired", &[t, n, key_class(key)]),
            Event::CtrlSend { kind, .. } => feature("ctrl-send", &[t, n, strpart(kind)]),
            Event::CtrlRecv { kind, .. } => feature("ctrl-recv", &[t, n, strpart(kind)]),
            Event::DecodeFailed { kind, .. } => feature("decode", &[t, n, strpart(kind)]),
            Event::ChannelImpaired { what, link } => {
                feature("impair", &[t, u64::from(*link), strpart(what)])
            }
            Event::QueueDrop { what, link } => {
                feature("qdrop", &[t, u64::from(*link), strpart(what)])
            }
            Event::EcnMark { link } => feature("ecn", &[t, u64::from(*link)]),
            Event::QueueDepth { link, bytes } => feature(
                "qdepth",
                &[t, u64::from(*link), u64::from(CoverageMap::bucket(*bytes))],
            ),
            Event::DataDelivered { .. } => feature("deliver", &[t, n]),
            _ => feature("ev", &[t, n, k]),
        };
        self.map.record(f);
        if let Some(prev) = self.last.insert(node, k) {
            self.map.record(feature("digram", &[t, n, prev, k]));
        }
    }
}

// ---------------------------------------------------------------------
// Arbitrary event streams
// ---------------------------------------------------------------------

/// The `&'static str` labels events carry: message kinds, decode-error
/// kinds, impairment and drop classes.
const NAMES: [&str; 28] = [
    "igmp-query",
    "igmp-report",
    "rp-mapping",
    "pim-query",
    "pim-register",
    "pim-join-prune",
    "pim-rp-reachability",
    "dvmrp-probe",
    "dvmrp-prune",
    "dvmrp-graft",
    "dvmrp-graft-ack",
    "cbt-join",
    "cbt-join-ack",
    "cbt-echo",
    "cbt-echo-reply",
    "cbt-quit",
    "cbt-flush",
    "dv-update",
    "lsa",
    "hello",
    "checksum",
    "truncated",
    "corrupt",
    "duplicate",
    "reorder",
    "data",
    "ctrl",
    "",
];

/// [`NAMES`] plus two labels whose text repeats one of them at another
/// address: a sink must treat equal text as one name, whatever its
/// address.
static LABELS: LazyLock<Vec<&'static str>> = LazyLock::new(|| {
    let again = |s: &str| -> &'static str { Box::leak(s.to_string().into_boxed_str()) };
    let mut v = NAMES.to_vec();
    v.extend([again("pim-join-prune"), again("reorder")]);
    v
});

/// What a `Fault` text is drawn from: the escape classes, ASCII, and
/// multi-byte characters.
const CHARS: [char; 16] = [
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', ' ', 'a', 'Z', '~', '\u{7f}', 'é',
    '€', '😀',
];

/// A node or link id: small ones (so per-node digrams recur), the top of
/// the range, and anything at all.
fn id() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..6, (u32::MAX - 3)..=u32::MAX, any::<u32>()]
}

/// A token, deadline, byte count or time: every decimal length, the
/// powers of ten and their predecessors, and `u64::MAX`.
fn num() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        0u64..1000,
        (0u32..20).prop_map(|e| 10u64.pow(e)),
        (1u32..20).prop_map(|e| 10u64.pow(e) - 1),
        Just(u64::MAX),
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<bool>(), any::<u32>()), 0..12).prop_map(|cs| {
        cs.into_iter()
            .map(|(special, x)| {
                if special {
                    CHARS[x as usize % CHARS.len()]
                } else {
                    char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}')
                }
            })
            .collect()
    })
}

/// One drawn event: variant, node, two addresses, an id, two numbers,
/// two flag bytes and a bit, a label, a text.
type Draw = (
    u8,
    u32,
    (u32, u32, u32),
    u32,
    (u64, u64),
    (u8, u8, bool),
    usize,
    String,
);

fn draw(node: impl Strategy<Value = u32>) -> impl Strategy<Value = Draw> {
    (
        0u8..22,
        node,
        (any::<u32>(), any::<u32>(), any::<u32>()),
        id(),
        (num(), num()),
        (any::<u8>(), any::<u8>(), any::<bool>()),
        any::<usize>(),
        text(),
    )
}

/// Any class-D address.
fn group(bits: u32) -> Group {
    Group::new(Addr(0xE000_0000 | (bits & 0x0FFF_FFFF))).expect("class D")
}

fn event(d: &Draw) -> Event {
    let &(variant, _, (a, b, c), id, (x, y), (f1, f2, bit), label, ref desc) = d;
    let label = LABELS[label % LABELS.len()];
    let key = if bit {
        EntryKey::Source(Addr(b))
    } else {
        EntryKey::Star
    };
    match variant {
        0 => Event::EntryCreated {
            group: group(a),
            key,
            flags: f1,
        },
        1 => Event::EntryModified {
            group: group(a),
            key,
            from: f1,
            to: f2,
        },
        2 => Event::EntryExpired {
            group: group(a),
            key,
        },
        3 => Event::TimerArmed {
            token: x,
            deadline: y,
        },
        4 => Event::TimerFired { token: x },
        5 => Event::TimerCancelled { token: y },
        6 => Event::CtrlSend {
            kind: label,
            dst: Addr(a),
        },
        7 => Event::CtrlRecv {
            kind: label,
            src: Addr(b),
        },
        8 => Event::DataDelivered {
            group: group(a),
            source: Addr(c),
        },
        9 => Event::LocalMemberJoined { group: group(b) },
        10 => Event::LocalMemberLeft { group: group(c) },
        11 => Event::DrChanged {
            iface: id,
            is_dr: bit,
        },
        12 => Event::QuerierChanged {
            iface: id,
            is_querier: bit,
        },
        13 => Event::RpFailover {
            group: group(a),
            from: Addr(b),
            to: Addr(c),
        },
        14 => Event::SptSwitchStart {
            group: group(c),
            source: Addr(a),
        },
        15 => Event::RouteChanged { dst: Addr(c) },
        16 => Event::Fault { desc: desc.clone() },
        17 => Event::DecodeFailed {
            kind: label,
            iface: id,
        },
        18 => Event::ChannelImpaired {
            what: label,
            link: id,
        },
        19 => Event::QueueDrop {
            what: label,
            link: id,
        },
        20 => Event::EcnMark { link: id },
        _ => Event::QueueDepth { link: id, bytes: y },
    }
}

// ---------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn jsonl_bytes_are_the_reference_bytes(
        draws in prop::collection::vec(draw(id()), 1..40),
        at in num(),
    ) {
        let mut sink = JsonlSink::new(Vec::new());
        let mut want = String::new();
        for d in &draws {
            let ev = event(d);
            let mut line = String::new();
            reference_write_json(&ev, d.1, at, &mut line).expect("a String never fails");
            prop_assert_eq!(ev.to_json(d.1, at), line.as_str(), "to_json of {:?}", ev);
            sink.event(d.1, at, &ev);
            want.push_str(&line);
            want.push('\n');
        }
        prop_assert_eq!(sink.errors, 0);
        prop_assert_eq!(sink.into_inner(), want.into_bytes());
    }

    #[test]
    fn coverage_is_the_reference_fold(
        draws in prop::collection::vec(draw(id()), 1..60),
        tag in prop_oneof![0u64..3, any::<u64>()],
    ) {
        let mut sink = CoverageSink::new(tag);
        let mut want = ReferenceCoverage::new(tag);
        for d in &draws {
            let ev = event(d);
            sink.event(d.1, 0, &ev);
            want.event(d.1, &ev);
        }
        let got: Vec<(u64, u64)> = sink.map().entries().collect();
        let expected: Vec<(u64, u64)> = want.map.entries().collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(sink.map().stable_hash(), want.map.stable_hash());
    }
}

/// Every variant, every label, both entry keys: the properties draw
/// from all of them, and this makes sure a short run does too.
#[test]
fn the_draws_reach_every_variant_and_label() {
    let mut kinds = std::collections::BTreeSet::new();
    for variant in 0..22u8 {
        let ev = event(&(
            variant,
            0,
            (1, 2, 3),
            4,
            (5, 6),
            (7, 8, true),
            0,
            String::new(),
        ));
        kinds.insert(ev.kind());
    }
    assert_eq!(kinds.len(), 22, "one variant per draw");
    assert_eq!(LABELS.len(), NAMES.len() + 2);
    assert_eq!(LABELS[NAMES.len()], "pim-join-prune");
    assert!(!std::ptr::eq(LABELS[NAMES.len()], NAMES[5]));
}
