//! Structured protocol-event telemetry.
//!
//! The paper's evaluation (§1, §4) compares protocols by the state they
//! hold, the control messages they process, and the data packets they
//! forward. This crate provides the per-event observability layer that
//! makes those comparisons possible inside the simulator: a typed
//! [`Event`] stream emitted by netsim, the node adapter, and all three
//! protocol engines, consumed through the [`Sink`] trait.
//!
//! Five sinks ship with the crate, and [`Fanout`] feeds one stream to
//! several of them:
//!
//! * [`FlightRecorder`] — a bounded per-node ring buffer of events, a
//!   post-mortem tail;
//! * [`JsonlSink`] — a JSON-lines writer keyed by deterministic sim
//!   time, whose byte stream doubles as the determinism fingerprint;
//! * [`MetricsAggregator`] — sim-time histograms of join latency,
//!   SPT-switchover time, and post-fault reconvergence time;
//! * [`CoverageSink`] — the stream folded into a [`CoverageMap`], the
//!   feedback signal of coverage-guided schedule search;
//! * [`CausalIndex`] — the causal DAG over dispatches: backward slices,
//!   blast radii, critical paths, and each node's last events
//!   ([`CausalIndex::tail`], the explorer's post-mortem flight dumps).
//!
//! # Determinism rules
//!
//! Telemetry *observes*; it never participates. Emitters consume no
//! randomness and take no behavioral branches on whether a sink is
//! attached, so packet traces are bit-identical with telemetry on or
//! off. Every event is keyed by deterministic sim time ([`Ticks`]) —
//! wall-clock time never appears in an event or a rendered line.
//!
//! # Record now, render on read
//!
//! Sinks store the compact [`Event`] and produce text only when somebody
//! reads it ([`FlightRecorder::dump`], the [`CausalIndex`] slices and
//! tails): most runs pass every oracle and nobody ever does. The one
//! sink whose output *is* text, [`JsonlSink`], writes each line through
//! [`Event::write_json`] into a reused `String`. The crate keeps no
//! decimal or dotted-quad writer of its own: numbers and addresses go
//! out through `wire`'s ([`wire::write_dec`], [`Addr::write_to`]), and
//! flag sets through [`flags::Set::write_to`], the same writers behind
//! their `Display`. [`CoverageSink`] counts raw feature inputs and
//! hashes them into feature ids only when its map is read. The
//! simulator hands the sink tree one barrier window at a time
//! ([`Sink::batch`]), so a [`Fanout`] locks each child once per window,
//! not once per event.
//!
//! # Zero overhead when disabled
//!
//! A protocol engine queues its events in its own [`Telem`] outbox, an
//! on/off bit and a `Vec`; the node adapter moves them into the running
//! dispatch before it acts on what the engine returned. [`Telem::emit`]
//! takes a closure, so an outbox that is off costs one branch and never
//! constructs the [`Event`]. Inside the simulator nothing else holds a
//! sink: the user's [`SharedSink`] is locked once per barrier window.

#![warn(missing_docs)]

pub mod trace;

pub use trace::CausalIndex;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use wire::{write_dec, Addr, Group, Message};

/// Simulator time in ticks.
///
/// This crate sits below `netsim` in the dependency graph (so the
/// protocol crates can use it without a cycle), so it cannot name
/// `netsim::SimTime`; emitters pass `SimTime.0` and sinks treat the
/// value as opaque ordered time.
pub type Ticks = u64;

/// The canonical identity of one simulator *dispatch* — the handling of
/// a single event (packet delivery, timer firing, scripted fault, or a
/// node's `on_start`). The fields mirror netsim's internal canonical
/// event key, which is partition-independent by construction: the same
/// dispatch has the same `EventId` at any `--threads` and under any
/// region partitioning.
///
/// Ordering is lexicographic `(time, epoch, origin, seq)` — exactly the
/// simulator's deterministic execution order — so "parent precedes
/// child" is checkable as plain `<` on ids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// Sim time of the dispatch.
    pub time: Ticks,
    /// Scheduling epoch (0 = start-of-world, 1 = script, 2 = runtime).
    pub epoch: u8,
    /// Origin discriminator (node index + 1, or 0 for scripts).
    pub origin: u32,
    /// Per-origin dispatch sequence number.
    pub seq: u64,
}

impl EventId {
    /// Stable short rendering, e.g. `t240/e2/o3#17` — part of the
    /// causal-slice byte format asserted identical across `--threads`.
    pub fn render(&self) -> String {
        format!(
            "t{}/e{}/o{}#{}",
            self.time, self.epoch, self.origin, self.seq
        )
    }
}

/// Causal provenance of one emitted event: the dispatch it was emitted
/// from (`id`) and that dispatch's own cause — the dispatch that created
/// the event being handled (`None` for roots: `on_start` and scripted
/// faults).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// The dispatch this event was emitted during.
    pub id: EventId,
    /// The dispatch that caused `id` to run, if any.
    pub cause: Option<EventId>,
}

/// Bit flags describing a multicast state entry, shared across all
/// three protocols so sinks can diff transitions uniformly.
///
/// PIM uses [`flags::WC`]/[`flags::RP`]/[`flags::SPT`] exactly as the
/// paper's join/prune entry bits; DVMRP expresses its negative cache
/// with [`flags::PRUNED`]; CBT expresses tree membership with
/// [`flags::ON_TREE`].
pub mod flags {
    /// Wildcard entry — PIM (*,G).
    pub const WC: u8 = 1;
    /// RP-bit — state toward the rendezvous point (also marks PIM
    /// negative cache entries).
    pub const RP: u8 = 2;
    /// SPT-bit — packets arriving on the shortest-path tree.
    pub const SPT: u8 = 4;
    /// DVMRP prune state: the entry's upstream has been pruned.
    pub const PRUNED: u8 = 8;
    /// CBT: this router is attached to the group's core-based tree.
    pub const ON_TREE: u8 = 16;

    /// Each flag with its name, in rendering order.
    const NAMES: [(u8, &str); 5] = [
        (WC, "WC"),
        (RP, "RP"),
        (SPT, "SPT"),
        (PRUNED, "PRUNED"),
        (ON_TREE, "ON_TREE"),
    ];

    /// A flag set that displays as a stable short string, e.g. `WC|RP`;
    /// the empty set displays as `-`.
    #[derive(Clone, Copy, Debug)]
    pub struct Set(pub u8);

    impl Set {
        /// The set's text, appended to `out`: the one flag-set writer,
        /// behind `Display` and the JSONL stream. Fails only if `out`
        /// does.
        pub fn write_to<W: std::fmt::Write>(self, out: &mut W) -> std::fmt::Result {
            let mut sep = "";
            for (bit, name) in NAMES {
                if self.0 & bit != 0 {
                    out.write_str(sep)?;
                    out.write_str(name)?;
                    sep = "|";
                }
            }
            if sep.is_empty() {
                out.write_str("-")?;
            }
            Ok(())
        }
    }

    impl std::fmt::Display for Set {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.write_to(f)
        }
    }
}

/// The key of a multicast routing entry: the shared tree or a source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntryKey {
    /// The shared (*,G) entry.
    Star,
    /// A source-specific (S,G) entry.
    Source(Addr),
}

impl fmt::Display for EntryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryKey::Star => f.write_str("*"),
            EntryKey::Source(s) => s.write_to(f),
        }
    }
}

/// One structured protocol event, keyed by the emitting node and sim
/// time at the [`Sink`] boundary (see [`Sink::event`]).
///
/// The taxonomy covers every transition class the paper's evaluation
/// reasons about: entry lifecycle with flag deltas, timers, control
/// traffic, local membership, elections, RP failover, SPT switchover,
/// and unicast route change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A (*,G) or (S,G) entry was created with the given flags.
    EntryCreated {
        /// Group the entry belongs to.
        group: Group,
        /// Shared-tree or source key.
        key: EntryKey,
        /// Initial [`flags`] bit set.
        flags: u8,
    },
    /// An entry's flag bits changed (e.g. SPT-bit set, prune installed).
    EntryModified {
        /// Group the entry belongs to.
        group: Group,
        /// Shared-tree or source key.
        key: EntryKey,
        /// Flag bits before the transition.
        from: u8,
        /// Flag bits after the transition.
        to: u8,
    },
    /// An entry timed out or was deleted.
    EntryExpired {
        /// Group the entry belonged to.
        group: Group,
        /// Shared-tree or source key.
        key: EntryKey,
    },
    /// A timer was armed for `deadline`.
    TimerArmed {
        /// Node-local timer token.
        token: u64,
        /// Absolute sim-time deadline.
        deadline: Ticks,
    },
    /// A live timer fired.
    TimerFired {
        /// Node-local timer token.
        token: u64,
    },
    /// A pending timer was cancelled before firing.
    TimerCancelled {
        /// Node-local timer token.
        token: u64,
    },
    /// A control message was sent (join/prune, register, graft, hello…).
    CtrlSend {
        /// Stable message-kind name from [`message_kind`].
        kind: &'static str,
        /// Destination address.
        dst: Addr,
    },
    /// A control message was received and decoded.
    CtrlRecv {
        /// Stable message-kind name from [`message_kind`].
        kind: &'static str,
        /// Source address.
        src: Addr,
    },
    /// Multicast data was delivered to local group members.
    DataDelivered {
        /// Destination group.
        group: Group,
        /// Original data source.
        source: Addr,
    },
    /// IGMP reported a first local member for `group`.
    LocalMemberJoined {
        /// The joined group.
        group: Group,
    },
    /// IGMP reported the last local member of `group` expired.
    LocalMemberLeft {
        /// The departed group.
        group: Group,
    },
    /// This router's designated-router status on an interface changed.
    DrChanged {
        /// Interface index.
        iface: u32,
        /// Whether this router is now the DR.
        is_dr: bool,
    },
    /// This router's IGMP querier status on an interface changed.
    QuerierChanged {
        /// Interface index.
        iface: u32,
        /// Whether this router is now the querier.
        is_querier: bool,
    },
    /// The group's reachable RP changed (paper §3.3: RP failure).
    RpFailover {
        /// The affected group.
        group: Group,
        /// Previous RP.
        from: Addr,
        /// Newly selected RP.
        to: Addr,
    },
    /// A receiver-side switch from shared tree to source SPT began.
    SptSwitchStart {
        /// The affected group.
        group: Group,
        /// The source being switched to.
        source: Addr,
    },
    /// The unicast RIB's route toward `dst` changed.
    RouteChanged {
        /// Route destination.
        dst: Addr,
    },
    /// An injected fault (scenario schedules mark these so sinks can
    /// measure post-fault reconvergence).
    Fault {
        /// Human-readable fault description, e.g. `crash r2`.
        desc: String,
    },
    /// A received payload failed to decode and was dropped (adversarial
    /// channel accounting; never opens a reconvergence window).
    DecodeFailed {
        /// Stable [`wire::DecodeError::kind`] label, e.g. `checksum`.
        kind: &'static str,
        /// Ingress interface the undecodable payload arrived on.
        iface: u32,
    },
    /// The channel model impaired a packet copy in flight (corrupted,
    /// duplicated, or delayed out of order). A per-packet mark, distinct
    /// from [`Event::Fault`] so it never opens a reconvergence window.
    ChannelImpaired {
        /// What happened: `corrupt`, `duplicate`, or `reorder`.
        what: &'static str,
        /// The link the impairment occurred on.
        link: u32,
    },
    /// The capacity model tail-dropped a packet at a full transmit
    /// queue. Per-packet congestion noise like [`Event::ChannelImpaired`]
    /// — never opens a reconvergence window.
    QueueDrop {
        /// Dropped packet's class: `data` or `ctrl`.
        what: &'static str,
        /// The congested link.
        link: u32,
    },
    /// The capacity model counted an ECN-style congestion mark (an
    /// enqueue crossed the link's marking threshold).
    EcnMark {
        /// The congested link.
        link: u32,
    },
    /// A transmit-queue backlog reached a new per-direction peak
    /// power-of-2 bucket. Rate-limited by construction — at most 64
    /// events per link direction however long the overload lasts — so
    /// the telemetry stream stays bounded and deterministic.
    QueueDepth {
        /// The congested link.
        link: u32,
        /// The backlog, in bytes, at the new peak.
        bytes: u64,
    },
}

impl Event {
    /// The event's stable kind tag, used as the JSON `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EntryCreated { .. } => "entry_created",
            Event::EntryModified { .. } => "entry_modified",
            Event::EntryExpired { .. } => "entry_expired",
            Event::TimerArmed { .. } => "timer_armed",
            Event::TimerFired { .. } => "timer_fired",
            Event::TimerCancelled { .. } => "timer_cancelled",
            Event::CtrlSend { .. } => "ctrl_send",
            Event::CtrlRecv { .. } => "ctrl_recv",
            Event::DataDelivered { .. } => "data_delivered",
            Event::LocalMemberJoined { .. } => "member_joined",
            Event::LocalMemberLeft { .. } => "member_left",
            Event::DrChanged { .. } => "dr_changed",
            Event::QuerierChanged { .. } => "querier_changed",
            Event::RpFailover { .. } => "rp_failover",
            Event::SptSwitchStart { .. } => "spt_switch_start",
            Event::RouteChanged { .. } => "route_changed",
            Event::Fault { .. } => "fault",
            Event::DecodeFailed { .. } => "decode_failed",
            Event::ChannelImpaired { .. } => "channel_impaired",
            Event::QueueDrop { .. } => "queue_drop",
            Event::EcnMark { .. } => "ecn_mark",
            Event::QueueDepth { .. } => "queue_depth",
        }
    }

    /// Append the event as one JSON object (no trailing newline) to
    /// `out`. Hand-rolled — the workspace builds offline with no serde —
    /// but every field is either numeric, a dotted-quad, or an escaped
    /// string, so the output is valid JSON. Each variant's literal text
    /// between two values is one write (`,"ev":"ctrl_send","kind":"`),
    /// and numbers, addresses and flag sets go out through the writers
    /// of their own types ([`wire::write_dec`], [`Addr::write_to`],
    /// [`flags::Set::write_to`]): every event of every traced run comes
    /// through here. Fails only if `out` does.
    pub fn write_json(&self, node: u32, at: Ticks, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str("{\"t\":")?;
        write_dec(out, at)?;
        out.write_str(",\"node\":")?;
        write_dec(out, u64::from(node))?;
        let close = match self {
            Event::EntryCreated {
                group,
                key,
                flags: f,
            } => {
                out.write_str(",\"ev\":\"entry_created\",\"group\":\"")?;
                group.addr().write_to(out)?;
                write!(out, "\",\"key\":\"{key}\",\"flags\":\"")?;
                flags::Set(*f).write_to(out)?;
                "\"}"
            }
            Event::EntryModified {
                group,
                key,
                from,
                to,
            } => {
                out.write_str(",\"ev\":\"entry_modified\",\"group\":\"")?;
                group.addr().write_to(out)?;
                write!(out, "\",\"key\":\"{key}\",\"from\":\"")?;
                flags::Set(*from).write_to(out)?;
                out.write_str("\",\"to\":\"")?;
                flags::Set(*to).write_to(out)?;
                "\"}"
            }
            Event::EntryExpired { group, key } => {
                out.write_str(",\"ev\":\"entry_expired\",\"group\":\"")?;
                group.addr().write_to(out)?;
                write!(out, "\",\"key\":\"{key}")?;
                "\"}"
            }
            Event::TimerArmed { token, deadline } => {
                out.write_str(",\"ev\":\"timer_armed\",\"token\":")?;
                write_dec(out, *token)?;
                out.write_str(",\"deadline\":")?;
                write_dec(out, *deadline)?;
                "}"
            }
            Event::TimerFired { token } => {
                out.write_str(",\"ev\":\"timer_fired\",\"token\":")?;
                write_dec(out, *token)?;
                "}"
            }
            Event::TimerCancelled { token } => {
                out.write_str(",\"ev\":\"timer_cancelled\",\"token\":")?;
                write_dec(out, *token)?;
                "}"
            }
            Event::CtrlSend { kind, dst } => {
                out.write_str(",\"ev\":\"ctrl_send\",\"kind\":\"")?;
                out.write_str(kind)?;
                out.write_str("\",\"dst\":\"")?;
                dst.write_to(out)?;
                "\"}"
            }
            Event::CtrlRecv { kind, src } => {
                out.write_str(",\"ev\":\"ctrl_recv\",\"kind\":\"")?;
                out.write_str(kind)?;
                out.write_str("\",\"src\":\"")?;
                src.write_to(out)?;
                "\"}"
            }
            Event::DataDelivered { group, source } => {
                out.write_str(",\"ev\":\"data_delivered\",\"group\":\"")?;
                group.addr().write_to(out)?;
                out.write_str("\",\"source\":\"")?;
                source.write_to(out)?;
                "\"}"
            }
            Event::LocalMemberJoined { group } => {
                out.write_str(",\"ev\":\"member_joined\",\"group\":\"")?;
                group.addr().write_to(out)?;
                "\"}"
            }
            Event::LocalMemberLeft { group } => {
                out.write_str(",\"ev\":\"member_left\",\"group\":\"")?;
                group.addr().write_to(out)?;
                "\"}"
            }
            Event::DrChanged { iface, is_dr } => {
                out.write_str(",\"ev\":\"dr_changed\",\"iface\":")?;
                write_dec(out, u64::from(*iface))?;
                out.write_str(",\"is_dr\":")?;
                if *is_dr {
                    "true}"
                } else {
                    "false}"
                }
            }
            Event::QuerierChanged { iface, is_querier } => {
                out.write_str(",\"ev\":\"querier_changed\",\"iface\":")?;
                write_dec(out, u64::from(*iface))?;
                out.write_str(",\"is_querier\":")?;
                if *is_querier {
                    "true}"
                } else {
                    "false}"
                }
            }
            Event::RpFailover { group, from, to } => {
                out.write_str(",\"ev\":\"rp_failover\",\"group\":\"")?;
                group.addr().write_to(out)?;
                out.write_str("\",\"from\":\"")?;
                from.write_to(out)?;
                out.write_str("\",\"to\":\"")?;
                to.write_to(out)?;
                "\"}"
            }
            Event::SptSwitchStart { group, source } => {
                out.write_str(",\"ev\":\"spt_switch_start\",\"group\":\"")?;
                group.addr().write_to(out)?;
                out.write_str("\",\"source\":\"")?;
                source.write_to(out)?;
                "\"}"
            }
            Event::RouteChanged { dst } => {
                out.write_str(",\"ev\":\"route_changed\",\"dst\":\"")?;
                dst.write_to(out)?;
                "\"}"
            }
            Event::Fault { desc } => {
                out.write_str(",\"ev\":\"fault\",\"desc\":\"")?;
                push_escaped(out, desc)?;
                "\"}"
            }
            Event::DecodeFailed { kind, iface } => {
                out.write_str(",\"ev\":\"decode_failed\",\"kind\":\"")?;
                out.write_str(kind)?;
                out.write_str("\",\"iface\":")?;
                write_dec(out, u64::from(*iface))?;
                "}"
            }
            Event::ChannelImpaired { what, link } => {
                out.write_str(",\"ev\":\"channel_impaired\",\"what\":\"")?;
                out.write_str(what)?;
                out.write_str("\",\"link\":")?;
                write_dec(out, u64::from(*link))?;
                "}"
            }
            Event::QueueDrop { what, link } => {
                out.write_str(",\"ev\":\"queue_drop\",\"what\":\"")?;
                out.write_str(what)?;
                out.write_str("\",\"link\":")?;
                write_dec(out, u64::from(*link))?;
                "}"
            }
            Event::EcnMark { link } => {
                out.write_str(",\"ev\":\"ecn_mark\",\"link\":")?;
                write_dec(out, u64::from(*link))?;
                "}"
            }
            Event::QueueDepth { link, bytes } => {
                out.write_str(",\"ev\":\"queue_depth\",\"link\":")?;
                write_dec(out, u64::from(*link))?;
                out.write_str(",\"bytes\":")?;
                write_dec(out, *bytes)?;
                "}"
            }
        };
        out.write_str(close)
    }

    /// [`Event::write_json`] into a fresh `String`.
    pub fn to_json(&self, node: u32, at: Ticks) -> String {
        let mut out = String::new();
        let _ = self.write_json(node, at, &mut out);
        out
    }
}

/// Write `s` escaped for a JSON string: quote, backslash and newline by
/// name, other control characters as `\u00XX`, everything else (UTF-8
/// sequences included: their bytes are all above 0x7f) as is, in runs.
fn push_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` and `i + 1` are character boundaries.
        out.write_str(&s[plain..i])?;
        plain = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[plain..])
}

/// The stable single-line text form, used by flight dumps, causal
/// slices and replay artifacts (changing it invalidates recorded dumps).
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use flags::Set;
        match self {
            Event::EntryCreated {
                group,
                key,
                flags: fl,
            } => write!(f, "entry-created ({key},{group}) flags={}", Set(*fl)),
            Event::EntryModified {
                group,
                key,
                from,
                to,
            } => write!(
                f,
                "entry-modified ({key},{group}) {}->{}",
                Set(*from),
                Set(*to)
            ),
            Event::EntryExpired { group, key } => write!(f, "entry-expired ({key},{group})"),
            Event::TimerArmed { token, deadline } => {
                write!(f, "timer-armed token={token} deadline={deadline}")
            }
            Event::TimerFired { token } => write!(f, "timer-fired token={token}"),
            Event::TimerCancelled { token } => write!(f, "timer-cancelled token={token}"),
            Event::CtrlSend { kind, dst } => write!(f, "ctrl-send {kind} dst={dst}"),
            Event::CtrlRecv { kind, src } => write!(f, "ctrl-recv {kind} src={src}"),
            Event::DataDelivered { group, source } => {
                write!(f, "data-delivered group={group} source={source}")
            }
            Event::LocalMemberJoined { group } => write!(f, "member-joined group={group}"),
            Event::LocalMemberLeft { group } => write!(f, "member-left group={group}"),
            Event::DrChanged { iface, is_dr } => {
                write!(f, "dr-changed iface={iface} is_dr={is_dr}")
            }
            Event::QuerierChanged { iface, is_querier } => {
                write!(f, "querier-changed iface={iface} is_querier={is_querier}")
            }
            Event::RpFailover { group, from, to } => {
                write!(f, "rp-failover group={group} from={from} to={to}")
            }
            Event::SptSwitchStart { group, source } => {
                write!(f, "spt-switch-start group={group} source={source}")
            }
            Event::RouteChanged { dst } => write!(f, "route-changed dst={dst}"),
            Event::Fault { desc } => write!(f, "fault {desc}"),
            Event::DecodeFailed { kind, iface } => {
                write!(f, "decode-failed kind={kind} iface={iface}")
            }
            Event::ChannelImpaired { what, link } => write!(f, "channel {what} link={link}"),
            Event::QueueDrop { what, link } => write!(f, "queue-drop {what} link={link}"),
            Event::EcnMark { link } => write!(f, "ecn-mark link={link}"),
            Event::QueueDepth { link, bytes } => write!(f, "queue-depth link={link} bytes={bytes}"),
        }
    }
}

/// The stable short name of a wire message, used by the `CtrlSend` /
/// `CtrlRecv` events. One name per [`Message`] variant.
pub fn message_kind(msg: &Message) -> &'static str {
    match msg {
        Message::HostQuery(_) => "igmp-query",
        Message::HostReport(_) => "igmp-report",
        Message::RpMapping(_) => "rp-mapping",
        Message::PimQuery(_) => "pim-query",
        Message::PimRegister(_) => "pim-register",
        Message::PimJoinPrune(_) => "pim-join-prune",
        Message::PimRpReachability(_) => "pim-rp-reachability",
        Message::DvmrpProbe(_) => "dvmrp-probe",
        Message::DvmrpPrune(_) => "dvmrp-prune",
        Message::DvmrpGraft(_) => "dvmrp-graft",
        Message::DvmrpGraftAck(_) => "dvmrp-graft-ack",
        Message::CbtJoinRequest(_) => "cbt-join",
        Message::CbtJoinAck(_) => "cbt-join-ack",
        Message::CbtEcho(_) => "cbt-echo",
        Message::CbtEchoReply(_) => "cbt-echo-reply",
        Message::CbtQuit(_) => "cbt-quit",
        Message::CbtFlushTree(_) => "cbt-flush",
        Message::DvUpdate(_) => "dv-update",
        Message::Lsa(_) => "lsa",
        Message::Hello(_) => "hello",
    }
}

/// One emitted event with everything a sink is told about it: the
/// arguments of [`Sink::event_caused`] as a value, so a whole window's
/// emissions can be handed over as one slice ([`Sink::batch`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Emission {
    /// Node that emitted the event.
    pub node: u32,
    /// Sim time of emission.
    pub at: Ticks,
    /// The event.
    pub ev: Event,
    /// The dispatch it was emitted from, and that dispatch's cause.
    pub prov: Provenance,
}

/// A consumer of structured events.
///
/// Sinks receive every event with the emitting node index and the sim
/// time of emission. Implementations must be order-preserving and must
/// not feed anything back into the simulation.
pub trait Sink {
    /// Consume one event emitted by `node` at sim time `at`.
    fn event(&mut self, node: u32, at: Ticks, ev: &Event);

    /// Consume one event with causal provenance attached. The default
    /// forwards to [`Sink::event`], so provenance-blind sinks (JSONL,
    /// flight recorder, metrics, coverage) see the identical stream they
    /// always did — byte-for-byte, which keeps committed replay
    /// fingerprints valid.
    fn event_caused(&mut self, node: u32, at: Ticks, ev: &Event, _prov: Provenance) {
        self.event(node, at, ev);
    }

    /// Observe one dispatch in the causal DAG: `id` ran because `cause`
    /// created the event it handled (`None` for roots). Delivered for
    /// *every* dispatch — including silent ones that emit no events, so
    /// backward slices never have holes where a hop merely forwarded
    /// data. Default is a no-op.
    fn link(&mut self, _id: EventId, _cause: Option<EventId>) {}

    /// Consume one barrier window's worth of the stream at once: every
    /// dispatch edge of the window, then every event, both in canonical
    /// order. The default is exactly the per-record delivery — [`Sink::link`]
    /// for each link, then [`Sink::event_caused`] for each event — so a
    /// sink that implements only those sees the stream it always did.
    /// Overrides must stay equivalent to that; [`Fanout`] overrides it to
    /// lock each child once per window instead of once per record.
    fn batch(&mut self, links: &[(EventId, Option<EventId>)], events: &[Emission]) {
        for &(id, cause) in links {
            self.link(id, cause);
        }
        for e in events {
            self.event_caused(e.node, e.at, &e.ev, e.prov);
        }
    }
}

/// Lock a sink (or any telemetry buffer), recovering the guard when an
/// earlier panic poisoned the mutex. Sinks only observe: a sink left
/// half-updated by a panic is still safe to read and to keep feeding,
/// and recovering here is what lets the no-panic oracle report the
/// *first* panic instead of dying on a second one at the next emission.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The user's sink as the simulator holds it: locked once per barrier
/// window, to hand the window over ([`Sink::batch`]).
pub type SharedSink = Arc<Mutex<dyn Sink + Send>>;

/// A protocol engine's telemetry outbox: the events of the engine call
/// in progress, waiting for the node adapter to move them into the
/// dispatch they belong to, which stamps node, time and provenance.
///
/// `Telem::default()` is off: [`Telem::emit`] is then one branch and the
/// event-constructing closure never runs — the
/// zero-overhead-when-disabled contract.
#[derive(Debug, Default)]
pub struct Telem {
    on: bool,
    pending: Vec<Event>,
}

impl Telem {
    /// Switch the outbox on (the world has a sink) or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether the outbox is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Queue an event. The closure runs only when the outbox is on, so
    /// disabled emission never allocates or formats anything.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> Event) {
        if self.on {
            self.pending.push(f());
        }
    }

    /// The queued events, oldest first, leaving the outbox empty with
    /// its capacity kept.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Event> {
        self.pending.drain(..)
    }
}

/// A bounded per-node ring buffer of events — the flight recorder
/// dumped into replay artifacts when an oracle fires. The ring keeps the
/// compact events; text is produced only by [`FlightRecorder::dump`].
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cap: usize,
    rings: BTreeMap<u32, VecDeque<(Ticks, Event)>>,
}

/// Default per-node flight-recorder capacity.
pub const FLIGHT_RECORDER_CAP: usize = 256;

impl FlightRecorder {
    /// A recorder keeping the last `cap` events per node.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            rings: BTreeMap::new(),
        }
    }

    /// The last recorded events of `node`, oldest first, each line
    /// formatted `t<ticks> <event>`.
    pub fn dump(&self, node: u32) -> Vec<String> {
        self.rings
            .get(&node)
            .map(|r| r.iter().map(|(at, ev)| format!("t{at} {ev}")).collect())
            .unwrap_or_default()
    }

    /// Node indices that have recorded at least one event.
    pub fn nodes(&self) -> Vec<u32> {
        self.rings.keys().copied().collect()
    }
}

impl Sink for FlightRecorder {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        let ring = self.rings.entry(node).or_default();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back((at, ev.clone()));
    }
}

/// A JSON-lines event writer. One object per line, keyed by sim time.
///
/// With `W = Vec<u8>` the accumulated bytes *are* the deterministic
/// event stream: the scenario replay test asserts byte-identity of two
/// runs' buffers.
#[derive(Debug, Default)]
pub struct JsonlSink<W: Write> {
    out: W,
    /// The line being assembled; reused so steady state allocates nothing.
    line: String,
    /// Write-error count, one per lost line; sinks must never panic
    /// mid-simulation.
    pub errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing JSONL to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            line: String::new(),
            errors: 0,
        }
    }

    /// Consume the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// The writer, for in-place inspection (e.g. a `Vec<u8>` buffer).
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        self.line.clear();
        let _ = ev.write_json(node, at, &mut self.line);
        self.line.push('\n');
        if self.out.write_all(self.line.as_bytes()).is_err() {
            self.errors += 1;
        }
    }
}

/// A histogram of sim-time durations, kept as its raw samples.
///
/// [`Histogram::render`] buckets them by powers of two: bucket `i`
/// counts samples in `[2^i, 2^(i+1))` ticks (bucket 0 also takes zero).
/// Log-scale because convergence times span from one-tick LAN overrides
/// to multi-hundred-tick timeout recoveries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<Ticks>,
}

impl Histogram {
    /// Record one duration sample.
    pub fn record(&mut self, d: Ticks) {
        self.samples.push(d);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> Ticks {
        let sum: u128 = self.samples.iter().map(|&d| u128::from(d)).sum();
        sum.checked_div(self.samples.len() as u128).unwrap_or(0) as Ticks
    }

    /// Largest sample seen, zero when empty.
    pub fn max(&self) -> Ticks {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[Ticks] {
        &self.samples
    }

    /// Exact percentile by the nearest-rank method (`p` in `[0, 100]`);
    /// zero when empty. `percentile(50)` is the median, `percentile(100)`
    /// equals [`Histogram::max`].
    pub fn percentile(&self, p: f64) -> Ticks {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Fold `other` in, as if its samples had been recorded here after
    /// this histogram's own.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Render as `count=N mean=M max=X buckets=[..]`, the buckets up to
    /// the largest sample's.
    pub fn render(&self) -> String {
        let mut buckets = Vec::new();
        for &d in &self.samples {
            let idx = (Ticks::BITS - d.leading_zeros()).saturating_sub(1) as usize;
            if buckets.len() <= idx {
                buckets.resize(idx + 1, 0u64);
            }
            buckets[idx] += 1;
        }
        format!(
            "count={} mean={} max={} buckets={buckets:?}",
            self.count(),
            self.mean(),
            self.max(),
        )
    }
}

/// Aggregates convergence metrics from the event stream:
///
/// * **join latency** — first local member join of (node, group) to
///   first data delivery there;
/// * **SPT-switchover time** — [`Event::SptSwitchStart`] to the
///   (S,G) entry gaining the SPT bit on the same node;
/// * **reconvergence time** — each [`Event::Fault`] to the last
///   protocol state change anywhere (closed by [`MetricsAggregator::finish`]).
///
/// Finished aggregators of independent runs add up with
/// [`MetricsAggregator::merge`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsAggregator {
    /// Join-latency histogram (ticks from member-join to first delivery).
    pub join_latency: Histogram,
    /// SPT-switchover histogram (ticks from switch start to SPT bit set).
    pub spt_switch: Histogram,
    /// Post-fault reconvergence histogram (ticks from fault to last
    /// state change before quiescence).
    pub reconvergence: Histogram,
    /// Transmit-queue peak-depth samples in bytes (one per
    /// [`Event::QueueDepth`], i.e. per new per-direction peak bucket) —
    /// the p50/p99 source for the EXPERIMENTS congestion tables.
    pub queue_depth: Histogram,
    /// Capacity-model tail drops observed (both classes).
    pub queue_drops: u64,
    /// ECN-style congestion marks observed.
    pub ecn_marks: u64,
    /// Channel impairments observed, by [`Event::ChannelImpaired`] kind.
    pub impairments: BTreeMap<&'static str, u64>,
    /// Undecodable payloads dropped, by [`Event::DecodeFailed`] kind.
    pub decode_drops: BTreeMap<&'static str, u64>,
    pending_joins: BTreeMap<(u32, u32), Ticks>,
    pending_spt: BTreeMap<(u32, u32, u32), Ticks>,
    open_fault: Option<Ticks>,
    last_state_change: Option<Ticks>,
}

impl MetricsAggregator {
    /// A fresh aggregator.
    pub fn new() -> MetricsAggregator {
        MetricsAggregator::default()
    }

    /// Close the open post-fault window (call once after the run; the
    /// final fault's reconvergence time is unknown until quiescence).
    pub fn finish(&mut self) {
        if let (Some(f), Some(last)) = (self.open_fault.take(), self.last_state_change) {
            if last >= f {
                self.reconvergence.record(last - f);
            }
        }
    }

    /// The three convergence histograms by name, in the order
    /// [`MetricsAggregator::render`] prints them.
    pub fn histograms(&self) -> [(&'static str, &Histogram); 3] {
        [
            ("join_latency", &self.join_latency),
            ("spt_switch", &self.spt_switch),
            ("reconvergence", &self.reconvergence),
        ]
    }

    /// Render the three histograms as stable text, one per line.
    pub fn render(&self) -> String {
        self.histograms()
            .map(|(name, h)| format!("{name} {}", h.render()))
            .join("\n")
    }

    /// Fold another finished run's results in: every histogram, the
    /// congestion totals and the per-kind counts. The joins, switchovers
    /// and fault window still pending are run-local and stay this one's.
    pub fn merge(&mut self, other: &MetricsAggregator) {
        self.join_latency.merge(&other.join_latency);
        self.spt_switch.merge(&other.spt_switch);
        self.reconvergence.merge(&other.reconvergence);
        self.queue_depth.merge(&other.queue_depth);
        self.queue_drops += other.queue_drops;
        self.ecn_marks += other.ecn_marks;
        for (mine, theirs) in [
            (&mut self.impairments, &other.impairments),
            (&mut self.decode_drops, &other.decode_drops),
        ] {
            for (kind, n) in theirs {
                *mine.entry(kind).or_default() += n;
            }
        }
    }

    fn state_changed(&mut self, at: Ticks) {
        self.last_state_change = Some(at);
    }
}

impl Sink for MetricsAggregator {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        match ev {
            Event::LocalMemberJoined { group } => {
                self.pending_joins
                    .entry((node, group.addr().0))
                    .or_insert(at);
                self.state_changed(at);
            }
            Event::DataDelivered { group, .. } => {
                if let Some(t0) = self.pending_joins.remove(&(node, group.addr().0)) {
                    self.join_latency.record(at - t0);
                }
            }
            Event::SptSwitchStart { group, source } => {
                self.pending_spt
                    .entry((node, group.addr().0, source.0))
                    .or_insert(at);
                self.state_changed(at);
            }
            Event::EntryModified {
                group,
                key,
                from,
                to,
            } => {
                if to & flags::SPT != 0 && from & flags::SPT == 0 {
                    if let EntryKey::Source(s) = key {
                        if let Some(t0) = self.pending_spt.remove(&(node, group.addr().0, s.0)) {
                            self.spt_switch.record(at - t0);
                        }
                    }
                }
                self.state_changed(at);
            }
            Event::EntryCreated { .. }
            | Event::EntryExpired { .. }
            | Event::RpFailover { .. }
            | Event::RouteChanged { .. }
            | Event::DrChanged { .. }
            | Event::QuerierChanged { .. }
            | Event::LocalMemberLeft { .. } => self.state_changed(at),
            Event::Fault { .. } => {
                if let (Some(f), Some(last)) = (self.open_fault, self.last_state_change) {
                    if last >= f {
                        self.reconvergence.record(last - f);
                    }
                }
                self.open_fault = Some(at);
                self.last_state_change = Some(at);
            }
            // Congestion marks are per-packet noise too, but worth
            // aggregating: queue-depth peaks feed the p50/p99 tables and
            // the drop/mark totals cross-check the counters. Still never
            // a state change — congestion must not open or extend a
            // reconvergence window.
            Event::QueueDepth { bytes, .. } => self.queue_depth.record(*bytes),
            Event::QueueDrop { .. } => self.queue_drops += 1,
            Event::EcnMark { .. } => self.ecn_marks += 1,
            // Channel impairments and decode-failure drops are per-packet
            // noise, not protocol state changes: they are counted, but
            // must neither open reconvergence windows (only `Fault` does)
            // nor extend one.
            Event::ChannelImpaired { what, .. } => *self.impairments.entry(what).or_default() += 1,
            Event::DecodeFailed { kind, .. } => *self.decode_drops.entry(kind).or_default() += 1,
            Event::TimerArmed { .. }
            | Event::TimerFired { .. }
            | Event::TimerCancelled { .. }
            | Event::CtrlSend { .. }
            | Event::CtrlRecv { .. } => {}
        }
    }
}

/// Fans one event stream out to several child sinks in order.
///
/// Callers keep concrete `Arc<Mutex<…>>` clones of the children to
/// read results after the run (an `Arc<Mutex<FlightRecorder>>`
/// coerces to [`SharedSink`] when pushed here).
#[derive(Clone, Default)]
pub struct Fanout {
    children: Vec<SharedSink>,
}

impl fmt::Debug for Fanout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fanout({} children)", self.children.len())
    }
}

impl Fanout {
    /// An empty fanout.
    pub fn new() -> Fanout {
        Fanout::default()
    }

    /// Append a child sink.
    pub fn push(&mut self, child: SharedSink) {
        self.children.push(child);
    }
}

impl Sink for Fanout {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        for child in &self.children {
            lock(child).event(node, at, ev);
        }
    }

    fn event_caused(&mut self, node: u32, at: Ticks, ev: &Event, prov: Provenance) {
        for child in &self.children {
            lock(child).event_caused(node, at, ev, prov);
        }
    }

    fn link(&mut self, id: EventId, cause: Option<EventId>) {
        for child in &self.children {
            lock(child).link(id, cause);
        }
    }

    /// One lock per child per window: each child takes the whole batch
    /// before the next child sees any of it. Children are independent,
    /// so each still sees exactly the per-record stream.
    fn batch(&mut self, links: &[(EventId, Option<EventId>)], events: &[Emission]) {
        for child in &self.children {
            lock(child).batch(links, events);
        }
    }
}

// ---------------------------------------------------------------------
// Coverage: folding the event stream into a feedback signal
// ---------------------------------------------------------------------

/// FNV-1a over raw bytes — the stable hash every coverage feature and
/// the coverage-map digest are built from. Implemented locally (not
/// `DefaultHasher`) so feature ids and map hashes are stable across
/// Rust releases: committed corpus artifacts and the search corpus
/// outlive any one toolchain.
const fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    // `while`, not `for`: const fns cannot iterate.
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    h
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Derive a stable coverage-feature id from a class label and its
/// numeric parts. Same inputs → same id, on every platform, forever.
pub fn feature(class: &str, parts: &[u64]) -> u64 {
    feature_from(strpart(class), parts)
}

/// [`feature`] continued from an already-hashed class label
/// (`strpart(class)`): a feature id hashes its class first, so a
/// constant class costs nothing per event.
fn feature_from(class: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(class, |h, p| fnv1a(&p.to_le_bytes(), h))
}

/// Stable hash of a short string (event-kind tags, oracle names) for
/// use as a [`feature`] part.
pub const fn strpart(s: &str) -> u64 {
    fnv1a(s.as_bytes(), FNV_OFFSET)
}

/// A coverage map: distinct features with AFL-style log2-bucketed hit
/// counts. The map is a *set-with-magnitudes*, not a sequence — merging
/// is associative and order-independent, so per-protocol maps folded in
/// any order produce the identical map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageMap {
    features: BTreeMap<u64, u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Record one hit of `feature`.
    pub fn record(&mut self, feature: u64) {
        *self.features.entry(feature).or_default() += 1;
    }

    /// Number of distinct features seen.
    pub fn distinct(&self) -> usize {
        self.features.len()
    }

    /// Total hits across all features.
    pub fn total(&self) -> u64 {
        self.features.values().sum()
    }

    /// Whether `feature` has been seen.
    pub fn contains(&self, feature: u64) -> bool {
        self.features.contains_key(&feature)
    }

    /// Features in `self` that `base` has never seen — the novelty
    /// signal coverage-guided search prioritizes on.
    pub fn novel_vs(&self, base: &CoverageMap) -> usize {
        self.features.keys().filter(|f| !base.contains(**f)).count()
    }

    /// Merge `other` into `self` (associative, order-independent).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (f, n) in &other.features {
            *self.features.entry(*f).or_default() += n;
        }
    }

    /// The log2 hit bucket of a count (AFL-style): 1, 2, 3–4, 5–8, …
    /// Coverage treats "hit 7 times" and "hit 8 times" as the same
    /// signal but "once" vs "many" as different ones.
    pub fn bucket(n: u64) -> u32 {
        64 - n.leading_zeros()
    }

    /// Iterate the `(feature, hit-count)` pairs, in feature order.
    /// Consumers that accumulate bucketed coverage across many runs
    /// (the search loop's `(feature, bucket)` entry set) fold from
    /// here.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.features.iter().map(|(f, n)| (*f, *n))
    }

    /// Stable digest over the sorted `(feature, hit-bucket)` pairs.
    /// Byte-identical event streams yield the identical hash — the
    /// `--threads` determinism contract extends to coverage.
    pub fn stable_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (f, n) in &self.features {
            h = fnv1a(&f.to_le_bytes(), h);
            h = fnv1a(&CoverageMap::bucket(*n).to_le_bytes(), h);
        }
        h
    }
}

/// A [`Sink`] folding the event stream into a [`CoverageMap`] — the
/// feedback signal behind coverage-guided schedule search.
///
/// Features, all derived with the stable [`feature`] hash:
///
/// * **entry-flag transitions** — per node and entry-key class, the
///   `(from, to)` flag-bit deltas of `EntryCreated` / `EntryModified` /
///   `EntryExpired` (WC/RP/SPT/PRUNED/ON_TREE — the paper's own state
///   taxonomy);
/// * **event-kind digrams** — per node, each consecutive
///   `(previous kind, kind)` pair; timer arm/fire/cancel events are
///   kinds too, so distinct timer interleavings are distinct features;
/// * **control-message kinds** sent and received per node, decode
///   failures by kind, channel impairments by kind and link, and data
///   deliveries per node.
///
/// The optional `tag` is mixed into every feature so streams from
/// different contexts (e.g. different protocols under one search run)
/// never collide. The sink observes only — attaching it is invisible
/// to the packet trace, like every other sink.
///
/// Per event the sink only counts: a feature's raw inputs — its class,
/// the full node or link id, the interned index of a name, flag bytes —
/// pack losslessly into one integer key, and a hash map counts the keys.
/// [`CoverageSink::map`] hashes each distinct key to its feature id once,
/// when somebody reads the map.
#[derive(Clone, Debug)]
pub struct CoverageSink {
    tag: u64,
    /// Hits per packed feature key ([`pack`]).
    counts: HashMap<u128, u64, BuildHasherDefault<WordHasher>>,
    /// Per node, the interned index of its previous event kind.
    last_kind: HashMap<u32, u32, BuildHasherDefault<WordHasher>>,
    names: Names,
}

/// The feature classes, in the order their discriminants take in a
/// packed key.
#[derive(Clone, Copy)]
enum Class {
    EntryFlags,
    EntryExpired,
    CtrlSend,
    CtrlRecv,
    Decode,
    Impair,
    QueueDrop,
    Ecn,
    QueueDepth,
    Deliver,
    Kind,
    Digram,
}

impl Class {
    const ALL: [Class; 12] = [
        Class::EntryFlags,
        Class::EntryExpired,
        Class::CtrlSend,
        Class::CtrlRecv,
        Class::Decode,
        Class::Impair,
        Class::QueueDrop,
        Class::Ecn,
        Class::QueueDepth,
        Class::Deliver,
        Class::Kind,
        Class::Digram,
    ];
}

/// A feature's raw inputs as one key: the id in bits 0–31, `a` in
/// 32–63, `b` in 64–95, the class from bit 96. Nothing is truncated, so
/// two keys are equal exactly when their inputs are.
fn pack(class: Class, id: u32, a: u32, b: u32) -> u128 {
    u128::from(id) | u128::from(a) << 32 | u128::from(b) << 64 | (class as u128) << 96
}

/// The entry-key class of an entry-flag feature: 0 shared, 1 source.
fn key_class(k: &EntryKey) -> u32 {
    match k {
        EntryKey::Star => 0,
        EntryKey::Source(_) => 1,
    }
}

/// An entry-flag transition's `a` part: key class, then the two flag
/// bytes.
fn transition(key: &EntryKey, from: u8, to: u8) -> u32 {
    key_class(key) << 16 | u32::from(from) << 8 | u32::from(to)
}

/// FxHash's multiply-rotate word hasher, for keys the program makes
/// itself (never outside input, so a keyed hash would buy nothing).
/// `finish` rotates the well-mixed high bits of the last product down to
/// where the table takes its bucket index.
#[derive(Clone, Copy, Debug, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The `&'static str` names events carry (kind tags, message kinds,
/// decode-error and impairment labels), interned: each distinct text
/// gets the next index. A direct-mapped cache keyed by address answers
/// the repeat lookups — a `'static` string's bytes never change, so the
/// same `(address, length)` is always the same text; a miss scans the
/// list by text, so a slot collision or a second copy of a text at
/// another address costs a scan, never a second index.
#[derive(Clone, Debug)]
struct Names {
    list: Vec<&'static str>,
    slots: [Option<(&'static str, u32)>; 64],
}

impl Names {
    fn index(&mut self, s: &'static str) -> u32 {
        let addr = s.as_ptr() as usize;
        let slot = &mut self.slots
            [addr.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize) >> (usize::BITS - 6)];
        match slot {
            // Fat-pointer equality: same address and same length.
            Some((seen, i)) if std::ptr::eq(*seen, s) => *i,
            _ => {
                let i = match self.list.iter().position(|n| *n == s) {
                    Some(i) => i,
                    None => {
                        self.list.push(s);
                        self.list.len() - 1
                    }
                };
                let i = u32::try_from(i).expect("fewer than 2^32 distinct names");
                *slot = Some((s, i));
                i
            }
        }
    }

    /// [`strpart`] of the name interned as `i`.
    fn part(&self, i: u32) -> u64 {
        strpart(self.list[i as usize])
    }
}

impl Default for CoverageSink {
    fn default() -> CoverageSink {
        CoverageSink::new(0)
    }
}

impl CoverageSink {
    /// A sink whose features are tagged with `tag` (use 0 for none).
    pub fn new(tag: u64) -> CoverageSink {
        CoverageSink {
            tag,
            counts: HashMap::default(),
            last_kind: HashMap::default(),
            names: Names {
                list: Vec::new(),
                slots: [None; 64],
            },
        }
    }

    /// The accumulated map: each distinct key hashed to its feature id,
    /// with the counts of keys whose ids coincide added up.
    pub fn map(&self) -> CoverageMap {
        // Class labels hashed at compile time; `feature_from(X, parts)`
        // is `feature("x", parts)` bit for bit.
        const ENTRY_FLAGS: u64 = strpart("entry-flags");
        const ENTRY_EXPIRED: u64 = strpart("entry-expired");
        const CTRL_SEND: u64 = strpart("ctrl-send");
        const CTRL_RECV: u64 = strpart("ctrl-recv");
        const DECODE: u64 = strpart("decode");
        const IMPAIR: u64 = strpart("impair");
        const QDROP: u64 = strpart("qdrop");
        const ECN: u64 = strpart("ecn");
        const QDEPTH: u64 = strpart("qdepth");
        const DELIVER: u64 = strpart("deliver");
        const EV: u64 = strpart("ev");
        const DIGRAM: u64 = strpart("digram");

        let t = self.tag;
        let mut map = CoverageMap::new();
        for (&key, &hits) in &self.counts {
            let id = u64::from(key as u32);
            let (a, b) = ((key >> 32) as u32, (key >> 64) as u32);
            let name = |i| self.names.part(i);
            let feature = match Class::ALL[(key >> 96) as usize] {
                Class::EntryFlags => feature_from(
                    ENTRY_FLAGS,
                    &[
                        t,
                        id,
                        u64::from(a >> 16),
                        u64::from(a >> 8 & 0xff),
                        u64::from(a & 0xff),
                    ],
                ),
                Class::EntryExpired => feature_from(ENTRY_EXPIRED, &[t, id, u64::from(a)]),
                Class::CtrlSend => feature_from(CTRL_SEND, &[t, id, name(a)]),
                Class::CtrlRecv => feature_from(CTRL_RECV, &[t, id, name(a)]),
                Class::Decode => feature_from(DECODE, &[t, id, name(a)]),
                Class::Impair => feature_from(IMPAIR, &[t, id, name(a)]),
                Class::QueueDrop => feature_from(QDROP, &[t, id, name(a)]),
                Class::Ecn => feature_from(ECN, &[t, id]),
                Class::QueueDepth => feature_from(QDEPTH, &[t, id, u64::from(a)]),
                Class::Deliver => feature_from(DELIVER, &[t, id]),
                Class::Kind => feature_from(EV, &[t, id, name(a)]),
                Class::Digram => feature_from(DIGRAM, &[t, id, name(a), name(b)]),
            };
            *map.features.entry(feature).or_default() += hits;
        }
        map
    }

    fn count(&mut self, key: u128) {
        *self.counts.entry(key).or_default() += 1;
    }
}

impl Sink for CoverageSink {
    fn event(&mut self, node: u32, _at: Ticks, ev: &Event) {
        let kind = self.names.index(ev.kind());
        let key = match ev {
            Event::EntryCreated { key, flags: f, .. } => {
                pack(Class::EntryFlags, node, transition(key, 0, *f), 0)
            }
            Event::EntryModified { key, from, to, .. } => {
                pack(Class::EntryFlags, node, transition(key, *from, *to), 0)
            }
            Event::EntryExpired { key, .. } => pack(Class::EntryExpired, node, key_class(key), 0),
            Event::CtrlSend { kind, .. } => pack(Class::CtrlSend, node, self.names.index(kind), 0),
            Event::CtrlRecv { kind, .. } => pack(Class::CtrlRecv, node, self.names.index(kind), 0),
            Event::DecodeFailed { kind, .. } => {
                pack(Class::Decode, node, self.names.index(kind), 0)
            }
            Event::ChannelImpaired { what, link } => {
                pack(Class::Impair, *link, self.names.index(what), 0)
            }
            // Congestion features reward schedules that actually reach
            // queue pressure: drops by class and link, marks by link,
            // and depth by link + log2 backlog bucket.
            Event::QueueDrop { what, link } => {
                pack(Class::QueueDrop, *link, self.names.index(what), 0)
            }
            Event::EcnMark { link } => pack(Class::Ecn, *link, 0, 0),
            Event::QueueDepth { link, bytes } => {
                pack(Class::QueueDepth, *link, CoverageMap::bucket(*bytes), 0)
            }
            Event::DataDelivered { .. } => pack(Class::Deliver, node, 0, 0),
            // Everything else contributes its kind per node (RP
            // failover, DR/querier flips, SPT switch starts, faults,
            // route changes, membership, timers).
            _ => pack(Class::Kind, node, kind, 0),
        };
        self.count(key);
        // Event-kind digram per node: the interleaving signal.
        if let Some(prev) = self.last_kind.insert(node, kind) {
            self.count(pack(Class::Digram, node, prev, kind));
        }
    }
}

/// `show mroute`-style introspection: every protocol engine renders
/// its live multicast state — (*,G)/(S,G) entries with flag bits,
/// outgoing interfaces, and timers — as stable text for replay
/// artifacts and debugging sessions.
pub trait StateDump {
    /// Render the full multicast routing state at sim time `now`, one
    /// entry per line. Must be deterministic (iterate sorted maps) and
    /// free of wall-clock values.
    fn state_dump(&self, now: Ticks) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Group {
        Group::test(7)
    }

    #[test]
    fn flags_render_stable() {
        assert_eq!(flags::Set(0).to_string(), "-");
        assert_eq!(flags::Set(flags::WC | flags::RP).to_string(), "WC|RP");
        assert_eq!(flags::Set(flags::SPT).to_string(), "SPT");
        assert_eq!(
            flags::Set(flags::PRUNED | flags::ON_TREE).to_string(),
            "PRUNED|ON_TREE"
        );
    }

    #[test]
    fn disabled_handle_never_runs_closure() {
        let mut t = Telem::default();
        assert!(!t.is_enabled());
        t.emit(|| panic!("closure must not run when disabled"));
        assert_eq!(t.drain().len(), 0);
    }

    #[test]
    fn outbox_keeps_order_and_drains_keeping_capacity() {
        let mut t = Telem::default();
        t.set_enabled(true);
        for token in 0..5u64 {
            t.emit(|| Event::TimerFired { token });
        }
        let drained: Vec<Event> = t.drain().collect();
        assert_eq!(
            drained,
            (0..5u64)
                .map(|token| Event::TimerFired { token })
                .collect::<Vec<_>>()
        );
        assert_eq!(t.drain().len(), 0, "a drain empties the outbox");
        assert!(t.pending.capacity() >= 5, "and keeps its capacity");
        t.set_enabled(false);
        t.emit(|| panic!("closure must not run once switched off"));
    }

    #[test]
    fn flight_recorder_bounds_and_orders() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.event(9, i, &Event::TimerFired { token: i });
        }
        let dump = rec.dump(9);
        assert_eq!(
            dump,
            vec![
                "t2 timer-fired token=2",
                "t3 timer-fired token=3",
                "t4 timer-fired token=4"
            ]
        );
        assert_eq!(rec.nodes(), vec![9]);
        assert!(rec.dump(1).is_empty());
    }

    #[test]
    fn jsonl_lines_are_stable() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(
            2,
            10,
            &Event::EntryCreated {
                group: g(),
                key: EntryKey::Star,
                flags: flags::WC | flags::RP,
            },
        );
        sink.event(
            2,
            11,
            &Event::Fault {
                desc: "crash \"r2\"".into(),
            },
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            concat!(
                "{\"t\":10,\"node\":2,\"ev\":\"entry_created\",\"group\":\"239.1.0.7\",",
                "\"key\":\"*\",\"flags\":\"WC|RP\"}\n",
                "{\"t\":11,\"node\":2,\"ev\":\"fault\",\"desc\":\"crash \\\"r2\\\"\"}\n"
            )
        );
    }

    #[test]
    fn histogram_buckets_log2() {
        let mut h = Histogram::default();
        for d in [0, 1, 2, 3, 4, 1000] {
            h.record(d);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), (1010 / 6) as Ticks);
        // 0,1 -> bucket 0; 2,3 -> bucket 1; 4 -> bucket 2; 1000 -> bucket 9.
        assert_eq!(
            h.render(),
            "count=6 mean=168 max=1000 buckets=[2, 2, 1, 0, 0, 0, 0, 0, 0, 1]"
        );
    }

    #[test]
    fn metrics_join_latency_and_spt() {
        let mut m = MetricsAggregator::new();
        let s = Addr::new(10, 0, 0, 1);
        m.event(1, 100, &Event::LocalMemberJoined { group: g() });
        m.event(
            1,
            130,
            &Event::DataDelivered {
                group: g(),
                source: s,
            },
        );
        // Second delivery for the same (node, group) is not a new join.
        m.event(
            1,
            140,
            &Event::DataDelivered {
                group: g(),
                source: s,
            },
        );
        m.event(
            2,
            200,
            &Event::SptSwitchStart {
                group: g(),
                source: s,
            },
        );
        m.event(
            2,
            260,
            &Event::EntryModified {
                group: g(),
                key: EntryKey::Source(s),
                from: flags::RP,
                to: flags::SPT,
            },
        );
        assert_eq!(m.join_latency.count(), 1);
        assert_eq!(m.join_latency.mean(), 30);
        assert_eq!(m.spt_switch.count(), 1);
        assert_eq!(m.spt_switch.mean(), 60);
    }

    #[test]
    fn metrics_reconvergence_windows() {
        let mut m = MetricsAggregator::new();
        m.event(
            0,
            100,
            &Event::Fault {
                desc: "link-down 0".into(),
            },
        );
        m.event(
            1,
            150,
            &Event::RouteChanged {
                dst: Addr::new(10, 0, 0, 2),
            },
        );
        m.event(
            1,
            180,
            &Event::EntryExpired {
                group: g(),
                key: EntryKey::Star,
            },
        );
        // Next fault closes the first window at the last state change (180).
        m.event(
            0,
            400,
            &Event::Fault {
                desc: "crash 1".into(),
            },
        );
        m.event(2, 420, &Event::LocalMemberLeft { group: g() });
        m.finish();
        assert_eq!(m.reconvergence.count(), 2);
        assert_eq!(m.reconvergence.max(), 80);
    }

    #[test]
    fn fanout_feeds_all_children() {
        let rec = Arc::new(Mutex::new(FlightRecorder::new(8)));
        let metrics = Arc::new(Mutex::new(MetricsAggregator::new()));
        let mut fan = Fanout::new();
        fan.push(rec.clone());
        fan.push(metrics.clone());
        fan.event(3, 50, &Event::LocalMemberJoined { group: g() });
        assert_eq!(rec.lock().unwrap().dump(3).len(), 1);
        assert_eq!(metrics.lock().unwrap().pending_joins.len(), 1);
    }

    /// A sink that writes down exactly what it is told, in order.
    #[derive(Default)]
    struct Tape(Vec<String>);

    impl Sink for Tape {
        fn event(&mut self, _node: u32, _at: Ticks, _ev: &Event) {
            unreachable!("fed with provenance only");
        }
        fn event_caused(&mut self, node: u32, at: Ticks, ev: &Event, prov: Provenance) {
            self.0.push(format!("event n{node} t{at} {ev} {prov:?}"));
        }
        fn link(&mut self, id: EventId, cause: Option<EventId>) {
            self.0.push(format!("link {id:?} {cause:?}"));
        }
    }

    /// One window: three dispatches (one silent), four events.
    fn window() -> (Vec<(EventId, Option<EventId>)>, Vec<Emission>) {
        let id = |seq| EventId {
            time: 7,
            epoch: 2,
            origin: 1,
            seq,
        };
        let links = vec![(id(0), None), (id(1), Some(id(0))), (id(2), Some(id(1)))];
        let emit = |node, seq: u64, ev| Emission {
            node,
            at: 7,
            ev,
            prov: Provenance {
                id: id(seq),
                cause: seq.checked_sub(1).map(id),
            },
        };
        let events = vec![
            emit(1, 0, Event::LocalMemberJoined { group: g() }),
            emit(1, 0, Event::TimerFired { token: 4 }),
            emit(
                2,
                2,
                Event::Fault {
                    desc: "crash r2".into(),
                },
            ),
            emit(2, 2, Event::EcnMark { link: 3 }),
        ];
        (links, events)
    }

    #[test]
    fn batch_is_exactly_per_record_delivery() {
        let (links, events) = window();
        let mut by_record = Tape::default();
        for &(id, cause) in &links {
            by_record.link(id, cause);
        }
        for e in &events {
            by_record.event_caused(e.node, e.at, &e.ev, e.prov);
        }
        assert_eq!(by_record.0.len(), 7);

        let mut by_default = Tape::default();
        by_default.batch(&links, &events);
        assert_eq!(by_default.0, by_record.0);

        let (a, b) = (
            Arc::new(Mutex::new(Tape::default())),
            Arc::new(Mutex::new(Tape::default())),
        );
        let mut fan = Fanout::new();
        fan.push(a.clone());
        fan.push(b.clone());
        fan.batch(&links, &events);
        assert_eq!(lock(&a).0, by_record.0);
        assert_eq!(lock(&b).0, by_record.0);
    }

    /// A writer that takes `ok` lines and then fails every write.
    struct FailAfter {
        ok: usize,
        taken: Vec<u8>,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.ok -= 1;
            self.taken.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_counts_one_error_per_lost_line_and_never_panics() {
        let (links, events) = window();
        let failing = Arc::new(Mutex::new(JsonlSink::new(FailAfter {
            ok: 3,
            taken: Vec::new(),
        })));
        let healthy = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
        let mut fan = Fanout::new();
        fan.push(failing.clone());
        fan.push(healthy.clone());
        fan.batch(&links, &events);
        fan.batch(&links, &events);

        let whole = lock(&healthy).get_ref().clone();
        assert_eq!(lock(&healthy).errors, 0);
        assert_eq!(whole.iter().filter(|b| **b == b'\n').count(), 8);
        // Three lines got through intact; the other five are counted.
        let failing = lock(&failing);
        assert_eq!(failing.errors, 5);
        let kept = &failing.get_ref().taken;
        assert_eq!(kept.iter().filter(|b| **b == b'\n').count(), 3);
        assert!(whole.starts_with(kept));
    }

    /// Panics while consuming its third event, as a buggy sink would.
    #[derive(Default)]
    struct Bomb {
        seen: u32,
    }

    impl Sink for Bomb {
        fn event(&mut self, _node: u32, _at: Ticks, _ev: &Event) {
            self.seen += 1;
            assert_ne!(self.seen, 3, "sink bug");
        }
    }

    #[test]
    fn a_panicking_sink_poisons_nothing_for_good() {
        let (links, events) = window();
        let before = Arc::new(Mutex::new(FlightRecorder::new(8)));
        let bomb = Arc::new(Mutex::new(Bomb::default()));
        let after = Arc::new(Mutex::new(Tape::default()));
        let mut fan = Fanout::new();
        fan.push(before.clone());
        fan.push(bomb.clone());
        fan.push(after.clone());
        let tree: SharedSink = Arc::new(Mutex::new(fan));

        // The world's flush: lock the tree, hand over the window.
        let flush = || lock(&tree).batch(&links, &events);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(flush));
        assert!(unwound.is_err(), "the third event blows up");
        assert!(tree.is_poisoned() && bomb.is_poisoned());

        // Siblings stay readable: the one before the bomb has the whole
        // window, the one after it never saw this window.
        assert_eq!(lock(&before).dump(2).len(), 2);
        assert!(lock(&after).0.is_empty());

        // And the tree keeps delivering: the next flush neither panics
        // on the poisoned locks nor skips anyone.
        flush();
        assert_eq!(lock(&before).dump(2).len(), 4);
        assert_eq!(lock(&bomb).seen, 3 + 4);
        assert_eq!(lock(&after).0.len(), 7);
    }

    #[test]
    fn message_kind_covers_renderable_names() {
        use wire::igmp::HostQuery;
        let m = Message::HostQuery(HostQuery { max_resp_time: 10 });
        assert_eq!(message_kind(&m), "igmp-query");
    }

    #[test]
    fn coverage_features_are_stable_and_tagged() {
        // Feature ids are pure functions of their inputs.
        assert_eq!(feature("x", &[1, 2]), feature("x", &[1, 2]));
        assert_ne!(feature("x", &[1, 2]), feature("x", &[2, 1]));
        assert_ne!(feature("x", &[1]), feature("y", &[1]));
        // Tags separate otherwise identical streams.
        let ev = Event::CtrlSend {
            kind: "pim-join-prune",
            dst: Addr::new(10, 0, 0, 1),
        };
        let mut a = CoverageSink::new(0);
        let mut b = CoverageSink::new(1);
        a.event(1, 5, &ev);
        b.event(1, 5, &ev);
        assert_eq!(a.map().distinct(), 1);
        assert_ne!(a.map().stable_hash(), b.map().stable_hash());
    }

    #[test]
    fn coverage_map_merge_is_order_independent() {
        let mut x = CoverageMap::new();
        let mut y = CoverageMap::new();
        for f in [10u64, 20, 20, 30] {
            x.record(f);
        }
        for f in [20u64, 40] {
            y.record(f);
        }
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx);
        assert_eq!(xy.distinct(), 4);
        assert_eq!(xy.total(), 6);
        assert_eq!(xy.stable_hash(), yx.stable_hash());
        assert_eq!(y.novel_vs(&x), 1); // only 40 is new
        assert!(x.contains(30) && !x.contains(40));
    }

    #[test]
    fn coverage_hash_buckets_counts_log2() {
        // Hit counts in the same log2 bucket hash identically; crossing
        // a bucket boundary changes the hash.
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        for _ in 0..8 {
            a.record(1);
        }
        for _ in 0..15 {
            b.record(1);
        }
        assert_eq!(a.stable_hash(), b.stable_hash(), "8 and 15 share bucket 4");
        let mut c = CoverageMap::new();
        for _ in 0..16 {
            c.record(1);
        }
        assert_ne!(b.stable_hash(), c.stable_hash(), "16 opens bucket 5");
    }

    #[test]
    fn coverage_sink_folds_transitions_and_digrams() {
        let mut s = CoverageSink::new(0);
        let e1 = Event::EntryCreated {
            group: g(),
            key: EntryKey::Star,
            flags: flags::WC | flags::RP,
        };
        let e2 = Event::EntryModified {
            group: g(),
            key: EntryKey::Star,
            from: flags::WC | flags::RP,
            to: flags::WC | flags::RP | flags::SPT,
        };
        s.event(2, 10, &e1);
        s.event(2, 11, &e2);
        // entry-flags x2 (distinct transitions) + one digram.
        assert_eq!(s.map().distinct(), 3);
        // Same events replayed: same features, same hash, no new ones.
        let mut s2 = CoverageSink::new(0);
        s2.event(2, 99, &e1);
        s2.event(2, 100, &e2);
        assert_eq!(
            s.map().stable_hash(),
            s2.map().stable_hash(),
            "coverage is time-invariant"
        );
        assert_eq!(s2.map().novel_vs(&s.map()), 0);
        // A different transition on another node is novel.
        s2.event(3, 101, &e1);
        assert_eq!(s2.map().novel_vs(&s.map()), 1);
    }

    #[test]
    fn congestion_events_render_fold_and_never_reconverge() {
        let drop = Event::QueueDrop {
            what: "data",
            link: 3,
        };
        let mark = Event::EcnMark { link: 3 };
        let depth = Event::QueueDepth { link: 3, bytes: 96 };
        assert_eq!(drop.to_string(), "queue-drop data link=3");
        assert_eq!(mark.to_string(), "ecn-mark link=3");
        assert_eq!(depth.to_string(), "queue-depth link=3 bytes=96");
        assert_eq!(
            drop.to_json(1, 7),
            "{\"t\":7,\"node\":1,\"ev\":\"queue_drop\",\"what\":\"data\",\"link\":3}"
        );
        assert_eq!(
            depth.to_json(1, 8),
            "{\"t\":8,\"node\":1,\"ev\":\"queue_depth\",\"link\":3,\"bytes\":96}"
        );

        // Congestion noise must not open or extend reconvergence windows.
        let mut m = MetricsAggregator::new();
        m.event(0, 100, &Event::Fault { desc: "cap".into() });
        m.event(1, 150, &drop);
        m.event(1, 160, &mark);
        m.event(1, 170, &depth);
        m.finish();
        // The fault itself closes as a 0-tick window at finish();
        // congestion noise at t=150..170 must not have extended it.
        assert_eq!(m.reconvergence.count(), 1);
        assert_eq!(m.reconvergence.max(), 0, "no state change after fault");
        assert_eq!(m.queue_drops, 1);
        assert_eq!(m.ecn_marks, 1);
        assert_eq!(m.queue_depth.count(), 1);
        assert_eq!(m.queue_depth.max(), 96);

        // Each congestion event is a distinct coverage feature; depth
        // folds by log2 bucket, so 96 and 127 collide but 256 is novel.
        let mut s = CoverageSink::new(0);
        s.event(1, 5, &drop);
        s.event(1, 6, &mark);
        s.event(1, 7, &depth);
        let base = s.map();
        let mut s2 = CoverageSink::new(0);
        s2.event(
            1,
            9,
            &Event::QueueDepth {
                link: 3,
                bytes: 127,
            },
        );
        assert_eq!(s2.map().novel_vs(&base), 0, "same log2 bucket");
        s2.event(
            1,
            10,
            &Event::QueueDepth {
                link: 3,
                bytes: 256,
            },
        );
        // Novelty: the bucket-9 qdepth feature plus the depth→depth
        // digram, neither of which the base stream produced.
        assert_eq!(s2.map().novel_vs(&base), 2, "new bucket is novel");
    }
}
