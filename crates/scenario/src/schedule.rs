//! The declarative fault-schedule DSL.
//!
//! A [`FaultSchedule`] is an ordered list of timed [`FaultEvent`]s — link
//! flaps, loss ramps, adversarial channel impairments (corruption,
//! duplication, reordering), multi-link partitions, router crashes with
//! state loss, restarts, membership churn, bandwidth caps
//! ([`FaultEvent::Bandwidth`] — congestion as a fault), and traffic
//! bursts ([`FaultEvent::Burst`] — the overload workloads that make a
//! cap bite). Schedules are pure data:
//! they serialize to a line-oriented text form with an exact round trip
//! (loss and impairment probabilities are carried in per-mille, never
//! floating point), which is what makes replay artifacts byte-identical,
//! and they compile onto the simulator's existing scripted event
//! machinery via [`FaultSchedule::install`].
//!
//! "RP failure" and "unicast route change" from the fault taxonomy are
//! expressed through the same primitives: crashing the router that holds
//! the RP (or core) *is* the RP-failure fault, and a link down/up pair
//! under an adaptive unicast substrate *is* a route change. A
//! [`FaultEvent::Partition`] cuts a set of links at one instant — the
//! atomic multi-link failure that separates the topology into islands —
//! and its paired [`FaultEvent::Heal`] restores every cut link *and*
//! resets their channel models to clean in the same tick.

use netsim::{ChannelModel, LinkCapacity, LinkId, NodeIdx, SimTime, World};
use wire::Group;

/// One fault, applied at a scheduled instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Take a router-router link down.
    LinkDown(usize),
    /// Bring a link back up.
    LinkUp(usize),
    /// Set a link's per-receiver drop probability, in per-mille
    /// (`0..=1000`). Integer so the text form round-trips exactly.
    LinkLoss(usize, u32),
    /// Set a link's per-copy single-bit corruption probability, in
    /// per-mille. Corrupted control frames fail the wire checksum and
    /// are dropped at decode; corrupted data payloads pass through
    /// (the data plane carries no payload checksum).
    CorruptLink(usize, u32),
    /// Set a link's per-receiver duplication probability, in per-mille.
    /// A duplicated transmission delivers two independent copies.
    DuplicateLink(usize, u32),
    /// Set a link's per-copy reorder probability (per-mille) and the
    /// extra delay jitter (ticks) a reordered copy is held for.
    ReorderLink(usize, u32, u64),
    /// Cut a set of links atomically at one instant (multi-link
    /// failure separating the topology into islands).
    Partition(Vec<usize>),
    /// Restore a set of links atomically, and reset each link's
    /// channel model to clean in the same tick.
    Heal(Vec<usize>),
    /// Crash a router with total state loss ([`World::crash_node`]).
    /// Crashing the RP / core router is the RP-failure fault class.
    CrashRouter(u32),
    /// Power a crashed router back up ([`World::restart_node`]).
    RestartRouter(u32),
    /// Host slot `k` joins the group (membership churn).
    Join(u32),
    /// Host slot `k` leaves the group (silent IGMPv1 leave).
    Leave(u32),
    /// Cap a link's per-direction bandwidth: `(link, rate, queue, prio)`
    /// with `rate` in bytes/tick, `queue` the transmit-queue bound in
    /// bytes, and `prio` (0/1) whether control traffic bypasses the
    /// queue. The ECN mark threshold is derived as `queue / 2`. `rate`
    /// 0 restores the unlimited default — the heal form.
    Bandwidth(usize, u64, u64, u32),
    /// Host slot `k` sends a burst of `count` data packets, `gap` ticks
    /// apart — overload *traffic*, not a fault proper, so it never
    /// emits a fault marker and needs no heal.
    Burst(u32, u32, u64),
}

impl FaultEvent {
    fn to_line(&self) -> String {
        match self {
            FaultEvent::LinkDown(l) => format!("link-down {l}"),
            FaultEvent::LinkUp(l) => format!("link-up {l}"),
            FaultEvent::LinkLoss(l, pm) => format!("link-loss {l} {pm}"),
            FaultEvent::CorruptLink(l, pm) => format!("corrupt {l} {pm}"),
            FaultEvent::DuplicateLink(l, pm) => format!("duplicate {l} {pm}"),
            FaultEvent::ReorderLink(l, pm, jitter) => format!("reorder {l} {pm} {jitter}"),
            FaultEvent::Partition(ls) => format!("partition {}", join(ls)),
            FaultEvent::Heal(ls) => format!("heal {}", join(ls)),
            FaultEvent::CrashRouter(r) => format!("crash {r}"),
            FaultEvent::RestartRouter(r) => format!("restart {r}"),
            FaultEvent::Join(h) => format!("join {h}"),
            FaultEvent::Leave(h) => format!("leave {h}"),
            FaultEvent::Bandwidth(l, rate, queue, prio) => {
                format!("bandwidth {l} {rate} {queue} {prio}")
            }
            FaultEvent::Burst(h, count, gap) => format!("burst {h} {count} {gap}"),
        }
    }
}

/// Space-join a link list for the text form.
fn join(ls: &[usize]) -> String {
    ls.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// A deterministic, serializable fault schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// `(time, fault)` pairs. [`FaultSchedule::install`] sorts stably by
    /// time, so same-instant events keep their listed order.
    pub events: Vec<(u64, FaultEvent)>,
}

impl FaultSchedule {
    /// Append an event.
    pub fn push(&mut self, at: u64, ev: FaultEvent) {
        self.events.push((at, ev));
    }

    /// The largest scheduled time (0 for an empty schedule).
    pub fn span(&self) -> u64 {
        self.events.iter().map(|&(t, _)| t).max().unwrap_or(0)
    }

    /// Serialize to the line-oriented text form:
    ///
    /// ```text
    /// 250 link-down 0
    /// 400 link-loss 2 500
    /// 500 corrupt 1 250
    /// 600 partition 0 3
    /// 700 crash 3
    /// ```
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (t, ev) in &self.events {
            s.push_str(&format!("{t} {}\n", ev.to_line()));
        }
        s
    }

    /// Parse the text form back. Blank lines and `#` comments are skipped.
    /// `from_text(s).to_text()` reproduces `s` up to those skipped lines —
    /// the exact round trip replay artifacts depend on.
    pub fn from_text(text: &str) -> Result<FaultSchedule, String> {
        let mut events = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", ln + 1);
            let mut parts = line.split_whitespace();
            let at: u64 = parts
                .next()
                .ok_or_else(|| err("missing time"))?
                .parse()
                .map_err(|_| err("bad time"))?;
            let kind = parts.next().ok_or_else(|| err("missing fault kind"))?;
            let args: Vec<&str> = parts.collect();
            let num = |i: usize, what: &str| -> Result<u64, String> {
                args.get(i)
                    .ok_or_else(|| err(what))?
                    .parse::<u64>()
                    .map_err(|_| err(what))
            };
            let pm_at = |i: usize| -> Result<u32, String> {
                let pm = num(i, "missing per-mille")?;
                if pm > 1000 {
                    return Err(err("per-mille out of range"));
                }
                Ok(pm as u32)
            };
            let ev = match kind {
                "link-down" => FaultEvent::LinkDown(num(0, "missing link")? as usize),
                "link-up" => FaultEvent::LinkUp(num(0, "missing link")? as usize),
                "link-loss" => FaultEvent::LinkLoss(num(0, "missing link")? as usize, pm_at(1)?),
                "corrupt" => FaultEvent::CorruptLink(num(0, "missing link")? as usize, pm_at(1)?),
                "duplicate" => {
                    FaultEvent::DuplicateLink(num(0, "missing link")? as usize, pm_at(1)?)
                }
                "reorder" => FaultEvent::ReorderLink(
                    num(0, "missing link")? as usize,
                    pm_at(1)?,
                    num(2, "missing jitter")?,
                ),
                "partition" | "heal" => {
                    if args.is_empty() {
                        return Err(err("missing links"));
                    }
                    let mut ls = Vec::with_capacity(args.len());
                    for i in 0..args.len() {
                        ls.push(num(i, "bad link")? as usize);
                    }
                    if kind == "partition" {
                        FaultEvent::Partition(ls)
                    } else {
                        FaultEvent::Heal(ls)
                    }
                }
                "crash" => FaultEvent::CrashRouter(num(0, "missing router")? as u32),
                "restart" => FaultEvent::RestartRouter(num(0, "missing router")? as u32),
                "join" => FaultEvent::Join(num(0, "missing host")? as u32),
                "leave" => FaultEvent::Leave(num(0, "missing host")? as u32),
                "bandwidth" => {
                    let prio = num(3, "missing prio")?;
                    if prio > 1 {
                        return Err(err("prio must be 0 or 1"));
                    }
                    FaultEvent::Bandwidth(
                        num(0, "missing link")? as usize,
                        num(1, "missing rate")?,
                        num(2, "missing queue")?,
                        prio as u32,
                    )
                }
                "burst" => FaultEvent::Burst(
                    num(0, "missing host")? as u32,
                    num(1, "missing count")? as u32,
                    num(2, "missing gap")?,
                ),
                _ => return Err(err("unknown fault kind")),
            };
            let expected = match &ev {
                FaultEvent::LinkDown(_)
                | FaultEvent::LinkUp(_)
                | FaultEvent::CrashRouter(_)
                | FaultEvent::RestartRouter(_)
                | FaultEvent::Join(_)
                | FaultEvent::Leave(_) => 1,
                FaultEvent::LinkLoss(..)
                | FaultEvent::CorruptLink(..)
                | FaultEvent::DuplicateLink(..) => 2,
                FaultEvent::ReorderLink(..) | FaultEvent::Burst(..) => 3,
                FaultEvent::Bandwidth(..) => 4,
                FaultEvent::Partition(ls) | FaultEvent::Heal(ls) => ls.len(),
            };
            if args.len() != expected {
                return Err(err("trailing tokens"));
            }
            events.push((at, ev));
        }
        Ok(FaultSchedule { events })
    }

    /// The set of host slots whose *last* membership event is a join —
    /// i.e. the members expected at the end of the schedule (the delivery
    /// oracle's member set).
    pub fn final_members(&self, host_count: usize) -> Vec<u32> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut joined = vec![false; host_count];
        for (_, ev) in &sorted {
            match ev {
                FaultEvent::Join(h) => {
                    if let Some(j) = joined.get_mut(*h as usize) {
                        *j = true;
                    }
                }
                FaultEvent::Leave(h) => {
                    if let Some(j) = joined.get_mut(*h as usize) {
                        *j = false;
                    }
                }
                _ => {}
            }
        }
        (0..host_count as u32)
            .filter(|&h| joined[h as usize])
            .collect()
    }

    // -----------------------------------------------------------------
    // Mutation operators (coverage-guided search)
    //
    // All pure and index/time-explicit: the search layer owns the RNG,
    // so the operators themselves stay trivially deterministic and
    // testable. Every mutated schedule must pass through
    // [`FaultSchedule::normalize`] before running — the operators make
    // no attempt to keep times, indices, or the heal discipline valid.
    // -----------------------------------------------------------------

    /// The schedule without event `idx` (clamped; no-op on empty).
    pub fn with_deleted(&self, idx: usize) -> FaultSchedule {
        let mut s = self.clone();
        if !s.events.is_empty() {
            s.events.remove(idx.min(s.events.len() - 1));
        }
        s
    }

    /// The schedule with event `idx` moved to time `at`.
    pub fn with_retimed(&self, idx: usize, at: u64) -> FaultSchedule {
        let mut s = self.clone();
        if let Some(e) = s.events.get_mut(idx) {
            e.0 = at;
        }
        s
    }

    /// The schedule with a copy of event `idx` appended at time `at`.
    pub fn with_duplicated(&self, idx: usize, at: u64) -> FaultSchedule {
        let mut s = self.clone();
        if let Some((_, ev)) = self.events.get(idx) {
            s.events.push((at, ev.clone()));
        }
        s
    }

    /// The schedule with every `donor` event in `[t0, t1)` spliced in.
    pub fn spliced(&self, donor: &FaultSchedule, t0: u64, t1: u64) -> FaultSchedule {
        let mut s = self.clone();
        for (t, ev) in &donor.events {
            if (t0..t1).contains(t) {
                s.events.push((*t, ev.clone()));
            }
        }
        s
    }

    /// Single-point crossover: `self`'s events before `cut` plus
    /// `donor`'s events at or after it.
    pub fn crossover(&self, donor: &FaultSchedule, cut: u64) -> FaultSchedule {
        let mut s = FaultSchedule::default();
        for (t, ev) in &self.events {
            if *t < cut {
                s.events.push((*t, ev.clone()));
            }
        }
        for (t, ev) in &donor.events {
            if *t >= cut {
                s.events.push((*t, ev.clone()));
            }
        }
        s
    }

    /// Repair an arbitrary (e.g. mutated) schedule into one the oracle
    /// layer is sound for, without changing what the schedule *means*
    /// where it is already valid:
    ///
    /// * link / router / host indices are wrapped into range (host
    ///   slots into the member range `1..hosts` — slot 0 stays the
    ///   sender, so burst traffic never perturbs the probe train's
    ///   sequence numbers), per-mille fields clamped to 1000, jitter
    ///   to 60, burst counts to 32 and burst gaps to 16;
    /// * fault events are clamped into the `1..=2900` fault window and
    ///   membership events to the windows the explorer timeline allows
    ///   (joins by 2900, leaves by 2970), so no fault overlaps the
    ///   probe train the delivery oracle measures;
    /// * the **heal discipline** is re-established: any link left
    ///   down, lossy, impaired, or bandwidth-capped and any router left
    ///   crashed at the end of the fault window gets an explicit heal
    ///   event at 2950, in deterministic (link, then router) order;
    /// * empty partition/heal link sets (a mutation artifact the text
    ///   form cannot even express) are dropped;
    /// * events are stably sorted by time, so the result's text form is
    ///   canonical.
    ///
    /// Normalization is idempotent: `normalize(normalize(s)) ==
    /// normalize(s)` for any `s` (asserted in tests).
    pub fn normalize(&self, links: usize, routers: usize, hosts: usize) -> FaultSchedule {
        /// Faults land in the window the explorer's oracles assume.
        /// `FAULT_MAX == HEAL_AT` so already-appended heal events
        /// survive re-normalization unchanged (idempotence).
        const FAULT_MIN: u64 = 1;
        const FAULT_MAX: u64 = 2950;
        const HEAL_AT: u64 = 2950;
        const JOIN_MAX: u64 = 2900;
        const LEAVE_MAX: u64 = 2970;
        let wrap = |i: usize, n: usize| if n == 0 { 0 } else { i % n };
        let member = |h: u32| -> u32 {
            if hosts <= 1 {
                0
            } else {
                1 + (h.max(1) - 1) % (hosts as u32 - 1)
            }
        };
        let mut events: Vec<(u64, FaultEvent)> = Vec::with_capacity(self.events.len());
        for (t, ev) in &self.events {
            let fault_t = (*t).clamp(FAULT_MIN, FAULT_MAX);
            let (t, ev) = match ev {
                FaultEvent::LinkDown(l) => (fault_t, FaultEvent::LinkDown(wrap(*l, links))),
                FaultEvent::LinkUp(l) => (fault_t, FaultEvent::LinkUp(wrap(*l, links))),
                FaultEvent::LinkLoss(l, pm) => (
                    fault_t,
                    FaultEvent::LinkLoss(wrap(*l, links), (*pm).min(1000)),
                ),
                FaultEvent::CorruptLink(l, pm) => (
                    fault_t,
                    FaultEvent::CorruptLink(wrap(*l, links), (*pm).min(1000)),
                ),
                FaultEvent::DuplicateLink(l, pm) => (
                    fault_t,
                    FaultEvent::DuplicateLink(wrap(*l, links), (*pm).min(1000)),
                ),
                FaultEvent::ReorderLink(l, pm, jitter) => (
                    fault_t,
                    FaultEvent::ReorderLink(wrap(*l, links), (*pm).min(1000), (*jitter).min(60)),
                ),
                FaultEvent::Partition(ls) | FaultEvent::Heal(ls) => {
                    let mut wrapped: Vec<usize> = ls.iter().map(|&l| wrap(l, links)).collect();
                    wrapped.sort_unstable();
                    wrapped.dedup();
                    if wrapped.is_empty() {
                        continue; // unexpressible in the text form
                    }
                    if matches!(ev, FaultEvent::Partition(_)) {
                        (fault_t, FaultEvent::Partition(wrapped))
                    } else {
                        (fault_t, FaultEvent::Heal(wrapped))
                    }
                }
                FaultEvent::CrashRouter(r) => (
                    fault_t,
                    FaultEvent::CrashRouter(wrap(*r as usize, routers) as u32),
                ),
                FaultEvent::RestartRouter(r) => (
                    fault_t,
                    FaultEvent::RestartRouter(wrap(*r as usize, routers) as u32),
                ),
                FaultEvent::Join(h) => (
                    (*t).clamp(FAULT_MIN, JOIN_MAX),
                    FaultEvent::Join(member(*h)),
                ),
                FaultEvent::Leave(h) => (
                    (*t).clamp(FAULT_MIN, LEAVE_MAX),
                    FaultEvent::Leave(member(*h)),
                ),
                FaultEvent::Bandwidth(l, rate, queue, prio) => (
                    fault_t,
                    FaultEvent::Bandwidth(wrap(*l, links), *rate, *queue, (*prio).min(1)),
                ),
                FaultEvent::Burst(h, count, gap) => (
                    fault_t,
                    FaultEvent::Burst(member(*h), (*count).min(32), (*gap).min(16)),
                ),
            };
            events.push((t, ev));
        }
        events.sort_by_key(|&(t, _)| t);

        // Replay the fault effects to find what is still broken at the
        // end of the window, then heal it explicitly.
        let mut link_down = vec![false; links];
        let mut link_lossy = vec![false; links];
        let mut link_dirty = vec![false; links]; // corrupt/duplicate/reorder
        let mut link_capped = vec![false; links]; // bandwidth caps
        let mut crashed = vec![false; routers];
        for (_, ev) in &events {
            match ev {
                FaultEvent::LinkDown(l) => link_down[*l] = true,
                FaultEvent::LinkUp(l) => link_down[*l] = false,
                FaultEvent::LinkLoss(l, pm) => link_lossy[*l] = *pm != 0,
                FaultEvent::CorruptLink(l, pm)
                | FaultEvent::DuplicateLink(l, pm)
                | FaultEvent::ReorderLink(l, pm, _) => {
                    if *pm != 0 {
                        link_dirty[*l] = true;
                    }
                }
                FaultEvent::Partition(ls) => {
                    for l in ls {
                        link_down[*l] = true;
                    }
                }
                FaultEvent::Heal(ls) => {
                    for l in ls {
                        link_down[*l] = false;
                        link_dirty[*l] = false;
                    }
                }
                FaultEvent::CrashRouter(r) => crashed[*r as usize] = true,
                FaultEvent::RestartRouter(r) => crashed[*r as usize] = false,
                FaultEvent::Bandwidth(l, rate, ..) => link_capped[*l] = *rate != 0,
                FaultEvent::Join(_) | FaultEvent::Leave(_) | FaultEvent::Burst(..) => {}
            }
        }
        for l in 0..links {
            if link_down[l] {
                events.push((HEAL_AT, FaultEvent::LinkUp(l)));
            }
            if link_lossy[l] {
                events.push((HEAL_AT, FaultEvent::LinkLoss(l, 0)));
            }
            if link_dirty[l] {
                // One atomic heal resets the whole channel model.
                events.push((HEAL_AT, FaultEvent::Heal(vec![l])));
            }
            if link_capped[l] {
                // Rate 0 is the bandwidth heal form: restore unlimited.
                events.push((HEAL_AT, FaultEvent::Bandwidth(l, 0, 0, 1)));
            }
        }
        for (r, down) in crashed.iter().enumerate() {
            if *down {
                events.push((HEAL_AT, FaultEvent::RestartRouter(r as u32)));
            }
        }
        events.sort_by_key(|&(t, _)| t);
        FaultSchedule { events }
    }

    /// Compile the schedule onto `world`'s scripted-event machinery.
    /// `hosts[k]` is the world node of host slot `k`; membership events
    /// target `group`. Events are installed in stable time order.
    ///
    /// Link, channel, partition, crash, and restart events also emit one
    /// [`telemetry::Event::Fault`] marker (no-op without a sink), so
    /// metrics sinks can measure post-fault reconvergence windows. Only
    /// the first fault at each instant is marked — same-tick siblings
    /// would open zero-width windows.
    pub fn install(&self, world: &mut World, hosts: &[NodeIdx], group: Group) {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut last_marked = None;
        for (at, ev) in sorted {
            // A burst expands into its individual sends here: each is an
            // ordinary scripted data transmission, not a fault.
            if let FaultEvent::Burst(h, count, gap) = ev {
                let idx = hosts[h as usize];
                for k in 0..u64::from(count) {
                    world.at(SimTime(at + k * gap), move |w| {
                        igmp::with_host(w, idx, |h, ctx| h.send_data(ctx, group));
                    });
                }
                continue;
            }
            let is_fault = !matches!(ev, FaultEvent::Join(_) | FaultEvent::Leave(_));
            let mark = is_fault && last_marked != Some(at);
            if mark {
                last_marked = Some(at);
            }
            let hosts = hosts.to_vec();
            world.at(SimTime(at), move |w| apply(w, ev, &hosts, group, mark));
        }
    }
}

/// The world node a fault marker is attributed to: the crashed or
/// restarted router itself; for link and channel faults, router 0 as a
/// deterministic stand-in (the marker's `desc` names the link).
fn fault_node(ev: &FaultEvent) -> NodeIdx {
    match ev {
        FaultEvent::CrashRouter(r) | FaultEvent::RestartRouter(r) => NodeIdx(*r as usize),
        _ => NodeIdx(0),
    }
}

/// Apply one fault to the world, emitting its telemetry marker first so
/// flight recorders show the fault before its consequences.
fn apply(w: &mut World, ev: FaultEvent, hosts: &[NodeIdx], group: Group, mark: bool) {
    if mark {
        w.emit_event(
            fault_node(&ev),
            telemetry::Event::Fault { desc: ev.to_line() },
        );
    }
    match ev {
        FaultEvent::LinkDown(l) => w.set_link_up(LinkId(l), false),
        FaultEvent::LinkUp(l) => w.set_link_up(LinkId(l), true),
        FaultEvent::LinkLoss(l, pm) => w.set_link_loss(LinkId(l), f64::from(pm.min(1000)) / 1000.0),
        FaultEvent::CorruptLink(l, pm) => {
            let mut c = w.link(LinkId(l)).channel;
            c.corrupt_pm = pm;
            w.set_channel_model(LinkId(l), c);
        }
        FaultEvent::DuplicateLink(l, pm) => {
            let mut c = w.link(LinkId(l)).channel;
            c.duplicate_pm = pm;
            w.set_channel_model(LinkId(l), c);
        }
        FaultEvent::ReorderLink(l, pm, jitter) => {
            let mut c = w.link(LinkId(l)).channel;
            c.reorder_pm = pm;
            c.jitter = jitter;
            w.set_channel_model(LinkId(l), c);
        }
        FaultEvent::Partition(ls) => {
            for l in ls {
                w.set_link_up(LinkId(l), false);
            }
        }
        FaultEvent::Heal(ls) => {
            for l in ls {
                w.set_link_up(LinkId(l), true);
                w.set_channel_model(LinkId(l), ChannelModel::CLEAN);
            }
        }
        FaultEvent::CrashRouter(r) => w.crash_node(NodeIdx(r as usize)),
        FaultEvent::RestartRouter(r) => w.restart_node(NodeIdx(r as usize)),
        FaultEvent::Join(h) => igmp::with_host(w, hosts[h as usize], |m, ctx| m.join(ctx, group)),
        FaultEvent::Leave(h) => igmp::host_mut(w, hosts[h as usize]).leave(group),
        FaultEvent::Bandwidth(l, rate, queue, prio) => {
            let cap = if rate == 0 {
                LinkCapacity::UNLIMITED
            } else {
                LinkCapacity {
                    bytes_per_tick: rate,
                    queue_bytes: queue,
                    ecn_bytes: queue / 2,
                    ctrl_priority: prio != 0,
                }
            };
            w.set_link_capacity(LinkId(l), cap);
        }
        FaultEvent::Burst(..) => unreachable!("bursts expand in install"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultSchedule {
        let mut s = FaultSchedule::default();
        s.push(30, FaultEvent::Join(1));
        s.push(250, FaultEvent::LinkDown(0));
        s.push(400, FaultEvent::LinkLoss(2, 500));
        s.push(450, FaultEvent::CorruptLink(1, 250));
        s.push(470, FaultEvent::DuplicateLink(0, 100));
        s.push(490, FaultEvent::ReorderLink(2, 300, 25));
        s.push(520, FaultEvent::Bandwidth(1, 4, 64, 1));
        s.push(560, FaultEvent::Burst(2, 8, 5));
        s.push(600, FaultEvent::Partition(vec![0, 2, 3]));
        s.push(700, FaultEvent::CrashRouter(3));
        s.push(900, FaultEvent::RestartRouter(3));
        s.push(940, FaultEvent::Heal(vec![0, 2, 3]));
        s.push(950, FaultEvent::LinkUp(0));
        s.push(960, FaultEvent::LinkLoss(2, 0));
        s.push(1000, FaultEvent::Leave(1));
        s
    }

    #[test]
    fn text_round_trip_is_exact() {
        let s = sample();
        let text = s.to_text();
        let back = FaultSchedule::from_text(&text).expect("parse");
        assert_eq!(back, s);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn channel_fault_lines_render_as_specified() {
        assert_eq!(FaultEvent::CorruptLink(1, 250).to_line(), "corrupt 1 250");
        assert_eq!(
            FaultEvent::DuplicateLink(0, 100).to_line(),
            "duplicate 0 100"
        );
        assert_eq!(
            FaultEvent::ReorderLink(2, 300, 25).to_line(),
            "reorder 2 300 25"
        );
        assert_eq!(
            FaultEvent::Partition(vec![0, 2, 3]).to_line(),
            "partition 0 2 3"
        );
        assert_eq!(FaultEvent::Heal(vec![4]).to_line(), "heal 4");
        assert_eq!(
            FaultEvent::Bandwidth(1, 4, 64, 1).to_line(),
            "bandwidth 1 4 64 1"
        );
        assert_eq!(FaultEvent::Burst(2, 8, 5).to_line(), "burst 2 8 5");
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# a comment\n\n10 crash 2\n";
        let s = FaultSchedule::from_text(text).expect("parse");
        assert_eq!(s.events, vec![(10, FaultEvent::CrashRouter(2))]);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(FaultSchedule::from_text("abc crash 2").is_err());
        assert!(FaultSchedule::from_text("10 explode 2").is_err());
        assert!(FaultSchedule::from_text("10 link-loss 2 1001").is_err());
        assert!(FaultSchedule::from_text("10 crash 2 junk").is_err());
        assert!(FaultSchedule::from_text("10 crash").is_err());
        // Channel and partition fault arity / range errors.
        assert!(FaultSchedule::from_text("10 corrupt 0 1001").is_err());
        assert!(FaultSchedule::from_text("10 corrupt 0").is_err());
        assert!(FaultSchedule::from_text("10 duplicate 0 500 junk").is_err());
        assert!(FaultSchedule::from_text("10 reorder 1 100").is_err());
        assert!(FaultSchedule::from_text("10 partition").is_err());
        assert!(FaultSchedule::from_text("10 partition 0 x").is_err());
        assert!(FaultSchedule::from_text("10 heal").is_err());
        // Bandwidth / burst arity and range errors.
        assert!(FaultSchedule::from_text("10 bandwidth 0 4 64").is_err());
        assert!(FaultSchedule::from_text("10 bandwidth 0 4 64 2").is_err());
        assert!(FaultSchedule::from_text("10 bandwidth 0 4 64 1 junk").is_err());
        assert!(FaultSchedule::from_text("10 burst 1 8").is_err());
        assert!(FaultSchedule::from_text("10 burst 1 8 5 junk").is_err());
    }

    #[test]
    fn final_members_follows_last_event() {
        let mut s = sample(); // join 1 ... leave 1
        assert_eq!(s.final_members(3), Vec::<u32>::new());
        s.push(1200, FaultEvent::Join(1));
        s.push(1300, FaultEvent::Join(2));
        assert_eq!(s.final_members(3), vec![1, 2]);
    }

    #[test]
    fn span_is_last_time() {
        assert_eq!(sample().span(), 1000);
        assert_eq!(FaultSchedule::default().span(), 0);
    }

    #[test]
    fn mutation_operators_are_pure_and_clamped() {
        let s = sample();
        let n = s.events.len();
        assert_eq!(s.with_deleted(1).events.len(), n - 1);
        assert!(!s
            .with_deleted(1)
            .events
            .contains(&(250, FaultEvent::LinkDown(0))));
        // Out-of-range delete clamps to the last event.
        assert_eq!(s.with_deleted(999).events.len(), n - 1);
        assert_eq!(FaultSchedule::default().with_deleted(0).events.len(), 0);

        let r = s.with_retimed(1, 777);
        assert_eq!(r.events[1], (777, FaultEvent::LinkDown(0)));
        assert_eq!(s.with_retimed(999, 777), s, "oob retime is a no-op");

        let d = s.with_duplicated(1, 555);
        assert_eq!(d.events.len(), n + 1);
        assert_eq!(d.events[n], (555, FaultEvent::LinkDown(0)));

        let donor = sample();
        let sp = s.spliced(&donor, 400, 500);
        assert_eq!(sp.events.len(), n + 4, "four donor events in [400,500)");

        let x = s.crossover(&donor, 500);
        // Events < 500 from s plus events >= 500 from donor == sample again
        // (same parents), so crossover with self is identity here.
        assert_eq!(x.events.len(), n);
    }

    #[test]
    fn normalize_wraps_clamps_and_heals() {
        let mut s = FaultSchedule::default();
        s.push(0, FaultEvent::Join(9)); // slot wraps into member range
        s.push(5000, FaultEvent::LinkDown(7)); // link wraps, time clamps
        s.push(100, FaultEvent::LinkLoss(1, 5000)); // pm clamps, never healed
        s.push(200, FaultEvent::CrashRouter(11)); // router wraps, never restarted
        s.push(300, FaultEvent::ReorderLink(0, 100, 999)); // jitter clamps
        s.push(400, FaultEvent::Partition(vec![])); // unexpressible: dropped
        s.push(500, FaultEvent::Bandwidth(6, 3, 48, 9)); // link wraps, prio clamps, never healed
        s.push(600, FaultEvent::Burst(0, 500, 99)); // host wraps off sender, count+gap clamp
        let n = s.normalize(4, 5, 3);

        // Every event is in range and the text form round-trips.
        let text = n.to_text();
        assert_eq!(FaultSchedule::from_text(&text).unwrap().to_text(), text);
        for (t, ev) in &n.events {
            assert!(*t >= 1 && *t <= 2970, "time {t} out of window");
            match ev {
                FaultEvent::Join(h) | FaultEvent::Leave(h) => {
                    assert!((1..3).contains(h), "host slot {h}")
                }
                FaultEvent::CrashRouter(r) | FaultEvent::RestartRouter(r) => {
                    assert!(*r < 5)
                }
                FaultEvent::ReorderLink(_, _, j) => assert!(*j <= 60),
                FaultEvent::Bandwidth(l, _, _, p) => {
                    assert!(*l < 4 && *p <= 1)
                }
                FaultEvent::Burst(h, c, g) => {
                    assert!((1..3).contains(h), "burst host {h} must be a member slot");
                    assert!(*c <= 32 && *g <= 16);
                }
                _ => {}
            }
        }
        // Heal discipline: the down link is up again, loss is zeroed,
        // the dirty channel healed, the crashed router restarted.
        assert!(n.events.contains(&(2950, FaultEvent::LinkUp(3))));
        assert!(n.events.contains(&(2950, FaultEvent::LinkLoss(1, 0))));
        assert!(n.events.contains(&(2950, FaultEvent::Heal(vec![0]))));
        assert!(n
            .events
            .contains(&(2950, FaultEvent::Bandwidth(2, 0, 0, 1))));
        assert!(n.events.contains(&(2950, FaultEvent::RestartRouter(1))));
        assert!(!n
            .events
            .iter()
            .any(|(_, e)| matches!(e, FaultEvent::Partition(ls) if ls.is_empty())));
    }

    #[test]
    fn normalize_is_idempotent() {
        for s in [
            sample(),
            {
                let mut s = FaultSchedule::default();
                s.push(9999, FaultEvent::Partition(vec![0, 1, 9]));
                s.push(10, FaultEvent::CrashRouter(2));
                s.push(2960, FaultEvent::Leave(1));
                s
            },
            FaultSchedule::default(),
        ] {
            let once = s.normalize(4, 5, 3);
            let twice = once.normalize(4, 5, 3);
            assert_eq!(once, twice, "normalize must be idempotent");
        }
    }

    #[test]
    fn normalize_preserves_already_sound_schedules() {
        // A generator-shaped schedule (faults healed, members joined)
        // keeps its semantics: same events, stably time-sorted.
        let mut s = FaultSchedule::default();
        s.push(30, FaultEvent::Join(1));
        s.push(250, FaultEvent::LinkDown(0));
        s.push(600, FaultEvent::LinkUp(0));
        let n = s.normalize(4, 4, 3);
        assert_eq!(n.events, s.events, "sound schedules pass through");
    }
}
