//! An OSPF-like link-state unicast routing engine.
//!
//! * Per-interface [`Hello`]s discover and keep alive neighbor adjacencies;
//!   a lapsed neighbor triggers re-origination.
//! * Each router floods a sequence-numbered [`Lsa`] describing its current
//!   adjacencies (plus stub links to its directly attached hosts); LSAs are
//!   re-flooded out of every other interface when fresh, dropped when
//!   stale, and aged out if not refreshed.
//! * Routes are recomputed with Dijkstra over the link-state database on
//!   every topology-affecting event; the computation only uses links
//!   advertised by *both* ends (the OSPF bidirectionality check), except
//!   stub hosts, which don't originate LSAs.
//!
//! MOSPF is "an extension to the link-state unicast protocol OSPF" (paper
//! §1.1); PIM instead consumes this engine opaquely through [`Rib`].

use crate::{route_changed, Engine, Output, Rib, RouteEntry};
use netsim::build::NodePlan;
use netsim::{Duration, IfaceId, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use wire::unicast::{Hello, Lsa, LsaLink};
use wire::{Addr, Message};

/// Period between hellos on each interface.
pub const HELLO_INTERVAL: Duration = Duration(10);

/// A neighbor silent for this long is declared down.
pub const NEIGHBOR_HOLDTIME: Duration = Duration(35);

/// Period between LSA re-originations.
pub const LSA_REFRESH: Duration = Duration(100);

/// An LSA unrefreshed for this long is flushed from the database.
pub const LSA_MAX_AGE: Duration = Duration(350);

#[derive(Clone, Copy, Debug)]
struct Neighbor {
    addr: Addr,
    expires_at: SimTime,
}

#[derive(Clone, Debug)]
struct LsaRecord {
    seq: u32,
    links: Vec<LsaLink>,
    expires_at: SimTime,
}

/// The link-state engine for one router.
pub struct LsEngine {
    local: Addr,
    /// Cost per interface, indexed by `IfaceId`.
    iface_cost: Vec<u32>,
    /// Live neighbor per interface (point-to-point model: one neighbor per
    /// interface; LAN interfaces would hold the DR in full OSPF).
    neighbors: Vec<Option<Neighbor>>,
    /// Stub destinations attached to this router (hosts), with costs.
    stubs: Vec<(Addr, u32)>,
    lsdb: HashMap<Addr, LsaRecord>,
    my_seq: u32,
    table: HashMap<Addr, RouteEntry>,
    next_hello: SimTime,
    next_refresh: SimTime,
}

impl LsEngine {
    /// Create an engine for the router described by `plan`.
    pub fn new(plan: &NodePlan) -> LsEngine {
        LsEngine::from_parts(
            plan.addr,
            plan.ifaces.iter().map(|p| p.metric.max(1)).collect(),
        )
    }

    /// Create an engine from raw parts (unit-test helper).
    pub fn from_parts(local: Addr, iface_cost: Vec<u32>) -> LsEngine {
        let n = iface_cost.len();
        LsEngine {
            local,
            iface_cost,
            neighbors: vec![None; n],
            stubs: Vec::new(),
            lsdb: HashMap::new(),
            my_seq: 0,
            table: HashMap::new(),
            next_hello: SimTime::ZERO,
            next_refresh: SimTime::ZERO,
        }
    }

    /// Register a host-facing interface; `host` becomes a stub link in this
    /// router's LSA.
    pub fn add_stub_host(&mut self, host: Addr, cost: u32) {
        self.stubs.push((host, cost.max(1)));
    }

    /// Register an extra interface (keeps cost table aligned with the
    /// node's real interface list).
    pub fn add_iface(&mut self, cost: u32) {
        self.iface_cost.push(cost.max(1));
        self.neighbors.push(None);
    }

    fn my_links(&self) -> Vec<LsaLink> {
        let mut links: Vec<LsaLink> = self
            .neighbors
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                n.map(|nb| LsaLink {
                    neighbor: nb.addr,
                    cost: self.iface_cost[i],
                })
            })
            .collect();
        links.extend(self.stubs.iter().map(|&(host, cost)| LsaLink {
            neighbor: host,
            cost,
        }));
        links
    }

    /// Re-originate our own LSA: bump the sequence number, install in the
    /// local database, and flood everywhere.
    fn originate(&mut self, now: SimTime) -> Vec<Output> {
        self.my_seq += 1;
        let lsa = Lsa {
            origin: self.local,
            seq: self.my_seq,
            links: self.my_links(),
        };
        self.lsdb.insert(
            self.local,
            LsaRecord {
                seq: self.my_seq,
                links: lsa.links.clone(),
                expires_at: now + LSA_MAX_AGE,
            },
        );
        self.flood(&lsa, None)
    }

    /// Flood `lsa` out of every interface except `except`.
    fn flood(&self, lsa: &Lsa, except: Option<IfaceId>) -> Vec<Output> {
        (0..self.iface_cost.len())
            .map(|i| IfaceId(i as u32))
            .filter(|&i| Some(i) != except)
            .map(|iface| Output::Send {
                iface,
                dst: Addr::ALL_ROUTERS,
                msg: Message::Lsa(lsa.clone()),
            })
            .collect()
    }

    fn hellos(&self) -> Vec<Output> {
        (0..self.iface_cost.len())
            .map(|i| Output::Send {
                iface: IfaceId(i as u32),
                dst: Addr::ALL_ROUTERS,
                msg: Message::Hello(Hello {
                    holdtime: NEIGHBOR_HOLDTIME.ticks().min(u16::MAX as u64) as u16,
                }),
            })
            .collect()
    }

    /// Dijkstra over the LSDB. A router-to-router edge is used only if
    /// advertised by both endpoints (bidirectionality check); an edge to an
    /// address with no LSA (a stub host) is accepted one-way.
    fn recompute(&mut self) -> Vec<Output> {
        let mut dist: HashMap<Addr, u32> = HashMap::new();
        // first_hop[dst] = the neighbor of `self.local` the path leaves by.
        let mut first_hop: HashMap<Addr, Addr> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(u32, u32, Addr)>> = BinaryHeap::new();
        dist.insert(self.local, 0);
        heap.push(Reverse((0, 0, self.local)));

        let advertises = |from: Addr, to: Addr| -> Option<u32> {
            self.lsdb
                .get(&from)?
                .links
                .iter()
                .find(|l| l.neighbor == to)
                .map(|l| l.cost)
        };

        while let Some(Reverse((d, _tie, u))) = heap.pop() {
            if dist.get(&u) != Some(&d) {
                continue;
            }
            let Some(rec) = self.lsdb.get(&u) else {
                continue; // stub endpoint: no outgoing links
            };
            for link in &rec.links {
                let v = link.neighbor;
                // Bidirectionality: v must advertise u back, unless v has
                // no LSA at all (stub host).
                let back = advertises(v, u);
                if self.lsdb.contains_key(&v) && back.is_none() {
                    continue;
                }
                let nd = d.saturating_add(link.cost);
                let better = match dist.get(&v) {
                    None => true,
                    Some(&old) if nd < old => true,
                    Some(&old) if nd == old => {
                        // Deterministic tie-break on the smaller first-hop
                        // address. The oracle breaks ties at the last hop,
                        // so the two agree only on tie-free graphs.
                        let new_fh = if u == self.local { v } else { first_hop[&u] };
                        first_hop.get(&v).is_some_and(|&old_fh| new_fh < old_fh)
                    }
                    _ => false,
                };
                if better {
                    dist.insert(v, nd);
                    let fh = if u == self.local { v } else { first_hop[&u] };
                    first_hop.insert(v, fh);
                    heap.push(Reverse((nd, fh.0, v)));
                }
            }
        }

        // Translate to a routing table: first hop must be a live neighbor.
        let hop_iface: HashMap<Addr, IfaceId> = self
            .neighbors
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|nb| (nb.addr, IfaceId(i as u32))))
            .collect();
        let mut new_table = HashMap::new();
        for (dst, d) in &dist {
            if *dst == self.local {
                continue;
            }
            if self.stubs.iter().any(|&(h, _)| h == *dst) {
                continue; // our own hosts are local, not routed
            }
            let fh = first_hop[dst];
            if let Some(&iface) = hop_iface.get(&fh) {
                new_table.insert(
                    *dst,
                    RouteEntry {
                        iface,
                        next_hop: fh,
                        metric: *d,
                    },
                );
            }
        }

        // Diff for PIM notifications.
        let mut changed = Vec::new();
        for (&dst, &new) in &new_table {
            if route_changed(self.table.get(&dst).copied(), Some(new)) {
                changed.push(dst);
            }
        }
        for &dst in self.table.keys() {
            if !new_table.contains_key(&dst) {
                changed.push(dst);
            }
        }
        self.table = new_table;
        // Both tables are hashed; the notifications reach telemetry and
        // trigger joins, so they go out in address order.
        changed.sort_unstable();
        changed
            .into_iter()
            .map(|dst| Output::RouteChanged { dst })
            .collect()
    }

    fn on_hello(&mut self, now: SimTime, iface: IfaceId, src: Addr, hello: &Hello) -> Vec<Output> {
        let slot = &mut self.neighbors[iface.index()];
        let is_new = slot.map(|n| n.addr) != Some(src);
        *slot = Some(Neighbor {
            addr: src,
            expires_at: now + Duration(hello.holdtime as u64),
        });
        if is_new {
            let mut out = self.originate(now);
            out.extend(self.recompute());
            out
        } else {
            Vec::new()
        }
    }

    fn on_lsa(&mut self, now: SimTime, iface: IfaceId, lsa: &Lsa) -> Vec<Output> {
        if lsa.origin == self.local {
            // Our own LSA echoed back, possibly from before a restart; if
            // its sequence number is ahead of ours, jump past it.
            if lsa.seq >= self.my_seq {
                self.my_seq = lsa.seq;
                return self.originate(now);
            }
            return Vec::new();
        }
        let fresh = match self.lsdb.get(&lsa.origin) {
            Some(rec) => lsa.seq > rec.seq,
            None => true,
        };
        if !fresh {
            return Vec::new();
        }
        self.lsdb.insert(
            lsa.origin,
            LsaRecord {
                seq: lsa.seq,
                links: lsa.links.clone(),
                expires_at: now + LSA_MAX_AGE,
            },
        );
        let mut out = self.flood(lsa, Some(iface));
        out.extend(self.recompute());
        out
    }
}

impl Rib for LsEngine {
    fn local_addr(&self) -> Addr {
        self.local
    }

    fn route(&self, dst: Addr) -> Option<RouteEntry> {
        self.table.get(&dst).copied()
    }
}

impl Engine for LsEngine {
    fn on_start(&mut self, now: SimTime) -> Vec<Output> {
        self.next_hello = now + HELLO_INTERVAL;
        self.next_refresh = now + LSA_REFRESH;
        let mut out = self.hellos();
        out.extend(self.originate(now));
        out
    }

    fn on_message(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        msg: &Message,
    ) -> Vec<Output> {
        match msg {
            Message::Hello(h) => self.on_hello(now, iface, src, h),
            Message::Lsa(l) => self.on_lsa(now, iface, l),
            _ => Vec::new(),
        }
    }

    fn tick(&mut self, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        // Expire neighbors.
        let mut lost = false;
        for slot in &mut self.neighbors {
            if let Some(n) = slot {
                if now >= n.expires_at {
                    *slot = None;
                    lost = true;
                }
            }
        }
        // Age out LSAs.
        let before = self.lsdb.len();
        let local = self.local;
        self.lsdb
            .retain(|&origin, rec| origin == local || now < rec.expires_at);
        let aged = self.lsdb.len() != before;

        if lost {
            out.extend(self.originate(now));
        }
        if lost || aged {
            out.extend(self.recompute());
        }
        if now >= self.next_hello {
            out.extend(self.hellos());
            self.next_hello = now + HELLO_INTERVAL;
        }
        if now >= self.next_refresh {
            out.extend(self.originate(now));
            self.next_refresh = now + LSA_REFRESH;
        }
        out
    }

    fn next_deadline(&self) -> Option<SimTime> {
        let mut best = Some(self.next_hello.min(self.next_refresh));
        for n in self.neighbors.iter().flatten() {
            best = netsim::earliest(best, Some(n.expires_at));
        }
        for (origin, rec) in &self.lsdb {
            if *origin != self.local {
                best = netsim::earliest(best, Some(rec.expires_at));
            }
        }
        best
    }

    fn table_size(&self) -> usize {
        self.table.len()
    }

    fn attach_local(&mut self, host: Addr, cost: u32) {
        self.add_stub_host(host, cost);
    }

    fn grow_iface(&mut self, cost: u32) {
        self.add_iface(cost);
    }

    fn reset(&mut self) {
        // Adjacencies, the LSDB, and the computed table are volatile;
        // interface costs and stub originations are configuration. `my_seq`
        // survives so our first post-restart LSA outranks the stale copy
        // neighbors still hold (standing in for OSPF's sequence-number
        // recovery procedure).
        for n in self.neighbors.iter_mut() {
            *n = None;
        }
        self.lsdb.clear();
        self.table.clear();
        self.next_hello = SimTime::ZERO;
        self.next_refresh = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Addr {
        Addr::new(10, 0, n, 1)
    }

    /// Drive two engines' mutual discovery by hand: a <-> b over one link,
    /// a iface 0 <-> b iface 0, cost 1 each way.
    fn converge_pair() -> (LsEngine, LsEngine) {
        let mut a = LsEngine::from_parts(addr(1), vec![1]);
        let mut b = LsEngine::from_parts(addr(2), vec![1]);
        let t = SimTime(0);
        a.on_start(t);
        b.on_start(t);
        // Exchange hellos.
        let hello = Hello { holdtime: 35 };
        a.on_message(t, IfaceId(0), addr(2), &Message::Hello(hello));
        b.on_message(t, IfaceId(0), addr(1), &Message::Hello(hello));
        // Exchange resulting LSAs until quiescent (bounded).
        for _ in 0..4 {
            let la = Lsa {
                origin: addr(1),
                seq: a.my_seq,
                links: a.my_links(),
            };
            let lb = Lsa {
                origin: addr(2),
                seq: b.my_seq,
                links: b.my_links(),
            };
            a.on_message(t, IfaceId(0), addr(2), &Message::Lsa(lb));
            b.on_message(t, IfaceId(0), addr(1), &Message::Lsa(la));
        }
        (a, b)
    }

    #[test]
    fn two_routers_learn_each_other() {
        let (a, b) = converge_pair();
        let ra = a.route(addr(2)).unwrap();
        assert_eq!(ra.next_hop, addr(2));
        assert_eq!(ra.metric, 1);
        let rb = b.route(addr(1)).unwrap();
        assert_eq!(rb.next_hop, addr(1));
    }

    #[test]
    fn stub_hosts_are_advertised_and_routed() {
        let mut a = LsEngine::from_parts(addr(1), vec![1]);
        a.add_stub_host(Addr::new(10, 0, 1, 10), 1);
        assert!(a
            .my_links()
            .iter()
            .any(|l| l.neighbor == Addr::new(10, 0, 1, 10)));

        // b learns a's stub through a's LSA.
        let (a2, b) = {
            let mut a2 = a;
            let mut b = LsEngine::from_parts(addr(2), vec![1]);
            let t = SimTime(0);
            a2.on_start(t);
            b.on_start(t);
            let hello = Hello { holdtime: 35 };
            a2.on_message(t, IfaceId(0), addr(2), &Message::Hello(hello));
            b.on_message(t, IfaceId(0), addr(1), &Message::Hello(hello));
            for _ in 0..4 {
                let la = Lsa {
                    origin: addr(1),
                    seq: a2.my_seq,
                    links: a2.my_links(),
                };
                let lb = Lsa {
                    origin: addr(2),
                    seq: b.my_seq,
                    links: b.my_links(),
                };
                a2.on_message(t, IfaceId(0), addr(2), &Message::Lsa(lb));
                b.on_message(t, IfaceId(0), addr(1), &Message::Lsa(la));
            }
            (a2, b)
        };
        let r = b.route(Addr::new(10, 0, 1, 10)).unwrap();
        assert_eq!(r.next_hop, addr(1));
        assert_eq!(r.metric, 2);
        // The host is local at a, so a has no route to it.
        assert!(a2.route(Addr::new(10, 0, 1, 10)).is_none());
    }

    #[test]
    fn stale_lsa_not_refloods() {
        let (mut a, _) = converge_pair();
        let stale = Lsa {
            origin: addr(2),
            seq: 0, // older than what a holds
            links: vec![],
        };
        let out = a.on_message(SimTime(1), IfaceId(0), addr(2), &Message::Lsa(stale));
        assert!(out.is_empty());
        assert!(a.route(addr(2)).is_some(), "stale LSA must not clobber");
    }

    #[test]
    fn neighbor_timeout_withdraws_routes() {
        let (mut a, _) = converge_pair();
        assert!(a.route(addr(2)).is_some());
        let out = a.tick(SimTime(100)); // past holdtime 35
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::RouteChanged { dst } if *dst == addr(2))));
        assert!(a.route(addr(2)).is_none());
    }

    #[test]
    fn own_lsa_echo_with_higher_seq_bumps() {
        let (mut a, _) = converge_pair();
        let seq_before = a.my_seq;
        let echo = Lsa {
            origin: addr(1),
            seq: seq_before + 10,
            links: vec![],
        };
        let out = a.on_message(SimTime(1), IfaceId(0), addr(2), &Message::Lsa(echo));
        assert!(a.my_seq > seq_before + 10);
        assert!(out.iter().any(|o| matches!(o, Output::Send { .. })));
    }

    #[test]
    fn periodic_hellos_and_refresh() {
        let mut a = LsEngine::from_parts(addr(1), vec![1, 1]);
        a.on_start(SimTime(0));
        let out = a.tick(SimTime(10));
        let hellos = out
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Output::Send {
                        msg: Message::Hello(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(hellos, 2);
        let out = a.tick(SimTime(100));
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::Lsa(_),
                ..
            }
        )));
    }

    #[test]
    fn bidirectionality_check_blocks_one_way_links() {
        // c claims a link to d, but d's LSA doesn't reciprocate: no route.
        let mut a = LsEngine::from_parts(addr(1), vec![1]);
        a.on_start(SimTime(0));
        a.on_message(
            SimTime(0),
            IfaceId(0),
            addr(3),
            &Message::Hello(Hello { holdtime: 100 }),
        );
        a.on_message(
            SimTime(0),
            IfaceId(0),
            addr(3),
            &Message::Lsa(Lsa {
                origin: addr(3),
                seq: 1,
                links: vec![
                    LsaLink {
                        neighbor: addr(1),
                        cost: 1,
                    },
                    LsaLink {
                        neighbor: addr(4),
                        cost: 1,
                    },
                ],
            }),
        );
        a.on_message(
            SimTime(0),
            IfaceId(0),
            addr(3),
            &Message::Lsa(Lsa {
                origin: addr(4),
                seq: 1,
                links: vec![], // does not point back at c
            }),
        );
        assert!(a.route(addr(3)).is_some());
        assert!(a.route(addr(4)).is_none(), "one-way link must be ignored");
    }
}
