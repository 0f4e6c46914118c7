//! Protocol configuration.

use netsim::Duration;

/// When a receiver's DR switches a source from the RP-rooted shared tree to
/// the source's shortest-path tree (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SptPolicy {
    /// Join the SPT on the first data packet seen from a new source.
    Immediate,
    /// "A DR may adopt a policy of not setting up an (S,G) entry ... until
    /// it has received m data packets from the source within some interval
    /// of n seconds" (§3.3).
    AfterPackets {
        /// m — packets required...
        packets: u32,
        /// ...within this window (n).
        within: Duration,
    },
    /// "The DR may also choose to remain on the RP-distribution tree
    /// indefinitely instead of moving to the shortest path tree" (§3.3).
    /// This is what makes PIM subsume CBT-style shared trees.
    Never,
}

/// Neighbor holdtime advertised in queries.
pub const NEIGHBOR_HOLDTIME: Duration = Duration(105);

/// How long a prune received on a multi-access subnetwork is held before
/// taking effect, giving other routers the chance to send an overriding
/// join (§3.7).
pub const PRUNE_OVERRIDE_DELAY: Duration = Duration(4);

/// TTL used for unicast control messages (Registers).
pub const UNICAST_TTL: u8 = 64;

/// While a source's DR forwards natively over (S,G) state, it still
/// re-registers one data packet to the RP(s) this often. Native (S,G) oifs
/// only prove *some* receiver joined the SPT through us — not that the RP
/// still has the source. Without the probe, an RP that dropped its (S,G)
/// state (crash, shared-tree churn) could never reacquire the source for
/// later shared-tree members. Stands in for PIM-SM's null-register
/// probing.
pub const REGISTER_PROBE_INTERVAL: Duration = Duration(120);

/// PIM timer and policy configuration: the timers that some caller sets.
///
/// The paper gives ratios, not absolute values ("the entry is deleted after
/// 3 times the refresh period"); the defaults keep those ratios with the
/// refresh period at 60 ticks.
#[derive(Clone, Copy, Debug)]
pub struct PimConfig {
    /// Period between soft-state join/prune refreshes (§3.4).
    pub refresh_period: Duration,
    /// Holdtime advertised in join/prune messages; oif timers are set to
    /// this on each refresh (3 × refresh period).
    pub holdtime: Duration,
    /// How long an entry with a null oif list lingers before deletion
    /// ("deleted after 3 times the refresh period", §3.6).
    pub entry_linger: Duration,
    /// Period between RP-reachability messages generated by RPs (§3.2).
    pub rp_reach_period: Duration,
    /// RP-timer: with no reachability message for this long, the RP is
    /// declared unreachable and an alternate is joined (§3.9).
    pub rp_timeout: Duration,
    /// Period between PIM Query (hello) messages for neighbor discovery
    /// and DR election (§3.7).
    pub query_interval: Duration,
    /// Shared-tree → shortest-path-tree switchover policy (§3.3).
    pub spt_policy: SptPolicy,
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig {
            refresh_period: Duration(60),
            holdtime: Duration(180),
            entry_linger: Duration(180),
            rp_reach_period: Duration(60),
            rp_timeout: Duration(180),
            query_interval: Duration(30),
            spt_policy: SptPolicy::Immediate,
        }
    }
}

impl PimConfig {
    /// A configuration that never leaves the shared tree — PIM operating
    /// as a pure shared-tree protocol (the CBT-comparable mode).
    pub fn shared_tree_only() -> Self {
        PimConfig {
            spt_policy: SptPolicy::Never,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_keep_paper_ratios() {
        let c = PimConfig::default();
        assert_eq!(c.holdtime.ticks(), 3 * c.refresh_period.ticks());
        assert_eq!(c.entry_linger.ticks(), 3 * c.refresh_period.ticks());
        assert_eq!(c.rp_timeout.ticks(), 3 * c.rp_reach_period.ticks());
        assert!(PRUNE_OVERRIDE_DELAY < c.refresh_period);
    }

    #[test]
    fn shared_tree_only_mode() {
        assert_eq!(PimConfig::shared_tree_only().spt_policy, SptPolicy::Never);
    }
}
