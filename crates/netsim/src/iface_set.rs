//! A set of one node's interfaces.

use crate::IfaceId;
use std::fmt;

/// A set of a node's interfaces as a fixed-width bitmask, iterated in
/// ascending interface order.
///
/// "The same bytes out of these interfaces" is how a router names the
/// egress of one control message: the message is encoded once and the
/// packet handed to every member. The widest router of any committed
/// scenario has 33 interfaces, so the mask is one word and a wider node
/// is refused by name ([`IfaceSet::check_width`], asserted where routers
/// are built) instead of carrying a spill path nothing would exercise.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IfaceSet(u64);

/// A node has more interfaces than an [`IfaceSet`] can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooWide {
    /// The node's interface count.
    pub ifaces: usize,
}

impl fmt::Display for TooWide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} interfaces do not fit an IfaceSet ({} at most)",
            self.ifaces,
            IfaceSet::CAPACITY
        )
    }
}

impl std::error::Error for TooWide {}

impl IfaceSet {
    /// The number of interfaces a set can name: `if0` to `if63`.
    pub const CAPACITY: usize = u64::BITS as usize;

    /// The empty set.
    pub const EMPTY: IfaceSet = IfaceSet(0);

    /// Can every interface of a node with `ifaces` of them be named?
    pub fn check_width(ifaces: usize) -> Result<(), TooWide> {
        if ifaces <= IfaceSet::CAPACITY {
            Ok(())
        } else {
            Err(TooWide { ifaces })
        }
    }

    /// Interfaces `if0` to `if(n-1)`: every interface of an `n`-interface
    /// node.
    pub fn first_n(n: usize) -> IfaceSet {
        if let Err(e) = IfaceSet::check_width(n) {
            panic!("{e}");
        }
        match n {
            0 => IfaceSet::EMPTY,
            n => IfaceSet(u64::MAX >> (IfaceSet::CAPACITY - n)),
        }
    }

    /// Add `iface`.
    pub fn insert(&mut self, iface: IfaceId) {
        if let Err(e) = IfaceSet::check_width(iface.index() + 1) {
            panic!("{iface:?}: {e}");
        }
        self.0 |= 1 << iface.0;
    }

    /// No member at all?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The members, ascending.
    pub fn iter(self) -> impl Iterator<Item = IfaceId> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let i = rest.trailing_zeros();
            rest &= rest - 1;
            Some(IfaceId(i))
        })
    }
}

impl From<IfaceId> for IfaceSet {
    /// The set holding only `iface`.
    fn from(iface: IfaceId) -> IfaceSet {
        let mut set = IfaceSet::EMPTY;
        set.insert(iface);
        set
    }
}

impl FromIterator<IfaceId> for IfaceSet {
    fn from_iter<I: IntoIterator<Item = IfaceId>>(ifaces: I) -> IfaceSet {
        let mut set = IfaceSet::EMPTY;
        for i in ifaces {
            set.insert(i);
        }
        set
    }
}

impl fmt::Debug for IfaceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_ascending_whatever_the_insertion_order() {
        let set: IfaceSet = [40, 3, 63, 0, 17, 3].map(IfaceId).into_iter().collect();
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [0, 3, 17, 40, 63].map(IfaceId)
        );
        assert_eq!(format!("{set:?}"), "{if0, if3, if17, if40, if63}");
        assert!(IfaceSet::EMPTY.is_empty() && IfaceSet::EMPTY.iter().next().is_none());
        assert_eq!(
            IfaceSet::from(IfaceId(9)).iter().collect::<Vec<_>>(),
            [IfaceId(9)]
        );
    }

    #[test]
    fn first_n_is_every_interface_of_an_n_interface_node() {
        assert!(IfaceSet::first_n(0).is_empty());
        for n in [1, 33, 63, 64] {
            let ifaces: Vec<IfaceId> = IfaceSet::first_n(n).iter().collect();
            assert_eq!(ifaces, (0..n as u32).map(IfaceId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_wider_node_is_refused_by_name() {
        assert_eq!(IfaceSet::check_width(64), Ok(()));
        let err = IfaceSet::check_width(65).unwrap_err();
        assert_eq!(err, TooWide { ifaces: 65 });
        assert_eq!(
            err.to_string(),
            "65 interfaces do not fit an IfaceSet (64 at most)"
        );
    }

    #[test]
    #[should_panic(expected = "if64: 65 interfaces do not fit an IfaceSet")]
    fn inserting_past_the_mask_panics_with_the_interface() {
        let mut set = IfaceSet::EMPTY;
        set.insert(IfaceId(64));
    }
}
