//! Engine-internal identifier newtypes.
//!
//! Every engine assigns its own internal identifiers — for the linked engine a
//! [`Vid`] is a record-file offset, for the cluster engine a logical record id,
//! for the document engine a document key, and so on. The benchmark framework
//! never fabricates internal ids: it obtains them from
//! [`GraphSnapshot::resolve_vertex`](crate::GraphSnapshot::resolve_vertex) /
//! [`GraphSnapshot::resolve_edge`](crate::GraphSnapshot::resolve_edge) (outside the timed
//! region, as the paper prescribes) or from creation calls.

use std::fmt;

/// Engine-internal vertex identifier.
///
/// Opaque to everything except the engine that issued it. Two engines loaded
/// with the same dataset will in general assign *different* `Vid`s to the same
/// canonical vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vid(pub u64);

/// Engine-internal edge identifier. Same caveats as [`Vid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Eid(pub u64);

impl fmt::Display for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Eid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u64> for Vid {
    fn from(v: u64) -> Self {
        Vid(v)
    }
}

impl From<u64> for Eid {
    fn from(v: u64) -> Self {
        Eid(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Vid(7).to_string(), "v7");
        assert_eq!(Eid(9).to_string(), "e9");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Vid(1) < Vid(2));
        assert!(Eid(10) > Eid(2));
    }

    #[test]
    fn from_u64() {
        assert_eq!(Vid::from(3u64), Vid(3));
        assert_eq!(Eid::from(4u64), Eid(4));
    }
}
