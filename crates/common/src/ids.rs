//! Strongly typed identifiers.
//!
//! Every identifier in the system is a newtype over a machine integer
//! ([C-NEWTYPE]): confusing a [`GroupId`] with a [`WorkerId`] is a compile
//! error even though both wrap a `usize`.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name($inner);

        impl $name {
            /// Creates an identifier from its raw integer value.
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// Returns the raw integer value.
            pub const fn as_raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $inner {
            fn from(id: $name) -> $inner {
                id.0
            }
        }
    };
}

id_newtype!(
    /// Identifies a client process (`c_1, c_2, …` in the paper's model).
    ClientId, u64, "c"
);
id_newtype!(
    /// Identifies a server replica (`s_1, …, s_n`).
    ReplicaId, usize, "s"
);
id_newtype!(
    /// Identifies an atomic-multicast group (`g_1, …, g_k` plus `g_all`).
    GroupId, usize, "g"
);
id_newtype!(
    /// Identifies a worker thread within a replica (`t_1, …, t_k`).
    ///
    /// The multiprogramming level (MPL) of the system is the number of
    /// worker identifiers in use. In P-SMR the *i*-th worker of every
    /// replica delivers group `g_i` (the [`GroupId`] with the same raw
    /// value) merged with `g_all`.
    WorkerId, usize, "t"
);
id_newtype!(
    /// Identifies a service command *kind* (e.g. `read`, `update`,
    /// `mkdir`). The pair (command id, marshalled parameters) forms a
    /// request payload.
    CommandId, u32, "cmd"
);
id_newtype!(
    /// Uniquely identifies an in-flight request of one client. Clients
    /// allocate request ids sequentially; the pair ([`ClientId`],
    /// [`RequestId`]) is globally unique.
    RequestId, u64, "r"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip_raw_values() {
        assert_eq!(ClientId::new(7).as_raw(), 7);
        assert_eq!(ReplicaId::new(2).as_raw(), 2);
        assert_eq!(GroupId::new(3).as_raw(), 3);
        assert_eq!(WorkerId::new(4).as_raw(), 4);
        assert_eq!(CommandId::new(5).as_raw(), 5);
        assert_eq!(RequestId::new(6).as_raw(), 6);
    }

    #[test]
    fn display_uses_domain_prefixes() {
        assert_eq!(ClientId::new(1).to_string(), "c1");
        assert_eq!(ReplicaId::new(0).to_string(), "s0");
        assert_eq!(GroupId::new(9).to_string(), "g9");
        assert_eq!(WorkerId::new(8).to_string(), "t8");
        assert_eq!(CommandId::new(2).to_string(), "cmd2");
        assert_eq!(RequestId::new(3).to_string(), "r3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = HashSet::new();
        set.insert(GroupId::new(1));
        set.insert(GroupId::new(1));
        set.insert(GroupId::new(2));
        assert_eq!(set.len(), 2);
        assert!(GroupId::new(1) < GroupId::new(2));
    }

    #[test]
    fn from_raw_integer_conversions() {
        let g: GroupId = 4usize.into();
        assert_eq!(g, GroupId::new(4));
        let raw: usize = g.into();
        assert_eq!(raw, 4);
    }
}
