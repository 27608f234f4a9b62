//! C-Dep and C-G: command dependencies and the command-to-groups function.
//!
//! Two commands are *dependent* if they access one common variable and at
//! least one of them changes it (§III). The service designer provides the
//! dependency information (C-Dep) alongside the command signatures; from it
//! and the multiprogramming level, the proxies derive the C-G function that
//! maps each invocation to its destination group set (§IV-C):
//!
//! * dependent commands are assigned at least one common group (they will
//!   synchronize), and
//! * independent commands are spread across groups (they will run
//!   concurrently).
//!
//! The encoding here covers both levels of the paper's prototype: commands
//! that depend on each other *regardless of parameters* and commands that
//! *may* depend according to their parameters (same key).

use psmr_common::ids::{CommandId, GroupId};
use psmr_multicast::Destinations;
use psmr_recovery::CHECKPOINT;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How one command kind interacts with the service state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// Depends on every other command (e.g. the key-value store's `insert`
    /// and `delete`, which restructure the tree). C-G: all groups.
    Global,
    /// Touches exactly the state named by its key parameter. C-G: group
    /// `(key mod k)`. `writes` distinguishes updates from keyed reads: two
    /// keyed reads of the same key are independent, but they still share a
    /// group, which is harmless (same-group commands serialize per worker).
    Keyed {
        /// Whether the command modifies the keyed state.
        writes: bool,
    },
    /// Reads arbitrary state without a key affinity (the coarse C-Dep's
    /// `get_state`). C-G: a group chosen round-robin. Only sound when every
    /// writing command is `Global` (validated by
    /// [`DependencySpec::into_map`]).
    Free,
}

/// The shared key-extraction function of a C-Dep: maps a command payload to
/// the key its conflicts are computed over.
type KeyExtractor = Arc<dyn Fn(&[u8]) -> u64 + Send + Sync>;

/// The C-Dep of a service: a class per command plus the key extractor used
/// by `Keyed` commands.
///
/// # Example
///
/// The fine-grained C-Dep of the paper's key-value store (§V-A):
///
/// ```
/// use psmr_common::ids::CommandId;
/// use psmr_core::conflict::{CommandClass, DependencySpec};
///
/// const READ: CommandId = CommandId::new(0);
/// const UPDATE: CommandId = CommandId::new(1);
/// const INSERT: CommandId = CommandId::new(2);
/// const DELETE: CommandId = CommandId::new(3);
///
/// let mut spec = DependencySpec::new();
/// spec.declare(READ, CommandClass::Keyed { writes: false })
///     .declare(UPDATE, CommandClass::Keyed { writes: true })
///     .declare(INSERT, CommandClass::Global)
///     .declare(DELETE, CommandClass::Global)
///     .key_extractor(|payload| {
///         u64::from_le_bytes(payload[..8].try_into().unwrap())
///     });
/// let map = spec.into_map();
/// ```
pub struct DependencySpec {
    classes: HashMap<CommandId, CommandClass>,
    key_of: KeyExtractor,
}

impl std::fmt::Debug for DependencySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependencySpec")
            .field("classes", &self.classes)
            .finish()
    }
}

impl DependencySpec {
    /// Creates an empty specification.
    pub fn new() -> Self {
        Self {
            classes: HashMap::new(),
            key_of: Arc::new(|_| 0),
        }
    }

    /// Declares the class of a command.
    pub fn declare(&mut self, cmd: CommandId, class: CommandClass) -> &mut Self {
        self.classes.insert(cmd, class);
        self
    }

    /// Installs the key extractor used by `Keyed` commands. The extractor
    /// must be deterministic: it runs in both client and server proxies.
    pub fn key_extractor(&mut self, f: impl Fn(&[u8]) -> u64 + Send + Sync + 'static) -> &mut Self {
        self.key_of = Arc::new(f);
        self
    }

    /// Compiles the specification into a [`CommandMap`].
    ///
    /// # Panics
    ///
    /// Panics if the spec mixes `Free` commands with `Keyed { writes: true }`
    /// commands: a free read could then miss the group of a keyed write it
    /// depends on, breaking the "dependent commands share a group"
    /// requirement of §IV-C.
    pub fn into_map(&self) -> CommandMap {
        let has_free = self
            .classes
            .values()
            .any(|c| matches!(c, CommandClass::Free));
        let has_keyed_write = self
            .classes
            .values()
            .any(|c| matches!(c, CommandClass::Keyed { writes: true }));
        assert!(
            !(has_free && has_keyed_write),
            "C-Dep mixes Free reads with Keyed writes: a free read would not \
             share a group with the keyed writes it depends on"
        );
        CommandMap {
            classes: self.classes.clone(),
            key_of: Arc::clone(&self.key_of),
            rr: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Default for DependencySpec {
    fn default() -> Self {
        Self::new()
    }
}

/// The compiled C-G function plus the pairwise conflict test used by the
/// sP-SMR scheduler.
///
/// Cloneable and cheap to share: client proxies use
/// [`CommandMap::destinations`] (Algorithm 1, line 2) and schedulers use
/// [`CommandMap::conflicts`]. P-SMR workers never re-derive γ on delivery
/// (line 9): a command on `g_i` involves worker `t_i` alone, and one on
/// `g_all` involves every worker.
#[derive(Clone)]
pub struct CommandMap {
    classes: HashMap<CommandId, CommandClass>,
    key_of: KeyExtractor,
    /// Round-robin counter for `Free` commands (the paper uses a random
    /// group; round-robin is the deterministic-rate equivalent and spreads
    /// load identically).
    rr: Arc<AtomicU64>,
}

impl std::fmt::Debug for CommandMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandMap")
            .field("classes", &self.classes)
            .finish()
    }
}

impl CommandMap {
    /// The class of a command.
    ///
    /// The reserved [`CHECKPOINT`] control command is `Global` under every
    /// C-Dep: it must travel on the serialized group so all workers
    /// quiesce at the same consistent cut.
    ///
    /// # Panics
    ///
    /// Panics if the command was never declared: an undeclared command has
    /// no dependency information and executing it would be unsound.
    pub fn class(&self, cmd: CommandId) -> CommandClass {
        if cmd == CHECKPOINT {
            return CommandClass::Global;
        }
        *self
            .classes
            .get(&cmd)
            .unwrap_or_else(|| panic!("command {cmd} not declared in C-Dep"))
    }

    /// The key a payload addresses (meaningful for `Keyed` commands).
    pub fn key(&self, payload: &[u8]) -> u64 {
        (self.key_of)(payload)
    }

    /// The C-G function: destination groups of an invocation, for a
    /// deployment with multiprogramming level `mpl`.
    ///
    /// `Free` commands draw a round-robin group, so consecutive calls may
    /// differ; all other classes are deterministic. The result is final:
    /// the group a command is multicast to is all the server side needs.
    pub fn destinations(&self, cmd: CommandId, payload: &[u8], mpl: usize) -> Destinations {
        match self.class(cmd) {
            CommandClass::Global => Destinations::all(mpl),
            CommandClass::Keyed { .. } => {
                Destinations::one(GroupId::new((self.key(payload) % mpl as u64) as usize))
            }
            CommandClass::Free => {
                let g = self.rr.fetch_add(1, Ordering::Relaxed) % mpl as u64;
                Destinations::one(GroupId::new(g as usize))
            }
        }
    }

    /// The pairwise dependency test (C-Dep): do two invocations conflict?
    ///
    /// Used by the sP-SMR / no-rep scheduler to decide whether a command can
    /// run concurrently with in-flight commands.
    pub fn conflicts(
        &self,
        a_cmd: CommandId,
        a_payload: &[u8],
        b_cmd: CommandId,
        b_payload: &[u8],
    ) -> bool {
        use CommandClass::*;
        match (self.class(a_cmd), self.class(b_cmd)) {
            (Global, _) | (_, Global) => true,
            (Keyed { writes: wa }, Keyed { writes: wb }) => {
                (wa || wb) && self.key(a_payload) == self.key(b_payload)
            }
            // Free commands only read, and keyed writes are excluded by
            // validation when Free commands exist.
            (Free, _) | (_, Free) => false,
        }
    }

    /// Whether the command writes (used by schedulers and services).
    pub fn is_write(&self, cmd: CommandId) -> bool {
        matches!(
            self.class(cmd),
            CommandClass::Global | CommandClass::Keyed { writes: true }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READ: CommandId = CommandId::new(0);
    const UPDATE: CommandId = CommandId::new(1);
    const INSERT: CommandId = CommandId::new(2);
    const GETSTATE: CommandId = CommandId::new(3);
    const SETSTATE: CommandId = CommandId::new(4);

    fn key_payload(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    fn fine_spec() -> CommandMap {
        let mut spec = DependencySpec::new();
        spec.declare(READ, CommandClass::Keyed { writes: false })
            .declare(UPDATE, CommandClass::Keyed { writes: true })
            .declare(INSERT, CommandClass::Global)
            .key_extractor(|p| u64::from_le_bytes(p[..8].try_into().unwrap()));
        spec.into_map()
    }

    fn coarse_spec() -> CommandMap {
        let mut spec = DependencySpec::new();
        spec.declare(GETSTATE, CommandClass::Free)
            .declare(SETSTATE, CommandClass::Global);
        spec.into_map()
    }

    #[test]
    fn fine_cg_routes_by_key_modulo_mpl() {
        let map = fine_spec();
        let d = map.destinations(UPDATE, &key_payload(10), 4);
        assert_eq!(d.groups(), &[GroupId::new(2)]); // 10 % 4
        let d = map.destinations(READ, &key_payload(10), 4);
        assert_eq!(d.groups(), &[GroupId::new(2)], "same key, same group");
    }

    #[test]
    fn global_commands_go_to_all_groups() {
        let map = fine_spec();
        let d = map.destinations(INSERT, &key_payload(1), 3);
        assert_eq!(d.groups().len(), 3);
        assert!(!d.is_singleton());
    }

    #[test]
    fn coarse_cg_spreads_free_reads_round_robin() {
        let map = coarse_spec();
        let groups: Vec<GroupId> = (0..8)
            .map(|_| map.destinations(GETSTATE, &[], 4).executor())
            .collect();
        // Round-robin over 4 groups, twice around.
        let expect: Vec<GroupId> = (0..8).map(|i| GroupId::new(i % 4)).collect();
        assert_eq!(groups, expect);
    }

    #[test]
    fn dependent_commands_always_share_a_group() {
        // The §IV-C requirement, checked over both specs and many keys.
        let fine = fine_spec();
        for mpl in [1usize, 2, 3, 8] {
            for ka in 0..20u64 {
                for kb in 0..20u64 {
                    let (pa, pb) = (key_payload(ka), key_payload(kb));
                    for (ca, cb) in [(UPDATE, UPDATE), (UPDATE, READ), (INSERT, UPDATE)] {
                        if fine.conflicts(ca, &pa, cb, &pb) {
                            let da = fine.destinations(ca, &pa, mpl);
                            let db = fine.destinations(cb, &pb, mpl);
                            assert!(
                                da.groups().iter().any(|g| db.groups().contains(g)),
                                "{ca}({ka}) and {cb}({kb}) dependent but disjoint at mpl {mpl}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conflict_matrix_matches_paper_kv_semantics() {
        let map = fine_spec();
        let (k1, k2) = (key_payload(1), key_payload(2));
        // Reads are independent, even on the same key.
        assert!(!map.conflicts(READ, &k1, READ, &k1));
        // Update vs read/update on the same key: dependent.
        assert!(map.conflicts(UPDATE, &k1, READ, &k1));
        assert!(map.conflicts(UPDATE, &k1, UPDATE, &k1));
        // Different keys: independent.
        assert!(!map.conflicts(UPDATE, &k1, UPDATE, &k2));
        assert!(!map.conflicts(UPDATE, &k1, READ, &k2));
        // Insert depends on everything.
        assert!(map.conflicts(INSERT, &k1, READ, &k2));
        assert!(map.conflicts(INSERT, &k1, INSERT, &k2));
    }

    #[test]
    fn coarse_conflicts() {
        let map = coarse_spec();
        assert!(!map.conflicts(GETSTATE, &[], GETSTATE, &[]));
        assert!(map.conflicts(SETSTATE, &[], GETSTATE, &[]));
        assert!(map.is_write(SETSTATE));
        assert!(!map.is_write(GETSTATE));
    }

    #[test]
    fn free_commands_take_one_drawn_group_and_global_ones_take_all() {
        let map = coarse_spec();
        for _ in 0..3 {
            let _ = map.destinations(GETSTATE, &[], 4);
        }
        let d = map.destinations(GETSTATE, &[], 4);
        assert_eq!(d.groups(), &[GroupId::new(3)]);
        // Non-free classes are unaffected by the draw.
        let d = map.destinations(SETSTATE, &[], 4);
        assert_eq!(d.groups().len(), 4);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_commands_panic() {
        fine_spec().class(CommandId::new(99));
    }

    #[test]
    #[should_panic(expected = "mixes Free reads with Keyed writes")]
    fn unsound_spec_rejected() {
        let mut spec = DependencySpec::new();
        spec.declare(GETSTATE, CommandClass::Free)
            .declare(UPDATE, CommandClass::Keyed { writes: true });
        let _ = spec.into_map();
    }

    #[test]
    fn mpl_one_degenerates_to_total_order() {
        let map = fine_spec();
        for k in 0..10u64 {
            assert_eq!(
                map.destinations(UPDATE, &key_payload(k), 1).executor(),
                GroupId::new(0)
            );
        }
    }
}
