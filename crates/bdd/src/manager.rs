//! Node storage, unique table and the [`BddManager`] type.

use crate::util::{DirectCache, TripleMap};
use std::fmt;
use std::sync::Arc;

/// A BDD variable, identified by its level in the (static) variable order.
///
/// Level 0 is the topmost variable. The order is fixed at
/// [`BddManager::new`] time; callers that need a particular interleaving
/// (e.g. current-state / next-state variables for image computation) choose
/// it by assigning levels accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The level of this variable in the global order.
    pub fn level(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A handle to a BDD node owned by a [`BddManager`].
///
/// Handles are plain indices: copying them is free, and they stay valid for
/// the lifetime of the manager (nodes are never garbage collected out from
/// under a live computation; see [`BddManager::clear_caches`]) and in every
/// clone of it.
///
/// The two terminal nodes are [`Bdd::FALSE`] and [`Bdd::TRUE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false terminal.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true terminal.
    pub const TRUE: Bdd = Bdd(1);

    /// Returns `true` if this is the constant-false terminal.
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Returns `true` if this is the constant-true terminal.
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns `true` if this is either terminal.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Raw index of the node inside its manager (stable for the manager's
    /// lifetime). Mostly useful for debugging and external caching.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Variable level assigned to terminal nodes: below every real variable.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Node-store size below which [`BddManager::maybe_gc`] never collects
/// (collecting tiny managers only costs cache warmth).
const GC_MIN_NODES: usize = 1 << 16;

/// Growth multiple over the last collection's node count that triggers
/// the next cache-eviction collection.
const GC_GROWTH_FACTOR: usize = 4;

#[derive(Clone, Copy)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) low: u32,
    pub(crate) high: u32,
}

/// Initial slot count of the unique table and the ITE cache.
const PRIMARY_TABLE_SLOTS: usize = 1 << 12;

/// Initial slot count of the quantification, relational-product and
/// compose caches.
const SECONDARY_CACHE_SLOTS: usize = 1 << 10;

/// The immutable node prefix a frozen manager shares with its clones:
/// nodes `0..nodes.len()` and their unique-table entries.
#[derive(Clone)]
struct FrozenBase {
    nodes: Vec<Node>,
    unique: TripleMap,
}

/// Cumulative operation counters of a [`BddManager`] — the backing store
/// of the `bdd.*` observability counters (`simcov_obs::names::BDD_*`).
///
/// All counts are pure functions of the operation sequence issued against
/// the manager, so two runs performing the same symbolic computation
/// report identical values regardless of thread count or host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddRuntimeStats {
    /// ITE calls answered from the memoization cache.
    pub ite_cache_hits: u64,
    /// ITE calls that had to recurse (and then filled the cache).
    pub ite_cache_misses: u64,
    /// Cache-eviction collections performed by [`BddManager::maybe_gc`].
    pub gc_collections: u64,
}

impl BddRuntimeStats {
    /// Component-wise difference against an earlier snapshot of the same
    /// manager (or of the manager this one was cloned from): the work done
    /// *since* that snapshot.
    pub fn since(&self, earlier: &BddRuntimeStats) -> BddRuntimeStats {
        BddRuntimeStats {
            ite_cache_hits: self.ite_cache_hits - earlier.ite_cache_hits,
            ite_cache_misses: self.ite_cache_misses - earlier.ite_cache_misses,
            gc_collections: self.gc_collections - earlier.gc_collections,
        }
    }
}

/// A manager owning a forest of hash-consed ROBDD nodes over a fixed
/// variable order.
///
/// All operations go through the manager (`C-SMART-PTR`-style: [`Bdd`]
/// handles carry no inherent methods that mutate state). Operation results
/// are memoized in internal caches; [`BddManager::clear_caches`] frees that
/// memory without invalidating any handle.
///
/// Cloning a manager copies what it owns. [`BddManager::freeze`] moves
/// every node built so far into a base shared, behind an [`Arc`], by the
/// manager and all its later clones, so forking many workers from one
/// large prepared manager costs a reference-count bump per worker.
///
/// # Example
///
/// ```
/// use simcov_bdd::{Bdd, BddManager};
///
/// let mut m = BddManager::new(2);
/// let a = m.var(0);
/// let not_a = m.not(a);
/// assert_eq!(m.or(a, not_a), Bdd::TRUE);
/// ```
#[derive(Clone)]
pub struct BddManager {
    /// Frozen nodes `0..base_len`, shared with clones.
    base: Arc<FrozenBase>,
    /// `base.nodes.len()`, kept inline so node reads of a never-frozen
    /// manager (`base_len == 0`) never touch the base.
    base_len: usize,
    /// `base_len` once the base holds internal nodes, else 0: `mk_node`
    /// probes the base unique table only for children below this bound
    /// (a node over any unfrozen child cannot be frozen).
    probe_below: u32,
    /// Owned nodes: node `i >= base_len` is `nodes[i - base_len]`.
    nodes: Vec<Node>,
    /// Unique-table entries of the owned nodes.
    unique: TripleMap,
    pub(crate) ite_cache: DirectCache,
    pub(crate) quant_cache: DirectCache,
    pub(crate) and_exists_cache: DirectCache,
    pub(crate) compose_cache: DirectCache,
    num_vars: u32,
    pub(crate) stats: BddRuntimeStats,
    /// Node count at the last collection (or construction): the growth
    /// reference [`BddManager::maybe_gc`] triggers against.
    gc_node_floor: usize,
}

impl BddManager {
    /// Creates a manager over `num_vars` variables (levels `0..num_vars`).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars >= u32::MAX - 1` (needed for the terminal level
    /// sentinel).
    pub fn new(num_vars: u32) -> Self {
        assert!(num_vars < u32::MAX - 1, "too many variables");
        let mut nodes = Vec::with_capacity(1024);
        // Index 0: FALSE, index 1: TRUE.
        nodes.push(Node {
            var: TERMINAL_LEVEL,
            low: 0,
            high: 0,
        });
        nodes.push(Node {
            var: TERMINAL_LEVEL,
            low: 1,
            high: 1,
        });
        BddManager {
            base: Arc::new(FrozenBase {
                nodes: Vec::new(),
                unique: TripleMap::with_capacity_pow2(0),
            }),
            base_len: 0,
            probe_below: 0,
            nodes,
            unique: TripleMap::with_capacity_pow2(PRIMARY_TABLE_SLOTS),
            ite_cache: DirectCache::with_capacity_pow2(PRIMARY_TABLE_SLOTS),
            quant_cache: DirectCache::with_capacity_pow2(SECONDARY_CACHE_SLOTS),
            and_exists_cache: DirectCache::with_capacity_pow2(SECONDARY_CACHE_SLOTS),
            compose_cache: DirectCache::with_capacity_pow2(SECONDARY_CACHE_SLOTS),
            num_vars,
            stats: BddRuntimeStats::default(),
            gc_node_floor: GC_MIN_NODES,
        }
    }

    /// Number of variables in the order.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total number of nodes allocated so far (including both terminals),
    /// frozen or owned.
    pub fn num_nodes(&self) -> usize {
        self.base_len + self.nodes.len()
    }

    /// Seals every node built so far into an immutable base that this
    /// manager and all its later clones share instead of copying, and
    /// resets the operation caches to their initial size.
    ///
    /// Handles, node numbering and every function's canonical handle are
    /// unchanged; only what a clone copies shrinks, to the nodes built
    /// after the freeze plus fresh caches. Freezing again folds those
    /// later nodes into a new base (copying the old one if a clone still
    /// shares it).
    pub fn freeze(&mut self) {
        if !self.nodes.is_empty() {
            let owned = std::mem::take(&mut self.nodes);
            let unique = std::mem::replace(
                &mut self.unique,
                TripleMap::with_capacity_pow2(PRIMARY_TABLE_SLOTS),
            );
            if self.base_len == 0 {
                self.base = Arc::new(FrozenBase {
                    nodes: owned,
                    unique,
                });
            } else {
                let base = Arc::make_mut(&mut self.base);
                for (i, n) in owned.iter().enumerate() {
                    base.unique
                        .insert(n.var, n.low, n.high, (self.base_len + i) as u32);
                }
                base.nodes.extend_from_slice(&owned);
            }
            self.base_len = self.base.nodes.len();
            // Terminals are never in a unique table.
            self.probe_below = if self.base_len > 2 {
                self.base_len as u32
            } else {
                0
            };
        }
        self.ite_cache = DirectCache::with_capacity_pow2(PRIMARY_TABLE_SLOTS);
        self.quant_cache = DirectCache::with_capacity_pow2(SECONDARY_CACHE_SLOTS);
        self.and_exists_cache = DirectCache::with_capacity_pow2(SECONDARY_CACHE_SLOTS);
        self.compose_cache = DirectCache::with_capacity_pow2(SECONDARY_CACHE_SLOTS);
    }

    /// Grows the variable order by `extra` fresh variables appended at the
    /// bottom, returning the first new [`Var`].
    ///
    /// Existing BDDs are unaffected (the new variables are below all
    /// existing levels, so no node changes shape).
    pub fn add_vars(&mut self, extra: u32) -> Var {
        let first = self.num_vars;
        self.num_vars += extra;
        Var(first)
    }

    /// The BDD for the single variable at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.num_vars()`.
    pub fn var(&mut self, level: u32) -> Bdd {
        assert!(level < self.num_vars, "variable level out of range");
        self.mk_node(level, Bdd::FALSE, Bdd::TRUE)
    }

    /// The BDD for the negation of the variable at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.num_vars()`.
    pub fn nvar(&mut self, level: u32) -> Bdd {
        assert!(level < self.num_vars, "variable level out of range");
        self.mk_node(level, Bdd::TRUE, Bdd::FALSE)
    }

    /// The BDD for a constant.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Hash-consed node constructor enforcing the two ROBDD invariants:
    /// no redundant tests (`low == high` collapses) and no duplicate nodes.
    pub(crate) fn mk_node(&mut self, var: u32, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        if low.0.max(high.0) < self.probe_below {
            if let Some(idx) = self.base.unique.get(var, low.0, high.0) {
                return Bdd(idx);
            }
        }
        let first_owned = self.base_len as u32;
        let nodes = &mut self.nodes;
        let idx = self.unique.get_or_insert_with(var, low.0, high.0, || {
            let idx = first_owned + nodes.len() as u32;
            nodes.push(Node {
                var,
                low: low.0,
                high: high.0,
            });
            idx
        });
        Bdd(idx)
    }

    /// The node at index `i`, owned or frozen. The owned store is probed
    /// first with a wrapping offset, so a never-frozen manager pays one
    /// subtraction over a plain indexed load.
    #[inline]
    pub(crate) fn node(&self, i: u32) -> Node {
        match self.nodes.get((i as usize).wrapping_sub(self.base_len)) {
            Some(&n) => n,
            None => self.base.nodes[i as usize],
        }
    }

    /// Top variable level of `f` together with its low/high children
    /// (children are meaningless for terminals, whose level is
    /// `TERMINAL_LEVEL`). One node load where separate `level_of` +
    /// `cofactors` calls would take two; the node array outgrows L2 on
    /// image-computation workloads, so the hot binary applies use this.
    #[inline]
    pub(crate) fn expand(&self, f: Bdd) -> (u32, Bdd, Bdd) {
        let n = self.node(f.0);
        (n.var, Bdd(n.low), Bdd(n.high))
    }

    /// Level of the top variable of `f` (`u32::MAX` for terminals).
    pub(crate) fn level_of(&self, f: Bdd) -> u32 {
        self.node(f.0).var
    }

    /// Cofactors of `f` with respect to its own top variable.
    pub(crate) fn cofactors(&self, f: Bdd, at_level: u32) -> (Bdd, Bdd) {
        let n = self.node(f.0);
        if n.var == at_level {
            (Bdd(n.low), Bdd(n.high))
        } else {
            (f, f)
        }
    }

    /// The top variable of `f`, or `None` for terminals.
    pub fn top_var(&self, f: Bdd) -> Option<Var> {
        let l = self.level_of(f);
        if l == TERMINAL_LEVEL {
            None
        } else {
            Some(Var(l))
        }
    }

    /// Number of distinct nodes in the DAG rooted at `f` (counting
    /// terminals).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            let node = self.node(n);
            if node.var != TERMINAL_LEVEL {
                stack.push(node.low);
                stack.push(node.high);
            }
        }
        seen.len()
    }

    /// The set of variables appearing in the DAG rooted at `f`, in level
    /// order.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.0];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            let node = self.node(n);
            if node.var != TERMINAL_LEVEL {
                vars.insert(node.var);
                stack.push(node.low);
                stack.push(node.high);
            }
        }
        vars.into_iter().map(Var).collect()
    }

    /// Evaluates `f` under a total assignment (indexed by level).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than some variable level
    /// appearing in `f`.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f.0;
        loop {
            let node = self.node(cur);
            if node.var == TERMINAL_LEVEL {
                return cur == 1;
            }
            cur = if assignment[node.var as usize] {
                node.high
            } else {
                node.low
            };
        }
    }

    /// Drops all memoization caches (unique table is kept — handles remain
    /// valid). Call between large, unrelated computations to bound memory.
    pub fn clear_caches(&mut self) {
        self.ite_cache.clear();
        self.quant_cache.clear();
        self.and_exists_cache.clear();
        self.compose_cache.clear();
    }

    /// Cumulative operation counters (see [`BddRuntimeStats`]).
    pub fn runtime_stats(&self) -> BddRuntimeStats {
        self.stats
    }

    /// Cache-eviction garbage collection: when the node store has grown by
    /// `GC_GROWTH_FACTOR`× since the last collection, drop the operation
    /// caches (whose entries reference mostly-dead intermediate results of
    /// completed computations) and reset the growth reference.
    ///
    /// The unique table — and therefore every issued [`Bdd`] handle — is
    /// untouched, so this is always safe to call between computations. The
    /// trigger depends only on the operation sequence, never on wall clock
    /// or memory pressure, keeping symbolic campaigns deterministic.
    /// Returns `true` if a collection ran (counted in
    /// [`BddRuntimeStats::gc_collections`]).
    pub fn maybe_gc(&mut self) -> bool {
        if self.num_nodes() < self.gc_node_floor.saturating_mul(GC_GROWTH_FACTOR) {
            return false;
        }
        self.clear_caches();
        self.gc_node_floor = self.num_nodes().max(GC_MIN_NODES);
        self.stats.gc_collections += 1;
        true
    }

    /// Approximate heap usage of the node store this manager owns, in
    /// bytes: the nodes built since the last [`BddManager::freeze`], not
    /// the frozen base it shares with its clones. Useful for
    /// instrumentation in benchmarks.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("num_vars", &self.num_vars)
            .field("num_nodes", &self.num_nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals() {
        let m = BddManager::new(4);
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::FALSE.is_false());
        assert!(Bdd::TRUE.is_const());
        assert_eq!(m.constant(true), Bdd::TRUE);
        assert_eq!(m.constant(false), Bdd::FALSE);
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn var_is_hash_consed() {
        let mut m = BddManager::new(4);
        let a1 = m.var(2);
        let a2 = m.var(2);
        assert_eq!(a1, a2);
        assert_eq!(m.num_nodes(), 3);
    }

    #[test]
    fn redundant_test_collapses() {
        let mut m = BddManager::new(4);
        let t = m.mk_node(1, Bdd::TRUE, Bdd::TRUE);
        assert_eq!(t, Bdd::TRUE);
    }

    #[test]
    #[should_panic(expected = "variable level out of range")]
    fn var_out_of_range_panics() {
        let mut m = BddManager::new(2);
        let _ = m.var(2);
    }

    #[test]
    fn eval_variable() {
        let mut m = BddManager::new(3);
        let b = m.var(1);
        assert!(m.eval(b, &[false, true, false]));
        assert!(!m.eval(b, &[true, false, true]));
    }

    #[test]
    fn support_and_size() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.and(a, c);
        assert_eq!(m.support(f), vec![Var(0), Var(2)]);
        // Nodes: a-node, c-node, two terminals.
        assert_eq!(m.size(f), 4);
    }

    #[test]
    fn add_vars_extends_order() {
        let mut m = BddManager::new(2);
        let first = m.add_vars(3);
        assert_eq!(first, Var(2));
        assert_eq!(m.num_vars(), 5);
        let v = m.var(4);
        assert!(!v.is_const());
    }

    #[test]
    fn clear_caches_preserves_results() {
        let mut m = BddManager::new(6);
        let a = m.var(0);
        let b = m.var(3);
        let f = m.xor(a, b);
        let g = m.and(f, a);
        m.clear_caches();
        // Recomputation after clearing yields the identical nodes
        // (canonicity is carried by the unique table, not the caches).
        let f2 = m.xor(a, b);
        let g2 = m.and(f2, a);
        assert_eq!(f, f2);
        assert_eq!(g, g2);
        assert!(m.heap_bytes() > 0);
    }

    #[test]
    fn top_var() {
        let mut m = BddManager::new(3);
        let b = m.var(1);
        assert_eq!(m.top_var(b), Some(Var(1)));
        assert_eq!(m.top_var(Bdd::TRUE), None);
    }

    #[test]
    fn runtime_stats_count_ite_traffic() {
        let mut m = BddManager::new(6);
        assert_eq!(m.runtime_stats(), BddRuntimeStats::default());
        let a = m.var(0);
        let b = m.var(3);
        let _ = m.xor(a, b);
        let after_first = m.runtime_stats();
        assert!(after_first.ite_cache_misses > 0);
        // The identical operation replays from the cache.
        let _ = m.xor(a, b);
        let after_second = m.runtime_stats();
        assert!(after_second.ite_cache_hits > after_first.ite_cache_hits);
        let delta = after_second.since(&after_first);
        assert_eq!(delta.ite_cache_misses, 0);
    }

    #[test]
    fn maybe_gc_is_a_noop_below_the_floor() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert!(!m.maybe_gc());
        assert_eq!(m.runtime_stats().gc_collections, 0);
        // Results stay canonical either way.
        let f2 = m.and(a, b);
        assert_eq!(f, f2);
    }

    #[test]
    fn cloned_manager_is_independent() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(2);
        let f = m.and(a, b);
        let mut c = m.clone();
        // Same handles are valid in the clone and denote the same function.
        assert!(c.eval(f, &[true, false, true, false]));
        // New nodes in the clone do not appear in the original.
        let before = m.num_nodes();
        let g = c.or(f, a);
        assert!(!g.is_const());
        assert_eq!(m.num_nodes(), before);
    }
}
