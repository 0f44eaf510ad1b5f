//! An in-memory B+Tree with range scans.
//!
//! Used by the triple engine (three statement orders, as BlazeGraph builds a
//! B+Tree for each of SPO/POS/OSP), by the relational engine (foreign-key
//! and attribute indexes, as Postgres under Sqlg) and by the cluster
//! engine's attribute indexes.
//!
//! Nodes live in an index-linked arena (no `unsafe`, no `Rc`). Leaves form a
//! doubly-linked list for ordered iteration. Deletion follows the PostgreSQL
//! nbtree philosophy: keys are removed from leaves immediately, but pages are
//! only reclaimed when they become **completely empty** — underfull pages are
//! tolerated. This keeps the code auditable while preserving all lookup and
//! scan invariants (checked by `check_invariants` in tests).
//!
//! ## Searching a node
//!
//! Every descent — `get`, `range`, `insert`, `remove` — finds its slot in a
//! node through one helper, `search`: it bisects while more than
//! `LINEAR_WINDOW` (8) keys remain, then walks the rest in key order and
//! stops at the first key not below the probe. A bisection step is a
//! data-dependent choice between two halves; on the triple engine's
//! `(s, p, o)` keys, where runs of keys share a subject and each comparison
//! branches again on which component differs, the predictor cannot learn
//! it — and `slice::binary_search`, which turns that choice into a
//! conditional move, makes each key load wait for the comparison before
//! it. The walk's loop branch is taken until it exits, which the predictor
//! does learn, and its loads do not wait on comparisons. On
//! SPO-shaped keys (~120 k statements, the `substrate/bptree-probe` benches)
//! a probe costs ~100 ns in subject order and ~230 ns at random against
//! ~150 and ~310 with `binary_search`; on `(Value, u64)` string keys a
//! lookup costs ~450 ns against ~750. A linear walk of the whole node
//! measured the same as the windowed one on the engines' queries and on
//! string keys; the window keeps a node search logarithmic at any order.
//! Comparisons go through `Ord::cmp` only, so the helper answers exactly what
//! `binary_search` answers for every key type, and node layout and split
//! points do not depend on it.
//!
//! The same benches with finger probes (below) beside them, on a 2-core
//! Xeon over two runs: `spo_ascending` ~125–140 ns, `spo_ascending_finger`
//! ~70–90 ns — one leaf search instead of a descent — and `spo_random`
//! ~265–290 ns.
//!
//! ## Finger probes
//!
//! A caller that probes in ascending key order — the triple engine's
//! per-subject SPO probes, one per vertex or edge a scan visits — passes a
//! [`Finger`] to [`BPlusTree::finger_range`]. The finger remembers the leaf
//! the previous probe started in; the next probe starts there when its
//! lower bound falls between that leaf's first and last key, or in the
//! leaf's successor when it falls after the leaf and not after the
//! successor, and descends from the root otherwise. A start is right when
//! it is *some* live leaf of this tree holding the bound's first key, and
//! `check_invariants` holds every live leaf on the sorted leaf chain: a
//! leaf whose first key is not above the bound and whose last key is not
//! below it holds the first key not below the bound. So a finger is only
//! an arena index, checked on every use — a finger from before removes
//! freed its leaf, from a clone or from another tree at worst costs a
//! descent. It is private to this file: the tree's node representation can
//! change under it.

use std::cmp::Ordering;
use std::fmt::Debug;
use std::sync::OnceLock;

use gm_obs::Counter;

/// Default maximum number of keys per node.
pub const DEFAULT_ORDER: usize = 32;

/// Windows of at most this many keys are walked, wider ones bisected.
const LINEAR_WINDOW: usize = 8;

const NIL: u32 = u32::MAX;

/// Where `key` sits in the ascending, duplicate-free `keys`: `Ok(i)` when
/// `keys[i] == key`, else `Err(i)` with `i` its insertion point — the answer
/// `keys.binary_search(key)` gives. See the module docs for the strategy.
#[inline]
fn search<K: Ord>(keys: &[K], key: &K) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0, keys.len());
    while hi - lo > LINEAR_WINDOW {
        let mid = lo + (hi - lo) / 2;
        match keys[mid].cmp(key) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    for (i, k) in keys[lo..hi].iter().enumerate() {
        match k.cmp(key) {
            Ordering::Less => {}
            Ordering::Equal => return Ok(lo + i),
            Ordering::Greater => return Err(lo + i),
        }
    }
    Err(hi)
}

/// The first slot of the ascending `keys` whose key is not below `key`.
#[inline]
fn slot<K: Ord>(keys: &[K], key: &K) -> usize {
    match search(keys, key) {
        Ok(i) | Err(i) => i,
    }
}

/// Which child of an internal node with separators `keys` holds `key`:
/// `keys[i] <= key` goes to `children[i + 1]`.
#[inline]
fn child_slot<K: Ord>(keys: &[K], key: &K) -> usize {
    match search(keys, key) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        /// `keys[i]` is the smallest key reachable through `children[i + 1]`.
        keys: Vec<K>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
        next: u32,
        prev: u32,
    },
    /// Arena free-list slot.
    Free(u32),
}

/// Where a [`BPlusTree::finger_range`] scan last started, and how often
/// its probes started near it or descended from the root. Empty by
/// default; any finger is safe to pass to any tree (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Finger {
    leaf: u32,
    descents: u64,
    hits: u64,
}

impl Default for Finger {
    fn default() -> Self {
        Finger {
            leaf: NIL,
            descents: 0,
            hits: 0,
        }
    }
}

impl Finger {
    /// Probes through this finger that descended from the root.
    pub fn descents(&self) -> u64 {
        self.descents
    }

    /// Probes through this finger that started in its leaf or the next.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Add the tallies to `storage.bptree.descents` and
    /// `storage.bptree.finger_hits` in the `gm-obs` registry (nothing under
    /// `GM_OBS=off`). Call it once per query, not per probe.
    pub fn publish(&self) {
        static COUNTERS: OnceLock<[Counter; 2]> = OnceLock::new();
        if !gm_obs::counters_on() {
            return;
        }
        let [descents, hits] = COUNTERS.get_or_init(|| {
            let g = gm_obs::global();
            [
                g.counter("storage.bptree.descents"),
                g.counter("storage.bptree.finger_hits"),
            ]
        });
        descents.add(self.descents);
        hits.add(self.hits);
    }
}

/// An ordered map backed by a B+Tree. Keys must be `Ord + Clone`.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    nodes: Vec<Node<K, V>>,
    root: u32,
    first_leaf: u32,
    free_head: u32,
    order: usize,
    len: usize,
}

impl<K: Ord + Clone + Debug, V: Clone> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone + Debug, V: Clone> BPlusTree<K, V> {
    /// An empty tree with [`DEFAULT_ORDER`].
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// An empty tree with at most `order` keys per node (`order >= 3`).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 3, "B+Tree order must be at least 3");
        let root = Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: NIL,
            prev: NIL,
        };
        BPlusTree {
            nodes: vec![root],
            root: 0,
            first_leaf: 0,
            free_head: NIL,
            order,
            len: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of arena slots currently holding live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n, Node::Free(_)))
            .count()
    }

    fn alloc(&mut self, node: Node<K, V>) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            match self.nodes[idx as usize] {
                Node::Free(next) => self.free_head = next,
                _ => unreachable!("free list points at live node"),
            }
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize] = Node::Free(self.free_head);
        self.free_head = idx;
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        let leaf = self.find_leaf(key);
        match &self.nodes[leaf as usize] {
            Node::Leaf { keys, vals, .. } => search(keys, key).ok().map(|i| &vals[i]),
            _ => unreachable!("find_leaf returned non-leaf"),
        }
    }

    /// True when the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    fn find_leaf(&self, key: &K) -> u32 {
        let mut cur = self.root;
        loop {
            match &self.nodes[cur as usize] {
                Node::Leaf { .. } => return cur,
                Node::Internal { keys, children } => cur = children[child_slot(keys, key)],
                Node::Free(_) => unreachable!("descended into free node"),
            }
        }
    }

    /// Insert or replace; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let root = self.root;
        match self.insert_rec(root, key, value) {
            InsertResult::Replaced(old) => Some(old),
            InsertResult::Done => {
                self.len += 1;
                None
            }
            InsertResult::Split(sep, right) => {
                let new_root = self.alloc(Node::Internal {
                    keys: vec![sep],
                    children: vec![root, right],
                });
                self.root = new_root;
                self.len += 1;
                None
            }
        }
    }

    fn insert_rec(&mut self, node: u32, key: K, value: V) -> InsertResult<K, V> {
        // A two-phase borrow dance: decide on the child first, then mutate.
        let child = match &self.nodes[node as usize] {
            Node::Internal { keys, children } => {
                let idx = child_slot(keys, &key);
                Some((idx, children[idx]))
            }
            Node::Leaf { .. } => None,
            Node::Free(_) => unreachable!(),
        };

        match child {
            Some((child_idx, child_node)) => match self.insert_rec(child_node, key, value) {
                InsertResult::Split(sep, right) => {
                    let order = self.order;
                    let needs_split;
                    {
                        let Node::Internal { keys, children } = &mut self.nodes[node as usize]
                        else {
                            unreachable!()
                        };
                        keys.insert(child_idx, sep);
                        children.insert(child_idx + 1, right);
                        needs_split = keys.len() > order;
                    }
                    if needs_split {
                        self.split_internal(node)
                    } else {
                        InsertResult::Done
                    }
                }
                other => other,
            },
            None => {
                let order = self.order;
                let needs_split;
                {
                    let Node::Leaf { keys, vals, .. } = &mut self.nodes[node as usize] else {
                        unreachable!()
                    };
                    match search(keys, &key) {
                        Ok(i) => {
                            let old = std::mem::replace(&mut vals[i], value);
                            return InsertResult::Replaced(old);
                        }
                        Err(i) => {
                            keys.insert(i, key);
                            vals.insert(i, value);
                        }
                    }
                    needs_split = keys.len() > order;
                }
                if needs_split {
                    self.split_leaf(node)
                } else {
                    InsertResult::Done
                }
            }
        }
    }

    fn split_leaf(&mut self, node: u32) -> InsertResult<K, V> {
        let (right_keys, right_vals, old_next) = {
            let Node::Leaf {
                keys, vals, next, ..
            } = &mut self.nodes[node as usize]
            else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            (keys.split_off(mid), vals.split_off(mid), *next)
        };
        let sep = right_keys[0].clone();
        let right = self.alloc(Node::Leaf {
            keys: right_keys,
            vals: right_vals,
            next: old_next,
            prev: node,
        });
        if old_next != NIL {
            if let Node::Leaf { prev, .. } = &mut self.nodes[old_next as usize] {
                *prev = right;
            }
        }
        if let Node::Leaf { next, .. } = &mut self.nodes[node as usize] {
            *next = right;
        }
        InsertResult::Split(sep, right)
    }

    fn split_internal(&mut self, node: u32) -> InsertResult<K, V> {
        let (sep, right_keys, right_children) = {
            let Node::Internal { keys, children } = &mut self.nodes[node as usize] else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid + 1);
            let sep = keys.pop().expect("mid key exists");
            let right_children = children.split_off(mid + 1);
            (sep, right_keys, right_children)
        };
        let right = self.alloc(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        InsertResult::Split(sep, right)
    }

    /// Remove a key; returns its value if it was present.
    ///
    /// Empty pages are unlinked and reclaimed; underfull pages are tolerated
    /// (see module docs).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.remove_rec(self.root, key);
        if removed.is_some() {
            self.len -= 1;
            // Collapse a root that lost all its keys.
            loop {
                let replace = match &self.nodes[self.root as usize] {
                    Node::Internal { keys, children } if keys.is_empty() => {
                        debug_assert_eq!(children.len(), 1);
                        Some(children[0])
                    }
                    _ => None,
                };
                match replace {
                    Some(only_child) => {
                        let old_root = self.root;
                        self.root = only_child;
                        self.release(old_root);
                    }
                    None => break,
                }
            }
        }
        removed
    }

    fn remove_rec(&mut self, node: u32, key: &K) -> Option<V> {
        let child = match &self.nodes[node as usize] {
            Node::Internal { keys, children } => {
                let idx = child_slot(keys, key);
                Some((idx, children[idx]))
            }
            Node::Leaf { .. } => None,
            Node::Free(_) => unreachable!(),
        };

        match child {
            Some((child_idx, child_node)) => {
                let removed = self.remove_rec(child_node, key)?;
                // Reclaim the child if it became an empty page.
                let child_empty = match &self.nodes[child_node as usize] {
                    Node::Leaf { keys, .. } => keys.is_empty(),
                    Node::Internal { children, .. } => children.is_empty(),
                    Node::Free(_) => false,
                };
                if child_empty {
                    if let Node::Leaf { prev, next, .. } = self.nodes[child_node as usize] {
                        if prev != NIL {
                            if let Node::Leaf { next: pn, .. } = &mut self.nodes[prev as usize] {
                                *pn = next;
                            }
                        } else {
                            self.first_leaf = next;
                        }
                        if next != NIL {
                            if let Node::Leaf { prev: np, .. } = &mut self.nodes[next as usize] {
                                *np = prev;
                            }
                        }
                    }
                    let Node::Internal { keys, children } = &mut self.nodes[node as usize] else {
                        unreachable!()
                    };
                    children.remove(child_idx);
                    if child_idx == 0 {
                        if !keys.is_empty() {
                            keys.remove(0);
                        }
                    } else {
                        keys.remove(child_idx - 1);
                    }
                    self.release(child_node);
                }
                Some(removed)
            }
            None => {
                let Node::Leaf { keys, vals, .. } = &mut self.nodes[node as usize] else {
                    unreachable!()
                };
                match search(keys, key) {
                    Ok(i) => {
                        keys.remove(i);
                        Some(vals.remove(i))
                    }
                    Err(_) => None,
                }
            }
        }
    }

    /// Iterate all `(key, value)` pairs in key order.
    pub fn iter(&self) -> BPlusIter<'_, K, V> {
        BPlusIter {
            tree: self,
            leaf: self.first_leaf,
            pos: 0,
            upper: None,
        }
    }

    /// Iterate pairs with `lo <= key` (and `key < hi` when `hi` is given),
    /// in key order.
    pub fn range(&self, lo: &K, hi: Option<&K>) -> BPlusIter<'_, K, V> {
        let (leaf, pos) = self.descend(lo);
        self.iter_at(leaf, pos, hi)
    }

    /// [`range`](Self::range), started at `finger`: when `lo` falls inside
    /// the finger's leaf or that leaf's successor, the scan starts there;
    /// otherwise it descends from the root. Either way the finger moves to
    /// the leaf the scan started in and tallies which it was. The answer is
    /// `range(lo, hi)`'s whatever the finger holds — see the module docs.
    pub fn finger_range(&self, finger: &mut Finger, lo: &K, hi: Option<&K>) -> BPlusIter<'_, K, V> {
        let (leaf, pos) = match self.near(finger.leaf, lo) {
            Some(at) => {
                finger.hits += 1;
                at
            }
            None => {
                finger.descents += 1;
                self.descend(lo)
            }
        };
        finger.leaf = leaf;
        self.iter_at(leaf, pos, hi)
    }

    /// The leaf a root-to-leaf descent for `lo` ends in, and `lo`'s slot in it.
    fn descend(&self, lo: &K) -> (u32, usize) {
        let leaf = self.find_leaf(lo);
        let Node::Leaf { keys, .. } = &self.nodes[leaf as usize] else {
            unreachable!("find_leaf returned non-leaf")
        };
        (leaf, slot(keys, lo))
    }

    /// `lo`'s leaf and slot when `lo` falls inside `leaf` (between its
    /// first and last key) or inside its successor (after `leaf`'s last
    /// key, not after the successor's); `None` when `leaf` is not a live
    /// leaf of this tree or `lo` lies elsewhere.
    fn near(&self, leaf: u32, lo: &K) -> Option<(u32, usize)> {
        let Some(Node::Leaf { keys, next, .. }) = self.nodes.get(leaf as usize) else {
            return None;
        };
        if lo < keys.first()? {
            return None;
        }
        if lo <= keys.last()? {
            return Some((leaf, slot(keys, lo)));
        }
        let Some(Node::Leaf { keys, .. }) = self.nodes.get(*next as usize) else {
            return None;
        };
        (lo <= keys.last()?).then(|| (*next, slot(keys, lo)))
    }

    fn iter_at(&self, leaf: u32, pos: usize, hi: Option<&K>) -> BPlusIter<'_, K, V> {
        BPlusIter {
            tree: self,
            leaf,
            pos,
            upper: hi.cloned(),
        }
    }

    /// Smallest key (with value), if any.
    pub fn first(&self) -> Option<(&K, &V)> {
        let mut leaf = self.first_leaf;
        loop {
            if leaf == NIL {
                return None;
            }
            match &self.nodes[leaf as usize] {
                Node::Leaf {
                    keys, vals, next, ..
                } => {
                    if keys.is_empty() {
                        leaf = *next;
                    } else {
                        return Some((&keys[0], &vals[0]));
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Approximate memory footprint given per-key and per-value sizers.
    pub fn approx_bytes(&self, key_size: impl Fn(&K) -> u64, val_size: impl Fn(&V) -> u64) -> u64 {
        let mut total = 0u64;
        for node in &self.nodes {
            total += 24; // node header overhead
            match node {
                Node::Internal { keys, children } => {
                    total += keys.iter().map(&key_size).sum::<u64>();
                    total += 4 * children.len() as u64;
                }
                Node::Leaf { keys, vals, .. } => {
                    total += keys.iter().map(&key_size).sum::<u64>();
                    total += vals.iter().map(&val_size).sum::<u64>();
                    total += 8; // leaf links
                }
                Node::Free(_) => {}
            }
        }
        total
    }

    /// Verify structural invariants; used by tests and debug assertions.
    /// Returns the number of keys reachable through leaf links.
    pub fn check_invariants(&self) -> Result<usize, String> {
        // 1. Every leaf reachable from the root is reachable via leaf links.
        let mut via_links = Vec::new();
        let mut leaf = self.first_leaf;
        let mut prev_key: Option<K> = None;
        let mut chained = 0usize;
        while leaf != NIL {
            chained += 1;
            if chained > self.nodes.len() {
                return Err("leaf chain contains a cycle".into());
            }
            match &self.nodes[leaf as usize] {
                Node::Leaf { keys, next, .. } => {
                    for k in keys {
                        if let Some(pk) = &prev_key {
                            if pk >= k {
                                return Err(format!("leaf keys out of order: {pk:?} >= {k:?}"));
                            }
                        }
                        prev_key = Some(k.clone());
                        via_links.push(());
                    }
                    leaf = *next;
                }
                _ => return Err("leaf chain points at non-leaf".into()),
            }
        }
        if via_links.len() != self.len {
            return Err(format!(
                "len mismatch: links see {}, len says {}",
                via_links.len(),
                self.len
            ));
        }
        // 2. Every live leaf is on the chain, which finger probes rely on.
        let live = self
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count();
        if live != chained {
            return Err(format!("{live} live leaves, {chained} on the chain"));
        }
        // 3. Internal separators bound their subtrees.
        self.check_node(self.root, None, None)?;
        Ok(via_links.len())
    }

    fn check_node(&self, node: u32, lo: Option<&K>, hi: Option<&K>) -> Result<(), String> {
        match &self.nodes[node as usize] {
            Node::Leaf { keys, .. } => {
                for k in keys {
                    if let Some(lo) = lo {
                        if k < lo {
                            return Err(format!("leaf key {k:?} below lower bound {lo:?}"));
                        }
                    }
                    if let Some(hi) = hi {
                        if k >= hi {
                            return Err(format!("leaf key {k:?} not below upper bound {hi:?}"));
                        }
                    }
                }
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err("internal fanout mismatch".into());
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err("internal keys out of order".into());
                    }
                }
                for (i, child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let child_hi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    self.check_node(*child, child_lo, child_hi)?;
                }
                Ok(())
            }
            Node::Free(_) => Err("reachable free node".into()),
        }
    }
}

enum InsertResult<K, V> {
    Done,
    Replaced(V),
    Split(K, u32),
}

/// In-order iterator over a [`BPlusTree`].
pub struct BPlusIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: u32,
    pos: usize,
    upper: Option<K>,
}

impl<'a, K: Ord + Clone + Debug, V: Clone> Iterator for BPlusIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.leaf == NIL {
                return None;
            }
            match &self.tree.nodes[self.leaf as usize] {
                Node::Leaf {
                    keys, vals, next, ..
                } => {
                    if self.pos < keys.len() {
                        let k = &keys[self.pos];
                        if let Some(hi) = &self.upper {
                            if k >= hi {
                                self.leaf = NIL;
                                return None;
                            }
                        }
                        let v = &vals[self.pos];
                        self.pos += 1;
                        return Some((k, v));
                    }
                    self.leaf = *next;
                    self.pos = 0;
                }
                _ => unreachable!("leaf chain corrupted"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_answers_what_binary_search_does() {
        // Every length on both sides of the walk window, every probe: each
        // key, each gap, below the first and above the last.
        for len in 0..=3 * LINEAR_WINDOW + 2 {
            let keys: Vec<u64> = (0..len as u64).map(|i| 2 * i + 1).collect();
            for probe in 0..=2 * len as u64 + 1 {
                assert_eq!(
                    search(&keys, &probe),
                    keys.binary_search(&probe),
                    "len {len} probe {probe}"
                );
            }
        }
    }

    #[test]
    fn ascending_finger_probes_descend_at_most_once_per_leaf() {
        // SPO-shaped and built in key order, as the triple engine's bulk
        // load builds it: subjects with a type and zero to four properties.
        let mut t: BPlusTree<(u64, u64, u64), ()> = BPlusTree::new();
        for s in 0..5_000u64 {
            t.insert((s, 0, s % 7), ());
            for p in 0..s % 5 {
                t.insert((s, 4 + p, s * 31 % 1_000), ());
            }
        }
        let leaves = t
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count() as u64;
        // The has() probe: one property per subject, some of them absent.
        let mut finger = Finger::default();
        for s in 0..5_000u64 {
            let (lo, hi) = ((s, 5, 0), (s, 6, 0));
            let got: Vec<_> = t.finger_range(&mut finger, &lo, Some(&hi)).collect();
            assert_eq!(
                got,
                t.range(&lo, Some(&hi)).collect::<Vec<_>>(),
                "subject {s}"
            );
        }
        assert_eq!(finger.hits() + finger.descents(), 5_000);
        assert!(
            finger.descents() <= leaves + 1,
            "{} descents over {leaves} leaves",
            finger.descents()
        );
    }

    #[test]
    fn empty_tree_behaves() {
        let t: BPlusTree<u64, u64> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.first(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_replace() {
        let mut t = BPlusTree::with_order(4);
        assert_eq!(t.insert(5u64, "five"), None);
        assert_eq!(t.insert(3, "three"), None);
        assert_eq!(t.insert(5, "FIVE"), Some("five"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&5), Some(&"FIVE"));
        assert_eq!(t.get(&4), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn many_inserts_keep_order() {
        let mut t = BPlusTree::with_order(4);
        // Insert in a scrambled order.
        for i in 0..1000u64 {
            t.insert((i * 7919) % 1000, i);
        }
        assert_eq!(t.len(), 1000);
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        let expected: Vec<u64> = (0..1000).collect();
        assert_eq!(keys, expected);
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_scans() {
        let mut t = BPlusTree::with_order(5);
        for i in 0..200u64 {
            t.insert(i * 2, i); // even keys
        }
        let r: Vec<u64> = t.range(&50, Some(&60)).map(|(k, _)| *k).collect();
        assert_eq!(r, vec![50, 52, 54, 56, 58]);
        // Lower bound not present:
        let r: Vec<u64> = t.range(&51, Some(&57)).map(|(k, _)| *k).collect();
        assert_eq!(r, vec![52, 54, 56]);
        // Open-ended:
        let r: Vec<u64> = t.range(&394, None).map(|(k, _)| *k).collect();
        assert_eq!(r, vec![394, 396, 398]);
    }

    #[test]
    fn remove_then_lookup() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..500u64 {
            t.insert(i, i * 10);
        }
        for i in (0..500).step_by(2) {
            assert_eq!(t.remove(&i), Some(i * 10));
        }
        assert_eq!(t.len(), 250);
        for i in 0..500u64 {
            if i % 2 == 0 {
                assert_eq!(t.get(&i), None);
            } else {
                assert_eq!(t.get(&i), Some(&(i * 10)));
            }
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_everything_reclaims_pages() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..300u64 {
            t.insert(i, ());
        }
        let nodes_full = t.node_count();
        for i in 0..300u64 {
            assert_eq!(t.remove(&i), Some(()));
        }
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        assert!(
            t.node_count() < nodes_full / 4,
            "empty pages should be reclaimed ({} vs {})",
            t.node_count(),
            nodes_full
        );
        t.check_invariants().unwrap();
        // Tree remains usable after total drain.
        t.insert(42, ());
        assert!(t.contains_key(&42));
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut t = BPlusTree::with_order(4);
        t.insert(1u64, 1u64);
        assert_eq!(t.remove(&2), None);
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn reverse_insert_order() {
        let mut t = BPlusTree::with_order(3);
        for i in (0..256u64).rev() {
            t.insert(i, i);
        }
        assert_eq!(t.len(), 256);
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..256).collect::<Vec<_>>());
        t.check_invariants().unwrap();
    }

    #[test]
    fn tuple_keys_for_triple_store() {
        // The triple engine keys statements as (s, p, o) triples.
        let mut t: BPlusTree<(u64, u64, u64), ()> = BPlusTree::new();
        for s in 0..10u64 {
            for p in 0..5u64 {
                for o in 0..3u64 {
                    t.insert((s, p, o), ());
                }
            }
        }
        assert_eq!(t.len(), 150);
        // Prefix scan: everything with s == 4.
        let hits: Vec<(u64, u64, u64)> = t
            .range(&(4, 0, 0), Some(&(5, 0, 0)))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(hits.len(), 15);
        assert!(hits.iter().all(|(s, _, _)| *s == 4));
    }

    #[test]
    fn first_skips_nothing() {
        let mut t = BPlusTree::with_order(4);
        t.insert(9u64, "nine");
        t.insert(2, "two");
        assert_eq!(t.first(), Some((&2, &"two")));
    }

    #[test]
    fn approx_bytes_grows() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new();
        let empty = t.approx_bytes(|_| 8, |_| 8);
        for i in 0..100 {
            t.insert(i, i);
        }
        assert!(t.approx_bytes(|_| 8, |_| 8) > empty);
    }
}
