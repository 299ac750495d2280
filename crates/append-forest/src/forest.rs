//! In-memory arena-backed append forest.

use std::fmt;

/// Index of a node within the arena.
type NodeId = u32;

const NIL: NodeId = u32::MAX;

#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Smallest key in the subtree rooted at this node (the key of its
    /// oldest descendant). Lets searches decide tree membership and
    /// left/right descent without extra traversals.
    min_key: K,
    /// Height of the complete subtree rooted here (leaf = 0).
    height: u8,
    left: NodeId,
    right: NodeId,
    /// Forest pointer: root of the next tree to the left at the time this
    /// node was appended (§4.3, Figure 4-2).
    forest: NodeId,
}

/// Statistics from a single search, used by the E7 benchmark to verify the
/// `O(log n)` pointer-traversal bound of §4.3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Forest pointers followed before the containing tree was found.
    pub forest_hops: usize,
    /// Tree edges followed during the binary search.
    pub tree_hops: usize,
}

impl SearchStats {
    /// Total pointer traversals.
    #[must_use]
    pub fn total(&self) -> usize {
        self.forest_hops + self.tree_hops
    }
}

/// An in-memory append forest over strictly increasing keys.
///
/// `append` is `O(1)` and never mutates an existing node's pointers;
/// `get` performs `O(log n)` pointer traversals.
///
/// ```
/// use append_forest::AppendForest;
///
/// let mut f = AppendForest::new();
/// for k in 1u64..=100 {
///     f.append(k, k * 10).unwrap();
/// }
/// assert_eq!(f.get(&37), Some(&370));
/// assert_eq!(f.get(&101), None);
/// ```
#[derive(Clone)]
pub struct AppendForest<K, V> {
    arena: Vec<Node<K, V>>,
    /// Most recently appended node: the forest root.
    root: NodeId,
}

impl<K, V> Default for AppendForest<K, V> {
    fn default() -> Self {
        AppendForest {
            arena: Vec::new(),
            root: NIL,
        }
    }
}

impl<K: Ord + Copy, V> AppendForest<K, V> {
    /// An empty forest.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty forest with capacity for `n` appends.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        AppendForest {
            arena: Vec::with_capacity(n),
            root: NIL,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when no node has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The largest (most recently appended) key.
    #[must_use]
    pub fn last_key(&self) -> Option<K> {
        self.node(self.root).map(|n| n.key)
    }

    /// Append `(key, value)`. Keys must be strictly increasing.
    ///
    /// # Errors
    /// Returns `Err(key)` without modifying the forest when `key` is not
    /// greater than the last appended key.
    pub fn append(&mut self, key: K, value: V) -> Result<(), K> {
        if let Some(last) = self.last_key() {
            if key <= last {
                return Err(key);
            }
        }
        let id = self.arena.len() as NodeId;
        // Decide the shape: if the two rightmost trees have equal height,
        // the new node adopts them as sons and rises one level; otherwise
        // it is a leaf whose forest pointer names the previous root.
        let (height, left, right, forest, min_key) = match self.node(self.root) {
            None => (0, NIL, NIL, NIL, key),
            Some(r) => match self.node(r.forest) {
                Some(f) if f.height == r.height => {
                    // Merge: left son is the older tree, right son the
                    // newer; forest pointer skips past both.
                    (r.height + 1, r.forest, self.root, f.forest, f.min_key)
                }
                _ => (0, NIL, NIL, self.root, key),
            },
        };
        self.arena.push(Node {
            key,
            value,
            min_key,
            height,
            left,
            right,
            forest,
        });
        self.root = id;
        Ok(())
    }

    /// Look up `key`, counting pointer traversals.
    #[must_use]
    pub fn get_with_stats(&self, key: &K) -> (Option<&V>, SearchStats) {
        let mut stats = SearchStats::default();
        // Phase 1: walk the forest-pointer chain from the root until a tree
        // whose key range contains `key` is found.
        let mut cur = self.root;
        let tree = loop {
            let Some(n) = self.node(cur) else {
                return (None, stats);
            };
            if *key > n.key {
                // Keys right of this tree do not exist (appends are
                // increasing), so the search fails.
                return (None, stats);
            }
            if *key >= n.min_key {
                break cur;
            }
            cur = n.forest;
            stats.forest_hops += 1;
        };
        // Phase 2: binary-search within the complete tree.
        let mut cur = tree;
        loop {
            let Some(n) = self.node(cur) else {
                return (None, stats);
            };
            if *key == n.key {
                return (Some(&n.value), stats);
            }
            // Root key is the largest in the subtree, so a key smaller than
            // the root lives in one of the sons. The right son's min_key
            // splits them.
            let next = match self.node(n.right) {
                Some(r) if *key >= r.min_key => n.right,
                _ => n.left,
            };
            if next == NIL {
                return (None, stats);
            }
            cur = next;
            stats.tree_hops += 1;
        }
    }

    /// Look up `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_with_stats(key).0
    }

    /// The greatest key–value pair with key ≤ `key` (predecessor search);
    /// used to locate the LSN-range node covering a record.
    #[must_use]
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        // Find the newest tree whose min_key ≤ key, then descend taking the
        // rightmost branch whose subtree minimum does not exceed `key`.
        let mut cur = self.root;
        loop {
            let n = self.node(cur)?;
            if *key >= n.min_key {
                break;
            }
            cur = n.forest;
        }
        let mut best: Option<NodeId> = None;
        let mut cur_id = cur;
        loop {
            let n = self.node(cur_id)?;
            if n.key <= *key {
                // Root has the largest key in its subtree: done.
                best = Some(cur_id);
                break;
            }
            match self.node(n.right) {
                Some(r) if *key >= r.min_key => cur_id = n.right,
                _ => {
                    if n.left == NIL {
                        break;
                    }
                    cur_id = n.left;
                }
            }
        }
        best.and_then(|id| self.node(id))
            .map(|n| (&n.key, &n.value))
    }

    /// Iterate all `(key, value)` pairs in increasing key order.
    ///
    /// Appends assign arena indices in key order, so this is a simple scan.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.arena.iter().map(|n| (&n.key, &n.value))
    }

    /// Heights of the current tree roots, newest (rightmost) first.
    /// Exposed for structural tests: an `n`-node forest has at most
    /// `⌊log₂ n⌋ + 1` trees and only the two newest may share a height.
    #[must_use]
    pub fn root_heights(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut cur = self.root;
        while let Some(n) = self.node(cur) {
            out.push(n.height);
            cur = n.forest;
        }
        out
    }

    /// Test hook: validate all structural invariants, the oracle
    /// `tests/forest_props.rs` asserts after every append.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Forest shape: heights strictly decreasing except that the first
        // two (newest) may be equal.
        let hs = self.root_heights();
        for (i, w) in hs.windows(2).enumerate() {
            if let &[a, b] = w {
                let ok = if i == 0 { a <= b } else { a < b };
                if !ok {
                    return Err(format!("root heights not canonical: {hs:?}"));
                }
            }
        }
        if !self.is_empty() {
            let max_trees = (usize::BITS - self.len().leading_zeros()) as usize + 1;
            if hs.len() > max_trees {
                return Err(format!("{} trees exceeds log bound {max_trees}", hs.len()));
            }
        }
        // Per-tree BST properties.
        let mut cur = self.root;
        while let Some(n) = self.node(cur) {
            self.check_subtree(cur)?;
            cur = n.forest;
        }
        Ok(())
    }

    fn check_subtree(&self, id: NodeId) -> Result<(), String> {
        let n = self.node(id).ok_or("dangling node id")?;
        if n.height == 0 {
            if n.left != NIL || n.right != NIL {
                return Err("leaf with children".into());
            }
            if n.min_key != n.key {
                return Err("leaf min_key != key".into());
            }
            return Ok(());
        }
        let (l, r) = (n.left, n.right);
        if l == NIL || r == NIL {
            return Err("internal node missing a son".into());
        }
        let (ln, rn) = match (self.node(l), self.node(r)) {
            (Some(ln), Some(rn)) => (ln, rn),
            _ => return Err("dangling son id".into()),
        };
        if ln.height != n.height - 1 || rn.height != n.height - 1 {
            return Err("sons are not one level shorter".into());
        }
        // Property 1: root key greater than all descendants' keys.
        if n.key <= rn.key || n.key <= ln.key {
            return Err("root key not greater than sons".into());
        }
        // Property 2: right subtree keys all greater than left subtree keys.
        if rn.min_key <= ln.key {
            return Err("right subtree does not exceed left subtree".into());
        }
        if n.min_key != ln.min_key {
            return Err("min_key not inherited from left son".into());
        }
        // Recursion depth ≤ this tree's height, O(log n): each level's
        // height was checked above to be one less than its parent's.
        self.check_subtree(l)?;
        self.check_subtree(r)
    }

    fn node(&self, id: NodeId) -> Option<&Node<K, V>> {
        if id == NIL {
            None
        } else {
            self.arena.get(id as usize)
        }
    }
}

impl<K: fmt::Debug, V> fmt::Debug for AppendForest<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AppendForest({} nodes)", self.arena.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forest_of(n: u64) -> AppendForest<u64, u64> {
        let mut f = AppendForest::new();
        for k in 1..=n {
            f.append(k, k).unwrap();
        }
        f
    }

    #[test]
    fn empty_forest() {
        let f: AppendForest<u64, ()> = AppendForest::new();
        assert!(f.is_empty());
        assert_eq!(f.get(&1), None);
        assert_eq!(f.last_key(), None);
        assert!(f.root_heights().is_empty());
        f.check_invariants().unwrap();
    }

    #[test]
    fn rejects_non_increasing_keys() {
        let mut f = forest_of(5);
        assert_eq!(f.append(5, 0), Err(5));
        assert_eq!(f.append(4, 0), Err(4));
        assert!(f.append(6, 6).is_ok());
    }

    /// The paper's Figure 4-3: an eleven-node forest has trees rooted at
    /// keys 7 (height 2), 10 (height 1), 11 (height 0), and the appends of
    /// 12, 13, 14 reshape it exactly as the text describes.
    #[test]
    fn figure_4_3_shapes() {
        let mut f = forest_of(11);
        assert_eq!(f.root_heights(), vec![0, 1, 2]); // 11, 10, 7

        // "A new root with key 12 would be appended with a forest pointer
        // linking it to the node with key 11."
        f.append(12, 12).unwrap();
        assert_eq!(f.root_heights(), vec![0, 0, 1, 2]); // 12, 11, 10, 7

        // "An additional node with key 13 would have height 1, the nodes
        // with keys 11 and 12 as its left and right sons, and a forest
        // pointer linking it to the tree rooted at the node with key 10."
        f.append(13, 13).unwrap();
        assert_eq!(f.root_heights(), vec![1, 1, 2]); // 13, 10, 7

        // "Another node with key 14 could then be added with the nodes with
        // keys 10 and 13 as sons, and a forest pointer pointing to the node
        // with key 7."
        f.append(14, 14).unwrap();
        assert_eq!(f.root_heights(), vec![2, 2]); // 14, 7

        // One more makes the forest complete: a single 15-node tree.
        f.append(15, 15).unwrap();
        assert_eq!(f.root_heights(), vec![3]);
        f.check_invariants().unwrap();
    }

    #[test]
    fn complete_forest_sizes() {
        // 2^{n+1} - 1 nodes form a single complete tree.
        for n in 0..=6u32 {
            let size = (1u64 << (n + 1)) - 1;
            let f = forest_of(size);
            assert_eq!(f.root_heights(), vec![n as u8], "size {size}");
            f.check_invariants().unwrap();
        }
    }

    #[test]
    fn all_keys_reachable() {
        for n in [1u64, 2, 3, 7, 10, 11, 20, 64, 100, 255, 256, 1000] {
            let f = forest_of(n);
            f.check_invariants().unwrap();
            for k in 1..=n {
                assert_eq!(f.get(&k), Some(&k), "key {k} in forest of {n}");
            }
            assert_eq!(f.get(&0), None);
            assert_eq!(f.get(&(n + 1)), None);
        }
    }

    #[test]
    fn sparse_keys() {
        let mut f = AppendForest::new();
        let keys: Vec<u64> = (0..50).map(|i| i * i + 1).collect();
        for &k in &keys {
            f.append(k, k * 2).unwrap();
        }
        f.check_invariants().unwrap();
        for &k in &keys {
            assert_eq!(f.get(&k), Some(&(k * 2)));
        }
        assert_eq!(f.get(&3), None); // between 2 and 5
    }

    #[test]
    fn floor_semantics() {
        let mut f = AppendForest::new();
        for k in [10u64, 20, 30, 40, 50] {
            f.append(k, k).unwrap();
        }
        assert_eq!(f.floor(&9), None);
        assert_eq!(f.floor(&10), Some((&10, &10)));
        assert_eq!(f.floor(&29), Some((&20, &20)));
        assert_eq!(f.floor(&30), Some((&30, &30)));
        assert_eq!(f.floor(&1000), Some((&50, &50)));
    }

    #[test]
    fn iteration_in_key_order() {
        let f = forest_of(100);
        let keys: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn search_cost_is_logarithmic() {
        let f = forest_of(1 << 16);
        let mut worst = 0;
        for k in (1..=(1u64 << 16)).step_by(997) {
            let (v, stats) = f.get_with_stats(&k);
            assert!(v.is_some());
            worst = worst.max(stats.total());
        }
        // log2(65536) = 16; forest hops + tree hops stay within ~2 log n.
        assert!(worst <= 34, "worst-case traversals {worst} exceed 2 log n");
    }

    #[test]
    fn tree_count_bound() {
        // "An append forest with n nodes contains at most ⌈log2(n)⌉ trees"
        // (plus the stated slack of one for the duplicate smallest height).
        for n in [2u64, 3, 15, 16, 100, 1000, 4095, 4096] {
            let f = forest_of(n);
            let bound = 64 - (n.leading_zeros() as usize).min(63) + 1;
            assert!(
                f.root_heights().len() <= bound,
                "{} trees for n={n}",
                f.root_heights().len()
            );
        }
    }
}
