//! The binary decision-tree model (paper §2.1).
//!
//! Nodes live in an arena indexed by [`NodeId`]. Internal nodes carry a
//! [`Split`] (splitting attribute + splitting predicate); leaves predict the
//! majority class of their family. Every node stores the exact per-class
//! counts of its family, which all algorithms in this workspace compute —
//! they are part of the identical-tree guarantee and drive leaf labelling.

use crate::catset::CatSet;
use boat_data::{Fields, Record, Schema};
use std::fmt::Write as _;

/// Index of a node in a [`Tree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A splitting predicate `q_n` (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Numeric split `X ≤ x`; the operand is the *split point*.
    NumLe(f64),
    /// Categorical split `X ∈ Y`; the operand is the *splitting subset*,
    /// canonicalized per [`CatSet::canonicalize`].
    CatIn(CatSet),
}

impl Predicate {
    /// Evaluate the predicate on `record`'s attribute `attr`.
    ///
    /// # Prediction-time contract (pinned)
    ///
    /// Training data is validated ([`Record::validate`]), but *prediction*
    /// accepts arbitrary field values, so the routing rule for values the
    /// tree never saw at training time is part of the model's contract.
    /// Every inference path in this workspace — [`Tree::predict`], the
    /// serving compiler in `boat-serve`, and any future backend — must
    /// replicate these rules bit-for-bit:
    ///
    /// * **Numeric `X ≤ x`** is evaluated with IEEE-754 `<=` on the stored
    ///   split point. A **NaN** value therefore fails every numeric
    ///   predicate and **routes right** at every numeric split (`NaN <= x`
    ///   is false for all `x`). `-∞` always routes left; `+∞` always routes
    ///   right (split points are finite: they are midpoints/values of
    ///   validated, finite training data).
    /// * **Categorical `X ∈ Y`** is a membership test in the splitting
    ///   subset's 64-bit mask. A category code **not in the subset routes
    ///   right — including codes that never occurred at training time**
    ///   (such codes are never members: splitting subsets are built from
    ///   observed categories only, and canonicalization complements within
    ///   the *observed* universe, so unseen codes cannot enter the mask).
    ///   Codes must be `< 64` (the schema bound); larger codes are outside
    ///   the model's domain.
    #[inline]
    pub fn matches(&self, record: &impl Fields, attr: usize) -> bool {
        match self {
            Predicate::NumLe(x) => record.num(attr) <= *x,
            Predicate::CatIn(set) => set.contains(record.cat(attr)),
        }
    }

    /// A deterministic rank used to break exact impurity ties between
    /// predicates on the same attribute.
    pub(crate) fn tie_rank(&self) -> u64 {
        match self {
            // total_cmp-compatible ordering for finite values.
            Predicate::NumLe(x) => {
                let bits = x.to_bits();
                if *x >= 0.0 {
                    bits ^ (1 << 63)
                } else {
                    !bits
                }
            }
            Predicate::CatIn(set) => set.mask(),
        }
    }
}

/// A splitting criterion: attribute index plus predicate (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Index of the splitting attribute in the schema.
    pub attr: usize,
    /// The splitting predicate. Records matching it go to the left child.
    pub predicate: Predicate,
}

impl Split {
    /// Evaluate on a record, decoded or encoded: `true` routes left.
    #[inline]
    pub fn goes_left(&self, record: &impl Fields) -> bool {
        self.predicate.matches(record, self.attr)
    }
}

/// Node payload.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A leaf; predicts the majority class of its family.
    Leaf,
    /// An internal node with a split and two children.
    Internal {
        /// The splitting criterion.
        split: Split,
        /// Child for records satisfying the predicate.
        left: NodeId,
        /// Child for records not satisfying it.
        right: NodeId,
    },
}

/// One node of a decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Leaf or internal payload.
    pub kind: NodeKind,
    /// Exact per-class counts of the node's family `F_n`.
    pub class_counts: Vec<u64>,
    /// Depth (root = 0).
    pub depth: u32,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
}

impl Node {
    /// Family size `|F_n|`.
    pub fn n_records(&self) -> u64 {
        self.class_counts.iter().sum()
    }

    /// Majority class (ties break to the smaller class index).
    pub fn majority_label(&self) -> u16 {
        let mut best = 0usize;
        for (i, &c) in self.class_counts.iter().enumerate() {
            if c > self.class_counts[best] {
                best = i;
            }
        }
        best as u16
    }

    /// Whether all records at this node share one class.
    pub fn is_pure(&self) -> bool {
        self.class_counts.iter().filter(|&&c| c > 0).count() <= 1
    }

    /// The split, if internal.
    pub fn split(&self) -> Option<&Split> {
        match &self.kind {
            NodeKind::Internal { split, .. } => Some(split),
            NodeKind::Leaf => None,
        }
    }

    /// The children, if internal.
    pub fn children(&self) -> Option<(NodeId, NodeId)> {
        match self.kind {
            NodeKind::Internal { left, right, .. } => Some((left, right)),
            NodeKind::Leaf => None,
        }
    }

    /// Whether the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf)
    }
}

/// A binary decision tree.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Tree {
    /// A single-leaf tree with the given family class counts.
    pub fn leaf(class_counts: Vec<u64>) -> Tree {
        Tree {
            nodes: vec![Node {
                kind: NodeKind::Leaf,
                class_counts,
                depth: 0,
                parent: None,
            }],
            root: NodeId(0),
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Turn leaf `id` into an internal node with the given split and
    /// children family counts; returns `(left, right)` child ids.
    ///
    /// Panics if `id` is already internal.
    pub fn split_node(
        &mut self,
        id: NodeId,
        split: Split,
        left_counts: Vec<u64>,
        right_counts: Vec<u64>,
    ) -> (NodeId, NodeId) {
        assert!(self.node(id).is_leaf(), "split_node on an internal node");
        let depth = self.node(id).depth + 1;
        let left = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Leaf,
            class_counts: left_counts,
            depth,
            parent: Some(id),
        });
        let right = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Leaf,
            class_counts: right_counts,
            depth,
            parent: Some(id),
        });
        self.nodes[id.index()].kind = NodeKind::Internal { split, left, right };
        (left, right)
    }

    /// Replace the subtree rooted at `at` with a copy of `sub` (whose root
    /// family must describe the same records). The old descendants become
    /// unreachable; call [`Tree::compact`] to drop them.
    pub fn replace_subtree(&mut self, at: NodeId, sub: &Tree) {
        let base_depth = self.node(at).depth;
        let parent = self.node(at).parent;
        // Copy sub's reachable nodes, remapping ids.
        let ids = sub.preorder_ids();
        let mut remap = vec![NodeId(u32::MAX); sub.nodes.len()];
        for (i, &sid) in ids.iter().enumerate() {
            remap[sid.index()] = if i == 0 {
                at
            } else {
                NodeId((self.nodes.len() + i - 1) as u32)
            };
        }
        for (i, &sid) in ids.iter().enumerate() {
            let src = sub.node(sid);
            let kind = match src.kind {
                NodeKind::Leaf => NodeKind::Leaf,
                NodeKind::Internal { split, left, right } => NodeKind::Internal {
                    split,
                    left: remap[left.index()],
                    right: remap[right.index()],
                },
            };
            let node = Node {
                kind,
                class_counts: src.class_counts.clone(),
                depth: base_depth + src.depth,
                parent: if i == 0 {
                    parent
                } else {
                    Some(remap[sub.node(sid).parent.expect("non-root has parent").index()])
                },
            };
            if i == 0 {
                self.nodes[at.index()] = node;
            } else {
                self.nodes.push(node);
            }
        }
    }

    /// Drop unreachable arena entries (left behind by
    /// [`Tree::replace_subtree`]) and renumber nodes in preorder.
    pub fn compact(&mut self) {
        let ids = self.preorder_ids();
        let mut remap = vec![NodeId(u32::MAX); self.nodes.len()];
        for (i, &id) in ids.iter().enumerate() {
            remap[id.index()] = NodeId(i as u32);
        }
        let mut fresh = Vec::with_capacity(ids.len());
        for &id in &ids {
            let src = &self.nodes[id.index()];
            fresh.push(Node {
                kind: match src.kind {
                    NodeKind::Leaf => NodeKind::Leaf,
                    NodeKind::Internal { split, left, right } => NodeKind::Internal {
                        split,
                        left: remap[left.index()],
                        right: remap[right.index()],
                    },
                },
                class_counts: src.class_counts.clone(),
                depth: src.depth,
                parent: src.parent.map(|p| remap[p.index()]),
            });
        }
        self.nodes = fresh;
        self.root = NodeId(0);
    }

    /// Reachable node ids in preorder (root, left subtree, right subtree).
    pub fn preorder_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            if let NodeKind::Internal { left, right, .. } = self.node(id).kind {
                stack.push(right);
                stack.push(left);
            }
        }
        out
    }

    /// Number of reachable nodes.
    pub fn n_nodes(&self) -> usize {
        self.preorder_ids().len()
    }

    /// Number of reachable leaves.
    pub fn n_leaves(&self) -> usize {
        self.preorder_ids()
            .iter()
            .filter(|&&id| self.node(id).is_leaf())
            .count()
    }

    /// Maximum depth over reachable nodes (root-only tree = 0).
    pub fn max_depth(&self) -> u32 {
        self.preorder_ids()
            .iter()
            .map(|&id| self.node(id).depth)
            .max()
            .unwrap_or(0)
    }

    /// The child of internal node `id` that `record` routes to.
    #[inline]
    pub fn route(&self, id: NodeId, record: &Record) -> NodeId {
        match &self.node(id).kind {
            NodeKind::Internal { split, left, right } => {
                if split.goes_left(record) {
                    *left
                } else {
                    *right
                }
            }
            NodeKind::Leaf => panic!("route called on a leaf"),
        }
    }

    /// The leaf `record` falls into.
    pub fn leaf_for(&self, record: &Record) -> NodeId {
        let mut id = self.root;
        while !self.node(id).is_leaf() {
            id = self.route(id, record);
        }
        id
    }

    /// Predict the class label of `record`: route to a leaf and return its
    /// majority label (ties break to the smaller class index).
    ///
    /// Unlike training, prediction performs **no validation**: NaN numeric
    /// values route right at every numeric split, and category codes absent
    /// from a splitting subset (including codes never seen at training
    /// time) route right at every categorical split — see
    /// [`Predicate::matches`] for the pinned contract that every compiled
    /// or alternative inference path must replicate exactly.
    pub fn predict(&self, record: &Record) -> u16 {
        self.node(self.leaf_for(record)).majority_label()
    }

    /// Render an indented textual view of the tree.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        self.render_node(schema, self.root, 0, &mut out);
        out
    }

    fn render_node(&self, schema: &Schema, id: NodeId, indent: usize, out: &mut String) {
        let node = self.node(id);
        let pad = "  ".repeat(indent);
        match &node.kind {
            NodeKind::Leaf => {
                let _ = writeln!(
                    out,
                    "{pad}leaf: class {} {:?} (n={})",
                    node.majority_label(),
                    node.class_counts,
                    node.n_records()
                );
            }
            NodeKind::Internal { split, left, right } => {
                let name = schema.attribute(split.attr).name();
                let pred = match &split.predicate {
                    Predicate::NumLe(x) => format!("{name} <= {x}"),
                    Predicate::CatIn(set) => format!("{name} in {set}"),
                };
                let _ = writeln!(out, "{pad}{pred} (n={})", node.n_records());
                self.render_node(schema, *left, indent + 1, out);
                self.render_node(schema, *right, indent + 1, out);
            }
        }
    }
}

/// Logical equality: identical structure, splits and class counts, ignoring
/// arena layout. Numeric split points compare *exactly* (bitwise) — the
/// algorithms are required to agree to the bit.
impl PartialEq for Tree {
    fn eq(&self, other: &Self) -> bool {
        fn eq_rec(a: &Tree, ai: NodeId, b: &Tree, bi: NodeId) -> bool {
            let (na, nb) = (a.node(ai), b.node(bi));
            if na.class_counts != nb.class_counts {
                return false;
            }
            match (&na.kind, &nb.kind) {
                (NodeKind::Leaf, NodeKind::Leaf) => true,
                (
                    NodeKind::Internal {
                        split: sa,
                        left: la,
                        right: ra,
                    },
                    NodeKind::Internal {
                        split: sb,
                        left: lb,
                        right: rb,
                    },
                ) => {
                    let split_eq = sa.attr == sb.attr
                        && match (&sa.predicate, &sb.predicate) {
                            (Predicate::NumLe(x), Predicate::NumLe(y)) => {
                                x.to_bits() == y.to_bits()
                            }
                            (Predicate::CatIn(x), Predicate::CatIn(y)) => x == y,
                            _ => false,
                        };
                    split_eq && eq_rec(a, *la, b, *lb) && eq_rec(a, *ra, b, *rb)
                }
                _ => false,
            }
        }
        eq_rec(self, self.root, other, other.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_data::{Attribute, Field};

    fn schema() -> Schema {
        Schema::new(
            vec![Attribute::numeric("x"), Attribute::categorical("c", 4)],
            2,
        )
        .unwrap()
    }

    fn rec(x: f64, c: u32) -> Record {
        Record::new(vec![Field::Num(x), Field::Cat(c)], 0)
    }

    /// x <= 5 ? (c in {1,3} ? leaf0 : leaf1) : leaf1
    fn sample_tree() -> Tree {
        let mut t = Tree::leaf(vec![6, 4]);
        let (l, _r) = t.split_node(
            t.root(),
            Split {
                attr: 0,
                predicate: Predicate::NumLe(5.0),
            },
            vec![4, 2],
            vec![2, 2],
        );
        t.split_node(
            l,
            Split {
                attr: 1,
                predicate: Predicate::CatIn(CatSet::from_iter([1, 3])),
            },
            vec![4, 0],
            vec![0, 2],
        );
        t
    }

    #[test]
    fn split_node_builds_structure() {
        let t = sample_tree();
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.max_depth(), 2);
        let root = t.node(t.root());
        assert!(!root.is_leaf());
        assert_eq!(root.n_records(), 10);
        let (l, r) = root.children().unwrap();
        assert_eq!(t.node(l).depth, 1);
        assert_eq!(t.node(l).parent, Some(t.root()));
        assert!(t.node(r).is_leaf());
    }

    #[test]
    fn routing_and_prediction() {
        let t = sample_tree();
        // x=3 (left), c=1 (in subset) -> pure class 0 leaf
        assert_eq!(t.predict(&rec(3.0, 1)), 0);
        // x=3, c=0 (not in subset) -> pure class 1 leaf
        assert_eq!(t.predict(&rec(3.0, 0)), 1);
        // x=9 -> right leaf [2,2] -> tie breaks to class 0
        assert_eq!(t.predict(&rec(9.0, 1)), 0);
        // boundary: x = 5.0 goes left (X <= x).
        let leaf = t.leaf_for(&rec(5.0, 0));
        assert_eq!(t.node(leaf).class_counts, vec![0, 2]);
    }

    #[test]
    fn majority_label_tie_breaks_low() {
        let n = Node {
            kind: NodeKind::Leaf,
            class_counts: vec![3, 3, 1],
            depth: 0,
            parent: None,
        };
        assert_eq!(n.majority_label(), 0);
    }

    #[test]
    fn purity() {
        let mk = |counts: Vec<u64>| Node {
            kind: NodeKind::Leaf,
            class_counts: counts,
            depth: 0,
            parent: None,
        };
        assert!(mk(vec![5, 0]).is_pure());
        assert!(mk(vec![0, 0]).is_pure());
        assert!(!mk(vec![5, 1]).is_pure());
    }

    #[test]
    fn logical_equality_ignores_arena_layout() {
        let a = sample_tree();
        let mut b = sample_tree();
        // Force different arena layout in b via a replace + compact cycle.
        let sub = sample_tree();
        b.replace_subtree(b.root(), &sub);
        assert_eq!(a, b);
        b.compact();
        assert_eq!(a, b);
    }

    #[test]
    fn inequality_on_different_split_point() {
        let a = sample_tree();
        let mut b = Tree::leaf(vec![6, 4]);
        b.split_node(
            b.root(),
            Split {
                attr: 0,
                predicate: Predicate::NumLe(6.0),
            },
            vec![4, 2],
            vec![2, 2],
        );
        assert_ne!(a, b);
    }

    #[test]
    fn inequality_on_counts() {
        let a = Tree::leaf(vec![1, 2]);
        let b = Tree::leaf(vec![2, 1]);
        assert_ne!(a, b);
    }

    #[test]
    fn replace_subtree_grafts_and_fixes_depth() {
        let mut t = sample_tree();
        let (l, _) = t.node(t.root()).children().unwrap();
        // Replace the left internal node with a single leaf.
        let sub = Tree::leaf(vec![4, 2]);
        t.replace_subtree(l, &sub);
        assert_eq!(t.n_leaves(), 2);
        assert!(t.node(l).is_leaf());
        assert_eq!(t.node(l).depth, 1);
        // Graft a deeper subtree back.
        let mut sub2 = Tree::leaf(vec![4, 2]);
        sub2.split_node(
            sub2.root(),
            Split {
                attr: 0,
                predicate: Predicate::NumLe(1.0),
            },
            vec![1, 1],
            vec![3, 1],
        );
        t.replace_subtree(l, &sub2);
        assert_eq!(t.max_depth(), 2);
        let (ll, _) = t.node(l).children().unwrap();
        assert_eq!(t.node(ll).depth, 2);
        assert_eq!(t.node(ll).parent, Some(l));
    }

    #[test]
    fn compact_drops_garbage() {
        let mut t = sample_tree();
        let (l, _) = t.node(t.root()).children().unwrap();
        t.replace_subtree(l, &Tree::leaf(vec![4, 2]));
        assert!(t.nodes.len() > t.n_nodes(), "garbage before compact");
        let before = t.clone();
        t.compact();
        assert_eq!(t.nodes.len(), t.n_nodes());
        assert_eq!(t, before);
    }

    #[test]
    fn render_names_attributes() {
        let s = schema();
        let text = sample_tree().render(&s);
        assert!(text.contains("x <= 5"));
        assert!(text.contains("c in {1,3}"));
        assert!(text.contains("leaf: class"));
    }

    #[test]
    fn nan_routes_right_at_every_numeric_split() {
        // Pinned prediction-time contract: `NaN <= x` is false for every x,
        // so a NaN numeric attribute must fall through the *right* child of
        // every numeric split it meets.
        let t = sample_tree();
        // Root split is `x <= 5`; NaN must go right regardless of c.
        for c in [0u32, 1, 3] {
            let leaf = t.leaf_for(&rec(f64::NAN, c));
            assert_eq!(
                t.node(leaf).class_counts,
                vec![2, 2],
                "NaN must route right at the root numeric split"
            );
            // Right leaf [2,2] tie-breaks to class 0.
            assert_eq!(t.predict(&rec(f64::NAN, c)), 0);
        }
        // Infinities: -inf <= x always holds (left); +inf never (right).
        assert_eq!(
            t.node(t.leaf_for(&rec(f64::NEG_INFINITY, 0))).class_counts,
            vec![0, 2],
            "-inf routes left at the root, then c=0 is outside {{1,3}}"
        );
        assert_eq!(
            t.node(t.leaf_for(&rec(f64::INFINITY, 1))).class_counts,
            vec![2, 2]
        );
    }

    #[test]
    fn unseen_category_routes_right_at_categorical_splits() {
        // Pinned prediction-time contract: category codes outside the
        // splitting subset — including codes never observed at training
        // time — fail `X ∈ Y` and route right.
        let t = sample_tree(); // left child splits on c ∈ {1,3}, universe {0..4}
        for unseen in [2u32, 4, 63] {
            // schema says card 4, but predict doesn't validate: anything < 64
            let leaf = t.leaf_for(&rec(3.0, unseen));
            assert_eq!(
                t.node(leaf).class_counts,
                vec![0, 2],
                "code {unseen} is not in {{1,3}} and must route right"
            );
            assert_eq!(t.predict(&rec(3.0, unseen)), 1);
        }
    }

    #[test]
    fn predicate_tie_rank_orders_num_values() {
        let a = Predicate::NumLe(-1.0).tie_rank();
        let b = Predicate::NumLe(0.0).tie_rank();
        let c = Predicate::NumLe(2.0).tie_rank();
        assert!(a < b && b < c);
    }
}
