//! Interned element labels (tags).
//!
//! Automaton transitions and DTD productions compare labels billions of
//! times during evaluation; interning labels to dense `u32` ids makes those
//! comparisons integer comparisons and allows label-indexed tables.

use std::collections::HashMap;
use std::fmt;

use crate::fingerprint::{fingerprint_field, FINGERPRINT_SEED};

/// A dense identifier for an interned element label (tag name).
///
/// Ids are assigned consecutively starting from zero by a [`LabelInterner`],
/// so they can be used directly as indices into per-label tables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

impl LabelId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A bidirectional map between label strings and [`LabelId`]s.
///
/// The interner is shared by a document tree, its DTD, the queries posed on
/// it and the automata compiled from those queries, so that the same tag
/// always maps to the same id.
///
/// It also carries the fingerprint of its own layout ([`Self::fingerprint`]),
/// folded in as names are first interned, so the reachability-index cache
/// key of a document costs nothing to read.
#[derive(Debug, Clone)]
pub struct LabelInterner {
    by_name: HashMap<String, LabelId>,
    names: Vec<String>,
    fingerprint: u64,
}

impl Default for LabelInterner {
    fn default() -> Self {
        LabelInterner {
            by_name: HashMap::new(),
            names: Vec::new(),
            fingerprint: FINGERPRINT_SEED,
        }
    }
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Re-interning an existing name
    /// returns the previously assigned id.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        self.fingerprint = fingerprint_field(self.fingerprint, name.as_bytes());
        id
    }

    /// The stable fingerprint of this interner's layout: every name folded
    /// in id order. Interning only appends, so the value is maintained
    /// incrementally and always equals the full rescan
    /// [`crate::labels_fingerprint`]:
    ///
    /// ```
    /// use smoqe_xml::{labels_fingerprint, LabelInterner};
    ///
    /// let mut labels = LabelInterner::new();
    /// labels.intern("hospital");
    /// let before = labels.fingerprint();
    /// labels.intern("patient");
    /// labels.intern("ward");
    /// assert_ne!(labels.fingerprint(), before);
    /// assert_eq!(labels.fingerprint(), labels_fingerprint(&labels));
    /// ```
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Looks up an already-interned name without inserting it.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all `(id, name)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (LabelId(i as u32), n.as_str()))
    }

    /// Returns all label ids interned so far.
    pub fn all_ids(&self) -> Vec<LabelId> {
        (0..self.names.len() as u32).map(LabelId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("patient");
        let b = interner.intern("doctor");
        let a2 = interner.intern("patient");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn name_round_trips() {
        let mut interner = LabelInterner::new();
        let id = interner.intern("hospital");
        assert_eq!(interner.name(id), "hospital");
        assert_eq!(interner.get("hospital"), Some(id));
        assert_eq!(interner.get("missing"), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut interner = LabelInterner::new();
        let ids: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| interner.intern(n))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert_eq!(interner.all_ids(), ids);
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut interner = LabelInterner::new();
        interner.intern("x");
        interner.intern("y");
        let collected: Vec<_> = interner.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(collected, vec!["x", "y"]);
    }

    #[test]
    fn cached_fingerprint_follows_edits_that_add_labels() {
        let mut tree = crate::parse_document("<r><a/></r>").unwrap();
        let before = tree.labels().fingerprint();
        // Known labels only: the fingerprint does not move.
        let known = crate::parse_document("<a/>").unwrap();
        tree.insert_subtree(tree.root(), 0, &known).unwrap();
        assert_eq!(tree.labels().fingerprint(), before);
        // New labels: it advances, and still equals the rescan.
        let grown = crate::parse_document("<b><c/></b>").unwrap();
        tree.insert_subtree(tree.root(), 0, &grown).unwrap();
        assert_ne!(tree.labels().fingerprint(), before);
        assert_eq!(
            tree.labels().fingerprint(),
            crate::labels_fingerprint(tree.labels())
        );
    }

    #[test]
    fn empty_interner() {
        let interner = LabelInterner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.len(), 0);
    }
}
