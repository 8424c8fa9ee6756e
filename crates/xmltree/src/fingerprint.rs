//! Stable, canonical fingerprints shared by every cache-key scheme in the
//! workspace.
//!
//! Three layers build on one another and **must never drift apart** — they
//! all feed the same caches and snapshot headers:
//!
//! * [`fingerprint_field`] — the FNV-1a field-folding primitive. Every
//!   fingerprint in the workspace is a fold of length-delimited fields
//!   through this function, starting from [`FINGERPRINT_SEED`].
//! * [`labels_fingerprint`] — the canonical fingerprint of a document's
//!   [`LabelInterner`] layout, maintained incrementally by
//!   [`LabelInterner::fingerprint`]. It keys the query service's
//!   reachability-index cache and is stored verbatim in every snapshot
//!   header ([`crate::snapshot`]), so an index cached for a parsed document
//!   is found again for the snapshot-loaded copy of the same document.
//! * [`fingerprint_content_model`] — the canonical encoder for DTD
//!   productions, used by `ViewDefinition::fingerprint` in `smoqe_views`.
//!   It replaces the former `format!("{model:?}")` folding: `Debug` output
//!   is not a serialization contract and can drift across refactors,
//!   silently invalidating (or worse, aliasing) compiled-query cache keys.
//!   The encoding here is explicit and versioned by construction — a
//!   structural tag byte per variant, a length-delimited field per name —
//!   and locked by a golden-value test in `smoqe_views`.
//!
//! All fingerprints are stable across runs and builds of the same format
//! version: they never touch [`std::hash::Hash`] (whose output is
//! unspecified) or any randomized hasher state.

use crate::dtd::ContentModel;
use crate::label::LabelInterner;

/// The FNV-1a offset basis, the starting value for every stable fingerprint
/// in the workspace (see [`fingerprint_field`]).
pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds one length-delimited field into a stable FNV-1a fingerprint:
/// hashes `bytes`, then a `\x1f` unit separator so adjacent fields cannot
/// alias (`"ab" + "c"` vs `"a" + "bc"`).
pub fn fingerprint_field(h: u64, bytes: &[u8]) -> u64 {
    let h = bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME));
    (h ^ 0x1f).wrapping_mul(FNV_PRIME)
}

/// Folds a single structural tag byte (variant discriminants, counts,
/// flags) into a fingerprint. Tags deliberately use the same separator
/// discipline as [`fingerprint_field`] so a tag can never alias a field
/// boundary.
fn fingerprint_tag(h: u64, tag: u8) -> u64 {
    fingerprint_field(h, &[tag])
}

/// The canonical fingerprint of a document's label-interner layout: every
/// label name folded in id order (insertion order), starting from
/// [`FINGERPRINT_SEED`].
///
/// This is the full-rescan definition. [`LabelInterner::fingerprint`]
/// maintains the same fold incrementally as names are interned and is what
/// production code reads; this function is the oracle the tests check it
/// against.
///
/// Reachability indexes map `LabelId → row`, so two documents may share an
/// index exactly when their interners assign the same names in the same
/// order — which is exactly when their `labels_fingerprint` agrees. The
/// same value is stored in every snapshot header, so document identity
/// survives a save/load round-trip:
///
/// ```
/// use smoqe_xml::{labels_fingerprint, parse_document, snapshot};
///
/// let tree = parse_document("<r><a/></r>").unwrap();
/// let bytes = snapshot::save(&tree);
/// let header = snapshot::peek_header(&bytes).unwrap();
/// assert_eq!(header.labels_fingerprint, labels_fingerprint(tree.labels()));
/// ```
pub fn labels_fingerprint(labels: &LabelInterner) -> u64 {
    let mut h = FINGERPRINT_SEED;
    for (_, name) in labels.iter() {
        h = fingerprint_field(h, name.as_bytes());
    }
    h
}

/// Folds a DTD production into a fingerprint using an explicit canonical
/// encoding (never `Debug` output):
///
/// * `str` → tag `0`,
/// * `ε` → tag `1`,
/// * `B1, …, Bn` → tag `2`, then per child a starred flag tag (`0`/`1`)
///   and the type name as a field,
/// * `B1 + … + Bn` → tag `3`, then each option name as a field.
///
/// Every name is length-delimited by [`fingerprint_field`], so
/// `Sequence([ab, c])` cannot alias `Sequence([a, bc])`, and the leading
/// variant tag keeps `Sequence([a])` and `Choice([a])` apart.
pub fn fingerprint_content_model(h: u64, model: &ContentModel) -> u64 {
    match model {
        ContentModel::Text => fingerprint_tag(h, 0),
        ContentModel::Empty => fingerprint_tag(h, 1),
        ContentModel::Sequence(children) => {
            let mut h = fingerprint_tag(h, 2);
            for child in children {
                h = fingerprint_tag(h, u8::from(child.starred));
                h = fingerprint_field(h, child.ty.as_bytes());
            }
            h
        }
        ContentModel::Choice(options) => {
            let mut h = fingerprint_tag(h, 3);
            for option in options {
                h = fingerprint_field(h, option.as_bytes());
            }
            h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::Child;

    #[test]
    fn field_folding_separates_boundaries() {
        let a = fingerprint_field(fingerprint_field(FINGERPRINT_SEED, b"ab"), b"c");
        let b = fingerprint_field(fingerprint_field(FINGERPRINT_SEED, b"a"), b"bc");
        assert_ne!(a, b, "field boundaries must not alias");
    }

    #[test]
    fn labels_fingerprint_depends_on_names_and_order() {
        let mut a = LabelInterner::new();
        a.intern("x");
        a.intern("y");
        let mut b = LabelInterner::new();
        b.intern("y");
        b.intern("x");
        assert_ne!(labels_fingerprint(&a), labels_fingerprint(&b));

        let mut c = LabelInterner::new();
        c.intern("x");
        c.intern("y");
        assert_eq!(labels_fingerprint(&a), labels_fingerprint(&c));
        assert_eq!(
            labels_fingerprint(&LabelInterner::new()),
            FINGERPRINT_SEED,
            "the empty interner fingerprints to the bare seed"
        );
    }

    #[test]
    fn content_models_with_equal_debug_skeletons_do_not_alias() {
        // The shapes the old Debug-based folding was most at risk of
        // conflating: same names, different structure.
        let shapes = [
            ContentModel::Text,
            ContentModel::Empty,
            ContentModel::Sequence(vec![Child::one("a")]),
            ContentModel::Sequence(vec![Child::star("a")]),
            ContentModel::Sequence(vec![Child::one("a"), Child::one("b")]),
            ContentModel::Sequence(vec![Child::one("ab")]),
            ContentModel::Choice(vec!["a".to_owned(), "b".to_owned()]),
            ContentModel::Choice(vec!["ab".to_owned()]),
            ContentModel::Choice(vec!["b".to_owned(), "a".to_owned()]),
        ];
        let prints: Vec<u64> = shapes
            .iter()
            .map(|m| fingerprint_content_model(FINGERPRINT_SEED, m))
            .collect();
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(prints[i], prints[j], "{:?} aliases {:?}", shapes[i], shapes[j]);
            }
        }
    }

    #[test]
    fn incremental_fingerprint_matches_full_rescan() {
        let mut labels = LabelInterner::new();
        for name in ["hospital", "department", "patient"] {
            labels.intern(name);
        }
        let prev = labels.fingerprint();
        assert_eq!(prev, labels_fingerprint(&labels));
        // No growth: the fingerprint is unchanged.
        labels.intern("patient");
        assert_eq!(labels.fingerprint(), prev);
        for name in ["ward", "treatment"] {
            labels.intern(name);
        }
        assert_ne!(labels.fingerprint(), prev);
        assert_eq!(labels.fingerprint(), labels_fingerprint(&labels));
    }

    #[test]
    fn content_model_encoding_is_deterministic() {
        let m = ContentModel::Sequence(vec![Child::one("a"), Child::star("b")]);
        assert_eq!(
            fingerprint_content_model(FINGERPRINT_SEED, &m),
            fingerprint_content_model(FINGERPRINT_SEED, &m.clone()),
        );
    }
}
