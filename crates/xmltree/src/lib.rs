//! # smoqe-xml
//!
//! The XML substrate of SMOQE-RS: an arena-based XML tree model, a label
//! interner, a small XML parser/serializer, and the DTD model of
//! *Rewriting Regular XPath Queries on XML Views* (Fan et al., ICDE 2007),
//! Section 2.2.
//!
//! The paper works on node-labelled ordered trees where certain element
//! types carry a single PCDATA (text) child. We model documents as an
//! arena of element nodes ([`XmlTree`]); each node stores its interned
//! label, its parent, its ordered children, and an optional text value
//! (the PCDATA child collapsed onto the element).
//!
//! DTDs follow the paper's normal form `(Ele, P, r)` where each production
//! `P(A)` is one of `str`, `ε`, a concatenation `B1, …, Bn` (each `Bi`
//! possibly starred), or a disjunction `B1 + … + Bn` ([`Dtd`],
//! [`ContentModel`]).
//!
//! The crate also ships the running example of the paper: the recursive
//! *hospital* document DTD of Fig. 1(a) and the *view* DTD of Fig. 1(b)
//! ([`hospital`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domains;
pub mod dtd;
pub mod dtd_parse;
pub mod edit;
pub mod error;
pub mod fingerprint;
pub mod hospital;
pub mod label;
pub mod parse;
pub mod serialize;
pub mod snapshot;
pub mod stream;
pub mod tree;

pub use dtd::{Child, ContentModel, Dtd, DtdGraph};
pub use dtd_parse::{parse_dtd, parse_dtd_with_root, to_dtd_string};
pub use edit::{EditOp, EditScript};
pub use error::{ParseError, XmlError};
pub use fingerprint::{
    fingerprint_content_model, fingerprint_field, labels_fingerprint, FINGERPRINT_SEED,
};
pub use label::{LabelId, LabelInterner};
pub use parse::parse_document;
pub use serialize::{to_xml_string, to_xml_string_pretty};
pub use snapshot::{DeltaTail, SnapshotError, SnapshotHeader};
pub use stream::{EventSource, TreeEvents, XmlEvent, XmlStreamReader};
pub use tree::{node_allocations, NodeId, XmlTree, XmlTreeBuilder};
