//! Tree-at-once parsing of the XML subset used by the paper.
//!
//! [`parse_document`] drives the crate's one tokenizer,
//! [`XmlStreamReader`], and builds an arena tree from its events, so a
//! document parses if and only if it streams, with the same errors at the
//! same offsets and the same text rules (see [`crate::stream`] for the
//! accepted subset). The rewriting and evaluation algorithms only need a
//! node-labelled tree with PCDATA leaves, so this subset is sufficient and
//! keeps the substrate dependency-free.

use crate::error::ParseError;
use crate::stream::{EventSource, XmlEvent, XmlStreamReader};
use crate::tree::{NodeId, XmlTree, XmlTreeBuilder};

/// Parses an XML document string into an [`XmlTree`]. Node ids are
/// assigned in document (pre-)order.
///
/// ```
/// let tree = smoqe_xml::parse_document(
///     "<hospital><department><patient><pname>Alice</pname></patient></department></hospital>",
/// ).unwrap();
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.label_name(tree.root()), "hospital");
/// ```
pub fn parse_document(input: &str) -> Result<XmlTree, ParseError> {
    let mut reader = XmlStreamReader::new(input.as_bytes());
    let mut builder = XmlTreeBuilder::new();
    let mut open: Vec<NodeId> = Vec::new();
    while let Some(event) = reader.next_event()? {
        match event {
            XmlEvent::Open(name) => {
                let node = match open.last() {
                    Some(&parent) => builder.child(parent, name),
                    None => builder.root(name),
                };
                open.push(node);
            }
            // The reader emits an element's text just before its close.
            XmlEvent::Text(text) => {
                builder.set_text(*open.last().expect("text inside an element"), text)
            }
            XmlEvent::Close => {
                open.pop();
            }
        }
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements_and_text() {
        let t = parse_document(
            "<hospital><department><patient><pname>Alice</pname><visit><date>2007-01-01</date></visit></patient></department></hospital>",
        )
        .unwrap();
        assert_eq!(t.len(), 6);
        t.check_consistency().unwrap();
        let pname = t
            .node_ids()
            .find(|&n| t.label_name(n) == "pname")
            .unwrap();
        assert_eq!(t.text(pname), Some("Alice"));
    }

    #[test]
    fn skips_xml_declaration_and_comments() {
        let t = parse_document(
            "<?xml version=\"1.0\"?><!-- generated --><root><a/><!-- mid --><b>x</b></root>",
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.children(t.root()).len(), 2);
    }

    #[test]
    fn self_closing_tags() {
        let t = parse_document("<r><empty/><empty/></r>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
        for &c in t.children(t.root()) {
            assert!(t.children(c).is_empty());
            assert_eq!(t.text(c), None);
        }
    }

    #[test]
    fn attributes_are_skipped() {
        let t = parse_document("<r id=\"1\" lang='en'><a key=\"v>alue\">t</a></r>").unwrap();
        assert_eq!(t.len(), 2);
        let a = t.children(t.root())[0];
        assert_eq!(t.text(a), Some("t"));
    }

    #[test]
    fn entities_are_unescaped() {
        let t = parse_document("<r><d>heart &amp; lung &lt;disease&gt;</d></r>").unwrap();
        let d = t.children(t.root())[0];
        assert_eq!(t.text(d), Some("heart & lung <disease>"));
    }

    #[test]
    fn mismatched_tag_is_an_error() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, ParseError::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_is_an_error() {
        assert_eq!(parse_document("<a><b>").unwrap_err(), ParseError::UnexpectedEof);
    }

    #[test]
    fn empty_document_is_an_error() {
        assert_eq!(parse_document("   ").unwrap_err(), ParseError::EmptyDocument);
        assert_eq!(
            parse_document("<!-- only a comment -->").unwrap_err(),
            ParseError::EmptyDocument
        );
    }

    #[test]
    fn trailing_root_is_an_error() {
        assert!(matches!(
            parse_document("<a></a><b></b>").unwrap_err(),
            ParseError::TrailingContent(_)
        ));
    }

    #[test]
    fn whitespace_between_elements_is_ignored() {
        let t = parse_document("<r>\n  <a>1</a>\n  <b>2</b>\n</r>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
    }

    #[test]
    fn unescape_handles_all_entities() {
        let unescape = |s: &str| {
            let mut out = String::new();
            crate::stream::unescape_into(&mut out, s);
            out
        };
        assert_eq!(unescape("&lt;&gt;&amp;&quot;&apos;"), "<>&\"'");
        assert_eq!(unescape("no entities"), "no entities");
        assert_eq!(unescape("lone & ampersand"), "lone & ampersand");
        assert_eq!(unescape("&amp;amp; &am"), "&amp; &am");
    }
}
