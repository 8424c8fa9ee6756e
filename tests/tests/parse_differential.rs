//! Differential suite for the XML parse path.
//!
//! Production [`parse_document`] is a driver over the streaming tokenizer
//! (`XmlStreamReader`). This suite pins it to the byte-at-a-time reference
//! parser kept in `integration_tests::xml_oracle`: on every input both must
//! return the same tree — compared as snapshot bytes, so labels, node ids,
//! child order and text all count — or the same [`ParseError`], offsets
//! included. Inputs: the generated corpora of every domain and shape
//! (compact and pretty-printed), escaping-heavy texts, every prefix of a
//! small document that uses every construct of the accepted subset, every
//! single-byte substitution of it, and seeded random token soup.

use integration_tests::fuzz::splitmix;
use integration_tests::standard_hospital_document;
use integration_tests::xml_oracle::oracle_parse_document;
use smoqe_toxgene::all_domains;
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_xml::{parse_document, snapshot, to_xml_string, to_xml_string_pretty};

/// Asserts production ≡ oracle on `input`.
fn assert_same_parse(input: &str) {
    match (parse_document(input), oracle_parse_document(input)) {
        (Ok(tree), Ok(oracle)) => assert!(
            snapshot::save(&tree) == snapshot::save(&oracle),
            "trees differ on {input:?}"
        ),
        (Err(e), Err(oracle)) => assert_eq!(e, oracle, "errors differ on {input:?}"),
        (got, want) => panic!(
            "outcomes differ on {input:?}: production {:?}, oracle {:?}",
            got.map(|t| t.len()),
            want.map(|t| t.len())
        ),
    }
}

/// A small document using every construct the tokenizer accepts or skips:
/// declaration, DOCTYPE, comments (including the degenerate `<!-->`),
/// processing instructions, attributes with `>` and quotes inside, self-
/// closing tags, entities, a comment splitting an entity, mixed content,
/// multibyte text and whitespace-only runs.
const SMALL: &str = "<?xml version=\"1.0\"?>\n<!DOCTYPE r>\n<!-- head -->\
<r id=\"1\" note='a>b'><a k=\"v\">x &amp; y</a>\n  <b/><c>a&am<!-- split -->p;b</c>\
<d>t<!-->u</d><e>caf\u{e9} &lt;&gt;<?pi data?></e><f>x<g/>y</f><h> </h></r>\n<!-- tail -->";

#[test]
fn parse_matches_the_oracle_on_every_domain_and_shape() {
    for domain in all_domains() {
        for &shape in domain.shapes {
            let doc = domain.generate(shape, 1, STANDARD_SEED);
            assert_same_parse(&to_xml_string(&doc));
            assert_same_parse(&to_xml_string_pretty(&doc));
        }
    }
    let hospital = standard_hospital_document();
    assert_same_parse(&to_xml_string(&hospital));
    assert_same_parse(&to_xml_string_pretty(&hospital));
}

#[test]
fn parse_matches_the_oracle_on_escaping_heavy_text() {
    const FRAGMENTS: &[&str] = &[
        "x",
        "&",
        "&&",
        "&amp;",
        "&lt;",
        "&gt;",
        "&quot;",
        "&apos;",
        "a&am",
        "p;b",
        "&amp",
        "amp;",
        ">",
        "\"",
        "'",
        "]]>",
        "line\nbreak",
        "dos\r\nline",
        "\ttab",
        " ",
        "\u{a0}",
        "caf\u{e9}",
        "<!-- c -->",
        "<?pi?>",
    ];
    let mut state = 0x5eed_u64;
    for _ in 0..2_000 {
        let mut text = String::new();
        for _ in 0..(splitmix(&mut state) % 6) {
            text.push_str(FRAGMENTS[(splitmix(&mut state) % FRAGMENTS.len() as u64) as usize]);
        }
        assert_same_parse(&format!("<r><a>{text}</a><b>{text}<c/>{text}</b></r>"));
    }
}

#[test]
fn parse_matches_the_oracle_on_every_prefix() {
    assert!(parse_document(SMALL).is_ok(), "the base document parses");
    for (end, _) in SMALL.char_indices().chain([(SMALL.len(), ' ')]) {
        assert_same_parse(&SMALL[..end]);
    }
}

#[test]
fn parse_matches_the_oracle_on_every_single_byte_substitution() {
    const BYTES: &[u8] = b"<>/!?-&;\"' \nax\x80";
    let mut checked = 0;
    for i in 0..SMALL.len() {
        for &b in BYTES {
            let mut bytes = SMALL.as_bytes().to_vec();
            if bytes[i] == b {
                continue;
            }
            bytes[i] = b;
            if let Ok(input) = String::from_utf8(bytes) {
                assert_same_parse(&input);
                checked += 1;
            }
        }
    }
    assert!(
        checked > 2_000,
        "only {checked} substitutions were valid UTF-8"
    );
}

#[test]
fn parse_matches_the_oracle_on_random_token_soup() {
    const TOKENS: &[&str] = &[
        "<", ">", "/", "a", "b", "x", " ", "!", "-", "?", "&amp;", "&", "\"", "'", "<a>", "</a>",
        "<b/>", "<!--", "-->", "<?", "?>", "\u{e9}", "\u{a0}",
    ];
    let mut state = 7_u64;
    for _ in 0..50_000 {
        let mut input = String::new();
        for _ in 0..(splitmix(&mut state) % 12) {
            input.push_str(TOKENS[(splitmix(&mut state) % TOKENS.len() as u64) as usize]);
        }
        assert_same_parse(&input);
    }
}
