//! A byte-at-a-time reference parser for `smoqe_xml`'s XML subset, kept
//! in the test crate as an oracle.
//!
//! [`oracle_parse_document`] walks the input one byte at a time and builds
//! the tree directly, with none of the production reader's buffering, word
//! scanning or borrowing. The differential suite
//! (`tests/parse_differential.rs`) requires production
//! [`smoqe_xml::parse_document`] — a driver over the streaming tokenizer —
//! to return the same tree (identical snapshot bytes) or the same
//! [`ParseError`] on every input, which keeps the reader ≡ parser property
//! tests meaningful although both production paths share one tokenizer.

use smoqe_xml::{NodeId, ParseError, XmlTree, XmlTreeBuilder};

/// Parses `input` with the reference parser.
pub fn oracle_parse_document(input: &str) -> Result<XmlTree, ParseError> {
    Parser::new(input).parse()
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    builder: XmlTreeBuilder,
    /// Stack of currently open elements.
    open: Vec<(NodeId, String)>,
    /// Pending text for the innermost open element.
    text_buf: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            builder: XmlTreeBuilder::new(),
            open: Vec::new(),
            text_buf: String::new(),
        }
    }

    fn parse(mut self) -> Result<XmlTree, ParseError> {
        let mut root_seen = false;
        let mut root_closed = false;
        while self.pos < self.input.len() {
            if self.peek() == Some(b'<') {
                match self.input.get(self.pos + 1) {
                    Some(b'?') => self.skip_until("?>")?,
                    Some(b'!') => self.skip_markup_declaration()?,
                    Some(b'/') => {
                        self.close_tag()?;
                        if self.open.is_empty() {
                            root_closed = true;
                        }
                    }
                    _ => {
                        if root_closed {
                            return Err(ParseError::TrailingContent(self.pos));
                        }
                        self.open_tag(&mut root_seen)?;
                        if self.open.is_empty() {
                            // self-closing root
                            root_closed = true;
                        }
                    }
                }
            } else {
                self.text()?;
                if root_closed && !self.text_buf.trim().is_empty() {
                    return Err(ParseError::TrailingContent(self.pos));
                }
                if self.open.is_empty() {
                    self.text_buf.clear();
                }
            }
        }
        if !self.open.is_empty() {
            return Err(ParseError::UnexpectedEof);
        }
        if !root_seen {
            return Err(ParseError::EmptyDocument);
        }
        Ok(self.builder.finish())
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_until(&mut self, pat: &str) -> Result<(), ParseError> {
        let bytes = pat.as_bytes();
        let mut i = self.pos;
        while i + bytes.len() <= self.input.len() {
            if &self.input[i..i + bytes.len()] == bytes {
                self.pos = i + bytes.len();
                return Ok(());
            }
            i += 1;
        }
        Err(ParseError::UnexpectedEof)
    }

    fn skip_markup_declaration(&mut self) -> Result<(), ParseError> {
        // `<!-- ... -->` comment or `<!DOCTYPE ...>` (without internal subset).
        if self.input[self.pos..].starts_with(b"<!--") {
            self.skip_until("-->")
        } else {
            self.skip_until(">")
        }
    }

    fn read_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(ParseError::Syntax {
                offset: start,
                message: "expected an element name".to_owned(),
            });
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn open_tag(&mut self, root_seen: &mut bool) -> Result<(), ParseError> {
        self.flush_text();
        self.pos += 1; // consume '<'
        let name = self.read_name()?;
        // Skip attributes up to '>' or '/>'.
        let mut self_closing = false;
        loop {
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') if self.input.get(self.pos + 1) == Some(&b'>') => {
                    self.pos += 2;
                    self_closing = true;
                    break;
                }
                Some(b'"') | Some(b'\'') => {
                    let quote = self.peek().unwrap();
                    self.pos += 1;
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == quote {
                            break;
                        }
                    }
                }
                Some(_) => self.pos += 1,
                None => return Err(ParseError::UnexpectedEof),
            }
        }
        let node = if let Some(&(parent, _)) = self.open.last() {
            self.builder.child(parent, &name)
        } else {
            if *root_seen {
                return Err(ParseError::TrailingContent(self.pos));
            }
            *root_seen = true;
            self.builder.root(&name)
        };
        if !self_closing {
            self.open.push((node, name));
        }
        Ok(())
    }

    fn close_tag(&mut self) -> Result<(), ParseError> {
        let offset = self.pos;
        self.pos += 2; // consume "</"
        let name = self.read_name()?;
        if self.peek() != Some(b'>') {
            return Err(ParseError::Syntax {
                offset: self.pos,
                message: "expected '>' after closing tag name".to_owned(),
            });
        }
        self.pos += 1;
        let (node, open_name) = self.open.pop().ok_or(ParseError::Syntax {
            offset,
            message: "closing tag with no open element".to_owned(),
        })?;
        if open_name != name {
            return Err(ParseError::MismatchedTag {
                expected: open_name,
                found: name,
                offset,
            });
        }
        let text = std::mem::take(&mut self.text_buf);
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            self.builder.set_text(node, trimmed);
        }
        Ok(())
    }

    fn flush_text(&mut self) {
        // Text interleaved before a child element is attached to the parent
        // only if the parent ends up childless; for the paper's DTD normal
        // form (text only on leaf elements), simply clearing is correct.
        self.text_buf.clear();
    }

    fn text(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.input[start..self.pos]);
        self.text_buf.push_str(&unescape(&raw));
        Ok(())
    }
}

/// Replaces the five predefined XML entities by their characters.
fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_owned();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let (replacement, consumed) = if rest.starts_with("&lt;") {
            ('<', 4)
        } else if rest.starts_with("&gt;") {
            ('>', 4)
        } else if rest.starts_with("&amp;") {
            ('&', 5)
        } else if rest.starts_with("&quot;") {
            ('"', 6)
        } else if rest.starts_with("&apos;") {
            ('\'', 6)
        } else {
            ('&', 1)
        };
        out.push(replacement);
        rest = &rest[consumed..];
    }
    out.push_str(rest);
    out
}
