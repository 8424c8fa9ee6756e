//! Streaming (SAX-style) XML parse events — the crate's one XML tokenizer.
//!
//! The arena model in [`crate::tree`] requires the whole document in memory
//! before evaluation can start. HyPE, however, answers a query in a *single
//! top-down pass* (paper §6) and therefore never needs random access — the
//! only state it keeps is per-depth. This module supplies the matching
//! substrate: a pull-based event reader that parses XML **incrementally from
//! any [`Read`] source without allocating an arena tree**, plus an adapter
//! that replays an already-built [`XmlTree`] as the same event sequence, so
//! a consumer written against [`EventSource`] runs unchanged on both.
//! [`crate::parse_document`] is a thin driver that feeds this reader's
//! events into an [`crate::XmlTreeBuilder`], so the tree path and the
//! streaming path share one tokenizer and accept exactly the same inputs
//! with the same errors.
//!
//! The event vocabulary is deliberately tiny:
//!
//! * [`XmlEvent::Open`] — an element started (`<name>` or `<name/>`),
//! * [`XmlEvent::Text`] — a trimmed, entity-unescaped, non-empty PCDATA run,
//! * [`XmlEvent::Close`] — the innermost open element ended.
//!
//! The accepted subset: attributes skipped, comments/PIs/`<!DOCTYPE …>`
//! skipped, five predefined entities, no namespaces or CDATA. Text rules:
//! a run interrupted by comments or processing instructions is accumulated
//! into one event, each fragment between markup is converted (lossy UTF-8)
//! and unescaped on its own, and text is **attached at close** — a run
//! followed by a child element's open tag is dropped, so each element
//! yields at most one [`XmlEvent::Text`], the run immediately preceding its
//! close tag. Text before the root is ignored; the first non-blank text
//! fragment after it is a [`ParseError::TrailingContent`] at the end of that
//! fragment. Note the one sequencing difference between the two sources:
//! the reader emits an element's text just before `Close`, while
//! [`TreeEvents`] emits a node's stored text right after its `Open`;
//! consumers that track "the element's text" per open element (as
//! `smoqe_hype::stream` does) are agnostic to the position.
//!
//! # How the reader works
//!
//! It scans slices of one input buffer instead of pulling bytes one at a
//! time: `<` and `>` are found eight bytes per step (SWAR), element names
//! and single entity-free, valid UTF-8 text fragments are borrowed from the
//! buffer, and only text that needs unescaping, lossy conversion or joining
//! across comments goes through one reused `String`. Reads land in the
//! buffer's free tail; a token straddling its end is scanned again once more
//! input arrived. Memory is O(depth) — open-element names back to back in
//! one byte arena, one offset each — plus the 32 KiB buffer, which grows
//! only while a single text fragment or tag is longer (comments are skipped
//! without being held). Draining the 37,074-node, 0.8 MB hospital document
//! makes 9 heap allocations and takes 2.2 ms (about 360 MB/s) on a 2-vCPU
//! cloud VM; the byte-at-a-time reader this one replaced made 167,520 and
//! took 8.2 ms (98 MB/s).

use std::io::{ErrorKind, Read};
use std::ops::Range;

use crate::error::ParseError;
use crate::tree::{NodeId, XmlTree};

/// One event of a streamed XML parse.
///
/// Borrowed from the event source's internal buffers; consume it before
/// pulling the next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// An element opened: `<name>`, or the opening half of `<name/>`.
    Open(&'a str),
    /// A PCDATA run — entity-unescaped and trimmed; never empty.
    Text(&'a str),
    /// The innermost open element closed: `</name>`, or the closing half of
    /// a self-closing tag.
    Close,
}

/// A pull-based source of [`XmlEvent`]s.
///
/// Implemented by [`XmlStreamReader`] (incremental parse of raw XML) and
/// [`TreeEvents`] (replay of an existing [`XmlTree`]); `smoqe_hype`'s
/// streaming evaluator is written against this trait so both paths share
/// one consumer.
pub trait EventSource {
    /// Returns the next event, or `Ok(None)` once the document is complete.
    ///
    /// After `Ok(None)` or an error, further calls may return anything;
    /// sources are single-shot.
    fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>, ParseError>;
}

// ---------------------------------------------------------------------------
// Incremental reader over any `Read`.
// ---------------------------------------------------------------------------

/// Initial size of the input buffer (it grows only to hold a single token
/// longer than this).
const BUFFER: usize = 32 * 1024;

/// An incremental XML parser producing [`XmlEvent`]s from any [`Read`]
/// source — a file, a socket, stdin, or an in-memory slice — using **O(depth)
/// memory**: a bounded input buffer plus one tag name per open element. No
/// arena nodes are ever allocated (see [`crate::tree::node_allocations`]).
///
/// ```
/// use smoqe_xml::stream::{EventSource, XmlEvent, XmlStreamReader};
///
/// let xml = "<r><a>hi</a><b/></r>";
/// let mut reader = XmlStreamReader::new(xml.as_bytes());
/// let mut opens = 0;
/// while let Some(event) = reader.next_event().unwrap() {
///     if let XmlEvent::Open(_) = event {
///         opens += 1;
///     }
/// }
/// assert_eq!(opens, 3);
/// ```
#[derive(Debug)]
pub struct XmlStreamReader<R> {
    reader: R,
    /// `buf[pos..end]` is buffered, unconsumed input; reads land in
    /// `buf[end..]`.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Bytes discarded before `buf[0]` (for error offsets).
    discarded: usize,
    eof: bool,
    /// Names of the open elements, back to back.
    names: Vec<u8>,
    /// Where each open element's name starts in `names`.
    open: Vec<usize>,
    root_seen: bool,
    root_closed: bool,
    /// A self-closing tag produced an `Open`; its `Close` is owed next.
    pending_close: bool,
    /// The current text run has been copied into `text` (it spans a comment
    /// or processing instruction, or a fragment needed unescaping).
    run_in_text: bool,
    /// The reused owner of text runs that cannot be borrowed.
    text: String,
}

/// A scanned token; ranges index the reader's buffer or its `text`.
enum Token {
    Open(Range<usize>),
    Text(Range<usize>),
    OwnedText(Range<usize>),
    Close,
    End,
}

/// Why a scan of the buffered bytes stopped short of a token.
enum Stop {
    /// The token runs past the buffered bytes: read more, scan again.
    More,
    Fail(ParseError),
}

/// Bytes allowed in an element name.
static NAME_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
        b += 1;
    }
    table
};

/// Index of the first `needle` in `hay`, eight bytes per step: a byte of
/// `word ^ needle×8` is zero exactly where `needle` sits, and the lowest
/// flag the borrow trick sets is always a true zero byte.
#[inline]
fn find_byte(needle: u8, hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let pattern = LO * u64::from(needle);
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ pattern;
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(base + (zero.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|k| base + k)
}

/// Appends `s` to `out` with the five predefined XML entities replaced by
/// their characters; any other `&` stays literal.
pub(crate) fn unescape_into(out: &mut String, s: &str) {
    const ENTITIES: [(&str, char); 5] = [
        ("&lt;", '<'),
        ("&gt;", '>'),
        ("&amp;", '&'),
        ("&quot;", '"'),
        ("&apos;", '\''),
    ];
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        match ENTITIES.iter().find(|(entity, _)| rest.starts_with(entity)) {
            Some(&(entity, c)) => {
                out.push(c);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
}

/// `s` without surrounding whitespace, as a sub-range of `s`.
fn trimmed_range(s: &str) -> Range<usize> {
    let tail = s.trim_start();
    let start = s.len() - tail.len();
    start..start + tail.trim_end().len()
}

impl<R: Read> XmlStreamReader<R> {
    /// Wraps `reader` in a streaming parser. No bytes are read until the
    /// first [`Self::next_event`] call.
    pub fn new(reader: R) -> Self {
        XmlStreamReader {
            reader,
            buf: Vec::new(),
            pos: 0,
            end: 0,
            discarded: 0,
            eof: false,
            names: Vec::new(),
            open: Vec::new(),
            root_seen: false,
            root_closed: false,
            pending_close: false,
            run_in_text: false,
            text: String::new(),
        }
    }

    /// Current nesting depth: the number of open elements, including a
    /// self-closing element whose `Close` event is still owed.
    pub fn depth(&self) -> usize {
        self.open.len() + usize::from(self.pending_close)
    }

    /// Absolute byte offset of the next unconsumed input byte.
    fn offset(&self) -> usize {
        self.discarded + self.pos
    }

    /// The buffered, unconsumed input.
    fn buffered(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    /// The byte `i` past the cursor, `None` past the end of input, or
    /// [`Stop::More`] if it has not been read yet.
    #[inline]
    fn at(&self, i: usize) -> Result<Option<u8>, Stop> {
        match self.buffered().get(i) {
            Some(&b) => Ok(Some(b)),
            None if self.eof => Ok(None),
            None => Err(Stop::More),
        }
    }

    /// End of the element name starting `start` bytes past the cursor.
    #[inline]
    fn name_end(&self, start: usize) -> Result<usize, Stop> {
        let bytes = self.buffered();
        match bytes
            .get(start..)
            .and_then(|name| name.iter().position(|&b| !NAME_BYTE[usize::from(b)]))
        {
            Some(len) => Ok(start + len),
            None if self.eof => Ok(bytes.len()),
            None => Err(Stop::More),
        }
    }

    fn expect_name(&self, start: usize) -> Result<usize, Stop> {
        let end = self.name_end(start)?;
        if end == start {
            return Err(Stop::Fail(ParseError::Syntax {
                offset: self.offset() + start,
                message: "expected an element name".to_owned(),
            }));
        }
        Ok(end)
    }

    /// Scans the open tag at the cursor: the end of its name, its length,
    /// and whether it is self-closing. Attributes are skipped.
    fn scan_open_tag(&self) -> Result<(usize, usize, bool), Stop> {
        let name_end = self.expect_name(1)?;
        let mut i = name_end;
        loop {
            match self.at(i)? {
                Some(b'>') => return Ok((name_end, i + 1, false)),
                Some(b'/') if self.at(i + 1)? == Some(b'>') => {
                    return Ok((name_end, i + 2, true));
                }
                Some(quote @ (b'"' | b'\'')) => {
                    i += 1;
                    match find_byte(quote, &self.buffered()[i..]) {
                        Some(k) => i += k + 1,
                        None if self.eof => return Err(Stop::Fail(ParseError::UnexpectedEof)),
                        None => return Err(Stop::More),
                    }
                }
                Some(_) => i += 1,
                None => return Err(Stop::Fail(ParseError::UnexpectedEof)),
            }
        }
    }

    /// Scans the close tag at the cursor: the end of its name, which the
    /// closing `>` follows.
    fn scan_close_tag(&self) -> Result<usize, Stop> {
        let name_end = self.expect_name(2)?;
        if self.at(name_end)? != Some(b'>') {
            return Err(Stop::Fail(ParseError::Syntax {
                offset: self.offset() + name_end,
                message: "expected '>' after closing tag name".to_owned(),
            }));
        }
        Ok(name_end)
    }

    /// Reads more input behind the buffered bytes, moving them to the front
    /// of the buffer (or growing it) when it is full. Returns `false` at end
    /// of input. Interrupted reads are retried, as [`Read`] asks.
    fn fill(&mut self) -> Result<bool, ParseError> {
        if self.eof {
            return Ok(false);
        }
        if self.pos == self.end {
            self.discarded += self.pos;
            self.pos = 0;
            self.end = 0;
        } else if self.end == self.buf.len() && self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.discarded += self.pos;
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.end == self.buf.len() {
            // A fresh zeroed allocation: cheaper than zero-filling the tail.
            let mut grown = vec![0; (2 * self.buf.len()).max(BUFFER)];
            grown[..self.end].copy_from_slice(&self.buf[..self.end]);
            self.buf = grown;
        }
        loop {
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(false);
                }
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ParseError::Io(e.to_string())),
            }
        }
    }

    /// The byte `i` positions past the cursor, reading as needed; `None` at
    /// end of input.
    #[inline]
    fn peek(&mut self, i: usize) -> Result<Option<u8>, ParseError> {
        while self.pos + i >= self.end {
            if !self.fill()? {
                return Ok(None);
            }
        }
        Ok(Some(self.buf[self.pos + i]))
    }

    /// Runs `scan` over the buffered bytes, reading more and scanning again
    /// while the token straddles the end of the buffer.
    #[inline]
    fn scan<T>(&mut self, scan: impl Fn(&Self) -> Result<T, Stop>) -> Result<T, ParseError> {
        loop {
            match scan(self) {
                Ok(token) => return Ok(token),
                Err(Stop::Fail(e)) => return Err(e),
                Err(Stop::More) => {
                    self.fill()?;
                }
            }
        }
    }

    /// Consumes input through the first `pat` (which ends in `>`) whose
    /// first byte is at or after the cursor. Like the search starting *at
    /// the opener*, degenerate forms whose terminator overlaps it (`<!-->`,
    /// `<?>`) are complete. Skipped bytes are dropped as the scan goes, so a
    /// long comment needs no buffer room.
    fn skip_past(&mut self, pat: &[u8]) -> Result<(), ParseError> {
        let keep = pat.len() - 1;
        // Earliest index (past the cursor) where the closing `>` may sit.
        let mut from = keep;
        loop {
            let window = &self.buf[self.pos..self.end];
            while let Some(k) = window.get(from..).and_then(|rest| find_byte(b'>', rest)) {
                let last = from + k;
                if &window[last - keep..=last] == pat {
                    self.pos += last + 1;
                    return Ok(());
                }
                from = last + 1;
            }
            if window.len() > keep {
                self.pos += window.len() - keep;
                from = keep;
            }
            if !self.fill()? {
                return Err(ParseError::UnexpectedEof);
            }
        }
    }

    /// Skips the comment, processing instruction or declaration at the
    /// cursor (`<?` or `<!`).
    fn skip_markup(&mut self) -> Result<(), ParseError> {
        if self.peek(1)? == Some(b'?') {
            self.skip_past(b"?>")
        } else if self.peek(2)? == Some(b'-') && self.peek(3)? == Some(b'-') {
            self.skip_past(b"-->")
        } else {
            self.skip_past(b">")
        }
    }

    /// Parses the open tag at the cursor, pushing its name onto the open
    /// stack or scheduling the `Close` of a self-closing tag.
    fn open_tag(&mut self) -> Result<Token, ParseError> {
        if self.root_closed {
            return Err(ParseError::TrailingContent(self.offset()));
        }
        let (name_end, len, self_closing) = self.scan(Self::scan_open_tag)?;
        let name = self.pos + 1..self.pos + name_end;
        self.pos += len;
        self.root_seen = true;
        if self_closing {
            self.pending_close = true;
            if self.open.is_empty() {
                self.root_closed = true;
            }
        } else {
            self.open.push(self.names.len());
            self.names.extend_from_slice(&self.buf[name.clone()]);
        }
        Ok(Token::Open(name))
    }

    /// Parses the close tag at the cursor against the open stack.
    fn close_tag(&mut self) -> Result<(), ParseError> {
        let start = match self.open.last() {
            // Fast path: `</`, the innermost open name and `>` are buffered.
            Some(&start)
                if self.buf[self.pos + 2..self.end]
                    .strip_prefix(&self.names[start..])
                    .is_some_and(|rest| rest.first() == Some(&b'>')) =>
            {
                self.pos += self.names.len() - start + 3;
                self.open.pop();
                start
            }
            _ => self.close_tag_slow()?,
        };
        self.names.truncate(start);
        if self.open.is_empty() {
            self.root_closed = true;
        }
        Ok(())
    }

    /// [`Self::close_tag`] in general: reads the name, then checks it.
    /// Returns where the closed element's name starts in `names`.
    fn close_tag_slow(&mut self) -> Result<usize, ParseError> {
        let offset = self.offset();
        let name_end = self.scan(Self::scan_close_tag)?;
        let found = self.pos + 2..self.pos + name_end;
        self.pos += name_end + 1;
        let start = self.open.pop().ok_or_else(|| ParseError::Syntax {
            offset,
            message: "closing tag with no open element".to_owned(),
        })?;
        if self.names[start..] != self.buf[found.clone()] {
            return Err(ParseError::MismatchedTag {
                expected: String::from_utf8_lossy(&self.names[start..]).into_owned(),
                found: String::from_utf8_lossy(&self.buf[found]).into_owned(),
                offset,
            });
        }
        Ok(start)
    }

    /// Appends the fragment `buf[pos..pos + len]` to the run in `text`
    /// (lossy UTF-8, then unescaped on its own) and consumes it.
    fn push_fragment(&mut self, len: usize) {
        if !self.run_in_text {
            self.text.clear();
            self.run_in_text = true;
        }
        let raw = String::from_utf8_lossy(&self.buf[self.pos..self.pos + len]);
        unescape_into(&mut self.text, &raw);
        self.pos += len;
    }

    /// Ends the run held in `text`: its trimmed range, if not blank.
    fn finish_run(&mut self) -> Option<Token> {
        self.run_in_text = false;
        let range = trimmed_range(&self.text);
        (!range.is_empty()).then_some(Token::OwnedText(range))
    }

    /// Scans the text fragment at the cursor (up to the next `<` or the end
    /// of input) and applies the text rules to it. Returns the run's
    /// `Text` token if this fragment ends an element's text.
    fn text_fragment(&mut self) -> Result<Option<Token>, ParseError> {
        let mut len = 0;
        let lt = loop {
            match find_byte(b'<', &self.buf[self.pos + len..self.end]) {
                Some(k) => break Some(len + k),
                None => {
                    len = self.end - self.pos;
                    if !self.fill()? {
                        break None;
                    }
                }
            }
        };
        let len = lt.unwrap_or(len);
        // What follows the fragment: `None` at the end of input, else the
        // byte after its `<` (`None` if that `<` ends the input).
        let next = match lt {
            Some(k) => Some(self.peek(k + 1)?),
            None => None,
        };
        if self.open.is_empty() {
            // Top-level text: ignored before the root, an error after it.
            if self.root_closed
                && !String::from_utf8_lossy(&self.buf[self.pos..self.pos + len])
                    .trim()
                    .is_empty()
            {
                return Err(ParseError::TrailingContent(self.offset() + len));
            }
            self.pos += len;
            return Ok(None);
        }
        match next {
            // A comment or processing instruction: the run goes on.
            Some(Some(b'?' | b'!')) => {
                self.push_fragment(len);
                Ok(None)
            }
            // A close tag or the end of input: the run is the element's text.
            None | Some(Some(b'/')) => {
                let fragment = &self.buf[self.pos..self.pos + len];
                if !self.run_in_text && find_byte(b'&', fragment).is_none() {
                    if let Ok(s) = std::str::from_utf8(fragment) {
                        let range = trimmed_range(s);
                        let token = (!range.is_empty())
                            .then(|| Token::Text(self.pos + range.start..self.pos + range.end));
                        self.pos += len;
                        return Ok(token);
                    }
                }
                self.push_fragment(len);
                Ok(self.finish_run())
            }
            // A child's open tag (or a bare `<`): the run is dropped.
            Some(_) => {
                self.run_in_text = false;
                self.pos += len;
                Ok(None)
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, ParseError> {
        if self.pending_close {
            self.pending_close = false;
            return Ok(Token::Close);
        }
        loop {
            if self.pos == self.end && !self.fill()? {
                if self.run_in_text {
                    if let Some(token) = self.finish_run() {
                        return Ok(token);
                    }
                }
                if !self.open.is_empty() {
                    return Err(ParseError::UnexpectedEof);
                }
                if !self.root_seen {
                    return Err(ParseError::EmptyDocument);
                }
                return Ok(Token::End);
            }
            if self.buf[self.pos] != b'<' {
                if let Some(token) = self.text_fragment()? {
                    return Ok(token);
                }
                continue;
            }
            match self.peek(1)? {
                Some(b'?' | b'!') => self.skip_markup()?,
                Some(b'/') => {
                    if self.run_in_text {
                        if let Some(token) = self.finish_run() {
                            return Ok(token);
                        }
                    }
                    self.close_tag()?;
                    return Ok(Token::Close);
                }
                _ => {
                    self.run_in_text = false;
                    return self.open_tag();
                }
            }
        }
    }
}

impl<R: Read> EventSource for XmlStreamReader<R> {
    fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>, ParseError> {
        fn utf8(bytes: &[u8]) -> &str {
            std::str::from_utf8(bytes).expect("validated while scanning")
        }
        Ok(match self.next_token()? {
            Token::Open(name) => Some(XmlEvent::Open(utf8(&self.buf[name]))),
            Token::Text(text) => Some(XmlEvent::Text(utf8(&self.buf[text]))),
            Token::OwnedText(text) => Some(XmlEvent::Text(&self.text[text])),
            Token::Close => Some(XmlEvent::Close),
            Token::End => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Replay of an existing tree.
// ---------------------------------------------------------------------------

/// Replays an [`XmlTree`] as the event sequence its serialization would
/// stream: for each node, `Open`, then `Text` (if the node carries PCDATA),
/// then the children's events in order, then `Close`.
///
/// This is the bridge that lets one [`EventSource`] consumer serve both the
/// in-memory and the streaming path; the integration suite's property test
/// pins `TreeEvents(parse(s))` ≡ `XmlStreamReader(s)` for serialized
/// documents.
///
/// ```
/// use smoqe_xml::stream::{EventSource, TreeEvents, XmlEvent};
/// use smoqe_xml::XmlTreeBuilder;
///
/// let mut b = XmlTreeBuilder::new();
/// let root = b.root("r");
/// b.child_with_text(root, "a", "hi");
/// let tree = b.finish();
///
/// let mut events = TreeEvents::new(&tree);
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Open("r")));
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Open("a")));
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Text("hi")));
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Close));
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Close));
/// assert_eq!(events.next_event().unwrap(), None);
/// ```
#[derive(Debug)]
pub struct TreeEvents<'t> {
    tree: &'t XmlTree,
    /// `(node, index of its next child to visit)` for every open element.
    stack: Vec<(NodeId, usize)>,
    started: bool,
    done: bool,
    /// The just-opened node's text is owed before its children.
    pending_text: bool,
}

impl<'t> TreeEvents<'t> {
    /// Creates a replay of `tree`, rooted at its root.
    pub fn new(tree: &'t XmlTree) -> Self {
        TreeEvents {
            tree,
            stack: Vec::new(),
            started: false,
            done: false,
            pending_text: false,
        }
    }
}

impl EventSource for TreeEvents<'_> {
    fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>, ParseError> {
        if self.done {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            let root = self.tree.root();
            self.stack.push((root, 0));
            self.pending_text = self.tree.text(root).is_some();
            return Ok(Some(XmlEvent::Open(self.tree.label_name(root))));
        }
        if self.pending_text {
            self.pending_text = false;
            let (node, _) = *self.stack.last().expect("pending text implies an open node");
            return Ok(Some(XmlEvent::Text(
                self.tree.text(node).expect("pending text was checked"),
            )));
        }
        let (node, next_child) = *self.stack.last().expect("not done implies an open node");
        let children = self.tree.children(node);
        if next_child < children.len() {
            self.stack.last_mut().expect("just read").1 += 1;
            let child = children[next_child];
            self.stack.push((child, 0));
            self.pending_text = self.tree.text(child).is_some();
            Ok(Some(XmlEvent::Open(self.tree.label_name(child))))
        } else {
            self.stack.pop();
            if self.stack.is_empty() {
                self.done = true;
            }
            Ok(Some(XmlEvent::Close))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;
    use crate::serialize::to_xml_string;
    use crate::tree::XmlTreeBuilder;

    /// Owned mirror of [`XmlEvent`] for collecting whole sequences.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Owned {
        Open(String),
        Text(String),
        Close,
    }

    fn collect(source: &mut impl EventSource) -> Result<Vec<Owned>, ParseError> {
        let mut out = Vec::new();
        while let Some(event) = source.next_event()? {
            out.push(match event {
                XmlEvent::Open(n) => Owned::Open(n.to_owned()),
                XmlEvent::Text(t) => Owned::Text(t.to_owned()),
                XmlEvent::Close => Owned::Close,
            });
        }
        Ok(out)
    }

    fn read_events(xml: &str) -> Result<Vec<Owned>, ParseError> {
        collect(&mut XmlStreamReader::new(xml.as_bytes()))
    }

    #[test]
    fn simple_document_streams_in_order() {
        let events = read_events("<r><a>hi</a><b/></r>").unwrap();
        assert_eq!(
            events,
            vec![
                Owned::Open("r".into()),
                Owned::Open("a".into()),
                Owned::Text("hi".into()),
                Owned::Close,
                Owned::Open("b".into()),
                Owned::Close,
                Owned::Close,
            ]
        );
    }

    #[test]
    fn declarations_comments_and_attributes_are_skipped() {
        let events = read_events(
            "<?xml version=\"1.0\"?><!-- head --><r id=\"1\"><a key=\"v>alue\">x<!-- mid -->y</a></r>",
        )
        .unwrap();
        assert_eq!(
            events,
            vec![
                Owned::Open("r".into()),
                Owned::Open("a".into()),
                Owned::Text("xy".into()),
                Owned::Close,
                Owned::Close,
            ]
        );
    }

    #[test]
    fn entities_are_unescaped_and_whitespace_trimmed() {
        let events = read_events("<r>\n  <d>heart &amp; lung</d>\n</r>").unwrap();
        assert_eq!(
            events,
            vec![
                Owned::Open("r".into()),
                Owned::Open("d".into()),
                Owned::Text("heart & lung".into()),
                Owned::Close,
                Owned::Close,
            ]
        );
    }

    #[test]
    fn errors_match_the_tree_parser() {
        assert!(matches!(
            read_events("<a><b></a></b>").unwrap_err(),
            ParseError::MismatchedTag { .. }
        ));
        assert_eq!(read_events("<a><b>").unwrap_err(), ParseError::UnexpectedEof);
        assert_eq!(read_events("   ").unwrap_err(), ParseError::EmptyDocument);
        assert_eq!(
            read_events("<!-- only a comment -->").unwrap_err(),
            ParseError::EmptyDocument
        );
        assert!(matches!(
            read_events("<a></a><b></b>").unwrap_err(),
            ParseError::TrailingContent(_)
        ));
        assert!(matches!(
            read_events("<a/>junk").unwrap_err(),
            ParseError::TrailingContent(_)
        ));
    }

    #[test]
    fn entities_split_by_comments_match_the_tree_parser() {
        // The tree parser unescapes per fragment, so a comment interrupting
        // `&amp;` leaves the literal characters `a&amp;b` — the reader must
        // not join the raw fragments first and unescape them to `a&b`.
        for (xml, expected) in [
            ("<r><a>a&am<!-- split -->p;b</a></r>", "a&amp;b"),
            ("<r><a>a&am<?pi?>p;b</a></r>", "a&amp;b"),
            ("<r><a>x&lt;<!-- c -->&gt;y</a></r>", "x<>y"),
            ("<r><a>&amp;<!-- c -->&amp;</a></r>", "&&"),
        ] {
            let tree = parse_document(xml).unwrap();
            let a = tree.children(tree.root())[0];
            assert_eq!(tree.text(a), Some(expected), "tree parser on {xml:?}");
            let events = read_events(xml).unwrap();
            assert!(
                events.contains(&Owned::Text(expected.into())),
                "stream reader diverged from tree parser on {xml:?}: {events:?}"
            );
        }
    }

    #[test]
    fn escaped_text_round_trips_through_serialize_parse_serialize() {
        for text in [
            "a&amp;b",       // literal characters a & a m p ; b
            "a & b",         // lone ampersand
            "x < y > z",
            "\"quoted\" and 'apos'",
            "line1\nline2",
            "cr\r\nlf inside", // interior CR/LF must survive untouched
            "tab\tseparated",
            "]]> not special here",
        ] {
            let mut b = XmlTreeBuilder::new();
            let root = b.root("r");
            b.child_with_text(root, "a", text);
            let tree = b.finish();
            let xml = to_xml_string(&tree);
            let reparsed = parse_document(&xml).unwrap();
            let a = reparsed.children(reparsed.root())[0];
            assert_eq!(reparsed.text(a), Some(text), "parse drift on {text:?}");
            assert_eq!(to_xml_string(&reparsed), xml, "serialize drift on {text:?}");
            // And the stream reader agrees with the reparsed tree.
            let events = read_events(&xml).unwrap();
            assert!(
                events.contains(&Owned::Text(text.into())),
                "stream reader drift on {text:?}: {events:?}"
            );
        }
    }

    #[test]
    fn text_before_a_child_element_is_dropped_like_the_tree_parser() {
        // parse_document flushes text when a child opens; the reader must
        // not hand that text to consumers either, or streamed evaluation
        // would diverge from tree evaluation on mixed content.
        let events = read_events("<r><a>x<b/>y</a></r>").unwrap();
        assert_eq!(
            events,
            vec![
                Owned::Open("r".into()),
                Owned::Open("a".into()),
                Owned::Open("b".into()),
                Owned::Close,
                Owned::Text("y".into()),
                Owned::Close,
                Owned::Close,
            ]
        );
        // With no trailing run, the element ends up with no text at all.
        let events = read_events("<r><a>x<b/></a></r>").unwrap();
        assert!(
            !events.iter().any(|e| matches!(e, Owned::Text(_))),
            "flushed text must not surface: {events:?}"
        );
    }

    #[test]
    fn reader_accepts_exactly_what_parse_document_accepts() {
        for xml in [
            "<r/>",
            "<r>t</r>",
            "<r><a/><b>x</b></r>",
            "<?xml version=\"1.0\"?><r/>",
            "<a><b></a></b>",
            "<a><b>",
            "",
            "<a></a><b></b>",
            "<a>text</a>more",
            // Degenerate comment/PI forms whose terminators overlap their
            // openers — the tree parser accepts these.
            "<a><!--></a>",
            "<a><!---></a>",
            "<a><?></a>",
            "<a>t<!-->u</a>",
        ] {
            let tree = parse_document(xml);
            let stream = read_events(xml);
            assert_eq!(
                tree.is_ok(),
                stream.is_ok(),
                "parse ({:?}) and stream ({:?}) disagree on {xml:?}",
                tree.err(),
                stream.err()
            );
        }
    }

    #[test]
    fn tree_replay_matches_streaming_the_serialization() {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology & Oncology");
        let p = b.child(dept, "patient");
        b.child_with_text(p, "pname", "Alice");
        b.child(p, "visit");
        let tree = b.finish();

        let xml = to_xml_string(&tree);
        let from_text = read_events(&xml).unwrap();
        let from_tree = collect(&mut TreeEvents::new(&tree)).unwrap();
        assert_eq!(from_text, from_tree);
    }

    #[test]
    fn small_read_chunks_do_not_change_the_event_sequence() {
        /// A reader that hands out one byte at a time, exercising every
        /// buffer-refill path.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.split_first() {
                    Some((&b, rest)) => {
                        buf[0] = b;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        let xml = "<?xml version=\"1.0\"?><r a=\"1\"><x>alpha &lt;beta&gt;</x><!-- c --><y/></r>";
        let whole = read_events(xml).unwrap();
        let bytewise = collect(&mut XmlStreamReader::new(OneByte(xml.as_bytes()))).unwrap();
        assert_eq!(whole, bytewise);
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut reader = XmlStreamReader::new("<a><b><c/></b></a>".as_bytes());
        let mut max_depth = 0;
        while let Some(_event) = reader.next_event().unwrap() {
            max_depth = max_depth.max(reader.depth());
        }
        assert_eq!(max_depth, 3);
        assert_eq!(reader.depth(), 0);
    }

    #[test]
    fn trailing_text_is_reported_at_its_first_non_blank_fragment() {
        // The check runs per fragment, so a comment after the stray text
        // (even an unterminated one) does not move or mask the error.
        for xml in ["<a/>x", "<a/>x<!-- c -->", "<a/>x<!--", "<a></a>x<b/>"] {
            let at = xml.find('x').unwrap() + 1;
            assert_eq!(
                read_events(xml).unwrap_err(),
                ParseError::TrailingContent(at),
                "{xml:?}"
            );
        }
        assert_eq!(
            read_events("<a/> <!-- c -->\n<?pi?>").unwrap().len(),
            2,
            "blank text and markup after the root are fine"
        );
    }

    #[test]
    fn interrupted_reads_are_retried() {
        /// Hands out three bytes per read, with an `Interrupted` error
        /// before every piece.
        struct Flaky<'a> {
            rest: &'a [u8],
            interrupt: bool,
        }
        impl Read for Flaky<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.interrupt = !self.interrupt;
                if self.interrupt {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = self.rest.len().min(buf.len()).min(3);
                buf[..n].copy_from_slice(&self.rest[..n]);
                self.rest = &self.rest[n..];
                Ok(n)
            }
        }
        let xml = "<r><x>alpha &lt;beta&gt;</x><!-- c --><y/></r>";
        let flaky = Flaky {
            rest: xml.as_bytes(),
            interrupt: false,
        };
        assert_eq!(
            collect(&mut XmlStreamReader::new(flaky)).unwrap(),
            read_events(xml).unwrap()
        );
    }

    #[test]
    fn find_byte_finds_the_first_occurrence_at_every_alignment() {
        for len in 0..40 {
            for at in 0..=len {
                let mut hay = vec![b'x'; len];
                if at < len {
                    hay[at] = b'<';
                    // A later match and a byte one below the needle must
                    // not shadow the first one.
                    for j in (at + 1..len).step_by(3) {
                        hay[j] = if j % 2 == 0 { b'<' } else { b'<' - 1 };
                    }
                }
                let want = hay.iter().position(|&b| b == b'<');
                assert_eq!(find_byte(b'<', &hay), want, "len {len}, at {at}");
            }
        }
    }

    #[test]
    fn long_tokens_grow_the_buffer_and_long_comments_do_not() {
        let text = "t".repeat(3 * BUFFER);
        let comment = "-".repeat(5 * BUFFER);
        let xml = format!("<r><a k=\"{text}\">{text}</a><!--{comment}--><b>{text}&amp;</b></r>");
        let events = read_events(&xml).unwrap();
        assert_eq!(events[2], Owned::Text(text.clone()));
        assert_eq!(events[5], Owned::Text(format!("{text}&")));
        assert_eq!(events.len(), 8);
    }

    #[test]
    fn io_errors_surface_as_parse_errors() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("wire cut"))
            }
        }
        let mut reader = XmlStreamReader::new(Broken);
        match reader.next_event() {
            Err(ParseError::Io(message)) => assert!(message.contains("wire cut")),
            other => panic!("expected an Io error, got {other:?}"),
        }
    }
}
