//! Compact, versioned binary snapshots of parsed [`XmlTree`] arenas.
//!
//! Parsing XML text is by far the most expensive way to obtain a document:
//! the corpus workloads of the paper's Section 7 evaluation query the same
//! security-view documents over and over, so re-tokenizing them per run is
//! pure waste. A snapshot stores the *parsed* arena — the exact layout the
//! compiled engines iterate — so loading one is a single validated pass
//! that rebuilds the arena without ever touching an XML tokenizer.
//!
//! # Byte layout (format version 1)
//!
//! All integers are little-endian. The file is header + body; the body is
//! three sections laid out back to back:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic  b"SMOQSNAP"
//!      8     4  format version (u32) = 1
//!     12     4  node_count  (u32, >= 1)
//!     16     4  label_count (u32)
//!     20     4  root node id (u32, always 0 in version 1)
//!     24     8  labels_fingerprint (u64) — fingerprint::labels_fingerprint
//!     32     8  text_blob_len (u64)
//!     40     8  body_checksum (u64) — FNV-1a over every byte after the header
//!     48     …  label table: label_count × { len: u32, UTF-8 name bytes }
//!               in LabelId order
//!      …     …  node table:  node_count × { label: u32,
//!                                           parent: u32  (0xFFFF_FFFF = none),
//!                                           text_len: u32 (0xFFFF_FFFF = none) }
//!               in arena (pre-)order; text offsets are implicit — the
//!               running sum of preceding text_lens
//!      …     …  text blob: all PCDATA, concatenated in node order
//! ```
//!
//! Children lists are **not** stored: the builder/parser invariant that every
//! child id is greater than its parent's and that each parent's child list is
//! ascending means a single forward scan over the parent column reconstructs
//! every child list exactly. That keeps the node record at a fixed 12 bytes.
//!
//! # Delta log (format version 2)
//!
//! Edited documents (see [`crate::edit`]) are serialized as their **base**
//! snapshot plus an appended log of edit ops, instead of re-serializing the
//! whole arena. A version-2 snapshot has the identical header and base
//! sections (label table, node table, text blob — describing the *unedited*
//! base tree), followed by a delta section:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      …     4  delta_count (u32)
//!      …     …  delta_count × delta record:
//!                 tag: u8 — 0 = insert, 1 = delete, 2 = replace
//!                 insert:  parent (u32), position (u32),
//!                          payload_len (u32), payload bytes
//!                 delete:  node (u32)
//!                 replace: node (u32), payload_len (u32), payload bytes
//! ```
//!
//! Each payload is itself a complete nested **version-1** snapshot of the
//! inserted/replacement subtree. Two header fields are reinterpreted in
//! version 2: `labels_fingerprint` is the fingerprint of the **final**
//! (post-replay) interner, and `body_checksum` covers the whole body
//! *including* the delta section — so content-addressed ids derived from it
//! distinguish document versions. `node_count`, `label_count`, `root` and
//! `text_blob_len` still describe the base sections.
//!
//! [`load`] replays the log through the edit API after rebuilding the base,
//! which is deterministic: node ids are remapped by a uniform offset and
//! labels re-interned in payload-id order, so the loaded arena is identical
//! — tombstones included — to the edited in-memory tree, and the final
//! label fingerprint is verified against the header. [`save_delta`] /
//! [`extend_snapshot`] append to the log; appending to a version-2 snapshot
//! extends its existing log.
//!
//! # Guarantees
//!
//! * [`load`]`(`[`save`]`(t))` rebuilds an arena identical to `t`: same node
//!   ids, labels, label-interner layout (and hence the same
//!   [`labels_fingerprint`](crate::labels_fingerprint), so cached
//!   reachability indexes keyed on it are shared), same text, same children.
//! * Loading goes through [`XmlTreeBuilder`], so the per-thread
//!   [`node_allocations`](crate::node_allocations) counter stays honest.
//! * Corrupted, truncated, or wrong-version input yields a typed
//!   [`SnapshotError`] — never a panic.
//! * [`peek_header`] validates and decodes the fixed-size header in O(1),
//!   for cheap corpus cataloguing without materializing trees.

use std::ops::Range;

use crate::edit::EditOp;
use crate::fingerprint::FINGERPRINT_SEED;
use crate::label::LabelId;
use crate::tree::{NodeId, XmlTree, XmlTreeBuilder};

/// The eight magic bytes every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"SMOQSNAP";

/// The snapshot format version written by [`save`] and accepted by [`load`].
pub const FORMAT_VERSION: u32 = 1;

/// The format version written by [`save_delta`] / [`extend_snapshot`]:
/// base sections plus an appended edit-op delta log.
pub const DELTA_FORMAT_VERSION: u32 = 2;

/// Size in bytes of the fixed snapshot header.
pub const HEADER_LEN: usize = 48;

/// Sentinel `u32` meaning "absent" in the parent and text-length columns.
const NONE_U32: u32 = u32::MAX;

/// The decoded fixed-size header of a snapshot (see the module docs for the
/// byte layout). Obtained in O(1) via [`peek_header`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version of the snapshot ([`FORMAT_VERSION`] for writable ones).
    pub version: u32,
    /// Number of element nodes in the stored arena.
    pub node_count: u32,
    /// Number of distinct labels in the stored interner.
    pub label_count: u32,
    /// Arena id of the root node.
    pub root: NodeId,
    /// Stable fingerprint of the label-interner layout
    /// ([`crate::labels_fingerprint`]); the reachability-index cache key.
    pub labels_fingerprint: u64,
    /// Total size in bytes of the concatenated PCDATA blob.
    pub text_blob_len: u64,
    /// FNV-1a checksum over the snapshot body (everything after the header).
    pub body_checksum: u64,
}

/// Errors raised while decoding a snapshot. Loading never panics on
/// malformed input; every rejection is one of these typed cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the advertised structure was complete.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The input does not start with the [`MAGIC`] bytes.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The body checksum does not match the header's.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// The snapshot is structurally inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "truncated snapshot: needed {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic bytes"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (expected {FORMAT_VERSION} or \
                     {DELTA_FORMAT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot body checksum mismatch: header says {stored:#018x}, body hashes to {computed:#018x}"
            ),
            SnapshotError::Corrupt(reason) => write!(f, "corrupt snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte slice, seeded like every other fingerprint in the
/// workspace; used for the body checksum (and as the content-addressed
/// document id in `smoqe`'s `DocumentStore`).
pub fn body_checksum(body: &[u8]) -> u64 {
    checksum_fold(FINGERPRINT_SEED, body)
}

/// Continues an FNV-1a body checksum over another slice; folding the body's
/// slices in order equals [`body_checksum`] of their concatenation, which
/// lets [`extend_snapshot`] checksum `base sections ++ delta` without
/// materializing the concatenation.
fn checksum_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Serializes `tree` into a version-[`FORMAT_VERSION`] snapshot.
pub fn save(tree: &XmlTree) -> Vec<u8> {
    let node_count = tree.len();
    let label_count = tree.labels().len();
    debug_assert!(node_count <= u32::MAX as usize);

    // Body: label table.
    let mut body = Vec::with_capacity(node_count * 12 + label_count * 12);
    for (_, name) in tree.labels().iter() {
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
    }

    // Body: node table (children implicit — see module docs).
    let mut text_blob_len = 0u64;
    for id in tree.node_ids() {
        let node = tree.node(id);
        debug_assert!(
            node.children.windows(2).all(|w| w[0] < w[1]) && node.children.first().is_none_or(|&c| c > id),
            "arena child lists must be ascending and parent-before-child"
        );
        body.extend_from_slice(&node.label.0.to_le_bytes());
        body.extend_from_slice(&node.parent.map_or(NONE_U32, |p| p.0).to_le_bytes());
        let text_len = match tree.text(id) {
            Some(t) => {
                text_blob_len += t.len() as u64;
                t.len() as u32
            }
            None => NONE_U32,
        };
        body.extend_from_slice(&text_len.to_le_bytes());
    }

    // Body: text blob.
    for id in tree.node_ids() {
        if let Some(t) = tree.text(id) {
            body.extend_from_slice(t.as_bytes());
        }
    }

    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(node_count as u32).to_le_bytes());
    out.extend_from_slice(&(label_count as u32).to_le_bytes());
    out.extend_from_slice(&tree.root().0.to_le_bytes());
    out.extend_from_slice(&tree.labels().fingerprint().to_le_bytes());
    out.extend_from_slice(&text_blob_len.to_le_bytes());
    out.extend_from_slice(&body_checksum(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Validates and decodes the fixed-size header of `bytes` in O(1).
///
/// Only the magic and length of the header itself are checked; the body is
/// untouched (use [`load`] to verify the checksum and structure). Unknown
/// versions are *returned*, not rejected, so callers can catalogue snapshots
/// written by newer formats.
pub fn peek_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    Ok(SnapshotHeader {
        version: u32_at(8),
        node_count: u32_at(12),
        label_count: u32_at(16),
        root: NodeId(u32_at(20)),
        labels_fingerprint: u64_at(24),
        text_blob_len: u64_at(32),
        body_checksum: u64_at(40),
    })
}

/// A checked cursor over the snapshot body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Corrupt(
            "section length overflows".to_owned(),
        ))?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated {
                needed: end,
                have: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

/// Decodes a snapshot produced by [`save`], [`save_delta`] or
/// [`extend_snapshot`] back into an [`XmlTree`].
///
/// The base arena is rebuilt through [`XmlTreeBuilder`] in the original node
/// order, so node ids, label ids, children lists and the label-interner
/// layout all come back identical to the saved tree. For version-2
/// snapshots the delta log is then replayed through the edit API, which
/// deterministically reproduces the edited arena — tombstones, appended
/// nodes and grown interner included — and the final label fingerprint is
/// verified against the header. Every structural invariant is validated
/// before construction; malformed input returns a [`SnapshotError`] and
/// never panics.
pub fn load(bytes: &[u8]) -> Result<XmlTree, SnapshotError> {
    let header = peek_header(bytes)?;
    if header.version != FORMAT_VERSION && header.version != DELTA_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(header.version));
    }
    if header.node_count == 0 {
        return Err(SnapshotError::Corrupt("snapshot has zero nodes".to_owned()));
    }
    if header.root != NodeId(0) {
        return Err(SnapshotError::Corrupt(format!(
            "base root must be node 0, found {}",
            header.root.0
        )));
    }

    let body = &bytes[HEADER_LEN..];
    let computed = body_checksum(body);
    if computed != header.body_checksum {
        return Err(SnapshotError::ChecksumMismatch {
            stored: header.body_checksum,
            computed,
        });
    }

    let mut cur = Cursor { bytes: body, pos: 0 };
    let mut tree = decode_base(&header, &mut cur)?;

    if header.version == FORMAT_VERSION {
        if cur.pos != body.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the text blob",
                body.len() - cur.pos
            )));
        }
        // In version 1 the header fingerprint is the base interner's.
        let computed_labels = tree.labels().fingerprint();
        if computed_labels != header.labels_fingerprint {
            return Err(SnapshotError::Corrupt(format!(
                "label-table fingerprint {computed_labels:#018x} does not match header \
                 {:#018x}",
                header.labels_fingerprint
            )));
        }
        return Ok(tree);
    }

    // Version 2: replay the delta log, then verify the final fingerprint.
    let delta_count = cur.u32()?;
    for i in 0..delta_count {
        let op = decode_delta_record(&mut cur)
            .map_err(|e| corrupt_record(i, e))?;
        tree.apply(&op).map_err(|e| {
            SnapshotError::Corrupt(format!("delta record {i} does not apply: {e}"))
        })?;
    }
    if cur.pos != body.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the delta log",
            body.len() - cur.pos
        )));
    }
    let computed_labels = tree.labels().fingerprint();
    if computed_labels != header.labels_fingerprint {
        return Err(SnapshotError::Corrupt(format!(
            "replayed label fingerprint {computed_labels:#018x} does not match header \
             {:#018x}",
            header.labels_fingerprint
        )));
    }
    Ok(tree)
}

/// Wraps a nested decode error with the index of the failing delta record.
fn corrupt_record(index: u32, e: SnapshotError) -> SnapshotError {
    SnapshotError::Corrupt(format!("delta record {index}: {e}"))
}

/// Decodes the base sections (label table, node table, text blob) from
/// `cur`, leaving the cursor at the first byte after the text blob.
fn decode_base(header: &SnapshotHeader, cur: &mut Cursor<'_>) -> Result<XmlTree, SnapshotError> {
    // Label table: pre-intern in id order so LabelIds survive the trip.
    let mut builder = XmlTreeBuilder::new();
    let mut names = Vec::with_capacity(header.label_count as usize);
    for i in 0..header.label_count {
        let len = cur.u32()? as usize;
        let raw = cur.take(len)?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| SnapshotError::Corrupt(format!("label {i} is not valid UTF-8")))?;
        let id = builder.labels_mut().intern(name);
        if id != LabelId(i) {
            return Err(SnapshotError::Corrupt(format!(
                "duplicate label {name:?} in label table"
            )));
        }
        names.push(name.to_owned());
    }

    // Node table: validate every record before building, tracking the
    // running text offset implied by the text-length column.
    struct Record {
        label: LabelId,
        parent: Option<NodeId>,
        text: Option<(usize, usize)>, // (offset, len) into the text blob
    }
    let mut records = Vec::with_capacity(header.node_count as usize);
    let mut text_off = 0usize;
    for i in 0..header.node_count {
        let label = cur.u32()?;
        let parent = cur.u32()?;
        let text_len = cur.u32()?;
        if label >= header.label_count {
            return Err(SnapshotError::Corrupt(format!(
                "node {i} references label {label} out of {}",
                header.label_count
            )));
        }
        let parent = if parent == NONE_U32 {
            if i != 0 {
                return Err(SnapshotError::Corrupt(format!(
                    "non-root node {i} has no parent"
                )));
            }
            None
        } else {
            if i == 0 {
                return Err(SnapshotError::Corrupt("root node has a parent".to_owned()));
            }
            if parent >= i {
                return Err(SnapshotError::Corrupt(format!(
                    "node {i} has parent {parent}, violating parent-before-child order"
                )));
            }
            Some(NodeId(parent))
        };
        let text = if text_len == NONE_U32 {
            None
        } else {
            let span = (text_off, text_len as usize);
            text_off += text_len as usize;
            Some(span)
        };
        records.push(Record {
            label: LabelId(label),
            parent,
            text,
        });
    }
    if text_off as u64 != header.text_blob_len {
        return Err(SnapshotError::Corrupt(format!(
            "text lengths sum to {text_off} but header says {}",
            header.text_blob_len
        )));
    }

    let blob = cur.take(text_off)?;

    // Rebuild through the builder: ids are assigned densely in the same
    // order, and appending children parent-by-parent in id order reproduces
    // the original (ascending) child lists exactly.
    for (i, rec) in records.iter().enumerate() {
        let id = match rec.parent {
            None => builder.root(&names[rec.label.index()]),
            Some(p) => builder.child_interned(p, rec.label),
        };
        debug_assert_eq!(id, NodeId(i as u32));
        if let Some((off, len)) = rec.text {
            let text = std::str::from_utf8(&blob[off..off + len]).map_err(|_| {
                SnapshotError::Corrupt(format!("text of node {i} is not valid UTF-8"))
            })?;
            builder.set_text(id, text);
        }
    }
    Ok(builder.finish())
}

/// Delta record tags (see the module docs).
const DELTA_INSERT: u8 = 0;
const DELTA_DELETE: u8 = 1;
const DELTA_REPLACE: u8 = 2;

/// Encodes one edit op as a delta record (see the module docs for the
/// layout). Payload subtrees are serialized as nested version-1 snapshots.
fn encode_delta_record(out: &mut Vec<u8>, op: &EditOp) -> Result<(), SnapshotError> {
    match op {
        EditOp::Insert {
            parent,
            position,
            subtree,
        } => {
            let position = u32::try_from(*position).map_err(|_| {
                SnapshotError::Corrupt(format!("insert position {position} exceeds u32"))
            })?;
            let payload = encode_payload(subtree)?;
            out.push(DELTA_INSERT);
            out.extend_from_slice(&parent.0.to_le_bytes());
            out.extend_from_slice(&position.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        EditOp::Delete { node } => {
            out.push(DELTA_DELETE);
            out.extend_from_slice(&node.0.to_le_bytes());
        }
        EditOp::Replace { node, subtree } => {
            let payload = encode_payload(subtree)?;
            out.push(DELTA_REPLACE);
            out.extend_from_slice(&node.0.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
        }
    }
    Ok(())
}

/// Serializes an edit payload as a nested version-1 snapshot, rejecting
/// payloads the edit API itself would reject.
fn encode_payload(subtree: &XmlTree) -> Result<Vec<u8>, SnapshotError> {
    if subtree.is_empty() || subtree.has_tombstones() || subtree.root() != NodeId(0) {
        return Err(SnapshotError::Corrupt(
            "edit payload must be a clean, tombstone-free tree (compact it first)".to_owned(),
        ));
    }
    Ok(save(subtree))
}

/// Decodes one delta record at the cursor.
fn decode_delta_record(cur: &mut Cursor<'_>) -> Result<EditOp, SnapshotError> {
    let tag = cur.take(1)?[0];
    match tag {
        DELTA_INSERT => {
            let parent = NodeId(cur.u32()?);
            let position = cur.u32()? as usize;
            let len = cur.u32()? as usize;
            let subtree = load(cur.take(len)?)?;
            Ok(EditOp::Insert {
                parent,
                position,
                subtree,
            })
        }
        DELTA_DELETE => Ok(EditOp::Delete {
            node: NodeId(cur.u32()?),
        }),
        DELTA_REPLACE => {
            let node = NodeId(cur.u32()?);
            let len = cur.u32()? as usize;
            let subtree = load(cur.take(len)?)?;
            Ok(EditOp::Replace { node, subtree })
        }
        other => Err(SnapshotError::Corrupt(format!(
            "unknown delta record tag {other}"
        ))),
    }
}

/// Scans the base sections of `bytes` (which must start with a valid
/// header) and returns their byte range — `HEADER_LEN .. delta start`.
///
/// Only the label-table entry lengths need scanning; the node table and
/// text blob have sizes fixed by the header.
fn base_sections(header: &SnapshotHeader, bytes: &[u8]) -> Result<Range<usize>, SnapshotError> {
    let mut cur = Cursor {
        bytes: &bytes[HEADER_LEN..],
        pos: 0,
    };
    for _ in 0..header.label_count {
        let len = cur.u32()? as usize;
        cur.take(len)?;
    }
    cur.take(header.node_count as usize * 12)?;
    let text_len = usize::try_from(header.text_blob_len)
        .map_err(|_| SnapshotError::Corrupt("text blob length overflows".to_owned()))?;
    cur.take(text_len)?;
    Ok(HEADER_LEN..HEADER_LEN + cur.pos)
}

/// The reusable tail of an extended snapshot: a rewritten header plus the
/// (grown) delta section, referencing the base sections of the original
/// snapshot by byte range instead of copying them.
///
/// This is what lets `smoqe`'s `DocumentStore` keep one shared copy of a
/// large base snapshot across document versions: each version stores only
/// its `DeltaTail` (48-byte header + delta log) and [`DeltaTail::assemble`]s
/// the full byte stream on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaTail {
    header: Vec<u8>,
    delta: Vec<u8>,
    sections: Range<usize>,
}

impl DeltaTail {
    /// The rewritten [`HEADER_LEN`]-byte header (version 2, final label
    /// fingerprint, checksum over base sections + delta).
    pub fn header_bytes(&self) -> &[u8] {
        &self.header
    }

    /// Byte range of the base sections within the snapshot this tail was
    /// extended from. The range is position-stable across generations:
    /// every assembled snapshot carries the same base sections at
    /// `HEADER_LEN..`.
    pub fn sections(&self) -> Range<usize> {
        self.sections.clone()
    }

    /// Size in bytes of the delta section (count word + all records).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Materializes the full version-2 snapshot byte stream:
    /// `header ++ base[sections] ++ delta`.
    ///
    /// `base` must be the same snapshot that was passed to
    /// [`extend_snapshot`] (or any snapshot of the same lineage — see
    /// [`DeltaTail::sections`]).
    pub fn assemble(&self, base: &[u8]) -> Vec<u8> {
        let sections = &base[self.sections.clone()];
        let mut out = Vec::with_capacity(self.header.len() + sections.len() + self.delta.len());
        out.extend_from_slice(&self.header);
        out.extend_from_slice(sections);
        out.extend_from_slice(&self.delta);
        out
    }
}

/// Appends `ops` to `snapshot`'s delta log without copying its base
/// sections, returning the new header + delta as a [`DeltaTail`].
///
/// `snapshot` may be version 1 (the log starts empty) or version 2 (the
/// existing log is extended). `final_labels_fingerprint` must be the
/// fingerprint of the fully-edited tree's interner — callers that already
/// applied `ops` in memory have it (the interner maintains it, see
/// [`LabelInterner::fingerprint`](crate::LabelInterner::fingerprint)); use
/// [`save_delta`] to have it
/// computed by replay. Ops are validated structurally (encodable payloads)
/// but **not** replayed here; a log that does not apply is caught by
/// [`load`].
pub fn extend_snapshot(
    snapshot: &[u8],
    ops: &[EditOp],
    final_labels_fingerprint: u64,
) -> Result<DeltaTail, SnapshotError> {
    let header = peek_header(snapshot)?;
    if header.version != FORMAT_VERSION && header.version != DELTA_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(header.version));
    }
    let sections = base_sections(&header, snapshot)?;

    // Existing log: count + verbatim record bytes.
    let (old_count, old_records) = if header.version == DELTA_FORMAT_VERSION {
        let mut cur = Cursor {
            bytes: snapshot,
            pos: sections.end,
        };
        let count = cur.u32()?;
        (count, &snapshot[sections.end + 4..])
    } else {
        if sections.end != snapshot.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the text blob",
                snapshot.len() - sections.end
            )));
        }
        (0, &snapshot[0..0])
    };

    let new_count = old_count
        .checked_add(u32::try_from(ops.len()).map_err(|_| {
            SnapshotError::Corrupt("delta log exceeds u32 records".to_owned())
        })?)
        .ok_or_else(|| SnapshotError::Corrupt("delta log exceeds u32 records".to_owned()))?;

    let mut delta = Vec::with_capacity(4 + old_records.len());
    delta.extend_from_slice(&new_count.to_le_bytes());
    delta.extend_from_slice(old_records);
    for op in ops {
        encode_delta_record(&mut delta, op)?;
    }

    let checksum = checksum_fold(checksum_fold(FINGERPRINT_SEED, &snapshot[sections.clone()]), &delta);

    let mut new_header = snapshot[..HEADER_LEN].to_vec();
    new_header[8..12].copy_from_slice(&DELTA_FORMAT_VERSION.to_le_bytes());
    new_header[24..32].copy_from_slice(&final_labels_fingerprint.to_le_bytes());
    new_header[40..48].copy_from_slice(&checksum.to_le_bytes());

    Ok(DeltaTail {
        header: new_header,
        delta,
        sections,
    })
}

/// Serializes an edited document as `snapshot`'s base plus `ops` appended
/// to the delta log, returning the complete version-2 byte stream.
///
/// The ops are replayed on a loaded copy of `snapshot` to validate them and
/// compute the final label fingerprint, so this costs a full load; stores
/// that already hold the edited tree should use [`extend_snapshot`]
/// directly. Guaranteed to round-trip: `load(save_delta(s, ops))` equals
/// applying `ops` to `load(s)`.
pub fn save_delta(snapshot: &[u8], ops: &[EditOp]) -> Result<Vec<u8>, SnapshotError> {
    let mut tree = load(snapshot)?;
    for (i, op) in ops.iter().enumerate() {
        tree.apply(op).map_err(|e| {
            SnapshotError::Corrupt(format!("delta op {i} does not apply: {e}"))
        })?;
    }
    let tail = extend_snapshot(snapshot, ops, tree.labels().fingerprint())?;
    Ok(tail.assemble(snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::labels_fingerprint;
    use crate::parse::parse_document;

    fn sample() -> XmlTree {
        parse_document(
            "<hospital><department><patient><pname>Alice &amp; Bob</pname>\
             <visit/></patient></department><department/></hospital>",
        )
        .unwrap()
    }

    fn assert_trees_identical(a: &XmlTree, b: &XmlTree) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.root(), b.root());
        assert_eq!(a.labels().len(), b.labels().len());
        for (la, lb) in a.labels().iter().zip(b.labels().iter()) {
            assert_eq!(la, lb);
        }
        for id in a.node_ids() {
            assert_eq!(a.label(id), b.label(id));
            assert_eq!(a.parent(id), b.parent(id));
            assert_eq!(a.children(id), b.children(id));
            assert_eq!(a.text(id), b.text(id));
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let t = sample();
        let bytes = save(&t);
        let t2 = load(&bytes).unwrap();
        assert_trees_identical(&t, &t2);
        t2.check_consistency().unwrap();
        assert_eq!(save(&t2), bytes, "save is deterministic across a round-trip");
    }

    #[test]
    fn header_reflects_the_tree() {
        let t = sample();
        let bytes = save(&t);
        let h = peek_header(&bytes).unwrap();
        assert_eq!(h.version, FORMAT_VERSION);
        assert_eq!(h.node_count as usize, t.len());
        assert_eq!(h.label_count as usize, t.labels().len());
        assert_eq!(h.root, t.root());
        assert_eq!(h.labels_fingerprint, labels_fingerprint(t.labels()));
        assert_eq!(h.body_checksum, body_checksum(&bytes[HEADER_LEN..]));
    }

    #[test]
    fn load_counts_node_allocations() {
        let t = sample();
        let bytes = save(&t);
        let before = crate::tree::node_allocations();
        let t2 = load(&bytes).unwrap();
        assert_eq!(crate::tree::node_allocations() - before, t2.len() as u64);
    }

    #[test]
    fn empty_and_missing_text_are_distinguished() {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("r");
        let a = b.child_with_text(root, "a", "");
        let c = b.child(root, "b");
        let t = b.finish();
        let t2 = load(&save(&t)).unwrap();
        assert_eq!(t2.text(a), Some(""));
        assert_eq!(t2.text(c), None);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = save(&sample());
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 3, bytes.len() - 1] {
            let err = load(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = save(&sample());
        bytes[0] ^= 0xff;
        assert_eq!(load(&bytes).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn unsupported_version_is_rejected_but_peekable() {
        let mut bytes = save(&sample());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            load(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        assert_eq!(peek_header(&bytes).unwrap().version, 99);
    }

    #[test]
    fn flipped_body_byte_fails_the_checksum() {
        let mut bytes = save(&sample());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            load(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = save(&sample());
        bytes.push(0);
        // The checksum catches the extension first; both are typed errors.
        assert!(matches!(
            load(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. } | SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn errors_display_and_compare() {
        let e = SnapshotError::UnsupportedVersion(7);
        assert!(e.to_string().contains('7'));
        assert_eq!(e.clone(), e);
        let t = SnapshotError::Truncated { needed: 48, have: 3 };
        assert!(t.to_string().contains("48"));
    }

    fn payload() -> XmlTree {
        parse_document("<patient><pname>Carol</pname><ward>W3</ward></patient>").unwrap()
    }

    fn sample_ops(t: &XmlTree) -> Vec<crate::EditOp> {
        let dept = t.children(t.root())[0];
        let dept2 = t.children(t.root())[1];
        vec![
            crate::EditOp::Insert {
                parent: dept,
                position: 1,
                subtree: payload(),
            },
            crate::EditOp::Delete { node: dept2 },
        ]
    }

    #[test]
    fn delta_round_trip_replays_to_the_edited_tree() {
        let base = sample();
        let bytes = save(&base);
        let ops = sample_ops(&base);
        let mut edited = base.clone();
        for op in &ops {
            edited.apply(op).unwrap();
        }

        let delta_bytes = save_delta(&bytes, &ops).unwrap();
        let header = peek_header(&delta_bytes).unwrap();
        assert_eq!(header.version, DELTA_FORMAT_VERSION);
        assert_eq!(header.node_count as usize, base.len(), "base node count");
        assert_eq!(
            header.labels_fingerprint,
            labels_fingerprint(edited.labels()),
            "header carries the final fingerprint"
        );

        let replayed = load(&delta_bytes).unwrap();
        assert_trees_identical(&edited, &replayed);
        assert_eq!(replayed.live_len(), edited.live_len());
        assert!(replayed.has_tombstones());
        replayed.check_consistency().unwrap();
        // Validated against full re-serialization of the compacted tree.
        assert_eq!(
            crate::to_xml_string(&replayed.compacted()),
            crate::to_xml_string(&edited.compacted())
        );
    }

    #[test]
    fn extend_snapshot_appends_to_an_existing_log() {
        let base = sample();
        let bytes = save(&base);
        let ops = sample_ops(&base);
        let gen1 = save_delta(&bytes, &ops[..1]).unwrap();
        let gen2 = save_delta(&gen1, &ops[1..]).unwrap();
        let all_at_once = save_delta(&bytes, &ops).unwrap();
        assert_eq!(gen2, all_at_once, "one-op-at-a-time equals batched append");

        // The base sections range is position-stable across generations.
        let header1 = peek_header(&gen1).unwrap();
        let sections1 = base_sections(&header1, &gen1).unwrap();
        let header0 = peek_header(&bytes).unwrap();
        let sections0 = base_sections(&header0, &bytes).unwrap();
        assert_eq!(sections0, sections1);
        assert_eq!(bytes[sections0.clone()], gen1[sections1]);
    }

    #[test]
    fn delta_tail_shares_base_bytes() {
        let base = sample();
        let bytes = save(&base);
        let ops = sample_ops(&base);
        let mut edited = base.clone();
        for op in &ops {
            edited.apply(op).unwrap();
        }
        let tail = extend_snapshot(&bytes, &ops, labels_fingerprint(edited.labels())).unwrap();
        assert_eq!(tail.header_bytes().len(), HEADER_LEN);
        assert!(tail.delta_len() > 4);
        assert_eq!(tail.assemble(&bytes), save_delta(&bytes, &ops).unwrap());
    }

    #[test]
    fn empty_delta_log_round_trips() {
        let base = sample();
        let bytes = save(&base);
        let v2 = save_delta(&bytes, &[]).unwrap();
        let loaded = load(&v2).unwrap();
        assert_trees_identical(&base, &loaded);
        assert_eq!(
            peek_header(&v2).unwrap().labels_fingerprint,
            labels_fingerprint(base.labels())
        );
    }

    #[test]
    fn corrupt_delta_bytes_are_rejected() {
        let base = sample();
        let bytes = save(&base);
        let mut v2 = save_delta(&bytes, &sample_ops(&base)).unwrap();
        // Flip a byte inside the delta section: caught by the checksum.
        let last = v2.len() - 1;
        v2[last] ^= 0x01;
        assert!(matches!(
            load(&v2).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn inapplicable_ops_are_rejected_at_save_and_load() {
        let base = sample();
        let bytes = save(&base);
        // Deleting the root is rejected when building the delta…
        let bad = vec![crate::EditOp::Delete { node: base.root() }];
        assert!(matches!(
            save_delta(&bytes, &bad).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // …and a hand-assembled log with the same op is rejected on load.
        let tail = extend_snapshot(&bytes, &bad, labels_fingerprint(base.labels())).unwrap();
        assert!(matches!(
            load(&tail.assemble(&bytes)).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn tombstoned_payloads_cannot_be_encoded() {
        let base = sample();
        let bytes = save(&base);
        let mut dirty = sample();
        let d = dirty.children(dirty.root())[0];
        dirty.delete_subtree(d).unwrap();
        let ops = vec![crate::EditOp::Insert {
            parent: base.root(),
            position: 0,
            subtree: dirty,
        }];
        assert!(matches!(
            save_delta(&bytes, &ops).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn root_replacement_round_trips_through_the_log() {
        let base = sample();
        let bytes = save(&base);
        let ops = vec![crate::EditOp::Replace {
            node: base.root(),
            subtree: payload(),
        }];
        let v2 = save_delta(&bytes, &ops).unwrap();
        let loaded = load(&v2).unwrap();
        assert_eq!(loaded.label_name(loaded.root()), "patient");
        assert_eq!(loaded.live_len(), 3);
        assert!(loaded.has_tombstones());
        loaded.check_consistency().unwrap();
    }
}
