//! The byte layout of a tuple batch, and the length-prefixed wire frames
//! that carry one.
//!
//! **A record** ([`encode_record`], whose doc states the layout) is the one
//! byte layout of a [`ColumnBatch`] outside memory: a spilled run in the
//! segment file, the tuples of a wire frame, the pending probe side of a
//! migrated region. [`decode_record`] reads it back and [`record_len`] is
//! its size.
//!
//! **A frame** carries one record behind a header:
//!
//! ```text
//! u32 LE body_len            bytes after this field
//! u8  kind                   opaque to this codec (the transport's tag space)
//! u64 LE a, u64 LE b         two scalar header words (region/epoch/credit/…)
//! u32 LE extra_len | extra   variable sidecar (migration descriptors, …)
//! record                     the frame's batch (an empty one is count 0)
//! ```
//!
//! The decoder is *incremental*: feed it byte slices as they arrive off a
//! socket (arbitrarily split or coalesced) and it yields complete frames in
//! order. Every length field is validated against `body_len` before any
//! allocation is sized from it.

use crate::batch::ColumnBatch;
use crate::types::Key;

/// Fixed bytes of one frame body: kind + a + b + extra_len + the record's
/// count.
const BODY_FIXED: usize = 1 + 8 + 8 + 4 + 8;

/// Bytes of one encoded frame besides its sidecar and slabs: the length
/// prefix and the fixed body fields.
pub const FRAME_HEADER_BYTES: usize = 4 + BODY_FIXED;

/// Hard ceiling on one frame's body, validated before buffering: a corrupt
/// length prefix must not make the decoder allocate gigabytes. 1 GiB admits
/// a ~33 M tuple batch — far beyond any queue capacity in this codebase.
pub const MAX_FRAME_BODY: usize = 1 << 30;

/// A decoded frame: the transport-level tag, two scalar header words, the
/// variable sidecar, and the tuple batch (empty batches are `count == 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub a: u64,
    pub b: u64,
    pub extra: Vec<u8>,
    pub batch: ColumnBatch,
}

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length field is inconsistent (body shorter than its fixed header,
    /// sections overrunning `body_len`, or slabs not matching `count`).
    Corrupt(String),
    /// `body_len` exceeds [`MAX_FRAME_BODY`].
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            FrameError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A column element a record stores as one 8-byte LE word.
///
/// # Safety
///
/// Implementors are 8 bytes wide, without padding, and valid for every bit
/// pattern.
unsafe trait Word: Copy {}

// SAFETY: 8-byte integers: no padding, every bit pattern a value.
unsafe impl Word for i64 {}
// SAFETY: as above.
unsafe impl Word for u64 {}

/// A column's words as bytes, in the target's order.
fn bytes_of<T: Word>(col: &[T]) -> &[u8] {
    // SAFETY: `Word` types are 8 plain bytes each, so the slice covers
    // exactly `len * 8` initialized bytes; the borrow pins the column.
    unsafe { std::slice::from_raw_parts(col.as_ptr().cast::<u8>(), col.len() * 8) }
}

/// Swaps every 8-byte word of `bytes` between LE and the target's order:
/// nothing to do on a little-endian target.
fn swap_words(bytes: &mut [u8]) {
    if cfg!(target_endian = "big") {
        bytes.chunks_exact_mut(8).for_each(<[u8]>::reverse);
    }
}

fn put_slab<T: Word>(out: &mut Vec<u8>, col: &[T]) {
    let start = out.len();
    out.extend_from_slice(bytes_of(col));
    swap_words(&mut out[start..]);
}

/// Replaces `col`'s contents with the words of `slab` (a multiple of 8
/// bytes), reusing its allocation when it has room.
fn take_slab<T: Word>(col: &mut Vec<T>, slab: &[u8]) {
    let n = slab.len() / 8;
    col.clear();
    if col.capacity() < n {
        // A fresh block: growing the old one would copy its stale words.
        *col = Vec::with_capacity(n);
    }
    // SAFETY: `col` has room for `n` words and `slab` holds `n * 8` bytes;
    // every bit pattern is a valid `Word`, so `set_len` exposes only
    // initialized values.
    let bytes = unsafe {
        std::ptr::copy_nonoverlapping(slab.as_ptr(), col.as_mut_ptr().cast::<u8>(), n * 8);
        col.set_len(n);
        std::slice::from_raw_parts_mut(col.as_mut_ptr().cast::<u8>(), n * 8)
    };
    swap_words(bytes);
}

/// Bytes of a record of `tuples` tuples (`None`: not representable).
pub fn record_len(tuples: u64) -> Option<u64> {
    tuples.checked_mul(16)?.checked_add(8)
}

/// Appends the parallel `keys` / `payloads` columns to `out` as one record:
///
/// ```text
/// u64 LE count | key slab (count × i64 LE) | payload slab (count × u64 LE)
/// ```
///
/// Both columns are already contiguous fixed-width arrays, so on a
/// little-endian target this is two bulk copies, and so is
/// [`decode_record`]; the big-endian fallback swaps each word's bytes.
#[inline]
pub fn encode_record(out: &mut Vec<u8>, keys: &[Key], payloads: &[u64]) {
    assert_eq!(keys.len(), payloads.len(), "column lengths must match");
    out.reserve(8 + keys.len() * 16);
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    put_slab(out, keys);
    put_slab(out, payloads);
}

/// Decodes `bytes`, which must be exactly one record, into the columns of
/// `into` (its contents are discarded, its allocations reused). The count
/// is checked against the byte length before anything is sized from it, so
/// a truncated, extended or miscounted record is a [`FrameError`], never a
/// panic or an unbounded allocation.
#[inline]
pub fn decode_record(bytes: &[u8], into: ColumnBatch) -> Result<ColumnBatch, FrameError> {
    let Some((count, slabs)) = bytes.split_first_chunk::<8>() else {
        return Err(FrameError::Corrupt(format!(
            "a record of {} bytes has no tuple count",
            bytes.len()
        )));
    };
    let count = u64::from_le_bytes(*count);
    if record_len(count) != Some(bytes.len() as u64) {
        return Err(FrameError::Corrupt(format!(
            "tuple count {count} does not match {} slab bytes",
            slabs.len()
        )));
    }
    let (key_slab, payload_slab) = slabs.split_at(slabs.len() / 2);
    let (mut keys, mut payloads) = into.into_columns();
    take_slab(&mut keys, key_slab);
    take_slab(&mut payloads, payload_slab);
    Ok(ColumnBatch::from_columns(keys, payloads))
}

/// Appends one encoded frame to `out` (which callers recycle across
/// frames), its batch as the record that ends it.
pub fn encode_frame(
    out: &mut Vec<u8>,
    kind: u8,
    a: u64,
    b: u64,
    extra: &[u8],
    batch: &ColumnBatch,
) {
    let body = BODY_FIXED + extra.len() + batch.len() * 16;
    out.reserve(4 + body);
    out.extend_from_slice(&(body as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    out.extend_from_slice(&(extra.len() as u32).to_le_bytes());
    out.extend_from_slice(extra);
    encode_record(out, batch.keys(), batch.payloads());
}

fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    if body.len() < BODY_FIXED {
        return Err(FrameError::Corrupt(format!(
            "body of {} bytes is shorter than the {} byte fixed header",
            body.len(),
            BODY_FIXED
        )));
    }
    let kind = body[0];
    let a = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
    let b = u64::from_le_bytes(body[9..17].try_into().expect("8 bytes"));
    let extra_len = u32::from_le_bytes(body[17..21].try_into().expect("4 bytes")) as usize;
    // extra occupies [21, 21 + extra_len); the record is the rest. Checked
    // arithmetic: extra_len is attacker-controlled.
    let extra_end = 21usize
        .checked_add(extra_len)
        .filter(|&end| end <= body.len())
        .ok_or_else(|| {
            FrameError::Corrupt(format!(
                "extra section of {extra_len} bytes overruns the body"
            ))
        })?;
    Ok(Frame {
        kind,
        a,
        b,
        extra: body[21..extra_end].to_vec(),
        batch: decode_record(&body[extra_end..], ColumnBatch::new())?,
    })
}

/// Incremental frame decoder: absorbs byte chunks as a socket delivers
/// them and yields complete frames in arrival order.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted once it outgrows the tail).
    read: usize,
}

impl FrameDecoder {
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends newly received bytes. Call [`next_frame`](Self::next_frame)
    /// until it returns `Ok(None)` to drain everything now decodable.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact instead of draining the front per frame: removal from a
        // Vec head is O(n) per frame, compaction amortizes it.
        if self.read > 0 && (self.read >= self.buf.len() || self.read >= 64 * 1024) {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, `Ok(None)` when more bytes are needed.
    /// Errors are sticky in practice: a stream that mis-framed once has
    /// lost sync, so callers tear the link down.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.read..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if body_len > MAX_FRAME_BODY {
            return Err(FrameError::Oversized(body_len));
        }
        if avail.len() < 4 + body_len {
            return Ok(None);
        }
        let frame = decode_body(&avail[4..4 + body_len])?;
        self.read += 4 + body_len;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet decoded — nonzero after EOF means the
    /// stream was truncated mid-frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(pairs: &[(Key, u64)]) -> ColumnBatch {
        let mut b = ColumnBatch::new();
        for &(k, p) in pairs {
            b.push(k, p);
        }
        b
    }

    fn round_trip(frames: &[Frame], chunk: usize) -> Vec<Frame> {
        let mut wire = Vec::new();
        for f in frames {
            encode_frame(&mut wire, f.kind, f.a, f.b, &f.extra, &f.batch);
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in wire.chunks(chunk.max(1)) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().expect("valid stream") {
                out.push(f);
            }
        }
        assert_eq!(dec.pending_bytes(), 0);
        out
    }

    #[test]
    fn frames_round_trip_bit_identical_at_any_split() {
        let frames = vec![
            Frame {
                kind: 1,
                a: 0xDEAD_BEEF,
                b: 42,
                extra: vec![],
                batch: batch(&[(Key::MIN, 0), (Key::MAX, u64::MAX), (-1, 7)]),
            },
            Frame {
                kind: 7,
                a: 0,
                b: u64::MAX,
                extra: vec![1, 2, 3, 4, 5],
                batch: ColumnBatch::new(),
            },
        ];
        for chunk in [1, 3, 7, 64, usize::MAX] {
            assert_eq!(round_trip(&frames, chunk), frames, "chunk = {chunk}");
        }
    }

    #[test]
    fn the_wire_layout_is_the_spill_layout() {
        // count, then the whole key slab, then the whole payload slab — the
        // exact on-disk spill layout, nested after the frame header.
        let mut wire = Vec::new();
        encode_frame(&mut wire, 9, 1, 2, &[], &batch(&[(-1, 0xAB), (7, 0xCD)]));
        let mut expect = Vec::new();
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(&(-1i64).to_le_bytes());
        expect.extend_from_slice(&7i64.to_le_bytes());
        expect.extend_from_slice(&0xABu64.to_le_bytes());
        expect.extend_from_slice(&0xCDu64.to_le_bytes());
        assert_eq!(&wire[wire.len() - expect.len()..], &expect[..]);
    }

    #[test]
    fn corrupt_and_oversized_frames_error_instead_of_panicking() {
        // Oversized length prefix.
        let mut dec = FrameDecoder::new();
        dec.feed(&((MAX_FRAME_BODY as u32 + 1).to_le_bytes()));
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized(_))));

        // Body shorter than the fixed header.
        let mut dec = FrameDecoder::new();
        dec.feed(&5u32.to_le_bytes());
        dec.feed(&[1, 2, 3, 4, 5]);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt(_))));

        // Extra section overrunning the body.
        let mut wire = Vec::new();
        encode_frame(&mut wire, 1, 0, 0, &[0xEE; 4], &batch(&[(1, 1)]));
        wire[4 + 17] = 0xFF; // inflate extra_len
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt(_))));

        // Count not matching the slab bytes.
        let mut wire = Vec::new();
        encode_frame(&mut wire, 1, 0, 0, &[], &batch(&[(1, 1), (2, 2)]));
        wire[4 + 21] = 99; // corrupt the count
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn truncation_is_visible_as_pending_bytes() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, 1, 0, 0, &[], &batch(&[(1, 1)]));
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..wire.len() - 3]);
        assert!(matches!(dec.next_frame(), Ok(None)));
        assert!(dec.pending_bytes() > 0, "truncated mid-frame");
    }
}
