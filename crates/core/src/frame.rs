//! Length-prefixed wire frames for columnar tuple batches.
//!
//! The transport layer in `ewh-exec` ships epoch-stamped [`ColumnBatch`]
//! fragments between processes over byte streams (localhost TCP
//! connections). The payload layout deliberately reuses the spill-file
//! layout (`u64` LE tuple count, then the whole key column as one `i64` LE
//! slab, then the whole payload column as one `u64` LE slab): both columns
//! are already contiguous fixed-width arrays, so on a little-endian target
//! encoding is two `Vec` memcpys — no per-tuple work on either end of the
//! wire.
//!
//! One frame on the wire:
//!
//! ```text
//! u32 LE body_len            bytes after this field
//! u8  kind                   opaque to this codec (the transport's tag space)
//! u64 LE a, u64 LE b         two scalar header words (region/epoch/credit/…)
//! u32 LE extra_len | extra   variable sidecar (migration descriptors, …)
//! u64 LE count | key slab | payload slab
//! ```
//!
//! The decoder is *incremental*: feed it byte slices as they arrive off a
//! socket (arbitrarily split or coalesced) and it yields complete frames in
//! order. Every length field is validated against `body_len` before any
//! allocation is sized from it, so a truncated or corrupt stream surfaces
//! as a [`FrameError`] — never a panic or an unbounded allocation.

use crate::batch::ColumnBatch;
use crate::types::Key;

/// Fixed bytes of one frame body: kind + a + b + extra_len + count.
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

/// The key column as raw LE bytes. On little-endian targets this is a
/// pointer cast (the memcpy happens in the caller's `extend_from_slice`);
/// the big-endian fallback pays the per-element swap to stay correct.
#[cfg(target_endian = "little")]
#[inline]
fn key_slab(keys: &[Key]) -> &[u8] {
    // SAFETY: i64 has no padding or invalid bit patterns; the slice covers
    // exactly `len * 8` initialized bytes and the borrow pins the Vec.
    unsafe { std::slice::from_raw_parts(keys.as_ptr().cast::<u8>(), keys.len() * 8) }
}

#[cfg(target_endian = "little")]
#[inline]
fn payload_slab(payloads: &[u64]) -> &[u8] {
    // SAFETY: as above, for u64.
    unsafe { std::slice::from_raw_parts(payloads.as_ptr().cast::<u8>(), payloads.len() * 8) }
}

/// Appends one encoded frame to `out` (which callers recycle across
/// frames). The batch's two columns are appended as two bulk slab copies.
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
    out.extend_from_slice(&(batch.len() as u64).to_le_bytes());
    #[cfg(target_endian = "little")]
    {
        out.extend_from_slice(key_slab(batch.keys()));
        out.extend_from_slice(payload_slab(batch.payloads()));
    }
    #[cfg(not(target_endian = "little"))]
    {
        for &k in batch.keys() {
            out.extend_from_slice(&k.to_le_bytes());
        }
        for &p in batch.payloads() {
            out.extend_from_slice(&p.to_le_bytes());
        }
    }
}

/// Decodes the key slab back into a column. Little-endian: one bulk copy
/// into the Vec's spare capacity; the fallback is the per-element loop.
fn decode_keys(slab: &[u8]) -> Vec<Key> {
    debug_assert_eq!(slab.len() % 8, 0);
    let n = slab.len() / 8;
    #[cfg(target_endian = "little")]
    {
        let mut keys = Vec::<Key>::with_capacity(n);
        // SAFETY: the destination has capacity for `n` i64s, the source
        // holds exactly `n * 8` bytes, and every bit pattern is a valid
        // i64; set_len only exposes what was just written.
        unsafe {
            std::ptr::copy_nonoverlapping(slab.as_ptr(), keys.as_mut_ptr().cast::<u8>(), n * 8);
            keys.set_len(n);
        }
        keys
    }
    #[cfg(not(target_endian = "little"))]
    slab.chunks_exact(8)
        .map(|c| Key::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

fn decode_payloads(slab: &[u8]) -> Vec<u64> {
    debug_assert_eq!(slab.len() % 8, 0);
    let n = slab.len() / 8;
    #[cfg(target_endian = "little")]
    {
        let mut payloads = Vec::<u64>::with_capacity(n);
        // SAFETY: as in `decode_keys`, for u64.
        unsafe {
            std::ptr::copy_nonoverlapping(slab.as_ptr(), payloads.as_mut_ptr().cast::<u8>(), n * 8);
            payloads.set_len(n);
        }
        payloads
    }
    #[cfg(not(target_endian = "little"))]
    slab.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
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
    // extra occupies [21, 21 + extra_len); the count field is the 8 bytes
    // after. Checked arithmetic: extra_len is attacker-controlled.
    let extra_end = 21usize
        .checked_add(extra_len)
        .filter(|end| end.checked_add(8).is_some_and(|c| c <= body.len()))
        .ok_or_else(|| {
            FrameError::Corrupt(format!(
                "extra section of {extra_len} bytes leaves no room for the tuple count"
            ))
        })?;
    let extra = body[21..extra_end].to_vec();
    let count =
        u64::from_le_bytes(body[extra_end..extra_end + 8].try_into().expect("8 bytes")) as usize;
    let slabs = body.len() - extra_end - 8;
    if count
        .checked_mul(16)
        .map(|need| need != slabs)
        .unwrap_or(true)
    {
        return Err(FrameError::Corrupt(format!(
            "tuple count {count} does not match {slabs} slab bytes"
        )));
    }
    let keys = decode_keys(&body[extra_end + 8..extra_end + 8 + count * 8]);
    let payloads = decode_payloads(&body[extra_end + 8 + count * 8..]);
    Ok(Frame {
        kind,
        a,
        b,
        extra,
        batch: ColumnBatch::from_columns(keys, payloads),
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
