//! The distributed exchange: one framed link type over one TCP connection,
//! behind the [`FragmentPort`] contract.
//!
//! A link is a [`LinkSender`] and a [`LinkReceiver`] at the two ends of one
//! localhost TCP connection: frames (see [`ewh_core::encode_frame`]) flow
//! from sender to receiver, `CREDIT` frames flow back on the same socket.
//! Each half owns two I/O threads — the sender a writer and a credit
//! reader, the receiver a frame reader and a credit writer — so the
//! engine's pool tasks never block on a socket: a task that would overrun
//! the link's credit window parks exactly like it would on a full
//! in-process queue. Both halves are generic over what the link carries
//! ([`Framed`]): a [`RemoteQueue`] is the two halves of a `Delivery` link
//! joined in one process behind the engine's mapper → reducer contract;
//! `ewh-bench transport` ships relations over the two halves of a
//! `ColumnBatch` link in two processes.
//!
//! ## What a batch looks like on the wire
//!
//! A [`Delivery::Batch`] is one `BATCH` frame: header word `a` holds the
//! relation (high half) and the head region (low half), `b` the epoch
//! stamp, the frame's record (see [`ewh_core::encode_record`]) the tuples
//! once, and the `extra` sidecar the sibling regions as `u32` LE ids — the
//! other regions of the receiving reducer that take a copy of the same
//! tuples (empty for one region). So a replicated fragment crosses a link
//! once, whatever number of that reducer's regions it feeds; the reducer
//! makes the copies. A [`Delivery::Adopt`] is one `ADOPT` frame: `a` holds
//! the region, the frame's record the region's sealed build, and the
//! sidecar its tallies and spilled-run descriptors, then its pending probe
//! tuples as a second record. Every region id off the wire — a batch's head
//! and siblings, a `MIGRATE`'s or an `ADOPT`'s region — is checked against
//! the run's region count before any reducer indexes by it, and a batch's
//! ids must be distinct.
//!
//! ## Credit-based flow control
//!
//! An in-process channel bounds *resident tuples*; a byte stream has no
//! shared counter to bound against. The sender therefore holds a
//! `CreditGate` — the channel's own admission window (see the `channel`
//! module) without the queue: every sent item charges its tuple weight
//! against the window (a grouped batch: its tuples once per region it
//! feeds), and the receiver returns that weight as a `CREDIT`
//! frame once the item is popped from its staging channel. The window's
//! `used` therefore counts tuples in flight end to end — in the writer's
//! buffer, on the wire, and staged at the receiver — so
//! [`FragmentPort::used_tuples`] keeps feeding the migration coordinator's
//! backlog heuristics unchanged, and swapping a local queue for a remote
//! one cannot introduce a new deadlock: it is the same rule.
//!
//! ## End of stream, ordering and failure
//!
//! Frames are written by one thread and decoded in arrival order by one
//! thread: the link is FIFO, which is the same no-reordering assumption the
//! in-process queues give the epoch-fencing protocol. Each direction ends
//! with `CLOSE` followed by a half-close (`shutdown(Write)`; with a cloned
//! socket, dropping one handle does not end the stream). Anything else
//! that ends a stream — EOF without `CLOSE`, an I/O error, a corrupt,
//! truncated or unexpected frame — fails the link's [`CancelToken`] with
//! `transport failure: <reason>`: on an engine link that is the query's
//! own token, which every link of the run holds a clone of, so the trip
//! cancels the query cooperatively. The sender abandons its gate, releasing
//! every parked producer (their later pushes are discarded — the run is
//! doomed). The receiver hands its consumer the in-band [`Delivery::Abort`]
//! (on a `Delivery` link), closes its staging channel and ends its credit
//! stream without `CLOSE`, so the sender trips too. Nothing panics on a bad
//! byte.

use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use ewh_core::{
    decode_record, encode_frame, encode_record, ColumnBatch, Frame, FrameDecoder, Rel, TUPLE_BYTES,
};

use super::channel::{Channel, CreditGate, Weigh};
use super::port::{FragmentPort, PortPop};
use super::queue::{Delivery, RegionBatch};
use super::reducer::RegionState;
use super::runtime::{CancelToken, Waker};
use super::spill::SpillRun;

// The transport's tag space within the frame codec's opaque `kind` byte.
const FRAME_BATCH: u8 = 1;
const FRAME_SEAL_R1: u8 = 2;
const FRAME_SEAL_ALL: u8 = 3;
const FRAME_MIGRATE: u8 = 4;
const FRAME_ADOPT: u8 = 5;
const FRAME_FINISH: u8 = 6;
const FRAME_ABORT: u8 = 7;
const FRAME_CREDIT: u8 = 8;
const FRAME_CLOSE: u8 = 9;
const FRAME_XBATCH: u8 = 10;

/// What one mapper→reducer link looks like to the migration coordinator:
/// the Bala-Join tradeoff in two numbers. Shipping a region's sealed state
/// across a thin link can cost more than the backlog it relieves; the
/// coordinator charges this profile instead of a flat per-tuple factor
/// when links are configured (see `coordinator.rs`).
#[derive(Clone, Copy, Debug)]
pub struct LinkProfile {
    /// Sustained link throughput. Tuples are [`TUPLE_BYTES`] on the wire.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way latency charged once per migration handshake.
    pub rtt_secs: f64,
}

impl LinkProfile {
    /// Seconds to ship `tuples` of sealed state over this link.
    pub fn ship_secs(&self, tuples: u64) -> f64 {
        self.rtt_secs + tuples as f64 * TUPLE_BYTES as f64 / self.bandwidth_bytes_per_sec.max(1.0)
    }
}

/// Per-run transport settings (part of `EngineConfig`): every mapper →
/// reducer link is one localhost TCP connection.
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// Fault injection for tests: flip a length byte in the Nth data frame
    /// (0-based) so the decoder sees a corrupt stream mid-run.
    pub corrupt_frame: Option<u64>,
}

impl TransportConfig {
    pub fn tcp() -> Self {
        TransportConfig {
            corrupt_frame: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// What a link carries, and how it crosses the wire: a [`Delivery`] on an
/// engine link, a [`ColumnBatch`] on a relation-shipping one.
pub trait Framed: Weigh + Send + Sized + 'static {
    /// Appends the item as one frame.
    fn encode(&self, out: &mut Vec<u8>);

    /// Rebuilds an item from a frame; an `Err` fails the link.
    fn decode(frame: Frame) -> Result<Self, String>;

    /// Handed to the consumer in-band when the link dies, before its staging
    /// channel closes. `None`: the close alone ends the consumer.
    fn abort() -> Option<Self> {
        None
    }
}

fn rel_code(rel: Rel) -> u64 {
    match rel {
        Rel::R1 => 0,
        Rel::R2 => 1,
    }
}

fn code_rel(code: u64) -> Result<Rel, String> {
    match code {
        0 => Ok(Rel::R1),
        1 => Ok(Rel::R2),
        other => Err(format!("unknown relation code {other}")),
    }
}

fn put_run(out: &mut Vec<u8>, run: &SpillRun) {
    out.extend_from_slice(&run.offset().to_le_bytes());
    out.extend_from_slice(&run.tuples().to_le_bytes());
    let kr = run.key_range();
    out.extend_from_slice(&kr.lo.to_le_bytes());
    out.extend_from_slice(&kr.hi.to_le_bytes());
}

/// Serializes the non-tuple state of a shipped region: tallies and the
/// *descriptors* of its spilled runs. The records themselves stay in the
/// shared per-query spill segment — they travel by offset, not by value,
/// exactly like an in-process migration. No seal flag: a shipped region
/// is sealed, and the decoder rebuilds it so.
fn encode_region_meta(state: &RegionState) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&state.input.to_le_bytes());
    out.extend_from_slice(&state.output.to_le_bytes());
    out.extend_from_slice(&state.checksum.to_le_bytes());
    out.extend_from_slice(&(state.spilled_build.len() as u32).to_le_bytes());
    for run in &state.spilled_build {
        put_run(&mut out, run);
    }
    out.extend_from_slice(&(state.spilled_pending.len() as u32).to_le_bytes());
    for run in &state.spilled_pending {
        put_run(&mut out, run);
    }
    out
}

/// A bounds-checked cursor over a meta sidecar. Every length is validated
/// before the slice, so corrupt metadata surfaces as `Err`, never a panic.
struct Meta<'a>(&'a [u8]);

impl Meta<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.0.len() < n {
            return Err(format!(
                "meta sidecar truncated: wanted {n} bytes, {} left",
                self.0.len()
            ));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A run descriptor names nothing but an extent of the query's own
    /// segment: one that overflows is rejected here, one past the segment
    /// tail at reload (`SpillContext::read_run_into`).
    fn run(&mut self) -> Result<SpillRun, String> {
        let offset = self.u64()?;
        let tuples = self.u64()?;
        let lo = self.i64()?;
        let hi = self.i64()?;
        SpillRun::from_parts(offset, tuples, ewh_core::KeyRange { lo, hi })
    }

    fn runs(&mut self) -> Result<Vec<SpillRun>, String> {
        let n = self.u32()? as usize;
        // The count is attacker-controlled: cap the pre-allocation and let
        // `take` catch a lying count on the first truncated run.
        let mut runs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            runs.push(self.run()?);
        }
        Ok(runs)
    }
}

/// A region id from a header word: one that does not fit a `u32` is
/// rejected, not truncated into range.
fn region_id(word: u64) -> Result<u32, String> {
    u32::try_from(word).map_err(|_| format!("region {word} out of range"))
}

/// The region ids a delivery off the wire names, checked against the run's
/// `regions` before any reducer indexes by them: each in range, and a
/// batch's siblings distinct from its head and from each other.
fn check_regions(delivery: &Delivery, regions: usize) -> Result<(), String> {
    let (head, siblings): (u32, &[u32]) = match delivery {
        Delivery::Batch(rb) => (rb.region, &rb.siblings),
        Delivery::Migrate { region } | Delivery::Adopt { region, .. } => (*region, &[]),
        _ => return Ok(()),
    };
    let ids = || std::iter::once(head).chain(siblings.iter().copied());
    for (i, region) in ids().enumerate() {
        if region as usize >= regions {
            return Err(format!("region {region} out of range ({regions} regions)"));
        }
        if ids().take(i).any(|earlier| earlier == region) {
            return Err(format!("region {region} named twice in one batch"));
        }
    }
    Ok(())
}

impl Framed for Delivery {
    /// Tuple-carrying deliveries ship their columns as the frame's record;
    /// a batch's siblings ride in the sidecar; `Adopt` ships its build as
    /// the frame's record and its pending probe tuples as a second record
    /// in the sidecar, after the meta.
    fn encode(&self, out: &mut Vec<u8>) {
        let empty = ColumnBatch::new();
        match self {
            Delivery::Batch(rb) => {
                let siblings: Vec<u8> = rb.siblings.iter().flat_map(|s| s.to_le_bytes()).collect();
                encode_frame(
                    out,
                    FRAME_BATCH,
                    rel_code(rb.rel) << 32 | rb.region as u64,
                    rb.epoch,
                    &siblings,
                    &rb.tuples,
                )
            }
            Delivery::SealR1 => encode_frame(out, FRAME_SEAL_R1, 0, 0, &[], &empty),
            Delivery::SealAll => encode_frame(out, FRAME_SEAL_ALL, 0, 0, &[], &empty),
            Delivery::Migrate { region } => {
                encode_frame(out, FRAME_MIGRATE, *region as u64, 0, &[], &empty)
            }
            Delivery::Adopt { region, state } => {
                let mut extra = encode_region_meta(state);
                encode_record(&mut extra, state.pending.keys(), state.pending.payloads());
                encode_frame(out, FRAME_ADOPT, *region as u64, 0, &extra, &state.build);
            }
            Delivery::Finish => encode_frame(out, FRAME_FINISH, 0, 0, &[], &empty),
            Delivery::Abort => encode_frame(out, FRAME_ABORT, 0, 0, &[], &empty),
        }
    }

    fn decode(frame: Frame) -> Result<Delivery, String> {
        match frame.kind {
            FRAME_BATCH => {
                if !frame.extra.len().is_multiple_of(4) {
                    return Err(format!(
                        "a sibling sidecar of {} bytes is not a list of u32 ids",
                        frame.extra.len()
                    ));
                }
                let siblings = frame.extra.chunks_exact(4);
                Ok(Delivery::Batch(RegionBatch {
                    region: (frame.a & 0xFFFF_FFFF) as u32,
                    rel: code_rel(frame.a >> 32)?,
                    epoch: frame.b,
                    tuples: frame.batch,
                    siblings: siblings
                        .map(|id| u32::from_le_bytes(id.try_into().expect("4")))
                        .collect(),
                }))
            }
            FRAME_SEAL_R1 => Ok(Delivery::SealR1),
            FRAME_SEAL_ALL => Ok(Delivery::SealAll),
            FRAME_MIGRATE => Ok(Delivery::Migrate {
                region: region_id(frame.a)?,
            }),
            FRAME_ADOPT => {
                // A shipped region is sealed, and so is the default one.
                let mut state = RegionState::default();
                state.build = frame.batch;
                let mut meta = Meta(&frame.extra);
                state.input = meta.u64()?;
                state.output = meta.u64()?;
                state.checksum = meta.u64()?;
                state.spilled_build = meta.runs()?;
                state.spilled_pending = meta.runs()?;
                state.pending =
                    decode_record(meta.0, ColumnBatch::new()).map_err(|e| e.to_string())?;
                Ok(Delivery::Adopt {
                    region: region_id(frame.a)?,
                    state: Box::new(state),
                })
            }
            FRAME_FINISH => Ok(Delivery::Finish),
            FRAME_ABORT => Ok(Delivery::Abort),
            other => Err(format!("unexpected frame kind {other} on a delivery link")),
        }
    }

    /// The reducer's native unwind path. The run's broadcast
    /// `Abort` cannot reach this reducer: it would have to cross the wire
    /// that just died.
    fn abort() -> Option<Delivery> {
        Some(Delivery::Abort)
    }
}

impl Framed for ColumnBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_frame(out, FRAME_XBATCH, 0, 0, &[], self);
    }

    fn decode(frame: Frame) -> Result<ColumnBatch, String> {
        match frame.kind {
            FRAME_XBATCH => Ok(frame.batch),
            other => Err(format!("unexpected frame kind {other} on a batch link")),
        }
    }
}

// ---------------------------------------------------------------------------
// Stream plumbing
// ---------------------------------------------------------------------------

/// Spawns one named transport I/O thread.
fn io_thread(name: &str, body: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name.into()).spawn(body)
}

/// Ends this side's stream: `CLOSE`, then the half-close. Returns the bytes
/// written.
fn write_close(out: &mut TcpStream) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(64);
    encode_frame(&mut buf, FRAME_CLOSE, 0, 0, &[], &ColumnBatch::new());
    out.write_all(&buf)?;
    out.shutdown(Shutdown::Write)?;
    Ok(buf.len() as u64)
}

/// The reader loop of both halves: read into a `buf_len`-byte buffer, feed
/// the incremental decoder, hand each frame to `on_frame`. `Ok` only for
/// the one clean end — `CLOSE`, then EOF; whatever else ends the stream is
/// returned as the reason.
fn pump_frames(
    src: &mut TcpStream,
    buf_len: usize,
    mut on_frame: impl FnMut(Frame) -> Result<(), String>,
) -> Result<(), String> {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; buf_len];
    let mut closed = false;
    loop {
        match src.read(&mut buf) {
            Ok(0) if dec.pending_bytes() > 0 => return Err("truncated mid-frame".into()),
            Ok(0) if closed => return Ok(()),
            Ok(0) => return Err("peer vanished without CLOSE".into()),
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
        while let Some(frame) = dec.next_frame().map_err(|e| e.to_string())? {
            match frame.kind {
                kind if closed => return Err(format!("frame kind {kind} after CLOSE")),
                FRAME_CLOSE => closed = true,
                _ => on_frame(frame)?,
            }
        }
    }
}

/// Fails the link's token; the first reason wins.
fn trip(cancel: &CancelToken, why: String) {
    cancel.fail(format!("transport failure: {why}"));
}

fn join_all(threads: &mut Vec<JoinHandle<()>>) {
    for handle in threads.drain(..) {
        let _ = handle.join();
    }
}

// ---------------------------------------------------------------------------
// The two halves of a link
// ---------------------------------------------------------------------------

/// The producing half of a link: a `CreditGate` charged on send, a writer
/// thread that puts frames on the socket in order, and a credit reader that
/// returns the receiver's `CREDIT`s to the gate.
pub struct LinkSender<T> {
    gate: Arc<CreditGate>,
    cancel: CancelToken,
    /// Encoded frames for the writer; `None` once the stream is ended.
    frames: Option<mpsc::Sender<Vec<u8>>>,
    sock: TcpStream,
    wire_bytes: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
    item: PhantomData<fn(T)>,
}

impl<T: Framed> LinkSender<T> {
    /// Connects to a [`LinkReceiver::accept`]ing peer. `window_tuples`
    /// bounds the tuples in flight; the link has a cancel token of its own.
    pub fn connect(addr: &str, window_tuples: usize) -> io::Result<Self> {
        let sock = TcpStream::connect(addr)?;
        Self::spawn(sock, window_tuples, CancelToken::new(), None)
    }

    fn spawn(
        sock: TcpStream,
        window_tuples: usize,
        cancel: CancelToken,
        corrupt_frame: Option<u64>,
    ) -> io::Result<Self> {
        sock.set_nodelay(true)?;
        let gate = CreditGate::new(window_tuples);
        let wire_bytes = Arc::new(AtomicU64::new(0));
        let (frames, queued) = mpsc::channel::<Vec<u8>>();
        let fail = {
            let (cancel, gate) = (cancel.clone(), gate.clone());
            move |why: String| {
                trip(&cancel, why);
                gate.abandon();
            }
        };

        // Writer: frames in FIFO order (the optional test fault inflates
        // the Nth one's extra_len field), then `CLOSE` once the stream is
        // ended.
        let mut out = sock.try_clone()?;
        let (wire, fail_write) = (wire_bytes.clone(), fail.clone());
        let writer = io_thread("ewh-link-tx", move || {
            let mut n = 0u64;
            let written = queued
                .iter()
                .try_for_each(|mut buf| {
                    if corrupt_frame == Some(n) && buf.len() > 21 {
                        buf[21] ^= 0xFF;
                    }
                    n += 1;
                    out.write_all(&buf)?;
                    wire.fetch_add(buf.len() as u64, Ordering::Relaxed);
                    Ok(())
                })
                .and_then(|()| write_close(&mut out));
            match written {
                Ok(close) => {
                    wire.fetch_add(close, Ordering::Relaxed);
                }
                Err(e) => fail_write(format!("write: {e}")),
            }
        })?;

        // Credit reader: returns window to the gate, waking parked pushers.
        let mut src = sock.try_clone()?;
        let credited = gate.clone();
        let credits = io_thread("ewh-link-credit-rx", move || {
            let ended = pump_frames(&mut src, 4096, |f| match f.kind {
                FRAME_CREDIT => {
                    credited.release(f.a as usize);
                    Ok(())
                }
                other => Err(format!("unexpected frame kind {other}")),
            });
            if let Err(why) = ended {
                fail(format!("credit stream: {why}"));
            }
        })?;

        Ok(LinkSender {
            gate,
            cancel,
            frames: Some(frames),
            sock,
            wire_bytes,
            threads: vec![writer, credits],
            item: PhantomData,
        })
    }

    /// Non-blocking bounded push for pool tasks; hands the item back (with
    /// `park` registered) when the window is full. Once the token is
    /// cancelled the item is discarded: the run is unwinding.
    pub(crate) fn offer(&self, item: T, park: Option<&Waker>) -> Result<(), T> {
        if self.cancel.is_cancelled() {
            return Ok(());
        }
        if !self.gate.admit_or_park(item.weight(), park) {
            return Err(item);
        }
        self.send(&item);
        Ok(())
    }

    pub(crate) fn push_unbounded(&self, item: T) {
        self.gate.admit_unbounded(item.weight());
        self.send(&item);
    }

    /// Blocking bounded push, for client threads outside the pool. `Err`
    /// carries the failure reason: every trip this half sees abandons its
    /// gate.
    pub fn push(&self, item: T) -> Result<(), String> {
        if !self.gate.admit_blocking(item.weight()) {
            let why = self.cancel.reason();
            return Err(why.unwrap_or_else(|| "link failed".into()));
        }
        self.send(&item);
        Ok(())
    }

    fn send(&self, item: &T) {
        let mut buf = Vec::new();
        item.encode(&mut buf);
        if let Some(frames) = &self.frames {
            // A send after the writer died parks the frame in a dead
            // channel; the token is already failed.
            let _ = frames.send(buf);
        }
    }

    /// Bytes the writer put on the wire, frame headers (and, once the
    /// stream has ended, its `CLOSE`) included.
    fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// Ends the stream and waits for the receiver to end its credit stream.
    /// Returns the bytes put on the wire, or the failure reason.
    pub fn finish(mut self) -> Result<u64, String> {
        self.frames = None;
        join_all(&mut self.threads);
        match self.cancel.reason() {
            Some(why) => Err(why),
            None => Ok(self.wire_bytes()),
        }
    }
}

impl<T> Drop for LinkSender<T> {
    fn drop(&mut self) {
        // A sender dropped before its stream ended (an unwinding client)
        // must not look finished: cut the socket first, so the writer fails
        // instead of sending `CLOSE`.
        if self.frames.is_some() {
            let _ = self.sock.shutdown(Shutdown::Both);
            self.frames = None;
        }
        join_all(&mut self.threads);
    }
}

/// The consuming half of a link: a reader thread that decodes frames into a
/// staging [`Channel`] (whose waker plumbing parks and wakes the consumer
/// unchanged), and a credit writer that returns each popped item's weight
/// as a `CREDIT` frame, coalescing what is pending into one frame per wake.
pub struct LinkReceiver<T> {
    staging: Arc<Channel<T>>,
    cancel: CancelToken,
    /// Weights to credit back; `None` once the credit stream is ended.
    credits: Option<mpsc::Sender<u64>>,
    threads: Vec<JoinHandle<()>>,
}

impl<T: Framed> LinkReceiver<T> {
    /// Accepts one [`LinkSender::connect`]. The link has a cancel token of
    /// its own.
    pub fn accept(listener: &TcpListener) -> io::Result<Self> {
        let (sock, _) = listener.accept()?;
        Self::spawn(sock, CancelToken::new(), |_| Ok(()))
    }

    /// `check` vets every decoded item before it is staged; an `Err` fails
    /// the link like a corrupt frame.
    fn spawn(
        sock: TcpStream,
        cancel: CancelToken,
        check: impl Fn(&T) -> Result<(), String> + Send + 'static,
    ) -> io::Result<Self> {
        sock.set_nodelay(true)?;
        // Staging is pushed unbounded: what it holds is bounded by the
        // sender's credit window, which only a pop replenishes.
        let staging = Arc::new(Channel::new(usize::MAX));
        let (credits, returned) = mpsc::channel::<u64>();

        // Reader: decodes into the staging channel until the sender's
        // `CLOSE` and half-close. A dying stream also ends the credit stream
        // without `CLOSE`, so the sender trips too, and drains the socket,
        // so its writer never blocks on a reader that is gone.
        let mut src = sock.try_clone()?;
        let (staged, tripped) = (staging.clone(), cancel.clone());
        let reader = io_thread("ewh-link-rx", move || {
            let ended = pump_frames(&mut src, 64 * 1024, |f| {
                let item = T::decode(f)?;
                check(&item)?;
                staged.push_unbounded(item);
                Ok(())
            });
            if let Err(why) = &ended {
                trip(&tripped, format!("data stream: {why}"));
                if let Some(abort) = T::abort() {
                    staged.push_unbounded(abort);
                }
            }
            staged.close();
            if ended.is_err() {
                let _ = src.shutdown(Shutdown::Write);
                let _ = io::copy(&mut src, &mut io::sink());
            }
        })?;

        let mut out = sock;
        let credit_cancel = cancel.clone();
        let credit_writer = io_thread("ewh-link-credit-tx", move || {
            let empty = ColumnBatch::new();
            let mut buf = Vec::with_capacity(64);
            let written = returned
                .iter()
                .try_for_each(|w| {
                    buf.clear();
                    let w = w + returned.try_iter().sum::<u64>();
                    encode_frame(&mut buf, FRAME_CREDIT, w, 0, &[], &empty);
                    out.write_all(&buf)
                })
                .and_then(|()| write_close(&mut out));
            if let Err(e) = written {
                trip(&credit_cancel, format!("credit write: {e}"));
            }
        })?;

        Ok(LinkReceiver {
            staging,
            cancel,
            credits: Some(credits),
            threads: vec![reader, credit_writer],
        })
    }

    /// Non-blocking pop for pool tasks; a popped item's weight goes back to
    /// the sender as credit.
    pub(crate) fn take(&self, park: Option<&Waker>) -> PortPop<T> {
        let popped = self.staging.take(park);
        if let PortPop::Item(item) = &popped {
            self.credit(item.weight());
        }
        popped
    }

    /// Blocking pop for client threads: `None` once the stream has ended —
    /// cleanly or not, which [`join`](Self::join) tells.
    pub fn pop(&self) -> Option<T> {
        let item = self.staging.pop()?;
        self.credit(item.weight());
        Some(item)
    }

    fn credit(&self, w: usize) {
        if let (true, Some(credits)) = (w > 0, &self.credits) {
            let _ = credits.send(w as u64);
        }
    }

    /// Ends the credit stream and joins both threads; `Err` carries the
    /// failure reason if the stream did not end with a clean `CLOSE`.
    pub fn join(mut self) -> Result<(), String> {
        self.credits = None;
        join_all(&mut self.threads);
        self.cancel.reason().map_or(Ok(()), Err)
    }
}

impl<T> Drop for LinkReceiver<T> {
    fn drop(&mut self) {
        self.credits = None;
        join_all(&mut self.threads);
    }
}

// ---------------------------------------------------------------------------
// RemoteQueue
// ---------------------------------------------------------------------------

/// A mapper→reducer delivery channel carried over one TCP connection: the
/// two halves of a `Delivery` link joined in-process, speaking the exact
/// [`FragmentPort`] contract of the in-process [`Channel`].
pub struct RemoteQueue {
    tx: LinkSender<Delivery>,
    rx: LinkReceiver<Delivery>,
}

impl RemoteQueue {
    /// Opens the connection and spawns both halves' four I/O threads.
    /// `cancel` is the query's token, shared by every link of a run; a dead
    /// or corrupt stream, or a delivery naming a region outside the run's
    /// `regions`, fails it.
    pub fn spawn(
        cfg: &TransportConfig,
        capacity_tuples: usize,
        regions: usize,
        cancel: CancelToken,
    ) -> io::Result<Arc<RemoteQueue>> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let out = TcpStream::connect(listener.local_addr()?)?;
        let (inbound, _) = listener.accept()?;
        let check = move |d: &Delivery| check_regions(d, regions);
        Ok(Arc::new(RemoteQueue {
            tx: LinkSender::spawn(out, capacity_tuples, cancel.clone(), cfg.corrupt_frame)?,
            rx: LinkReceiver::spawn(inbound, cancel, check)?,
        }))
    }

    /// Bytes the data writer put on the wire (frame headers included).
    pub fn wire_bytes(&self) -> u64 {
        self.tx.wire_bytes()
    }
}

impl Drop for RemoteQueue {
    fn drop(&mut self) {
        // Both directions end before either half joins: the sender's credit
        // reader waits for the receiver's `CLOSE`.
        self.tx.frames = None;
        self.rx.credits = None;
    }
}

impl FragmentPort for RemoteQueue {
    type Item = Delivery;

    fn offer(&self, item: Delivery, park: Option<&Waker>) -> Result<(), Delivery> {
        self.tx.offer(item, park)
    }

    fn push_unbounded(&self, item: Delivery) {
        self.tx.push_unbounded(item);
    }

    fn take(&self, park: Option<&Waker>) -> PortPop<Delivery> {
        self.rx.take(park)
    }

    /// Window charged but not yet credited back: tuples in the writer's
    /// buffer, on the wire, and staged on the consumer side — the remote
    /// generalization of queue depth the coordinator's backlog heuristics
    /// expect.
    fn used_tuples(&self) -> usize {
        self.tx.gate.used()
    }

    fn note_blocked(&self, nanos: u64) {
        self.tx.gate.note_blocked(nanos);
    }

    fn blocked_secs(&self) -> f64 {
        self.tx.gate.blocked_secs()
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::super::port::DeliveryPort;
    use super::super::runtime::{EngineRuntime, Poll};
    use super::*;
    use ewh_core::Key;
    use std::sync::Mutex;

    fn cols(n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(n);
        for i in 0..n {
            b.push(i as Key - 3, (i as u64) << 7);
        }
        b
    }

    /// Region count of the test links: every id below it is valid.
    const REGIONS: usize = 64;

    fn batch_delivery(region: u32, n: usize) -> Delivery {
        Delivery::Batch(RegionBatch {
            region,
            rel: Rel::R2,
            epoch: region as u64 + 9,
            tuples: cols(n),
            siblings: Vec::new(),
        })
    }

    fn spawn_queue(cfg: &TransportConfig, window: usize, cancel: &CancelToken) -> Arc<RemoteQueue> {
        RemoteQueue::spawn(cfg, window, REGIONS, cancel.clone()).expect("link")
    }

    fn drain_until<T>(timeout: Duration, mut f: impl FnMut() -> Option<T>) -> T {
        let start = Instant::now();
        loop {
            if let Some(v) = f() {
                return v;
            }
            assert!(start.elapsed() < timeout, "timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn next_item(port: &DeliveryPort) -> Delivery {
        drain_until(Duration::from_secs(10), || match port.try_pop() {
            PortPop::Item(d) => Some(d),
            _ => None,
        })
    }

    /// Every delivery framed in `wire`, or the first frame's decode error.
    fn decode_frames(wire: &[u8]) -> Result<Vec<Delivery>, String> {
        let mut dec = FrameDecoder::new();
        dec.feed(wire);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().expect("valid") {
            got.push(Delivery::decode(f)?);
        }
        Ok(got)
    }

    fn decode_all(wire: &[u8]) -> Vec<Delivery> {
        decode_frames(wire).expect("decodes")
    }

    #[test]
    fn adopt_round_trips_through_the_codec() {
        let spilled = SpillRun::from_parts(4096, 1000, ewh_core::KeyRange { lo: -5, hi: 900 })
            .expect("representable extent");
        let mut state = RegionState::default();
        (state.build, state.pending) = (cols(5), cols(3));
        state.spilled_build = vec![spilled];
        (state.input, state.output, state.checksum) = (77, 12, 0xDEAD_BEEF);
        let d = Delivery::Adopt {
            region: 4,
            state: Box::new(state),
        };
        let mut wire = Vec::new();
        d.encode(&mut wire);
        let Some(Delivery::Adopt { region, state }) = decode_all(&wire).pop() else {
            panic!("wrong variant");
        };
        assert_eq!(region, 4);
        assert!(state.is_sealed(), "a shipped region is sealed");
        assert_eq!(state.build.keys(), cols(5).keys());
        assert_eq!(state.pending.payloads(), cols(3).payloads());
        assert_eq!(
            (state.input, state.output, state.checksum),
            (77, 12, 0xDEAD_BEEF)
        );
        assert_eq!(state.spilled_build.len(), 1);
        let run = &state.spilled_build[0];
        assert_eq!((run.offset(), run.tuples()), (4096, 1000));
        assert_eq!(run.key_range().lo, -5);
    }

    #[test]
    fn adopt_with_a_truncated_or_lying_pending_record_is_a_decode_error() {
        let mut state = RegionState::default();
        (state.build, state.pending) = (cols(4), cols(3));
        let mut extra = encode_region_meta(&state);
        let meta = extra.len();
        encode_record(&mut extra, state.pending.keys(), state.pending.payloads());
        let decode = |extra: &[u8]| {
            let mut wire = Vec::new();
            encode_frame(&mut wire, FRAME_ADOPT, 4, 0, extra, &state.build);
            decode_frames(&wire).map(|mut got| got.pop().expect("one frame"))
        };
        let Ok(Delivery::Adopt { state: back, .. }) = decode(&extra) else {
            panic!("an intact sidecar decodes to an adoption");
        };
        assert_eq!((back.build, back.pending), (cols(4), cols(3)));
        for cut in meta..extra.len() {
            assert!(decode(&extra[..cut]).is_err(), "sidecar cut at byte {cut}");
        }
        for count in [0, 2, 4, u64::MAX / 16, u64::MAX] {
            let mut lying = extra.clone();
            lying[meta..meta + 8].copy_from_slice(&count.to_le_bytes());
            let err = decode(&lying).expect_err("a lying count must not decode");
            assert!(err.contains("does not match"), "count {count}: {err}");
        }
    }

    #[test]
    fn an_adopt_descriptor_overflowing_the_segment_is_a_decode_error() {
        let spilled = SpillRun::from_parts(64, 3, ewh_core::KeyRange { lo: 0, hi: 2 })
            .expect("representable extent");
        let mut state = RegionState::default();
        state.spilled_pending = vec![spilled];
        let mut meta = encode_region_meta(&state);
        // The descriptor is the sidecar's last 32 bytes; point its offset
        // at the end of the address space.
        let at = meta.len() - 32;
        meta[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut wire = Vec::new();
        encode_frame(&mut wire, FRAME_ADOPT, 4, 0, &meta, &ColumnBatch::new());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frame = dec.next_frame().expect("valid frame").expect("complete");
        let err = Delivery::decode(frame).expect_err("hostile offset must not decode");
        assert!(err.contains("overflows"), "got: {err}");
    }

    #[test]
    fn every_control_delivery_survives_the_wire() {
        let deliveries = [
            Delivery::SealR1,
            Delivery::SealAll,
            Delivery::Migrate { region: 7 },
            Delivery::Finish,
            Delivery::Abort,
        ];
        let mut wire = Vec::new();
        for d in &deliveries {
            d.encode(&mut wire);
        }
        let got = decode_all(&wire);
        assert_eq!(got.len(), 5);
        assert!(matches!(got[0], Delivery::SealR1));
        assert!(matches!(got[1], Delivery::SealAll));
        assert!(matches!(got[2], Delivery::Migrate { region: 7 }));
        assert!(matches!(got[3], Delivery::Finish));
        assert!(matches!(got[4], Delivery::Abort));
    }

    #[test]
    fn tcp_link_round_trips_in_order() {
        let token = CancelToken::new();
        let q = spawn_queue(&TransportConfig::tcp(), 1 << 20, &token);
        let port: &DeliveryPort = &*q;
        for region in 0..32u32 {
            assert!(port.try_push(batch_delivery(region, 100)).is_ok());
        }
        port.push_unbounded(Delivery::SealAll);
        for region in 0..32u32 {
            let Delivery::Batch(rb) = next_item(port) else {
                panic!("expected a batch")
            };
            assert_eq!(rb.region, region, "FIFO order preserved");
            assert_eq!(rb.epoch, region as u64 + 9);
            assert_eq!(rb.tuples.keys(), cols(100).keys());
            assert_eq!(rb.tuples.payloads(), cols(100).payloads());
        }
        assert!(matches!(next_item(port), Delivery::SealAll));
        // Credits drain the window back to zero.
        drain_until(Duration::from_secs(10), || {
            (port.used_tuples() == 0).then_some(())
        });
        assert!(!token.is_cancelled());
        assert!(q.wire_bytes() > 32 * 100 * TUPLE_BYTES);
    }

    /// A grouped batch crosses the link as one frame — its tuples once, its
    /// siblings in the sidecar — and charges the window a copy per region,
    /// which its pop credits back in full.
    #[test]
    fn a_grouped_batch_crosses_once_and_credits_what_it_charged() {
        let token = CancelToken::new();
        let q = spawn_queue(&TransportConfig::tcp(), 1 << 20, &token);
        let port: &DeliveryPort = &*q;
        let grouped = |region: u32, siblings: Vec<u32>| {
            Delivery::Batch(RegionBatch {
                region,
                rel: Rel::R1,
                epoch: 3,
                tuples: cols(100),
                siblings,
            })
        };
        let before = q.wire_bytes();
        assert!(port.try_push(grouped(0, (1..8).collect())).is_ok());
        assert_eq!(port.used_tuples(), 800, "charged a copy per region");
        let Delivery::Batch(rb) = next_item(port) else {
            panic!("expected a batch")
        };
        assert_eq!((rb.region, rb.rel, rb.epoch), (0, Rel::R1, 3));
        assert_eq!(rb.siblings, (1..8).collect::<Vec<u32>>());
        assert_eq!(rb.tuples, cols(100));
        drain_until(Duration::from_secs(10), || {
            (port.used_tuples() == 0).then_some(())
        });
        // One slab pair, not eight: the frame is the tuples once plus a
        // header and seven 4-byte ids.
        let frame = ewh_core::FRAME_HEADER_BYTES as u64 + 7 * 4 + 100 * TUPLE_BYTES;
        let wire = drain_until(Duration::from_secs(10), || {
            let wire = q.wire_bytes() - before;
            (wire >= frame).then_some(wire)
        });
        assert_eq!(wire, frame);
        assert!(!token.is_cancelled());
    }

    /// Region ids off the wire are checked before a reducer could index by
    /// them: a hand-encoded frame naming one out of range, or naming one
    /// twice, trips the latch with a reason that names it, and the consumer
    /// gets the in-band `Abort` — never a panic.
    #[test]
    fn a_frame_naming_a_bad_region_trips_the_latch() {
        let ids = |ids: &[u32]| -> Vec<u8> { ids.iter().flat_map(|i| i.to_le_bytes()).collect() };
        let out_of_range = REGIONS as u64;
        let cases: [(u8, u64, Vec<u8>, String); 7] = [
            (
                FRAME_BATCH,
                1 << 32 | out_of_range,
                vec![],
                format!("region {out_of_range}"),
            ),
            (FRAME_BATCH, 1 << 32 | 2, ids(&[3, 70]), "region 70".into()),
            (
                FRAME_BATCH,
                1 << 32 | 2,
                ids(&[3, 2]),
                "region 2 named twice".into(),
            ),
            (
                FRAME_BATCH,
                1 << 32 | 2,
                ids(&[5, 3, 5]),
                "region 5 named twice".into(),
            ),
            (FRAME_BATCH, 2, vec![0; 6], "6 bytes".into()),
            (
                FRAME_MIGRATE,
                out_of_range,
                vec![],
                format!("region {out_of_range}"),
            ),
            (
                FRAME_MIGRATE,
                1 << 32,
                vec![],
                format!("region {}", 1u64 << 32),
            ),
        ];
        for (kind, a, extra, reason) in cases {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let mut peer =
                TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
            let token = CancelToken::new();
            let accepted = listener.accept().expect("accept").0;
            let check = |d: &Delivery| check_regions(d, REGIONS);
            let rx = LinkReceiver::spawn(accepted, token.clone(), check).expect("receiver");
            let mut wire = Vec::new();
            batch_delivery(1, 4).encode(&mut wire);
            encode_frame(&mut wire, kind, a, 0, &extra, &cols(4));
            peer.write_all(&wire).expect("write");
            // The stream then ends without `CLOSE`: a frame that slipped
            // through would trip the latch for that instead.
            peer.shutdown(Shutdown::Write).expect("half-close");
            drain_until(Duration::from_secs(10), || {
                token.is_cancelled().then_some(())
            });
            let why = token.reason().expect("tripped");
            assert!(why.contains(&reason), "{reason:?} not in {why:?}");
            let mut got = Vec::new();
            while let Some(d) = drain_until(Duration::from_secs(10), || match rx.take(None) {
                PortPop::Item(d) => Some(Some(d)),
                PortPop::Closed => Some(None),
                PortPop::Empty => None,
            }) {
                got.push(d);
            }
            assert!(
                matches!(got[..], [Delivery::Batch(_), Delivery::Abort]),
                "{got:?}"
            );
            drop(peer);
        }
    }

    #[test]
    fn the_window_bounces_like_a_full_queue() {
        let token = CancelToken::new();
        let q = spawn_queue(&TransportConfig::tcp(), 100, &token);
        let port: &DeliveryPort = &*q;
        assert!(port.try_push(batch_delivery(0, 80)).is_ok());
        let bounced = port.try_push(batch_delivery(1, 50));
        assert!(bounced.is_err(), "window overrun hands the delivery back");
        // Popping the staged batch returns credit and re-admits.
        next_item(port);
        drain_until(Duration::from_secs(10), || {
            port.try_push(batch_delivery(1, 50)).is_ok().then_some(())
        });
    }

    #[test]
    fn a_corrupt_frame_trips_the_failure_latch_and_aborts_in_band() {
        let token = CancelToken::new();
        let cfg = TransportConfig {
            corrupt_frame: Some(0),
        };
        let q = spawn_queue(&cfg, 1 << 20, &token);
        let port: &DeliveryPort = &*q;
        assert!(port.try_push(batch_delivery(0, 64)).is_ok());
        let d = next_item(port);
        assert!(
            matches!(d, Delivery::Abort),
            "corruption surfaces as an in-band abort, got {d:?}"
        );
        let why = token.reason().expect("failed with a reason");
        assert!(why.starts_with("transport failure: "), "got: {why}");
        // Producers are never blocked again; pushes discard quietly.
        assert!(port.try_push(batch_delivery(1, 1 << 19)).is_ok());
        assert!(port.try_push(batch_delivery(2, 1 << 19)).is_ok());
    }

    /// The uniform end-of-stream rule on a delivery link: a sender that
    /// vanishes mid-stream without `CLOSE` trips the latch, and the reducer
    /// gets what was sent, then the in-band `Abort`, then the closed port.
    #[test]
    fn a_sender_that_vanishes_without_close_aborts_the_reducer_in_band() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let token = CancelToken::new();
        let accepted = listener.accept().expect("accept").0;
        let check = |d: &Delivery| check_regions(d, REGIONS);
        let rx = LinkReceiver::spawn(accepted, token.clone(), check).expect("receiver");
        let mut wire = Vec::new();
        batch_delivery(3, 10).encode(&mut wire);
        Delivery::SealR1.encode(&mut wire);
        peer.write_all(&wire).expect("write");
        drop(peer);
        // Nothing is popped (so no credit is written) before the trip: the
        // reason is the reader's.
        drain_until(Duration::from_secs(10), || {
            token.is_cancelled().then_some(())
        });
        let reason = token.reason().expect("tripped");
        assert!(reason.contains("without CLOSE"), "got: {reason}");
        let mut got = Vec::new();
        while let PortPop::Item(d) = rx.take(None) {
            got.push(d);
        }
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(matches!(
            got[0],
            Delivery::Batch(RegionBatch { region: 3, .. })
        ));
        assert!(matches!(got[1], Delivery::SealR1));
        assert!(matches!(got[2], Delivery::Abort));
        assert!(matches!(rx.take(None), PortPop::Closed));
    }

    /// The same rule on a relation-shipping link: the consumer drains what
    /// arrived, and `join` reports the failure.
    #[test]
    fn a_sender_that_vanishes_without_close_fails_the_shipping_join() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let rx = LinkReceiver::<ColumnBatch>::accept(&listener).expect("accept");
        let mut wire = Vec::new();
        cols(7).encode(&mut wire);
        peer.write_all(&wire).expect("write");
        drop(peer);
        drain_until(Duration::from_secs(10), || {
            rx.cancel.is_cancelled().then_some(())
        });
        assert_eq!(rx.pop().map(|b| b.len()), Some(7));
        assert!(rx.pop().is_none());
        let err = rx.join().expect_err("no CLOSE, no clean end");
        assert!(err.contains("without CLOSE"), "got: {err}");
    }

    /// And in the other direction: a receiver that vanishes releases a
    /// client blocked on the window with the failure. The credit reader may
    /// see the end of its stream before the first push, which then fails
    /// at once; otherwise the empty window admits that oversized batch and
    /// the second push blocks until the failure lands.
    #[test]
    fn a_receiver_that_vanishes_fails_a_blocked_push() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let tx = LinkSender::<ColumnBatch>::connect(&addr, 4).expect("connect");
        drop(listener.accept().expect("accept"));
        let err = match tx.push(cols(10)) {
            Err(err) => err,
            Ok(()) => tx.push(cols(10)).expect_err("nobody will ever credit it"),
        };
        assert!(err.contains("credit stream"), "got: {err}");
    }

    /// Teardown with deliveries nobody popped and a producer parked on the
    /// full window, on a healthy link and on one whose reader failed (it
    /// drains the socket until the sender's half-close): the drop ends both
    /// directions and joins all four I/O threads. Only the reader pushes
    /// into the staging channel, and only before it closes it.
    #[test]
    fn dropping_a_backlogged_queue_joins_every_io_thread() {
        let waker = Mutex::new(None);
        EngineRuntime::new(1).scope(|s| {
            let waker = &waker;
            s.spawn(move |cx| {
                *waker.lock().expect("waker") = Some(cx.waker().clone());
                Poll::Ready
            });
        });
        let waker = waker.into_inner().expect("waker").expect("spawned");
        for corrupt_frame in [None, Some(1)] {
            let token = CancelToken::new();
            let cfg = TransportConfig { corrupt_frame };
            let q = spawn_queue(&cfg, 100, &token);
            assert!(q.try_push(batch_delivery(0, 80)).is_ok());
            q.push_unbounded(Delivery::SealR1);
            if corrupt_frame.is_some() {
                drain_until(Duration::from_secs(10), || {
                    token.is_cancelled().then_some(())
                });
            } else {
                assert!(q.try_push_or_park(batch_delivery(1, 50), &waker).is_err());
            }
            let (done, dropped) = mpsc::channel();
            let dropper = std::thread::spawn(move || {
                drop(q);
                let _ = done.send(());
            });
            dropped
                .recv_timeout(Duration::from_secs(10))
                .expect("drop must join every I/O thread");
            dropper.join().expect("dropper");
        }
    }

    #[test]
    fn the_remote_exchange_streams_batches_cross_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let producer = std::thread::spawn(move || {
            let tx = LinkSender::<ColumnBatch>::connect(&addr, 2048).expect("connect");
            for i in 0..64 {
                tx.push(cols(100 + i)).expect("push");
            }
            tx.finish().expect("finish")
        });
        let rx = LinkReceiver::<ColumnBatch>::accept(&listener).expect("accept");
        let mut got = 0usize;
        let mut batches = 0usize;
        while let Some(b) = rx.pop() {
            got += b.len();
            batches += 1;
        }
        rx.join().expect("clean close");
        let wire = producer.join().expect("producer");
        assert_eq!(batches, 64);
        assert_eq!(got, (0..64).map(|i| 100 + i).sum::<usize>());
        assert!(wire as usize > got * TUPLE_BYTES as usize);
    }

    #[test]
    fn link_profiles_price_the_bala_join_tradeoff() {
        let fast = LinkProfile {
            bandwidth_bytes_per_sec: 1e9,
            rtt_secs: 0.0001,
        };
        let slow = LinkProfile {
            bandwidth_bytes_per_sec: 1e6,
            rtt_secs: 0.05,
        };
        let tuples = 100_000;
        assert!(slow.ship_secs(tuples) > 100.0 * fast.ship_secs(tuples));
    }
}
