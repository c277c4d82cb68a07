//! The distributed exchange: framed byte-stream transports behind the
//! [`FragmentPort`] contract.
//!
//! Two carriers ship the same wire format (see [`ewh_core::encode_frame`]):
//! an in-memory loopback pipe and real TCP sockets on localhost. Both are
//! driven by dedicated I/O threads so the engine's pool tasks never block
//! on a socket — a task that would overrun the link's credit window parks
//! exactly like it would on a full in-process queue.
//!
//! ## Credit-based flow control
//!
//! An in-process channel bounds *resident tuples*; a byte stream has no
//! shared counter to bound against. The producer side of a link is
//! therefore a `CreditGate` — the channel's own admission window (see the
//! `channel` module) without the queue: every sent delivery charges its
//! tuple weight against the window, and the consumer returns that weight as
//! a `CREDIT` frame on a dedicated back-channel once the delivery is popped.
//! The window's `used` therefore counts tuples in flight end to end — in
//! the writer's buffer, on the wire, and in the consumer-side staging
//! channel — so [`FragmentPort::used_tuples`] keeps feeding the migration
//! coordinator's backlog heuristics unchanged, and swapping a local queue
//! for a remote one cannot introduce a new deadlock: it is the same rule.
//!
//! ## Ordering and failure
//!
//! Frames are written by one thread and decoded in arrival order by one
//! thread: the link is FIFO, which is the same no-reordering assumption the
//! in-process queues give the epoch-fencing protocol. A link that dies
//! mid-stream (I/O error, corrupt or truncated frame) trips the run's
//! [`TransportFailure`]: the gate releases every parked producer (their
//! subsequent pushes are discarded — the run is doomed), an in-band
//! [`Delivery::Abort`] is injected into the staging queue so a parked
//! consumer wakes and unwinds, and the engine's watcher task cancels the
//! query cooperatively. Nothing panics on a bad byte.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ewh_core::{encode_frame, ColumnBatch, Frame, FrameDecoder, Key, Rel, TUPLE_BYTES};

use super::channel::{Channel, CreditGate, Weigh};
use super::exchange::Exchange;
use super::port::{FragmentPort, PortPop};
use super::queue::{Delivery, MigratedRegion, RegionBatch};
use super::runtime::{WakeSet, Waker};
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

/// Which byte carrier a remote queue rides on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// An in-memory pipe: the full framed protocol (encode, credit flow,
    /// incremental decode) without kernel sockets.
    Loopback,
    /// Real TCP sockets on localhost, one connection per direction.
    Tcp,
}

/// Per-run transport selection and fault knobs (part of `EngineConfig`).
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    pub kind: TransportKind,
    /// Pace the data writer to this many bytes per second — an asymmetric-
    /// link emulator for benchmarks. `None`: unthrottled.
    pub throttle_bytes_per_sec: Option<u64>,
    /// Fault injection for tests: flip a length byte in the Nth data frame
    /// (0-based) so the decoder sees a corrupt stream mid-run.
    pub corrupt_frame: Option<u64>,
}

impl TransportConfig {
    pub fn loopback() -> Self {
        TransportConfig {
            kind: TransportKind::Loopback,
            throttle_bytes_per_sec: None,
            corrupt_frame: None,
        }
    }

    pub fn tcp() -> Self {
        TransportConfig {
            kind: TransportKind::Tcp,
            throttle_bytes_per_sec: None,
            corrupt_frame: None,
        }
    }
}

/// One run's shared transport failure latch. I/O threads own clones (they
/// are `'static`); the engine's watcher task parks on it and converts a
/// trip into a cooperative query cancellation.
pub struct TransportFailure {
    failed: AtomicBool,
    released: AtomicBool,
    reason: Mutex<Option<String>>,
    wake: WakeSet,
}

impl TransportFailure {
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Self> {
        Arc::new(TransportFailure {
            failed: AtomicBool::new(false),
            released: AtomicBool::new(false),
            reason: Mutex::new(None),
            wake: WakeSet::new(),
        })
    }

    /// Trips the latch; the first reason wins. The reason is stored before
    /// the flag, so whoever observes `failed()` finds it.
    pub(crate) fn trip(&self, why: String) {
        self.reason
            .lock()
            .expect("failure reason poisoned")
            .get_or_insert(why);
        self.failed.store(true, Ordering::Release);
        self.wake.wake_all();
    }

    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    pub fn reason(&self) -> Option<String> {
        self.reason.lock().expect("failure reason poisoned").clone()
    }

    /// End-of-run release: wakes the watcher so it can exit without a trip.
    pub(crate) fn release(&self) {
        self.released.store(true, Ordering::Release);
        self.wake.wake_all();
    }

    pub(crate) fn released(&self) -> bool {
        self.released.load(Ordering::Acquire)
    }

    /// Parks `waker` until a trip or the end-of-run release. `false`: an
    /// event already happened (or raced the registration) — re-poll now.
    pub(crate) fn park(&self, waker: &Waker) -> bool {
        let generation = self.wake.generation();
        if self.failed() || self.released() {
            return false;
        }
        self.wake.register(waker, generation)
    }
}

// ---------------------------------------------------------------------------
// Byte carriers
// ---------------------------------------------------------------------------

struct PipeState {
    buf: VecDeque<u8>,
    write_closed: bool,
    read_closed: bool,
}

struct PipeShared {
    state: Mutex<PipeState>,
    ready: Condvar,
}

/// The write half of an in-memory byte pipe. Dropping it is EOF for the
/// reader — exactly a socket's close semantics, which is what the clean
/// shutdown path relies on.
struct PipeWriter(Arc<PipeShared>);

struct PipeReader(Arc<PipeShared>);

fn pipe() -> (PipeWriter, PipeReader) {
    let shared = Arc::new(PipeShared {
        state: Mutex::new(PipeState {
            buf: VecDeque::new(),
            write_closed: false,
            read_closed: false,
        }),
        ready: Condvar::new(),
    });
    (PipeWriter(shared.clone()), PipeReader(shared))
}

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut st = self.0.state.lock().expect("pipe poisoned");
        if st.read_closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "reader gone"));
        }
        st.buf.extend(bytes);
        drop(st);
        self.0.ready.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.0.state.lock().expect("pipe poisoned").write_closed = true;
        self.0.ready.notify_all();
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut st = self.0.state.lock().expect("pipe poisoned");
        loop {
            if !st.buf.is_empty() {
                return st.buf.read(out);
            }
            if st.write_closed {
                return Ok(0);
            }
            st = self.0.ready.wait(st).expect("pipe poisoned");
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.0.state.lock().expect("pipe poisoned").read_closed = true;
        self.0.ready.notify_all();
    }
}

/// Spawns one named transport I/O thread.
fn io_thread(name: &str, body: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name.into()).spawn(body)
}

/// The four stream endpoints of one remote queue: a data plane
/// (producer → consumer) and a credit back-channel (consumer → producer).
struct Wire {
    data_out: Box<dyn Write + Send>,
    data_in: Box<dyn Read + Send>,
    credit_out: Box<dyn Write + Send>,
    credit_in: Box<dyn Read + Send>,
}

fn make_wire(kind: TransportKind) -> io::Result<Wire> {
    match kind {
        TransportKind::Loopback => {
            let (dw, dr) = pipe();
            let (cw, cr) = pipe();
            Ok(Wire {
                data_out: Box::new(dw),
                data_in: Box::new(dr),
                credit_out: Box::new(cw),
                credit_in: Box::new(cr),
            })
        }
        TransportKind::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            // Sequential connect/accept keeps the pairing deterministic.
            let data_out = TcpStream::connect(addr)?;
            let (data_in, _) = listener.accept()?;
            let credit_out = TcpStream::connect(addr)?;
            let (credit_in, _) = listener.accept()?;
            for s in [&data_out, &data_in, &credit_out, &credit_in] {
                s.set_nodelay(true)?;
            }
            Ok(Wire {
                data_out: Box::new(data_out),
                data_in: Box::new(data_in),
                credit_out: Box::new(credit_out),
                credit_in: Box::new(credit_in),
            })
        }
    }
}

/// Paces a writer thread to a target byte rate (the benchmark's link
/// throttle). Sleeps before each write so sustained throughput converges
/// to the rate from above.
struct Pacer {
    rate: Option<f64>,
    start: Instant,
    sent: u64,
}

impl Pacer {
    fn new(bytes_per_sec: Option<u64>) -> Self {
        Pacer {
            rate: bytes_per_sec.map(|r| (r.max(1)) as f64),
            start: Instant::now(),
            sent: 0,
        }
    }

    fn pace(&mut self, bytes: usize) {
        let Some(rate) = self.rate else { return };
        self.sent += bytes as u64;
        let due = self.sent as f64 / rate;
        let elapsed = self.start.elapsed().as_secs_f64();
        if due > elapsed {
            std::thread::sleep(Duration::from_secs_f64(due - elapsed));
        }
    }
}

// ---------------------------------------------------------------------------
// Delivery codec
// ---------------------------------------------------------------------------

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

/// Serializes the non-tuple state of a [`MigratedRegion`]: tallies, seal
/// flag, and the *descriptors* of its spilled runs. The records
/// themselves stay in the shared per-query spill segment — they travel by
/// offset, not by value, exactly like an in-process migration.
fn encode_region_meta(state: &MigratedRegion) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(state.sealed as u8);
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

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
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

fn split_batch(batch: &ColumnBatch, at: usize) -> (ColumnBatch, ColumnBatch) {
    let keys = batch.keys();
    let payloads = batch.payloads();
    (
        ColumnBatch::from_columns(keys[..at].to_vec(), payloads[..at].to_vec()),
        ColumnBatch::from_columns(keys[at..].to_vec(), payloads[at..].to_vec()),
    )
}

/// Appends one delivery as a wire frame. Tuple-carrying deliveries ship
/// their columns as the frame's two slabs (two memcpys on a little-endian
/// target); `Adopt` concatenates build + pending and records the split
/// point in header word `b`.
pub(crate) fn encode_delivery(out: &mut Vec<u8>, d: &Delivery) {
    let empty = ColumnBatch::new();
    match d {
        Delivery::Batch(rb) => encode_frame(
            out,
            FRAME_BATCH,
            rel_code(rb.rel) << 32 | rb.region as u64,
            rb.epoch,
            &[],
            &rb.tuples,
        ),
        Delivery::SealR1 => encode_frame(out, FRAME_SEAL_R1, 0, 0, &[], &empty),
        Delivery::SealAll => encode_frame(out, FRAME_SEAL_ALL, 0, 0, &[], &empty),
        Delivery::Migrate { region } => {
            encode_frame(out, FRAME_MIGRATE, *region as u64, 0, &[], &empty)
        }
        Delivery::Adopt { region, state } => {
            let meta = encode_region_meta(state);
            let mut keys: Vec<Key> = Vec::with_capacity(state.build.len() + state.pending.len());
            keys.extend_from_slice(state.build.keys());
            keys.extend_from_slice(state.pending.keys());
            let mut payloads: Vec<u64> = Vec::with_capacity(keys.capacity());
            payloads.extend_from_slice(state.build.payloads());
            payloads.extend_from_slice(state.pending.payloads());
            let combined = ColumnBatch::from_columns(keys, payloads);
            encode_frame(
                out,
                FRAME_ADOPT,
                *region as u64,
                state.build.len() as u64,
                &meta,
                &combined,
            );
        }
        Delivery::Finish => encode_frame(out, FRAME_FINISH, 0, 0, &[], &empty),
        Delivery::Abort => encode_frame(out, FRAME_ABORT, 0, 0, &[], &empty),
    }
}

/// Reassembles a delivery from a decoded frame.
pub(crate) fn decode_delivery(frame: Frame) -> Result<Delivery, String> {
    match frame.kind {
        FRAME_BATCH => Ok(Delivery::Batch(RegionBatch {
            region: (frame.a & 0xFFFF_FFFF) as u32,
            rel: code_rel(frame.a >> 32)?,
            epoch: frame.b,
            tuples: frame.batch,
        })),
        FRAME_SEAL_R1 => Ok(Delivery::SealR1),
        FRAME_SEAL_ALL => Ok(Delivery::SealAll),
        FRAME_MIGRATE => Ok(Delivery::Migrate {
            region: frame.a as u32,
        }),
        FRAME_ADOPT => {
            let build_len = frame.b as usize;
            if build_len > frame.batch.len() {
                return Err(format!(
                    "adopt split {build_len} beyond batch of {}",
                    frame.batch.len()
                ));
            }
            let (build, pending) = split_batch(&frame.batch, build_len);
            let mut meta = Meta(&frame.extra);
            let sealed = meta.u8()? != 0;
            let input = meta.u64()?;
            let output = meta.u64()?;
            let checksum = meta.u64()?;
            let spilled_build = meta.runs()?;
            let spilled_pending = meta.runs()?;
            Ok(Delivery::Adopt {
                region: frame.a as u32,
                state: Box::new(MigratedRegion {
                    build,
                    pending,
                    spilled_build,
                    spilled_pending,
                    sealed,
                    input,
                    output,
                    checksum,
                }),
            })
        }
        FRAME_FINISH => Ok(Delivery::Finish),
        FRAME_ABORT => Ok(Delivery::Abort),
        other => Err(format!("unexpected frame kind {other} on a data link")),
    }
}

// ---------------------------------------------------------------------------
// Frame pump
// ---------------------------------------------------------------------------

/// Why [`pump_frames`] stopped short of a clean end of stream. Each link
/// words its own failure reason (or, for the exchange sender's credit
/// reader, shrugs off a vanished peer) from these.
enum PumpError {
    /// EOF with part of a frame still buffered.
    Truncated,
    Read(io::Error),
    /// A corrupt frame, or one the link's handler refused.
    Frame(String),
}

impl PumpError {
    /// The link's failure reason: its own words for a truncated stream,
    /// `"<read>: <io error>"` for a failed read, the frame error as is.
    fn reason(self, truncated: &str, read: &str) -> String {
        match self {
            PumpError::Truncated => truncated.into(),
            PumpError::Read(e) => format!("{read}: {e}"),
            PumpError::Frame(why) => why,
        }
    }
}

/// The reader loop of every link: read into a `buf_len`-byte buffer, feed
/// the incremental decoder, hand each complete frame to `on_frame`.
/// Returns `Ok` on a clean EOF at a frame boundary (normal teardown for
/// the queue links) or when the handler breaks out (the exchange's
/// `CLOSE`); everything else is a [`PumpError`].
fn pump_frames(
    src: &mut impl Read,
    buf_len: usize,
    mut on_frame: impl FnMut(Frame) -> Result<ControlFlow<()>, String>,
) -> Result<(), PumpError> {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; buf_len];
    loop {
        match src.read(&mut buf) {
            Ok(0) if dec.pending_bytes() > 0 => return Err(PumpError::Truncated),
            Ok(0) => return Ok(()),
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) => return Err(PumpError::Read(e)),
        }
        while let Some(frame) = dec
            .next_frame()
            .map_err(|e| PumpError::Frame(e.to_string()))?
        {
            if on_frame(frame).map_err(PumpError::Frame)?.is_break() {
                return Ok(());
            }
        }
    }
}

/// The frame handler of both credit back-channels: a `CREDIT` frame
/// returns its weight to `gate`; any other kind is refused as
/// `"unexpected kind <k> <whence>"`.
fn credit_frame(gate: &CreditGate, f: &Frame, whence: &str) -> Result<ControlFlow<()>, String> {
    if f.kind != FRAME_CREDIT {
        return Err(format!("unexpected kind {} {whence}", f.kind));
    }
    gate.release(f.a as usize);
    Ok(ControlFlow::Continue(()))
}

// ---------------------------------------------------------------------------
// RemoteQueue
// ---------------------------------------------------------------------------

/// Trips the shared failure latch and unblocks both ends of the link:
/// producers through the abandoned gate, the consumer through an in-band
/// `Abort` (the reducer's native unwind path).
fn trip_link(
    failure: &TransportFailure,
    gate: &CreditGate,
    staging: &Channel<Delivery>,
    why: String,
) {
    failure.trip(why);
    // Unconditionally, even when another link already tripped the shared
    // latch: each failing link must unblock its *own* consumer in-band. The
    // watcher's broadcast `Abort` cannot reach this reducer — it would have
    // to cross this link's wire, which is exactly what just died. Both
    // calls are idempotent; a duplicate `Abort` is harmless (the reducer
    // unwinds on the first).
    gate.abandon();
    staging.push_unbounded(Delivery::Abort);
}

/// A mapper→reducer delivery channel carried over a framed byte stream,
/// speaking the exact [`FragmentPort`] contract of the in-process
/// [`Channel`].
///
/// Producer side: a push charges the `CreditGate` and hands the encoded
/// frame to the data-writer thread. Consumer side: the data-reader thread
/// decodes arriving frames into a staging [`Channel`] (whose waker plumbing
/// parks/wakes the reducer unchanged); every pop returns the delivery's
/// weight as a `CREDIT` frame on the back-channel.
pub struct RemoteQueue {
    staging: Arc<Channel<Delivery>>,
    gate: Arc<CreditGate>,
    failure: Arc<TransportFailure>,
    data_tx: Mutex<Option<mpsc::Sender<Vec<u8>>>>,
    credit_tx: Mutex<Option<mpsc::Sender<u64>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    wire_bytes: Arc<AtomicU64>,
}

impl RemoteQueue {
    /// Builds the link and spawns its four I/O threads (data writer/reader,
    /// credit writer/reader). `failure` is shared by every link of a run.
    pub fn spawn(
        cfg: &TransportConfig,
        capacity_tuples: usize,
        failure: Arc<TransportFailure>,
    ) -> io::Result<Arc<RemoteQueue>> {
        let wire = make_wire(cfg.kind)?;
        let staging = Arc::new(Channel::new(capacity_tuples));
        let gate = CreditGate::new(capacity_tuples);
        let wire_bytes = Arc::new(AtomicU64::new(0));
        let (data_tx, data_rx) = mpsc::channel::<Vec<u8>>();
        let (credit_tx, credit_rx) = mpsc::channel::<u64>();
        let mut threads = Vec::with_capacity(4);

        // Data writer: paces (optional throttle), injects the optional test
        // fault, and writes frames in FIFO order. Exits when the queue is
        // dropped (channel closed), which closes the stream → reader EOF.
        {
            let mut out = wire.data_out;
            let mut pacer = Pacer::new(cfg.throttle_bytes_per_sec);
            let corrupt = cfg.corrupt_frame;
            let (failure, gate, staging) = (failure.clone(), gate.clone(), staging.clone());
            let wire_bytes = wire_bytes.clone();
            threads.push(io_thread("ewh-xport-data-tx", move || {
                let mut n = 0u64;
                while let Ok(mut buf) = data_rx.recv() {
                    if corrupt == Some(n) && buf.len() > 21 {
                        buf[21] ^= 0xFF; // inflate the extra_len field
                    }
                    n += 1;
                    pacer.pace(buf.len());
                    if let Err(e) = out.write_all(&buf) {
                        trip_link(&failure, &gate, &staging, format!("data write: {e}"));
                        return;
                    }
                    wire_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
                }
            })?);
        }

        // Data reader: incremental decode into the staging queue. A clean
        // EOF on a frame boundary is the normal teardown; everything else
        // trips the failure latch.
        {
            let mut src = wire.data_in;
            let (failure, gate, staging) = (failure.clone(), gate.clone(), staging.clone());
            threads.push(io_thread("ewh-xport-data-rx", move || {
                let pumped = pump_frames(&mut src, 64 * 1024, |frame| {
                    staging.push_unbounded(decode_delivery(frame)?);
                    Ok(ControlFlow::Continue(()))
                });
                if let Err(e) = pumped {
                    let why = e.reason("stream truncated mid-frame", "data read");
                    trip_link(&failure, &gate, &staging, why);
                }
            })?);
        }

        // Credit writer: coalesces pending credits into one frame per wake.
        {
            let mut out = wire.credit_out;
            let (failure, gate, staging) = (failure.clone(), gate.clone(), staging.clone());
            threads.push(io_thread("ewh-xport-credit-tx", move || {
                let empty = ColumnBatch::new();
                let mut buf = Vec::with_capacity(64);
                while let Ok(mut w) = credit_rx.recv() {
                    while let Ok(more) = credit_rx.try_recv() {
                        w += more;
                    }
                    buf.clear();
                    encode_frame(&mut buf, FRAME_CREDIT, w, 0, &[], &empty);
                    if let Err(e) = out.write_all(&buf) {
                        trip_link(&failure, &gate, &staging, format!("credit write: {e}"));
                        return;
                    }
                }
            })?);
        }

        // Credit reader: returns window to the gate, waking parked pushers.
        {
            let mut src = wire.credit_in;
            let (failure, gate, staging) = (failure.clone(), gate.clone(), staging.clone());
            threads.push(io_thread("ewh-xport-credit-rx", move || {
                let pumped = pump_frames(&mut src, 4096, |f| {
                    credit_frame(&gate, &f, "on credit link")
                });
                if let Err(e) = pumped {
                    let why = e.reason("credit stream truncated", "credit read");
                    trip_link(&failure, &gate, &staging, why);
                }
            })?);
        }

        Ok(Arc::new(RemoteQueue {
            staging,
            gate,
            failure,
            data_tx: Mutex::new(Some(data_tx)),
            credit_tx: Mutex::new(Some(credit_tx)),
            threads: Mutex::new(threads),
            wire_bytes,
        }))
    }

    /// Bytes the data writer put on the wire (frame headers included).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    pub fn failure(&self) -> &Arc<TransportFailure> {
        &self.failure
    }

    fn send(&self, item: Delivery) {
        let mut buf = Vec::new();
        encode_delivery(&mut buf, &item);
        if let Some(tx) = self.data_tx.lock().expect("data tx poisoned").as_ref() {
            // A send after the writer died parks the frame in a dead
            // channel; the failure latch is already tripped.
            let _ = tx.send(buf);
        }
    }
}

impl Drop for RemoteQueue {
    fn drop(&mut self) {
        // Closing the channels ends the writer threads, which drop their
        // stream ends, which EOFs the reader threads: a full quiesce with
        // no sentinel traffic.
        self.data_tx.lock().expect("data tx poisoned").take();
        self.credit_tx.lock().expect("credit tx poisoned").take();
        for handle in self.threads.lock().expect("threads poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

impl FragmentPort for RemoteQueue {
    type Item = Delivery;

    /// On a failed link the delivery is discarded: the run is unwinding.
    fn offer(&self, item: Delivery, park: Option<&Waker>) -> Result<(), Delivery> {
        if self.failure.failed() {
            return Ok(());
        }
        if !self.gate.admit_or_park(item.weight(), park) {
            return Err(item);
        }
        self.send(item);
        Ok(())
    }

    fn push_unbounded(&self, item: Delivery) {
        self.gate.admit_unbounded(item.weight());
        self.send(item);
    }

    /// Returns a popped delivery's weight to the producer as credit.
    fn take(&self, park: Option<&Waker>) -> PortPop<Delivery> {
        let popped = self.staging.take(park);
        if let PortPop::Item(item) = &popped {
            let w = item.weight();
            if w > 0 {
                if let Some(tx) = self.credit_tx.lock().expect("credit tx poisoned").as_ref() {
                    let _ = tx.send(w as u64);
                }
            }
        }
        popped
    }

    /// Window charged but not yet credited back: tuples in the writer's
    /// buffer, on the wire, and staged on the consumer side — the remote
    /// generalization of queue depth the coordinator's backlog heuristics
    /// expect.
    fn used_tuples(&self) -> usize {
        self.gate.used()
    }

    fn note_blocked(&self, nanos: u64) {
        self.gate.note_blocked(nanos);
    }

    fn blocked_secs(&self) -> f64 {
        self.gate.blocked_secs()
    }
}

// ---------------------------------------------------------------------------
// Cross-process exchange
// ---------------------------------------------------------------------------

/// The producing half of a cross-process [`Exchange`]: batches go out as
/// frames on one TCP connection, credits come back on the same socket.
/// Used by the distributed benchmark's parent process to stream a relation
/// into a worker process.
pub struct RemoteExchangeSender {
    out: Mutex<TcpStream>,
    gate: Arc<CreditGate>,
    failure: Arc<TransportFailure>,
    reader: Option<JoinHandle<()>>,
    scratch: Mutex<Vec<u8>>,
}

impl RemoteExchangeSender {
    /// Connects to a [`RemoteExchangeReceiver`]. `window_tuples` bounds the
    /// tuples in flight toward the receiver (its staging exchange adds its
    /// own bound downstream).
    pub fn connect(addr: &str, window_tuples: usize) -> io::Result<Self> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let rd = sock.try_clone()?;
        let gate = CreditGate::new(window_tuples);
        let failure = TransportFailure::new();
        let reader = {
            let gate = gate.clone();
            let failure = failure.clone();
            let mut src = rd;
            io_thread("ewh-xchg-credit-rx", move || {
                // A receiver that goes away — EOF, even mid-frame, or a
                // failed read — is not this side's failure to report: the
                // next `push` fails on its own write.
                let pumped =
                    pump_frames(&mut src, 4096, |f| credit_frame(&gate, &f, "from receiver"));
                if let Err(PumpError::Frame(why)) = pumped {
                    failure.trip(why);
                    gate.abandon();
                }
            })?
        };
        Ok(RemoteExchangeSender {
            out: Mutex::new(sock),
            gate,
            failure,
            reader: Some(reader),
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Blocking bounded push: waits for window, then writes one frame.
    pub fn push(&self, batch: &ColumnBatch) -> io::Result<()> {
        if !self.gate.admit_blocking(batch.len()) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                self.failure
                    .reason()
                    .unwrap_or_else(|| "link failed".into()),
            ));
        }
        let mut buf = self.scratch.lock().expect("scratch poisoned");
        buf.clear();
        encode_frame(&mut buf, FRAME_XBATCH, 0, 0, &[], batch);
        self.out
            .lock()
            .expect("sender socket poisoned")
            .write_all(&buf)
    }

    /// End of stream: sends `CLOSE`, half-closes the socket, and reaps the
    /// credit reader.
    pub fn finish(mut self) -> io::Result<()> {
        {
            let mut buf = self.scratch.lock().expect("scratch poisoned");
            buf.clear();
            encode_frame(&mut buf, FRAME_CLOSE, 0, 0, &[], &ColumnBatch::new());
            let mut out = self.out.lock().expect("sender socket poisoned");
            out.write_all(&buf)?;
            out.shutdown(std::net::Shutdown::Write)?;
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        Ok(())
    }
}

impl Drop for RemoteExchangeSender {
    fn drop(&mut self) {
        // An un-finished sender (error path) still closes the socket by
        // dropping it; just don't leave the reader thread dangling.
        if let Some(reader) = self.reader.take() {
            let _ = self
                .out
                .lock()
                .map(|s| s.shutdown(std::net::Shutdown::Both));
            let _ = reader.join();
        }
    }
}

/// The consuming half: accepts one sender connection, decodes arriving
/// batches into a bounded [`Exchange`] (blocking when the downstream
/// engine lags — which stops the reads, which stops the credits, which
/// parks the sender: end-to-end backpressure), and credits each batch as
/// it is staged.
pub struct RemoteExchangeReceiver {
    exchange: Arc<Exchange>,
    failure: Arc<TransportFailure>,
    thread: Option<JoinHandle<()>>,
}

impl RemoteExchangeReceiver {
    pub fn accept(listener: &TcpListener, capacity_tuples: usize) -> io::Result<Self> {
        let (sock, _) = listener.accept()?;
        sock.set_nodelay(true)?;
        let mut wr = sock.try_clone()?;
        let exchange = Arc::new(Exchange::new(capacity_tuples));
        let failure = TransportFailure::new();
        let thread = {
            let exchange = exchange.clone();
            let failure = failure.clone();
            let mut src = sock;
            io_thread("ewh-xchg-data-rx", move || {
                let mut credit = Vec::with_capacity(64);
                let empty = ColumnBatch::new();
                let mut closed = false;
                let pumped = pump_frames(&mut src, 64 * 1024, |f| match f.kind {
                    FRAME_XBATCH => {
                        let w = f.batch.len() as u64;
                        exchange.push(f.batch);
                        if w > 0 {
                            credit.clear();
                            encode_frame(&mut credit, FRAME_CREDIT, w, 0, &[], &empty);
                            wr.write_all(&credit)
                                .map_err(|_| "credit write failed".to_string())?;
                        }
                        Ok(ControlFlow::Continue(()))
                    }
                    FRAME_CLOSE => {
                        closed = true;
                        Ok(ControlFlow::Break(()))
                    }
                    other => Err(format!("unexpected kind {other}")),
                });
                let failed = match pumped {
                    Ok(()) if closed => None,
                    Ok(()) => Some("sender vanished without CLOSE".into()),
                    Err(e) => Some(e.reason("truncated mid-frame", "read")),
                };
                if let Some(why) = failed {
                    failure.trip(why);
                }
                // Close (not abandon), failed or not: the downstream engine
                // sees a normal end of stream and terminates; the caller
                // must check `failed()` before trusting the result.
                exchange.close();
            })?
        };
        Ok(RemoteExchangeReceiver {
            exchange,
            failure,
            thread: Some(thread),
        })
    }

    /// The staging exchange the engine consumes (`Source::Exchange`).
    pub fn exchange(&self) -> &Arc<Exchange> {
        &self.exchange
    }

    /// Joins the reader; `Err` carries the failure reason if the stream
    /// did not end with a clean `CLOSE`.
    pub fn join(mut self) -> Result<(), String> {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        match self.failure.reason() {
            Some(why) => Err(why),
            None => Ok(()),
        }
    }
}

impl Drop for RemoteExchangeReceiver {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(n);
        for i in 0..n {
            b.push(i as Key - 3, (i as u64) << 7);
        }
        b
    }

    fn batch_delivery(region: u32, n: usize) -> Delivery {
        Delivery::Batch(RegionBatch {
            region,
            rel: Rel::R2,
            epoch: region as u64 + 9,
            tuples: cols(n),
        })
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

    #[test]
    fn adopt_round_trips_through_the_codec() {
        let state = MigratedRegion {
            build: cols(5),
            pending: cols(3),
            spilled_build: vec![SpillRun::from_parts(
                4096,
                1000,
                ewh_core::KeyRange { lo: -5, hi: 900 },
            )
            .expect("representable extent")],
            spilled_pending: vec![],
            sealed: true,
            input: 77,
            output: 12,
            checksum: 0xDEAD_BEEF,
        };
        let d = Delivery::Adopt {
            region: 4,
            state: Box::new(state),
        };
        let mut wire = Vec::new();
        encode_delivery(&mut wire, &d);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frame = dec.next_frame().expect("valid").expect("complete");
        let Delivery::Adopt { region, state } = decode_delivery(frame).expect("decodes") else {
            panic!("wrong variant");
        };
        assert_eq!(region, 4);
        assert_eq!(state.build.keys(), cols(5).keys());
        assert_eq!(state.pending.payloads(), cols(3).payloads());
        assert!(state.sealed);
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
    fn an_adopt_descriptor_overflowing_the_segment_is_a_decode_error() {
        let state = MigratedRegion {
            spilled_pending: vec![
                SpillRun::from_parts(64, 3, ewh_core::KeyRange { lo: 0, hi: 2 })
                    .expect("representable extent"),
            ],
            sealed: true,
            ..Default::default()
        };
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
        let err = decode_delivery(frame).expect_err("hostile offset must not decode");
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
            encode_delivery(&mut wire, d);
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().expect("valid") {
            got.push(decode_delivery(f).expect("decodes"));
        }
        assert_eq!(got.len(), 5);
        assert!(matches!(got[0], Delivery::SealR1));
        assert!(matches!(got[1], Delivery::SealAll));
        assert!(matches!(got[2], Delivery::Migrate { region: 7 }));
        assert!(matches!(got[3], Delivery::Finish));
        assert!(matches!(got[4], Delivery::Abort));
    }

    fn round_trip_over(kind: TransportKind) {
        let failure = TransportFailure::new();
        let q = RemoteQueue::spawn(
            &TransportConfig {
                kind,
                throttle_bytes_per_sec: None,
                corrupt_frame: None,
            },
            1 << 20,
            failure.clone(),
        )
        .expect("link");
        let port: &super::super::port::DeliveryPort = &*q;
        for region in 0..32u32 {
            assert!(port.try_push(batch_delivery(region, 100)).is_ok());
        }
        port.push_unbounded(Delivery::SealAll);
        for region in 0..32u32 {
            let d = drain_until(Duration::from_secs(10), || match port.try_pop() {
                PortPop::Item(d) => Some(d),
                _ => None,
            });
            let Delivery::Batch(rb) = d else {
                panic!("expected a batch")
            };
            assert_eq!(rb.region, region, "FIFO order preserved");
            assert_eq!(rb.epoch, region as u64 + 9);
            assert_eq!(rb.tuples.keys(), cols(100).keys());
            assert_eq!(rb.tuples.payloads(), cols(100).payloads());
        }
        let d = drain_until(Duration::from_secs(10), || match port.try_pop() {
            PortPop::Item(d) => Some(d),
            _ => None,
        });
        assert!(matches!(d, Delivery::SealAll));
        // Credits drain the window back to zero.
        drain_until(Duration::from_secs(10), || {
            (port.used_tuples() == 0).then_some(())
        });
        assert!(!failure.failed());
        assert!(q.wire_bytes() > 32 * 100 * TUPLE_BYTES);
    }

    #[test]
    fn loopback_link_round_trips_in_order() {
        round_trip_over(TransportKind::Loopback);
    }

    #[test]
    fn tcp_link_round_trips_in_order() {
        round_trip_over(TransportKind::Tcp);
    }

    #[test]
    fn the_window_bounces_like_a_full_queue() {
        let failure = TransportFailure::new();
        let q = RemoteQueue::spawn(&TransportConfig::loopback(), 100, failure).expect("link");
        let port: &super::super::port::DeliveryPort = &*q;
        assert!(port.try_push(batch_delivery(0, 80)).is_ok());
        let bounced = port.try_push(batch_delivery(1, 50));
        assert!(bounced.is_err(), "window overrun hands the delivery back");
        // Popping the staged batch returns credit and re-admits.
        drain_until(Duration::from_secs(10), || match port.try_pop() {
            PortPop::Item(d) => Some(d),
            _ => None,
        });
        drain_until(Duration::from_secs(10), || {
            port.try_push(batch_delivery(1, 50)).is_ok().then_some(())
        });
    }

    #[test]
    fn a_corrupt_frame_trips_the_failure_latch_and_aborts_in_band() {
        let failure = TransportFailure::new();
        let q = RemoteQueue::spawn(
            &TransportConfig {
                kind: TransportKind::Loopback,
                throttle_bytes_per_sec: None,
                corrupt_frame: Some(0),
            },
            1 << 20,
            failure.clone(),
        )
        .expect("link");
        let port: &super::super::port::DeliveryPort = &*q;
        assert!(port.try_push(batch_delivery(0, 64)).is_ok());
        let d = drain_until(Duration::from_secs(10), || match port.try_pop() {
            PortPop::Item(d) => Some(d),
            _ => None,
        });
        assert!(
            matches!(d, Delivery::Abort),
            "corruption surfaces as an in-band abort, got {d:?}"
        );
        assert!(failure.failed());
        assert!(failure.reason().is_some());
        // Producers are never blocked again; pushes discard quietly.
        assert!(port.try_push(batch_delivery(1, 1 << 19)).is_ok());
        assert!(port.try_push(batch_delivery(2, 1 << 19)).is_ok());
    }

    #[test]
    fn the_remote_exchange_streams_batches_cross_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let receiver = RemoteExchangeReceiver::accept_after_connect(&listener, 4096, &addr);
        let (receiver, sender) = receiver;
        let exchange = receiver.exchange().clone();
        let producer = std::thread::spawn(move || {
            for i in 0..64 {
                sender.push(&cols(100 + i)).expect("push");
            }
            sender.finish().expect("finish");
        });
        let mut got = 0usize;
        let mut batches = 0usize;
        while let Some(b) = exchange.pop() {
            got += b.len();
            batches += 1;
        }
        producer.join().expect("producer");
        assert_eq!(batches, 64);
        assert_eq!(got, (0..64).map(|i| 100 + i).sum::<usize>());
        receiver.join().expect("clean close");
    }

    impl RemoteExchangeReceiver {
        /// Test helper: connect and accept without a second thread.
        fn accept_after_connect(
            listener: &TcpListener,
            capacity: usize,
            addr: &str,
        ) -> (RemoteExchangeReceiver, RemoteExchangeSender) {
            let addr = addr.to_string();
            let sender = std::thread::spawn(move || {
                RemoteExchangeSender::connect(&addr, 2048).expect("connect")
            });
            let receiver = RemoteExchangeReceiver::accept(listener, capacity).expect("accept");
            (receiver, sender.join().expect("sender thread"))
        }
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
