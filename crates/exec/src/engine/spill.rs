//! Out-of-core spill support: one append-only *segment file* per query
//! holding sorted runs, each one record of the batch codec
//! ([`ewh_core::encode_record`], where the layout is stated), addressed by
//! offset.
//!
//! When a query's [`MemGauge`](super::MemGauge) crosses its budget slice,
//! reducers shed state through a [`SpillContext`]: each victim (a sealed
//! build run, a pre-seal probe `pending`, an outbox batch) is appended to
//! the segment as one record, and the gauge is released by exactly the
//! tuples written. A writer reserves its extent with one
//! atomic bump of the segment tail and fills it with one positional
//! write; a reload is one positional read. Concurrent reducers share no
//! lock, cursor or byte, and victims being small (a pre-seal victim is one
//! routed fragment, ≈ 1 KB) no longer costs an `open`/`close`/`unlink`
//! each. What a reducer keeps is a [`SpillRun`], a `Copy` descriptor;
//! retiring a run is dropping it. The accepted trade: space is not
//! reclaimed inside a query, so its disk high-water is its total
//! `spill_bytes`, not its live spilled bytes.
//!
//! A region's spilled build runs come back once, merged into its resident
//! build, as soon as they fit under the budget; until then they are
//! reloaded transiently for every probe chunk. Pending runs are replayed
//! as extra probe chunks. Either way the join's output stays bit-identical
//! to the in-memory path: a sort-merge join distributes over any partition
//! of its build side into sorted runs and of its probe side into chunks,
//! and the engine's output checksum is order-invariant.
//!
//! The context is shared by every reducer task of one query (all stages of
//! a chained plan included — the plan-global gauge picks the victim
//! stage), so its counters aggregate per query and a migrated region's
//! descriptors stay valid at its adopter. A descriptor off the wire is
//! untrusted: [`SpillRun::from_parts`] rejects an extent that overflows,
//! every reload checks the extent against the segment tail, and the codec
//! checks the record's count against the extent, so a corrupt one is an
//! `Err`, never a read outside the query's own records.
//! I/O failures are not panics inside pool tasks: a failed write or reload
//! fails the query's [`CancelToken`](super::CancelToken) with its reason —
//! the token's wake also reaches tasks parked on queues or exchanges — and
//! the stage driver re-raises that reason at the query join, exactly like
//! `Exchange::abandon` surfaces a downstream unwind.
//!
//! Lifetime: the first spilled run creates directory and segment — a query
//! that never spills touches no file system — and
//! [`QueryTicket`](super::QueryTicket)'s `Drop` removes them, on success,
//! cancel and panic paths alike, so no run can leak past its query.

use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ewh_core::{decode_record, encode_record, record_len, ColumnBatch, Key, KeyRange};

/// Out-of-core knobs of one operator / plan run (part of
/// [`OperatorConfig`](crate::OperatorConfig)).
#[derive(Clone, Debug, Default)]
pub struct SpillConfig {
    /// Spill trigger, in tuples: reducers shed state while the query's
    /// gauge sits above this. `None` defers to the admission ticket's
    /// carved slice (so a budgeted runtime enforces its carve by default);
    /// if neither is set the query never spills.
    pub budget_tuples: Option<u64>,
    /// Where per-query spill directories are created. `None` uses the
    /// system temp dir.
    pub temp_dir: Option<PathBuf>,
    /// Fault injection (tests only): every spill write fails once the
    /// query has spilled at least this many bytes. `Some(0)` fails the
    /// first write.
    pub fail_after_bytes: Option<u64>,
}

/// The segment's file name inside the query's spill directory.
const SEGMENT_FILE: &str = "segment.spill";

thread_local! {
    /// Per-worker staging buffer a run is serialized into for its write and
    /// read back through on reload. It grows to the largest run the thread
    /// has handled — reducers cap runs at one probe chunk.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Descriptor of one spilled sorted run: where its record starts in the
/// segment, the tuple count its record holds, and the run's key
/// zone fence — observed `[min, max]` keys, kept only here, so sweeps can
/// skip a non-candidate run without reloading a byte of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillRun {
    offset: u64,
    tuples: u64,
    key_range: KeyRange,
}

impl SpillRun {
    /// Tuples in this run (what reloading it will charge to the gauge).
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// The run's key zone fence: inclusive `[min, max]` over its keys
    /// (empty for an empty run).
    pub fn key_range(&self) -> &KeyRange {
        &self.key_range
    }

    /// Byte offset of the run's record in the segment (the transport
    /// ships descriptors, not contents, with migrated regions).
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// One past the record's last byte (`None`: overflow).
    fn end(&self) -> Option<u64> {
        record_len(self.tuples)?.checked_add(self.offset)
    }

    /// Rebuilds a descriptor from untrusted wire parts (`transport`'s
    /// `Adopt` codec): an extent that overflows is rejected here; the
    /// segment tail and the record's count are checked on reload.
    pub fn from_parts(offset: u64, tuples: u64, key_range: KeyRange) -> Result<Self, String> {
        let run = SpillRun {
            offset,
            tuples,
            key_range,
        };
        run.end()
            .map(|_| run)
            .ok_or_else(|| format!("spill run of {tuples} tuples at offset {offset} overflows"))
    }
}

/// A [`SpillContext`]'s cumulative counters — or, through
/// [`since`](Self::since), one run's share of them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpillTotals {
    /// Bytes appended to the segment.
    pub bytes: u64,
    /// Runs appended.
    pub runs: u64,
    /// Runs read back: a build run once when its region's build comes back
    /// whole, or once per chunk that replays it while it cannot.
    pub reloads: u64,
    /// Region builds shed again after they came back from disk, so that a
    /// budget too tight to hold what comes back shows as thrashing.
    pub respills: u64,
    /// Files created: 1 once anything spilled (the segment), else 0.
    pub files: u64,
    /// Wall time spent writing runs.
    pub write_secs: f64,
    /// Wall time spent reading runs back.
    pub reload_secs: f64,
}

impl SpillTotals {
    /// What was added since the `start` snapshot of the same context.
    pub fn since(&self, start: &SpillTotals) -> SpillTotals {
        SpillTotals {
            bytes: self.bytes - start.bytes,
            runs: self.runs - start.runs,
            reloads: self.reloads - start.reloads,
            respills: self.respills - start.respills,
            files: self.files - start.files,
            write_secs: self.write_secs - start.write_secs,
            reload_secs: self.reload_secs - start.reload_secs,
        }
    }
}

/// An engine run's spill binding: the budget over which its reducers shed
/// state, and the context they shed it through. A run has both or neither.
#[derive(Clone, Copy, Debug)]
pub struct SpillBinding<'a> {
    /// Spill trigger, in tuples: reducers shed state while the query's
    /// gauge sits above this.
    pub budget_tuples: u64,
    pub ctx: &'a SpillContext,
}

/// Per-query spill state shared by reference across all of the query's
/// reducer tasks (and, for chained plans, across stages).
#[derive(Debug)]
pub struct SpillContext {
    /// The query's private spill directory (created with the segment).
    dir: PathBuf,
    /// The query's one segment file, opened by the first spilled run.
    segment: OnceLock<File>,
    /// First unreserved byte of the segment. Publishes no memory of its
    /// own — record bytes travel through the kernel, descriptors through
    /// the engine's queues — so `Relaxed` suffices throughout.
    tail: AtomicU64,
    bytes: AtomicU64,
    runs: AtomicU64,
    reloads: AtomicU64,
    respills: AtomicU64,
    write_nanos: AtomicU64,
    reload_nanos: AtomicU64,
    fail_after_bytes: Option<u64>,
}

impl SpillContext {
    /// A context appending runs to a segment under `dir` (nothing is
    /// created until the first run), with optional write-fault injection.
    pub fn new(dir: PathBuf, fail_after_bytes: Option<u64>) -> Self {
        SpillContext {
            dir,
            segment: OnceLock::new(),
            tail: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            respills: AtomicU64::new(0),
            write_nanos: AtomicU64::new(0),
            reload_nanos: AtomicU64::new(0),
            fail_after_bytes,
        }
    }

    /// The segment file, created on first use. Racing first spillers each
    /// open the same path without truncating, so whichever handle wins the
    /// slot addresses the same bytes as the ones dropped.
    fn segment(&self) -> io::Result<&File> {
        if let Some(file) = self.segment.get() {
            return Ok(file);
        }
        fs::create_dir_all(&self.dir)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.dir.join(SEGMENT_FILE))?;
        Ok(self.segment.get_or_init(|| file))
    }

    /// Appends the parallel `keys` / `payloads` columns to the segment as
    /// one record and returns its descriptor. The caller is responsible for
    /// releasing the gauge only after a successful write (on error the
    /// tuples must stay resident so the abort path's accounting balances).
    pub fn write_run(&self, keys: &[Key], payloads: &[u64]) -> io::Result<SpillRun> {
        let start = Instant::now();
        if let Some(limit) = self.fail_after_bytes {
            if self.bytes.load(Ordering::Relaxed) >= limit {
                return Err(io::Error::other("injected spill-write fault"));
            }
        }
        let file = self.segment()?;
        let (offset, len) = SCRATCH.with_borrow_mut(|buf| {
            buf.clear();
            encode_record(buf, keys, payloads);
            let len = buf.len() as u64;
            // Reserve, then fill: concurrent appenders get disjoint
            // extents. A failed write leaves its extent a hole no
            // descriptor points into.
            let offset = self.tail.fetch_add(len, Ordering::Relaxed);
            file.write_all_at(buf, offset).map(|()| (offset, len))
        })?;
        self.bytes.fetch_add(len, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.write_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(SpillRun {
            offset,
            tuples: keys.len() as u64,
            key_range: match (keys.iter().min(), keys.iter().max()) {
                (Some(&min), Some(&max)) => KeyRange::new(min, max),
                _ => KeyRange::empty(),
            },
        })
    }

    /// [`write_run`](Self::write_run) over a whole batch's columns.
    pub fn write_batch(&self, batch: &ColumnBatch) -> io::Result<SpillRun> {
        self.write_run(batch.keys(), batch.payloads())
    }

    /// Reads a run back in full as columns.
    pub fn read_run(&self, run: &SpillRun) -> io::Result<ColumnBatch> {
        self.read_run_into(run, ColumnBatch::new())
    }

    /// [`read_run`](Self::read_run) into a donated buffer — typically a
    /// recycled batch from a worker's
    /// [`BatchPool`](super::BatchPool) — whose column allocations are
    /// reused, so a reload with a big-enough donation performs no fresh
    /// column allocation. The donation's contents are discarded. A
    /// descriptor whose extent is not inside the segment, or does not hold
    /// one record of its tuple count, is an error.
    pub fn read_run_into(&self, run: &SpillRun, into: ColumnBatch) -> io::Result<ColumnBatch> {
        let start = Instant::now();
        let tail = self.tail.load(Ordering::Relaxed);
        let (file, end) = match (self.segment.get(), run.end()) {
            (Some(file), Some(end)) if end <= tail => (file, end),
            _ => {
                return Err(io::Error::other(format!(
                    "spill run of {} tuples at offset {} lies outside the segment (tail {tail})",
                    run.tuples, run.offset
                )))
            }
        };
        let batch = SCRATCH.with_borrow_mut(|buf| {
            buf.resize((end - run.offset) as usize, 0);
            file.read_exact_at(buf, run.offset)?;
            decode_record(buf, into).map_err(io::Error::other)
        })?;
        self.reloads.fetch_add(1, Ordering::Relaxed);
        self.reload_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(batch)
    }

    /// Counts a region build shed again after it came back from disk.
    pub(crate) fn note_respill(&self) {
        self.respills.fetch_add(1, Ordering::Relaxed);
    }

    /// Everything spilled and reloaded through this context so far.
    pub fn totals(&self) -> SpillTotals {
        SpillTotals {
            bytes: self.bytes.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            respills: self.respills.load(Ordering::Relaxed),
            files: self.segment.get().is_some() as u64,
            write_secs: self.write_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            reload_secs: self.reload_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewh_core::{Tuple, TUPLE_BYTES};
    use std::sync::Barrier;

    fn temp_ctx(tag: &str, fail_after: Option<u64>) -> SpillContext {
        let dir = std::env::temp_dir().join(format!("ewh-spill-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SpillContext::new(dir, fail_after)
    }

    fn entries(ctx: &SpillContext) -> Vec<PathBuf> {
        fs::read_dir(&ctx.dir)
            .map(|d| d.flatten().map(|e| e.path()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn runs_round_trip_and_account_bytes() {
        let ctx = temp_ctx("roundtrip", None);
        let tuples: Vec<Tuple> = (0..100).map(|i| Tuple::new(i - 50, i as u64)).collect();
        let batch = ColumnBatch::from_tuples(&tuples);
        let run = ctx.write_batch(&batch).expect("write");
        assert_eq!(run.tuples(), 100);
        assert_eq!(*run.key_range(), KeyRange::new(-50, 49));
        assert_eq!(ctx.totals().bytes, 8 + 100 * TUPLE_BYTES);
        assert!(ctx.totals().write_secs > 0.0);
        let back = ctx.read_run(&run).expect("read");
        assert_eq!(back, batch);
        assert!(ctx.totals().reload_secs > 0.0);
        // Retiring a run is dropping its descriptor: the record stays
        // readable for any copy of it (an adopter's, say).
        let copy = run;
        assert_eq!(ctx.read_run(&copy).expect("read again"), batch);
        let t = ctx.totals();
        assert_eq!((t.runs, t.reloads, t.files), (1, 2, 1));
        let _ = fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn nothing_touches_disk_before_the_first_run_and_one_file_serves_them_all() {
        let ctx = temp_ctx("onefile", None);
        assert!(!ctx.dir.exists(), "no directory before the first spill");
        assert_eq!(ctx.totals(), SpillTotals::default());
        let runs: Vec<SpillRun> = (0..50u64)
            .map(|i| ctx.write_run(&[i as Key], &[i]).expect("write"))
            .collect();
        assert_eq!(entries(&ctx), vec![ctx.dir.join(SEGMENT_FILE)]);
        assert_eq!((ctx.totals().runs, ctx.totals().files), (50, 1));
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.offset(), i as u64 * (8 + TUPLE_BYTES));
            assert_eq!(ctx.read_run(run).expect("read").payloads(), &[i as u64]);
        }
        let _ = fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn the_record_layout_is_count_then_key_slab_then_payload_slab_at_offset() {
        let ctx = temp_ctx("layout", None);
        let first = ctx.write_run(&[5, 6, 7], &[1, 2, 3]).expect("write");
        let run = ctx
            .write_run(&[-1, 7], &[0xAB, 0xCD])
            .expect("write two tuples");
        assert_eq!(first.offset(), 0);
        assert_eq!(run.offset(), 8 + 3 * TUPLE_BYTES, "appended at the tail");
        let bytes = fs::read(ctx.dir.join(SEGMENT_FILE)).expect("raw segment");
        let mut expect = Vec::new();
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(&(-1i64).to_le_bytes());
        expect.extend_from_slice(&7i64.to_le_bytes());
        expect.extend_from_slice(&0xABu64.to_le_bytes());
        expect.extend_from_slice(&0xCDu64.to_le_bytes());
        assert_eq!(
            &bytes[run.offset() as usize..],
            expect,
            "columnar slabs, not interleaved pairs, ending the segment"
        );
        let _ = fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn empty_runs_are_valid() {
        let ctx = temp_ctx("empty", None);
        let run = ctx.write_run(&[], &[]).expect("write empty");
        assert_eq!(run.tuples(), 0);
        assert!(run.key_range().is_empty());
        assert!(ctx.read_run(&run).expect("read empty").is_empty());
        let _ = fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn interleaved_appends_and_reloads_from_two_threads_round_trip_bit_exactly() {
        let ctx = temp_ctx("threads", None);
        let barrier = Barrier::new(2);
        let batch_of = |t: u64, i: u64| -> ColumnBatch {
            (0..(i % 37 + 1))
                .map(|j| {
                    Tuple::new(
                        (t * 1_000_003 + i * 131 + j) as Key - 500,
                        t << 40 | i << 8 | j,
                    )
                })
                .collect()
        };
        // Threads only do I/O; comparisons wait for the join, so a mismatch
        // fails the test instead of stranding the other thread at the
        // barrier.
        let written: Vec<(Vec<SpillRun>, Vec<ColumnBatch>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let (ctx, barrier, batch_of) = (&ctx, &barrier, &batch_of);
                    s.spawn(move || {
                        let (mut mine, mut reloaded) = (Vec::new(), Vec::new());
                        for i in 0..200u64 {
                            // Lock-step rounds: both threads append (and
                            // race for the tail, on round 0 for the
                            // segment itself) in the same instant.
                            barrier.wait();
                            mine.push(ctx.write_batch(&batch_of(t, i)).expect("write"));
                            reloaded.push(ctx.read_run(&mine[(i / 2) as usize]).expect("reload"));
                        }
                        (mine, reloaded)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("appender thread"))
                .collect()
        });
        // Every run of either thread reads back exactly, mid-run on its
        // own thread and afterwards from this one.
        for (t, (runs, reloaded)) in written.iter().enumerate() {
            for (i, run) in runs.iter().enumerate() {
                let (t, i) = (t as u64, i as u64);
                assert_eq!(reloaded[i as usize], batch_of(t, i / 2));
                assert_eq!(ctx.read_run(run).expect("read"), batch_of(t, i));
            }
        }
        assert_eq!((ctx.totals().runs, ctx.totals().files), (400, 1));
        assert_eq!(entries(&ctx).len(), 1);
        let _ = fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn a_truncated_segment_fails_the_reload() {
        let ctx = temp_ctx("truncated", None);
        let first = ctx.write_run(&[1, 2], &[3, 4]).expect("write");
        let last = ctx.write_run(&[5, 6], &[7, 8]).expect("write");
        OpenOptions::new()
            .write(true)
            .open(ctx.dir.join(SEGMENT_FILE))
            .and_then(|f| f.set_len(last.offset() + 12))
            .expect("truncate under the live context");
        assert!(ctx.read_run(&last).is_err(), "short read is an error");
        assert_eq!(ctx.read_run(&first).expect("intact").keys(), &[1, 2]);
        let _ = fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn descriptors_outside_the_segment_are_rejected() {
        let ctx = temp_ctx("range", None);
        let kr = KeyRange::new(0, 1);
        let stray = SpillRun::from_parts(0, 1, kr).expect("representable");
        assert!(ctx.read_run(&stray).is_err(), "nothing spilled yet");
        let run = ctx.write_run(&[10, 20], &[3, 4]).expect("write");
        let past = SpillRun::from_parts(run.offset() + 1, 2, kr).expect("representable");
        assert!(ctx.read_run(&past).is_err(), "extent crosses the tail");
        let inside = SpillRun::from_parts(8, 1, kr).expect("representable");
        assert!(ctx.read_run(&inside).is_err(), "prefix mismatch mid-record");
        assert!(SpillRun::from_parts(u64::MAX - 8, 1, kr).is_err());
        assert!(SpillRun::from_parts(0, u64::MAX / 8, kr).is_err());
        assert_eq!(ctx.totals().reloads, 0, "failed reloads are not counted");
        let _ = fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn fault_injection_fails_once_past_the_byte_limit() {
        let ctx = temp_ctx("fault", Some(0));
        assert!(ctx.write_run(&[1], &[1]).is_err());
        assert!(!ctx.dir.exists(), "a refused write creates nothing");
    }

    #[test]
    fn a_partial_limit_allows_writes_up_to_it() {
        let ctx = temp_ctx("partial", Some(1));
        let run = ctx.write_run(&[7], &[7]).expect("first write ok");
        assert_eq!(run.tuples(), 1);
        assert!(
            ctx.write_run(&[8], &[8]).is_err(),
            "limit crossed after the first run"
        );
        assert_eq!(ctx.totals().runs, 1);
        assert_eq!(ctx.read_run(&run).expect("read").keys(), &[7]);
        let _ = fs::remove_dir_all(&ctx.dir);
    }
}
