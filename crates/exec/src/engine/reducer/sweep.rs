//! When a region's probe buffer is swept, and how much of it one turn
//! sweeps.
//!
//! This module decides the cadence — a sealed region buffers probe
//! fragments until they make a chunk worth sweeping: an eighth of its
//! build, resident and spilled, and never fewer than `probe_chunk` tuples
//! ([`RegionState::sweep_due`]) — the sweep queue's turns, the slice a
//! turn takes for a sink, the build × chunk sweep itself, and the zone
//! fences that skip a side which cannot join. It must not touch the disk
//! or decide what the budget sheds: a chunk's spilled build runs and
//! spilled probe runs come from `spill`, which also decides whether a
//! spilled build comes back before the turn.
//!
//! The buffer is what pays for the sweep: a chunk of `c` sorted probe
//! tuples against `b` build tuples costs about `c` gallops across the build
//! while `c ≪ b`, each a cache miss, and a walk of the build in order once
//! `c` reaches `b / 8` (about eight build tuples a probe tuple, the
//! per-input cost the paper's region weight charges). While the query sits
//! over its spill budget a region sweeps at the floor, since the sweep then
//! frees memory that would otherwise go to disk. A chunk swept against a
//! spilled build waits for an eighth of the whole build, since it pays for
//! reloading the spilled runs as well as for walking them.
//!
//! With a sink, a slice is as much of a sorted probe chunk as joins to one
//! exchange of output — a single tuple if its partners alone are more —
//! because a hot chunk's whole output can be twenty exchanges, and every
//! reducer of a stage may hold one.

use std::mem;
use std::time::Instant;

use ewh_core::{ColumnBatch, KeyRange};

use crate::local_join::{sweep_columns, sweep_columns_each, tail_within};

use super::super::pool::BatchPool;
use super::{ReducerTask, RegionState};

/// Resident build tuples per buffered probe tuple at which a sealed region
/// sweeps (see the module docs for why).
const BUILD_PER_PROBE: usize = 8;

/// The probe tuples a sealed region with `build` build tuples, resident
/// and spilled, buffers before its sweep is due while the query is under
/// its budget.
pub(super) fn due_at(floor: usize, build: usize) -> usize {
    floor.max(build / BUILD_PER_PROBE)
}

impl RegionState {
    /// Whether the sealed region's probe buffer is due for a sweep: at
    /// least `floor` tuples and, unless the query is `pressed` over its
    /// spill budget, [`due_at`] its whole build.
    fn sweep_due(&self, floor: usize, pressed: bool) -> bool {
        let due = if pressed {
            floor
        } else {
            due_at(floor, self.build.len() + self.spilled_build_tuples as usize)
        };
        self.is_sealed() && self.pending.len() >= due
    }
}

impl ReducerTask<'_> {
    /// Queues `region` for a sweep turn once its probe buffer is due: the
    /// trigger of a probe fragment, a seal and an adoption.
    pub(super) fn queue_if_due(&mut self, region: u32) {
        let run = self.run;
        if let Some(st) = &self.states[region as usize] {
            if st.sweep_due(run.cfg.probe_chunk, run.pressed()) {
                self.queue_sweep(region);
            }
        }
    }

    /// Queues `region` for a sweep turn if it is sealed and holds probe
    /// tuples, resident or spilled: the trigger of `SealAll` and `Finish`,
    /// which sweep whatever is left.
    pub(super) fn queue_if_buffered(&mut self, region: u32) {
        if let Some(st) = &self.states[region as usize] {
            if st.is_sealed() && st.has_buffered() {
                self.queue_sweep(region);
            }
        }
    }

    /// Queues `region` for a sweep turn of the poll loop, once.
    fn queue_sweep(&mut self, region: u32) {
        if !self.sweep_queue.contains(&region) {
            self.sweep_queue.push_back(region);
        }
    }

    /// One sweep turn of the poll loop: a slice of the queue head's
    /// buffered probe state. A region with more to sweep keeps the head,
    /// so a half-swept chunk is finished before any other region's.
    /// `false` when no region is queued.
    pub(super) fn sweep_turn(&mut self, pool: &BatchPool) -> bool {
        let Some(region) = self.sweep_queue.pop_front() else {
            return false;
        };
        // Out of `states` for the turn, so the sweep stages on `self`.
        let mut st = self.states[region as usize]
            .take()
            .expect("a queued region stays owned until its sweep");
        if self.flush(&mut st, region, pool) {
            self.sweep_queue.push_front(region);
        }
        self.states[region as usize] = Some(st);
        true
    }

    /// Sweeps and frees one chunk of the region's buffered probe state and
    /// reports whether more is left. A spilled build that fits under the
    /// budget comes back first, so the chunk sweeps from memory. The chunk
    /// is the resident pending tuples or, once those are gone, one probe
    /// run spilled under budget pressure (replayed one a turn, so the
    /// reload transient stays one chunk wide).
    ///
    /// With a sink, only the chunk's tail whose pairs fit the downstream
    /// exchange is swept ([`tail_within`]; the tail, so a slice copies
    /// itself and not the remainder) and the sorted rest stays in
    /// `pending`. The slice is sized from the resident build alone: build
    /// runs left on disk exist only under a budget, which then bounds the
    /// outbox too (the ladder's last rung).
    fn flush(&mut self, st: &mut RegionState, region: u32, pool: &BatchPool) -> bool {
        debug_assert!(st.is_sealed());
        self.bring_build_back(st, region, pool);
        let mut chunk = mem::take(&mut st.pending);
        chunk.sort_by_key();
        if chunk.is_empty() {
            if let Some(probe) = self.next_spilled_probe(st, region, pool) {
                chunk = probe;
            }
        }
        if let Some(sink) = self.run.io.sink {
            // At most an exchange of tuples is looked at, so the count costs
            // what a slice may hold, not what a long chunk still does.
            let cap = sink.exchange.capacity();
            let tail = &chunk.keys()[chunk.len().saturating_sub(cap)..];
            let keep = tail_within(&st.build, tail, self.run.io.cond, cap);
            if keep < chunk.len() {
                let slice = chunk.split_off(chunk.len() - keep);
                st.pending = mem::replace(&mut chunk, slice);
            }
        }
        if !chunk.is_empty() {
            self.sweep_chunk(st, chunk, pool);
        }
        st.has_buffered()
    }

    /// Sweeps one sorted probe chunk against the region's full build side —
    /// the resident build here, each build run still on disk replayed by
    /// `spill` — then frees the chunk. A sort-merge join distributes over
    /// any partition of its build side into sorted runs and of its probe
    /// side into chunks, and the order-invariant XOR checksum makes the
    /// recombination bit-identical to one in-memory sweep.
    fn sweep_chunk(&mut self, st: &mut RegionState, probe: ColumnBatch, pool: &BatchPool) {
        let run = self.run;
        // Zone fence: a build side whose key fence can't join this chunk is
        // skipped without touching its columns.
        let probe_zone = zone_of(&probe);
        let (count, checksum) = if run.io.cond.candidate(&zone_of(&st.build), &probe_zone) {
            self.sweep_one(&st.build, &probe, pool)
        } else {
            (0, 0)
        };
        let (c, x) = self.replay_spilled_build(st, &probe, &probe_zone, pool);
        st.output += count + c;
        st.checksum ^= checksum ^ x;
        run.board.note_chunk_swept(self.me);
        run.io.gauge.sub(probe.len() as u64);
        pool.put(probe);
    }

    /// One build × probe sweep. With a sink, the swept pairs are
    /// materialized in emission-sized batches, charged to the shared gauge,
    /// and staged on the outbox for the downstream exchange (see the
    /// reducer's module docs — the outbox is what keeps a full exchange
    /// from suspending a pool worker). The gauge charge is released by the
    /// downstream mapper once it has routed the batch.
    pub(super) fn sweep_one(
        &mut self,
        build: &ColumnBatch,
        probe: &ColumnBatch,
        pool: &BatchPool,
    ) -> (u64, u64) {
        let run = self.run;
        let start = Instant::now();
        let out = match run.io.sink {
            None => sweep_columns(build, probe, run.io.cond, run.cfg.work),
            Some(sink) => {
                let cap = sink.batch_tuples.max(1);
                let mut buf = pool.take(cap);
                let mut ship = |batch: ColumnBatch| {
                    run.io.gauge.add(batch.len() as u64);
                    self.outbox.push_back(batch);
                };
                let (count, checksum) =
                    sweep_columns_each(build, probe, run.io.cond, run.io.key_from, |k, p| {
                        buf.push(k, p);
                        if buf.len() >= cap {
                            ship(mem::replace(&mut buf, pool.take(cap)));
                        }
                    });
                if !buf.is_empty() {
                    ship(buf);
                } else {
                    pool.put(buf);
                }
                (count, checksum)
            }
        };
        run.counters.sweep_secs.add_since(start);
        out
    }
}

/// A sorted batch's zone fence: its first and last key (empty batches
/// fence nothing).
fn zone_of(batch: &ColumnBatch) -> KeyRange {
    match (batch.keys().first(), batch.keys().last()) {
        (Some(&lo), Some(&hi)) => KeyRange::new(lo, hi),
        _ => KeyRange::empty(),
    }
}

/// The region's whole build-side fence: the union of the resident build's
/// range and every spilled build run's recorded fence. The union may cover
/// gaps, so it is conservative — `candidate` returning false against it is
/// exact (no key in the probe range can join), and that is the only
/// direction the fence is used in.
pub(super) fn build_zone(st: &RegionState) -> KeyRange {
    let mut zone = zone_of(&st.build);
    for run in &st.spilled_build {
        let r = run.key_range();
        if !r.is_empty() {
            zone = if zone.is_empty() {
                *r
            } else {
                KeyRange::new(zone.lo.min(r.lo), zone.hi.max(r.hi))
            };
        }
    }
    zone
}
