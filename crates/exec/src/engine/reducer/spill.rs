//! What a reducer sheds to disk under its query's budget, when a spilled
//! build comes back, and what a chunk replays.
//!
//! This module decides the spill ladder: while the query's gauge sits over
//! its budget the reducer sheds a whole region's build side at a time —
//! the region holding the most of it, its runs largest first, then its
//! sealed build — then the largest probe buffer, then a staged outbox
//! batch. A spilled build comes back once, whole, as soon as it and its
//! merge fit under the budget beside the query's gauge, and beside one
//! exchange of output when the region feeds a sink; until then every chunk
//! replays its runs. This is the policy of hybrid hash join (DeWitt et al.,
//! SIGMOD 1984): spill whole partitions, and bring each back once. Every
//! run is key-sorted and at most `probe_chunk` tuples long, so a reload
//! charges at most a chunk to the gauge.
//!
//! It must not decide when a region sweeps or how much a turn sweeps
//! (`sweep`), and it never sweeps but through `sweep`'s kernel. A failed
//! write or read fails the query's token with its reason, which cancels the
//! query cooperatively; nothing here panics or waits on another task.

use std::mem;

use ewh_core::{ColumnBatch, KeyRange};

use super::super::pool::BatchPool;
use super::super::spill::{SpillContext, SpillRun};
use super::super::Run;
use super::sweep::build_zone;
use super::{ReducerTask, RegionState};

impl RegionState {
    /// Removes pre-seal run `i` as a spill victim, sorted: every build or
    /// probe run in the segment is key-sorted (the replay sweeps each as
    /// it stands), and arrival order does not make it so.
    fn take_sorted_run(&mut self, i: usize) -> ColumnBatch {
        let runs = self.runs.as_mut().expect("pre-seal runs");
        let mut run = runs.swap_remove(i);
        run.sort_by_key();
        run
    }
}

impl Run<'_> {
    /// The query's gauge sits over its spill budget.
    pub(super) fn pressed(&self) -> bool {
        self.io
            .spill
            .is_some_and(|spill| self.io.gauge.current_tuples() > spill.budget_tuples)
    }
}

impl ReducerTask<'_> {
    /// Sheds state to disk while the query's gauge sits above its budget.
    /// Each iteration writes one victim down the spill ladder; the loop
    /// stops when the gauge fits, nothing spillable remains on *this*
    /// reducer (other reducers of the same query shed their own share on
    /// their own polls), or the query is cancelled — a failed write fails
    /// its token, which tears the query down.
    pub(super) fn maybe_spill(&mut self) {
        let Some(spill) = self.run.io.spill else {
            return;
        };
        while self.run.io.gauge.current_tuples() > spill.budget_tuples {
            if self.run.io.cancel.is_cancelled() || !self.spill_once(spill.ctx) {
                return;
            }
        }
    }

    /// Sheds one victim to disk and drops it from resident state. The
    /// ladder: a whole region's build-side state first (the region holding
    /// the most of it — its pre-seal runs and its sealed build — so spilled
    /// state sits in few regions and the rest never touch the disk; it
    /// stays out of memory longest, coming back once when it fits), then
    /// the largest pending probe buffer (replayed as an extra probe chunk
    /// at the next flush), then a staged outbox batch (reloaded once the
    /// exchange drains). Returns `false` when nothing spillable remains or
    /// a write failed; the gauge is only debited for what was actually
    /// written, so an error leaves the rest of the victim resident and the
    /// discard accounting balanced.
    pub(super) fn spill_once(&mut self, ctx: &SpillContext) -> bool {
        let run = self.run;

        // Rung 1: the region with the most resident build-side tuples,
        // shed whole.
        if let Some(region) = self.largest_region(RegionState::build_side_tuples) {
            let st = self.states[region]
                .as_mut()
                .expect("chosen from live states");
            if mem::take(&mut st.came_back) {
                ctx.note_respill();
            }
            return Self::shed_build(st, run, ctx, region as u32, |_| false);
        }

        // Rung 2: the largest pending probe buffer.
        if let Some(region) = self.largest_region(|st| st.pending.len()) {
            let st = self.states[region]
                .as_mut()
                .expect("chosen from live states");
            let mut victim = mem::take(&mut st.pending);
            // Probe runs must land sorted: the replay sweeps each run as a
            // self-contained, pre-sorted probe chunk.
            victim.sort_by_key();
            let region_id = Some(region as u32);
            st.pending = Self::write_capped(ctx, run, victim, region_id, &mut st.spilled_pending);
            return st.pending.is_empty();
        }

        // Rung 3: largest staged outbox batch, written as it stands. Batch
        // and tuple order across the exchange are immaterial (the
        // downstream mapper re-routes per tuple), so pulling one out of
        // the middle is safe and sorting it would be wasted work.
        let Some((i, _)) = self
            .outbox
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.len()))
            .filter(|&(_, len)| len > 0)
            .max_by_key(|&(_, len)| len)
        else {
            return false;
        };
        let victim = self.outbox.remove(i).expect("indexed above");
        let tail = Self::write_capped(ctx, run, victim, None, &mut self.spilled_outbox);
        if tail.is_empty() {
            return true;
        }
        self.outbox.push_back(tail);
        false
    }

    /// The owned region holding the most of `size`, ties to the lowest id;
    /// `None` when none holds any.
    fn largest_region(&self, size: impl Fn(&RegionState) -> usize) -> Option<usize> {
        let (region, _) = self
            .states
            .iter()
            .enumerate()
            .filter_map(|(region, slot)| Some((region, size(slot.as_ref()?))))
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(region, n)| (n, std::cmp::Reverse(region)))?;
        Some(region)
    }

    /// Sheds the region's pre-seal runs to disk, each sorted on its way
    /// out, until the seal's transient (the merge briefly holds the merged
    /// copy alongside its sources) fits under the query's budget. Without
    /// this, sealing a hot region while the gauge already sits at the spill
    /// trigger would spike resident memory to roughly twice that region's
    /// state — the one place the budget could silently leak. Shed runs skip
    /// the seal and stay on disk as capped sub-runs the sweep replays like
    /// any other spilled build run.
    pub(super) fn make_room_to_seal(st: &mut RegionState, run: &Run<'_>, region: u32) {
        let Some(spill) = run.io.spill else {
            return;
        };
        let fits = |st: &RegionState| {
            let transient = st
                .runs
                .iter()
                .flatten()
                .map(ColumnBatch::len)
                .sum::<usize>() as u64;
            transient == 0 || run.io.gauge.current_tuples() + transient <= spill.budget_tuples
        };
        Self::shed_build(st, run, spill.ctx, region, fits);
    }

    /// Sheds the region's build side to disk until `done` holds of what is
    /// left: its pre-seal runs largest first, each sorted on its way out
    /// and written one by one (a concatenation would be an uncharged copy
    /// of the region), then its sealed build. What reaches disk is counted
    /// in the region's spilled build. Returns `false` when a write failed
    /// or the query is cancelled; the unwritten tail of the victim stays
    /// resident where it was.
    fn shed_build(
        st: &mut RegionState,
        run: &Run<'_>,
        ctx: &SpillContext,
        region: u32,
        done: impl Fn(&RegionState) -> bool,
    ) -> bool {
        while !done(st) {
            if run.io.cancel.is_cancelled() {
                return false;
            }
            let largest = st
                .runs
                .iter()
                .flatten()
                .enumerate()
                .max_by_key(|(_, r)| r.len())
                .map(|(i, _)| i);
            let victim = match largest {
                Some(i) => st.take_sorted_run(i),
                None if st.build.is_empty() => return true,
                None => mem::take(&mut st.build),
            };
            let n = victim.len();
            let tail = Self::write_capped(ctx, run, victim, Some(region), &mut st.spilled_build);
            st.spilled_build_tuples += (n - tail.len()) as u64;
            if !tail.is_empty() {
                // The tail of a sorted run is a valid run again, and that of
                // the sealed build a valid build; the query is being
                // cancelled regardless.
                match &mut st.runs {
                    Some(runs) if largest.is_some() => runs.push(tail),
                    _ => st.build = tail,
                }
                return false;
            }
        }
        true
    }

    /// Writes one victim (sorted, unless it is an outbox batch, which
    /// nothing reads in order) as a sequence of runs of at most
    /// `probe_chunk` tuples each — capping run granularity keeps the
    /// reload transient during replay one chunk wide instead of the whole
    /// victim wide, which is what lets a budgeted run's realized peak
    /// stay near its trigger. The gauge is debited per written slice.
    /// Descriptors go to `out` (and, for a region's state, onto the spill
    /// board). Returns the unwritten tail: empty on success, the
    /// still-resident remainder when a write failed (which fails the
    /// query's token here).
    fn write_capped(
        ctx: &SpillContext,
        run: &Run<'_>,
        mut victim: ColumnBatch,
        region: Option<u32>,
        out: &mut impl Extend<SpillRun>,
    ) -> ColumnBatch {
        let cap = run.cfg.probe_chunk.max(1);
        let mut off = 0;
        while off < victim.len() {
            let end = (off + cap).min(victim.len());
            match ctx.write_run(&victim.keys()[off..end], &victim.payloads()[off..end]) {
                Ok(written) => {
                    run.io.gauge.sub((end - off) as u64);
                    if let Some(region) = region {
                        run.board.add_spilled(region, written.tuples());
                    }
                    out.extend([written]);
                    off = end;
                }
                Err(e) => {
                    run.io
                        .cancel
                        .fail(format!("spill failure: spill write failed: {e}"));
                    break;
                }
            }
        }
        victim.split_off(off)
    }

    /// Reloads a spilled run into a pooled buffer and charges it to the
    /// gauge; a failed read fails the query's token.
    fn reload(&self, spilled: &SpillRun, pool: &BatchPool, what: &str) -> Option<ColumnBatch> {
        let run = self.run;
        let ctx = run
            .io
            .spill
            .expect("a spilled run without a spill binding")
            .ctx;
        match ctx.read_run_into(spilled, pool.take(spilled.tuples() as usize)) {
            Ok(batch) => {
                run.io.gauge.add(batch.len() as u64);
                Some(batch)
            }
            Err(e) => {
                run.io
                    .cancel
                    .fail(format!("spill failure: {what} reload failed: {e}"));
                None
            }
        }
    }

    /// Once the resident outbox has drained into the exchange, pulls one
    /// spilled outbox run back in (the reload transient is one run; the
    /// gauge charge is released by the downstream mapper, exactly as for a
    /// never-spilled batch). `false` when none is left.
    pub(super) fn reload_outbox_run(&mut self, pool: &BatchPool) -> bool {
        let Some(run) = self.spilled_outbox.pop_front() else {
            return false;
        };
        let batch = self.reload(&run, pool, "outbox");
        self.outbox.extend(batch);
        true
    }

    /// Reloads a region's spilled build runs once each and merges them with
    /// its resident build, when the whole build and the merge's transient
    /// fit under the budget beside the query's gauge — and, for a region
    /// that feeds a sink, beside one exchange of output, which is what the
    /// next sweep turn stages: a build brought back without that room is
    /// shed again by the very slice it came back for. The region then
    /// sweeps from memory. The runs' extents become dead space in the
    /// segment (its high-water is `spill_bytes` anyway). If they do not
    /// fit, the build stays where it is and every chunk replays its runs
    /// ([`replay_spilled_build`](Self::replay_spilled_build)). After a
    /// failed reload the runs read so far are merged and the rest stay on
    /// disk; the query is being cancelled.
    pub(super) fn bring_build_back(&self, st: &mut RegionState, region: u32, pool: &BatchPool) {
        let run = self.run;
        let Some(spill) = run.io.spill.filter(|_| !st.spilled_build.is_empty()) else {
            return;
        };
        let whole = st.spilled_build_tuples + st.build.len() as u64;
        let staged = run
            .io
            .sink
            .map_or(0, |sink| sink.exchange.capacity() as u64);
        if run.io.gauge.current_tuples() + 2 * whole + staged > spill.budget_tuples {
            return;
        }
        let mut runs = vec![mem::take(&mut st.build)];
        while let Some(spilled) = st.spilled_build.pop() {
            let Some(build) = self.reload(&spilled, pool, "build") else {
                st.spilled_build.push(spilled);
                break;
            };
            run.board.sub_spilled(region, spilled.tuples());
            st.spilled_build_tuples -= spilled.tuples();
            runs.push(build);
        }
        st.build = Self::merge_gauged(runs, run);
        st.came_back = true;
    }

    /// The next probe run spilled under budget pressure, reloaded and
    /// retired. Zone fence: a run whose fence can't join any build key is
    /// retired without reloading a byte — `candidate` on the conservative
    /// union fence is exact in the negative direction, so the skipped run
    /// provably contributes no pairs.
    pub(super) fn next_spilled_probe(
        &self,
        st: &mut RegionState,
        region: u32,
        pool: &BatchPool,
    ) -> Option<ColumnBatch> {
        let build_zone = build_zone(st);
        while let Some(run) = st.spilled_pending.pop() {
            self.run.board.sub_spilled(region, run.tuples());
            if !self.run.io.cond.candidate(&build_zone, run.key_range()) {
                continue;
            }
            if let Some(probe) = self.reload(&run, pool, "probe") {
                return Some(probe);
            }
        }
        None
    }

    /// Sweeps `probe` against each of the region's build runs still on
    /// disk, reloaded transiently and freed after its sweep, and returns
    /// the pairs' `(count, checksum)`. Chunk-outer / build-run-inner keeps
    /// peak memory at one chunk + one reloaded run, at the price of
    /// re-reading each spilled run once per chunk — the fallback for a
    /// build that cannot come back, and the re-read cost the coordinator
    /// charges into migration decisions. A run whose zone fence can't join
    /// the chunk is skipped without a reload.
    pub(super) fn replay_spilled_build(
        &mut self,
        st: &RegionState,
        probe: &ColumnBatch,
        probe_zone: &KeyRange,
        pool: &BatchPool,
    ) -> (u64, u64) {
        let (mut count, mut checksum) = (0, 0);
        for run in &st.spilled_build {
            if !self.run.io.cond.candidate(run.key_range(), probe_zone) {
                continue;
            }
            if let Some(build) = self.reload(run, pool, "build") {
                let (c, x) = self.sweep_one(&build, probe, pool);
                self.run.io.gauge.sub(build.len() as u64);
                pool.put(build);
                count += c;
                checksum ^= x;
            }
        }
        (count, checksum)
    }
}
