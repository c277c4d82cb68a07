//! Tuple routing: which regions receive an incoming tuple.
//!
//! Content-sensitive schemes (CSI, CSIO) route by join key: the key maps to a
//! grid row (column) through the histogram boundaries — one read of a
//! direct-indexed table per key — and the tuple goes to every region
//! intersecting that row (column): none, on a row no candidate cell lies
//! on, since its tuples can pair with nothing. The content-insensitive
//! scheme (CI / 1-Bucket) ignores the key entirely: an `R1` tuple picks a
//! random row *band* of the J = a×b region grid and is replicated to the `b`
//! regions of that band (§II-A). A grid region too heavy for one machine and
//! too small to cut — one hot key — is a [`GridBlock`]: the same 1-Bucket
//! scatter, confined to that region's rectangle. A batch is routed by *line*
//! (grid row or column, matrix band, hash bucket): every tuple of a line goes
//! to the same regions, so each line's regions are worked out once per batch
//! ([`RouteScatter`]).

use std::mem;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use rand::Rng;

use crate::{ColumnBatch, Key};

/// Which relation a tuple being routed belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rel {
    R1,
    R2,
}

/// Batch routing: the entry point the morsel-driven executor uses, so that
/// routing work amortizes per morsel instead of per tuple. One method, one
/// implementor ([`Router`]); the per-tuple [`Router::route_r1`] /
/// [`Router::route_r2`] are the oracle it is tested against.
pub trait RouteBatch {
    /// Routes a whole batch *and* builds every touched region's fragment in
    /// one two-pass histogram-then-scatter (see [`RouteScatter`]). Consumes
    /// the RNG in exactly the order a per-tuple `route_r1` / `route_r2`
    /// loop over the batch would, so content-insensitive routing decisions
    /// are identical across the two — except over a grid with
    /// [`GridBlock`]s, which draws once per block and batch where the
    /// per-tuple loop draws once per block and tuple. `scatter` is cleared
    /// here: it owns its per-batch lifecycle.
    fn route_scatter(
        &self,
        rel: Rel,
        keys: &[Key],
        payloads: &[u64],
        rng: &mut impl Rng,
        scatter: &mut RouteScatter,
    );
}

/// Tuples a write-combining staging lane holds before it bursts into its
/// destination fragment: 64 key + 64 payload slots = 1 KiB per lane, so a
/// dozen concurrently touched regions stage entirely inside L1 while the
/// fragments themselves are written in cache-line-sized bulk copies.
const WC_LANE: usize = 64;

/// Retired fragment allocations a [`RouteScatter`] keeps for reuse.
const SPARE_FRAGMENTS: usize = 32;

/// Two-pass histogram-then-scatter routing, driven by
/// [`RouteBatch::route_scatter`]. Pass 1 counts where every tuple goes, so
/// that each touched region's fragment is allocated at its exact final
/// size. Pass 2 writes every tuple through a small cache-resident
/// *write-combining lane* per region; a full lane flushes in one bulk copy
/// per column, so the cold fragments are only ever written in
/// `WC_LANE`-sized bursts.
///
/// A batch is routed by *line*: within a batch every tuple of one line — a
/// grid row or column, a matrix row band or column, a hash bucket — goes
/// to the same regions (a block's sub-row is drawn once per batch). The
/// hash partitioner's `R2` band fan-out, whose region lists differ key by
/// key, makes each tuple a line of its own. Pass 1 records one line per
/// tuple, then each touched line's regions are listed once, in first-touch
/// order. A line none of whose regions another touched line reaches (a
/// matrix row band, a hot key's block confined to one grid row) is
/// scattered into its first region's fragment only: its regions' slots are
/// a *group* sharing that one fragment, and a copy is made only when a slot
/// is taken while another of the group is still untaken
/// ([`take_fragment`](Self::take_fragment)), or not at all when the group
/// is taken whole ([`take_group`](Self::take_group)). Any other line is
/// scattered into each of its regions; a line with none (no candidate cell
/// on it) is counted and its tuples go nowhere.
///
/// Bit-identity contract: for every region, the fragment holds — in batch
/// order — exactly the tuples a per-tuple [`Router::route_r1`] /
/// [`Router::route_r2`] loop sends there on the same RNG, and
/// [`touched`](Self::touched) lists regions in that loop's first-touch
/// order; the property tests compare the two directly. Over a grid with
/// [`GridBlock`]s the contract is per *block*: the block's regions together
/// hold what the loop sends to the block (each tuple once per sub-row or
/// sub-column), and one batch lands in one sub-row / sub-column of it.
#[derive(Debug, Default)]
pub struct RouteScatter {
    /// Per-region tuple count of the current batch (reset via `touched`).
    counts: Vec<u32>,
    /// Region id → index into `touched`/`frags` (valid iff counted).
    slot_of: Vec<u32>,
    /// Regions in first-touch order.
    touched: Vec<u32>,
    /// Per tuple: its index into `lines`.
    dests: Vec<u32>,
    /// Per-line tuple count, and line → index into `lines` (valid iff
    /// counted).
    line_counts: Vec<u32>,
    line_slot: Vec<u32>,
    /// Touched lines in first-touch order, as `(line, start, len)`: the
    /// fragment slots pass 2 writes the line's tuples to are
    /// `writes[start..start + len]`.
    lines: Vec<(u32, u32, u32)>,
    writes: Vec<u32>,
    /// `(first slot, slots, untaken slots)` of each group — a line whose
    /// regions hold its tuples alone: pass 2 writes the first slot's
    /// fragment, and the group's slots share it. Groups are runs of
    /// consecutive slots, listed in first-slot order.
    copies: Vec<(u32, u32, u32)>,
    lanes: Lanes,
    /// Built fragments, parallel to `touched`.
    frags: Vec<ColumnBatch>,
    /// Retired fragment allocations recycled into future batches.
    spare: Vec<ColumnBatch>,
}

impl RouteScatter {
    pub fn new(n_regions: usize) -> Self {
        RouteScatter {
            counts: vec![0; n_regions],
            slot_of: vec![0; n_regions],
            ..Self::default()
        }
    }

    pub fn n_regions(&self) -> usize {
        self.counts.len()
    }

    /// Region ids that received at least one tuple of the current batch, in
    /// first-touch order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// The built fragment of `touched()[slot]`, leaving an empty batch in
    /// its place; each slot is taken at most once. Only meaningful after
    /// the scatter pass has run (via [`RouteBatch::route_scatter`]). A slot
    /// of a group gets a copy of the group's fragment while another of its
    /// slots is untaken, and the last one taken gets the fragment itself.
    pub fn take_fragment(&mut self, slot: usize) -> ColumnBatch {
        let Some((first, _, left)) = self.group(slot).map(|g| &mut self.copies[g]) else {
            return mem::take(&mut self.frags[slot]);
        };
        *left -= 1;
        let (first, last) = (*first as usize, *left == 0);
        if last {
            return mem::take(&mut self.frags[first]);
        }
        let mut copy = self.spare.pop().unwrap_or_default();
        copy.extend_from_slices(self.frags[first].keys(), self.frags[first].payloads());
        copy
    }

    /// The slots sharing `touched()[slot]`'s fragment — its group, or
    /// `slot` alone — and that fragment, with no copy made; every slot of
    /// the range counts as taken. `slot` is the first of its group, none of
    /// whose slots was taken yet.
    pub fn take_group(&mut self, slot: usize) -> (Range<usize>, ColumnBatch) {
        let slots = match self.group(slot).map(|g| &mut self.copies[g]) {
            Some((first, len, left)) => {
                debug_assert!(
                    *first as usize == slot && left == len,
                    "a whole, untaken group"
                );
                *left = 0;
                slot..slot + *len as usize
            }
            None => slot..slot + 1,
        };
        (slots, mem::take(&mut self.frags[slot]))
    }

    /// The index into `copies` of the group holding `slot`, if any.
    fn group(&self, slot: usize) -> Option<usize> {
        let after = self.copies.partition_point(|c| c.0 as usize <= slot);
        let g = after.checked_sub(1)?;
        let (first, len, _) = self.copies[g];
        (slot < (first + len) as usize).then_some(g)
    }

    /// Donates a retired batch's allocation for reuse as a future fragment.
    pub fn recycle(&mut self, mut batch: ColumnBatch) {
        if self.spare.len() < SPARE_FRAGMENTS && batch.capacity() > 0 {
            batch.clear();
            self.spare.push(batch);
        }
    }

    /// Resets the per-batch state (O(touched), keeps every allocation);
    /// untaken fragments are recycled into the spare list.
    pub fn clear(&mut self) {
        for &r in &self.touched {
            self.counts[r as usize] = 0;
        }
        for &(line, ..) in &self.lines {
            self.line_counts[line as usize] = 0;
        }
        self.touched.clear();
        self.dests.clear();
        self.lines.clear();
        self.writes.clear();
        self.copies.clear();
        let mut frags = mem::take(&mut self.frags);
        for f in frags.drain(..) {
            self.recycle(f);
        }
        self.frags = frags;
    }

    /// Allocates each touched region's fragment at its exact batch size —
    /// of a group, only the first slot's, which pass 2 writes.
    fn open_fragments(&mut self) {
        debug_assert!(self.frags.is_empty());
        let mut groups = self.copies.iter().peekable();
        let mut shared = 0..0;
        for (slot, &r) in self.touched.iter().enumerate() {
            if let Some(&(_, len, _)) = groups.next_if(|g| g.0 as usize == slot) {
                shared = slot + 1..slot + len as usize;
            }
            if shared.contains(&slot) {
                self.frags.push(ColumnBatch::default());
                continue;
            }
            let mut f = self.spare.pop().unwrap_or_default();
            f.reserve(self.counts[r as usize] as usize);
            self.frags.push(f);
        }
    }

    /// Routes a batch by line (see the type docs). `line_of` gives each
    /// tuple's line in batch order, drawing from any RNG exactly as the
    /// per-tuple router would; `members` appends a line's regions in that
    /// router's emission order.
    fn route_lines(
        &mut self,
        keys: &[Key],
        payloads: &[u64],
        n_lines: usize,
        mut line_of: impl FnMut(Key) -> u32,
        mut members: impl FnMut(u32, &mut Vec<u32>),
    ) {
        self.clear();
        if self.line_counts.len() < n_lines {
            self.line_counts.resize(n_lines, 0);
            self.line_slot.resize(n_lines, 0);
        }
        for &k in keys {
            let line = line_of(k) as usize;
            if self.line_counts[line] == 0 {
                self.line_slot[line] = self.lines.len() as u32;
                self.lines.push((line as u32, 0, 0));
            }
            self.line_counts[line] += 1;
            self.dests.push(self.line_slot[line]);
        }
        // Every tuple of a line lists the line's regions, so listing each
        // touched line's once, in first-touch order, touches regions in the
        // per-tuple loop's order.
        let mut regions = Vec::new();
        for (line, start, len) in &mut self.lines {
            regions.clear();
            members(*line, &mut regions);
            (*start, *len) = (self.writes.len() as u32, regions.len() as u32);
            for &r in &regions {
                let c = &mut self.counts[r as usize];
                if *c == 0 {
                    self.slot_of[r as usize] = self.touched.len() as u32;
                    self.touched.push(r);
                }
                *c += self.line_counts[*line as usize];
                self.writes.push(self.slot_of[r as usize]);
            }
        }
        // A line whose regions hold its tuples alone touched them all
        // first, so their slots are consecutive: it writes the first, and
        // the group shares it.
        let mut all_alone = true;
        for (line, start, len) in &mut self.lines {
            let n = self.line_counts[*line as usize];
            let slots = &self.writes[*start as usize..(*start + *len) as usize];
            let alone = |&s: &u32| self.counts[self.touched[s as usize] as usize] == n;
            if *len > 0 && slots.iter().all(alone) {
                self.copies.push((slots[0], *len, *len));
                *len = 1;
            } else {
                all_alone = false;
            }
        }
        self.open_fragments();
        let tuples = self.dests.iter().zip(keys.iter().zip(payloads));
        if all_alone {
            // Each line writes a slot of its own, so lane `i` can be line
            // `i`'s: a tuple's line is its lane, without the span lookup the
            // loop below pays per tuple (1–3 ns a tuple on the
            // content-insensitive matrix, whose lines are always alone).
            self.lanes
                .open(self.copies.iter().map(|&(first, ..)| first));
            for (&i, (&k, &p)) in tuples {
                self.lanes.stage(i as usize, &mut self.frags, k, p);
            }
        } else {
            self.lanes.open(0..self.touched.len() as u32);
            for (&i, (&k, &p)) in tuples {
                let (_, start, len) = self.lines[i as usize];
                for &slot in &self.writes[start as usize..(start + len) as usize] {
                    self.lanes.stage(slot as usize, &mut self.frags, k, p);
                }
            }
        }
        self.lanes.flush(&mut self.frags);
    }
}

/// Write-combining staging lanes of [`WC_LANE`] tuples, lane `i` bursting
/// into fragment slot `slot[i]`.
#[derive(Debug, Default)]
struct Lanes {
    keys: Vec<Key>,
    payloads: Vec<u64>,
    len: Vec<u32>,
    slot: Vec<u32>,
}

impl Lanes {
    /// Opens an empty lane per fragment slot of `slots`.
    fn open(&mut self, slots: impl IntoIterator<Item = u32>) {
        self.slot.clear();
        self.slot.extend(slots);
        let n = self.slot.len();
        self.keys.resize(n * WC_LANE, 0);
        self.payloads.resize(n * WC_LANE, 0);
        self.len.clear();
        self.len.resize(n, 0);
    }

    /// Stages one tuple in `lane`; a full lane bursts into its fragment.
    #[inline(always)]
    fn stage(&mut self, lane: usize, frags: &mut [ColumnBatch], k: Key, p: u64) {
        let len = self.len[lane] as usize;
        let base = lane * WC_LANE;
        self.keys[base + len] = k;
        self.payloads[base + len] = p;
        if len + 1 == WC_LANE {
            frags[self.slot[lane] as usize].extend_from_slices(
                &self.keys[base..base + WC_LANE],
                &self.payloads[base..base + WC_LANE],
            );
            self.len[lane] = 0;
        } else {
            self.len[lane] = len as u32 + 1;
        }
    }

    /// Flushes what every lane still holds into its fragment.
    fn flush(&mut self, frags: &mut [ColumnBatch]) {
        for (lane, (len, &slot)) in self.len.iter_mut().zip(&self.slot).enumerate() {
            let range = lane * WC_LANE..lane * WC_LANE + *len as usize;
            frags[slot as usize]
                .extend_from_slices(&self.keys[range.clone()], &self.payloads[range]);
            *len = 0;
        }
    }
}

/// Epoch-versioned, shared-mutable region → owner map.
///
/// The pipelined engine publishes region ownership here instead of baking a
/// `region → reducer` slice into the execution plan: mappers re-resolve the
/// owner of every routed fragment at push time, so a migration coordinator
/// can reassign a region mid-run with [`migrate`](RoutingTable::migrate) and
/// all subsequent fragments re-route immediately. Every reassignment bumps a
/// global *epoch*; fragments are stamped with the epoch observed at routing
/// time, which lets consumers fence off in-flight data routed before a
/// migration from data routed after it (see the engine's migration
/// protocol).
///
/// Memory ordering contract: [`migrate`](RoutingTable::migrate) stores the
/// new owner *before* bumping the epoch (both release-ordered), and readers
/// load the epoch *before* the owner (both acquire-ordered). A reader that
/// still observes the old owner therefore observed a pre-migration epoch,
/// so a fragment that reaches a past owner is always stamped strictly below
/// [`migrated_at`](RoutingTable::migrated_at) — the invariant the engine's
/// forwarding fence asserts.
#[derive(Debug)]
pub struct RoutingTable {
    owners: Vec<AtomicU32>,
    /// Epoch of the last migration of each region (0 = never migrated).
    migrated_at: Vec<AtomicU64>,
    epoch: AtomicU64,
}

impl RoutingTable {
    /// Builds the table from an initial placement (`owners[region]` = owning
    /// consumer index). The initial placement is epoch 0.
    pub fn new(owners: &[u32]) -> Self {
        RoutingTable {
            owners: owners.iter().map(|&q| AtomicU32::new(q)).collect(),
            migrated_at: owners.iter().map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    pub fn n_regions(&self) -> usize {
        self.owners.len()
    }

    /// Current owner of `region`.
    #[inline]
    pub fn owner_of(&self, region: u32) -> u32 {
        self.owners[region as usize].load(Ordering::Acquire)
    }

    /// Current routing epoch (= number of migrations so far).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Epoch at which `region` was last migrated (0 = still at its initial
    /// owner).
    #[inline]
    pub fn migrated_at(&self, region: u32) -> u64 {
        self.migrated_at[region as usize].load(Ordering::Acquire)
    }

    /// Reassigns `region` to `to` and bumps the routing epoch; returns the
    /// new epoch. See the type docs for the ordering contract.
    pub fn migrate(&self, region: u32, to: u32) -> u64 {
        self.owners[region as usize].store(to, Ordering::Release);
        let new_epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.migrated_at[region as usize].store(new_epoch, Ordering::Release);
        new_epoch
    }

    /// A point-in-time copy of the full owner map.
    pub fn snapshot(&self) -> Vec<u32> {
        (0..self.owners.len() as u32)
            .map(|r| self.owner_of(r))
            .collect()
    }
}

/// Routes tuples of both relations to region ids.
#[derive(Clone, Debug)]
pub enum Router {
    Grid(GridRouter),
    Random(RandomRouter),
    Hash(HashRouter),
}

impl RouteBatch for Router {
    /// One variant dispatch per batch, each routed by line (see
    /// [`RouteScatter`]); the hash band fan-out of `R2` makes every tuple a
    /// line of its own.
    fn route_scatter(
        &self,
        rel: Rel,
        keys: &[Key],
        payloads: &[u64],
        rng: &mut impl Rng,
        scatter: &mut RouteScatter,
    ) {
        debug_assert_eq!(keys.len(), payloads.len());
        match (self, rel) {
            (Router::Grid(g), _) => {
                // One draw per block for the whole batch (see `GridBlock`).
                let picks: Vec<u32> = g.blocks.iter().map(|b| b.draw(rel, rng)).collect();
                let (index, lines) = g.axis(rel);
                scatter.route_lines(
                    keys,
                    payloads,
                    lines.len(),
                    |k| index.line_of(k) as u32,
                    |line, out| g.members(rel, &lines[line as usize], |t| picks[t], out),
                );
            }
            (Router::Random(r), Rel::R1) => {
                let cols = r.cols;
                scatter.route_lines(
                    keys,
                    payloads,
                    r.rows as usize,
                    |_k| rng.gen_range(0..r.rows),
                    |row, out| out.extend((0..cols).map(|j| row * cols + j)),
                );
            }
            (Router::Random(r), Rel::R2) => {
                let (rows, cols) = (r.rows, r.cols);
                scatter.route_lines(
                    keys,
                    payloads,
                    cols as usize,
                    |_k| rng.gen_range(0..cols),
                    |col, out| out.extend((0..rows).map(|i| i * cols + col)),
                );
            }
            (Router::Hash(h), Rel::R1) => {
                scatter.route_lines(
                    keys,
                    payloads,
                    h.num_buckets() as usize,
                    |k| h.bucket_r1(k, &mut *rng),
                    |b, out| out.push(b),
                );
            }
            (Router::Hash(h), Rel::R2) => {
                let mut tuple = 0..;
                scatter.route_lines(
                    keys,
                    payloads,
                    keys.len(),
                    |_k| tuple.next().expect("one line per tuple"),
                    |t, out| h.route_r2(keys[t as usize], out),
                );
            }
        }
    }
}

impl Router {
    /// Does every key of `lo..=hi` on `rel`'s side go to no region? Only a
    /// grid has such keys: those on lines no region takes, and a line's
    /// keys are contiguous, so the lines from `lo`'s to `hi`'s hold every
    /// key between. Any other router routes every key.
    pub fn routes_nowhere(&self, rel: Rel, lo: Key, hi: Key) -> bool {
        match self {
            Router::Grid(g) => {
                let (index, lines) = g.axis(rel);
                lines[index.line_of(lo)..=index.line_of(hi)]
                    .iter()
                    .all(Vec::is_empty)
            }
            Router::Random(_) | Router::Hash(_) => false,
        }
    }

    /// Appends the region ids receiving an `R1` tuple with key `k`.
    #[inline]
    pub fn route_r1(&self, k: Key, rng: &mut impl Rng, out: &mut Vec<u32>) {
        match self {
            Router::Grid(g) => g.route_r1(k, rng, out),
            Router::Random(r) => r.route_r1(rng, out),
            Router::Hash(h) => h.route_r1(k, rng, out),
        }
    }

    /// Appends the region ids receiving an `R2` tuple with key `k`.
    #[inline]
    pub fn route_r2(&self, k: Key, rng: &mut impl Rng, out: &mut Vec<u32>) {
        match self {
            Router::Grid(g) => g.route_r2(k, rng, out),
            Router::Random(r) => r.route_r2(rng, out),
            Router::Hash(h) => h.route_r2(k, out),
        }
    }
}

/// The regions standing in for one region of the grid's tiling: `a × b` of
/// them, ids `base + i·b + j`, over the *same* key rectangle — the 1-Bucket
/// scheme (§II-A) inside that rectangle. An `R1` tuple of the rectangle goes
/// to one sub-row `i` (its `b` regions), an `R2` tuple to one sub-column `j`
/// (its `a` regions), so each pair still meets in exactly one region, and
/// every other region of the grid is untouched. Any choice of sub-row is
/// correct; it is drawn uniformly so the block's regions share the load.
/// `a = b = 1` is an ordinary region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridBlock {
    pub base: u32,
    pub a: u32,
    pub b: u32,
}

impl GridBlock {
    /// The sub-row (`R1`) or sub-column (`R2`) a tuple goes to: drawn iff
    /// there is more than one.
    #[inline]
    fn draw(&self, rel: Rel, rng: &mut impl Rng) -> u32 {
        match rel {
            Rel::R1 if self.a > 1 => rng.gen_range(0..self.a),
            Rel::R2 if self.b > 1 => rng.gen_range(0..self.b),
            _ => 0,
        }
    }

    /// Appends the regions of sub-row (sub-column) `pick`.
    #[inline]
    fn push(&self, rel: Rel, pick: u32, out: &mut Vec<u32>) {
        let GridBlock { base, a, b } = *self;
        match rel {
            Rel::R1 => out.extend((0..b).map(|j| base + pick * b + j)),
            Rel::R2 => out.extend((0..a).map(|i| base + i * b + pick)),
        }
    }
}

/// One axis of a grid: the line each key falls in, read off a
/// direct-indexed table instead of a binary search over the bounds.
///
/// Line `i` covers keys `[bounds[i], upper[i])`, where `upper` is the grid's
/// bounds without the leading `Key::MIN`; the last line ends at `Key::MAX`
/// and holds it too. Slot `s` of the table covers the `2^shift` keys from
/// `lo + (s << shift)`, `lo` the first interior bound, and `first[s]` is the
/// line of that key. A key's line is thus one table read and a look at the
/// bounds inside its slot: one compare, without a branch, when the slot
/// holds at most one. About `2 · lines` slots span the interior bounds. Slot
/// keys are computed in `u128` / `i128`, since over a span of nearly `2^64`
/// keys `s << shift` passes `u64::MAX`.
#[derive(Clone, Debug)]
struct LineIndex {
    upper: Vec<Key>,
    lo: Key,
    shift: u32,
    first: Vec<u32>,
}

impl LineIndex {
    fn new(bounds: &[Key]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        let upper = bounds[1..].to_vec();
        let inner = &upper[..upper.len() - 1];
        let (Some(&lo), Some(&hi)) = (inner.first(), inner.last()) else {
            // One line: every key is in it.
            return LineIndex {
                upper,
                lo: Key::MAX,
                shift: 0,
                first: vec![0, 0],
            };
        };
        let span = hi.abs_diff(lo) as u128;
        let mut shift = 0;
        while span >> shift >= 2 * inner.len() as u128 {
            shift += 1;
        }
        let first = (0..=(span >> shift) + 1)
            .map(|s| {
                let key = lo as i128 + (s << shift) as i128;
                inner.partition_point(|&b| b as i128 <= key) as u32
            })
            .collect();
        LineIndex {
            upper,
            lo,
            shift,
            first,
        }
    }

    #[inline]
    fn line_of(&self, k: Key) -> usize {
        if k < self.lo {
            return 0;
        }
        let s = ((k.abs_diff(self.lo) >> self.shift) as usize).min(self.first.len() - 2);
        let (a, b) = (self.first[s] as usize, self.first[s + 1] as usize);
        if b - a > 1 {
            return a + self.upper[a..b].partition_point(|&bound| bound <= k);
        }
        // At most one bound in the slot: `upper[a]`, line `a`'s end. With
        // none, `upper[a]` lies past the slot and so above `k` — unless it
        // is the last line's `Key::MAX` and `k` is too, which `b > a` rules
        // out.
        a + ((b > a) & (self.upper[a] <= k)) as usize
    }
}

/// Content-sensitive router over a key-range grid.
///
/// Grid row `i` covers keys `[row_bounds[i], row_bounds[i+1])` of the
/// bounds it is built from, one entry per grid row plus a trailing
/// sentinel, the outer ones `Key::MIN` / `Key::MAX` so every key maps
/// somewhere (a `LineIndex` per axis holds them). `by_row[i]` lists the
/// tiling regions whose row range covers grid row `i` (likewise `by_col`),
/// none for a row the tiling left uncovered (no candidate cell on it);
/// tiling region `t` stands for the regions of `blocks[t]`, and when no
/// region is a block (`blocks` empty) for region `t` itself — such a grid
/// routes by key alone and draws nothing from the RNG.
#[derive(Clone, Debug)]
pub struct GridRouter {
    rows: LineIndex,
    cols: LineIndex,
    by_row: Vec<Vec<u32>>,
    by_col: Vec<Vec<u32>>,
    blocks: Vec<GridBlock>,
}

impl GridRouter {
    /// Builds from grid bounds and per-region grid-cell rectangles
    /// `(r0, r1, c0, c1)` (inclusive grid coordinates).
    pub fn new(
        row_bounds: Vec<Key>,
        col_bounds: Vec<Key>,
        region_rects: &[(usize, usize, usize, usize)],
    ) -> Self {
        let shapes = vec![(1, 1); region_rects.len()];
        Self::with_blocks(row_bounds, col_bounds, region_rects, &shapes)
    }

    /// [`new`](Self::new) over a tiling whose region `t` is an
    /// `shapes[t] = (a, b)` [`GridBlock`]; region ids follow the tiling's
    /// order, a block's `a·b` ids together.
    pub fn with_blocks(
        row_bounds: Vec<Key>,
        col_bounds: Vec<Key>,
        region_rects: &[(usize, usize, usize, usize)],
        shapes: &[(u32, u32)],
    ) -> Self {
        assert_eq!(region_rects.len(), shapes.len());
        let n_rows = row_bounds.len() - 1;
        let n_cols = col_bounds.len() - 1;
        let mut by_row = vec![Vec::new(); n_rows];
        let mut by_col = vec![Vec::new(); n_cols];
        for (id, &(r0, r1, c0, c1)) in region_rects.iter().enumerate() {
            debug_assert!(r0 <= r1 && r1 < n_rows && c0 <= c1 && c1 < n_cols);
            for row in by_row.iter_mut().take(r1 + 1).skip(r0) {
                row.push(id as u32);
            }
            for col in by_col.iter_mut().take(c1 + 1).skip(c0) {
                col.push(id as u32);
            }
        }
        let mut blocks = Vec::new();
        if shapes.iter().any(|&shape| shape != (1, 1)) {
            let mut base = 0;
            for &(a, b) in shapes {
                assert!(a >= 1 && b >= 1, "a block has at least one region");
                blocks.push(GridBlock { base, a, b });
                base += a * b;
            }
        }
        GridRouter {
            rows: LineIndex::new(&row_bounds),
            cols: LineIndex::new(&col_bounds),
            by_row,
            by_col,
            blocks,
        }
    }

    /// The blocks of the tiling, in region order (empty: none is one).
    pub fn blocks(&self) -> &[GridBlock] {
        &self.blocks
    }

    /// `rel`'s axis: its line index, and each line's tiling regions.
    fn axis(&self, rel: Rel) -> (&LineIndex, &[Vec<u32>]) {
        match rel {
            Rel::R1 => (&self.rows, &self.by_row),
            Rel::R2 => (&self.cols, &self.by_col),
        }
    }

    /// Appends the regions of a tuple of `rel` whose line holds the tiling
    /// regions `line`; `pick(t)` is the sub-row (sub-column) of block `t`
    /// it goes to.
    #[inline]
    fn members(
        &self,
        rel: Rel,
        line: &[u32],
        mut pick: impl FnMut(usize) -> u32,
        out: &mut Vec<u32>,
    ) {
        if self.blocks.is_empty() {
            out.extend_from_slice(line);
        } else {
            for &t in line {
                self.blocks[t as usize].push(rel, pick(t as usize), out);
            }
        }
    }

    /// One tuple routed on its own: every block it meets is drawn for it.
    #[inline]
    fn route(&self, rel: Rel, k: Key, rng: &mut impl Rng, out: &mut Vec<u32>) {
        let (index, lines) = self.axis(rel);
        let line = &lines[index.line_of(k)];
        self.members(rel, line, |t| self.blocks[t].draw(rel, rng), out);
    }

    #[inline]
    pub fn route_r1(&self, k: Key, rng: &mut impl Rng, out: &mut Vec<u32>) {
        self.route(Rel::R1, k, rng, out);
    }

    #[inline]
    pub fn route_r2(&self, k: Key, rng: &mut impl Rng, out: &mut Vec<u32>) {
        self.route(Rel::R2, k, rng, out);
    }

    /// Grid row index of a key (exposed for tests and diagnostics).
    pub fn row_of(&self, k: Key) -> usize {
        self.rows.line_of(k)
    }

    pub fn col_of(&self, k: Key) -> usize {
        self.cols.line_of(k)
    }
}

/// Content-insensitive router: the `a × b` random replication matrix of the
/// 1-Bucket scheme. Region `(i, j)` has id `i·b + j`; an `R1` tuple picks a
/// random `i` and goes to regions `(i, *)`, an `R2` tuple picks a random `j`
/// and goes to regions `(*, j)`. Replication factors are thus `b` for R1 and
/// `a` for R2.
#[derive(Clone, Copy, Debug)]
pub struct RandomRouter {
    pub rows: u32,
    pub cols: u32,
}

impl RandomRouter {
    #[inline]
    pub fn route_r1(&self, rng: &mut impl Rng, out: &mut Vec<u32>) {
        let i = rng.gen_range(0..self.rows);
        out.extend((0..self.cols).map(|j| i * self.cols + j));
    }

    #[inline]
    pub fn route_r2(&self, rng: &mut impl Rng, out: &mut Vec<u32>) {
        let j = rng.gen_range(0..self.cols);
        out.extend((0..self.rows).map(|i| i * self.cols + j));
    }
}

/// Hash-partitioning router (equi and band conditions only; see
/// `schemes::hash` for why others are impossible).
///
/// * Equi (`beta = 0`): both sides route to `hash(key) % j`.
/// * Band: `R1` routes to `hash(key)`; `R2` replicates to
///   `hash(key − β) ..= hash(key + β)` — the `2β + 1` fan-out of §V.1.
/// * Heavy keys (PRPD-style): the `R1` side scatters to a random region,
///   the `R2` side of any key joinable with a heavy key broadcasts.
#[derive(Clone, Debug)]
pub struct HashRouter {
    j: u32,
    beta: i64,
    /// Sorted heavy keys.
    heavy: Vec<Key>,
}

impl HashRouter {
    pub fn new(j: u32, beta: i64, heavy: Vec<Key>) -> Self {
        debug_assert!(heavy.windows(2).all(|w| w[0] < w[1]));
        HashRouter { j, beta, heavy }
    }

    /// Fibonacci hashing of a key onto `j` buckets.
    #[inline]
    fn bucket(&self, k: Key) -> u32 {
        ((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as u32 % self.j
    }

    #[inline]
    fn is_heavy(&self, k: Key) -> bool {
        self.heavy.binary_search(&k).is_ok()
    }

    /// Is any heavy key within the band of `k`?
    #[inline]
    fn near_heavy(&self, k: Key) -> bool {
        let lo = k.saturating_sub(self.beta);
        let i = self.heavy.partition_point(|&h| h < lo);
        self.heavy
            .get(i)
            .map(|&h| h <= k.saturating_add(self.beta))
            .unwrap_or(false)
    }

    /// Number of hash buckets (= regions) this router partitions into.
    #[inline]
    pub fn num_buckets(&self) -> u32 {
        self.j
    }

    /// The single region an `R1` tuple with key `k` routes to, drawing
    /// from the RNG exactly as [`route_r1`](Self::route_r1) does (heavy
    /// keys scatter to a random region) — the by-line scatter's line of an
    /// `R1` tuple.
    #[inline]
    pub fn bucket_r1(&self, k: Key, rng: &mut impl Rng) -> u32 {
        if self.is_heavy(k) {
            rng.gen_range(0..self.j)
        } else {
            self.bucket(k)
        }
    }

    #[inline]
    pub fn route_r1(&self, k: Key, rng: &mut impl Rng, out: &mut Vec<u32>) {
        out.push(self.bucket_r1(k, rng));
    }

    #[inline]
    pub fn route_r2(&self, k: Key, out: &mut Vec<u32>) {
        if self.near_heavy(k) {
            // Broadcast: the heavy partner may sit on any worker. Non-heavy
            // partners in the band are also satisfied (every bucket present).
            out.extend(0..self.j);
            return;
        }
        let start = out.len();
        for key in k.saturating_sub(self.beta)..=k.saturating_add(self.beta) {
            let b = self.bucket(key);
            if !out[start..].contains(&b) {
                out.push(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid() -> GridRouter {
        // 3x3 grid with bounds at 10 and 20; regions: top-left 2x2, right
        // column, bottom-left strip.
        GridRouter::new(
            vec![Key::MIN, 10, 20, Key::MAX],
            vec![Key::MIN, 10, 20, Key::MAX],
            &[(0, 1, 0, 1), (0, 2, 2, 2), (2, 2, 0, 1)],
        )
    }

    #[test]
    fn keys_map_to_expected_regions() {
        let g = grid();
        let mut out = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let r = Router::Grid(g);

        // R1 key 5 -> grid row 0 -> regions 0 (rows 0..1) and 1 (rows 0..2).
        r.route_r1(5, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1]);
        out.clear();
        // R1 key 25 -> grid row 2 -> regions 1 and 2.
        r.route_r1(25, &mut rng, &mut out);
        assert_eq!(out, vec![1, 2]);
        out.clear();
        // R2 key 12 -> grid col 1 -> regions 0 and 2.
        r.route_r2(12, &mut rng, &mut out);
        assert_eq!(out, vec![0, 2]);
        out.clear();
        // R2 key 99 -> grid col 2 -> region 1 only.
        r.route_r2(99, &mut rng, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn extreme_keys_clamp_into_grid() {
        let g = grid();
        assert_eq!(g.row_of(Key::MIN), 0);
        assert_eq!(g.row_of(Key::MAX), 2);
        assert_eq!(g.col_of(9), 0);
        assert_eq!(g.col_of(10), 1);
    }

    #[test]
    fn random_router_replicates_a_full_band() {
        let r = RandomRouter { rows: 4, cols: 8 };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        r.route_r1(&mut rng, &mut out);
        assert_eq!(out.len(), 8, "R1 replicated to all regions of its row band");
        let band = out[0] / 8;
        assert!(out.iter().all(|&id| id / 8 == band));

        out.clear();
        r.route_r2(&mut rng, &mut out);
        assert_eq!(out.len(), 4, "R2 replicated to all regions of its column");
        let col = out[0] % 8;
        assert!(out.iter().all(|&id| id % 8 == col));
    }

    /// The routing oracle: a per-tuple `route_r1` / `route_r2` loop filling
    /// per-region index buckets, regions listed in first-touch order.
    fn per_tuple_buckets(
        router: &Router,
        rel: Rel,
        keys: &[Key],
        n_regions: usize,
        rng: &mut SmallRng,
    ) -> (Vec<u32>, Vec<Vec<u32>>) {
        let mut buckets = vec![Vec::new(); n_regions];
        let mut touched = Vec::new();
        let mut out = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            out.clear();
            match rel {
                Rel::R1 => router.route_r1(k, rng, &mut out),
                Rel::R2 => router.route_r2(k, rng, &mut out),
            }
            for &region in &out {
                if buckets[region as usize].is_empty() {
                    touched.push(region);
                }
                buckets[region as usize].push(i as u32);
            }
        }
        (touched, buckets)
    }

    #[test]
    fn route_scatter_matches_buckets_and_gather() {
        // The WC two-pass scatter must reproduce the per-tuple oracle bit
        // for bit: same fragments (contents and per-region order), same
        // first-touch region order, same RNG consumption.
        let routers = [
            Router::Grid(grid()),
            Router::Random(RandomRouter { rows: 4, cols: 8 }),
            Router::Hash(HashRouter::new(7, 2, vec![5, 40])),
        ];
        for router in routers {
            for rel in [Rel::R1, Rel::R2] {
                let keys: Vec<Key> = (0..300).map(|i| (i * 7) % 64).collect();
                let payloads: Vec<u64> = (0..300).map(|i| i as u64 * 3).collect();
                let batch = ColumnBatch::from_columns(keys.clone(), payloads.clone());
                let n_regions = 64;
                let mut sc = RouteScatter::new(n_regions);
                let mut oracle_rng = SmallRng::seed_from_u64(77);
                let mut rng = SmallRng::seed_from_u64(77);
                // The second batch goes through the same scratch (recycled
                // fragment allocations, cleared histogram) on the RNG the
                // first one left behind.
                for len in [300, 97] {
                    let (touched, buckets) =
                        per_tuple_buckets(&router, rel, &keys[..len], n_regions, &mut oracle_rng);
                    router.route_scatter(rel, &keys[..len], &payloads[..len], &mut rng, &mut sc);
                    assert_eq!(sc.touched(), touched);
                    for (slot, &region) in touched.iter().enumerate() {
                        let expect = batch.gather(&buckets[region as usize]);
                        assert_eq!(sc.take_fragment(slot), expect, "region {region}");
                    }
                    assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn a_group_shares_one_fragment_taken_in_any_order_or_whole() {
        // A matrix row band's regions hold its tuples alone: one group of
        // `cols` slots. Taken slot by slot in reverse, or as whole groups,
        // every region still gets exactly its oracle fragment.
        let router = Router::Random(RandomRouter { rows: 3, cols: 4 });
        let keys: Vec<Key> = (0..200).collect();
        let payloads: Vec<u64> = (0..200).map(|i| i * 5 + 1).collect();
        let batch = ColumnBatch::from_columns(keys.clone(), payloads.clone());
        let mut sc = RouteScatter::new(12);
        let (touched, buckets) =
            per_tuple_buckets(&router, Rel::R1, &keys, 12, &mut SmallRng::seed_from_u64(3));
        let expect = |region: u32| batch.gather(&buckets[region as usize]);
        router.route_scatter(
            Rel::R1,
            &keys,
            &payloads,
            &mut SmallRng::seed_from_u64(3),
            &mut sc,
        );
        for slot in (0..touched.len()).rev() {
            assert_eq!(sc.take_fragment(slot), expect(touched[slot]));
        }
        router.route_scatter(
            Rel::R1,
            &keys,
            &payloads,
            &mut SmallRng::seed_from_u64(3),
            &mut sc,
        );
        let mut slot = 0;
        while slot < touched.len() {
            let (slots, fragment) = sc.take_group(slot);
            assert_eq!(slots.len(), 4, "a row band is one group");
            for s in slots.clone() {
                assert_eq!(fragment, expect(touched[s]));
            }
            slot = slots.end;
        }
    }

    #[test]
    fn a_line_without_regions_leaves_the_others_grouped_and_goes_nowhere() {
        // Grid row 3 (keys from 30) has no region: no candidate cell lies on
        // it. Rows 0 and 2 are groups of two regions each, row 1 one region:
        // the groups keep their shared fragment beside a line that takes no
        // region, and that line's tuples reach no fragment.
        let rows = vec![Key::MIN, 10, 20, 30, Key::MAX];
        let cols = vec![Key::MIN, 10, 20, Key::MAX];
        let rects = [
            (0, 0, 0, 1),
            (0, 0, 2, 2),
            (1, 1, 0, 2),
            (2, 2, 0, 0),
            (2, 2, 1, 2),
        ];
        let router = Router::Grid(GridRouter::new(rows, cols, &rects));
        let keys: Vec<Key> = (0..240).map(|i| (i * 13) % 47).collect();
        let payloads: Vec<u64> = (0..240).map(|i| i * 3 + 1).collect();
        let batch = ColumnBatch::from_columns(keys.clone(), payloads.clone());
        let mut sc = RouteScatter::new(5);
        let mut rng = SmallRng::seed_from_u64(9);
        let (touched, buckets) = per_tuple_buckets(&router, Rel::R1, &keys, 5, &mut rng);
        let expect = |region: u32| batch.gather(&buckets[region as usize]);
        assert!(keys.iter().any(|&k| k >= 30), "premise: keys on row 3");
        assert!(buckets.iter().flatten().all(|&i| keys[i as usize] < 30));
        for take_whole in [false, true] {
            router.route_scatter(Rel::R1, &keys, &payloads, &mut rng, &mut sc);
            assert_eq!(sc.touched(), touched);
            let mut slot = 0;
            while slot < touched.len() {
                if take_whole {
                    let (slots, fragment) = sc.take_group(slot);
                    let size = if touched[slot] == 2 { 1 } else { 2 };
                    assert_eq!(slots.len(), size, "rows 0 and 2 are groups of two");
                    assert!(slots.clone().all(|s| fragment == expect(touched[s])));
                    slot = slots.end;
                } else {
                    assert_eq!(sc.take_fragment(slot), expect(touched[slot]));
                    slot += 1;
                }
            }
        }
        // A batch of row 3 alone touches nothing, which its two ends tell.
        let dead: Vec<Key> = (30..94).collect();
        router.route_scatter(Rel::R1, &dead, &payloads[..64], &mut rng, &mut sc);
        assert!(sc.touched().is_empty());
        assert!(router.routes_nowhere(Rel::R1, 30, Key::MAX));
        assert!(!router.routes_nowhere(Rel::R1, 29, 30));
        assert!(!router.routes_nowhere(Rel::R2, 30, 93));
    }

    #[test]
    fn a_block_takes_one_sub_row_per_batch_and_keeps_each_tiling_regions_multiset() {
        // The 3x3 grid above with its 2x2 region a 2×3 block (ids 0..6), the
        // right column an ordinary region (6) and the strip a 1×2 block
        // (7, 8). Per tiling region the scatter must hold what the per-tuple
        // loop holds — every tuple of its rows `b` times (columns: `a`
        // times) — with a whole batch in one sub-row / sub-column of each
        // block; the ordinary region's fragment is the loop's, bit for bit.
        let bounds = vec![Key::MIN, 10, 20, Key::MAX];
        let rects = [(0, 1, 0, 1), (0, 2, 2, 2), (2, 2, 0, 1)];
        let shapes = [(2, 3), (1, 1), (1, 2)];
        let grid = GridRouter::with_blocks(bounds.clone(), bounds, &rects, &shapes);
        let tiling_of = |region: u32| {
            let at = |b: &&GridBlock| (b.base..b.base + b.a * b.b).contains(&region);
            let block = grid.blocks().iter().find(at).expect("a region of the grid");
            (block.base, *block)
        };
        let router = Router::Grid(grid.clone());
        let keys: Vec<Key> = (0..300).map(|i| (i * 7) % 30).collect();
        let payloads: Vec<u64> = (0..300).collect();
        let mut sc = RouteScatter::new(9);
        let (mut rng, mut oracle_rng) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(6));
        let mut sub_rows_seen = std::collections::BTreeSet::new();
        for rel in [Rel::R1, Rel::R2] {
            for batch in keys.chunks(40).zip(payloads.chunks(40)) {
                let (touched, buckets) =
                    per_tuple_buckets(&router, rel, batch.0, 9, &mut oracle_rng);
                router.route_scatter(rel, batch.0, batch.1, &mut rng, &mut sc);
                // Tuples (by payload) per tiling region, from both.
                let mut got = std::collections::BTreeMap::<u32, Vec<u64>>::new();
                let mut expect = got.clone();
                let mut lanes = std::collections::BTreeMap::<u32, Vec<u32>>::new();
                for (slot, &region) in sc.touched().to_vec().iter().enumerate() {
                    let (t, block) = tiling_of(region);
                    let frag = sc.take_fragment(slot);
                    if block.a * block.b == 1 {
                        let mine = ColumnBatch::from_columns(batch.0.to_vec(), batch.1.to_vec())
                            .gather(&buckets[region as usize]);
                        assert_eq!(frag, mine, "ordinary region {region}");
                    }
                    got.entry(t).or_default().extend(frag.payloads());
                    let lane = match rel {
                        Rel::R1 => (region - block.base) / block.b,
                        Rel::R2 => (region - block.base) % block.b,
                    };
                    lanes.entry(t).or_default().push(lane);
                }
                for &region in &touched {
                    let idx = buckets[region as usize].iter();
                    let tuples = idx.map(|&i| batch.1[i as usize]);
                    expect
                        .entry(tiling_of(region).0)
                        .or_default()
                        .extend(tuples);
                }
                for list in got.values_mut().chain(expect.values_mut()) {
                    list.sort_unstable();
                }
                assert_eq!(got, expect, "{rel:?}");
                for (t, mut lane) in lanes {
                    lane.dedup();
                    assert_eq!(lane.len(), 1, "{rel:?}: block {t} split a batch: {lane:?}");
                    sub_rows_seen.insert((rel == Rel::R1, t, lane[0]));
                }
            }
        }
        // Over the batches every sub-row and sub-column was drawn: 2 + 1 for
        // R1 (the strip has one row), 3 + 2 for R2, plus the plain region.
        assert_eq!(sub_rows_seen.len(), (2 + 1 + 1) + (3 + 1 + 2));
    }

    #[test]
    fn routing_table_migrations_bump_the_epoch_and_reroute() {
        let table = RoutingTable::new(&[0, 0, 1, 1]);
        assert_eq!(table.n_regions(), 4);
        assert_eq!(table.epoch(), 0);
        assert_eq!(table.snapshot(), vec![0, 0, 1, 1]);
        assert_eq!(table.migrated_at(2), 0, "never migrated");

        let e1 = table.migrate(2, 0);
        assert_eq!(e1, 1);
        assert_eq!(table.owner_of(2), 0);
        assert_eq!(table.migrated_at(2), 1);
        assert_eq!(table.epoch(), 1);

        let e2 = table.migrate(0, 1);
        assert_eq!(e2, 2);
        assert_eq!(table.snapshot(), vec![1, 0, 0, 1]);
        // Regions keep their own last-migration epoch.
        assert_eq!(table.migrated_at(0), 2);
        assert_eq!(table.migrated_at(2), 1);
    }

    #[test]
    fn every_r1_r2_pair_meets_exactly_once_in_ci() {
        // The correctness core of 1-Bucket: any (row band, column) pair
        // intersects in exactly one region.
        let r = RandomRouter { rows: 3, cols: 5 };
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..50 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            r.route_r1(&mut rng, &mut a);
            r.route_r2(&mut rng, &mut b);
            let shared: Vec<_> = a.iter().filter(|x| b.contains(x)).collect();
            assert_eq!(shared.len(), 1);
        }
    }
}
