//! Execution metrics: per-worker loads, the realized weight function, and
//! resource accounting (memory, network), mirroring what §VI-B measures.

use ewh_core::CostModel;

use crate::engine::SpillTotals;

/// Metrics of one join execution.
#[derive(Clone, Debug, Default)]
pub struct JoinStats {
    /// Total output tuples produced (must equal the reference join size).
    pub output_total: u64,
    /// Input tuples received per worker (both relations, replication
    /// included).
    pub per_worker_input: Vec<u64>,
    /// Output tuples produced per worker.
    pub per_worker_output: Vec<u64>,
    /// Realized maximum region weight in milli-units — the paper's
    /// "computed after the join execution" weights of Fig. 4h.
    pub max_weight_milli: u64,
    /// Simulated join time: max worker weight at a fixed units-per-second
    /// rate (the paper's cost model, validated by Fig. 4h).
    pub sim_join_secs: f64,
    /// Measured wall-clock of the threaded local-join phase.
    pub wall_join_secs: f64,
    /// Tuples delivered mapper → reducer, once per region they feed
    /// (replication included) — not the copies on a wire, which carries a
    /// replicated fragment once per reducer (`wire_bytes`).
    pub network_tuples: u64,
    /// Modeled cluster memory of a full shuffle materialization
    /// (`network_tuples × 16 B`) — what the batch path holds resident.
    pub mem_bytes: u64,
    /// Bytes actually resident at the high-water mark. Equals `mem_bytes`
    /// under [`ExecMode::Batch`](crate::ExecMode); strictly smaller under
    /// the pipelined engine, which frees probe chunks after their sweep and
    /// regions as they complete.
    pub peak_resident_bytes: u64,
    /// Did the resident footprint (`peak_resident_bytes`) exceed the
    /// configured cluster capacity? (The paper extrapolates such runs; we
    /// complete them and flag the overflow.)
    pub overflowed: bool,
    /// Fold of all output tuples' payloads; forces the "post-processing
    /// cost per output tuple" to really happen and lets tests compare runs.
    pub checksum: u64,
    /// Units the pipelined engine's mappers routed: scan morsels holding a
    /// key some region takes, and exchange batches (0 under batch
    /// execution). A scan morsel whose keys all fall on grid lines no region
    /// takes is completed unrouted and not counted.
    pub morsels_routed: u64,
    /// Regions reassigned between reducer tasks at run time by the
    /// pipelined engine's migration coordinator (0 under batch execution or
    /// with `AdaptiveConfig::reassign` off).
    pub regions_migrated: u64,
    /// Tuples of sealed region state shipped reducer → reducer by those
    /// migrations — the "tuples move twice" cost §V warns about, kept
    /// separate from `network_tuples` (mapper → reducer volume).
    pub migration_tuples: u64,
    /// Summed migration handshake latency: coordinator decision → state
    /// adopted by the new owner, including the old owner's queue drain.
    pub migration_secs: f64,
    /// Total mapper time blocked on full reducer queues (backpressure).
    pub backpressure_secs: f64,
    /// Total mapper time spent routing: each scan morsel's transpose into
    /// the mapper's columns, the batched router scans over the key column
    /// plus the write-combining scatter that builds every per-region
    /// fragment (0 under batch execution, which shuffles up front instead).
    /// Under a transport it also holds each delivery's frame encode and
    /// socket write, which the mapper makes as it ships.
    pub route_secs: f64,
    /// Total reducer time sealing build sides — the one sort of a region's
    /// collected runs at the `R1` seal, a migration or finish (0 under
    /// batch execution).
    pub merge_secs: f64,
    /// Total reducer time sweeping probe chunks against build state (0
    /// under batch execution, which joins per region after the shuffle).
    /// A region's chunks hold an eighth of its build or more (the
    /// `probe_chunk` floor under budget pressure), so this grows with the
    /// region's input and output, not with build × probe / chunk.
    pub sweep_secs: f64,
    /// Time this query waited in the shared runtime's admission queue
    /// before its tasks could be submitted (0 under batch execution, and
    /// for engine-level runs that bypass admission). Runtime-wide counters
    /// — tasks stolen, pool utilization — live in
    /// [`RuntimeMetrics`](crate::RuntimeMetrics); this is the per-query
    /// share of the admission story.
    pub admission_wait_secs: f64,
    /// Per reducer task: time processing deliveries vs. waiting on the
    /// queue. Empty under batch execution. Under a transport the busy time
    /// holds the `CREDIT` frame each take writes back to the sender.
    pub reducer_busy_secs: Vec<f64>,
    pub reducer_idle_secs: Vec<f64>,
    /// Bytes appended to the query's spill segment under a memory budget
    /// (0 without budget pressure, and always 0 under batch execution).
    pub spill_bytes: u64,
    /// Wall time spent writing spill runs.
    pub spill_secs: f64,
    /// Wall time spent reading spill runs back for replay.
    pub reload_secs: f64,
    /// Spill runs appended.
    pub spill_runs: u64,
    /// Spill runs read back: a build run once when its region's build
    /// comes back whole, or once per chunk that replays it while it cannot.
    pub spill_reloads: u64,
    /// Region builds shed again after they came back from disk.
    pub spill_respills: u64,
    /// Spill files created: 1 once anything spilled (one segment per
    /// query, however many runs), else 0.
    pub spill_files: u64,
    /// Bytes the framed transport's data writers put on the wire, frame
    /// headers and sibling ids included: one copy of a replicated fragment
    /// per reducer that owns some of its regions (0 for in-process queues
    /// and under batch execution).
    pub wire_bytes: u64,
}

/// Adds `src` elementwise into `dst`, growing `dst` as needed.
fn add_elementwise<T: Copy + std::ops::AddAssign + Default>(dst: &mut Vec<T>, src: &[T]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), T::default());
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl JoinStats {
    /// Aggregates another operator's stats into this one — the canonical
    /// way to total a multi-operator run (a chained query plan, a scheme
    /// sweep) instead of summing fields by hand in every bench binary.
    ///
    /// Volumes, counts and times add; per-worker vectors add elementwise
    /// (growing to the longer length); checksums XOR (order-invariant, as
    /// everywhere else); `peak_resident_bytes` combines by `max` for
    /// *sequential* runs — concurrent operators sharing a
    /// [`MemGauge`](crate::MemGauge) already report a global peak, which a
    /// sum would double-count; `max_weight_milli` takes the slowest
    /// worker across runs.
    pub fn merge(&mut self, other: &JoinStats) {
        self.output_total += other.output_total;
        add_elementwise(&mut self.per_worker_input, &other.per_worker_input);
        add_elementwise(&mut self.per_worker_output, &other.per_worker_output);
        self.max_weight_milli = self.max_weight_milli.max(other.max_weight_milli);
        self.sim_join_secs += other.sim_join_secs;
        self.wall_join_secs += other.wall_join_secs;
        self.network_tuples += other.network_tuples;
        self.mem_bytes += other.mem_bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(other.peak_resident_bytes);
        self.overflowed |= other.overflowed;
        self.checksum ^= other.checksum;
        self.morsels_routed += other.morsels_routed;
        self.regions_migrated += other.regions_migrated;
        self.migration_tuples += other.migration_tuples;
        self.migration_secs += other.migration_secs;
        self.backpressure_secs += other.backpressure_secs;
        self.route_secs += other.route_secs;
        self.merge_secs += other.merge_secs;
        self.sweep_secs += other.sweep_secs;
        self.admission_wait_secs += other.admission_wait_secs;
        add_elementwise(&mut self.reducer_busy_secs, &other.reducer_busy_secs);
        add_elementwise(&mut self.reducer_idle_secs, &other.reducer_idle_secs);
        self.spill_bytes += other.spill_bytes;
        self.spill_secs += other.spill_secs;
        self.reload_secs += other.reload_secs;
        self.spill_runs += other.spill_runs;
        self.spill_reloads += other.spill_reloads;
        self.spill_respills += other.spill_respills;
        self.spill_files += other.spill_files;
        self.wire_bytes += other.wire_bytes;
    }

    /// Overwrites the seven spill fields from a context's counters.
    pub(crate) fn set_spill(&mut self, t: &SpillTotals) {
        self.spill_bytes = t.bytes;
        self.spill_secs = t.write_secs;
        self.reload_secs = t.reload_secs;
        self.spill_runs = t.runs;
        self.spill_reloads = t.reloads;
        self.spill_respills = t.respills;
        self.spill_files = t.files;
    }

    /// Summed reducer idle time across tasks (0 under batch execution).
    pub fn reducer_idle_total(&self) -> f64 {
        self.reducer_idle_secs.iter().sum()
    }

    /// Summed reducer busy time across tasks (0 under batch execution).
    pub fn reducer_busy_total(&self) -> f64 {
        self.reducer_busy_secs.iter().sum()
    }

    /// Each worker's realized weight under `cost`.
    fn worker_weights<'a>(&'a self, cost: &'a CostModel) -> impl Iterator<Item = u64> + 'a {
        let loads = self.per_worker_input.iter().zip(&self.per_worker_output);
        loads.map(|(&i, &o)| cost.weight(i, o))
    }

    /// Recomputes the realized max weight from per-worker loads.
    pub fn compute_max_weight(&mut self, cost: &CostModel) {
        self.max_weight_milli = self.worker_weights(cost).max().unwrap_or(0);
    }

    pub fn max_input(&self) -> u64 {
        self.per_worker_input.iter().copied().max().unwrap_or(0)
    }

    pub fn max_output(&self) -> u64 {
        self.per_worker_output.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance: max worker weight over mean worker weight (1.0 =
    /// perfect balance).
    pub fn imbalance(&self, cost: &CostModel) -> f64 {
        let weights: Vec<u64> = self.worker_weights(cost).collect();
        let max = weights.iter().copied().max().unwrap_or(0) as f64;
        let mean = weights.iter().sum::<u64>() as f64 / weights.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_aggregates_volumes_and_maxes_peaks() {
        // Every numeric field nonzero and distinct from the side's other
        // fields, `overflowed` different on the two sides, so a field that
        // `merge` drops or combines the wrong way shows; the destructuring
        // below has no `..`, so a field added to `JoinStats` and not here
        // does not compile.
        let mut a = JoinStats {
            output_total: 10,
            per_worker_input: vec![1, 2],
            per_worker_output: vec![5, 5],
            max_weight_milli: 100,
            sim_join_secs: 1.0,
            wall_join_secs: 0.5,
            network_tuples: 40,
            mem_bytes: 640,
            peak_resident_bytes: 320,
            overflowed: false,
            checksum: 0b1100,
            morsels_routed: 4,
            regions_migrated: 3,
            migration_tuples: 30,
            migration_secs: 0.125,
            backpressure_secs: 0.25,
            route_secs: 0.375,
            merge_secs: 0.625,
            sweep_secs: 0.875,
            admission_wait_secs: 1.125,
            reducer_busy_secs: vec![1.0, 2.0],
            reducer_idle_secs: vec![0.1, 0.2],
            spill_bytes: 1000,
            spill_secs: 1.5,
            reload_secs: 2.5,
            spill_runs: 11,
            spill_reloads: 21,
            spill_respills: 31,
            spill_files: 1,
            wire_bytes: 5000,
        };
        let b = JoinStats {
            output_total: 7,
            per_worker_input: vec![3, 1, 9],
            per_worker_output: vec![0, 7],
            max_weight_milli: 250,
            sim_join_secs: 2.0,
            wall_join_secs: 0.25,
            network_tuples: 10,
            mem_bytes: 160,
            peak_resident_bytes: 1000,
            overflowed: true,
            checksum: 0b1010,
            morsels_routed: 2,
            regions_migrated: 1,
            migration_tuples: 8,
            migration_secs: 0.0625,
            backpressure_secs: 0.5,
            route_secs: 0.75,
            merge_secs: 1.0,
            sweep_secs: 1.25,
            admission_wait_secs: 1.5,
            reducer_busy_secs: vec![4.0],
            reducer_idle_secs: vec![0.3],
            spill_bytes: 24,
            spill_secs: 1.75,
            reload_secs: 2.25,
            spill_runs: 5,
            spill_reloads: 6,
            spill_respills: 9,
            spill_files: 13,
            wire_bytes: 600,
        };
        a.merge(&b);
        let JoinStats {
            output_total,
            per_worker_input,
            per_worker_output,
            max_weight_milli,
            sim_join_secs,
            wall_join_secs,
            network_tuples,
            mem_bytes,
            peak_resident_bytes,
            overflowed,
            checksum,
            morsels_routed,
            regions_migrated,
            migration_tuples,
            migration_secs,
            backpressure_secs,
            route_secs,
            merge_secs,
            sweep_secs,
            admission_wait_secs,
            reducer_busy_secs,
            reducer_idle_secs,
            spill_bytes,
            spill_secs,
            reload_secs,
            spill_runs,
            spill_reloads,
            spill_respills,
            spill_files,
            wire_bytes,
        } = a;
        assert_eq!(output_total, 17);
        assert_eq!(per_worker_input, vec![4, 3, 9]);
        assert_eq!(per_worker_output, vec![5, 12]);
        assert_eq!(max_weight_milli, 250, "the slowest worker");
        assert_eq!(sim_join_secs, 3.0);
        assert_eq!(wall_join_secs, 0.75);
        assert_eq!(network_tuples, 50);
        assert_eq!(mem_bytes, 800);
        assert_eq!(peak_resident_bytes, 1000, "peaks max, not add");
        assert!(overflowed);
        assert_eq!(checksum, 0b0110, "checksums XOR");
        assert_eq!(morsels_routed, 6);
        assert_eq!(regions_migrated, 4);
        assert_eq!(migration_tuples, 38);
        assert_eq!(migration_secs, 0.1875);
        assert_eq!(backpressure_secs, 0.75);
        assert_eq!(route_secs, 1.125);
        assert_eq!(merge_secs, 1.625);
        assert_eq!(sweep_secs, 2.125);
        assert_eq!(admission_wait_secs, 2.625);
        assert_eq!(reducer_busy_secs, vec![5.0, 2.0]);
        assert_eq!(reducer_idle_secs.len(), 2);
        assert!((reducer_idle_secs.iter().sum::<f64>() - 0.6).abs() < 1e-12);
        assert_eq!(spill_bytes, 1024);
        assert_eq!(spill_secs, 3.25);
        assert_eq!(reload_secs, 4.75);
        assert_eq!(spill_runs, 16);
        assert_eq!(spill_reloads, 27);
        assert_eq!(spill_respills, 40);
        assert_eq!(spill_files, 14);
        assert_eq!(wire_bytes, 5600);
    }

    #[test]
    fn max_weight_and_imbalance() {
        let mut s = JoinStats {
            per_worker_input: vec![100, 200, 100],
            per_worker_output: vec![1000, 0, 1000],
            ..Default::default()
        };
        let cost = CostModel::band(); // w = 1000*in + 200*out
        s.compute_max_weight(&cost);
        // Worker 0/2: 100k + 200k = 300k; worker 1: 200k.
        assert_eq!(s.max_weight_milli, 300_000);
        assert_eq!(s.max_input(), 200);
        assert_eq!(s.max_output(), 1000);
        let imb = s.imbalance(&cost);
        let mean = (300_000.0 + 200_000.0 + 300_000.0) / 3.0;
        assert!((imb - 300_000.0 / mean).abs() < 1e-12);
    }
}
