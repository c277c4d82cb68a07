//! The five workloads: inputs assembled from `ewh_datagen` generators, the
//! one fixed operator configuration, the per-workload query (one full public
//! call), and the oracles every rep is compared with.
//!
//! Nothing here depends on `crates/bench`; the generator recipes below are
//! the benchmark's own, pinned by a fingerprint so that a generator change
//! fails loudly instead of silently moving every number.

use std::path;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ewh_core::{
    CostModel, CsiParams, HistogramParams, JoinCondition, JoinMatrix, Key, SchemeKind, Tuple,
    TUPLE_BYTES,
};
use ewh_datagen::{gen_chain_retail, gen_orders, gen_x_relation, ChainParams, OrdersParams};
use ewh_exec::{
    pair_payload, run_operator, run_plan, run_plan_materialized, ChainStage, EngineRuntime,
    ExecMode, JoinStats, OperatorConfig, OperatorRun, OutputWork, PlanRun, SpillConfig, StageSpec,
    TransportConfig,
};

/// Pool threads and per-query task parallelism: a constant, never derived
/// from the host, so a bigger machine measures the same program.
pub const THREADS: usize = 2;
/// The paper's J.
pub const J: usize = 32;
pub const DEFAULT_SEED: u64 = 236;
const CSI_P: usize = 512;
/// Orders behind one unit of BICD / BEOCD scale, X-segment size behind one
/// unit of BCB scale, tuples per relation behind one unit of chain scale
/// (1/1000 of the paper's SF-160 inputs).
const ORDERS_PER_SCALE: f64 = 240_000.0;
const BCB_X_PER_SCALE: f64 = 19_200.0;
const CHAIN_N_PER_SCALE: f64 = 12_000.0;
const BEOCD_CUSTOMERS: usize = 600;
const BEOCD_WHALES: usize = 3;
const BEOCD_WHALE_FRAC: f64 = 0.04;
const BEOCD_SHIFT: i64 = 16;
const BEOCD_GAMMA: i64 = 160_000;
/// The spill workload's bounded buffers (as `oom_vs_spill` sets them): the
/// in-flight part of the footprint a budget cannot shed must sit well
/// inside the budget.
const SPILL_BUFFER_TUPLES: usize = 256;
/// Brute-force oracle copies are 1/50 scale, capped so the nested loop
/// stays a small part of set-up.
const BRUTE_FORCE_DIVISOR: f64 = 50.0;
const BRUTE_FORCE_MAX_TUPLES: usize = 8_000;

/// Which generator recipe a workload uses.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Recipe {
    Bicd,
    Beocd,
    Bcb { beta: i64 },
    Chain,
}

/// The path a workload's fragments take from mappers to reducers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Path {
    InProcess,
    /// Framed transport over localhost TCP sockets.
    Tcp,
    /// In-process queues under a memory budget: reducers spill and replay.
    Spill,
}

/// One row of the workload table. Names are permanent.
pub struct Spec {
    pub name: &'static str,
    recipe: Recipe,
    pub path: Path,
    scale: f64,
    /// Scale under `--smoke` (1/20, or the smallest at which the workload
    /// still exercises its layer).
    smoke_scale: f64,
    pub kind: SchemeKind,
    /// Key-column fingerprint at the default seed and full scale:
    /// `(n1, n2, n3, wrapping key sum, key xor)`.
    pinned: Fingerprint,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "bicd_csio",
        recipe: Recipe::Bicd,
        path: Path::InProcess,
        scale: 4.0,
        smoke_scale: 0.2,
        kind: SchemeKind::Csio,
        pinned: Fingerprint {
            n: [960_000, 960_000, 0],
            key_sum: 2_633_159_303_620,
            key_xor: 119_212,
        },
    },
    Spec {
        name: "beocd_csio",
        recipe: Recipe::Beocd,
        path: Path::InProcess,
        scale: 16.0,
        smoke_scale: 0.8,
        kind: SchemeKind::Csio,
        pinned: Fingerprint {
            n: [428_183, 427_776, 0],
            key_sum: 5_421_899_460,
            key_xor: 29_590,
        },
    },
    Spec {
        name: "bcb_ci_tcp",
        recipe: Recipe::Bcb { beta: 4 },
        path: Path::Tcp,
        scale: 2.0,
        smoke_scale: 0.1,
        kind: SchemeKind::Ci,
        pinned: Fingerprint {
            n: [192_000, 192_000, 0],
            key_sum: 283_356_395_901,
            key_xor: 747_389,
        },
    },
    Spec {
        name: "chain_plan",
        recipe: Recipe::Chain,
        path: Path::InProcess,
        scale: 4.0,
        smoke_scale: 0.2,
        kind: SchemeKind::Csio,
        pinned: Fingerprint {
            n: [48_000, 48_000, 48_000],
            key_sum: 73_638_936,
            key_xor: 1_603,
        },
    },
    Spec {
        name: "bicd_spill",
        recipe: Recipe::Bicd,
        path: Path::Spill,
        scale: 0.5,
        // Below ~24k input tuples a quarter of the peak no longer clears
        // twice the queue transient, and nothing would spill.
        smoke_scale: 0.1,
        kind: SchemeKind::Csio,
        pinned: Fingerprint {
            n: [120_000, 120_000, 0],
            key_sum: 41_158_358_380,
            key_xor: 226_356,
        },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Sizes plus two order-invariant folds of every key: cheap, and any change
/// to a generator or a recipe moves at least one of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub n: [usize; 3],
    pub key_sum: i64,
    pub key_xor: i64,
}

fn fingerprint(rels: [&[Tuple]; 3]) -> Fingerprint {
    let mut fp = Fingerprint {
        n: [rels[0].len(), rels[1].len(), rels[2].len()],
        key_sum: 0,
        key_xor: 0,
    };
    for (i, rel) in rels.iter().enumerate() {
        for t in rel.iter() {
            // Salted per relation so swapping two relations is seen.
            fp.key_sum = fp.key_sum.wrapping_add(t.key.wrapping_mul(i as i64 + 1));
            fp.key_xor ^= t.key.rotate_left(i as u32);
        }
    }
    fp
}

fn orders_for(scale: f64) -> usize {
    ((ORDERS_PER_SCALE * scale) as usize).max(1000)
}

/// The relations of one recipe at one scale: `(r1, r2, c)`, `c` empty
/// unless the recipe is the chain.
fn generate(recipe: Recipe, scale: f64, seed: u64) -> (Vec<Tuple>, Vec<Tuple>, Vec<Tuple>) {
    match recipe {
        // `ABS(O1.orderkey − 10·O2.custkey) ≤ 2` over skewed TPC-H ORDERS.
        Recipe::Bicd => {
            let orders = gen_orders(&OrdersParams {
                n: orders_for(scale),
                seed,
                ..Default::default()
            });
            let r1 = orders
                .iter()
                .map(|o| Tuple::new(o.orderkey, o.orderkey as u64))
                .collect();
            let r2 = orders
                .iter()
                .map(|o| Tuple::new(10 * o.custkey, o.custkey as u64))
                .collect();
            (r1, r2, Vec::new())
        }
        // `O1.custkey = O2.custkey AND |sp1 − sp2| ≤ 2` with selections,
        // over 600 Zipf customers plus three whales at 4% of the orders
        // each (join product skew).
        Recipe::Beocd => {
            let n = orders_for(scale);
            let mut orders = gen_orders(&OrdersParams {
                n,
                seed,
                customers_div: (n / BEOCD_CUSTOMERS).max(1),
                ..Default::default()
            });
            let whale_span = (n as f64 * BEOCD_WHALE_FRAC) as usize;
            for w in 0..BEOCD_WHALES {
                let custkey = ((w + 1) * BEOCD_CUSTOMERS / (BEOCD_WHALES + 1)) as i64;
                for o in orders
                    .iter_mut()
                    .skip(w)
                    .step_by(BEOCD_WHALES)
                    .take(whale_span)
                {
                    o.custkey = custkey;
                }
            }
            let filtered = |prio: i64| -> Vec<Tuple> {
                orders
                    .iter()
                    .filter(|o| {
                        o.order_priority == prio
                            && o.totalprice >= BEOCD_GAMMA
                            && o.totalprice <= 360_000
                    })
                    .map(|o| {
                        Tuple::new(
                            JoinCondition::encode_composite(
                                o.custkey,
                                o.ship_priority,
                                BEOCD_SHIFT,
                            ),
                            o.orderkey as u64,
                        )
                    })
                    .collect()
            };
            (filtered(4), filtered(1), Vec::new())
        }
        // `|r1.key − r2.key| ≤ β` over the synthetic 80/20 X dataset.
        Recipe::Bcb { .. } => {
            let x = ((BCB_X_PER_SCALE * scale) as usize).max(600);
            (
                gen_x_relation(x, seed ^ 0xB1),
                gen_x_relation(x, seed ^ 0xB2),
                Vec::new(),
            )
        }
        // `(A ⋈ B) ⋈ C`, equi on a shared hot SKU: ≈ half of `A ⋈ B` lands
        // on one key.
        Recipe::Chain => gen_chain_retail(&ChainParams {
            n: ((CHAIN_N_PER_SCALE * scale) as usize).max(2_000),
            seed,
            ..Default::default()
        }),
    }
}

fn cond_and_cost(recipe: Recipe) -> (JoinCondition, CostModel) {
    match recipe {
        Recipe::Bicd => (JoinCondition::Band { beta: 2 }, CostModel::band()),
        Recipe::Beocd => (
            JoinCondition::EquiBand {
                shift: BEOCD_SHIFT,
                beta: 2,
            },
            CostModel::equi_band(),
        ),
        Recipe::Bcb { beta } => (JoinCondition::Band { beta }, CostModel::band()),
        Recipe::Chain => (JoinCondition::Equi, CostModel::band()),
    }
}

/// The fixed operator configuration, written out rather than imported: the
/// values `ewh_bench::RunConfig::operator_config` produced when the
/// benchmark was defined, with `threads` pinned.
fn operator_config(scale: f64, seed: u64, cost: CostModel) -> OperatorConfig {
    OperatorConfig {
        j: J,
        threads: THREADS,
        seed,
        cost,
        csi: CsiParams { p: CSI_P, seed },
        hist: HistogramParams::default(),
        // The paper's fixed cluster memory: 4.5 × the BICD input bytes at
        // this scale.
        mem_capacity_bytes: Some(
            (4.5 * 2.0 * ORDERS_PER_SCALE * scale * TUPLE_BYTES as f64) as u64,
        ),
        output_work: OutputWork::Touch,
        mode: ExecMode::Pipelined,
        morsel_tuples: 1024,
        queue_tuples: 4096,
        ..Default::default()
    }
}

/// What one query returned.
pub enum Run {
    Operator(Box<OperatorRun>),
    Plan(Box<PlanRun>),
}

impl Run {
    /// `(output_total, checksum)` — what every rep is compared on.
    pub fn output(&self) -> (u64, u64) {
        match self {
            Run::Operator(r) => (r.join.output_total, r.join.checksum),
            Run::Plan(p) => (p.output_total, p.checksum),
        }
    }

    /// Fig. 4c's quantity: bytes actually resident at the high-water mark.
    pub fn peak_resident_bytes(&self) -> u64 {
        match self {
            Run::Operator(r) => r.join.peak_resident_bytes,
            Run::Plan(p) => p.peak_resident_bytes,
        }
    }

    /// Fig. 4h's realized maximum region weight over a perfect split: the
    /// heaviest worker's `w(in, out)` over the mean worker's. On a plan, of
    /// its final stage (the one that produces the output and receives the
    /// skewed intermediate).
    pub fn max_weight_over_ideal(&self, cost: &CostModel) -> f64 {
        let stats = match self {
            Run::Operator(r) => &r.join,
            Run::Plan(p) => &p.stages.last().expect("a plan has stages").join,
        };
        stats.imbalance(cost)
    }

    /// Merged stats over every stage (the operator's own for one stage).
    pub fn total_stats(&self) -> &JoinStats {
        match self {
            Run::Operator(r) => &r.join,
            Run::Plan(p) => &p.total,
        }
    }
}

/// The join keys of a relation.
pub fn keys_of(tuples: &[Tuple]) -> Vec<Key> {
    tuples.iter().map(|t| t.key).collect()
}

/// Every matching `(build, probe)` pair, serially: XOR of the pair payloads,
/// with each pair also handed to `on_pair` as `(probe tuple, pair payload)`.
fn nested_loop(
    cond: &JoinCondition,
    build: &[Tuple],
    probe: &[Tuple],
    mut on_pair: impl FnMut(&Tuple, u64),
) -> u64 {
    let mut checksum = 0u64;
    for b in build {
        for p in probe {
            if cond.matches(b.key, p.key) {
                let payload = pair_payload(b.payload, p.payload);
                checksum ^= payload;
                on_pair(p, payload);
            }
        }
    }
    checksum
}

/// A workload ready to run.
pub struct Workload {
    pub spec: &'static Spec,
    pub cond: JoinCondition,
    pub cfg: OperatorConfig,
    pub r1: Vec<Tuple>,
    pub r2: Vec<Tuple>,
    /// The chain's third relation; empty for single-stage workloads.
    pub c: Vec<Tuple>,
    scale: f64,
    seed: u64,
}

impl Workload {
    /// Generates the inputs and checks the pinned fingerprint (default seed
    /// at full scale only: any other seed or scale is new data by design).
    /// `spill_dir` is where the spill workload may write; it must lie
    /// inside the checkout.
    pub fn build(spec: &'static Spec, seed: u64, smoke: bool, spill_dir: &path::Path) -> Workload {
        let scale = if smoke { spec.smoke_scale } else { spec.scale };
        let w = Workload::at_scale(spec, scale, seed, spill_dir);
        if seed == DEFAULT_SEED && !smoke {
            assert_eq!(
                w.fingerprint(),
                spec.pinned,
                "workload `{}`: the generated inputs no longer match the pinned fingerprint — \
                 a generator or recipe changed, and every recorded number with it",
                spec.name
            );
        }
        w
    }

    fn at_scale(spec: &'static Spec, scale: f64, seed: u64, spill_dir: &path::Path) -> Workload {
        let (r1, r2, c) = generate(spec.recipe, scale, seed);
        let (cond, cost) = cond_and_cost(spec.recipe);
        let mut cfg = operator_config(scale, seed, cost);
        match spec.path {
            Path::InProcess => {}
            Path::Tcp => cfg.transport = Some(TransportConfig::tcp()),
            Path::Spill => {
                cfg.queue_tuples = SPILL_BUFFER_TUPLES;
                cfg.morsel_tuples = SPILL_BUFFER_TUPLES;
                cfg.spill = SpillConfig {
                    budget_tuples: None, // derived in set-up, see `derive_spill_budget`
                    temp_dir: Some(spill_dir.to_path_buf()),
                    fail_after_bytes: None,
                };
            }
        }
        Workload {
            spec,
            cond,
            cfg,
            r1,
            r2,
            c,
            scale,
            seed,
        }
    }

    pub fn is_chain(&self) -> bool {
        self.spec.recipe == Recipe::Chain
    }

    pub fn n_input(&self) -> u64 {
        (self.r1.len() + self.r2.len() + self.c.len()) as u64
    }

    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint([&self.r1, &self.r2, &self.c])
    }

    /// The plan's root stage spec and its one chain stage (`C` builds).
    fn plan(&self) -> (StageSpec, [ChainStage<'_>; 1]) {
        let spec = StageSpec {
            kind: self.spec.kind,
            cond: self.cond,
        };
        let chain = [ChainStage {
            base: &self.c,
            spec,
        }];
        (spec, chain)
    }

    /// One query: one full public call, scheme build included, because a
    /// user pays it on every query.
    pub fn query(&self, rt: &EngineRuntime, cfg: &OperatorConfig) -> Run {
        if self.is_chain() {
            let (spec, chain) = self.plan();
            Run::Plan(Box::new(run_plan(
                rt, &self.r1, &self.r2, &spec, &chain, cfg,
            )))
        } else {
            Run::Operator(Box::new(run_operator(
                rt,
                self.spec.kind,
                &self.r1,
                &self.r2,
                &self.cond,
                cfg,
            )))
        }
    }

    /// The trusted path at full scale: `ExecMode::Batch`, or
    /// `run_plan_materialized` for the chain.
    pub fn batch(&self, rt: &EngineRuntime) -> Run {
        if self.is_chain() {
            let (spec, chain) = self.plan();
            Run::Plan(Box::new(run_plan_materialized(
                &self.r1, &self.r2, &spec, &chain, &self.cfg,
            )))
        } else {
            let cfg = OperatorConfig {
                mode: ExecMode::Batch,
                ..self.cfg.clone()
            };
            self.query(rt, &cfg)
        }
    }

    /// The reference `(output_total, checksum)` every rep must equal.
    ///
    /// The batch path is the reference, but it is repository code too, so
    /// it is checked first: on a 1/50-scale copy of the same recipe it must
    /// equal a brute-force join (`JoinMatrix::output_count` plus a serial
    /// nested-loop checksum).
    pub fn oracle(&self, rt: &EngineRuntime) -> (u64, u64) {
        let spill_dir = self.cfg.spill.temp_dir.clone().unwrap_or_default();
        let mut small = Workload::at_scale(
            self.spec,
            self.scale / BRUTE_FORCE_DIVISOR,
            self.seed,
            &spill_dir,
        );
        for rel in [&mut small.r1, &mut small.r2, &mut small.c] {
            rel.truncate(BRUTE_FORCE_MAX_TUPLES);
        }
        let brute = small.brute_force();
        let batch = small.batch(rt).output();
        assert_eq!(
            batch, brute,
            "workload `{}`: the batch oracle disagrees with the brute-force join on the \
             1/50-scale copy",
            self.spec.name
        );
        self.batch(rt).output()
    }

    /// `(output_total, checksum)` by brute force. The count comes from
    /// `JoinMatrix`; the checksum from a serial nested loop over every pair.
    fn brute_force(&self) -> (u64, u64) {
        let count = |build: &[Tuple], probe: &[Tuple]| {
            JoinMatrix::new(keys_of(build), keys_of(probe), self.cond).output_count()
        };
        if !self.is_chain() {
            let checksum = nested_loop(&self.cond, &self.r1, &self.r2, |_, _| {});
            return (count(&self.r1, &self.r2), checksum);
        }
        // Root: A builds, B probes, the intermediate carries B's key.
        let mut inter = Vec::new();
        nested_loop(&self.cond, &self.r1, &self.r2, |probe, payload| {
            inter.push(Tuple::new(probe.key, payload))
        });
        // Chain stage: C builds, the intermediate probes.
        let checksum = nested_loop(&self.cond, &self.c, &inter, |_, _| {});
        (count(&self.c, &inter), checksum)
    }

    /// Sets the spill budget to a quarter of the unbudgeted peak minus the
    /// queue transient, exactly as `oom_vs_spill` derives it. A no-op for
    /// workloads that do not spill.
    pub fn derive_spill_budget(&mut self, rt: &EngineRuntime) {
        if self.spec.path != Path::Spill {
            return;
        }
        let unbudgeted = self.query(rt, &self.unbudgeted_config());
        let budget_tuples = unbudgeted.peak_resident_bytes() / 4 / TUPLE_BYTES;
        let transient_tuples = self.cfg.min_pipelined_input_tuples();
        assert!(
            budget_tuples > 2 * transient_tuples,
            "spill budget of {budget_tuples} tuples is not comfortably above the \
             {transient_tuples}-tuple queue transient"
        );
        self.cfg.spill.budget_tuples = Some(budget_tuples - transient_tuples);
    }

    fn unbudgeted_config(&self) -> OperatorConfig {
        let mut cfg = self.cfg.clone();
        cfg.spill.budget_tuples = None;
        cfg
    }

    /// The configuration a traced run compares this workload's query with:
    /// the same query with the budget lifted (spill) or on in-process queues
    /// (TCP). `None` where the path has no alternative.
    pub fn comparison_config(&self) -> Option<OperatorConfig> {
        match self.spec.path {
            Path::InProcess => None,
            Path::Tcp => Some(OperatorConfig {
                transport: None,
                ..self.cfg.clone()
            }),
            Path::Spill => Some(self.unbudgeted_config()),
        }
    }

    /// Draws the chain's next lottery ticket (a no-op on single-stage
    /// workloads, whose cost does not depend on arrival order).
    ///
    /// A plan's downstream scheme is built from the first few thousand
    /// intermediate tuples to arrive, so the order of the inputs and the
    /// operator's sampling seed decide how often the hot probe stream is
    /// replicated: 40M to 110M network tuples, and a query time to match.
    /// With fixed inputs each `--seed` would be one ticket and runs on
    /// different seeds would differ by half. Shuffling the relations and
    /// advancing the operator seed before every query (untimed) makes each
    /// query its own ticket; the join, and so the oracle, is the same.
    pub fn draw_ticket(&mut self, ticket: u64) {
        if !self.is_chain() {
            return;
        }
        let seed = self
            .seed
            .wrapping_add(ticket.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for (i, rel) in [&mut self.r1, &mut self.r2, &mut self.c]
            .into_iter()
            .enumerate()
        {
            let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64 + 1));
            for k in (1..rel.len()).rev() {
                rel.swap(k, rng.gen_range(0..=k));
            }
        }
        self.cfg.seed = seed;
        self.cfg.csi.seed = seed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Workload {
        Workload::build(
            spec(name).unwrap(),
            7,
            true,
            path::Path::new("out/test-spill"),
        )
    }

    #[test]
    fn names_are_the_permanent_five() {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "bicd_csio",
                "beocd_csio",
                "bcb_ci_tcp",
                "chain_plan",
                "bicd_spill"
            ]
        );
        assert!(spec("retail_output").is_none());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for s in &SPECS {
            let a = tiny(s.name).fingerprint();
            assert_eq!(a, tiny(s.name).fingerprint(), "{}", s.name);
            let b = Workload::build(s, 8, true, path::Path::new("out/test-spill")).fingerprint();
            assert_ne!(a, b, "{}", s.name);
        }
    }

    #[test]
    fn fingerprint_sees_swapped_relations() {
        let w = tiny("bicd_csio");
        assert_ne!(
            fingerprint([&w.r1, &w.r2, &w.c]),
            fingerprint([&w.r2, &w.r1, &w.c])
        );
    }

    #[test]
    fn brute_force_agrees_with_batch_on_every_recipe() {
        let rt = EngineRuntime::new(THREADS);
        for s in &SPECS {
            // `oracle` asserts brute force == batch on the small copy.
            let (count, _) = tiny(s.name).oracle(&rt);
            assert!(count > 0, "{}", s.name);
        }
    }
}
