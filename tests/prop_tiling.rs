//! Property-based tests of the tiling substrate: random staircase grids,
//! random weights — partitions must always be valid, MONOTONICBSP must match
//! the dense baseline, and the regionalization objective must be monotone in
//! the number of machines. MONOTONICBSP's tables and the δ search are held
//! to the simple formulations they replaced, which live here: a worklist
//! that shrinks every half of every splitter, and a bisection over every
//! integer δ. Throughout, a partition is measured in the regions it is
//! *charged* (`region_shares`): one per region, `⌈w/δ⌉` for a single cell
//! heavier than δ — the one thing allowed over δ.

use std::collections::HashMap;
use std::ops::RangeInclusive;

use ewh::tiling::{
    bsp, monotonic_bsp, partition_max_weight, region_shares, validate_partition, BspSolver, Grid,
    MonotonicBspSolver, Rect, TilingAlgo,
};
use proptest::prelude::*;

/// "No candidate cells in this half" while the worklist runs.
const EMPTY: u32 = u32::MAX;

/// MONOTONICBSP's DP tables `(rects, weights, split_start, split_pairs)` the
/// simple way: enumerate the candidate-cornered rectangles, then run a
/// worklist that cuts each rectangle at every splitter, shrinks both halves
/// with [`Grid::shrink`] and interns them through a hash map — the closure
/// under split + shrink — and sort by (semi-perimeter, packed key). In the
/// split pairs, the rectangle count stands for a half without candidates.
#[allow(clippy::type_complexity)]
fn oracle_tables(grid: &Grid) -> (Vec<Rect>, Vec<u64>, Vec<u32>, Vec<(u32, u32)>) {
    let cells = grid.candidate_cells();
    let mut rects = Vec::new();
    for (a, &(r0, c0)) in cells.iter().enumerate() {
        for &(r1, c1) in &cells[a..] {
            if c1 >= c0 {
                rects.push(Rect::new(r0, c0, r1, c1));
            }
        }
    }
    let mut ids: HashMap<u64, u32> = rects
        .iter()
        .enumerate()
        .map(|(i, r)| (r.pack(), i as u32))
        .collect();
    let mut intern = |rects: &mut Vec<Rect>, r: Rect| -> u32 {
        *ids.entry(r.pack()).or_insert_with(|| {
            rects.push(r);
            (rects.len() - 1) as u32
        })
    };
    if let Some(root) = grid.shrink(grid.full()) {
        intern(&mut rects, root);
    }
    let mut splits: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut i = 0;
    while i < rects.len() {
        let rm = rects[i];
        i += 1;
        let mut half_id = |part: Rect| match grid.shrink(part) {
            None => EMPTY,
            Some(half) => intern(&mut rects, half),
        };
        let mut mine = Vec::new();
        for k in rm.r0..rm.r1 {
            let (a, b) = rm.split_h(k);
            mine.push((half_id(a), half_id(b)));
        }
        for k in rm.c0..rm.c1 {
            let (a, b) = rm.split_v(k);
            mine.push((half_id(a), half_id(b)));
        }
        splits.push(mine);
    }
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_unstable_by_key(|&id| (rects[id].semi_perimeter(), rects[id].pack()));
    let mut position = vec![0u32; rects.len()];
    for (pos, &id) in order.iter().enumerate() {
        position[id] = pos as u32;
    }
    let resolve = |id: u32| {
        if id == EMPTY {
            rects.len() as u32
        } else {
            position[id as usize]
        }
    };
    let mut split_start = vec![0u32];
    let mut split_pairs = Vec::new();
    for &id in &order {
        split_pairs.extend(splits[id].iter().map(|&(a, b)| (resolve(a), resolve(b))));
        split_start.push(split_pairs.len() as u32);
    }
    let sorted: Vec<Rect> = order.iter().map(|&id| rects[id]).collect();
    let weights = sorted.iter().map(|&r| grid.weight(r)).collect();
    (sorted, weights, split_start, split_pairs)
}

/// Regions `regions` are charged at `delta`.
fn charged(grid: &Grid, regions: &[Rect], delta: u64) -> u64 {
    let shares = regions
        .iter()
        .map(|r| region_shares(grid.weight(*r), delta));
    shares.map(u64::from).sum()
}

/// Regionalization the simple way: bisect every integer δ between the lower
/// bound and the weight of the whole grid.
fn oracle_partition(grid: &Grid, j: usize, algo: TilingAlgo) -> (Vec<Rect>, u64, u64) {
    let (dense, monotonic);
    let solve: &dyn Fn(u64) -> Option<Vec<Rect>> = match algo {
        TilingAlgo::Bsp => {
            dense = BspSolver::new(grid);
            &|delta| dense.solve(delta)
        }
        TilingAlgo::MonotonicBsp => {
            monotonic = MonotonicBspSolver::new(grid, 1);
            &|delta| monotonic.solve(delta)
        }
    };
    let mut lo = grid.covered_weight() / j as u64;
    let mut hi = grid.weight(grid.full());
    let mut best = solve(hi).expect("delta = total weight is always feasible");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match solve(mid) {
            Some(regions) if charged(grid, &regions, mid) <= j as u64 => {
                best = regions;
                hi = mid;
            }
            _ => lo = mid + 1,
        }
    }
    let per_share = |r: &Rect| {
        let w = grid.weight(*r);
        w.div_ceil(region_shares(w, hi) as u64)
    };
    let max_weight = best.iter().map(per_share).max().unwrap_or(0);
    (best, hi, max_weight)
}

/// Both new formulations against their oracles on one grid, the tables
/// built and the search run at one thread and at two.
fn check_against_oracles(grid: &Grid, max_j: usize, dense_too: bool) -> Result<(), TestCaseError> {
    let (rects, weights, split_start, split_pairs) = oracle_tables(grid);
    for threads in [1, 2] {
        let solver = MonotonicBspSolver::new(grid, threads);
        prop_assert_eq!(solver.state_count(), rects.len());
        let got = solver.tables();
        prop_assert_eq!(got.0, &rects[..], "threads={}", threads);
        prop_assert_eq!(got.1, &weights[..], "threads={}", threads);
        prop_assert_eq!(got.2, &split_start[..], "threads={}", threads);
        prop_assert_eq!(got.3, &split_pairs[..], "threads={}", threads);
    }
    if grid.cand_count(grid.full()) == 0 {
        return Ok(());
    }
    let algos = [TilingAlgo::MonotonicBsp, TilingAlgo::Bsp];
    for &algo in &algos[..1 + dense_too as usize] {
        for j in 1..=max_j {
            let (regions, delta, max_weight) = oracle_partition(grid, j, algo);
            let shares: Vec<u32> = regions
                .iter()
                .map(|r| region_shares(grid.weight(*r), delta))
                .collect();
            for threads in [1, 2] {
                let p = partition_max_weight(grid, j, algo, threads);
                let at = format!("{algo:?} j={j} threads={threads}");
                prop_assert_eq!(p.delta, delta, "{}", at);
                prop_assert_eq!(p.max_weight, max_weight, "{}", at);
                prop_assert_eq!(&p.regions, &regions, "{}", at);
                prop_assert_eq!(&p.shares, &shares, "{}", at);
            }
        }
    }
    Ok(())
}

/// The δ values a search over `grid` for `j` regions chooses among: the
/// weights of the rectangles `weights` lists and each candidate cell's
/// `⌈w/k⌉`, `k ≤ j`, above the floor `covered / j`, and the floor.
fn delta_candidates(grid: &Grid, j: usize, weights: impl Iterator<Item = u64>) -> usize {
    let floor = grid.covered_weight() / j as u64;
    let mut deltas: Vec<u64> = weights.collect();
    for (row, col) in grid.candidate_cells() {
        let w = grid.weight(Rect::new(row, col, row, col));
        deltas.extend((2..=j as u64).map(|k| w.div_ceil(k)));
    }
    deltas.retain(|&d| d > floor);
    deltas.push(floor);
    deltas.sort_unstable();
    deltas.dedup();
    deltas.len()
}

/// The δ search probes at most `⌈log₂(candidates)⌉ + 2` times — plain
/// bisection's count plus two — with either solver, and the count does not
/// depend on the threads that build the tables.
fn check_probe_bound(
    grid: &Grid,
    js: RangeInclusive<usize>,
    dense_too: bool,
) -> Result<(), TestCaseError> {
    if grid.cand_count(grid.full()) == 0 {
        return Ok(());
    }
    let ceil_log2 = |n: usize| n.next_power_of_two().trailing_zeros();
    let (_, states, _, _) = oracle_tables(grid);
    let (rows, cols) = (grid.n_rows(), grid.n_cols());
    let every_rect = || {
        (0..rows).flat_map(move |r0| {
            (r0..rows).flat_map(move |r1| {
                (0..cols).flat_map(move |c0| (c0..cols).map(move |c1| Rect::new(r0, c0, r1, c1)))
            })
        })
    };
    for j in js {
        let n = delta_candidates(grid, j, states.iter().copied());
        let one = partition_max_weight(grid, j, TilingAlgo::MonotonicBsp, 1);
        let two = partition_max_weight(grid, j, TilingAlgo::MonotonicBsp, 2);
        prop_assert_eq!(one.probes, two.probes, "j={}", j);
        prop_assert!(
            one.probes <= ceil_log2(n) + 2,
            "j={}: {} probes over {} candidates",
            j,
            one.probes,
            n
        );
        if dense_too {
            let n = delta_candidates(grid, j, every_rect().map(|r| grid.weight(r)));
            let p = partition_max_weight(grid, j, TilingAlgo::Bsp, 1);
            prop_assert!(p.probes <= ceil_log2(n) + 2, "dense j={}: {}", j, p.probes);
        }
    }
    Ok(())
}

/// A random monotone staircase grid: per-row candidate intervals with
/// non-decreasing endpoints, random input weights, random output weights on
/// candidate cells.
fn staircase_grid() -> impl Strategy<Value = Grid> {
    (2usize..10).prop_flat_map(|n| {
        let steps = prop::collection::vec((0u32..3, 0u32..3), n);
        let row_w = prop::collection::vec(1u64..20, n);
        let col_w = prop::collection::vec(1u64..20, n);
        let out_seed = prop::collection::vec(0u64..50, n * n);
        (steps, row_w, col_w, out_seed).prop_map(move |(steps, row_w, col_w, out_seed)| {
            // Build non-decreasing intervals clamped to the grid.
            let mut lo = 0u32;
            let mut hi = 0u32;
            let mut cand = vec![false; n * n];
            let mut out = vec![0u64; n * n];
            for (i, &(dlo, dhi)) in steps.iter().enumerate() {
                lo = (lo + dlo).min(n as u32 - 1);
                hi = (hi.max(lo) + dhi).min(n as u32 - 1);
                for j in lo..=hi {
                    cand[i * n + j as usize] = true;
                    out[i * n + j as usize] = out_seed[i * n + j as usize];
                }
            }
            Grid::new(&row_w, &col_w, &out, &cand)
        })
    })
}

/// A random `rows × cols` grid, 1…9 a side, whose cells are candidates with
/// probability `density`/8 — from empty through anything but a staircase to
/// fully candidate — with random weights (non-candidate cells carry output
/// weight too: the tables must not care).
fn random_grid() -> impl Strategy<Value = Grid> {
    (1usize..10, 1usize..10, 0u32..9).prop_flat_map(|(rows, cols, density)| {
        let row_w = prop::collection::vec(0u64..20, rows);
        let col_w = prop::collection::vec(0u64..20, cols);
        let cells = prop::collection::vec((0u32..8, 0u64..50), rows * cols);
        (row_w, col_w, cells).prop_map(move |(row_w, col_w, cells)| {
            let cand: Vec<bool> = cells.iter().map(|&(coin, _)| coin < density).collect();
            let out: Vec<u64> = cells.iter().map(|&(_, w)| w).collect();
            Grid::new(&row_w, &col_w, &out, &cand)
        })
    })
}

/// Hand-made shapes: anti-staircase, a cross, single row / column, fully
/// candidate, empty, one cell.
fn shaped_grids() -> Vec<(&'static str, Grid)> {
    let build = |name, rows: usize, cols: usize, is_cand: &dyn Fn(usize, usize) -> bool| {
        let cand: Vec<bool> = (0..rows * cols)
            .map(|i| is_cand(i / cols, i % cols))
            .collect();
        let out: Vec<u64> = (0..rows * cols).map(|i| (i as u64 * 7) % 11 + 1).collect();
        let row_w: Vec<u64> = (0..rows as u64).map(|i| i % 3 + 1).collect();
        let col_w: Vec<u64> = (0..cols as u64).map(|i| (i * 5) % 4).collect();
        (name, Grid::new(&row_w, &col_w, &out, &cand))
    };
    vec![
        build("anti-staircase", 7, 7, &|r, c| r + c == 6 || r + c == 5),
        build("cross", 8, 6, &|r, c| r == c || r + c == 5),
        build("staircase band", 9, 9, &|r, c| r.abs_diff(c) <= 1),
        build("single row", 1, 9, &|_, c| c != 4),
        build("single column", 9, 1, &|r, _| r % 3 != 1),
        build("fully candidate", 5, 6, &|_, _| true),
        build("empty", 4, 5, &|_, _| false),
        build("one cell", 6, 6, &|r, c| (r, c) == (2, 4)),
        build("corners", 6, 7, &|r, c| {
            (r == 0 || r == 5) && (c == 0 || c == 6)
        }),
    ]
}

#[test]
fn tables_and_delta_search_equal_their_oracles_on_shaped_grids() {
    for (name, grid) in shaped_grids() {
        check_against_oracles(&grid, 8, true).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn delta_search_keeps_its_probe_bound_on_shaped_grids() {
    for (name, grid) in shaped_grids() {
        check_probe_bound(&grid, 1..=8, true).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn delta_search_keeps_its_probe_bound_when_the_prediction_undershoots() {
    // A diagonal of 32 heavy cells and then a ramp of 90 light ones. From
    // the floor (just over one heavy cell) until the last heavy cell can
    // take the whole ramp (about twice that), a tiling is charged 33
    // regions, and the rectangles the last heavy cell starts put a δ
    // candidate every few units in between. At j = 32 every prediction
    // `δ · (c + 1) / j` from below lands short, so a search led by
    // predictions alone crawls up a few percent a probe.
    let n = 122;
    let mut out = vec![0u64; n * n];
    let mut cand = vec![false; n * n];
    for i in 0..n {
        cand[i * n + i] = true;
        out[i * n + i] = if i < 32 {
            1000
        } else {
            5 + (i as u64 * 7) % 11
        };
    }
    let grid = Grid::new(&vec![1; n], &vec![1; n], &out, &cand);
    check_probe_bound(&grid, 32..=32, false).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn tables_and_delta_search_equal_their_oracles_on_staircase_grids(grid in staircase_grid()) {
        check_against_oracles(&grid, 8, true)?;
    }

    #[test]
    fn tables_and_delta_search_equal_their_oracles_on_random_grids(grid in random_grid()) {
        // The dense baseline on the small half only: its probes are O(n⁵).
        let small = grid.n_rows() * grid.n_cols() <= 36;
        check_against_oracles(&grid, 8, small)?;
    }

    #[test]
    fn delta_search_keeps_its_probe_bound_on_staircase_grids(grid in staircase_grid()) {
        check_probe_bound(&grid, 1..=8, true)?;
    }

    #[test]
    fn delta_search_keeps_its_probe_bound_on_random_grids(grid in random_grid()) {
        let small = grid.n_rows() * grid.n_cols() <= 36;
        check_probe_bound(&grid, 1..=8, small)?;
    }

    #[test]
    fn monotonic_bsp_partitions_are_always_valid(grid in staircase_grid(), delta_frac in 1u64..8) {
        // No δ is infeasible: whatever exceeds it is one candidate cell,
        // which is all `validate_partition` lets through.
        let total = grid.weight(grid.full());
        let delta = (total / delta_frac).max(1);
        let regions = monotonic_bsp(&grid, delta).expect("every delta has a partition");
        let shares = validate_partition(&grid, &regions, delta);
        prop_assert_eq!(shares, Ok(charged(&grid, &regions, delta) as u32));
        let over = regions.iter().filter(|r| grid.weight(**r) > delta).count();
        prop_assert_eq!(over > 0, shares.unwrap() as usize > regions.len());
    }

    #[test]
    fn monotonic_matches_dense_baseline(grid in staircase_grid(), delta_frac in 1u64..8) {
        // Hierarchical optima may differ in shape, the minimal charge may not.
        let total = grid.weight(grid.full());
        let delta = (total / delta_frac).max(1);
        let a = bsp(&grid, delta).map(|r| charged(&grid, &r, delta));
        let b = monotonic_bsp(&grid, delta).map(|r| charged(&grid, &r, delta));
        prop_assert!(a.is_some());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn max_weight_is_monotone_in_j(grid in staircase_grid()) {
        let mut prev = u64::MAX;
        for j in [1usize, 2, 4, 8] {
            let p = partition_max_weight(&grid, j, TilingAlgo::MonotonicBsp, 1);
            prop_assert!(p.max_weight <= prev, "j={}: {} > {}", j, p.max_weight, prev);
            let shares = validate_partition(&grid, &p.regions, p.delta);
            prop_assert_eq!(shares, Ok(p.shares.iter().sum::<u32>()));
            prop_assert!(shares.unwrap() as usize <= j);
            prev = p.max_weight;
        }
    }

    #[test]
    fn delta_from_binary_search_is_tight(grid in staircase_grid(), j in 1usize..6) {
        // No smaller delta may admit a partition charged within j regions.
        let p = partition_max_weight(&grid, j, TilingAlgo::MonotonicBsp, 1);
        if p.delta > grid.covered_weight() / j as u64 {
            let smaller = monotonic_bsp(&grid, p.delta - 1).expect("every delta has a partition");
            prop_assert!(
                charged(&grid, &smaller, p.delta - 1) > j as u64,
                "delta {} not minimal",
                p.delta
            );
        }
        // The search's floor is sound: j regions of at most δ a share cover
        // at most j·δ, so below covered/j the charge exceeds j — whatever a
        // hot cell weighs, which is why no cell enters the floor.
        let floor = grid.covered_weight() / j as u64;
        if floor > 1 {
            let below = monotonic_bsp(&grid, floor - 1).expect("every delta has a partition");
            prop_assert!(
                charged(&grid, &below, floor - 1) > j as u64,
                "floor {} is not a lower bound",
                floor
            );
        }
    }

    #[test]
    fn an_irreducible_cell_is_charged_its_shares(
        grid in staircase_grid(),
        hot in (0usize..100, 200u64..5000),
        j in 2usize..9,
    ) {
        // One candidate cell made far heavier than everything else: it
        // alone may exceed δ, it is charged ⌈w/δ⌉ of the budget, the budget
        // holds, and the reported maximum is per share.
        let cells = grid.candidate_cells();
        let (row, col) = cells[hot.0 % cells.len()];
        let (nr, nc) = (grid.n_rows() as usize, grid.n_cols() as usize);
        let cell = |r, c| Rect::new(r, c, r, c);
        let mut out = vec![0u64; nr * nc];
        let mut cand = vec![false; nr * nc];
        for &(r, c) in &cells {
            cand[r as usize * nc + c as usize] = true;
            out[r as usize * nc + c as usize] = 1;
        }
        out[row as usize * nc + col as usize] = hot.1;
        let hot_grid = Grid::new(&vec![1; nr], &vec![1; nc], &out, &cand);
        let p = partition_max_weight(&hot_grid, j, TilingAlgo::MonotonicBsp, 1);
        prop_assert_eq!(p.regions.len(), p.shares.len());
        prop_assert!(p.shares.iter().sum::<u32>() as usize <= j);
        let mut max = 0;
        for (r, &k) in p.regions.iter().zip(&p.shares) {
            let w = hot_grid.weight(*r);
            prop_assert_eq!(k, region_shares(w, p.delta));
            prop_assert_eq!(k > 1, w > p.delta);
            if w > p.delta {
                prop_assert_eq!(*r, cell(row, col), "only the hot cell may exceed delta");
            }
            max = max.max(w.div_ceil(k as u64));
        }
        prop_assert_eq!(p.max_weight, max);
        prop_assert!(p.max_weight <= p.delta);
        prop_assert!(validate_partition(&hot_grid, &p.regions, p.delta).is_ok());
        // A multi-cell region over δ is still refused.
        let full = hot_grid.shrink(hot_grid.full()).unwrap();
        if full.area() > 1 && hot_grid.weight(full) > 1 {
            prop_assert!(validate_partition(&hot_grid, &[full], hot_grid.weight(full) - 1).is_err());
        }
    }
}
