//! Property-based equivalence of the keyed crack kernels (narrow-column
//! scans) against the record-streaming kernels they replaced, which are
//! kept in `quasii::crack::reference` as the oracle.
//!
//! For arbitrary segments (including heavy key ties), arbitrary pivots and
//! every [`AssignBy`] mode, the keyed kernels must reproduce the oracle's
//! **split points and physical record order bit-for-bit**, return
//! per-segment measurements equal to a [`DimBounds::of`] re-scan of the
//! oracle's output (and to the crack dimension of its exact MBB), and
//! leave the `(keys, his)` column pair in lockstep with the permuted
//! records. The engine-level consequences (identical results, permutations
//! and stats across threads/batches/shards) are covered by the existing
//! suites in `tests/{batch,shard}.rs` — the kernels proven equivalent here
//! are the only reorganization primitives the engine calls.

use proptest::prelude::*;
use quasii::crack::{self, key_of, reference, DimBounds};
use quasii::keys::rekey;
use quasii::AssignBy;
use quasii_suite::prelude::*;

/// Segments with deliberately coarse coordinates so duplicate assignment
/// keys (the Dutch-flag middle class, degenerate splits) appear often.
fn arb_segment() -> impl Strategy<Value = Vec<Record<3>>> {
    prop::collection::vec(
        (0u32..40, 0u32..40, 0u32..40, 0u32..10, 0u32..10, 0u32..10),
        0..250,
    )
    .prop_map(|boxes| {
        boxes
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, z, a, b, c))| {
                let lo = [x as f64, y as f64, z as f64];
                let hi = [lo[0] + a as f64, lo[1] + b as f64, lo[2] + c as f64];
                Record::new(i as u64, Aabb::new(lo, hi))
            })
            .collect()
    })
}

fn arb_mode() -> impl Strategy<Value = AssignBy> {
    (0usize..3).prop_map(|i| match i {
        0 => AssignBy::Lower,
        1 => AssignBy::Center,
        _ => AssignBy::Upper,
    })
}

/// Builds the `(keys, his)` column pair of a segment.
fn columns_of(seg: &[Record<3>], dim: usize, mode: AssignBy) -> (Vec<f64>, Vec<f64>) {
    let mut keys = vec![0.0; seg.len()];
    let mut his = vec![0.0; seg.len()];
    rekey(&mut keys, &mut his, seg, dim, mode);
    (keys, his)
}

/// Asserts the column pair still caches the permuted records' values.
fn assert_lockstep(
    keys: &[f64],
    his: &[f64],
    recs: &[Record<3>],
    dim: usize,
    mode: AssignBy,
) -> Result<(), TestCaseError> {
    for ((k, h), r) in keys.iter().zip(his).zip(recs) {
        prop_assert_eq!(*k, key_of(r, dim, mode), "key column out of lockstep");
        prop_assert_eq!(*h, r.mbb.hi[dim], "upper-bound column out of lockstep");
    }
    Ok(())
}

/// The exact MBB the engine lazily computes for an at-most-τ crack output
/// (`Slice::measure_exact` folds in index order).
fn exact_mbb(seg: &[Record<3>]) -> Aabb<3> {
    let mut mbb = Aabb::empty();
    for r in seg {
        mbb.expand(&r.mbb);
    }
    mbb
}

/// Asserts `got` equals the oracle's re-measurement of `seg`: a
/// [`DimBounds::of`] re-scan, whose interval is also the crack dimension
/// of the segment's exact MBB.
fn assert_measured(
    got: DimBounds,
    seg: &[Record<3>],
    dim: usize,
    mode: AssignBy,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, DimBounds::of(seg, dim, mode));
    let mbb = exact_mbb(seg);
    prop_assert_eq!((got.min_lo, got.max_hi), (mbb.lo[dim], mbb.hi[dim]));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two-way: keyed ≡ record-streaming for split point and permutation;
    /// measurements equal the oracle's re-scan; columns stay in lockstep.
    #[test]
    fn two_way_keyed_equals_reference(
        seg in arb_segment(),
        mode in arb_mode(),
        dim in 0usize..3,
        pivot_idx in 0u32..40,
    ) {
        let pivot = pivot_idx as f64 + 0.5;
        let (mut keys, mut his) = columns_of(&seg, dim, mode);
        let mut keyed = seg.clone();
        let mut plain = seg;
        let (p, l, r) = crack::crack_two_keyed_measured(
            &mut keys, &mut his, &mut keyed, dim, mode, pivot,
        );
        let p_ref = reference::crack_two(&mut plain, dim, mode, pivot);
        prop_assert_eq!(p, p_ref, "split point diverged");
        prop_assert_eq!(&keyed, &plain, "physical order diverged");
        assert_measured(l, &plain[..p], dim, mode)?;
        assert_measured(r, &plain[p..], dim, mode)?;
        assert_lockstep(&keys, &his, &keyed, dim, mode)?;
    }

    /// Three-way (Dutch flag): keyed ≡ record-streaming, same contract.
    #[test]
    fn three_way_keyed_equals_reference(
        seg in arb_segment(),
        mode in arb_mode(),
        dim in 0usize..3,
        a in 0u32..40,
        width in 0u32..20,
    ) {
        let low = a as f64;
        let high = low + width as f64;
        let (mut keys, mut his) = columns_of(&seg, dim, mode);
        let mut keyed = seg.clone();
        let mut plain = seg;
        let (p1, p2, m) = crack::crack_three_keyed_measured(
            &mut keys, &mut his, &mut keyed, dim, mode, low, high,
        );
        let (r1, r2) = reference::crack_three(&mut plain, dim, mode, low, high);
        prop_assert_eq!((p1, p2), (r1, r2), "split points diverged");
        prop_assert_eq!(&keyed, &plain, "physical order diverged");
        assert_measured(m[0], &plain[..p1], dim, mode)?;
        assert_measured(m[1], &plain[p1..p2], dim, mode)?;
        assert_measured(m[2], &plain[p2..], dim, mode)?;
        assert_lockstep(&keys, &his, &keyed, dim, mode)?;
    }

    /// Rank-based fallback: keyed ≡ record-streaming (same `select_nth`
    /// comparator, then equivalent partitions), including the degenerate
    /// all-equal-keys outcome (split 0). Measurements are only defined for
    /// an interior split, where the engine reads them.
    #[test]
    fn median_keyed_equals_reference(
        seg in arb_segment(),
        mode in arb_mode(),
        dim in 0usize..3,
    ) {
        let (mut keys, mut his) = columns_of(&seg, dim, mode);
        let mut keyed = seg.clone();
        let mut plain = seg;
        let (p, l, r) =
            crack::crack_median_keyed_measured(&mut keys, &mut his, &mut keyed, dim, mode);
        let p_ref = reference::crack_median(&mut plain, dim, mode);
        prop_assert_eq!(p, p_ref);
        prop_assert_eq!(&keyed, &plain);
        if 0 < p && p < plain.len() {
            assert_measured(l, &plain[..p], dim, mode)?;
            assert_measured(r, &plain[p..], dim, mode)?;
        }
        assert_lockstep(&keys, &his, &keyed, dim, mode)?;
    }

    /// Engine level: with the keyed kernels on the hot path, arbitrary
    /// query sequences still agree with brute force in every assignment
    /// mode, and the full hierarchy (including the column-lockstep
    /// invariant) validates after every query.
    #[test]
    fn engine_stays_correct_in_every_mode(
        seed in 0u64..1_000,
        n in 20usize..400,
        tau in 2usize..24,
        mode in arb_mode(),
        queries in prop::collection::vec(
            (0.0..90.0f64, 0.0..90.0f64, 0.0..90.0f64, 1.0..40.0f64),
            1..8,
        ),
    ) {
        let data = dataset::uniform_boxes_in::<3>(n, 100.0, seed);
        let mut cfg = QuasiiConfig::with_tau(tau);
        cfg.assign_by = mode;
        let mut idx = Quasii::new(data.clone(), cfg);
        for &(x, y, z, w) in &queries {
            let q = Aabb::new([x, y, z], [x + w, y + w, z + w]);
            let got = idx.query_collect(&q);
            quasii_common::index::assert_matches_brute_force(&data, &q, &got);
            idx.validate().map_err(TestCaseError::fail)?;
        }
    }
}

#[test]
fn degenerate_all_equal_keys_segment() {
    // Every record identical: two-way puts everything right of any pivot
    // at-or-below the key, three-way's middle swallows everything when the
    // range contains the key, and the median fallback reports
    // value-indivisibility (split 0) — all exactly like the oracle.
    let seg: Vec<Record<3>> = (0..50)
        .map(|i| Record::new(i, Aabb::new([7.0; 3], [9.0; 3])))
        .collect();
    for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
        for pivot in [6.0, key_of(&seg[0], 0, mode), 100.0] {
            let (mut keys, mut his) = columns_of(&seg, 0, mode);
            let mut keyed = seg.clone();
            let mut plain = seg.clone();
            let (p, l, r) =
                crack::crack_two_keyed_measured(&mut keys, &mut his, &mut keyed, 0, mode, pivot);
            let p_ref = reference::crack_two(&mut plain, 0, mode, pivot);
            assert_eq!(p, p_ref);
            assert_eq!(keyed, plain);
            assert_eq!(l, DimBounds::of(&plain[..p], 0, mode));
            assert_eq!(r, DimBounds::of(&plain[p..], 0, mode));
        }
        let k = key_of(&seg[0], 0, mode);
        let (mut keys, mut his) = columns_of(&seg, 0, mode);
        let mut keyed = seg.clone();
        let (p1, p2, _) =
            crack::crack_three_keyed_measured(&mut keys, &mut his, &mut keyed, 0, mode, k, k);
        assert_eq!((p1, p2), (0, 50), "middle swallows the identical keys");
        let (p, _, _) =
            crack::crack_median_keyed_measured(&mut keys, &mut his, &mut keyed, 0, mode);
        assert_eq!(p, 0, "value-indivisible segment");
    }
}

#[test]
fn empty_segments_are_no_ops() {
    let mut keys: Vec<f64> = vec![];
    let mut his: Vec<f64> = vec![];
    let mut recs: Vec<Record<3>> = vec![];
    let (p, l, r) =
        crack::crack_two_keyed_measured(&mut keys, &mut his, &mut recs, 0, AssignBy::Lower, 1.0);
    assert_eq!(p, 0);
    assert_eq!((l, r), (DimBounds::empty(), DimBounds::empty()));
    let (p1, p2, m) = crack::crack_three_keyed_measured(
        &mut keys,
        &mut his,
        &mut recs,
        0,
        AssignBy::Lower,
        0.0,
        1.0,
    );
    assert_eq!((p1, p2), (0, 0));
    assert!(m.iter().all(|b| *b == DimBounds::empty()));
    let (p, l, r) =
        crack::crack_median_keyed_measured(&mut keys, &mut his, &mut recs, 0, AssignBy::Lower);
    assert_eq!((p, l, r), (0, DimBounds::empty(), DimBounds::empty()));
}
