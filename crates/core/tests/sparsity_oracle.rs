//! Kernel ≡ oracle: `TrainingEvaluator::sparsity_with` must return, bit
//! for bit, what one sequential grouping pass over the batch returns, in
//! both of its shapes — targeted (cells as ANDed membership bitsets,
//! moments gathered for the scored cells only) and whole-batch (cells by
//! folded interval ranks, every cell's moments in one pass) — and the two
//! shapes must agree with each other when every point is a target.
//!
//! `sparsity_naive` below is that pass — the evaluator's body up to commit
//! `a16b704`, kept verbatim as the reference: quantize every point, group
//! the batch by projected cell key in a hash map while accumulating every
//! cell's count and moments in point order, then score the targets' cells.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot::evaluator::IRSD_CAP;
use spot::subspace::Subspace;
use spot::synopsis::{CellKey, Grid};
use spot::types::{DataPoint, DomainBounds, FxHashMap};
use spot::{SparsityScratch, TrainingEvaluator};
use std::collections::BTreeMap;

fn sparsity_naive(
    grid: &Grid,
    points: &[DataPoint],
    s: Subspace,
    targets: Option<&[usize]>,
) -> (f64, f64) {
    let coords: Vec<Vec<u16>> = points
        .iter()
        .map(|p| grid.base_coords(p).unwrap())
        .collect();
    let card = s.cardinality();
    let stride = 2 * card;
    let mut index: FxHashMap<CellKey, u32> = FxHashMap::default();
    let mut counts: Vec<f64> = Vec::new();
    let mut moments: Vec<f64> = Vec::new();
    let mut slot_of: Vec<u32> = Vec::new();
    for (p, base) in points.iter().zip(coords.iter()) {
        let key = grid.project_key(base, &s);
        let slot = *index.entry(key).or_insert_with(|| {
            counts.push(0.0);
            moments.extend(std::iter::repeat_n(0.0, stride));
            (counts.len() - 1) as u32
        });
        slot_of.push(slot);
        let slot = slot as usize;
        counts[slot] += 1.0;
        let (ls, ss) = moments[slot * stride..(slot + 1) * stride].split_at_mut(card);
        for (i, d) in s.dims().enumerate() {
            let v = p.value(d);
            ls[i] += v;
            ss[i] += v * v;
        }
    }
    let n = points.len() as f64;
    let cell_count = grid.cell_count_in(&s);
    let uniform_sigma = grid.uniform_sigma_in(&s);
    let score_one = |idx: usize| -> (f64, f64) {
        let slot = slot_of[idx] as usize;
        let count = counts[slot];
        let rd = count * cell_count / n;
        let irsd = if count < 2.0 {
            0.0
        } else {
            let (ls, ss) = moments[slot * stride..(slot + 1) * stride].split_at(card);
            let mut var = 0.0;
            for i in 0..card {
                let m = ls[i] / count;
                var += (ss[i] / count - m * m).max(0.0);
            }
            let sigma = var.sqrt();
            if sigma > f64::EPSILON {
                (uniform_sigma / sigma).min(IRSD_CAP)
            } else {
                IRSD_CAP
            }
        };
        (rd / (1.0 + rd), irsd / IRSD_CAP)
    };
    let mut rd_sum = 0.0;
    let mut irsd_sum = 0.0;
    let mut count = 0usize;
    match targets {
        Some(idx) => {
            for &i in idx {
                let (r, s_) = score_one(i);
                rd_sum += r;
                irsd_sum += s_;
                count += 1;
            }
        }
        None => {
            for i in 0..points.len() {
                let (r, s_) = score_one(i);
                rd_sum += r;
                irsd_sum += s_;
                count += 1;
            }
        }
    }
    if count == 0 {
        return (1.0, 1.0);
    }
    (rd_sum / count as f64, irsd_sum / count as f64)
}

/// A batch with both crowded and lonely cells at any granularity: half the
/// coordinates sit on a 3-level lattice (whole groups of points agree on
/// them), half are continuous, a few lie outside the bounds or at ±∞ (and
/// clamp), a few are exact duplicates of an earlier point.
fn batch(rng: &mut StdRng, n: usize, phi: usize) -> Vec<DataPoint> {
    let mut pts: Vec<DataPoint> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_range(0..10) == 0 {
            let twin = pts[rng.gen_range(0..i)].clone();
            pts.push(twin);
            continue;
        }
        let lattice_point = rng.gen_bool(0.5);
        let values = (0..phi)
            .map(|_| match rng.gen_range(0..40) {
                0 => f64::INFINITY,
                1 => -0.3,
                2 => 1.7,
                _ if lattice_point => [0.05, 0.5, 0.95][rng.gen_range(0..3usize)],
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        pts.push(DataPoint::new(values));
    }
    pts
}

/// A random subspace of exactly `card` of the `phi` dimensions.
fn subspace_of(rng: &mut StdRng, phi: usize, card: usize) -> Subspace {
    let mut dims: Vec<usize> = (0..phi).collect();
    for i in 0..card {
        let j = rng.gen_range(i..phi);
        dims.swap(i, j);
    }
    Subspace::from_dims(dims[..card].iter().copied()).unwrap()
}

/// The batch partitioned into the cells of `s`, by comparing projected
/// coordinates; per point, the members of its cell.
fn cells(grid: &Grid, points: &[DataPoint], s: Subspace) -> Vec<Vec<usize>> {
    let mut by_coords: BTreeMap<Vec<u16>, Vec<usize>> = BTreeMap::new();
    let projected: Vec<Vec<u16>> = points
        .iter()
        .map(|p| {
            let base = grid.base_coords(p).unwrap();
            s.dims().map(|d| base[d]).collect()
        })
        .collect();
    for (i, coords) in projected.iter().enumerate() {
        by_coords.entry(coords.clone()).or_default().push(i);
    }
    projected.iter().map(|c| by_coords[c].clone()).collect()
}

const SIZES: [usize; 6] = [1, 63, 64, 65, 320, 2000];
const WIDTHS: [usize; 3] = [4, 16, 64];
const GRANULARITIES: [u16; 3] = [2, 10, 255];

/// One (n, ϕ, granularity) combination: every cardinality of interest ×
/// every kind of target set, kernel against oracle.
fn check(rng: &mut StdRng, n: usize, phi: usize, granularity: u16) {
    let grid = Grid::new(DomainBounds::unit(phi), granularity).unwrap();
    let points = batch(rng, n, phi);
    let evaluator = TrainingEvaluator::new(grid.clone(), &points).unwrap();
    prop_assert_eq!(evaluator.len(), n);

    // Cardinalities: the concise ones a search visits (the kernel's one
    // group of 1..=4 lanes), a second group of every width (5: the first
    // two-group subspace, 8: two full groups), the full space, and both
    // sides of the packed-key boundary (beyond it the oracle groups by
    // 128-bit fingerprints).
    let exact = (128 / grid.codec().bits_per_dim() as usize).min(phi);
    prop_assert!(grid.codec().is_exact(exact));
    let mut cards: Vec<usize> = (1..=8).map(|card: usize| card.min(phi)).collect();
    cards.dedup();
    cards.extend([exact, phi]);
    if exact < phi {
        prop_assert!(!grid.codec().is_exact(exact + 1));
        cards.push(exact + 1);
    }

    // One scratch across everything: nothing may leak between calls.
    let mut scratch = SparsityScratch::default();
    for card in cards {
        let s = subspace_of(rng, phi, card);
        let cells = cells(&grid, &points, s);
        let some: Vec<usize> = (0..n.min(64)).map(|_| rng.gen_range(0..n)).collect();
        let mut doubled = some.clone();
        doubled.extend_from_slice(&some);
        let one_cell = &cells[rng.gen_range(0..n)];
        let singletons: Vec<usize> = (0..n).filter(|&i| cells[i].len() == 1).take(64).collect();
        // A maintenance tick's targets: the buffered outliers, indexed last.
        let tail: Vec<usize> = (n - n.min(64)..n).collect();
        // Every point, through the targeted kernel.
        let all: Vec<usize> = (0..n).collect();
        let target_sets: [Option<&[usize]>; 8] = [
            None,
            Some(&[]),
            Some(&some),
            Some(&doubled),
            Some(one_cell),
            Some(&singletons),
            Some(&tail),
            Some(&all),
        ];
        for targets in target_sets {
            let want = sparsity_naive(&grid, &points, s, targets);
            let got = evaluator.sparsity_with(s, targets, &mut scratch);
            prop_assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits()),
                "n={} phi={} m={} s={:?} targets={:?}: got {:?}, want {:?}",
                n,
                phi,
                granularity,
                s,
                targets.map(<[usize]>::len),
                got,
                want
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn kernel_matches_the_grouping_pass_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in SIZES {
            for phi in WIDTHS {
                for granularity in GRANULARITIES {
                    check(&mut rng, n, phi, granularity);
                }
            }
        }
    }
}

/// The whole-batch shape against the oracle and against the targeted
/// kernel over every point, by `to_bits`.
fn check_whole_batch(grid: &Grid, points: &[DataPoint], cards: &[usize], rng: &mut StdRng) {
    let evaluator = TrainingEvaluator::new(grid.clone(), points).unwrap();
    let all: Vec<usize> = (0..points.len()).collect();
    let mut scratch = SparsityScratch::default();
    for &card in cards {
        let s = subspace_of(rng, grid.dims(), card);
        let want = sparsity_naive(grid, points, s, None);
        let got = evaluator.sparsity_with(s, None, &mut scratch);
        let targeted = evaluator.sparsity_with(s, Some(&all), &mut scratch);
        let bits = |(rd, irsd): (f64, f64)| (rd.to_bits(), irsd.to_bits());
        let context = format!(
            "n={} phi={} m={} s={s:?}",
            points.len(),
            grid.dims(),
            grid.granularity()
        );
        assert_eq!(
            bits(got),
            bits(want),
            "{context}: got {got:?}, want {want:?}"
        );
        assert_eq!(
            bits(got),
            bits(targeted),
            "{context}: targeted {targeted:?}"
        );
    }
}

#[test]
fn whole_batch_matches_the_grouping_pass_on_both_sides_of_the_key_table() {
    // The grouping pass folds interval ranks into keys through a dense
    // table of 2^16 keys, re-ranks the cells formed so far when a fold
    // would pass it, and hashes a fold still too wide. At n = 2 000 and
    // ϕ = 64 every dimension occupies all m intervals at m = 2 and 10, and
    // nearly all at 255: at m = 2, 16 dimensions fill the table and 17
    // re-rank; at m = 10, 4 fit and 5 re-rank; at m = 255, 2 fit and 3
    // re-rank, then hash.
    let (n, phi) = (2000, 64);
    let mut rng = StdRng::seed_from_u64(0x5EED_0B47);
    let mut cards: Vec<usize> = (1..=8).collect();
    cards.extend([15, 16, 17, 32, phi]);
    for granularity in GRANULARITIES {
        let grid = Grid::new(DomainBounds::unit(phi), granularity).unwrap();
        let points = batch(&mut rng, n, phi);
        check_whole_batch(&grid, &points, &cards, &mut rng);
    }
}

#[test]
fn whole_batch_matches_the_grouping_pass_on_degenerate_batches() {
    let mut rng = StdRng::seed_from_u64(7);
    for phi in WIDTHS {
        let mut cards: Vec<usize> = (1..=8).map(|card: usize| card.min(phi)).collect();
        cards.dedup();
        cards.push(phi);
        for granularity in GRANULARITIES {
            let grid = Grid::new(DomainBounds::unit(phi), granularity).unwrap();
            // One point; 2 000 copies of one point (one cell, a variance of
            // exactly zero in every subspace).
            let one = batch(&mut rng, 1, phi);
            check_whole_batch(&grid, &one, &cards, &mut rng);
            let copies = vec![one[0].clone(); 2000];
            check_whole_batch(&grid, &copies, &cards, &mut rng);
        }
    }
}
