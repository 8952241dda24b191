//! Spatial pre-sort of the point database (Section IV of the paper).
//!
//! Before building the grid index, the paper bins `p_i ∈ D` in the x and y
//! dimensions "of unit width such that points in similar spatial locations
//! will be stored nearby each other in memory". Two properties of the
//! pipeline depend on this:
//!
//! 1. **Locality** — threads of the GPU kernels that process nearby points
//!    touch nearby entries of `D`, improving (simulated) coalescing.
//! 2. **Uniform batch sampling** — the batching scheme of Section VI samples
//!    every `n_b`-th point of the *sorted* array and relies on that stride
//!    being a roughly uniform spatial sample, so the per-batch result sizes
//!    `|R_l|` stay consistent (Figure 2).

use crate::point::Point2;
use rayon::prelude::*;

/// Below this many points the pool dispatch costs more than the permute
/// or sort saves; the serial paths produce identical output (the keys
/// are distinct, so the permutation is unique).
const PAR_MIN_POINTS: usize = 1 << 14;

/// The permutation produced by a spatial sort: `order[k]` is the index in
/// the *original* array of the point that sorts to position `k`.
#[derive(Debug, Clone)]
pub struct SortPermutation {
    order: Vec<u32>,
}

impl SortPermutation {
    /// Apply the permutation, producing the sorted point array. An
    /// index-addressed gather: parallel and serial paths write the same
    /// element at the same position.
    pub fn apply<T: Copy + Send + Sync>(&self, data: &[T]) -> Vec<T> {
        if data.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1 {
            self.order.par_iter().map(|&i| data[i as usize]).collect()
        } else {
            self.order.iter().map(|&i| data[i as usize]).collect()
        }
    }

    /// Original index of the point now at sorted position `k`.
    pub fn original_index(&self, k: usize) -> u32 {
        self.order[k]
    }

    /// The raw permutation slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.order
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// The unit-bin spatial sort permutation for points with `D` coordinates,
/// `coords(p)` giving them in dimension order.
///
/// Points are ordered by their unit-width bins compared from the last
/// dimension down to the first (row-major: `(floor(y), floor(x))` in 2-D),
/// then by their exact coordinates in the same order (`f64::total_cmp`),
/// then by index. Each point's key is computed once and the key array is
/// sorted, so no comparison recomputes a `floor` or chases `data[i]`.
/// The index makes every key distinct: the order is a unique total order,
/// and the parallel and serial paths emit the same permutation.
pub fn spatial_sort_permutation_by<P: Sync, const D: usize>(
    data: &[P],
    coords: impl Fn(&P) -> [f64; D] + Sync,
) -> SortPermutation {
    let key = |i: usize| {
        let c = coords(&data[i]);
        let bins: [i64; D] = std::array::from_fn(|k| c[D - 1 - k].floor() as i64);
        let exact: [i64; D] = std::array::from_fn(|k| total_order_key(c[D - 1 - k]));
        (bins, exact, i as u32)
    };
    let parallel = data.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1;
    let mut keys: Vec<_> = if parallel {
        (0..data.len()).into_par_iter().map(key).collect()
    } else {
        (0..data.len()).map(key).collect()
    };
    // One run per pool thread, each sorted in place, then merged straight
    // into the order: no n-sized key scratch, which the pool's merge sort
    // would allocate on every build. Distinct keys make the result
    // independent of the run count.
    let n_runs = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let mut runs: Vec<&mut [_]> = keys
        .chunks_mut(data.len().div_ceil(n_runs).max(1))
        .collect();
    runs.par_iter_mut().for_each(|run| run.sort_unstable());
    let mut heads: Vec<&[_]> = runs.into_iter().map(|run| &*run).collect();
    let mut order = Vec::with_capacity(data.len());
    while let Some(h) = (0..heads.len())
        .filter(|&h| !heads[h].is_empty())
        .min_by(|&a, &b| heads[a][0].cmp(&heads[b][0]))
    {
        order.push(heads[h][0].2);
        heads[h] = &heads[h][1..];
    }
    SortPermutation { order }
}

/// The integer whose `i64` order is `f64::total_cmp`'s order (the same
/// sign-magnitude flip the standard library performs per comparison).
#[inline]
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The 2-D unit-bin spatial sort permutation: [`spatial_sort_permutation_by`]
/// over `(x, y)`, i.e. ordered by `(floor(y), floor(x))`, then `(y, x)`,
/// then index.
pub fn spatial_sort_permutation(data: &[Point2]) -> SortPermutation {
    spatial_sort_permutation_by(data, |p| [p.x, p.y])
}

/// Convenience: return the spatially sorted copy of `data`.
pub fn spatial_sort(data: &[Point2]) -> Vec<Point2> {
    spatial_sort_permutation(data).apply(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation() {
        let data = vec![
            Point2::new(5.5, 5.5),
            Point2::new(0.1, 0.1),
            Point2::new(0.9, 0.2),
            Point2::new(5.1, 0.5),
        ];
        let perm = spatial_sort_permutation(&data);
        let mut seen = vec![false; data.len()];
        for k in 0..perm.len() {
            let i = perm.original_index(k) as usize;
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bins_group_contiguously() {
        let data = vec![
            Point2::new(3.5, 3.5), // bin (3,3)
            Point2::new(0.5, 0.5), // bin (0,0)
            Point2::new(3.4, 3.9), // bin (3,3)
            Point2::new(0.2, 0.8), // bin (0,0)
        ];
        let sorted = spatial_sort(&data);
        // (0,0)-bin points first, then (3,3)-bin points.
        assert!(sorted[0].x < 1.0 && sorted[1].x < 1.0);
        assert!(sorted[2].x > 3.0 && sorted[3].x > 3.0);
    }

    #[test]
    fn sorted_order_is_row_major() {
        let data = vec![
            Point2::new(2.5, 0.5), // row 0, col 2
            Point2::new(0.5, 1.5), // row 1, col 0
            Point2::new(0.5, 0.5), // row 0, col 0
        ];
        let sorted = spatial_sort(&data);
        assert_eq!(sorted[0], Point2::new(0.5, 0.5));
        assert_eq!(sorted[1], Point2::new(2.5, 0.5));
        assert_eq!(sorted[2], Point2::new(0.5, 1.5));
    }

    #[test]
    fn deterministic_on_duplicates() {
        let data = vec![Point2::new(1.0, 1.0); 5];
        let p1 = spatial_sort_permutation(&data);
        let p2 = spatial_sort_permutation(&data);
        assert_eq!(p1.as_slice(), p2.as_slice());
    }

    #[test]
    fn negative_coordinates_bin_correctly() {
        // floor(-0.5) = -1, so (-0.5, -0.5) sorts before (0.5, 0.5).
        let data = vec![Point2::new(0.5, 0.5), Point2::new(-0.5, -0.5)];
        let sorted = spatial_sort(&data);
        assert_eq!(sorted[0], Point2::new(-0.5, -0.5));
    }

    /// The per-comparison comparator the key sort replaced, kept as the
    /// oracle: bins from the last dimension down, then exact coordinates
    /// by `total_cmp` in the same order, then index.
    fn comparator_order<const D: usize>(data: &[[f64; D]]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..data.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (pa, pb) = (&data[a as usize], &data[b as usize]);
            (0..D)
                .rev()
                .map(|k| (pa[k].floor() as i64).cmp(&(pb[k].floor() as i64)))
                .chain((0..D).rev().map(|k| pa[k].total_cmp(&pb[k])))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| a.cmp(&b))
        });
        order
    }

    /// Coordinates that stress the key encoding: signed zeros, exact bin
    /// boundaries and the floats either side of them, magnitudes of 1e12
    /// and beyond `i64` range, infinities and NaN — half the time from
    /// this pool (so duplicates are common), otherwise uniform in ±10.
    fn awkward_points<const D: usize>(n: usize, seed: u64) -> Vec<[f64; D]> {
        const POOL: [f64; 16] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            0.999_999_999_999_999_9,
            -0.999_999_999_999_999_9,
            1.000_000_000_000_000_2,
            -0.5,
            1e12,
            -1e12,
            1e12 + 0.5,
            3e19,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        (0..n)
            .map(|_| {
                std::array::from_fn(|_| {
                    let r = next();
                    if r % 2 == 0 {
                        POOL[(r >> 1) as usize % POOL.len()]
                    } else {
                        (r >> 1) as f64 / (1u64 << 52) as f64 * 20.0 - 10.0
                    }
                })
            })
            .collect()
    }

    fn check_against_oracle<const D: usize>(n: usize) {
        let data = awkward_points::<D>(n, 17 + D as u64);
        let expected = comparator_order(&data);
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| spatial_sort_permutation_by(&data, |p| *p));
            assert_eq!(
                got.as_slice(),
                expected,
                "D = {D}, n = {n}, {threads} threads"
            );
            if D == 2 {
                let points: Vec<Point2> = data.iter().map(|p| Point2::new(p[0], p[1])).collect();
                let got2 = pool.install(|| spatial_sort_permutation(&points));
                assert_eq!(got2.as_slice(), expected, "2-D wrapper, n = {n}");
            }
        }
    }

    #[test]
    fn key_sort_equals_comparator_in_every_dimension() {
        for n in [0, 1, 1000, PAR_MIN_POINTS + 1001] {
            check_against_oracle::<2>(n);
            check_against_oracle::<3>(n);
            check_against_oracle::<4>(n);
        }
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -0.0,
            0.0,
            1e-310,
            1.0,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn empty_input() {
        let perm = spatial_sort_permutation(&[]);
        assert!(perm.is_empty());
        assert!(spatial_sort(&[]).is_empty());
    }
}
