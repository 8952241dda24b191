//! Const-generic dimension-`D` extension of the spatial substrate.
//!
//! The paper restricts itself to 2-D spatial data, and the original
//! [`crate::point::Point2`] pipeline stays exactly as it was — every
//! bit-pinned modeled time in the repo depends on it. This module adds the
//! dimension-generic layer the tree backend needs to cover d ∈ {2, 3, 4+}:
//!
//! * [`PointN`] — a `[f64; D]` point with the *same rounding sequence* as
//!   `Point2::distance_sq` at `D = 2` (coordinates accumulate in dimension
//!   order, one `mul`/`add` chain), so hit decisions against ε² are
//!   bit-identical between the 2-D and generic code paths;
//! * [`PointStoreN`] / [`PointsViewN`] — the SoA coordinate store, one
//!   contiguous array per dimension, mirroring [`crate::soa::PointStore`];
//! * [`AabbN`] — axis-aligned bounds;
//! * [`brute_force_neighbors_nd`] — the test/differential oracle.
//!
//! The unit-width binning pre-sort is one dimension-generic function for
//! every point type, [`crate::presort::spatial_sort_permutation_by`].

use crate::point::Point2;

/// A point in `D`-dimensional space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointN<const D: usize> {
    pub coords: [f64; D],
}

impl<const D: usize> PointN<D> {
    #[inline]
    pub const fn new(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// Squared Euclidean distance, accumulating dimensions in order
    /// 0..D: `d² = dx₀² ; d² += dx₁² ; …`. At `D = 2` this is exactly the
    /// mul-mul-add rounding chain of [`Point2::distance_sq`], which is
    /// what lets the generic kernels produce bit-identical hit decisions.
    #[inline]
    pub fn distance_sq(&self, other: &Self) -> f64 {
        let mut d2 = 0.0;
        for k in 0..D {
            let d = self.coords[k] - other.coords[k];
            d2 += d * d;
        }
        d2
    }

    /// Whether `other` lies within the closed ε-ball centred on `self`.
    #[inline]
    pub fn within_eps(&self, other: &Self, eps: f64) -> bool {
        self.distance_sq(other) <= eps * eps
    }
}

impl From<Point2> for PointN<2> {
    fn from(p: Point2) -> Self {
        Self::new([p.x, p.y])
    }
}

impl From<PointN<2>> for Point2 {
    fn from(p: PointN<2>) -> Self {
        Point2::new(p.coords[0], p.coords[1])
    }
}

/// A closed `D`-dimensional axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AabbN<const D: usize> {
    pub min: [f64; D],
    pub max: [f64; D],
}

impl<const D: usize> AabbN<D> {
    /// The identity for [`AabbN::grown`]: growing it with any point
    /// yields that point's degenerate box.
    pub fn empty() -> Self {
        Self {
            min: [f64::INFINITY; D],
            max: [f64::NEG_INFINITY; D],
        }
    }

    pub fn from_points<'a>(points: impl IntoIterator<Item = &'a PointN<D>>) -> Self {
        points.into_iter().fold(Self::empty(), |b, p| b.grown(p))
    }

    pub fn grown(mut self, p: &PointN<D>) -> Self {
        for k in 0..D {
            self.min[k] = self.min[k].min(p.coords[k]);
            self.max[k] = self.max[k].max(p.coords[k]);
        }
        self
    }

    pub fn is_empty(&self) -> bool {
        (0..D).any(|k| self.min[k] > self.max[k])
    }

    /// Side length along dimension `k` (0 for empty boxes).
    pub fn extent(&self, k: usize) -> f64 {
        (self.max[k] - self.min[k]).max(0.0)
    }

    /// The largest side length over all dimensions.
    pub fn max_extent(&self) -> f64 {
        (0..D).fold(0.0, |m, k| m.max(self.extent(k)))
    }
}

/// Structure-of-arrays store for `D`-dimensional points: one contiguous
/// `Vec<f64>` per dimension, mirroring [`crate::soa::PointStore`].
#[derive(Debug, Clone)]
pub struct PointStoreN<const D: usize> {
    coords: [Vec<f64>; D],
    len: usize,
}

impl<const D: usize> PointStoreN<D> {
    pub fn from_points(points: &[PointN<D>]) -> Self {
        let mut coords: [Vec<f64>; D] = std::array::from_fn(|_| Vec::with_capacity(points.len()));
        for p in points {
            for (axis, column) in coords.iter_mut().enumerate() {
                column.push(p.coords[axis]);
            }
        }
        Self {
            coords,
            len: points.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn view(&self) -> PointsViewN<'_, D> {
        PointsViewN {
            coords: std::array::from_fn(|k| self.coords[k].as_slice()),
        }
    }

    pub fn get(&self, i: usize) -> PointN<D> {
        self.view().get(i)
    }
}

/// Borrowed SoA view of a [`PointStoreN`] (or of any per-dimension
/// coordinate slices, e.g. the 2-D `PointStore`'s `xs`/`ys`). `Copy`, so
/// kernels capture it by value like the other device constants.
#[derive(Debug, Clone, Copy)]
pub struct PointsViewN<'a, const D: usize> {
    pub coords: [&'a [f64]; D],
}

impl<'a, const D: usize> PointsViewN<'a, D> {
    pub fn len(&self) -> usize {
        self.coords[0].len()
    }

    pub fn is_empty(&self) -> bool {
        self.coords[0].is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> PointN<D> {
        PointN::new(std::array::from_fn(|k| self.coords[k][i]))
    }
}

impl<'a> From<crate::soa::PointsView<'a>> for PointsViewN<'a, 2> {
    fn from(v: crate::soa::PointsView<'a>) -> Self {
        Self {
            coords: [v.xs, v.ys],
        }
    }
}

/// Brute-force ε-neighborhood oracle: ids of every point of `data` within
/// the closed ε-ball around `q`, ascending. Uses [`PointN::distance_sq`],
/// so its hit decisions are bit-identical to the index-backed paths.
pub fn brute_force_neighbors_nd<const D: usize>(
    data: &[PointN<D>],
    q: &PointN<D>,
    eps: f64,
) -> Vec<u32> {
    let eps_sq = eps * eps;
    data.iter()
        .enumerate()
        .filter(|(_, p)| p.distance_sq(q) <= eps_sq)
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presort::spatial_sort_permutation_by;

    #[test]
    fn distance_matches_point2_bitwise() {
        // The rounding-chain contract: PointN<2> must reproduce
        // Point2::distance_sq to the bit on awkward coordinates.
        let pairs = [
            ((0.1, 0.2), (0.7, -0.3)),
            ((1e-9, 1e9), (3.3333333, 7.7777)),
            ((-5.5, 2.25), (2.125, -0.0625)),
        ];
        for ((ax, ay), (bx, by)) in pairs {
            let (a2, b2) = (Point2::new(ax, ay), Point2::new(bx, by));
            let (an, bn) = (PointN::from(a2), PointN::from(b2));
            assert_eq!(a2.distance_sq(&b2).to_bits(), an.distance_sq(&bn).to_bits());
        }
    }

    #[test]
    fn distance_is_euclidean_in_3d() {
        let a = PointN::new([0.0, 0.0, 0.0]);
        let b = PointN::new([1.0, 2.0, 2.0]);
        assert_eq!(a.distance_sq(&b), 9.0);
        assert!(a.within_eps(&b, 3.0), "boundary point is a neighbor");
        assert!(!a.within_eps(&b, 2.999));
    }

    #[test]
    fn store_round_trips_points() {
        let pts: Vec<PointN<3>> = (0..10)
            .map(|i| PointN::new([i as f64, i as f64 * 0.5, -(i as f64)]))
            .collect();
        let store = PointStoreN::from_points(&pts);
        assert_eq!(store.len(), 10);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(store.get(i), *p);
        }
    }

    #[test]
    fn aabb_covers_points() {
        let pts = [PointN::new([0.0, 5.0, -1.0]), PointN::new([2.0, 1.0, 3.0])];
        let b = AabbN::from_points(pts.iter());
        assert_eq!(b.min, [0.0, 1.0, -1.0]);
        assert_eq!(b.max, [2.0, 5.0, 3.0]);
        assert_eq!(b.extent(2), 4.0);
        assert_eq!(b.max_extent(), 4.0);
        assert!(AabbN::<3>::empty().is_empty());
    }

    #[test]
    fn nd_presort_matches_2d_presort() {
        // At D = 2 the generic key sort must reproduce the 2-D one.
        let data: Vec<Point2> = (0..50)
            .map(|i| {
                let t = i as f64;
                Point2::new((t * 0.731).fract() * 6.0, (t * 0.417).fract() * 6.0)
            })
            .collect();
        let nd: Vec<PointN<2>> = data.iter().map(|&p| PointN::from(p)).collect();
        let p2 = crate::presort::spatial_sort_permutation(&data);
        let pn = spatial_sort_permutation_by(&nd, |p| p.coords);
        assert_eq!(p2.as_slice(), pn.as_slice());
    }

    #[test]
    fn nd_presort_is_a_permutation_and_deterministic() {
        let data: Vec<PointN<4>> = (0..64)
            .map(|i| {
                let t = i as f64;
                PointN::new([
                    (t * 0.31).fract() * 4.0,
                    (t * 0.57).fract() * 4.0,
                    (t * 0.73).fract() * 4.0,
                    (t * 0.91).fract() * 4.0,
                ])
            })
            .collect();
        let p1 = spatial_sort_permutation_by(&data, |p| p.coords);
        let p2 = spatial_sort_permutation_by(&data, |p| p.coords);
        assert_eq!(p1.as_slice(), p2.as_slice());
        let mut seen = vec![false; data.len()];
        for &i in p1.as_slice() {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        let sorted = p1.apply(&data);
        assert_eq!(sorted.len(), data.len());
    }

    #[test]
    fn brute_force_oracle_basics() {
        let data = [
            PointN::new([0.0, 0.0, 0.0, 0.0]),
            PointN::new([1.0, 0.0, 0.0, 0.0]),
            PointN::new([1.0, 1.0, 1.0, 1.0]),
        ];
        assert_eq!(brute_force_neighbors_nd(&data, &data[0], 1.0), vec![0, 1]);
        assert_eq!(
            brute_force_neighbors_nd(&data, &data[2], 2.0),
            vec![0, 1, 2]
        );
    }
}
