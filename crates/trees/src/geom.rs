//! Fixed-dimension points and axis-aligned boxes.
//!
//! `f32` throughout — the paper's GPU kernels are single-precision, and the
//! benchmarks' truncation tests (radius checks, opening criteria) tolerate
//! single precision. Dimension is a const generic so the 7-d data-mining
//! inputs, 3-d n-body and 2-d Geocity instantiate separate, fully
//! monomorphized code paths, exactly as templated C++ would.

use std::ops::{Index, IndexMut};

/// A point in `D`-dimensional space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointN<const D: usize>(pub [f32; D]);

impl<const D: usize> PointN<D> {
    /// The origin.
    pub fn zero() -> Self {
        PointN([0.0; D])
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist2(&self, other: &PointN<D>) -> f32 {
        let mut s = 0.0;
        for i in 0..D {
            let d = self.0[i] - other.0[i];
            s += d * d;
        }
        s
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &PointN<D>) -> f32 {
        self.dist2(other).sqrt()
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &PointN<D>) -> PointN<D> {
        PointN(std::array::from_fn(|i| self.0[i].min(other.0[i])))
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &PointN<D>) -> PointN<D> {
        PointN(std::array::from_fn(|i| self.0[i].max(other.0[i])))
    }

    /// Add `other` scaled by `s` (used by the n-body integrator).
    pub fn add_scaled(&self, other: &PointN<D>, s: f32) -> PointN<D> {
        PointN(std::array::from_fn(|i| self.0[i] + other.0[i] * s))
    }

    /// All coordinates finite?
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|c| c.is_finite())
    }
}

impl<const D: usize> Index<usize> for PointN<D> {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.0[i]
    }
}

impl<const D: usize> IndexMut<usize> for PointN<D> {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.0[i]
    }
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<const D: usize> {
    /// Minimum corner.
    pub lo: PointN<D>,
    /// Maximum corner.
    pub hi: PointN<D>,
}

impl<const D: usize> Aabb<D> {
    /// The degenerate box containing exactly `p`.
    pub fn point(p: PointN<D>) -> Self {
        Aabb { lo: p, hi: p }
    }

    /// An "empty" box that grows correctly under [`Aabb::grow`].
    pub fn empty() -> Self {
        Aabb {
            lo: PointN([f32::INFINITY; D]),
            hi: PointN([f32::NEG_INFINITY; D]),
        }
    }

    /// Smallest box containing all of `pts`. Returns [`Aabb::empty`] for an
    /// empty slice.
    pub fn of_points(pts: &[PointN<D>]) -> Self {
        pts.iter().fold(Self::empty(), |b, p| b.grow(*p))
    }

    /// Expand to contain `p`.
    pub fn grow(&self, p: PointN<D>) -> Self {
        Aabb {
            lo: self.lo.min(&p),
            hi: self.hi.max(&p),
        }
    }

    /// Expand to contain `other`.
    pub fn union(&self, other: &Aabb<D>) -> Self {
        Aabb {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }

    /// Does the box contain `p` (inclusive)?
    pub fn contains(&self, p: &PointN<D>) -> bool {
        (0..D).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// Squared distance from `p` to the closest point of the box; zero when
    /// `p` is inside. This is the truncation test of Point Correlation and
    /// the pruning test of kNN (`can_correlate` in the paper's Figure 4).
    pub fn dist2_to(&self, p: &PointN<D>) -> f32 {
        let mut s = 0.0;
        for i in 0..D {
            let d = if p[i] < self.lo[i] {
                self.lo[i] - p[i]
            } else if p[i] > self.hi[i] {
                p[i] - self.hi[i]
            } else {
                0.0
            };
            s += d * d;
        }
        s
    }

    /// Extent along axis `axis`.
    pub fn extent(&self, axis: usize) -> f32 {
        self.hi[axis] - self.lo[axis]
    }

    /// Axis with the largest extent (ties break low).
    pub fn widest_axis(&self) -> usize {
        let mut best = 0;
        let mut w = self.extent(0);
        for a in 1..D {
            let e = self.extent(a);
            if e > w {
                w = e;
                best = a;
            }
        }
        best
    }

    /// Midpoint along `axis`.
    pub fn mid(&self, axis: usize) -> f32 {
        0.5 * (self.lo[axis] + self.hi[axis])
    }

    /// Center point of the box.
    pub fn center(&self) -> PointN<D> {
        PointN(std::array::from_fn(|i| 0.5 * (self.lo[i] + self.hi[i])))
    }

    /// True if `lo <= hi` on all axes (empty boxes are not valid).
    pub fn is_valid(&self) -> bool {
        (0..D).all(|i| self.lo[i] <= self.hi[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_basic() {
        let a = PointN([0.0, 0.0, 0.0]);
        let b = PointN([1.0, 2.0, 2.0]);
        assert_eq!(a.dist2(&b), 9.0);
        assert_eq!(a.dist(&b), 3.0);
    }

    #[test]
    fn aabb_of_points_contains_all() {
        let pts = [PointN([1.0, -2.0]), PointN([3.0, 5.0]), PointN([-1.0, 0.0])];
        let b = Aabb::of_points(&pts);
        for p in &pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.lo, PointN([-1.0, -2.0]));
        assert_eq!(b.hi, PointN([3.0, 5.0]));
    }

    #[test]
    fn dist2_to_box_inside_is_zero() {
        let b = Aabb {
            lo: PointN([0.0, 0.0]),
            hi: PointN([2.0, 2.0]),
        };
        assert_eq!(b.dist2_to(&PointN([1.0, 1.0])), 0.0);
        assert_eq!(b.dist2_to(&PointN([0.0, 2.0])), 0.0); // boundary
        assert_eq!(b.dist2_to(&PointN([3.0, 2.0])), 1.0);
        assert_eq!(b.dist2_to(&PointN([3.0, 4.0])), 5.0);
    }

    #[test]
    fn widest_axis_and_mid() {
        let b = Aabb {
            lo: PointN([0.0, 0.0, -5.0]),
            hi: PointN([1.0, 4.0, -1.0]),
        };
        assert_eq!(b.widest_axis(), 1);
        assert_eq!(b.mid(2), -3.0);
    }

    #[test]
    fn empty_box_grows() {
        let b = Aabb::<3>::empty();
        assert!(!b.is_valid());
        let b = b.grow(PointN([1.0, 2.0, 3.0]));
        assert!(b.is_valid());
        assert_eq!(b.lo, b.hi);
    }

    #[test]
    fn union_commutes() {
        let a = Aabb::point(PointN([0.0, 1.0])).grow(PointN([2.0, 2.0]));
        let b = Aabb::point(PointN([-1.0, 5.0]));
        assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn add_scaled() {
        let p = PointN([1.0, 1.0]).add_scaled(&PointN([2.0, -4.0]), 0.5);
        assert_eq!(p, PointN([2.0, -1.0]));
    }
}
