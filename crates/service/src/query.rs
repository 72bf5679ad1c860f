//! Query and result types for the batched traversal service.
//!
//! The service front-end is dimension-erased: a query carries its position
//! as a `Vec<f32>` and names the target index by [`IndexId`]. Dimension
//! checking happens at submission against the registered index.

use crate::trace::{FUSED_OP_KNN, FUSED_OP_NN, FUSED_OP_PC};

/// Handle of a registered index (returned by `Service::register_index`).
pub type IndexId = usize;

/// What to compute for a query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// Nearest distinct-position neighbor (split-plane-pruned NN kernel).
    Nn,
    /// The `k` nearest neighbors (bounding-box-pruned kNN kernel).
    Knn {
        /// Neighbor count; clamped to the index size at execution.
        k: usize,
    },
    /// Count of dataset points within `radius` (point-correlation kernel).
    Pc {
        /// Ball radius in dataset units.
        radius: f32,
    },
}

/// A single query against a registered index.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Target index.
    pub index: IndexId,
    /// Query position; length must equal the index dimension.
    pub pos: Vec<f32>,
    /// Operation to run.
    pub kind: QueryKind,
}

/// Result of one query.
///
/// Neighbor ids refer to the *original* dataset order the index was built
/// from (the kd-tree's internal leaf-order permutation is undone).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Nearest-neighbor answer.
    Nn {
        /// Squared distance to the nearest distinct-position point
        /// (infinite when the dataset holds no distinct position).
        dist2: f32,
        /// Original dataset index of that point, or `u32::MAX`.
        id: u32,
    },
    /// k-nearest answer, ascending by distance.
    Knn {
        /// Squared distances, sorted ascending.
        dist2: Vec<f32>,
        /// Original dataset indices, parallel to `dist2`.
        ids: Vec<u32>,
    },
    /// Point-correlation count.
    Pc {
        /// Number of dataset points within the radius.
        count: u32,
    },
}

/// What the batcher files a query under: its index, whose one bucket it
/// joins, and its op with the op's parameter (`k`, or the radius's exact
/// bit pattern), which its lane asks and the bucket counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// Target index.
    pub index: IndexId,
    /// Operation + parameter.
    pub op: OpKey,
}

/// The operation part of a [`BatchKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKey {
    /// Nearest neighbor.
    Nn,
    /// k-nearest with this `k`.
    Knn(usize),
    /// Point correlation with this radius (stored as `f32::to_bits` so the
    /// key stays `Eq + Hash`).
    Pc(u32),
}

impl OpKey {
    /// The op's family, whatever its parameter: its name (`"nn"`, `"knn"`,
    /// `"pc"`) as slow-log records spell it, and its bit in
    /// [`crate::EventKind::Batch`]'s op mask.
    pub fn family(self) -> (&'static str, u8) {
        match self {
            OpKey::Nn => ("nn", FUSED_OP_NN),
            OpKey::Knn(_) => ("knn", FUSED_OP_KNN),
            OpKey::Pc(_) => ("pc", FUSED_OP_PC),
        }
    }
}

impl QueryKind {
    /// The op key for this operation. `None` when the parameters
    /// are unusable (`k == 0`, or a radius that is not a finite positive
    /// number).
    pub fn op_key(&self) -> Option<OpKey> {
        match *self {
            QueryKind::Nn => Some(OpKey::Nn),
            QueryKind::Knn { k } => (k > 0).then_some(OpKey::Knn(k)),
            QueryKind::Pc { radius } => (radius.is_finite() && radius >= 0.0).then_some({
                // Key on the *numeric value*, not the raw bit pattern:
                // `-0.0 == 0.0` yet their bit patterns differ, so a
                // recomputed-but-equal radius must not be a second op on
                // its lane. For every other admissible radius (finite, > 0)
                // value equality and bit equality coincide.
                let bits = if radius == 0.0 {
                    0.0f32.to_bits()
                } else {
                    radius.to_bits()
                };
                OpKey::Pc(bits)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_key_rejects_degenerate_parameters() {
        assert_eq!(QueryKind::Nn.op_key(), Some(OpKey::Nn));
        assert_eq!(QueryKind::Knn { k: 0 }.op_key(), None);
        assert_eq!(QueryKind::Knn { k: 3 }.op_key(), Some(OpKey::Knn(3)));
        assert_eq!(QueryKind::Pc { radius: -1.0 }.op_key(), None);
        assert_eq!(QueryKind::Pc { radius: f32::NAN }.op_key(), None);
        assert!(QueryKind::Pc { radius: 0.25 }.op_key().is_some());
    }

    #[test]
    fn pc_keys_distinguish_radii_exactly() {
        let a = QueryKind::Pc { radius: 0.1 }.op_key();
        let b = QueryKind::Pc {
            radius: 0.1 + f32::EPSILON,
        }
        .op_key();
        assert_ne!(a, b);
    }

    #[test]
    fn pc_keys_coalesce_numerically_equal_radii() {
        // `-0.0` and `+0.0` compare equal but differ in bit pattern; the
        // key must normalize them so equal radii share one op key.
        let pos = QueryKind::Pc { radius: 0.0 }.op_key();
        let neg = QueryKind::Pc { radius: -0.0 }.op_key();
        assert_eq!(pos, neg);
        assert_eq!(pos, Some(OpKey::Pc(0.0f32.to_bits())));
        // A radius recomputed through arithmetic that lands on the same
        // value keys identically.
        let direct = QueryKind::Pc { radius: 0.25 }.op_key();
        let recomputed = QueryKind::Pc { radius: 0.5 * 0.5 }.op_key();
        assert_eq!(direct, recomputed);
    }
}
