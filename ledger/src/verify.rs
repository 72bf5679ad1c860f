//! The correctness check: sampled answers against `gts_apps::oracle` brute
//! force over the point set.

use crate::load::Sample;
use crate::workloads::{MutationRecord, Points};
use gts_apps::oracle;
use gts_service::{QueryKind, QueryResult};
use gts_trees::PointN;

/// Distances agree within f32 rounding (both infinite also agrees).
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-6) || (a.is_infinite() && b.is_infinite())
}

/// Does `result` equal the brute-force answer of `kind` at `pos` over `data`?
/// Distances within f32 epsilon, PC counts exact; ids are not compared, as
/// ties may be broken either way.
fn agrees<const D: usize>(
    data: &[PointN<D>],
    pos: &[f32],
    kind: QueryKind,
    result: &QueryResult,
) -> bool {
    let q = PointN(std::array::from_fn(|i| pos[i]));
    match (kind, result) {
        (QueryKind::Nn, QueryResult::Nn { dist2, .. }) => {
            close(*dist2, oracle::nn_dist2_nonself(data, &q))
        }
        (QueryKind::Knn { k }, QueryResult::Knn { dist2, .. }) => {
            let want = oracle::knn_dists(data, &q, k);
            want.len() == dist2.len() && want.iter().zip(dist2).all(|(a, b)| close(*a, *b))
        }
        (QueryKind::Pc { radius }, QueryResult::Pc { count }) => {
            *count == oracle::pc_count(data, &q, radius)
        }
        _ => false,
    }
}

/// Samples whose answer disagrees with the reference over a static dataset.
pub fn mismatches(data: &[Points], samples: &[&Sample]) -> u64 {
    samples
        .iter()
        .filter(|s| {
            let (q, r) = (&s.query, &s.result);
            !match &data[q.index] {
                Points::D2(p) => agrees(p, &q.pos, q.kind, r),
                Points::D3(p) => agrees(p, &q.pos, q.kind, r),
            }
        })
        .count() as u64
}

/// Samples of `churn` whose answer equals the reference at none of the
/// mutation states between their submission and their completion. State
/// `j` is the initial points with the first `j` logged batches applied.
pub fn churn_mismatches(initial: &[PointN<3>], log: &[MutationRecord], samples: &[&Sample]) -> u64 {
    // Ids are stable and never reused: a slot per id, `None` once deleted.
    let mut slots: Vec<Option<PointN<3>>> = initial.iter().copied().map(Some).collect();
    let mut passed = vec![false; samples.len()];
    for state in 0..=log.len() {
        if state > 0 {
            let rec = &log[state - 1];
            for &(id, p) in &rec.inserted {
                if slots.len() <= id as usize {
                    slots.resize(id as usize + 1, None);
                }
                slots[id as usize] = Some(p);
            }
            for &id in &rec.deleted {
                slots[id as usize] = None;
            }
        }
        let due: Vec<usize> = (0..samples.len())
            .filter(|&i| !passed[i] && (samples[i].state_lo..=samples[i].state_hi).contains(&state))
            .collect();
        if due.is_empty() {
            continue;
        }
        let live: Vec<PointN<3>> = slots.iter().flatten().copied().collect();
        for i in due {
            let s = &samples[i];
            passed[i] = agrees(&live, &s.query.pos, s.query.kind, &s.result);
        }
    }
    passed.iter().filter(|&&p| !p).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_service::Query;

    fn sample(pos: [f32; 3], kind: QueryKind, result: QueryResult, lo: usize, hi: usize) -> Sample {
        Sample {
            query: Query {
                index: 0,
                pos: pos.to_vec(),
                kind,
            },
            result,
            state_lo: lo,
            state_hi: hi,
        }
    }

    #[test]
    fn static_check_counts_wrong_answers() {
        let pts = vec![PointN([0.0, 0.0, 0.0]), PointN([1.0, 0.0, 0.0])];
        let data = [Points::D3(pts)];
        let right = sample(
            [0.25, 0.0, 0.0],
            QueryKind::Nn,
            QueryResult::Nn {
                dist2: 0.0625,
                id: 0,
            },
            0,
            0,
        );
        let wrong = sample(
            [0.25, 0.0, 0.0],
            QueryKind::Pc { radius: 0.5 },
            QueryResult::Pc { count: 2 },
            0,
            0,
        );
        assert_eq!(mismatches(&data, &[&right, &wrong]), 1);
    }

    #[test]
    fn churn_answer_may_match_any_state_in_its_window() {
        let initial = vec![PointN([0.0, 0.0, 0.0]), PointN([1.0, 0.0, 0.0])];
        let log = vec![
            MutationRecord {
                inserted: vec![(2, PointN([0.5, 0.0, 0.0]))],
                deleted: vec![],
            },
            MutationRecord {
                inserted: vec![],
                deleted: vec![0, 2],
            },
        ];
        let pc = |count, lo, hi| {
            sample(
                [0.0, 0.0, 0.0],
                QueryKind::Pc { radius: 0.6 },
                QueryResult::Pc { count },
                lo,
                hi,
            )
        };
        // Counts by state: 1, 2, 0.
        assert_eq!(churn_mismatches(&initial, &log, &[&pc(2, 0, 1)]), 0);
        assert_eq!(churn_mismatches(&initial, &log, &[&pc(0, 1, 2)]), 0);
        assert_eq!(churn_mismatches(&initial, &log, &[&pc(2, 2, 2)]), 1);
        assert_eq!(churn_mismatches(&initial, &log, &[&pc(1, 1, 2)]), 1);
    }
}
