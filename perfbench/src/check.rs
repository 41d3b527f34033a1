//! Output checks shared by every workload.

use distributed_louvain::graph::{modularity, Csr, VertexId};

/// Largest allowed gap between a reported modularity and the one the
/// benchmark recomputes from the returned assignment.
pub const Q_TOLERANCE: f64 = 1e-9;

/// Problems with an assignment the program returned for `g`, given the
/// modularity it reported: it must be dense (ids `0..k`, every id used),
/// cover all `n` vertices, and reproduce the reported Q.
pub fn assignment_problems(g: &Csr, assignment: &[VertexId], reported_q: f64) -> Vec<String> {
    let n = g.num_vertices();
    if assignment.len() != n {
        return vec![format!(
            "assignment has {} entries for {n} vertices",
            assignment.len()
        )];
    }
    let mut problems = Vec::new();
    let k = assignment.iter().max().map_or(0, |&m| m as usize + 1);
    if k > n {
        problems.push(format!("community id {} out of range 0..{n}", k - 1));
    } else {
        let mut used = vec![false; k];
        for &c in assignment {
            used[c as usize] = true;
        }
        let gaps = used.iter().filter(|u| !**u).count();
        if gaps > 0 {
            problems.push(format!("assignment is not dense: {gaps} of 0..{k} unused"));
        }
    }
    let q = modularity(g, assignment);
    if (q - reported_q).abs() > Q_TOLERANCE {
        problems.push(format!(
            "reported Q {reported_q} but the assignment gives {q}"
        ));
    }
    problems
}

/// A problem if `q` differs in any bit from the first Q seen.
pub fn same_q(first: &mut Option<f64>, q: f64) -> Option<String> {
    match *first {
        None => {
            *first = Some(q);
            None
        }
        Some(f) if f.to_bits() == q.to_bits() => None,
        Some(f) => Some(format!("Q {q} differs from the first repetition's {f}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distributed_louvain::graph::EdgeList;

    fn two_triangles() -> Csr {
        let mut el = EdgeList::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            el.push(u, v, 1.0);
        }
        Csr::from_edge_list(el)
    }

    #[test]
    fn accepts_a_dense_assignment_with_its_true_modularity() {
        let g = two_triangles();
        let a = [0, 0, 0, 1, 1, 1];
        assert!(assignment_problems(&g, &a, modularity(&g, &a)).is_empty());
    }

    #[test]
    fn flags_wrong_length_gaps_and_wrong_q() {
        let g = two_triangles();
        assert_eq!(assignment_problems(&g, &[0, 0, 0], 0.0).len(), 1);
        let gappy = [0, 0, 0, 2, 2, 2];
        let p = assignment_problems(&g, &gappy, modularity(&g, &gappy));
        assert!(p[0].contains("not dense"), "{p:?}");
        let a = [0, 0, 0, 1, 1, 1];
        let p = assignment_problems(&g, &a, modularity(&g, &a) + 1e-6);
        assert!(p[0].contains("reported Q"), "{p:?}");
    }

    #[test]
    fn same_q_compares_bits() {
        let mut first = None;
        assert!(same_q(&mut first, 0.25).is_none());
        assert!(same_q(&mut first, 0.25).is_none());
        assert!(same_q(&mut first, 0.25 + f64::EPSILON).is_some());
    }
}
