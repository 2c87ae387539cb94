//! Correctness checks that do not trust the program: every returned
//! vertex set is re-counted with the benchmark's own instance counter, and
//! the properties each method and objective must have are checked on it.

use dsd_core::{DsdEngine, DsdResult, FlowBackend, Guarantee, Method, Objective, Solution};
use dsd_graph::Graph;

use crate::count::{degrees_in, density_in, Adj, Psi};

/// What the benchmark keeps of one answer: enough to compare two answers
/// bit for bit and to check one.
#[derive(Clone, Debug)]
pub struct Answer {
    pub vertices: Vec<u32>,
    pub density_bits: u64,
    pub subgraphs: Vec<(Vec<u32>, u64)>,
    pub guarantee: Guarantee,
}

impl Answer {
    pub fn of(s: &Solution) -> Self {
        Answer {
            vertices: s.vertices.clone(),
            density_bits: s.density.to_bits(),
            subgraphs: s
                .subgraphs
                .iter()
                .map(|r| (r.vertices.clone(), r.density.to_bits()))
                .collect(),
            guarantee: s.guarantee,
        }
    }

    pub fn of_result(r: &DsdResult) -> Self {
        Answer {
            vertices: r.vertices.clone(),
            density_bits: r.density.to_bits(),
            subgraphs: vec![(r.vertices.clone(), r.density.to_bits())],
            guarantee: Guarantee::Exact,
        }
    }

    pub fn density(&self) -> f64 {
        f64::from_bits(self.density_bits)
    }

    /// Bit-for-bit equality of the reported sets and densities.
    pub fn same(&self, other: &Answer) -> bool {
        self.vertices == other.vertices
            && self.density_bits == other.density_bits
            && self.subgraphs == other.subgraphs
    }
}

/// The optimum and the PeelApp density of one (graph, Ψ), both re-counted
/// by the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    pub rho_star: f64,
    pub peel_rho: f64,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Computes the [`Reference`] of (g, Ψ) from the sets CoreExact and
/// PeelApp returned (solved on a fresh engine where the caller has none),
/// each re-counted. CoreExact's set must pass the optimality property.
/// With `baseline`, the optimum is the one the core-free paper baseline
/// `Exact` reaches, and CoreExact must reach it too; without, the optimum
/// is CoreExact's own.
pub fn reference(
    adj: &Adj,
    g: &Graph,
    psi: Psi,
    core: Option<&[u32]>,
    peel: Option<&[u32]>,
    baseline: bool,
) -> Result<Reference, String> {
    let pattern = psi.pattern();
    let engine = DsdEngine::over(g);
    let solve = |method| engine.request(&pattern).method(method).solve().vertices;
    let core = core.map_or_else(|| solve(Method::CoreExact), <[u32]>::to_vec);
    let peel = peel.map_or_else(|| solve(Method::PeelApp), <[u32]>::to_vec);
    let core_rho = density_in(adj, psi, &core);
    let peel_rho = density_in(adj, psi, &peel);
    check_exact_set(adj, psi, &core)?;
    if !baseline {
        return Ok(Reference {
            rho_star: core_rho,
            peel_rho,
        });
    }
    let (r, _) = dsd_core::exact(g, &pattern, FlowBackend::default());
    let rho_star = density_in(adj, psi, &r.vertices);
    if !close(rho_star, core_rho) {
        return Err(format!(
            "{}: Exact baseline {rho_star} vs CoreExact {core_rho}",
            psi.name()
        ));
    }
    Ok(Reference { rho_star, peel_rho })
}

/// Every member of an optimal set has Ψ-degree at least ρ(S) inside it:
/// otherwise dropping that member would raise the density.
fn check_exact_set(adj: &Adj, psi: Psi, set: &[u32]) -> Result<(), String> {
    let rho = density_in(adj, psi, set);
    let degrees = degrees_in(adj, psi, set);
    match degrees
        .iter()
        .zip(set)
        .find(|(&d, _)| (d as f64) < rho - 1e-9)
    {
        Some((d, v)) => Err(format!(
            "{}: member {v} has degree {d} < density {rho}",
            psi.name()
        )),
        None => Ok(()),
    }
}

/// Checks one answer to `objective` for Ψ on the graph `adj`.
pub fn check(
    adj: &Adj,
    psi: Psi,
    objective: &Objective,
    ans: &Answer,
    reference: &Reference,
) -> Result<(), String> {
    // WithQuery ignores Ψ: the variant is defined for edge density.
    let psi = if matches!(objective, Objective::WithQuery(_)) {
        Psi::Edge
    } else {
        psi
    };
    let rho = density_in(adj, psi, &ans.vertices);
    if !close(rho, ans.density()) {
        return Err(format!(
            "{}: reported density {} but the set has {rho}",
            psi.name(),
            ans.density()
        ));
    }
    for (set, bits) in &ans.subgraphs {
        let own = density_in(adj, psi, set);
        if !close(own, f64::from_bits(*bits)) {
            return Err(format!(
                "subgraph density {} vs {own}",
                f64::from_bits(*bits)
            ));
        }
    }
    let eps = 1e-9 * reference.rho_star.max(1.0);
    match objective {
        Objective::Densest => match ans.guarantee {
            Guarantee::Exact => {
                check_exact_set(adj, psi, &ans.vertices)?;
                if rho < reference.peel_rho - eps || !close(rho, reference.rho_star) {
                    return Err(format!(
                        "exact answer {rho} vs optimum {} / PeelApp {}",
                        reference.rho_star, reference.peel_rho
                    ));
                }
            }
            Guarantee::Ratio(r) => {
                if rho < reference.rho_star * r - eps || rho > reference.rho_star + eps {
                    return Err(format!(
                        "approximate answer {rho} outside [{r} x {}, optimum]",
                        reference.rho_star
                    ));
                }
            }
            other => return Err(format!("unexpected guarantee {other:?}")),
        },
        Objective::TopK(k) => {
            let mut seen = std::collections::HashSet::new();
            let mut last = f64::INFINITY;
            if ans.subgraphs.len() > *k || ans.subgraphs.is_empty() {
                return Err(format!("{} subgraphs for top-{k}", ans.subgraphs.len()));
            }
            for (set, bits) in &ans.subgraphs {
                let d = f64::from_bits(*bits);
                if d > last + eps {
                    return Err("top-k densities increase".into());
                }
                last = d;
                if !set.iter().all(|v| seen.insert(*v)) {
                    return Err("top-k subgraphs overlap".into());
                }
            }
            if !close(f64::from_bits(ans.subgraphs[0].1), reference.rho_star) {
                return Err("top-k first subgraph is not the optimum".into());
            }
        }
        Objective::AtLeastK(k) => {
            if ans.vertices.len() < *k {
                return Err(format!("{} vertices for at-least-{k}", ans.vertices.len()));
            }
        }
        Objective::AtMostK(k) => {
            if ans.vertices.len() > *k || ans.vertices.is_empty() {
                return Err(format!("{} vertices for at-most-{k}", ans.vertices.len()));
            }
        }
        Objective::WithQuery(q) => {
            if !q.iter().all(|v| ans.vertices.binary_search(v).is_ok()) {
                return Err(format!("answer misses query vertices {q:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4_tail() -> (Adj, Graph) {
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
        ];
        (
            Adj::from_edges(6, edges.iter().copied()),
            Graph::from_edges(6, &edges),
        )
    }

    #[test]
    fn program_answers_pass_and_tampered_ones_fail() {
        let (adj, g) = k4_tail();
        let r = reference(&adj, &g, Psi::Triangle, None, None, true).unwrap();
        assert_eq!(r.rho_star, 1.0);
        let engine = DsdEngine::over(&g);
        let good = engine
            .request(&Psi::Triangle.pattern())
            .method(Method::CoreExact)
            .solve();
        let ans = Answer::of(&good);
        assert!(check(&adj, Psi::Triangle, &Objective::Densest, &ans, &r).is_ok());

        let mut wrong_density = ans.clone();
        wrong_density.density_bits = 2.0f64.to_bits();
        assert!(check(&adj, Psi::Triangle, &Objective::Densest, &wrong_density, &r).is_err());

        let mut padded = ans.clone();
        padded.vertices = vec![0, 1, 2, 3, 4];
        padded.density_bits = 0.8f64.to_bits();
        assert!(check(&adj, Psi::Triangle, &Objective::Densest, &padded, &r).is_err());

        assert!(check(&adj, Psi::Triangle, &Objective::AtMostK(3), &ans, &r).is_err());
        assert!(check(&adj, Psi::Edge, &Objective::WithQuery(vec![5]), &ans, &r).is_err());
    }

    #[test]
    fn top_k_must_be_disjoint() {
        let (adj, g) = k4_tail();
        let r = reference(&adj, &g, Psi::Edge, None, None, true).unwrap();
        let engine = DsdEngine::over(&g);
        let top = engine
            .request(&Psi::Edge.pattern())
            .objective(Objective::TopK(2))
            .solve();
        let ans = Answer::of(&top);
        assert!(check(&adj, Psi::Edge, &Objective::TopK(2), &ans, &r).is_ok());
        let mut overlap = ans.clone();
        let first = overlap.subgraphs[0].clone();
        overlap.subgraphs.push(first);
        assert!(check(&adj, Psi::Edge, &Objective::TopK(3), &overlap, &r).is_err());
    }
}
