//! The benchmark's own Ψ-instance counter, written independently of the
//! program's oracles: it reads its own adjacency (parsed from the input
//! files by [`crate::inputs::read_adj`]) and counts non-induced instances
//! (distinct edge sets) of each pattern in the mixes inside a vertex set.

/// The patterns the workloads request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Psi {
    Edge,
    Triangle,
    Clique4,
    Diamond,
    TwoStar,
    /// Counted and tested, but in no timed mix: its cold substrate build
    /// takes 0.3–5 s on the stand-ins.
    #[allow(dead_code)]
    C3Star,
}

impl Psi {
    /// The program's pattern for this Ψ.
    pub fn pattern(self) -> dsd_motif::Pattern {
        use dsd_motif::Pattern;
        match self {
            Psi::Edge => Pattern::edge(),
            Psi::Triangle => Pattern::triangle(),
            Psi::Clique4 => Pattern::clique(4),
            Psi::Diamond => Pattern::diamond(),
            Psi::TwoStar => Pattern::two_star(),
            Psi::C3Star => Pattern::c3_star(),
        }
    }

    /// `|VΨ|`.
    pub fn size(self) -> usize {
        match self {
            Psi::Edge => 2,
            Psi::Triangle | Psi::TwoStar => 3,
            Psi::Clique4 | Psi::Diamond | Psi::C3Star => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Psi::Edge => "edge",
            Psi::Triangle => "triangle",
            Psi::Clique4 => "4-clique",
            Psi::Diamond => "diamond",
            Psi::TwoStar => "2-star",
            Psi::C3Star => "c3-star",
        }
    }
}

/// Sorted adjacency lists of a simple undirected graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adj {
    nbrs: Vec<Vec<u32>>,
}

impl Adj {
    /// Builds the adjacency of `n` vertices from an edge list, dropping
    /// self-loops and duplicates.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut nbrs = vec![Vec::new(); n];
        for (u, v) in edges {
            if u != v {
                nbrs[u as usize].push(v);
                nbrs[v as usize].push(u);
            }
        }
        for list in &mut nbrs {
            list.sort_unstable();
            list.dedup();
        }
        Adj { nbrs }
    }

    pub fn num_vertices(&self) -> usize {
        self.nbrs.len()
    }

    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.nbrs[v as usize]
    }

    #[cfg(test)]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.nbrs[u as usize].binary_search(&v).is_ok()
    }
}

/// The subgraph induced by `members`, relabelled `0..members.len()`.
struct Local {
    nbrs: Vec<Vec<u32>>,
}

impl Local {
    fn new(adj: &Adj, members: &[u32]) -> Self {
        let mut local = vec![u32::MAX; adj.num_vertices()];
        for (i, &v) in members.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let nbrs = members
            .iter()
            .map(|&v| {
                let mut l: Vec<u32> = adj
                    .neighbors(v)
                    .iter()
                    .map(|&w| local[w as usize])
                    .filter(|&w| w != u32::MAX)
                    .collect();
                l.sort_unstable();
                l
            })
            .collect();
        Local { nbrs }
    }

    fn deg(&self, v: usize) -> u64 {
        self.nbrs[v].len() as u64
    }

    /// Sorted common neighbours of `a` and `b`.
    fn common(&self, a: usize, b: usize) -> Vec<u32> {
        let (x, y) = (&self.nbrs[a], &self.nbrs[b]);
        let (mut i, mut j, mut out) = (0, 0, Vec::new());
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(x[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Calls `f(u, w, x)` once per triangle, `u < w < x`.
    fn triangles(&self, mut f: impl FnMut(usize, usize, usize)) {
        for u in 0..self.nbrs.len() {
            for &w in self.nbrs[u].iter().filter(|&&w| w as usize > u) {
                for x in self.common(u, w as usize) {
                    if x > w {
                        f(u, w as usize, x as usize);
                    }
                }
            }
        }
    }
}

fn choose2(x: u64) -> u64 {
    x * x.saturating_sub(1) / 2
}

/// Per-member Ψ-degree inside `g[members]`: how many instances contain
/// each member, in `members` order.
pub fn degrees_in(adj: &Adj, psi: Psi, members: &[u32]) -> Vec<u64> {
    let g = Local::new(adj, members);
    let n = members.len();
    let mut deg = vec![0u64; n];
    match psi {
        Psi::Edge => {
            for (v, d) in deg.iter_mut().enumerate() {
                *d = g.deg(v);
            }
        }
        Psi::Triangle => g.triangles(|u, w, x| {
            for v in [u, w, x] {
                deg[v] += 1;
            }
        }),
        Psi::Clique4 => g.triangles(|u, w, x| {
            let uw = g.common(u, w);
            let wx: Vec<u32> = g.common(w, x);
            for y in uw.iter().filter(|&&y| y as usize > x) {
                if wx.binary_search(y).is_ok() && g.nbrs[x].binary_search(y).is_ok() {
                    for v in [u, w, x, *y as usize] {
                        deg[v] += 1;
                    }
                }
            }
        }),
        Psi::TwoStar => {
            for (v, d) in deg.iter_mut().enumerate() {
                let leaf: u64 = g.nbrs[v].iter().map(|&u| g.deg(u as usize) - 1).sum();
                *d = choose2(g.deg(v)) + leaf;
            }
        }
        Psi::Diamond => {
            // A 4-cycle through v has one opposite corner w and two
            // common neighbours of v and w.
            let mut codeg = vec![0u64; n];
            let mut touched = Vec::new();
            for (v, d) in deg.iter_mut().enumerate() {
                for &u in &g.nbrs[v] {
                    for &w in &g.nbrs[u as usize] {
                        if w as usize != v {
                            if codeg[w as usize] == 0 {
                                touched.push(w as usize);
                            }
                            codeg[w as usize] += 1;
                        }
                    }
                }
                for &w in &touched {
                    *d += choose2(codeg[w]);
                    codeg[w] = 0;
                }
                touched.clear();
            }
        }
        Psi::C3Star => {
            // Paw: triangle {hub, a, b} plus a pendant edge at the hub.
            let mut tri = vec![0u64; n];
            g.triangles(|u, w, x| {
                for v in [u, w, x] {
                    tri[v] += 1;
                }
                // As a non-hub triangle corner: the hub is one of the
                // other two, with deg − 2 pendant choices.
                deg[u] += g.deg(w) - 2 + g.deg(x) - 2;
                deg[w] += g.deg(u) - 2 + g.deg(x) - 2;
                deg[x] += g.deg(u) - 2 + g.deg(w) - 2;
            });
            for v in 0..n {
                // As the hub.
                deg[v] += tri[v] * g.deg(v).saturating_sub(2);
                // As the pendant: triangles at a neighbour u avoiding v.
                for &u in &g.nbrs[v] {
                    let through_uv = g.common(v, u as usize).len() as u64;
                    deg[v] += tri[u as usize] - through_uv;
                }
            }
        }
    }
    deg
}

/// Number of Ψ-instances inside `g[members]`.
pub fn count_in(adj: &Adj, psi: Psi, members: &[u32]) -> u64 {
    degrees_in(adj, psi, members).iter().sum::<u64>() / psi.size() as u64
}

/// Ψ-density `μ / |S|` of `g[members]` (0 for an empty set).
pub fn density_in(adj: &Adj, psi: Psi, members: &[u32]) -> f64 {
    if members.is_empty() {
        return 0.0;
    }
    count_in(adj, psi, members) as f64 / members.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Rng;

    /// Brute force: every injective map of the pattern's vertices into
    /// `members` that keeps the pattern's edges, divided by the pattern's
    /// automorphisms, credited to each image vertex.
    fn brute(adj: &Adj, psi: Psi, members: &[u32]) -> Vec<u64> {
        let pat = psi.pattern();
        let k = pat.vertex_count();
        let edges: Vec<(usize, usize)> = pat
            .edges()
            .iter()
            .map(|&(a, b)| (a as usize, b as usize))
            .collect();
        let perms = permutations(k);
        let auts = perms
            .iter()
            .filter(|p| {
                edges.iter().all(|&(a, b)| {
                    let (x, y) = (p[a], p[b]);
                    edges.contains(&(x.min(y), x.max(y)))
                })
            })
            .count() as u64;
        let mut deg = vec![0u64; members.len()];
        let mut map = vec![0usize; k];
        fn rec(
            i: usize,
            map: &mut Vec<usize>,
            members: &[u32],
            adj: &Adj,
            edges: &[(usize, usize)],
            deg: &mut [u64],
        ) {
            if i == map.len() {
                if edges
                    .iter()
                    .all(|&(a, b)| adj.has_edge(members[map[a]], members[map[b]]))
                {
                    for &m in map.iter() {
                        deg[m] += 1;
                    }
                }
                return;
            }
            for c in 0..members.len() {
                if !map[..i].contains(&c) {
                    map[i] = c;
                    rec(i + 1, map, members, adj, edges, deg);
                }
            }
        }
        rec(0, &mut map, members, adj, &edges, &mut deg);
        deg.iter().map(|d| d / auts).collect()
    }

    fn permutations(k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for p in permutations(k - 1) {
            for pos in 0..=p.len() {
                let mut q = p.clone();
                q.insert(pos, k - 1);
                out.push(q);
            }
        }
        out
    }

    fn random_graph(seed: u64, n: usize, p: f64) -> Adj {
        let mut rng = Rng::new(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if rng.unit() < p {
                    edges.push((u, v));
                }
            }
        }
        Adj::from_edges(n, edges)
    }

    #[test]
    fn counter_matches_brute_force_for_every_pattern() {
        let all = [
            Psi::Edge,
            Psi::Triangle,
            Psi::Clique4,
            Psi::Diamond,
            Psi::TwoStar,
            Psi::C3Star,
        ];
        for seed in 0..6u64 {
            let adj = random_graph(seed, 9, 0.3 + 0.08 * seed as f64);
            let mut rng = Rng::new(seed + 100);
            // The whole graph and a random subset.
            let whole: Vec<u32> = (0..9).collect();
            let part: Vec<u32> = (0..9).filter(|_| rng.unit() < 0.7).collect();
            for members in [whole, part] {
                for psi in all {
                    assert_eq!(
                        degrees_in(&adj, psi, &members),
                        brute(&adj, psi, &members),
                        "{psi:?} seed {seed} members {members:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_forms_on_a_clique() {
        let k6 = Adj::from_edges(6, (0..6u32).flat_map(|u| (u + 1..6).map(move |v| (u, v))));
        let all: Vec<u32> = (0..6).collect();
        assert_eq!(count_in(&k6, Psi::Edge, &all), 15);
        assert_eq!(count_in(&k6, Psi::Triangle, &all), 20);
        assert_eq!(count_in(&k6, Psi::Clique4, &all), 15);
        // 3 four-cycles per 4-set, 6·C(5,2) wedges.
        assert_eq!(count_in(&k6, Psi::Diamond, &all), 45);
        assert_eq!(count_in(&k6, Psi::TwoStar, &all), 60);
        // Each triangle, a hub, and 3 outside pendants.
        assert_eq!(count_in(&k6, Psi::C3Star, &all), 20 * 3 * 3);
        assert_eq!(density_in(&k6, Psi::Edge, &all), 2.5);
        assert_eq!(density_in(&k6, Psi::Edge, &[]), 0.0);
    }
}
