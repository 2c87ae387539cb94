//! Seeded input generation: the stand-in graphs written as edge-list
//! files, the fixed malformed files, and the random streams the op
//! sequences are drawn from. The same seed gives byte-identical files and
//! the same op sequences.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use dsd_datasets::{chung_lu, rmat};
use dsd_graph::Graph;

use crate::count::Adj;

/// SplitMix64: a small, fully specified generator, so op sequences do not
/// depend on any library's stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[cfg(test)]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent seed for stream `tag` of run seed `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// A stand-in graph: one of the registry's evaluation datasets, generated
/// with its published size and power law but a seed taken from the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandIn {
    /// Chung–Lu with a planted 24-clique, 9,877 vertices, ~26k edges.
    CaHepTh,
    /// Chung–Lu with a planted 24-clique, 26,475 vertices, ~107k edges.
    AsCaida,
    /// R-MAT, scale 14, 120,000 edge draws.
    Rmat,
    /// Chung–Lu with a planted 10-clique, 1,116 vertices.
    Yeast,
    /// Chung–Lu with a planted 20-clique, 1,589 vertices.
    Netscience,
    /// Chung–Lu with a planted 24-clique, 1,486 vertices.
    As733,
}

impl StandIn {
    pub fn name(self) -> &'static str {
        match self {
            StandIn::CaHepTh => "ca-hepth",
            StandIn::AsCaida => "as-caida",
            StandIn::Rmat => "rmat",
            StandIn::Yeast => "yeast",
            StandIn::Netscience => "netscience",
            StandIn::As733 => "as-733",
        }
    }

    /// Generates the graph for `seed` (variant `v` draws a second,
    /// independent graph of the same family).
    pub fn generate(self, seed: u64, v: u64) -> Graph {
        let s = derive(seed, self as u64 * 16 + v);
        match self {
            StandIn::CaHepTh => chung_lu::chung_lu_with_clique(9877, 25998, 2.6472, 24, s),
            StandIn::AsCaida => chung_lu::chung_lu_with_clique(26475, 106_762, 2.7898, 24, s),
            StandIn::Rmat => rmat::rmat(14, 120_000, rmat::RmatParams::default(), s),
            StandIn::Yeast => chung_lu::chung_lu_with_clique(1116, 2148, 2.9769, 10, s),
            StandIn::Netscience => chung_lu::chung_lu_with_clique(1589, 2742, 2.4053, 20, s),
            StandIn::As733 => chung_lu::chung_lu_with_clique(1486, 3172, 2.7204, 24, s),
        }
    }

    pub fn file_name(self, v: u64) -> String {
        format!("{}-{v}.txt", self.name())
    }
}

/// The malformed edge-list files every cold-file round loads. They do not
/// depend on the seed. Each should be refused with a typed parse error.
pub const MALFORMED: &[(&str, &str)] = &[
    // Panics in `GraphBuilder::add_edge`: the edge is beyond the `# n`
    // header's vertex count.
    ("header-short.txt", "# n 2\n5 7\n"),
    // Panics in `GraphBuilder::new`: max id + 1 does not fit a u32.
    ("id-max.txt", "0 1\n4294967295 2\n"),
    // Refused with `ParseError::Malformed` today.
    ("not-a-number.txt", "0 1\n1 x\n"),
    ("one-token.txt", "0 1\n2\n"),
];

/// Writes `g` as an edge list (`# n` header, one `u v` line per edge).
pub fn write_graph(g: &Graph, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    writeln!(w, "# n {}", g.num_vertices())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// The benchmark's own reader for the files it wrote: vertex count from
/// the `# n` header, then one edge per line.
pub fn read_adj(path: &Path) -> std::io::Result<(Adj, Vec<(u32, u32)>)> {
    let text = fs::read_to_string(path)?;
    let mut n = 0usize;
    let mut edges = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# n ") {
            n = rest.trim().parse().expect("header written by write_graph");
            continue;
        }
        let mut it = line
            .split(' ')
            .map(|t| t.parse::<u32>().expect("edge line"));
        edges.push((it.next().expect("u"), it.next().expect("v")));
    }
    Ok((Adj::from_edges(n, edges.iter().copied()), edges))
}

/// The input set of one workload: `(stand-in, variant)` pairs.
pub fn graphs_for(workload: &str) -> Vec<(StandIn, u64)> {
    use StandIn::*;
    match workload {
        "cold-file" => vec![(CaHepTh, 0), (AsCaida, 0), (Rmat, 0)],
        "warm-serve" => vec![(CaHepTh, 0), (Rmat, 0)],
        "update-churn" => vec![(CaHepTh, 0)],
        "tight-budget" => [Yeast, Netscience, As733]
            .into_iter()
            .flat_map(|s| [(s, 0), (s, 1)])
            .collect(),
        _ => Vec::new(),
    }
}

/// Generates every input file of `workload` for `seed` into `dir`,
/// overwriting what an earlier run left there, so the files follow only
/// the seed and the generators of the checked-out code.
pub fn generate(workload: &str, seed: u64, dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for (standin, v) in graphs_for(workload) {
        write_graph(&standin.generate(seed, v), &dir.join(standin.file_name(v)))?;
    }
    if workload == "cold-file" {
        for (name, text) in MALFORMED {
            fs::write(dir.join(name), text)?;
        }
    }
    Ok(())
}

/// The input directory of one (workload, seed).
pub fn input_dir(root: &Path, workload: &str, seed: u64) -> PathBuf {
    root.join(format!("{workload}-seed{seed}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn same_seed_gives_byte_identical_files() {
        let (a, b, c) = (test_dir("a"), test_dir("b"), test_dir("c"));
        generate("tight-budget", 7, &a).unwrap();
        generate("tight-budget", 7, &b).unwrap();
        generate("tight-budget", 8, &c).unwrap();
        let mut differs = false;
        for (s, v) in graphs_for("tight-budget") {
            let name = s.file_name(v);
            let fa = fs::read(a.join(&name)).unwrap();
            assert_eq!(fa, fs::read(b.join(&name)).unwrap(), "{name}");
            differs |= fa != fs::read(c.join(&name)).unwrap();
        }
        assert!(differs, "another seed draws other graphs");
        for d in [a, b, c] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn own_reader_round_trips_the_written_graph() {
        let dir = test_dir("rt");
        fs::create_dir_all(&dir).unwrap();
        let g = StandIn::Yeast.generate(3, 0);
        let path = dir.join("g.txt");
        write_graph(&g, &path).unwrap();
        let (adj, edges) = read_adj(&path).unwrap();
        assert_eq!(adj.num_vertices(), g.num_vertices());
        assert_eq!(edges.len(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(adj.has_edge(u, v) && adj.has_edge(v, u));
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn streams_repeat_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let mut v: Vec<usize> = (0..50).map(|_| r.below(10)).collect();
            r.shuffle(&mut v);
            v
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&Rng::new(9).unit())));
    }
}
