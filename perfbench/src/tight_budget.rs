//! `tight-budget`: a `DsdServer` whose substrate budget is a third of the
//! footprint the same requests leave without a budget. Requests are
//! Zipf-skewed over 18 (graph, Ψ) pairs from the small stand-ins, so the
//! working set is larger than the cache: governor eviction, rebuilds after
//! eviction and the bytes cached networks hold carry the cost. Round-robin
//! traffic would make the LRU miss every time; skewed traffic keeps a hot
//! set.
//!
//! Every answer must equal the unbudgeted answer bit for bit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use dsd_core::{DsdRequest, DsdServer, Method, Objective, ServeConfig, Solution};
use dsd_graph::Graph;

use crate::check::{check, reference, Answer};
use crate::count::Psi;
use crate::inputs::{derive, graphs_for, read_adj, Rng};
use crate::layers::{sum_cache, Layers, SolveSamples};
use crate::metrics::mib;
use crate::trace::Tracer;
use crate::{finish, repeated_setup, timed, Args, Ledger};

const PSIS: [Psi; 3] = [Psi::Edge, Psi::Triangle, Psi::Clique4];

/// Budget as a fraction of the unbudgeted footprint.
const BUDGET_FRACTION: f64 = 1.0 / 3.0;

/// Zipf exponent of the request skew.
const ZIPF_S: f64 = 1.0;

/// Requests per round (before rounding each pair's share).
const ROUND_OPS: usize = 1920;

/// A (graph, Ψ) pair; popularity rank `i` is pair `i`: Ψ-major, so the
/// hot head spreads over every graph.
fn pair(rank: usize, graphs: usize) -> (usize, Psi) {
    (rank % graphs, PSIS[rank / graphs])
}

fn name(graph: usize) -> String {
    format!("g{graph}")
}

fn request(graph: usize, psi: Psi) -> DsdRequest {
    DsdRequest::new(&psi.pattern())
        .on(name(graph))
        .method(Method::CoreExact)
}

/// Submits one request, runs it on this thread through the pipeline
/// (`DsdServer::step`: dispatch, governor lease, solve, settle) and takes
/// the answer.
fn serve(server: &DsdServer, graph: usize, psi: Psi, tracer: &Tracer) -> Option<(Solution, f64)> {
    let t0 = Instant::now();
    let sol = tracer
        .span("serve.settle", || {
            let ticket = server.submit(request(graph, psi))?;
            server.step();
            ticket.wait()
        })
        .ok()?
        .solution()?;
    Some((sol, t0.elapsed().as_secs_f64() * 1e3))
}

fn server_with(budget: Option<u64>, graphs: &[Graph]) -> DsdServer {
    // No worker threads: the client thread steps the pipeline itself, so
    // sub-millisecond cache hits are not dominated by thread wake-ups.
    let server = DsdServer::new(ServeConfig {
        workers: 0,
        substrate_budget: budget,
        ..ServeConfig::default()
    });
    for (i, g) in graphs.iter().enumerate() {
        server.register(name(i), g.clone());
    }
    server
}

pub fn run(args: &Args) -> crate::metrics::Report {
    let paths: Vec<PathBuf> = graphs_for("tight-budget")
        .iter()
        .map(|(s, v)| args.data.join(s.file_name(*v)))
        .collect();
    let n = paths.len();
    let pairs = n * PSIS.len();
    // One round: each pair as often as its Zipf weight says (at least
    // once), in an order drawn from the seed.
    let round: Vec<(usize, Psi)> = {
        let weights: Vec<f64> = (1..=pairs).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut ops: Vec<(usize, Psi)> = weights
            .iter()
            .enumerate()
            .flat_map(|(rank, w)| {
                let copies = ((ROUND_OPS as f64 * w / total).round() as usize).max(1);
                std::iter::repeat_n(pair(rank, n), copies)
            })
            .collect();
        Rng::new(derive(args.seed, 4)).shuffle(&mut ops);
        ops
    };
    let tracer = Tracer::new(args.trace);
    let mut samples = SolveSamples::default();
    let ((server, unbudgeted, footprint), setups) = repeated_setup(args, || {
        let graphs: Vec<Graph> = paths
            .iter()
            .map(|p| {
                tracer.span("io.read", || {
                    dsd_graph::io::read_edge_list(std::io::BufReader::new(
                        std::fs::File::open(p).expect("input file"),
                    ))
                    .expect("input graph")
                })
            })
            .collect();
        // The footprint, and the answers, without a budget.
        let free = server_with(None, &graphs);
        let mut answers = BTreeMap::new();
        for rank in 0..pairs {
            let (g, psi) = pair(rank, n);
            let (sol, _) = serve(&free, g, psi, &Tracer::new(false)).expect("unbudgeted solve");
            answers.insert((g, psi), Answer::of(&sol));
        }
        let footprint = free.stats().governor.resident_bytes;
        drop(free);
        let budget = (footprint as f64 * BUDGET_FRACTION) as u64;
        let server = server_with(Some(budget), &graphs);
        // One untimed round fills the cache.
        for &(g, psi) in &round {
            let (sol, settle) = serve(&server, g, psi, &Tracer::new(false)).expect("warm-up");
            if tracer.enabled() {
                samples.add(&sol, Some(settle));
            }
        }
        (server, answers, footprint)
    });
    let mut ledger: Ledger<(usize, Psi)> = Ledger::default();
    for (k, a) in &unbudgeted {
        ledger.seed(*k, a.clone());
    }
    let engines = || (0..n).map(|i| server.engine(&name(i)).expect("registered"));
    let cache0 = sum_cache(engines().map(|e| e.cache_stats()));
    let gov0 = server.stats().governor;

    let (measured, overhead) = timed(args, &tracer, |phase, tracer| {
        for &(g, psi) in &round {
            tracer.next_op();
            let t0 = Instant::now();
            let served = tracer.span("op", || serve(&server, g, psi, tracer));
            let lat = t0.elapsed().as_secs_f64() * 1e3;
            let Some((sol, settle)) = served else {
                ledger.lost();
                continue;
            };
            phase.latencies_ms.push(lat);
            if tracer.enabled() {
                samples.add(&sol, Some(settle));
            }
            ledger.record((g, psi), Answer::of(&sol), lat);
        }
    });

    ledger.print_classes();
    let bad = verify(&paths, &unbudgeted);
    let mut layers = Layers::default();
    if args.trace {
        samples.fill(&mut layers);
        layers.set_median("io.read_ms", &tracer.durations("io.read"));
        layers.cache_ratios(&cache0, &sum_cache(engines().map(|e| e.cache_stats())));
        let substrate: u64 = engines().map(|e| e.substrate_bytes()).sum();
        let network: u64 = engines().map(|e| e.network_bytes()).sum();
        layers.set("engine.substrate_mib", mib(substrate));
        layers.set("engine.network_mib", mib(network));
        layers.set("flownet.mib", mib(network));
        layers.governor(&gov0, &server.stats().governor);
        eprintln!(
            "tight-budget: footprint {:.2} MiB, budget {:.2} MiB",
            mib(footprint),
            mib((footprint as f64 * BUDGET_FRACTION) as u64)
        );
    }
    finish(
        args,
        ledger.totals(&bad),
        &setups,
        &measured,
        layers,
        overhead,
        &tracer,
    )
}

/// Checks each pair's unbudgeted answer with the independent counter and
/// against the core-free `Exact` baseline.
fn verify(paths: &[PathBuf], answers: &BTreeMap<(usize, Psi), Answer>) -> Vec<(usize, Psi)> {
    let mut bad = Vec::new();
    for (gi, path) in paths.iter().enumerate() {
        let (adj, edges) = read_adj(path).expect("input file");
        let g = Graph::from_edges(adj.num_vertices(), &edges);
        for psi in PSIS {
            let Some(ans) = answers.get(&(gi, psi)) else {
                continue;
            };
            let verdict = reference(&adj, &g, psi, Some(&ans.vertices), None, true)
                .and_then(|r| check(&adj, psi, &Objective::Densest, ans, &r));
            if let Err(e) = verdict {
                eprintln!("tight-budget: {} {}: {e}", path.display(), psi.name());
                bad.push((gi, psi));
            }
        }
    }
    bad
}
