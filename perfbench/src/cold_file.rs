//! `cold-file`: each op reads one graph's edge list from disk, registers
//! it with a `DsdServer`, submits one Densest request, settles it and
//! evicts the graph. Every layer from disk to witness runs cold; caches,
//! the governor's eviction and `apply` do nothing.
//!
//! Each round also loads the fixed malformed files under `catch_unwind`.
//! Those loads count as attempted ops, failed unless the loader refuses
//! the file with a typed error, and are left out of every timing.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use dsd_core::flownet::{build_edge_network, build_pattern_network, build_store_network};
use dsd_core::{
    core_exact_from, decompose, density_bounds, k_core_decomposition, oracle_with_budget,
    peel_app_from, CoreExactConfig, DsdRequest, DsdServer, EngineCacheStats, Method, Parallelism,
    ServeConfig, Solution, DEFAULT_STORE_BUDGET,
};
use dsd_graph::io::{read_edge_list, ParseError};
use dsd_graph::Graph;

use crate::check::{check, reference, Answer};
use crate::count::Psi;
use crate::inputs::{derive, graphs_for, read_adj, Rng, MALFORMED};
use crate::layers::{sum_cache, Layers, SolveSamples};
use crate::metrics::mib;
use crate::trace::Tracer;
use crate::{finish, repeated_setup, timed, Args, Ledger};

/// One request class: (graph index, Ψ, method).
type Class = (usize, Psi, MethodKey);

/// `Method` as an ordered key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum MethodKey {
    CoreExact,
    PeelApp,
}

impl MethodKey {
    fn method(self) -> Method {
        match self {
            MethodKey::CoreExact => Method::CoreExact,
            MethodKey::PeelApp => Method::PeelApp,
        }
    }
}

/// Graph indices into [`graphs_for`]`("cold-file")`.
const CA: usize = 0;
const CAIDA: usize = 1;
const RMAT: usize = 2;

/// One round: (class, copies). On the Chung–Lu stand-ins the CDS is the
/// planted 24-clique and the α-search ends after one probe; on R-MAT the
/// triangle and 4-clique searches run 10–19 probes. The weights put the
/// median inside the 30–45 ms block (As-Caida and R-MAT ops) and p90
/// inside the block of Ca-HepTh diamond CoreExact ops, away from any
/// jump between cost classes.
const ROUND: &[(Class, usize)] = {
    use MethodKey::*;
    use Psi::*;
    &[
        ((CA, Edge, CoreExact), 1),
        ((CA, Edge, PeelApp), 1),
        ((CA, Triangle, CoreExact), 1),
        ((CA, Triangle, PeelApp), 1),
        ((CA, Clique4, CoreExact), 1),
        ((CA, Clique4, PeelApp), 1),
        ((CA, Diamond, PeelApp), 1),
        ((CA, Diamond, CoreExact), 4),
        ((CAIDA, Edge, CoreExact), 1),
        ((CAIDA, Edge, PeelApp), 1),
        ((CAIDA, Triangle, CoreExact), 1),
        ((CAIDA, Triangle, PeelApp), 1),
        ((CAIDA, Clique4, CoreExact), 1),
        ((CAIDA, Clique4, PeelApp), 1),
        ((CAIDA, Diamond, PeelApp), 1),
        ((RMAT, Edge, PeelApp), 1),
        ((RMAT, Triangle, PeelApp), 1),
        ((RMAT, Triangle, CoreExact), 1),
        ((RMAT, Clique4, CoreExact), 1),
    ]
};

thread_local! {
    /// Set while a malformed file loads, to keep expected panics quiet.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

fn read_graph(path: &Path) -> Result<Graph, ParseError> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Loads one malformed file; `true` when the loader refused it with a
/// typed `Malformed` error (no panic, no graph).
fn malformed_load(path: &Path) -> bool {
    QUIET.with(|q| q.set(true));
    let res = std::panic::catch_unwind(|| read_graph(path));
    QUIET.with(|q| q.set(false));
    matches!(res, Ok(Err(ParseError::Malformed { .. })))
}

/// Per-op numbers a traced run keeps beyond the solve stats.
#[derive(Default)]
struct Samples {
    solves: SolveSamples,
    core_vertices: Vec<f64>,
    net_nodes: Vec<f64>,
    net_mib: Vec<f64>,
    substrate_mib: Vec<f64>,
    network_mib: Vec<f64>,
    cache: EngineCacheStats,
}

/// Replays one op layer by layer through the public functions and
/// returns the answer.
fn replay(path: &Path, class: &Class, tracer: &Tracer, s: &mut Samples) -> Option<Answer> {
    let (_, psi, method) = *class;
    let pattern = psi.pattern();
    let g = tracer.span("replay.io.read", || read_graph(path)).ok()?;
    tracer.span("replay.kcore", || k_core_decomposition(&g));
    let oracle = oracle_with_budget(&pattern, Parallelism::serial(), Some(DEFAULT_STORE_BUDGET));
    let dec = tracer.span("replay.decomp", || decompose(&g, oracle.as_ref()));
    let bounds = tracer.span("replay.locate", || {
        density_bounds(&dec, pattern.vertex_count(), true)
    });
    let members = dec.core_set(bounds.locate_k).to_vec();
    s.core_vertices.push(members.len() as f64);
    let result = match method {
        MethodKey::PeelApp => peel_app_from(&dec),
        MethodKey::CoreExact => {
            let net = tracer.span("replay.flownet.build", || match (psi, oracle.store(&g)) {
                (Psi::Edge, _) => build_edge_network(&g, &members),
                (_, Some(store)) => build_store_network(&g, &members, store),
                _ => build_pattern_network(&g, &members, &pattern, true),
            });
            s.net_nodes.push(net.num_nodes() as f64);
            s.net_mib.push(mib(net.bytes() as u64));
            let config = CoreExactConfig::default();
            tracer
                .span("replay.alpha", || {
                    core_exact_from(&g, &pattern, config, oracle.as_ref(), &dec)
                })
                .0
        }
    };
    Some(Answer::of_result(&result))
}

struct Setup {
    server: DsdServer,
    paths: Vec<std::path::PathBuf>,
}

pub fn run(args: &Args) -> crate::metrics::Report {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !QUIET.with(Cell::get) {
            default_hook(info);
        }
    }));
    let graphs = graphs_for("cold-file");
    // Set-up: start the server and run one untimed PeelApp edge op per
    // graph, so the page cache and the allocator are warm for every timed
    // op alike.
    let (setup, setups) = repeated_setup(args, || {
        let paths: Vec<_> = graphs
            .iter()
            .map(|(s, v)| args.data.join(s.file_name(*v)))
            .collect();
        let server = DsdServer::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let off = Tracer::new(false);
        for (gi, path) in paths.iter().enumerate() {
            let class = (gi, Psi::Edge, MethodKey::PeelApp);
            serve_op(&server, path, &class, &off, &mut Samples::default()).expect("warm-up op");
        }
        Setup { server, paths }
    });
    let server = &setup.server;
    let mut rng = Rng::new(derive(args.seed, 1));
    let tracer = Tracer::new(args.trace);
    let mut ledger: Ledger<Class> = Ledger::default();
    let mut samples = Samples::default();
    let gov0 = server.stats().governor;

    let (measured, overhead) = timed(args, &tracer, |phase, tracer| {
        // Ok(class) is a graph op, Err(i) a load of malformed file i.
        let mut ops: Vec<Result<Class, usize>> = ROUND
            .iter()
            .flat_map(|(c, n)| std::iter::repeat_n(Ok(*c), *n))
            .chain((0..MALFORMED.len()).map(Err))
            .collect();
        rng.shuffle(&mut ops);
        for op in ops {
            let class = match op {
                Ok(class) => class,
                Err(i) => {
                    let path = args.data.join(MALFORMED[i].0);
                    let ok = phase.excluded(|| malformed_load(&path));
                    ledger.extra(!ok);
                    continue;
                }
            };
            tracer.next_op();
            let path = &setup.paths[class.0];
            let t0 = Instant::now();
            let served = tracer.span("op", || {
                serve_op(server, path, &class, tracer, &mut samples)
            });
            let lat = t0.elapsed().as_secs_f64() * 1e3;
            let Some((sol, _)) = served else {
                ledger.lost();
                continue;
            };
            phase.latencies_ms.push(lat);
            let ans = Answer::of(&sol);
            if tracer.enabled() {
                match replay(path, &class, tracer, &mut samples) {
                    Some(r) if r.vertices == ans.vertices && r.density_bits == ans.density_bits => {
                        ledger.record(class, ans, lat)
                    }
                    _ => ledger.lost(),
                }
            } else {
                ledger.record(class, ans, lat);
            }
        }
    });

    ledger.print_classes();
    let bad = verify(args, &ledger);
    let mut layers = Layers::default();
    if args.trace {
        let s = &samples;
        s.solves.fill(&mut layers);
        let mut reads = tracer.durations("io.read");
        reads.extend(tracer.durations("replay.io.read"));
        layers.set_median("io.read_ms", &reads);
        layers.set_median("kcore.ms", &tracer.self_times("replay.kcore"));
        layers.set_median("locate.core_vertices", &s.core_vertices);
        layers.set_median(
            "flownet.build_ms",
            &tracer.self_times("replay.flownet.build"),
        );
        layers.set_median("flownet.nodes", &s.net_nodes);
        layers.set_median("flownet.mib", &s.net_mib);
        layers.set_median("alpha.ms", &tracer.self_times("replay.alpha"));
        // Every op's engine is fresh, so its counters are its own.
        layers.cache_ratios(&EngineCacheStats::default(), &s.cache);
        layers.set_median("engine.substrate_mib", &s.substrate_mib);
        layers.set_median("engine.network_mib", &s.network_mib);
        layers.governor(&gov0, &server.stats().governor);
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

/// One served op: read, register, submit and settle, evict. Returns the
/// solution and the settle time in ms. A traced op also keeps the fresh
/// engine's cache counters and resident bytes, read before the evict.
fn serve_op(
    server: &DsdServer,
    path: &Path,
    class: &Class,
    tracer: &Tracer,
    samples: &mut Samples,
) -> Option<(Solution, f64)> {
    let (_, psi, method) = *class;
    let g = tracer.span("io.read", || read_graph(path)).ok()?;
    tracer.span("serve.register", || server.register("op", g));
    let req = DsdRequest::new(&psi.pattern())
        .on("op")
        .method(method.method());
    let t_sub = Instant::now();
    let sol = tracer
        .span("serve.settle", || {
            let ticket = server.submit(req)?;
            server.step();
            ticket.wait()
        })
        .ok()?
        .solution()?;
    let settle_ms = t_sub.elapsed().as_secs_f64() * 1e3;
    if tracer.enabled() {
        let engine = server.engine("op")?;
        samples.cache = sum_cache([samples.cache, engine.cache_stats()]);
        samples.substrate_mib.push(mib(engine.substrate_bytes()));
        samples.network_mib.push(mib(engine.network_bytes()));
        samples.solves.add(&sol, Some(settle_ms));
    }
    tracer.span("serve.evict", || server.evict("op"));
    Some((sol, settle_ms))
}

/// Checks each class's answer once; returns the classes that failed.
fn verify(args: &Args, ledger: &Ledger<Class>) -> Vec<Class> {
    let graphs = graphs_for("cold-file");
    let answers: BTreeMap<Class, &Answer> = ledger.classes().map(|(k, a)| (*k, a)).collect();
    let mut bad = Vec::new();
    for (gi, (standin, v)) in graphs.iter().enumerate() {
        let path = args.data.join(standin.file_name(*v));
        let (adj, _) = read_adj(&path).expect("input file");
        let g = read_graph(&path).expect("input graph");
        let psis: std::collections::BTreeSet<Psi> =
            answers.keys().filter(|c| c.0 == gi).map(|c| c.1).collect();
        for psi in psis {
            let get = |m| answers.get(&(gi, psi, m)).map(|a| a.vertices.as_slice());
            let baseline = answers.contains_key(&(gi, psi, MethodKey::CoreExact));
            let r = reference(
                &adj,
                &g,
                psi,
                get(MethodKey::CoreExact),
                get(MethodKey::PeelApp),
                baseline,
            );
            for m in [MethodKey::CoreExact, MethodKey::PeelApp] {
                let class = (gi, psi, m);
                let Some(ans) = answers.get(&class) else {
                    continue;
                };
                let verdict = r
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|r| check(&adj, psi, &dsd_core::Objective::Densest, ans, r));
                if let Err(e) = verdict {
                    eprintln!("cold-file: {} {} {m:?}: {e}", standin.name(), psi.name());
                    bad.push(class);
                }
            }
        }
    }
    bad
}
