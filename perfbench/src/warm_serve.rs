//! `warm-serve`: graphs are loaded and every request is answered once
//! during set-up; then a closed loop with one client sends mixed
//! objectives through a `DsdServer` with no byte budget. The time goes to
//! engine-cache lookups, α-search on cached networks, top-k residual
//! rounds, per-request query networks and the serve queue; loading,
//! enumeration and `apply` do nothing.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dsd_core::{DsdRequest, DsdServer, Method, Objective, ServeConfig, Solution};
use dsd_graph::Graph;

use crate::check::{check, reference, Answer};
use crate::count::Psi;
use crate::inputs::{derive, graphs_for, read_adj, Rng};
use crate::layers::{sum_cache, Layers, SolveSamples};
use crate::metrics::{median, mib};
use crate::trace::Tracer;
use crate::{finish, repeated_setup, timed, Args, Ledger};

#[derive(Clone, Copy, Debug)]
enum Obj {
    Densest(Method),
    TopK(usize),
    AtLeastK(usize),
    AtMostK(usize),
    Query(&'static [u32]),
}

impl Obj {
    fn objective(self) -> Objective {
        match self {
            Obj::Densest(_) => Objective::Densest,
            Obj::TopK(k) => Objective::TopK(k),
            Obj::AtLeastK(k) => Objective::AtLeastK(k),
            Obj::AtMostK(k) => Objective::AtMostK(k),
            Obj::Query(q) => Objective::WithQuery(q.to_vec()),
        }
    }
}

/// Graph indices into [`graphs_for`]`("warm-serve")`.
const CA: usize = 0;
const RMAT: usize = 1;

/// One round: ((graph, Ψ, objective), copies), grouped by warm cost on
/// this machine: 32 ops under 1 ms; 28 at 1.2–1.8 ms, where the median
/// falls; 18 at 2–8 ms; 8 top-3 triangle scans on Ca-HepTh at 13–14 ms,
/// where p90 falls; and 6 ops at 20–120 ms whose cost moves most with the
/// seed (R-MAT α-search, query networks, the diamond top-k scan), kept
/// above p90 and few, so they move the means little.
const ROUND: &[((usize, Psi, Obj), usize)] = {
    use Method::*;
    use Obj::*;
    use Psi::*;
    &[
        ((CA, Edge, Densest(PeelApp)), 2),
        ((CA, Triangle, Densest(PeelApp)), 2),
        ((CA, Clique4, Densest(PeelApp)), 2),
        ((CA, Diamond, Densest(PeelApp)), 2),
        ((RMAT, Edge, Densest(PeelApp)), 2),
        ((RMAT, Triangle, Densest(PeelApp)), 2),
        ((RMAT, Clique4, Densest(PeelApp)), 2),
        ((CA, Triangle, Densest(CoreExact)), 2),
        ((CA, Clique4, Densest(CoreExact)), 2),
        ((CA, Diamond, Densest(CoreExact)), 2),
        ((CA, Triangle, Densest(Auto)), 2),
        ((CA, Clique4, Densest(Auto)), 2),
        ((RMAT, Clique4, Densest(CoreExact)), 2),
        ((CA, Triangle, AtLeastK(30)), 1),
        ((CA, Clique4, AtLeastK(30)), 1),
        ((RMAT, Clique4, AtLeastK(30)), 1),
        ((CA, TwoStar, AtMostK(10)), 1),
        ((CA, Diamond, AtMostK(10)), 1),
        ((RMAT, Clique4, AtMostK(10)), 1),
        ((CA, Edge, Query(&[0])), 8),
        ((CA, Edge, Query(&[1, 2, 3])), 8),
        ((CA, Triangle, AtMostK(10)), 4),
        ((CA, Edge, Densest(CoreExact)), 5),
        ((CA, Edge, Densest(Auto)), 3),
        ((CA, Edge, AtLeastK(30)), 4),
        ((CA, Edge, AtMostK(10)), 4),
        ((CA, Clique4, AtMostK(10)), 5),
        ((CA, Clique4, TopK(3)), 5),
        ((CA, Triangle, TopK(3)), 8),
        ((CA, Diamond, AtLeastK(30)), 1),
        ((RMAT, Triangle, Densest(CoreExact)), 1),
        ((RMAT, Clique4, TopK(3)), 1),
        ((CA, TwoStar, AtLeastK(30)), 1),
        ((CA, Edge, Query(&[5, 100])), 1),
        ((CA, Diamond, TopK(3)), 1),
    ]
};

const NAMES: [&str; 2] = ["ca-hepth", "rmat"];

fn request(class: usize) -> DsdRequest {
    let ((graph, psi, obj), _) = ROUND[class];
    let req = DsdRequest::new(&psi.pattern())
        .on(NAMES[graph])
        .objective(obj.objective());
    match obj {
        Obj::Densest(m) => req.method(m),
        _ => req,
    }
}

/// Submits one request, runs it on this thread through the pipeline
/// (`DsdServer::step`) and takes the answer: the solution and its settle
/// time.
fn serve(server: &DsdServer, class: usize, tracer: &Tracer) -> Option<(Solution, f64)> {
    let t0 = Instant::now();
    let sol = tracer
        .span("serve.settle", || {
            let ticket = server.submit(request(class))?;
            server.step();
            ticket.wait()
        })
        .ok()?
        .solution()?;
    Some((sol, t0.elapsed().as_secs_f64() * 1e3))
}

fn read(path: &Path, tracer: &Tracer) -> Graph {
    tracer.span("io.read", || {
        dsd_graph::io::read_edge_list(std::io::BufReader::new(
            std::fs::File::open(path).expect("input file"),
        ))
        .expect("input graph")
    })
}

pub fn run(args: &Args) -> crate::metrics::Report {
    let graphs = graphs_for("warm-serve");
    let tracer = Tracer::new(args.trace);
    let mut ledger: Ledger<usize> = Ledger::default();
    let mut samples = SolveSamples::default();
    let ((server, warm_answers), setups) = repeated_setup(args, || {
        let server = DsdServer::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        for (i, (s, v)) in graphs.iter().enumerate() {
            server.register(NAMES[i], read(&args.data.join(s.file_name(*v)), &tracer));
        }
        // Warm every request once; these are the answers every timed
        // repeat must equal.
        let mut answers = Vec::new();
        for class in 0..ROUND.len() {
            let (sol, settle) = serve(&server, class, &Tracer::new(false)).expect("warm-up");
            if tracer.enabled() {
                samples.add(&sol, Some(settle));
            }
            answers.push(Answer::of(&sol));
        }
        (server, answers)
    });
    for (class, ans) in warm_answers.into_iter().enumerate() {
        ledger.seed(class, ans);
    }
    let engines = || NAMES.map(|n| server.engine(n).expect("registered"));
    let cache0 = sum_cache(engines().map(|e| e.cache_stats()));
    let gov0 = server.stats().governor;
    let mut rng = Rng::new(derive(args.seed, 2));
    let mut topk: BTreeMap<(usize, Psi), Vec<f64>> = BTreeMap::new();
    let mut densest: BTreeMap<(usize, Psi), Vec<f64>> = BTreeMap::new();

    let (measured, overhead) = timed(args, &tracer, |phase, tracer| {
        let mut ops: Vec<usize> = ROUND
            .iter()
            .enumerate()
            .flat_map(|(i, (_, n))| std::iter::repeat_n(i, *n))
            .collect();
        rng.shuffle(&mut ops);
        for class in ops {
            tracer.next_op();
            let t0 = Instant::now();
            let served = tracer.span("op", || serve(&server, class, tracer));
            let lat = t0.elapsed().as_secs_f64() * 1e3;
            let Some((sol, settle)) = served else {
                ledger.lost();
                continue;
            };
            phase.latencies_ms.push(lat);
            if tracer.enabled() {
                samples.add(&sol, Some(settle));
                let ((g, psi, obj), _) = ROUND[class];
                let total = crate::metrics::ms(sol.stats.total_nanos);
                match obj {
                    Obj::TopK(_) => topk.entry((g, psi)).or_default().push(total),
                    Obj::Densest(Method::CoreExact) => {
                        densest.entry((g, psi)).or_default().push(total)
                    }
                    _ => {}
                }
            }
            ledger.record(class, Answer::of(&sol), lat);
        }
    });

    ledger.print_classes();
    let bad = verify(args, &ledger);
    let mut layers = Layers::default();
    if args.trace {
        samples.fill(&mut layers);
        layers.set_median("io.read_ms", &tracer.durations("io.read"));
        // Top-k residual rounds: a top-k scan's time beyond the densest
        // search on the same (graph, Ψ).
        let residual: Vec<f64> = topk
            .iter()
            .filter_map(|(k, t)| Some(median(t) - median(densest.get(k)?)))
            .collect();
        layers.set_median("topk.residual_ms", &residual);
        let es = engines();
        layers.cache_ratios(&cache0, &sum_cache(es.iter().map(|e| e.cache_stats())));
        let substrate: u64 = es.iter().map(|e| e.substrate_bytes()).sum();
        let network: u64 = es.iter().map(|e| e.network_bytes()).sum();
        layers.set("engine.substrate_mib", mib(substrate));
        layers.set("engine.network_mib", mib(network));
        layers.set("flownet.mib", mib(network));
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

/// Checks each request's warm answer; returns the classes that failed.
fn verify(args: &Args, ledger: &Ledger<usize>) -> Vec<usize> {
    let graphs = graphs_for("warm-serve");
    let answers: BTreeMap<usize, &Answer> = ledger.classes().map(|(k, a)| (*k, a)).collect();
    let mut bad = Vec::new();
    for (gi, (standin, v)) in graphs.iter().enumerate() {
        let path = args.data.join(standin.file_name(*v));
        let (adj, _) = read_adj(&path).expect("input file");
        let g = read(&path, &Tracer::new(false));
        let mut refs = BTreeMap::new();
        for (class, ans) in &answers {
            let ((graph, psi, obj), _) = ROUND[*class];
            if graph != gi {
                continue;
            }
            let find = |m| {
                ROUND.iter().position(|((g2, p2, o), _)| {
                    *g2 == gi && *p2 == psi && matches!(o, Obj::Densest(x) if *x == m)
                })
            };
            let r = refs.entry(psi).or_insert_with(|| {
                let core = find(Method::CoreExact).map(|c| answers[&c].vertices.as_slice());
                let peel = find(Method::PeelApp).map(|c| answers[&c].vertices.as_slice());
                reference(&adj, &g, psi, core, peel, core.is_some())
            });
            let verdict = r
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| check(&adj, psi, &obj.objective(), ans, r));
            if let Err(e) = verdict {
                eprintln!("warm-serve: {} {obj:?}: {e}", standin.name());
                bad.push(*class);
            }
        }
    }
    bad
}
