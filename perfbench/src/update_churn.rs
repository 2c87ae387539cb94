//! `update-churn`: drives a `DsdService` the way `dsd batch` does. Each op
//! applies one update batch to Ca-HepTh and re-solves the graph's warm
//! request set through `solve_batch`; its latency runs from the write
//! until the fresh answers are back.
//!
//! Batches carry 1, 4–8 or 32 net edge changes, so they take the three
//! repair paths of `DsdEngine::apply` (single-edge delta view, multi-edge
//! delta view, materialise-then-batch). Each batch is followed by its
//! inverse, so the graph returns to its start every other op and every
//! round repeats the same states. Some deletes hit the current answer (the
//! planted clique), so the answer changes.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use dsd_core::{ApplyStats, DsdEngine, DsdRequest, DsdService, Method, Objective};
use dsd_graph::{Graph, GraphUpdate};

use crate::check::{check, reference, Answer};
use crate::count::{Adj, Psi};
use crate::inputs::{derive, graphs_for, read_adj, Rng};
use crate::layers::{Layers, SolveSamples};
use crate::metrics::{median, mib, ms, ratio};
use crate::trace::Tracer;
use crate::{finish, repeated_setup, timed, Args, Ledger};

/// The warm request set: (Ψ, method), all Densest.
const REQUESTS: &[(Psi, Method)] = &[
    (Psi::Edge, Method::CoreExact),
    (Psi::Triangle, Method::CoreExact),
    (Psi::Clique4, Method::CoreExact),
    (Psi::Diamond, Method::PeelApp),
];

/// The batches of one round, before their inverses: (deletes inside the
/// answer, other deletes, inserts).
const BATCHES: &[(usize, usize, usize)] = &[
    (1, 0, 0),
    (0, 0, 1),
    (0, 2, 2),
    (1, 3, 4),
    (2, 14, 16),
    (0, 16, 16),
];

fn requests() -> Vec<DsdRequest> {
    REQUESTS
        .iter()
        .map(|(psi, m)| DsdRequest::new(&psi.pattern()).on("g").method(*m))
        .collect()
}

/// The four answers of one op as one [`Answer`] (one subgraph each).
fn combined(answers: impl Iterator<Item = Answer>) -> Answer {
    Answer {
        vertices: Vec::new(),
        density_bits: 0,
        subgraphs: answers.map(|a| (a.vertices, a.density_bits)).collect(),
        guarantee: dsd_core::Guarantee::Exact,
    }
}

fn norm(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// Draws the round's batches from the benchmark's own edge set.
fn make_batches(
    seed: u64,
    n: usize,
    edges: &[(u32, u32)],
    answer: &[u32],
) -> Vec<Vec<GraphUpdate>> {
    let mut rng = Rng::new(derive(seed, 3));
    let present: HashSet<(u32, u32)> = edges.iter().map(|&(u, v)| norm(u, v)).collect();
    let in_answer =
        |e: &(u32, u32)| answer.binary_search(&e.0).is_ok() && answer.binary_search(&e.1).is_ok();
    let mut used: HashSet<(u32, u32)> = HashSet::new();
    let mut out = Vec::new();
    for &(hit, del, ins) in BATCHES {
        let mut batch = Vec::new();
        let mut take = |want_answer: bool, k: usize, batch: &mut Vec<GraphUpdate>| {
            let mut got = 0;
            while got < k {
                let e = if want_answer {
                    norm(
                        answer[rng.below(answer.len())],
                        answer[rng.below(answer.len())],
                    )
                } else {
                    let (u, v) = edges[rng.below(edges.len())];
                    norm(u, v)
                };
                if e.0 != e.1
                    && present.contains(&e)
                    && in_answer(&e) == want_answer
                    && used.insert(e)
                {
                    batch.push(GraphUpdate::Delete(e.0, e.1));
                    got += 1;
                }
            }
        };
        take(true, hit, &mut batch);
        take(false, del, &mut batch);
        let mut got = 0;
        while got < ins {
            let e = norm(rng.below(n) as u32, rng.below(n) as u32);
            if e.0 != e.1 && !present.contains(&e) && used.insert(e) {
                batch.push(GraphUpdate::Insert(e.0, e.1));
                got += 1;
            }
        }
        rng.shuffle(&mut batch);
        out.push(batch);
    }
    out
}

fn inverse(batch: &[GraphUpdate]) -> Vec<GraphUpdate> {
    batch
        .iter()
        .map(|u| match *u {
            GraphUpdate::Insert(a, b) => GraphUpdate::Delete(a, b),
            GraphUpdate::Delete(a, b) => GraphUpdate::Insert(a, b),
        })
        .collect()
}

/// Batch-size class of a batch: 1, up to 8, or more.
fn size_class(len: usize) -> &'static str {
    match len {
        1 => "apply.ms.b1",
        2..=8 => "apply.ms.b8",
        _ => "apply.ms.b32",
    }
}

pub fn run(args: &Args) -> crate::metrics::Report {
    let (standin, v) = graphs_for("update-churn")[0];
    let path = args.data.join(standin.file_name(v));
    let tracer = Tracer::new(args.trace);
    let mut samples = SolveSamples::default();
    let ((service, warm), setups) = repeated_setup(args, || {
        let g = tracer.span("io.read", || {
            dsd_graph::io::read_edge_list(std::io::BufReader::new(
                std::fs::File::open(&path).expect("input file"),
            ))
            .expect("input graph")
        });
        let service = DsdService::new();
        service.register("g", g);
        let out = service.solve_batch(requests());
        let sols: Vec<_> = out
            .solutions
            .into_iter()
            .map(|s| s.expect("warm-up solve"))
            .collect();
        if tracer.enabled() {
            sols.iter().for_each(|s| samples.add(s, None));
        }
        (service, combined(sols.iter().map(Answer::of)))
    });
    let (adj0, edges0) = read_adj(&path).expect("input file");
    let answer = warm.subgraphs[0].0.clone();
    let batches = make_batches(args.seed, adj0.num_vertices(), &edges0, &answer);
    // Op i of a round applies `ops[i]` and leaves the graph in state
    // `(i + 1) % 2 * (i / 2 + 1)`: state k after batch k, 0 after its
    // inverse.
    let ops: Vec<(usize, Vec<GraphUpdate>)> = batches
        .iter()
        .enumerate()
        .flat_map(|(k, b)| [(k + 1, b.clone()), (0, inverse(b))])
        .collect();
    let mut ledger: Ledger<usize> = Ledger::default();
    ledger.seed(0, warm);
    let engine = service.engine("g").expect("registered");
    let cache0 = engine.cache_stats();
    let mut applies: Vec<(ApplyStats, usize)> = Vec::new();
    let mut batch_ms = Vec::new();

    let (measured, overhead) = timed(args, &tracer, |phase, tracer| {
        for (state, batch) in &ops {
            tracer.next_op();
            let t0 = Instant::now();
            let res = tracer.span("op", || {
                let applied = tracer.span("service.update", || service.update("g", batch));
                let out = tracer.span("service.solve_batch", || service.solve_batch(requests()));
                (applied, out)
            });
            let lat = t0.elapsed().as_secs_f64() * 1e3;
            let (Ok(applied), out) = res else {
                ledger.lost();
                continue;
            };
            let Ok(sols) = out.solutions.into_iter().collect::<Result<Vec<_>, _>>() else {
                ledger.lost();
                continue;
            };
            phase.latencies_ms.push(lat);
            if tracer.enabled() {
                applies.push((applied, batch.len()));
                batch_ms.push(ms(out.stats.wall_nanos));
                sols.iter().for_each(|s| samples.add(s, None));
            }
            ledger.record(*state, combined(sols.iter().map(Answer::of)), lat);
        }
    });

    ledger.print_classes();
    let bad = verify(&ledger, &adj0, &edges0, &batches);
    let mut layers = Layers::default();
    if args.trace {
        samples.fill(&mut layers);
        layers.set_median("io.read_ms", &tracer.durations("io.read"));
        for class in ["apply.ms.b1", "apply.ms.b8", "apply.ms.b32"] {
            let t: Vec<f64> = applies
                .iter()
                .filter(|(_, len)| size_class(*len) == class)
                .map(|(a, _)| ms(a.total_nanos))
                .collect();
            layers.set_median(class, &t);
        }
        let sum =
            |f: fn(&ApplyStats) -> usize| applies.iter().map(|(a, _)| f(a)).sum::<usize>() as f64;
        let repaired = sum(|a| a.substrates_repaired);
        layers.set(
            "apply.repaired_ratio",
            ratio(repaired, repaired + sum(|a| a.substrates_rebuilt)),
        );
        layers.set(
            "apply.rows_tombstoned",
            ratio(sum(|a| a.rows_tombstoned), applies.len() as f64),
        );
        layers.set(
            "apply.csr_deferred_ratio",
            ratio(sum(|a| a.csr_deferred as usize), applies.len() as f64),
        );
        layers.set("service.batch_ms", median(&batch_ms));
        layers.cache_ratios(&cache0, &engine.cache_stats());
        layers.set("engine.substrate_mib", mib(engine.substrate_bytes()));
        layers.set("engine.network_mib", mib(engine.network_bytes()));
        layers.set("flownet.mib", mib(engine.network_bytes()));
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

/// Rebuilds every state from the benchmark's own edge set, solves it on
/// a fresh engine and compares bit for bit; also checks each answer with
/// the independent counter. Returns the states that failed.
fn verify(
    ledger: &Ledger<usize>,
    adj0: &Adj,
    edges0: &[(u32, u32)],
    batches: &[Vec<GraphUpdate>],
) -> Vec<usize> {
    let n = adj0.num_vertices();
    let recorded: BTreeMap<usize, &Answer> = ledger.classes().map(|(k, a)| (*k, a)).collect();
    let mut bad = Vec::new();
    for (&state, ans) in &recorded {
        let mut edges: HashSet<(u32, u32)> = edges0.iter().map(|&(u, v)| norm(u, v)).collect();
        if state > 0 {
            for u in &batches[state - 1] {
                match *u {
                    GraphUpdate::Insert(a, b) => edges.insert(norm(a, b)),
                    GraphUpdate::Delete(a, b) => edges.remove(&norm(a, b)),
                };
            }
        }
        let mut list: Vec<(u32, u32)> = edges.into_iter().collect();
        list.sort_unstable();
        let adj = Adj::from_edges(n, list.iter().copied());
        let g = Graph::from_edges(n, &list);
        let fresh = DsdEngine::new(g.clone());
        let mut verdict = Ok(());
        for (r, &(psi, method)) in REQUESTS.iter().enumerate() {
            let sol = fresh.request(&psi.pattern()).method(method).solve();
            let mine = Answer::of(&sol);
            let (vs, bits) = &ans.subgraphs[r];
            if mine.vertices != *vs || mine.density_bits != *bits {
                verdict = Err(format!("{} differs from a fresh engine", psi.name()));
                break;
            }
            let core = (method == Method::CoreExact).then_some(vs.as_slice());
            let peel = (method == Method::PeelApp).then_some(vs.as_slice());
            if let Err(e) = reference(&adj, &g, psi, core, peel, core.is_some())
                .and_then(|rf| check(&adj, psi, &Objective::Densest, &mine, &rf))
            {
                verdict = Err(e);
                break;
            }
        }
        if let Err(e) = verdict {
            eprintln!("update-churn: state {state}: {e}");
            bad.push(state);
        }
    }
    bad
}
