//! Per-layer metrics: their names and units, and the collectors that turn
//! the counts the program returns (`SolveStats`, `StoreBuildStats`,
//! `EngineCacheStats`, `GovernorStats`) into them.

use std::collections::BTreeMap;

use dsd_core::{EngineCacheStats, GovernorStats, Solution};

use crate::metrics::{median, mib, ms, ratio, Report};

/// Per-layer metrics, in report order, with their units. A traced run
/// prints all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.read_ms", "ms"),
    ("kcore.ms", "ms"),
    ("store.build_ms", "ms"),
    ("store.csr_ms", "ms"),
    ("store.enumerate_ms", "ms"),
    ("store.assemble_ms", "ms"),
    ("store.rows", "count"),
    ("store.mib", "MiB"),
    ("decomp.ms", "ms"),
    ("locate.core_vertices", "count"),
    ("flownet.build_ms", "ms"),
    ("flownet.nodes", "count"),
    ("flownet.mib", "MiB"),
    ("alpha.ms", "ms"),
    ("alpha.probes", "count"),
    ("alpha.resolve_hits", "count"),
    ("flow.augment_work", "count"),
    ("topk.residual_ms", "ms"),
    ("engine.solve_ms", "ms"),
    ("engine.oracle_hit_ratio", "ratio"),
    ("engine.decomp_hit_ratio", "ratio"),
    ("engine.network_hit_ratio", "ratio"),
    ("engine.substrate_mib", "MiB"),
    ("engine.network_mib", "MiB"),
    ("apply.ms.b1", "ms"),
    ("apply.ms.b8", "ms"),
    ("apply.ms.b32", "ms"),
    ("apply.repaired_ratio", "ratio"),
    ("apply.rows_tombstoned", "count"),
    ("apply.csr_deferred_ratio", "ratio"),
    ("service.batch_ms", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("governor.hit_ratio", "ratio"),
    ("governor.evictions", "count"),
    ("governor.rebuilds", "count"),
    ("governor.peak_mib", "MiB"),
    ("governor.violations", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values gathered during a traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Sets `name` to the median of `values` (left unset when empty).
    pub fn set_median(&mut self, name: &'static str, values: &[f64]) {
        if !values.is_empty() {
            self.set(name, median(values));
        }
    }

    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            report.push(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    /// The engine-cache hit ratios between two snapshots (summed over
    /// engines by the caller).
    pub fn cache_ratios(&mut self, before: &EngineCacheStats, after: &EngineCacheStats) {
        let d = |a: usize, b: usize| a.saturating_sub(b) as f64;
        let oh = d(after.oracle_hits, before.oracle_hits);
        let ob = d(after.oracle_builds, before.oracle_builds);
        let dh = d(after.decomposition_hits, before.decomposition_hits);
        let db = d(after.decomposition_builds, before.decomposition_builds);
        let nh = d(after.network_hits, before.network_hits);
        let nm = d(after.network_misses, before.network_misses);
        self.set("engine.oracle_hit_ratio", ratio(oh, oh + ob));
        self.set("engine.decomp_hit_ratio", ratio(dh, dh + db));
        self.set("engine.network_hit_ratio", ratio(nh, nh + nm));
    }

    /// The governor's counters over the timed phase.
    pub fn governor(&mut self, before: &GovernorStats, after: &GovernorStats) {
        let hits = (after.hits - before.hits) as f64;
        let misses = (after.misses - before.misses) as f64;
        self.set("governor.hit_ratio", ratio(hits, hits + misses));
        self.set(
            "governor.evictions",
            (after.evictions - before.evictions) as f64,
        );
        self.set(
            "governor.rebuilds",
            (after.rebuilds - before.rebuilds) as f64,
        );
        self.set("governor.peak_mib", mib(after.peak_bytes));
        self.set(
            "governor.violations",
            (after.violations - before.violations) as f64,
        );
    }
}

/// Sums the cache counters of several engines.
pub fn sum_cache(stats: impl IntoIterator<Item = EngineCacheStats>) -> EngineCacheStats {
    stats
        .into_iter()
        .fold(EngineCacheStats::default(), |mut acc, s| {
            acc.oracle_hits += s.oracle_hits;
            acc.oracle_builds += s.oracle_builds;
            acc.decomposition_hits += s.decomposition_hits;
            acc.decomposition_builds += s.decomposition_builds;
            acc.kcore_hits += s.kcore_hits;
            acc.kcore_builds += s.kcore_builds;
            acc.network_hits += s.network_hits;
            acc.network_misses += s.network_misses;
            acc
        })
}

/// Per-solve numbers from `SolveStats`, kept by traced runs.
#[derive(Default)]
pub struct SolveSamples {
    solve_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    decomp_ms: Vec<f64>,
    store: Vec<[f64; 6]>,
    alpha_ms: Vec<f64>,
    probes: Vec<f64>,
    resolve: Vec<f64>,
    augment: Vec<f64>,
    nodes: Vec<f64>,
}

impl SolveSamples {
    /// Keeps one solution's stats; `settle_ms` is the submit-to-answer
    /// time when it went through the serve queue.
    pub fn add(&mut self, sol: &Solution, settle_ms: Option<f64>) {
        let st = &sol.stats;
        self.solve_ms.push(ms(st.total_nanos));
        if let Some(settle) = settle_ms {
            self.queue_ms.push(settle - ms(st.total_nanos));
        }
        if st.decomposition_nanos > 0 {
            self.decomp_ms.push(ms(st.decomposition_nanos));
        }
        let built = !st.substrate.oracle_cache_hit;
        if let Some(store) = st.store.filter(|s| built && s.materialized) {
            let b = store.build;
            self.store.push([
                ms(b.build_nanos),
                ms(b.csr_build_nanos),
                ms(b.enumerate_nanos),
                ms(b.assemble_nanos),
                b.rows as f64,
                mib(b.bytes as u64),
            ]);
        }
        if st.flow_iterations > 0 {
            self.alpha_ms
                .push(ms(st.total_nanos.saturating_sub(st.decomposition_nanos)));
            self.probes.push(st.flow_iterations as f64);
            self.resolve.push(st.flow_resolve_hits as f64);
            self.augment.push(st.flow_augment_work as f64);
            self.nodes
                .push(st.network_nodes.first().copied().unwrap_or(0) as f64);
        }
    }

    pub fn fill(&self, l: &mut Layers) {
        l.set_median("engine.solve_ms", &self.solve_ms);
        l.set_median("serve.queue_wait_ms.p50", &self.queue_ms);
        l.set_median("decomp.ms", &self.decomp_ms);
        for (i, name) in [
            "store.build_ms",
            "store.csr_ms",
            "store.enumerate_ms",
            "store.assemble_ms",
            "store.rows",
            "store.mib",
        ]
        .into_iter()
        .enumerate()
        {
            let col: Vec<f64> = self.store.iter().map(|r| r[i]).collect();
            l.set_median(name, &col);
        }
        l.set_median("alpha.ms", &self.alpha_ms);
        l.set_median("alpha.probes", &self.probes);
        l.set_median("alpha.resolve_hits", &self.resolve);
        l.set_median("flow.augment_work", &self.augment);
        l.set_median("flownet.nodes", &self.nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_name_is_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (n, u) in PER_LAYER {
            assert!(n.len() <= 64 && u.len() <= 16);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn unset_layers_print_zero_and_ratios_use_deltas() {
        let mut l = Layers::default();
        let before = EngineCacheStats {
            oracle_hits: 2,
            oracle_builds: 2,
            ..EngineCacheStats::default()
        };
        let after = EngineCacheStats {
            oracle_hits: 5,
            oracle_builds: 3,
            ..EngineCacheStats::default()
        };
        l.cache_ratios(&before, &after);
        let mut r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
        l.emit(&mut r);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("engine.oracle_hit_ratio"), 0.75);
        assert_eq!(get("engine.network_hit_ratio"), 0.0);
        assert_eq!(get("apply.ms.b1"), 0.0);
        assert_eq!(sum_cache([after, after]).oracle_hits, 10);
    }
}
