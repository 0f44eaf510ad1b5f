//! # gm-bench — the figure/table reproduction harness
//!
//! The paper's tables and figures are one table, [`artifacts::ARTIFACTS`]:
//! one row per artifact (name, title, datasets, what it runs, how it
//! renders, the paper's expected shape). The `reproduce` binary runs any of
//! them by name, or `all` of them in the paper's order, generating each
//! dataset once per process and running the full Freebase suite once for
//! every artifact that reads it (Figure 1(c), Figure 7(c, d), Table 4).
//!
//! Beside it: `export_datasets` (GraphSON export) and the beyond-the-paper
//! sweeps `fig8_concurrency` (multi-client scaling, overload, locked vs
//! snapshot reads), `fig9_network` (in-process vs network-attached),
//! `fig10_sharding` (per-partition locks vs one big lock, optional
//! `@fleet` rows) and `fig11_transactions` (transactional vs autocommit
//! writes). Their correctness claims are asserted by tier-1 tests and their
//! costs by `benchmark/`'s ledger, not by the sweeps. The one criterion
//! bench, `benches/substrates.rs`, measures the storage substrates.
//!
//! All binaries honour the `GM_*` environment knobs; the typed parsers and
//! the authoritative registry (names, defaults, docs) live in [`config`] —
//! `reproduce` prints the full table. Core set: `GM_SCALE`
//! (`tiny`/`small`/`medium`/`a/b`), `GM_SEED`, `GM_TIMEOUT_SECS`,
//! `GM_BATCH`, `GM_ENGINES`; the sweeps add `GM_THREADS`, `GM_MIXES`,
//! `GM_WL_OPS`, `GM_OVERLOAD_FACTORS`, `GM_MAX_LATENESS_MS`,
//! `GM_SERVER_ADDR`, `GM_NET_CLIENTS`, `GM_SHARDS` and `GM_TXN_OPS`.
//! Observability is controlled by `GM_OBS` (metrics/phases) and
//! `GM_TRACE`/`GM_TRACE_CAP`/`GM_TRACE_DUMP` (the per-op trace flight
//! recorder behind the sweeps' `p99_exemplar` column).

use std::time::Duration;

use gm_core::params::Workload;
use gm_core::report::{Report, RunMode};
use gm_core::runner::{BenchConfig, Runner};
use gm_core::summary::ScalingRow;
use gm_core::QueryInstance;
use gm_datasets::{self as datasets, DatasetId, Scale};
use gm_model::api::LoadOptions;
use gm_model::{Dataset, GdbResult};
use gm_obs::trace;
use gm_workload::{prepare, run_backend, Host, HostBackend, RunReport, WorkloadConfig};
use graphmark::registry::EngineKind;

pub mod artifacts;
pub mod config;

/// Parsed harness environment.
#[derive(Debug, Clone)]
pub struct Env {
    /// Dataset scale.
    pub scale: Scale,
    /// Generator/workload seed.
    pub seed: u64,
    /// Per-query deadline.
    pub timeout: Duration,
    /// Batch length.
    pub batch: u32,
    /// Engines under test.
    pub engines: Vec<EngineKind>,
}

impl Env {
    /// Read the `GM_*` environment variables (see [`config`] for the typed
    /// parsers and the full knob registry).
    pub fn from_env() -> Env {
        Env {
            scale: config::var_scale(),
            seed: config::var_u64("GM_SEED", 42),
            timeout: config::var_secs("GM_TIMEOUT_SECS", 5),
            batch: config::var_u32("GM_BATCH", 10),
            engines: config::var_engines(),
        }
    }

    /// The bench config derived from this environment.
    pub fn config(&self) -> BenchConfig {
        BenchConfig {
            timeout: self.timeout,
            batch: self.batch,
            load: LoadOptions::default(),
            with_index: false,
        }
    }
}

/// Generated datasets, each generated once (the Freebase family shares one
/// synthetic KB, generated once for all four samples).
pub struct DataBank {
    datasets: Vec<(DatasetId, Dataset)>,
}

impl DataBank {
    /// The order datasets are listed in: Table 3's rows, Figure 3(a)'s
    /// columns.
    pub const ORDER: [DatasetId; 7] = [
        DatasetId::Yeast,
        DatasetId::Mico,
        DatasetId::FrbS,
        DatasetId::FrbO,
        DatasetId::FrbM,
        DatasetId::FrbL,
        DatasetId::Ldbc,
    ];

    /// Generate the datasets `ids` names for the environment.
    pub fn generate(env: &Env, ids: &[DatasetId]) -> DataBank {
        eprintln!(
            "[gm-bench] generating datasets at scale '{}' (seed {}) …",
            env.scale.name, env.seed
        );
        let mut made = Vec::new();
        if ids.iter().any(|id| DatasetId::FREEBASE.contains(id)) {
            let fam = datasets::freebase::generate_all(env.scale, env.seed);
            made.extend([
                (DatasetId::FrbS, fam.frb_s),
                (DatasetId::FrbO, fam.frb_o),
                (DatasetId::FrbM, fam.frb_m),
                (DatasetId::FrbL, fam.frb_l),
            ]);
        }
        for id in [DatasetId::Yeast, DatasetId::Mico, DatasetId::Ldbc] {
            if ids.contains(&id) {
                made.push((id, datasets::generate(id, env.scale, env.seed)));
            }
        }
        made.retain(|(id, _)| ids.contains(id));
        made.sort_by_key(|(id, _)| Self::ORDER.iter().position(|o| o == id));
        for (id, d) in &made {
            eprintln!(
                "[gm-bench]   {:<6} |V|={:<8} |E|={:<8} |L|={}",
                id.name(),
                d.vertex_count(),
                d.edge_count(),
                d.edge_label_set().len()
            );
        }
        DataBank { datasets: made }
    }

    /// Get one dataset (it must have been generated).
    pub fn get(&self, id: DatasetId) -> &Dataset {
        &self
            .datasets
            .iter()
            .find(|(i, _)| *i == id)
            .unwrap_or_else(|| panic!("dataset {} was not generated", id.name()))
            .1
    }

    /// Every generated dataset, in [`DataBank::ORDER`].
    pub fn all(&self) -> impl Iterator<Item = (DatasetId, &Dataset)> {
        self.datasets.iter().map(|(id, d)| (*id, d))
    }
}

/// Run a list of query instances for every engine on one dataset.
pub fn run_queries(
    env: &Env,
    data: &Dataset,
    instances: &[QueryInstance],
    modes: &[RunMode],
    with_index: bool,
) -> Report {
    let workload = Workload::choose(data, env.seed, (env.batch as usize).max(16));
    let mut report = Report::default();
    for kind in &env.engines {
        let factory = move || kind.make();
        let mut runner = Runner::new(
            &factory,
            data,
            &workload,
            BenchConfig {
                with_index,
                ..env.config()
            },
        );
        for inst in instances {
            for &mode in modes {
                report.push(runner.run_instance(inst, mode));
            }
        }
    }
    report
}

/// The sweeps' in-process run: load `data` into a fresh `host`, resolve
/// `cfg.seed`'s parameters, and drive `cfg` against it.
pub fn drive(host: &dyn Host, data: &Dataset, cfg: &WorkloadConfig) -> GdbResult<RunReport> {
    let params = prepare(host, data, cfg.seed)?;
    run_backend(
        &HostBackend::new(host, &params, cfg.op_timeout),
        &data.name,
        cfg,
    )
}

/// Instances for a contiguous query range (inclusive numbers, e.g. 22..=27).
pub fn instances_for(numbers: std::ops::RangeInclusive<u8>) -> Vec<QueryInstance> {
    gm_core::catalog::QueryId::ALL
        .iter()
        .filter(|q| numbers.contains(&q.number()))
        .map(|q| QueryInstance::plain(*q))
        .collect()
}

/// Close a sweep's tracing: report how many of its rows' `p99_exemplar`
/// ids resolve in the flight recorder, and dump the recorder to
/// `GM_TRACE_DUMP` when that is set.
pub fn finish_traces(tag: &str, rows: &[ScalingRow]) {
    let ring = trace::global_ring();
    if trace::enabled() {
        let stamped = rows.iter().filter(|r| r.p99_exemplar != 0).count();
        let resolved = rows
            .iter()
            .filter(|r| r.p99_exemplar != 0 && ring.find(r.p99_exemplar).is_some())
            .count();
        eprintln!(
            "[{tag}] trace: {resolved}/{stamped} p99 exemplars resolve in the flight recorder"
        );
    }
    if let Some(base) = config::trace_dump_path() {
        match trace::dump_to(&base, &ring.snapshot()) {
            Ok(()) => eprintln!("[{tag}] traces dumped to {base}.txt and {base}.json"),
            Err(e) => eprintln!("[{tag}] GM_TRACE_DUMP to {base} failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let env = Env::from_env();
        assert!(env.batch >= 1);
        assert!(!env.engines.is_empty());
    }

    #[test]
    fn instances_for_ranges() {
        let neigh = instances_for(22..=27);
        assert_eq!(neigh.len(), 6);
        assert_eq!(neigh[0].name(), "Q22");
        assert_eq!(neigh[5].name(), "Q27");
    }

    #[test]
    fn databank_tiny() {
        let env = Env {
            scale: Scale::tiny(),
            seed: 1,
            timeout: Duration::from_secs(5),
            batch: 2,
            engines: vec![EngineKind::LinkedV1],
        };
        let bank = DataBank::generate(&env, &DataBank::ORDER);
        let ids: Vec<DatasetId> = bank.all().map(|(id, _)| id).collect();
        assert_eq!(ids, DataBank::ORDER);
        assert!(bank.get(DatasetId::Ldbc).vertex_count() > 0);
        // Only what was asked for, still in bank order.
        let some = DataBank::generate(&env, &[DatasetId::Ldbc, DatasetId::FrbM]);
        let ids: Vec<DatasetId> = some.all().map(|(id, _)| id).collect();
        assert_eq!(ids, [DatasetId::FrbM, DatasetId::Ldbc]);
        assert_eq!(
            some.get(DatasetId::FrbM).edge_count(),
            bank.get(DatasetId::FrbM).edge_count()
        );
    }
}
