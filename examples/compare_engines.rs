//! Mini Table 4: run the full microbenchmark suite across all nine engine
//! variants on one dataset and print the derived ✓/⚠ summary matrix.
//!
//! ```sh
//! cargo run --release --example compare_engines
//! GM_SCALE=small cargo run --release --example compare_engines -- frb-m
//! ```
//!
//! The optional argument names the dataset (default `yeast`).

use graphmark::core::params::Workload;
use graphmark::core::report::{Report, RunMode};
use graphmark::core::runner::{BenchConfig, Runner};
use graphmark::core::summary;
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::registry::EngineKind;

fn main() {
    let scale = std::env::var("GM_SCALE")
        .ok()
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::tiny());
    let dataset_id = std::env::args()
        .nth(1)
        .and_then(|name| DatasetId::ALL.into_iter().find(|d| d.name() == name))
        .unwrap_or(DatasetId::Yeast);

    println!(
        "running the 35-query suite on '{}' at scale '{}' across {} engines …\n",
        dataset_id.name(),
        scale.name,
        EngineKind::ALL.len()
    );
    let data = datasets::generate(dataset_id, scale, 42);
    let workload = Workload::choose(&data, 7, 12);

    let mut report = Report::default();
    for kind in EngineKind::ALL {
        eprintln!("  {} …", kind.name());
        let factory = move || kind.make();
        let mut runner = Runner::new(
            &factory,
            &data,
            &workload,
            BenchConfig {
                batch: 3,
                ..BenchConfig::default()
            },
        );
        report.extend(runner.run_suite(&[RunMode::Isolation]));
    }

    println!("{}", report.render_matrix(RunMode::Isolation));
    println!("\nDerived Table 4 (✓ near-best · ⚠ slow/problems):\n");
    println!("{}", summary::derive(&report).render());

    let dnf = report.timeouts_by_engine(RunMode::Isolation);
    if !dnf.is_empty() {
        println!("non-completions: {dnf:?}");
    }
}
