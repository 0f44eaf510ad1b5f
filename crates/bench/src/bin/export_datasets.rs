//! Export every benchmark dataset as a GraphSON file — the interchange
//! format the paper's suite distributes its datasets in (§5, Test Suite:
//! "to perform the tests on a new dataset, one only needs to place the
//! dataset in GraphSON file (plain JSON) in the dedicated directory").
//!
//! ```sh
//! GM_SCALE=small cargo run --release -p gm-bench --bin export_datasets -- ./data
//! ```
//!
//! The one argument is the output directory (default `./data`).

use gm_bench::{DataBank, Env};
use gm_model::graphson;

fn main() {
    let env = Env::from_env();
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "./data".into());
    let dir = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(dir).expect("create output directory");

    let bank = DataBank::generate(&env, &DataBank::ORDER);
    for (id, data) in bank.all() {
        let path = dir.join(format!("{}-{}.graphson.json", id.name(), env.scale.name));
        graphson::write_file(data, &path).expect("write graphson");
        println!(
            "wrote {} ({} vertices, {} edges, {} bytes)",
            path.display(),
            data.vertex_count(),
            data.edge_count(),
            std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
        );
    }
}
