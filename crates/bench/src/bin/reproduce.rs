//! Reproduce the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p gm-bench --bin reproduce -- --list
//! GM_SCALE=tiny GM_ENGINES='linked(v2)' cargo run --release -p gm-bench --bin reproduce -- table4
//! GM_SCALE=small cargo run --release -p gm-bench --bin reproduce -- all
//! ```
//!
//! Each name is a row of `gm_bench::artifacts::ARTIFACTS`; `all` runs every
//! row in the paper's order. Every dataset is generated once per process,
//! and the full Freebase suite behind Figure 1(c), Figure 7(c, d) and
//! Table 4 runs once.

use gm_bench::artifacts::{self, Artifact, Harness, ARTIFACTS};
use gm_bench::{config, Env};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--list") {
        for a in ARTIFACTS {
            println!("{:<14} {}", a.name, a.title);
        }
        if args.is_empty() {
            eprintln!("usage: reproduce <artifact>... | all | --list");
            std::process::exit(2);
        }
        return;
    }
    let chosen: Vec<&Artifact> = if args.iter().any(|a| a == "all") {
        ARTIFACTS.iter().collect()
    } else {
        args.iter()
            .map(|name| {
                artifacts::find(name).unwrap_or_else(|| {
                    eprintln!("reproduce: unknown artifact {name:?} (see --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    eprint!("{}", config::render_knobs());
    let harness = Harness::new(Env::from_env(), &chosen);
    for a in chosen {
        print!("{}", harness.render(a));
    }
}
