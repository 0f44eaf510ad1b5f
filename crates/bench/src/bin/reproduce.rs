//! Reproduce the paper's tables and figures, and the beyond-the-paper
//! sweeps.
//!
//! ```sh
//! cargo run --release -p gm-bench --bin reproduce -- --list
//! GM_SCALE=tiny GM_ENGINES='linked(v2)' cargo run --release -p gm-bench --bin reproduce -- table4
//! GM_SCALE=tiny GM_WL_OPS=50 cargo run --release -p gm-bench --bin reproduce -- fig8 fig10
//! GM_SCALE=small cargo run --release -p gm-bench --bin reproduce -- all
//! ```
//!
//! Each name is a row of `gm_bench::artifacts::ARTIFACTS` or of
//! `gm_bench::sweeps::SWEEPS`; `all` runs every artifact in the paper's
//! order, then every sweep. Every dataset is generated once per process,
//! and the full Freebase suite behind Figure 1(c), Figure 7(c, d) and
//! Table 4 runs once. Per-run sweep lines go to stderr, everything the
//! artifacts and sweeps print to stdout.

use gm_bench::artifacts::{self, Artifact, Harness, ARTIFACTS};
use gm_bench::config::{self, SweepKnobs};
use gm_bench::sweeps::{self, Sweep, SWEEPS};
use gm_bench::{DataBank, Env};

fn main() {
    config::apply_obs_mode();
    config::apply_trace_mode();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--list") {
        for a in ARTIFACTS {
            println!("{:<14} {}", a.name, a.title);
        }
        for s in SWEEPS {
            println!("{:<14} {}", s.name, s.title);
        }
        if args.is_empty() {
            eprintln!("usage: reproduce <artifact|sweep>... | all | --list");
            std::process::exit(2);
        }
        return;
    }
    let (chosen, sweeps): (Vec<&Artifact>, Vec<&Sweep>) = if args.iter().any(|a| a == "all") {
        (ARTIFACTS.iter().collect(), SWEEPS.iter().collect())
    } else {
        let (mut chosen, mut sweeps) = (Vec::new(), Vec::new());
        for name in &args {
            if let Some(a) = artifacts::find(name) {
                chosen.push(a);
            } else if let Some(s) = sweeps::find(name) {
                sweeps.push(s);
            } else {
                eprintln!("reproduce: unknown artifact or sweep {name:?} (see --list)");
                std::process::exit(2);
            }
        }
        (chosen, sweeps)
    };
    eprint!("{}", config::render_knobs());
    let env = Env::from_env();
    let harness = Harness::new(env.clone(), &chosen);
    for a in chosen {
        print!("{}", harness.render(a));
    }
    if sweeps.is_empty() {
        return;
    }
    // The sweeps' dataset, unless an artifact already generated it.
    let spare;
    let data = match harness.bank().find(sweeps::DATASET) {
        Some(data) => data,
        None => {
            spare = DataBank::generate(&env, &[sweeps::DATASET]);
            spare.get(sweeps::DATASET)
        }
    };
    let knobs = SweepKnobs::from_env();
    for s in sweeps {
        print!("{}", s.run(&env, &knobs, data, &mut std::io::stderr()));
    }
}
