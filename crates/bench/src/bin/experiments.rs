//! The experiment driver: reproduce the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p reopt-bench --bin experiments -- all
//! cargo run --release -p reopt-bench --bin experiments -- figure1 figure7
//! REOPT_SCALE=0.2 REOPT_QUERY_STRIDE=1 cargo run --release -p reopt-bench --bin experiments -- all
//! ```

use reopt_bench::experiments::{run_experiment, ALL_EXPERIMENTS};
use reopt_bench::{Harness, HarnessConfig, PINNED_SETTINGS};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requested: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let config = match HarnessConfig::from_env() {
        Ok(config) => config,
        Err(error) => {
            eprintln!("experiments: {error}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "# building synthetic IMDB (scale {}, stride {}, threshold {}; {PINNED_SETTINGS})",
        config.scale, config.stride, config.threshold
    );
    let build_start = Instant::now();
    let mut harness = match Harness::new(config) {
        Ok(harness) => harness,
        Err(error) => {
            eprintln!("failed to build the harness: {error}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "# data loaded: {} tables, {} rows, in {:.1}s",
        harness.db.storage().table_count(),
        harness.db.storage().total_rows(),
        build_start.elapsed().as_secs_f64()
    );

    let mut failures = 0;
    for name in requested {
        let start = Instant::now();
        match run_experiment(&name, &mut harness) {
            Ok(output) => {
                println!("==================== {name} ====================");
                println!("{output}");
                eprintln!("# {name} finished in {:.1}s", start.elapsed().as_secs_f64());
            }
            Err(error) => {
                eprintln!("experiment {name} failed: {error}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
