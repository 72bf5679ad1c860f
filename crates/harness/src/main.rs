//! The `gts-harness` binary: regenerate the paper's tables and figures.
//!
//! ```text
//! gts-harness <table1|table2|fig10|fig11|all> [options]
//!
//!   --scale F        fraction of the paper's input sizes (default 0.05)
//!   --seed N         RNG seed (default 20130901)
//!   --only NAME      restrict to benchmarks whose name contains NAME
//!   --threads LIST   comma-separated CPU thread counts
//!   --k N            kNN neighbor count (default 8)
//!   --json PATH      also dump every cell as JSON
//!   --csv DIR        write Figure 10/11 panels as CSV files into DIR
//!
//! gts-harness ablations   (fixed inputs; modeled ms of the §5 design choices)
//! gts-harness loadgen --connect HOST:PORT [--connections N] [--frame-queries N]
//!                     [--queries N] [--points N] [--seed N] [--out PATH]
//!                     [--single-sample N] [--differential N] [--expect-overload]
//!                     [--trace-out PATH]
//! gts-harness serve   [--points N] [--seed N] [--shards N] [--shard-threads N]
//!                     [--metrics-file PATH] [--trace-file PATH] [--listen ADDR]
//!                     [--port-file PATH] [--admission-budget-us N]
//! ```

use std::io::Write as _;

use gts_harness::{
    ablations, config::HarnessConfig, counters_view, figures, profiler_table, run_suite, table1,
    table2,
};

fn usage() -> ! {
    eprintln!(
        "usage: gts-harness <table1|table2|fig10|fig11|profiler|counters|ablations|all|loadgen|serve> \
         [--scale F] [--seed N] [--only NAME] [--threads a,b,c] [--k N] [--json PATH]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let command = command.as_str();
    if command == "loadgen" {
        gts_harness::netgen::main_loadgen(&args[1..]);
        return;
    }
    if command == "serve" {
        gts_harness::serve::main_serve(&args[1..]);
        return;
    }
    if command == "ablations" && args.len() == 1 {
        let rows = ablations::run(ablations::N_POINTS, ablations::N_BODIES, ablations::SEED);
        print!("{}", ablations::render(&rows));
        return;
    }
    if !matches!(
        command,
        "table1" | "table2" | "fig10" | "fig11" | "profiler" | "counters" | "all"
    ) {
        usage();
    }

    let mut cfg = HarnessConfig::default();
    let mut only: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let need = |i: usize| -> &str {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--scale" => {
                cfg = HarnessConfig::at_scale(need(i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--seed" => {
                cfg.seed = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--only" => {
                only = Some(need(i).to_string());
                i += 2;
            }
            "--threads" => {
                cfg.threads = need(i)
                    .split(',')
                    .map(|t| t.parse().unwrap_or_else(|_| usage()))
                    .collect();
                i += 2;
            }
            "--k" => {
                cfg.k = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--json" => {
                json_path = Some(need(i).to_string());
                i += 2;
            }
            "--csv" => {
                csv_dir = Some(need(i).to_string());
                i += 2;
            }
            _ => usage(),
        }
    }

    if command == "counters" {
        use gts_points::gen::Dataset;
        let ds = match only.as_deref().map(str::to_lowercase).as_deref() {
            Some("covtype") => Dataset::Covtype,
            Some("mnist") => Dataset::Mnist,
            Some("geocity") => Dataset::Geocity,
            _ => Dataset::Random,
        };
        print!("{}", counters_view::render(&cfg, ds));
        return;
    }

    eprintln!(
        "running suite: scale {} ({} bodies / {} points), seed {}, threads {:?}",
        cfg.scale,
        cfg.n_bodies(),
        cfg.n_points(),
        cfg.seed,
        cfg.threads
    );
    let suite = run_suite(&cfg, only.as_deref());

    match command {
        "table1" => print!("{}", table1::render(&suite)),
        "table2" => print!("{}", table2::render(&suite)),
        "fig10" => print!("{}", figures::render(&suite, true)),
        "fig11" => print!("{}", figures::render(&suite, false)),
        "profiler" => print!("{}", profiler_table::render(&suite)),
        "all" => {
            println!("=== Table 1: Performance summary of transformed traversals ===\n");
            print!("{}", table1::render(&suite));
            println!("\n=== Table 2: Average work expansion per warp (std dev) ===\n");
            print!("{}", table2::render(&suite));
            println!("\n=== Figure 10 (sorted) ===");
            print!("{}", figures::render(&suite, true));
            println!("\n=== Figure 11 (unsorted) ===");
            print!("{}", figures::render(&suite, false));
            println!("\n=== §4.4 profiler decisions ===\n");
            print!("{}", profiler_table::render(&suite));
        }
        _ => unreachable!(),
    }

    if let Some(dir) = csv_dir {
        let dir = std::path::PathBuf::from(dir);
        for sorted in [true, false] {
            let files = figures::write_csv(&suite, sorted, &dir).expect("write figure CSVs");
            eprintln!("wrote {} csv files to {}", files.len(), dir.display());
        }
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&suite.cells).expect("serialize cells");
        let mut f = std::fs::File::create(&path).expect("create json file");
        f.write_all(json.as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }
}
