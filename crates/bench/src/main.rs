//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale X] [--datasets A,B] [--trials N] [--quick]
//!
//! experiments:
//!   table1    fraction of sequential DBSCAN time in R-tree search
//!   table2    kernel efficiency (GPUCalcGlobal vs GPUCalcShared), S1
//!   figure2   strided batch-assignment diagram
//!   scenarios Tables III and V (the S2/S3 parameter definitions)
//!   figure3   response time vs eps, hybrid vs reference, S2
//!   figure4   multi-clustering totals + Table IV speedups, S2
//!   figure5   response time vs threads with table reuse, S3
//!   figure6   reuse speedup over per-variant reference, S3
//!   schedule  Gantt chart of the overlapped 3-stream batch schedule
//!   threads   host-pool scaling sweep on S1 (writes BENCH_threads.json)
//!   shard     sharded-vs-unsharded fingerprint smoke (fatal on mismatch;
//!             writes SHARD_fingerprints.json)
//!   backend   grid/tree/auto ε-search ablation smoke (fatal on table
//!             mismatch; auto-selector accuracy gated by BENCH_STRICT=1;
//!             writes BENCH_backend.json)
//!   bench     continuous-benchmark suite with regression gating
//!             (writes BENCH_suite.json; --compare <baseline.json>)
//!   profile   suite workloads under the pool profiler at 1/2/4/8
//!             threads: serial fraction, Amdahl ceiling, per-worker
//!             utilization, critical path (writes PROFILE.json)
//!   report    cross-run trend report over the run ledger
//!             (writes REPORT.html; TREND_STRICT=1 to gate)
//!   ablations bandwidth / stream-count / block-size / index / alpha / split
//!   all       everything above in paper order
//! ```
//!
//! `--scale` sizes the synthetic datasets (default 0.02 of the published
//! sizes; the domain shrinks with sqrt(scale) so densities — and the
//! published ε values — stay meaningful). `--quick` is `--scale 0.005`.

use bench::common::Options;
use bench::{
    ablations, backend_ablation, figure2, figure3, figure4, figure5, figure6, profile, regress,
    report, scenarios, schedule, shard, table1, table2, threads,
};

fn run_ablations(opts: &Options) {
    ablations::bandwidth(opts);
    println!();
    ablations::streams(opts);
    println!();
    ablations::blocksize(opts);
    println!();
    ablations::index(opts);
    println!();
    ablations::alpha(opts);
    println!();
    ablations::hybrid_split(opts);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: repro <experiment> [options] (see --help)");
        std::process::exit(2);
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        println!(
            "repro <table1|table2|figure2|figure3|figure4|figure5|figure6|schedule|threads|shard|backend|bench|profile|report|ablations|all>\n      [--scale X] [--datasets A,B] [--trials N] [--warmup N] [--quick] [--csv DIR]\n      [--trace [FILE]] [--metrics [FILE]] [--compare BASELINE] [--ledger DIR]\n\n--trace writes a Chrome trace-event JSON (default trace.json; open with\nhttps://ui.perfetto.dev); --metrics writes a metrics snapshot JSON\n(default metrics.json). Instrumented experiments: table2, figure4,\nschedule, profile.\n\nthreads sweeps the rayon pool over {{1, 2, 4, all}} on the S1 workload and\nwrites BENCH_threads.json (set the process-wide default pool size with\nRAYON_NUM_THREADS).\n\nbench runs the fixed S1/S2/S3 benchmark suite (--warmup untimed runs,\nthen --trials timed trials per workload) and writes BENCH_suite.json\n(median/MAD/IQR per stage plus device counters). --compare BASELINE\nflags stages whose median regressed beyond the baseline's noise\nthreshold; advisory unless BENCH_STRICT=1. Baselines live under\nresults/baselines/ (see DESIGN.md, \"Benchmark methodology\").\n\nprofile runs each suite workload under the pool profiler at 1/2/4/8\nthreads and writes PROFILE.json: per-stage serial fraction and Amdahl\nmax speedup, per-worker utilization, dispatch hotspots, device critical\npath. Exits nonzero if profiling perturbs modeled time bits (the\ndeterminism policy) or PROFILE.json fails round-trip validation.\n\nshard compares sharded against unsharded fingerprints (writes\nSHARD_fingerprints.json); backend runs the grid/tree/auto ablation\n(writes BENCH_backend.json; auto-selector floor fatal only under\nBENCH_STRICT=1). Both exit nonzero on any fingerprint mismatch.\n\nbench/threads/profile/shard/backend share one harness: each checks its\nartifact round-trips, appends exactly one provenance-stamped record to\nthe run ledger (results/ledger/ or --ledger DIR), then writes the\nartifact (under --csv DIR, else .). report loads the ledger, runs\ncross-run step/bits-change detection per command, workload and scale,\nand writes the REPORT.html dashboard; trend regressions are advisory\nunless TREND_STRICT=1. Set LEDGER_BASELINE_REFRESH=1 on a run that\nintentionally changes modeled time bits."
        );
        return;
    }
    let opts = match Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "# scale = {} (of published dataset sizes), trials = {}",
        opts.scale, opts.trials
    );

    match cmd.as_str() {
        "table1" => table1::print(&opts),
        "table2" => table2::print(&opts),
        "figure2" => figure2::print(),
        "table3" | "table5" | "scenarios" => scenarios::print(),
        "figure3" => figure3::print(&opts),
        "figure4" | "table4" => figure4::print(&opts),
        "figure5" => figure5::print(&opts),
        "figure6" => figure6::print(&opts),
        "schedule" => schedule::print(&opts),
        "threads" => {
            let code = threads::print(&opts);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "report" => {
            let code = report::print(&opts);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "shard" => {
            let code = shard::print(&opts);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "backend" => {
            let code = backend_ablation::print(&opts);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "bench" => {
            let code = regress::print(&opts);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "profile" => {
            let code = profile::print(&opts);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "ablations" => run_ablations(&opts),
        "all" => {
            table1::print(&opts);
            println!("\n");
            table2::print(&opts);
            println!("\n");
            figure2::print();
            println!("\n");
            figure3::print(&opts);
            println!("\n");
            figure4::print(&opts);
            println!("\n");
            figure5::print(&opts);
            println!("\n");
            figure6::print(&opts);
            println!("\n");
            run_ablations(&opts);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}
