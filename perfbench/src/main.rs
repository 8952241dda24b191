//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints notes prefixed by `#`, then the result as one JSON line. Exits
//! 1 when an output check fails and 2 on a usage error.

use perfbench::{run, RunConfig, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 25.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::from_name(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let seed = seed.unwrap_or(workload.default_seed());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The traced run's Chrome trace goes next to the executable, inside
    // the build directory.
    let trace_out = trace
        .then(|| std::env::current_exe().ok())
        .flatten()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-traces")))
        .map(|d| d.join(format!("{}-seed{seed}.json", workload.name())));
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: workload.scale(),
        threads,
        trace_out,
    };
    println!(
        "# workload {} seed {seed} scale {} threads {threads} seconds {seconds} trace {}",
        workload.name(),
        cfg.scale,
        u8::from(trace)
    );
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {:<30} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
