//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk|meta-mix|s3-mix|dos-sim> --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload, checks every output against the benchmark's own
//! model, prints each metric by name and unit, writes a result file (and,
//! with `--trace 1`, the span log) under `perfbench/out/`, and ends with
//! one JSON result line. Exits non-zero on any correctness failure. See
//! `perfbench/README.md` for the workloads and metrics.

mod bulk;
mod dossim;
mod harness;
mod host;
mod json;
mod metamix;
mod model;
mod replay;
mod report;
mod s3mix;
mod stats;
mod threaded;
mod trace;

use std::path::Path;
use std::time::Instant;

use harness::Args;
use report::{result_file, result_line, END_TO_END, PER_LAYER};

/// Workloads this benchmark runs. `BENCHMARK.json` lists all but
/// `meta-mix`, whose run-to-run spread was too wide (see the README).
pub const WORKLOADS: &[&str] = &["bulk", "meta-mix", "s3-mix", "dos-sim"];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench has a parent");
    let host = host::Host::probe(root);
    let epoch = Instant::now();
    let out_dir = root.join("perfbench/out");
    let o = match args.workload.as_str() {
        "bulk" => bulk::run(args.seed, args.seconds, args.trace, epoch),
        "meta-mix" => metamix::run(args.seed, args.seconds, args.trace, epoch),
        "s3-mix" => s3mix::run(args.seed, args.seconds, args.trace, epoch),
        "dos-sim" => dossim::run(
            args.seed,
            args.seconds,
            args.trace,
            epoch,
            &out_dir,
            host.source_crc32c,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (one of {WORKLOADS:?})");
            std::process::exit(2);
        }
    };

    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} executor_shards={} loadavg={:?} commit={} source_crc32c={:08x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        o.executor_shards,
        host.loadavg,
        host.commit.as_deref().unwrap_or("-"),
        host.source_crc32c,
    );
    for (name, unit) in if args.trace { PER_LAYER } else { END_TO_END } {
        println!(
            "  {name:<32} {:>16.4} {unit}",
            o.values.get(name).copied().unwrap_or(0.0)
        );
    }
    if !args.trace {
        // The figures that only some workloads have (the traced run
        // reports them as per-layer metrics).
        for (name, unit) in PER_LAYER.iter().take_while(|(n, _)| !n.contains('.')) {
            if let Some(v) = o.values.get(name) {
                println!("  also {name:<27} {v:>16.4} {unit}");
            }
        }
    }
    for p in &o.problems {
        println!("  INCORRECT: {p}");
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
    } else {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let mut file = result_file(
            &o,
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &host,
        );
        if let Some(spans) = &o.spans {
            let counts = spans
                .counts()
                .into_iter()
                .map(|(k, n)| (k.to_owned(), json::Json::from(n)));
            file = file.with("span_counts", json::Json::Obj(counts.collect()));
        }
        let path = out_dir.join(format!("{stem}.json"));
        match std::fs::write(&path, file.render() + "\n") {
            Ok(()) => println!("  result file: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        if let Some(spans) = &o.spans {
            let path = out_dir.join(format!("{stem}.spans.json"));
            match spans.write_chrome(&path) {
                Ok(()) => println!(
                    "  spans: {} kept, {} dropped -> {}",
                    spans.len(),
                    spans.dropped(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
        }
    }
    println!("{}", result_line(&o, args.trace).render());
    if !o.correct {
        std::process::exit(1);
    }
}
