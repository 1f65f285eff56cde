//! Quickstart: attach ARCS to a live runtime and watch it tune a loop.
//!
//! A deliberately imbalanced parallel loop runs repeatedly; ARCS-Online
//! (Nelder–Mead over threads × schedule × chunk) measures every invocation
//! through the OMPT→APEX chain and converges on a configuration that
//! beats the default. Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Stdout carries only what is the same on every run and host; the
//! measured timings, the converged configuration and the tuner's counts
//! depend on the host's threads and clock, so they go to stderr.

use arcs::prelude::*;
use arcs::{ArcsLive, ThreadChoice};
use arcs_omprt::Runtime;
use std::sync::Arc;
use std::time::Instant;

/// Work whose cost grows with the iteration index (a triangular-solver
/// shape): static block partitions leave the last thread with ~2× the work.
fn body(i: usize) -> u64 {
    let reps = 40 + i / 8;
    let mut acc = i as u64 | 1;
    for _ in 0..reps {
        acc = acc.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) ^ 0xA5A5;
    }
    acc
}

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let rt = Arc::new(Runtime::new(threads));
    let region = rt.register_region("quickstart/triangular");
    let n = 4096;
    println!(
        "quickstart: ARCS-Online tuning quickstart/triangular ({n} iterations per invocation)"
    );

    // Baseline: the OpenMP default (max threads, static block partition).
    let sink = std::sync::atomic::AtomicU64::new(0);
    let run_once = || {
        rt.parallel_for(region, 0..n, |i| {
            sink.fetch_add(body(i), std::sync::atomic::Ordering::Relaxed);
        });
    };
    // Warm the pool, then time the default configuration.
    run_once();
    let t0 = Instant::now();
    for _ in 0..30 {
        run_once();
    }
    let default_time = t0.elapsed().as_secs_f64() / 30.0;
    eprintln!(
        "default config {}: {:.3} ms/invocation",
        OmpConfig { threads, schedule: arcs_omprt::Schedule::static_block() },
        default_time * 1e3
    );

    // Attach ARCS and let it search while the application keeps running.
    let space = ConfigSpace::for_machine(&Machine::crill());
    // Reduce the thread axis to what this host actually has.
    let space = ConfigSpace {
        threads: (0..=threads.ilog2())
            .map(|p| ThreadChoice::Count(1 << p))
            .chain([ThreadChoice::Default])
            .collect(),
        default_threads: threads,
        ..space
    };
    let live = ArcsLive::attach(Arc::clone(&rt), TunerOptions::online(space));

    let mut invocations = 0;
    loop {
        run_once();
        invocations += 1;
        if live.converged() || invocations >= 400 {
            break;
        }
    }
    let best = live.best_configs()["quickstart/triangular"];
    eprintln!("ARCS converged after {invocations} invocations: [{best}]");

    // Measure the tuned configuration.
    let t1 = Instant::now();
    for _ in 0..30 {
        run_once();
    }
    let tuned_time = t1.elapsed().as_secs_f64() / 30.0;
    eprintln!(
        "tuned config: {:.3} ms/invocation ({:+.1}%)",
        tuned_time * 1e3,
        (tuned_time / default_time - 1.0) * 100.0
    );

    let stats = live.stats();
    eprintln!(
        "tuner stats: {} invocations, {} configuration changes, {} regions",
        stats.invocations, stats.config_changes, stats.regions
    );
    let history = live.export_history("quickstart");
    println!(
        "history file: context `{}`, regions {:?}",
        history.context,
        history.entries.keys().collect::<Vec<_>>()
    );
    eprintln!("{}", history.to_json());
}
