//! `arcs-perfbench` — the repository benchmark. One run executes one
//! workload for a fixed time and prints every metric by name and unit;
//! the last line of standard output is the JSON result.
//!
//! ```text
//! arcs-perfbench --workload <sweep-cold|sweep-warm|broker>
//!                --seed N --seconds S --trace <0|1> [--tmp DIR]
//! ```
//!
//! `--trace 0` measures the named workload end to end. `--trace 1` runs
//! the traced breakdown of every workload and reports the per-layer
//! metrics; see `perfbench/README.md`.

mod broker;
mod calib;
mod inputs;
mod outcome;
mod stats;
mod sweep;
mod wire;

use outcome::Outcome;
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["sweep-cold", "sweep-warm", "broker"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("arcs-perfbench: {msg}");
    eprintln!(
        "usage: arcs-perfbench --workload <{}> --seed N --seconds S --trace <0|1> [--tmp DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn bad(flag: &str, value: &str) -> ! {
    usage(&format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tmp: PathBuf::from("perfbench/out/tmp"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| bad(flag, value))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            "--tmp" => args.tmp = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.tmp).expect("creating the directory for journal and trace files");
    let out = if args.trace {
        // Each workload exercises different layers, so every traced run
        // breaks down all three and the serving path, and reports every
        // layer.
        let mut out = sweep::traced(args.seed);
        out.absorb(broker::traced(args.seed, &args.tmp));
        out.absorb(wire::traced(args.seed));
        out.metric("trace.clock_ns", stats::clock_read_ns(), "ns");
        let mut host = calib::HostSpeed::default();
        for _ in 0..20 {
            host.sample();
        }
        out.metric("trace.host_slowdown", host.slowdown(), "ratio");
        out
    } else {
        match args.workload.as_str() {
            "sweep-cold" => sweep::cold(args.seed, args.seconds),
            "sweep-warm" => sweep::warm(args.seed, args.seconds),
            "broker" => broker::run(args.seed, args.seconds, &args.tmp),
            _ => unreachable!("validated by parse_args"),
        }
    };
    print(&args, &out);
}

fn print(args: &Args, out: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!("  {:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  error_rate {:.6} ({} of {} ops failed or unverified)",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("{}", out.json_line());
}
