//! `arcs-sim` — command-line driver for the simulated experiments.
//!
//! ```text
//! arcs-sim <app> [options]
//!   <app>                bt | sp | lulesh | mc
//!   --class S|W|A|B|C    NPB class (bt/sp/mc; default B)
//!   --mesh N             LULESH edge elements (default 45)
//!   --machine crill|minotaur   (default crill)
//!   --machine-file PATH  load a custom machine JSON (see Machine::to_json)
//!   --cap WATTS          package power cap (default TDP)
//!   --strategy default|online|offline|offline-pro   (default offline)
//!   --timesteps N        override the workload's step count
//!   --selective SECONDS  enable selective tuning with this threshold
//!   --save-history PATH  write the trained history file (offline only)
//!   --load-history PATH  replay a previously saved history
//!   --json               emit the full AppRunReport as JSON
//!
//! arcs-sim trace [options]      structured event trace of one run
//!   --workload APP[.CLASS]      bt | sp | lulesh | mc, class suffix (default sp.B)
//!   --cap WATTS                 package power cap (default TDP)
//!   --strategy nelder-mead|pro|exhaustive|default   (default nelder-mead)
//!   --objective time|energy|edp score the run by this objective (default time)
//!   --timesteps N               override the workload's step count
//!   --machine crill|minotaur    (default crill)
//!   --out PATH                  write JSONL here (default: stdout)
//!   --chrome PATH               also export a Chrome trace (chrome://tracing)
//!   --check                     re-validate the emitted JSONL against the schema
//!   --self-profile              emit a DriverPhases span summary into the
//!                               trace so `report` prints a self-profile
//!
//! arcs-sim schedule [options]   scheduling-policy portfolio bake-off
//!   --workload APP[.CLASS]      bt | sp | lulesh | mc (default mc.B)
//!   --machine crill|minotaur    (default crill)
//!   --cap WATTS                 package power cap (default TDP)
//!   --threads N                 thread count for the fixed-policy runs
//!                               (default: all hardware threads)
//!   --timesteps N               override the workload's step count
//!   --out PATH                  write the adaptive run's trace JSONL here
//!   --json                      emit the bake-off artifact as JSON
//!   --check                     exit nonzero unless the adaptive run
//!                               switched at least once, landed within 10%
//!                               of the best fixed policy, and beat the
//!                               worst fixed policy by ≥10%
//!
//! arcs-sim chaos [options]      run a workload under a named fault plan
//!   --workload APP[.CLASS]      bt | sp | lulesh | mc (default lulesh)
//!   --machine crill|minotaur    (default crill)
//!   --cap WATTS                 package power cap (default TDP)
//!   --plan NAME                 flaky-rapl | rapl-outage | cap-storm
//!   --seed N                    fault-plan seed (default 0)
//!   --timesteps N               override the workload's step count
//!   --budget N|none             hard-fault error budget (default 16;
//!                               `none` makes hard faults run errors)
//!   --out PATH                  write the run's trace JSONL here
//!   --check                     exit nonzero unless the run completed
//!                               (ok or degraded) with ≥1 injected fault
//!
//! arcs-sim report <trace.jsonl> [options]     analyse a recorded trace
//!   --format table|json|md      output format (default table)
//!   --objective time|energy|edp rank regions by this objective (default: the
//!                               objective recorded in the trace)
//!   --out PATH                  write the report here (default: stdout)
//!
//! arcs-sim compare <baseline.json> <candidate.json> [options]
//!   --fail-on PCT               exit nonzero if any region (or the total)
//!                               regresses by strictly more than PCT percent
//!   --objective time|energy|edp compare by this objective (default time), so
//!                               the gate can fail on energy/EDP regressions
//!   --out PATH                  write the comparison artifact (JSON) here
//!
//! arcs-sim figure <name>|all    print a paper table/figure (see
//!                               `arcs_bench::figures`; `all` prints every one)
//! ```
//!
//! Examples:
//! ```sh
//! cargo run --release -p arcs-bench --bin arcs-sim -- sp --class B --cap 85
//! cargo run --release -p arcs-bench --bin arcs-sim -- lulesh --mesh 45 \
//!     --strategy online --selective 0.03 --json
//! cargo run --release -p arcs-bench --bin arcs-sim -- trace \
//!     --workload sp.B --cap 80 --strategy nelder-mead --out sp.trace.jsonl
//! cargo run --release -p arcs-bench --bin arcs-sim -- figure fig4
//! ```

use arcs::{
    ConfigSpace, Objective, OmpConfig, RegionTuner, ResilienceOptions, RunStatus, Runner,
    SimExecutor, TunerOptions, TuningMode,
};
use arcs_bench::figures::{self, FIGURES};
use arcs_harmony::{History, NmOptions, ProOptions};
use arcs_kernels::{model, Class};
use arcs_powersim::{FaultPlan, Machine, WorkloadDescriptor};
use arcs_trace::{
    chrome_trace, to_jsonl, validate_jsonl, TraceEvent, TraceRecord, TraceSink, VecSink,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;

/// Flag reader shared by every subcommand: a missing or malformed value
/// prints the subcommand's usage and exits 2.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    usage: fn() -> !,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String], usage: fn() -> !) -> Self {
        Flags { args: args.iter(), usage }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{msg}");
        (self.usage)()
    }

    fn value(&mut self, name: &str) -> String {
        match self.args.next() {
            Some(v) => v.clone(),
            None => self.fail(format!("missing value for {name}")),
        }
    }

    fn parse<T: FromStr>(&mut self, name: &str) -> T
    where
        T::Err: Display,
    {
        let v = self.value(name);
        v.parse().unwrap_or_else(|e| self.fail(format!("invalid {name} {v}: {e}")))
    }

    /// `--machine crill|minotaur`.
    fn machine(&mut self) -> Machine {
        match self.value("--machine").as_str() {
            "crill" => Machine::crill(),
            "minotaur" => Machine::minotaur(),
            other => self.fail(format!("unknown machine {other}")),
        }
    }

    /// An `APP[.CLASS]` workload (class defaults to B; LULESH runs on a
    /// `mesh`-edge mesh), optionally shortened to `timesteps` steps.
    fn workload(&self, spec: &str, mesh: usize, timesteps: Option<usize>) -> WorkloadDescriptor {
        let (app, class) = spec.split_once('.').unwrap_or((spec, "B"));
        let class = match class {
            "S" => Class::S,
            "W" => Class::W,
            "A" => Class::A,
            "B" => Class::B,
            "C" => Class::C,
            other => self.fail(format!("unknown class {other}")),
        };
        let mut wl = match app {
            "bt" => model::bt(class),
            "sp" => model::sp(class),
            "lulesh" => model::lulesh(mesh),
            "mc" => model::mc(class),
            other => self.fail(format!("unknown workload {other}")),
        };
        if let Some(t) = timesteps {
            wl.timesteps = t;
        }
        wl
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim <bt|sp|lulesh|mc> [--class S|W|A|B|C] [--mesh N] \
         [--machine crill|minotaur] [--machine-file PATH] [--cap WATTS] \
         [--strategy default|online|offline|offline-pro] [--timesteps N] \
         [--selective SECONDS] [--save-history PATH] [--load-history PATH] [--json]"
    );
    eprintln!("       arcs-sim trace|schedule|chaos|report|compare|figure ...");
    exit(2)
}

/// `arcs-sim <app>`: one workload under one strategy, compared with the
/// default configuration.
fn run_main(argv: &[String]) {
    let mut flags = Flags::new(argv, usage);
    let Some(app) = flags.next() else { usage() };
    let mut class = "B".to_string();
    let mut mesh = 45;
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut strategy = "offline".to_string();
    let mut timesteps: Option<usize> = None;
    let mut selective: Option<f64> = None;
    let mut save_history: Option<PathBuf> = None;
    let mut load_history: Option<PathBuf> = None;
    let mut json = false;
    while let Some(flag) = flags.next() {
        match flag {
            "--class" => class = flags.value("--class"),
            "--mesh" => mesh = flags.parse("--mesh"),
            "--machine" => machine = flags.machine(),
            "--machine-file" => {
                let path = flags.value("--machine-file");
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1)
                });
                machine = Machine::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("invalid machine file {path}: {e}");
                    exit(1)
                });
            }
            "--cap" => cap = Some(flags.parse("--cap")),
            "--strategy" => strategy = flags.value("--strategy"),
            "--timesteps" => timesteps = Some(flags.parse("--timesteps")),
            "--selective" => selective = Some(flags.parse("--selective")),
            "--save-history" => save_history = Some(flags.value("--save-history").into()),
            "--load-history" => load_history = Some(flags.value("--load-history").into()),
            "--json" => json = true,
            other => flags.fail(format!("unknown flag {other}")),
        }
    }
    let wl = flags.workload(&format!("{app}.{class}"), mesh, timesteps);
    let cap = cap.unwrap_or(machine.power.tdp_w);
    let m = &machine;
    let space = ConfigSpace::for_machine(m);
    let context = format!("{}.{}.{:.0}W", wl.name, m.name, cap);
    let tuned = |tuner: &mut RegionTuner, label: String| {
        Runner::new(&mut SimExecutor::new(m.clone(), cap))
            .workload(&wl)
            .tuner(tuner)
            .label(label)
            .run()
            .expect("workload is set")
    };

    let base = Runner::new(&mut SimExecutor::new(m.clone(), cap))
        .workload(&wl)
        .run()
        .expect("workload is set");
    let (report, history): (arcs::AppRunReport, Option<History<OmpConfig>>) = match strategy
        .as_str()
    {
        "default" => (base.clone(), None),
        "online" | "offline-pro" => {
            let mode = if strategy == "online" {
                TuningMode::Online(NmOptions::default())
            } else {
                TuningMode::OnlinePro(ProOptions::default())
            };
            let mut options = TunerOptions::new(space, mode);
            if let Some(t) = selective {
                options = options.with_min_region_time(t);
            }
            let mut tuner = RegionTuner::new(options);
            let rep = tuned(&mut tuner, format!("arcs-{strategy}"));
            (rep, Some(tuner.export_history(&context)))
        }
        "offline" => {
            let history = match &load_history {
                Some(path) => History::load(path).unwrap_or_else(|e| {
                    eprintln!("cannot load history {path:?}: {e}");
                    exit(1)
                }),
                None => {
                    let mut options = TunerOptions::offline_train(space.clone());
                    if let Some(t) = selective {
                        options = options.with_min_region_time(t);
                    }
                    Runner::new(&mut SimExecutor::new(m.clone(), cap))
                        .workload(&wl)
                        .train(options, &context)
                        .expect("offline training options")
                }
            };
            let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space, history.clone()));
            (tuned(&mut tuner, "arcs-offline".into()), Some(history))
        }
        other => flags.fail(format!("unknown strategy {other}")),
    };

    if let (Some(path), Some(h)) = (&save_history, &history) {
        if let Err(e) = h.save(path) {
            eprintln!("cannot save history: {e}");
            exit(1);
        }
        eprintln!("history saved to {path:?}");
    }

    if json {
        println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
        return;
    }

    println!("{} on {} at {:.0}W — strategy {}", wl.name, m.name, cap, report.strategy);
    println!(
        "time   {:>10.2}s   (default {:.2}s, ratio {:.3})",
        report.time_s,
        base.time_s,
        report.time_s / base.time_s
    );
    println!(
        "energy {:>10.0}J   (default {:.0}J, ratio {:.3})",
        report.energy_j,
        base.energy_j,
        report.energy_j / base.energy_j
    );
    println!(
        "overheads: config-change {:.2}s, instrumentation {:.2}s",
        report.config_change_overhead_s, report.instrumentation_overhead_s
    );
    if let Some(h) = &history {
        println!("configurations:");
        for (region, entry) in &h.entries {
            println!("  {:40} [{}]", region, entry.config);
        }
    }
}

/// `records` as JSONL (exits on a serialisation failure).
fn jsonl(records: &[TraceRecord]) -> String {
    to_jsonl(records).unwrap_or_else(|e| {
        eprintln!("cannot serialise trace: {e}");
        exit(1)
    })
}

/// Write `text` to `path` (exits on an I/O failure).
fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {path:?}: {e}");
        exit(1)
    }
}

fn trace_usage() -> ! {
    eprintln!(
        "usage: arcs-sim trace [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--strategy nelder-mead|pro|exhaustive|default] \
         [--objective time|energy|edp] [--timesteps N] \
         [--out PATH] [--chrome PATH] [--check] [--self-profile]"
    );
    exit(2)
}

/// `arcs-sim trace`: run one (workload, cap, strategy) cell with a
/// [`VecSink`] attached and emit the collected records as JSONL.
fn trace_main(argv: &[String]) {
    let mut flags = Flags::new(argv, trace_usage);
    let mut workload_spec = "sp.B".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut strategy = "nelder-mead".to_string();
    let mut objective = Objective::Time;
    let mut timesteps: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut check = false;
    let mut self_profile = false;
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload_spec = flags.value("--workload"),
            "--machine" => machine = flags.machine(),
            "--cap" => cap = Some(flags.parse("--cap")),
            "--strategy" => strategy = flags.value("--strategy"),
            "--objective" => objective = flags.parse("--objective"),
            "--timesteps" => timesteps = Some(flags.parse("--timesteps")),
            "--out" => out = Some(flags.value("--out").into()),
            "--chrome" => chrome = Some(flags.value("--chrome").into()),
            "--check" => check = true,
            "--self-profile" => self_profile = true,
            other => flags.fail(format!("unknown flag {other}")),
        }
    }
    let wl = flags.workload(&workload_spec, 45, timesteps);

    let cap = cap.unwrap_or(machine.power.tdp_w);
    let space = ConfigSpace::for_machine(&machine);
    let options = match strategy.as_str() {
        "default" => None,
        "nelder-mead" => Some(TunerOptions::new(space, TuningMode::Online(NmOptions::default()))),
        "pro" => Some(TunerOptions::new(space, TuningMode::OnlinePro(ProOptions::default()))),
        "exhaustive" => Some(TunerOptions::offline_train(space)),
        other => flags.fail(format!("unknown strategy {other}")),
    };
    let label = if options.is_some() { format!("arcs-{strategy}") } else { strategy.clone() };
    let mut tuner = options.map(RegionTuner::new);
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(machine.clone(), cap);
    let mut runner = Runner::new(&mut exec)
        .workload(&wl)
        .objective(objective)
        .label(label)
        .trace(sink.clone())
        .self_profile(self_profile);
    if let Some(tuner) = &mut tuner {
        runner = runner.tuner(tuner);
    }
    let report = runner.run().unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1)
    });

    // End-of-run memo-cache snapshot, so `arcs-sim report` can render
    // occupancy and interner size alongside the streamed hit/miss events.
    let stats = exec.shared_cache().stats();
    sink.record(
        None,
        TraceEvent::CacheStats {
            hits: stats.hits,
            misses: stats.misses,
            entries: stats.entries as u64,
            shard_occupancy: stats.shard_occupancy.iter().map(|&c| c as u64).collect(),
            interner_size: stats.interner_size as u64,
        },
    );

    let records = sink.drain();
    let jsonl = jsonl(&records);
    if check {
        match validate_jsonl(&jsonl) {
            Ok(parsed) => eprintln!(
                "trace OK: {} records validate against schema v{}",
                parsed.len(),
                arcs_trace::SCHEMA_VERSION
            ),
            Err(e) => {
                eprintln!("trace INVALID: {e}");
                exit(1)
            }
        }
    }
    if let Some(path) = &chrome {
        let json = chrome_trace(&records).unwrap_or_else(|e| {
            eprintln!("cannot export chrome trace: {e}");
            exit(1)
        });
        write_file(path, &json);
        eprintln!("chrome trace written to {path:?}");
    }
    match &out {
        Some(path) => {
            write_file(path, &jsonl);
            eprintln!(
                "{} trace records written to {:?} ({}: {:.2}s, {:.0}J)",
                records.len(),
                path,
                report.strategy,
                report.time_s,
                report.energy_j
            );
        }
        None => print!("{jsonl}"),
    }
}

fn schedule_usage() -> ! {
    eprintln!(
        "usage: arcs-sim schedule [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--threads N] [--timesteps N] [--out PATH] [--json] [--check]"
    );
    exit(2)
}

/// `arcs-sim schedule`: the scheduling-policy portfolio bake-off. Runs
/// the workload once per fixed policy in [`arcs_omprt::ScheduleKind::ALL`]
/// (Table-I order, default chunk), then once from the default configuration
/// with [`arcs::Runner::adaptive_schedule`] switching mid-run, and prints one row
/// per run plus every ladder decision. The adaptive trace (`--out`) is
/// deterministic, so CI byte-compares two same-spec runs; `--check`
/// gates the adaptive result against the fixed portfolio.
fn schedule_main(argv: &[String]) {
    use arcs_omprt::{Schedule, ScheduleKind};

    let mut flags = Flags::new(argv, schedule_usage);
    let mut workload_spec = "mc.B".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut threads: Option<usize> = None;
    let mut timesteps: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut json = false;
    let mut check = false;
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload_spec = flags.value("--workload"),
            "--machine" => machine = flags.machine(),
            "--cap" => cap = Some(flags.parse("--cap")),
            "--threads" => threads = Some(flags.parse("--threads")),
            "--timesteps" => timesteps = Some(flags.parse("--timesteps")),
            "--out" => out = Some(flags.value("--out").into()),
            "--json" => json = true,
            "--check" => check = true,
            other => flags.fail(format!("unknown flag {other}")),
        }
    }
    let wl = flags.workload(&workload_spec, 45, timesteps);
    let cap = cap.unwrap_or(machine.power.tdp_w);
    let threads = threads.unwrap_or_else(|| machine.hw_threads());
    let fixed: Vec<(ScheduleKind, arcs::AppRunReport)> = ScheduleKind::ALL
        .iter()
        .map(|&kind| {
            let cfg = OmpConfig { threads, schedule: Schedule::new(kind, None) };
            let rep = Runner::new(&mut SimExecutor::new(machine.clone(), cap))
                .workload(&wl)
                .fixed(move |_| cfg, kind.name())
                .run()
                .unwrap_or_else(|e| {
                    eprintln!("fixed {} run failed: {e}", kind.name());
                    exit(1)
                });
            (kind, rep)
        })
        .collect();

    let sink = Arc::new(VecSink::new());
    let adaptive = Runner::new(&mut SimExecutor::new(machine.clone(), cap))
        .workload(&wl)
        .trace(sink.clone())
        .adaptive_schedule(true)
        .label("adaptive")
        .run()
        .unwrap_or_else(|e| {
            eprintln!("adaptive run failed: {e}");
            exit(1)
        });
    let records = sink.drain();
    let switches: Vec<(String, String, String, u64, f64)> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PolicySwitched { region, from, to, invocation, imbalance } => {
                Some((region.clone(), from.clone(), to.clone(), *invocation, *imbalance))
            }
            _ => None,
        })
        .collect();

    let edp = |rep: &arcs::AppRunReport| rep.energy_j * rep.time_s;
    if json {
        let artifact = ScheduleArtifact {
            workload: wl.name.clone(),
            machine: machine.name.clone(),
            cap_w: cap,
            threads,
            fixed: fixed
                .iter()
                .map(|(k, rep)| SchedulePoint {
                    policy: k.name().to_string(),
                    time_s: rep.time_s,
                    energy_j: rep.energy_j,
                    edp: edp(rep),
                })
                .collect(),
            adaptive: AdaptivePoint {
                time_s: adaptive.time_s,
                energy_j: adaptive.energy_j,
                edp: edp(&adaptive),
                config_change_overhead_s: adaptive.config_change_overhead_s,
                switches: switches
                    .iter()
                    .map(|(region, from, to, invocation, imbalance)| ScheduleSwitch {
                        region: region.clone(),
                        from: from.clone(),
                        to: to.clone(),
                        invocation: *invocation,
                        imbalance: *imbalance,
                    })
                    .collect(),
            },
        };
        println!("{}", serde_json::to_string_pretty(&artifact).expect("artifact serialises"));
    } else {
        println!(
            "schedule portfolio: {} on {} at {cap:.0}W, {threads} threads",
            wl.name, machine.name
        );
        for (kind, rep) in &fixed {
            println!(
                "  {:10} {:9.3}s {:9.0}J  edp {:11.1}",
                kind.name(),
                rep.time_s,
                rep.energy_j,
                edp(rep)
            );
        }
        println!(
            "  {:10} {:9.3}s {:9.0}J  edp {:11.1}  ({} switch(es), {:.3}s overhead)",
            "adaptive",
            adaptive.time_s,
            adaptive.energy_j,
            edp(&adaptive),
            switches.len(),
            adaptive.config_change_overhead_s
        );
        for (region, from, to, inv, imb) in &switches {
            println!("    {region}: {from} -> {to} at invocation {inv} (imbalance {imb:.3})");
        }
    }

    if let Some(path) = &out {
        write_file(path, &jsonl(&records));
        eprintln!("{} adaptive trace records written to {path:?}", records.len());
    }

    if check {
        let best = fixed.iter().map(|(_, r)| r.time_s).fold(f64::INFINITY, f64::min);
        let worst = fixed.iter().map(|(_, r)| r.time_s).fold(0.0, f64::max);
        if switches.is_empty() {
            eprintln!("schedule CHECK FAILED: the adaptive ladder never switched");
            exit(1)
        }
        if adaptive.time_s > best * 1.10 {
            eprintln!(
                "schedule CHECK FAILED: adaptive {:.3}s misses best fixed {best:.3}s by >10%",
                adaptive.time_s
            );
            exit(1)
        }
        if adaptive.time_s > worst * 0.90 {
            eprintln!(
                "schedule CHECK FAILED: adaptive {:.3}s within 10% of worst fixed {worst:.3}s",
                adaptive.time_s
            );
            exit(1)
        }
        eprintln!(
            "schedule OK: adaptive {:.3}s vs fixed best {best:.3}s / worst {worst:.3}s, \
             {} switch(es)",
            adaptive.time_s,
            switches.len()
        );
    }
}

/// The `schedule --json` artifact: one row per fixed policy plus the
/// adaptive run with its ladder decisions.
#[derive(Serialize)]
struct ScheduleArtifact {
    workload: String,
    machine: String,
    cap_w: f64,
    threads: usize,
    fixed: Vec<SchedulePoint>,
    adaptive: AdaptivePoint,
}

#[derive(Serialize)]
struct SchedulePoint {
    policy: String,
    time_s: f64,
    energy_j: f64,
    edp: f64,
}

#[derive(Serialize)]
struct AdaptivePoint {
    time_s: f64,
    energy_j: f64,
    edp: f64,
    config_change_overhead_s: f64,
    switches: Vec<ScheduleSwitch>,
}

#[derive(Serialize)]
struct ScheduleSwitch {
    region: String,
    from: String,
    to: String,
    invocation: u64,
    imbalance: f64,
}

fn chaos_usage() -> ! {
    eprintln!(
        "usage: arcs-sim chaos [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--plan {}] [--seed N] [--timesteps N] \
         [--budget N|none] [--out PATH] [--check]",
        FaultPlan::names().join("|")
    );
    exit(2)
}

/// `arcs-sim chaos`: run one workload under a named deterministic fault
/// plan with the standard self-healing preset, and report what was
/// injected and how the run recovered.
fn chaos_main(argv: &[String]) {
    let mut flags = Flags::new(argv, chaos_usage);
    let mut workload_spec = "lulesh".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut plan_name = "flaky-rapl".to_string();
    let mut seed: u64 = 0;
    let mut timesteps: Option<usize> = None;
    let mut budget: Option<Option<u64>> = None;
    let mut out: Option<PathBuf> = None;
    let mut check = false;
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload_spec = flags.value("--workload"),
            "--machine" => machine = flags.machine(),
            "--cap" => cap = Some(flags.parse("--cap")),
            "--plan" => plan_name = flags.value("--plan"),
            "--seed" => seed = flags.parse("--seed"),
            "--timesteps" => timesteps = Some(flags.parse("--timesteps")),
            "--budget" => {
                budget = Some(match flags.value("--budget").as_str() {
                    "none" => None,
                    v => Some(
                        v.parse()
                            .unwrap_or_else(|e| flags.fail(format!("invalid --budget {v}: {e}"))),
                    ),
                });
            }
            "--out" => out = Some(flags.value("--out").into()),
            "--check" => check = true,
            other => flags.fail(format!("unknown flag {other}")),
        }
    }
    let wl = flags.workload(&workload_spec, 45, timesteps);

    let Some(plan) = FaultPlan::by_name(&plan_name, seed) else {
        flags.fail(format!(
            "unknown fault plan {plan_name} (have: {})",
            FaultPlan::names().join(", ")
        ))
    };
    let mut res = ResilienceOptions::standard();
    if let Some(b) = budget {
        res.error_budget = b;
    }

    let cap = cap.unwrap_or(machine.power.tdp_w);
    let space = ConfigSpace::for_machine(&machine);
    let sink = Arc::new(VecSink::new());
    let mut tuner =
        RegionTuner::new(TunerOptions::new(space, TuningMode::Online(NmOptions::default())));
    let run = Runner::new(&mut SimExecutor::new(machine.clone(), cap))
        .workload(&wl)
        .trace(sink.clone())
        .tuner(&mut tuner)
        .label("arcs-online-chaos")
        .faults(plan)
        .resilience(res)
        .run();

    let records = sink.drain();
    if let Some(path) = &out {
        write_file(path, &jsonl(&records));
        eprintln!("{} trace records written to {path:?}", records.len());
    }

    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    for r in &records {
        if let TraceEvent::FaultInjected { kind, .. } = &r.event {
            *by_kind.entry(kind.clone()).or_default() += 1;
        }
    }
    let injected: u64 = by_kind.values().sum();

    println!("chaos: {} on {} at {cap:.0}W under {plan_name} (seed {seed})", wl.name, machine.name);
    let breakdown = by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect::<Vec<_>>().join(", ");
    println!(
        "injected {injected} fault(s){}",
        if breakdown.is_empty() { String::new() } else { format!(" ({breakdown})") }
    );

    let report = match run {
        Ok(report) => report,
        Err(e) => {
            println!("run FAILED: {e}");
            exit(1)
        }
    };
    let f = &report.faults;
    println!(
        "recovered: {} meter retries, {} hard faults absorbed, {} measurements rejected, \
         {} search restarts, {} regions frozen",
        f.meter_retries, f.hard_faults, f.rejected, f.restarts, f.frozen_regions
    );
    println!("status {}: {:.2}s, {:.0}J", report.status, report.time_s, report.energy_j);

    if check {
        if injected == 0 {
            eprintln!("chaos CHECK FAILED: the plan injected no faults");
            exit(1)
        }
        eprintln!(
            "chaos OK: {injected} faults injected, run completed {} (status {})",
            if report.status == RunStatus::Degraded { "degraded" } else { "cleanly" },
            report.status
        );
    }
}

fn report_usage() -> ! {
    eprintln!(
        "usage: arcs-sim report <trace.jsonl> [--format table|json|md] \
         [--objective time|energy|edp] [--out PATH]"
    );
    exit(2)
}

/// `arcs-sim report`: replay a recorded JSONL trace through the analysis
/// engine and render per-region, convergence, cache and overhead views.
fn report_main(argv: &[String]) {
    let mut flags = Flags::new(argv, report_usage);
    let mut path: Option<PathBuf> = None;
    let mut format = "table".to_string();
    let mut objective: Option<Objective> = None;
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = flags.next() {
        match arg {
            "--format" => format = flags.value("--format"),
            "--objective" => objective = Some(flags.parse("--objective")),
            "--out" => out = Some(flags.value("--out").into()),
            flag if flag.starts_with("--") => flags.fail(format!("unknown flag {flag}")),
            _ if path.is_none() => path = Some(arg.into()),
            _ => report_usage(),
        }
    }
    let Some(path) = path else { report_usage() };

    let mut report = arcs_metrics::analyze_path(&path).unwrap_or_else(|e| {
        eprintln!("cannot analyse {path:?}: {e}");
        exit(1)
    });
    if let Some(objective) = objective {
        report.objective = objective;
    }
    let rendered = match format.as_str() {
        "table" => report.to_table(),
        "json" => report.to_json(),
        "md" => report.to_markdown(),
        other => flags.fail(format!("unknown format {other}")),
    };
    match &out {
        Some(out) => {
            write_file(out, &rendered);
            eprintln!(
                "report ({} records, {} regions) written to {out:?}",
                report.records,
                report.regions.len()
            );
        }
        None => print!("{rendered}"),
    }
    if !report.overhead_consistent() {
        eprintln!(
            "warning: overhead cross-check failed (residual {:+.6}s) — \
             expected for live traces, suspicious for simulated ones",
            report.overhead_residual_s()
        );
    }
}

fn compare_usage() -> ! {
    eprintln!(
        "usage: arcs-sim compare <baseline.json> <candidate.json> \
         [--fail-on PCT] [--objective time|energy|edp] [--out PATH]"
    );
    exit(2)
}

/// `arcs-sim compare`: the perf-regression gate. Both inputs are JSON
/// reports produced by `arcs-sim report --format json`.
fn compare_main(argv: &[String]) {
    let mut flags = Flags::new(argv, compare_usage);
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut fail_on: f64 = 5.0;
    let mut objective = Objective::Time;
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = flags.next() {
        match arg {
            "--fail-on" => fail_on = flags.parse("--fail-on"),
            "--objective" => objective = flags.parse("--objective"),
            "--out" => out = Some(flags.value("--out").into()),
            flag if flag.starts_with("--") => flags.fail(format!("unknown flag {flag}")),
            _ => paths.push(arg.into()),
        }
    }
    if paths.len() != 2 {
        compare_usage()
    }

    let load = |path: &PathBuf| -> arcs_metrics::TraceReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path:?}: {e}");
            exit(1)
        });
        arcs_metrics::TraceReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path:?} is not a JSON trace report: {e}");
            exit(1)
        })
    };
    let baseline = load(&paths[0]);
    let candidate = load(&paths[1]);
    let cmp = arcs_metrics::compare_reports_for(&baseline, &candidate, fail_on, objective);

    print!("{}", cmp.to_table());
    if let Some(out) = &out {
        write_file(out, &cmp.to_json());
        eprintln!("comparison artifact written to {out:?}");
    }
    if cmp.regressed() {
        eprintln!("FAIL: {objective} regression beyond {fail_on}% threshold");
        exit(1)
    }
    eprintln!("OK: no region regressed beyond {fail_on}% on {objective}");
}

fn figure_usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: arcs-sim figure <{}|all>", names.join("|"));
    exit(2)
}

/// `arcs-sim figure`: print one paper table/figure, or every one in
/// presentation order.
fn figure_main(argv: &[String]) {
    match argv {
        [name] if name == "all" => FIGURES.iter().for_each(|(_, render)| print!("{}", render())),
        [name] => match figures::figure(name) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("unknown figure {name}");
                figure_usage()
            }
        },
        _ => figure_usage(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        Some("trace") => trace_main(rest),
        Some("schedule") => schedule_main(rest),
        Some("chaos") => chaos_main(rest),
        Some("report") => report_main(rest),
        Some("compare") => compare_main(rest),
        Some("figure") => figure_main(rest),
        _ => run_main(&argv),
    }
}
