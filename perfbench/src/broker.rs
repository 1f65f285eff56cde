//! The `broker` workload: an in-process [`Broker`] on 8 crill nodes under
//! the `node-flap` fault preset, with a write-ahead journal and a JSONL
//! trace on disk, fed the load generator's seeded 4-tenant stream; each
//! iteration is recovered from its journal afterwards.

use crate::calib::HostSpeed;
use crate::inputs::{self, sub_seed, Digest, DEFAULT_SEED};
use crate::outcome::{peak_rss_mb, Outcome};
use crate::stats::{mean, median, percentile, spread};
use arcs::ResilienceOptions;
use arcs_metrics::{analyze_path, TraceReport};
use arcs_powersim::{Fleet, Machine, NodeFaultPlan, SharedSimCache};
use arcs_serve::{load_journal, Broker, BrokerConfig, BrokerCounters, BrokerJournal, CompletedJob};
use arcs_trace::{JsonlSink, NullSink, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const NODES: usize = 8;
pub const BUDGET_W: f64 = 100.0 * NODES as f64;
/// Jobs per iteration; a run repeats iterations on fresh sub-seeds.
const JOBS: usize = 2000;
/// Set-ups (fleet, broker, journal and trace files, stream generation)
/// timed before each iteration, so the set-up samples span the run as
/// the iterations do: about a hundred in a 30 s run.
const SETUPS_PER_ITERATION: usize = 3;

/// Golden digest of the default seed's first iteration: counters plus
/// the completion set.
const GOLDEN_BROKER_DIGEST: u64 = 0x4e57_b7d3_1159_9e3f;

fn config(seed: u64) -> BrokerConfig {
    let mut cfg = BrokerConfig::new(BUDGET_W);
    // The load generator's deliberately brittle ladder: no read retries
    // and a one-fault error budget, so flaky-RAPL jobs really degrade.
    let mut resilience = ResilienceOptions::standard();
    resilience.max_read_retries = 0;
    resilience.error_budget = Some(1);
    cfg.resilience = Some(resilience);
    cfg.node_faults = Some(NodeFaultPlan::node_flap(seed));
    cfg
}

/// A broker with its files, ready for the first submission.
struct Live {
    broker: Broker,
    sink: Arc<dyn TraceSink>,
    jsonl: Arc<JsonlSink<File>>,
    cache: Arc<SharedSimCache>,
    journal: PathBuf,
    trace: PathBuf,
}

fn start(
    seed: u64,
    dir: &Path,
    tag: &str,
    wrap: impl FnOnce(Arc<dyn TraceSink>) -> Arc<dyn TraceSink>,
) -> Live {
    let journal = dir.join(format!("broker-{tag}.journal.jsonl"));
    let trace = dir.join(format!("broker-{tag}.trace.jsonl"));
    let fleet = Fleet::homogeneous(Machine::crill(), NODES);
    let cache = Arc::clone(fleet.cache_for("crill").expect("a crill fleet has a crill cache"));
    let jsonl = Arc::new(JsonlSink::create(&trace).expect("creating the trace file"));
    let sink = wrap(Arc::clone(&jsonl) as Arc<dyn TraceSink>);
    let mut broker = Broker::new(fleet, config(seed), Arc::clone(&sink));
    broker.attach_journal(BrokerJournal::create(&journal).expect("creating the journal"));
    Live { broker, sink, jsonl, cache, journal, trace }
}

/// Host time of each broker call of one iteration.
struct CallTimes {
    submit_s: Vec<f64>,
    step_s: Vec<f64>,
    drain_s: f64,
    /// Every call, the final idle step included.
    total_s: f64,
    /// Per call: did it emit a `CapReallocated`, and its time (traced
    /// runs only).
    realloc: Vec<(bool, f64)>,
}

/// Replay the seeded stream: each submission is followed by 0–2 steps,
/// and the run drains by stepping until idle — what `run_until_idle`
/// does, one timed call at a time, so drain steps are latency samples
/// too. (Submits are about a quarter of all calls; without the drain
/// steps the median call would sit on the edge between the cheap
/// submits and the dearer steps.) Host-speed samples, when asked for,
/// are taken between calls.
fn drive(
    live: &mut Live,
    seed: u64,
    tagger: Option<&Tagger>,
    mut host: Option<&mut HostSpeed>,
) -> CallTimes {
    let stream = inputs::job_stream(seed, JOBS, BUDGET_W);
    let steps = inputs::steps_after_submit(seed, JOBS);
    let mut submit_s = Vec::with_capacity(JOBS);
    let mut step_s = Vec::with_capacity(2 * JOBS);
    let mut realloc = Vec::new();
    let mut total_s = 0.0;
    let mut call = |phase: u8, f: &mut dyn FnMut()| -> f64 {
        if let Some(h) = host.as_deref_mut() {
            h.tick();
        }
        if let Some(t) = tagger {
            t.begin(phase);
        }
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        if let Some(t) = tagger {
            realloc.push((t.end(), dt));
        }
        total_s += dt;
        dt
    };
    for (spec, n) in stream.into_iter().zip(steps) {
        let mut spec = Some(spec);
        submit_s.push(call(PHASE_SUBMIT, &mut || {
            live.broker.submit(spec.take().expect("submitted once"));
        }));
        for _ in 0..n {
            step_s.push(call(PHASE_STEP, &mut || {
                live.broker.step();
            }));
        }
    }
    let mut drain_s = 0.0;
    loop {
        let mut stepped = false;
        let dt = call(PHASE_DRAIN, &mut || stepped = live.broker.step());
        if !stepped {
            break;
        }
        step_s.push(dt);
        drain_s += dt;
    }
    CallTimes { submit_s, step_s, drain_s, total_s, realloc }
}

/// What one iteration left behind.
struct Finished {
    counters: BrokerCounters,
    completed: BTreeMap<u64, CompletedJob>,
    journal: PathBuf,
    trace: PathBuf,
    cache: Arc<SharedSimCache>,
}

fn finish(out: &mut Outcome, live: Live) -> Finished {
    let counters = live.broker.counters();
    let completed = live.broker.completed_jobs().clone();
    let journal_error = live.broker.journal_error();
    out.check(journal_error.is_none(), counters.submitted, || {
        format!("journal write failed: {journal_error:?}")
    });
    drop(live.broker);
    drop(live.sink);
    let flushed = live.jsonl.flush();
    out.check(flushed.is_ok(), counters.submitted, || format!("trace flush failed: {flushed:?}"));
    Finished { counters, completed, journal: live.journal, trace: live.trace, cache: live.cache }
}

fn digest(c: &BrokerCounters, completed: &BTreeMap<u64, CompletedJob>) -> u64 {
    let mut d = Digest::new();
    for v in [c.submitted, c.completed, c.rejected, c.degraded, c.failed, c.shed, c.requeued] {
        d.word(v);
    }
    for job in completed.values() {
        d.word(job.job);
        d.word(job.node);
        d.bytes(job.status.to_string().as_bytes());
        d.word(job.time_s.to_bits());
        d.word(job.energy_j.to_bits());
    }
    d.finish()
}

/// Output checks on a finished iteration, against its own trace file,
/// whose analysis is returned when the file could be read.
fn check_run(out: &mut Outcome, f: &Finished, seed: u64, golden: bool) -> Option<TraceReport> {
    let c = &f.counters;
    let n = c.submitted;
    out.check(n == JOBS as u64, n, || format!("submitted {n} of {JOBS} jobs"));
    out.check(c.queued == 0 && c.running == 0, n, || {
        format!("not idle after the drain: {} queued, {} running", c.queued, c.running)
    });
    let terminal = c.completed + c.rejected + c.failed + c.shed;
    out.check(terminal == n, n.abs_diff(terminal), || {
        format!(
            "submitted {n} != completed {} + rejected {} + failed {} + shed {}",
            c.completed, c.rejected, c.failed, c.shed
        )
    });
    out.check(c.rejected > 0, n, || "no planted inadmissible job was rejected".into());
    let report = match analyze_path(&f.trace) {
        Ok(report) => {
            let b = &report.broker;
            out.check(b.lost_jobs() == 0, b.lost_jobs().unsigned_abs(), || {
                format!("{} job(s) lost in the trace", b.lost_jobs())
            });
            out.check(b.over_budget_events == 0, n, || {
                format!("{} reallocation(s) over the {BUDGET_W} W budget", b.over_budget_events)
            });
            let r = &report.recovery;
            out.check(r.node_failures > 0 && r.requeues > 0, n, || {
                format!(
                    "chaos did not bite: {} node failure(s), {} requeue(s)",
                    r.node_failures, r.requeues
                )
            });
            Some(report)
        }
        Err(err) => {
            out.check(false, n, || format!("trace unreadable: {err}"));
            None
        }
    };
    if golden && seed == DEFAULT_SEED {
        let d = digest(c, &f.completed);
        out.check(d == GOLDEN_BROKER_DIGEST, n, || {
            format!("broker digest {d:#018x} != golden {GOLDEN_BROKER_DIGEST:#018x}")
        });
        out.note(format!("broker golden digest {d:#018x}"));
    }
    report
}

/// Recover a broker from `f`'s journal (tracing off) and check it matches
/// the live run. Returns (recovery seconds, journal records).
fn recover(out: &mut Outcome, f: &Finished) -> (f64, u64) {
    let records = std::fs::read_to_string(&f.journal)
        .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count() as u64)
        .unwrap_or(0);
    let t = Instant::now();
    let recovered = Broker::recover(&f.journal, Arc::new(NullSink), None);
    let dt = t.elapsed().as_secs_f64();
    let n = f.counters.submitted;
    match recovered {
        Ok(b) => {
            let c = b.counters();
            out.check(c == f.counters, n, || {
                format!("recovered counters {c:?} != live {:?}", f.counters)
            });
            out.check(b.completed_jobs() == &f.completed, n, || {
                "recovered completion set differs from the live run's".into()
            });
        }
        Err(err) => out.check(false, n, || format!("recovery failed: {err}")),
    }
    (dt, records)
}

fn cleanup(f: &Finished) {
    let _ = std::fs::remove_file(&f.journal);
    let _ = std::fs::remove_file(&f.trace);
}

fn iteration_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        seed
    } else {
        sub_seed(seed, i)
    }
}

pub fn run(seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_host = HostSpeed::default();
    let mut setups = Vec::new();
    let mut host = HostSpeed::default();

    let mut completed = 0u64;
    // Completed jobs per second of each iteration's live run, measured and
    // scaled to the reference host by the iteration's own host samples.
    let (mut rates, mut scaled) = (Vec::new(), Vec::new());
    // Call latency percentiles of each iteration, measured and scaled.
    // Their median over the run is reported, like `ops_per_s`; keeping one
    // iteration's samples at a time also keeps peak RSS independent of how
    // many iterations fit.
    let (mut p50, mut p95, mut samples) = (Vec::new(), Vec::new(), 0usize);
    let (mut scaled_p50, mut scaled_p95) = (Vec::new(), Vec::new());
    let (mut recovery_s, mut records) = (0.0, 0u64);
    let started = Instant::now();
    let mut i = 0u64;
    while started.elapsed().as_secs_f64() < seconds || i == 0 {
        let s = iteration_seed(seed, i);
        for _ in 0..SETUPS_PER_ITERATION {
            let t = Instant::now();
            let live = start(s, dir, "setup", |s| s);
            let stream = inputs::job_stream(s, JOBS, BUDGET_W);
            setups.push(t.elapsed().as_secs_f64());
            drop(stream);
            let f = finish(&mut out, live);
            cleanup(&f);
            setup_host.sample();
        }
        let mut live = start(s, dir, "run", |s| s);
        let from = host.window();
        let times = drive(&mut live, s, None, Some(&mut host));
        let k = host.slowdown_since(from);
        let f = finish(&mut out, live);
        out.attempted += f.counters.submitted;
        completed += f.counters.completed;
        rates.push(f.counters.completed as f64 / times.total_s);
        scaled.push(f.counters.completed as f64 / times.total_s * k);
        let calls_ms: Vec<f64> =
            times.submit_s.iter().chain(&times.step_s).map(|s| s * 1e3).collect();
        match (percentile(&calls_ms, 50.0), percentile(&calls_ms, 95.0)) {
            (Some(a), Some(b)) => {
                p50.push(a);
                p95.push(b);
                scaled_p50.push(a / k);
                scaled_p95.push(b / k);
            }
            _ => out.check(false, f.counters.submitted, || "too few call samples for a p95".into()),
        }
        samples += calls_ms.len();
        check_run(&mut out, &f, seed, i == 0);
        let (dt, n) = recover(&mut out, &f);
        recovery_s += dt;
        records += n;
        cleanup(&f);
        i += 1;
    }
    // Every time scaled to the reference host (see `calib`): set-up by the
    // host samples taken between set-ups, each iteration by its own.
    let setup_s = median(&setups);
    out.metric("ops_per_s", median(&scaled), "1/s");
    out.metric("latency_ms.p50", median(&scaled_p50), "ms");
    out.metric("latency_ms.p95", median(&scaled_p95), "ms");
    out.metric("setup_s", setup_s / setup_host.slowdown(), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note(format!(
        "{i} iteration(s) of {JOBS} jobs, {completed} completed, {} call latency samples; \
         measured jobs/s per iteration min / median / max {}; \
         recovery {:.2} ms per 1k journal records ({records} records)",
        samples,
        spread(&rates),
        recovery_s * 1e3 / records as f64 * 1e3
    ));
    out.note(format!(
        "measured: {:.3} jobs/s, p50 {:.5} ms, p95 {:.5} ms, set-up {setup_s:.6} s",
        median(&rates),
        median(&p50),
        median(&p95),
    ));
    out.note(format!("set-up {}", setup_host.note()));
    out.note(host.note());
    out
}

const PHASE_NONE: u8 = 0;
const PHASE_SUBMIT: u8 = 1;
const PHASE_STEP: u8 = 2;
const PHASE_DRAIN: u8 = 3;

/// A forwarding [`TraceSink`]: times and counts every record on its way
/// to the wrapped sink, and tags it with the broker call that emitted it.
pub struct Tagger {
    inner: Arc<dyn TraceSink>,
    phase: AtomicU8,
    realloc_in_call: AtomicBool,
    records: [AtomicU64; 4],
    record_ns: [AtomicU64; 4],
}

impl Tagger {
    pub fn new(inner: Arc<dyn TraceSink>) -> Self {
        Tagger {
            inner,
            phase: AtomicU8::new(PHASE_NONE),
            realloc_in_call: AtomicBool::new(false),
            records: Default::default(),
            record_ns: Default::default(),
        }
    }

    fn begin(&self, phase: u8) {
        self.phase.store(phase, Ordering::Relaxed);
        self.realloc_in_call.store(false, Ordering::Relaxed);
    }

    /// Close the current call; true when it emitted a reallocation.
    fn end(&self) -> bool {
        self.phase.store(PHASE_NONE, Ordering::Relaxed);
        self.realloc_in_call.load(Ordering::Relaxed)
    }

    fn total(counts: &[AtomicU64; 4]) -> u64 {
        counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl TraceSink for Tagger {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, t_s: Option<f64>, event: TraceEvent) {
        let t = Instant::now();
        if matches!(event, TraceEvent::CapReallocated { .. }) {
            self.realloc_in_call.store(true, Ordering::Relaxed);
        }
        self.inner.record(t_s, event);
        let phase = self.phase.load(Ordering::Relaxed) as usize;
        self.records[phase].fetch_add(1, Ordering::Relaxed);
        self.record_ns[phase].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

fn pct(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(f64::NAN)
}

/// The traced breakdown: the default iteration run untraced for
/// reference, then traced through a [`Tagger`], then its journal and
/// recovery costs split into load, replay and append.
pub fn traced(seed: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    // The untraced reference runs before and after the traced run, so
    // warm-up and drift do not land on one side of the comparison.
    let untraced = |out: &mut Outcome| {
        let mut live = start(seed, dir, "ref", |s| s);
        let t = Instant::now();
        drive(&mut live, seed, None, None);
        let secs = t.elapsed().as_secs_f64();
        let f = finish(out, live);
        out.attempted += f.counters.submitted;
        cleanup(&f);
        (secs, f)
    };
    let (before_s, reference) = untraced(&mut out);

    let mut tagger = None;
    let mut live = start(seed, dir, "traced", |s| {
        let t = Arc::new(Tagger::new(s));
        tagger = Some(Arc::clone(&t));
        t
    });
    let tagger = tagger.expect("the wrap closure ran");
    let t = Instant::now();
    let times = drive(&mut live, seed, Some(&tagger), None);
    let wall_s = t.elapsed().as_secs_f64();
    let f = finish(&mut out, live);
    out.attempted += f.counters.submitted;
    let recovery = check_run(&mut out, &f, seed, false).map(|r| r.recovery).unwrap_or_default();
    let n = f.counters.submitted;
    out.check(f.counters == reference.counters && f.completed == reference.completed, n, || {
        "traced run differs from the untraced run".into()
    });
    let (after_s, _) = untraced(&mut out);
    let untraced_s = (before_s + after_s) / 2.0;

    // Journal: load it, then re-append its own records into a fresh one.
    let t = Instant::now();
    let records = load_journal(&f.journal).map_err(|e| e.to_string());
    let load_s = t.elapsed().as_secs_f64();
    let records = match records {
        Ok(r) => r,
        Err(err) => {
            out.check(false, n, || format!("journal unreadable: {err}"));
            Vec::new()
        }
    };
    let copy = dir.join("broker-append.journal.jsonl");
    let journal = BrokerJournal::create(&copy).expect("creating the append journal");
    let t = Instant::now();
    for rec in &records {
        journal.append(rec.t_s.unwrap_or(0.0), rec.event.clone());
    }
    let append_s = t.elapsed().as_secs_f64();
    drop(journal);
    let _ = std::fs::remove_file(&copy);
    let (recover_s, _) = recover(&mut out, &f);
    let nrec = records.len().max(1) as f64;

    let us = |v: &[f64]| v.iter().map(|s| s * 1e6).collect::<Vec<f64>>();
    let submit_us = us(&times.submit_s);
    let step_us = us(&times.step_s);
    let realloc_us: Vec<f64> =
        times.realloc.iter().filter(|(r, _)| *r).map(|(_, s)| s * 1e6).collect();
    let trace_records = Tagger::total(&tagger.records);
    let trace_s = Tagger::total(&tagger.record_ns) as f64 * 1e-9;
    let append_us = append_s * 1e6 / nrec;
    // The live run appended the same records, at about the same cost.
    let journal_est_s = append_s;
    let calls_s = times.submit_s.iter().chain(&times.step_s).sum::<f64>();
    let core_s = calls_s - trace_s - journal_est_s;
    let unattributed_s = wall_s - calls_s;
    let completed = f.counters.completed as f64;

    let m = |name: &str| format!("broker.{name}");
    out.metric(m("serve.broker.submit_us.p50"), pct(&submit_us, 50.0), "us");
    out.metric(m("serve.broker.submit_us.p99"), pct(&submit_us, 99.0), "us");
    out.metric(m("serve.broker.step_us.p50"), pct(&step_us, 50.0), "us");
    out.metric(m("serve.broker.step_us.p99"), pct(&step_us, 99.0), "us");
    out.metric(m("serve.broker.drain_s"), times.drain_s, "s");
    out.metric(m("serve.broker.realloc_calls"), realloc_us.len() as f64, "count");
    out.metric(m("serve.broker.realloc_call_us"), mean(&realloc_us), "us");
    out.metric(m("serve.broker.requeues"), recovery.requeues as f64, "count");
    out.metric(m("serve.broker.node_failures"), recovery.node_failures as f64, "count");
    out.metric(m("serve.broker.core_s"), core_s, "s");
    out.metric(m("powersim.memo.node_hit_ratio"), f.cache.stats().hit_rate(), "ratio");
    out.metric(m("trace.records"), trace_records as f64, "count");
    out.metric(m("trace.record_ns"), trace_s * 1e9 / trace_records.max(1) as f64, "ns");
    out.metric(m("trace.total_s"), trace_s, "s");
    out.metric(m("serve.journal.records"), nrec, "count");
    out.metric(m("serve.journal.append_us"), append_us, "us");
    out.metric(m("serve.journal.est_s"), journal_est_s, "s");
    out.metric(m("serve.recover.load_ms_per_1k"), load_s * 1e3 / nrec * 1e3, "ms");
    out.metric(m("serve.recover.replay_ms_per_1k"), (recover_s - load_s) * 1e3 / nrec * 1e3, "ms");
    out.metric(m("serve.recover.ms_per_1k"), recover_s * 1e3 / nrec * 1e3, "ms");
    out.metric(m("unattributed_s"), unattributed_s, "s");
    out.metric(m("wall_s"), wall_s, "s");
    out.metric(m("trace.ops_per_s"), completed / wall_s, "1/s");
    out.metric(m("trace.overhead_pct"), (wall_s / untraced_s - 1.0) * 100.0, "%");
    out.note(format!(
        "broker: wall {wall_s:.3} s = calls {calls_s:.3} (core {core_s:.3} + trace {trace_s:.3} \
         + journal≈{journal_est_s:.3}) + unattributed {unattributed_s:.4}; \
         {} submits, {} steps, {trace_records} trace records ({} in submit, {} in step, {} in drain)",
        submit_us.len(),
        step_us.len(),
        tagger.records[PHASE_SUBMIT as usize].load(Ordering::Relaxed),
        tagger.records[PHASE_STEP as usize].load(Ordering::Relaxed),
        tagger.records[PHASE_DRAIN as usize].load(Ordering::Relaxed),
    ));
    cleanup(&f);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_serve::JobSpec;

    fn small_run(sink: Arc<dyn TraceSink>) {
        let fleet = Fleet::homogeneous(Machine::crill(), 2);
        let mut broker = Broker::new(fleet, config(5), sink);
        for spec in inputs::job_stream(5, 12, 200.0) {
            broker.submit(spec);
            broker.step();
        }
        broker.submit(JobSpec::new("tenant0", "ep.S").timesteps(4));
        broker.run_until_idle();
    }

    #[test]
    fn forwarding_sink_writes_the_same_jsonl_as_a_plain_sink() {
        let plain = Arc::new(JsonlSink::new(Vec::new()));
        small_run(Arc::clone(&plain) as Arc<dyn TraceSink>);
        let plain = Arc::try_unwrap(plain).ok().expect("broker dropped").into_inner().unwrap();

        let wrapped = Arc::new(JsonlSink::new(Vec::new()));
        let tagger = Arc::new(Tagger::new(Arc::clone(&wrapped) as Arc<dyn TraceSink>));
        small_run(Arc::clone(&tagger) as Arc<dyn TraceSink>);
        let recorded = Tagger::total(&tagger.records);
        drop(tagger);
        let wrapped = Arc::try_unwrap(wrapped).ok().expect("tagger dropped").into_inner().unwrap();

        assert!(!plain.is_empty());
        assert_eq!(plain, wrapped);
        assert_eq!(recorded as usize, plain.iter().filter(|&&b| b == b'\n').count());
    }
}
