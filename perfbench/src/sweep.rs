//! The figure-sweep workloads (`sweep-cold`, `sweep-warm`) and their
//! traced breakdown.
//!
//! A pass runs the grid's cells one single-cell [`SweepGrid`] at a time
//! through [`SweepEngine::run`] and times each call, so every cell gets a
//! latency sample.
//!
//! Timed passes run the cells one after another on one thread, so a
//! cell's latency is its own cost, not its share of a contended machine,
//! and a pass carries no straggler tail. Host-speed samples are taken
//! between cells. The traced run adds one parallel pass per grid, handed
//! to a pool of closed-loop workers, to report that tail, and measures
//! what the one-cell-grid calls cost over one whole-grid call.

use crate::calib::HostSpeed;
use crate::inputs::{self, Digest, DEFAULT_SEED};
use crate::outcome::{peak_rss_mb, Outcome};
use crate::stats::{median, percentile, spread};
use arcs::backend::{Backend, RegionRun, RunError, Runner};
use arcs::{
    AppRunReport, CapHandle, ConfigSpace, RegionTuner, SimExecutor, SweepEngine, SweepGrid,
    SweepStrategy, TunedConfig, TunerOptions,
};
use arcs_metrics::{Counter, MetricsRegistry};
use arcs_omprt::schedule::chunk_count;
use arcs_powersim::{
    CacheSnapshot, FaultPlan, Machine, MeasureError, RegionModel, SharedSimCache,
    WorkloadDescriptor,
};
use arcs_trace::{Objective, TraceSink};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Golden digest of every cell's simulated `time_s`/`energy_j` bits for
/// [`DEFAULT_SEED`]'s grid.
const GOLDEN_SWEEP_DIGEST: u64 = 0x70a7_7524_91ec_8fa7;

/// Cold fills timed for `sweep-warm`'s set-up; the median is reported.
const WARM_FILLS: usize = 3;
/// Warm passes of each shape timed to measure the harness cost.
const HARNESS_REPEATS: usize = 5;
/// Set-ups (grid generation + a fresh engine) timed before each
/// `sweep-cold` pass, so the set-up samples span the run as the passes
/// do: about a hundred in a 30 s run.
const SETUPS_PER_PASS: usize = 13;

/// Simulated results of one cell, bit for bit.
pub type CellBits = (u64, u64);

fn bits(report: &AppRunReport) -> CellBits {
    (report.time_s.to_bits(), report.energy_j.to_bits())
}

fn digest(cells: &[CellBits]) -> u64 {
    let mut d = Digest::new();
    for &(t, e) in cells {
        d.word(t);
        d.word(e);
    }
    d.finish()
}

fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// One pass of a closed-loop worker pool over `n` items.
pub struct PoolRun<T, S> {
    /// Results in item order.
    pub out: Vec<T>,
    pub wall_s: f64,
    /// Σ over workers of the time between running out of items and the
    /// end of the pass: the straggler tail.
    pub idle_s: f64,
    /// Each worker's private state.
    pub states: Vec<S>,
}

pub fn pool<T: Send, S: Default + Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize, &mut S) -> T + Sync,
) -> PoolRun<T, S> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_worker: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut state = S::default();
                    let mut done = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        done.push((idx, f(idx, &mut state)));
                    }
                    (done, state, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut items: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut states = Vec::new();
    let mut idle_s = 0.0;
    for (done, state, finished_s) in per_worker {
        items.extend(done);
        states.push(state);
        idle_s += wall_s - finished_s;
    }
    items.sort_by_key(|(idx, _)| *idx);
    let out = items.into_iter().map(|(_, out)| out).collect();
    PoolRun { out, wall_s, idle_s, states }
}

/// One pass of the grid through `engine` on `workers` workers.
fn engine_pass(engine: &SweepEngine, cells: &[SweepGrid], workers: usize) -> PoolRun<CellBits, ()> {
    pool(cells.len(), workers, |i, _: &mut ()| {
        let rep = engine.run(&cells[i]);
        bits(&rep.cells[0].report)
    })
}

/// One timed pass: the cells one after another on this thread, with a
/// host-speed sample between cells when one is due. Returns each cell's
/// bits and latency, in cell order.
fn timed_pass(
    engine: &SweepEngine,
    cells: &[SweepGrid],
    host: &mut HostSpeed,
) -> (Vec<CellBits>, Vec<f64>) {
    let mut out = Vec::with_capacity(cells.len());
    let mut latency_s = Vec::with_capacity(cells.len());
    for cell in cells {
        host.tick();
        let t = Instant::now();
        let rep = engine.run(cell);
        latency_s.push(t.elapsed().as_secs_f64());
        out.push(bits(&rep.cells[0].report));
    }
    (out, latency_s)
}

fn fresh_engine() -> SweepEngine {
    // One worker per engine call: a parallel pass gets its parallelism
    // from its own pool.
    SweepEngine::new(Machine::crill()).with_workers(1)
}

/// Per-pass throughput and per-cell latency over a run's timed passes,
/// as measured and scaled to the reference host (see `calib`).
#[derive(Default)]
struct Timed {
    cells: u64,
    /// Cells per second of each pass, measured and scaled.
    rates: Vec<f64>,
    scaled_rates: Vec<f64>,
    /// Per-cell latency, ms, measured and scaled.
    latency_ms: Vec<f64>,
    scaled_latency_ms: Vec<f64>,
    passes: u64,
}

impl Timed {
    /// Add a pass whose host was `slowdown` times slower than the
    /// reference host.
    fn add(&mut self, latency_s: &[f64], slowdown: f64) {
        let rate = latency_s.len() as f64 / latency_s.iter().sum::<f64>();
        self.cells += latency_s.len() as u64;
        self.rates.push(rate);
        self.scaled_rates.push(rate * slowdown);
        self.latency_ms.extend(latency_s.iter().map(|s| s * 1e3));
        self.scaled_latency_ms.extend(latency_s.iter().map(|s| s * 1e3 / slowdown));
        self.passes += 1;
    }

    /// Report the run's scaled figures; `setup_s` is already scaled.
    fn report(&self, out: &mut Outcome, setup_s: f64, host: &HostSpeed) {
        let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(f64::NAN);
        let ms = &self.scaled_latency_ms;
        // The median pass, so a burst of host contention during a minority
        // of passes does not move the run's figure.
        out.metric("ops_per_s", median(&self.scaled_rates), "1/s");
        out.metric("latency_ms.p50", pct(ms, 50.0), "ms");
        out.metric("latency_ms.p95", pct(ms, 95.0), "ms");
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.note(format!(
            "{} timed pass(es), {} cells, {} latency samples, 1 worker; \
             measured cells/s per pass min / median / max {}",
            self.passes,
            self.cells,
            ms.len(),
            spread(&self.rates),
        ));
        out.note(format!(
            "measured: {:.3} cells/s, p50 {:.4} ms, p95 {:.4} ms",
            median(&self.rates),
            pct(&self.latency_ms, 50.0),
            pct(&self.latency_ms, 95.0),
        ));
        out.note(host.note());
    }
}

fn check_cells(out: &mut Outcome, got: &[CellBits], want: &[CellBits], what: &str) {
    let bad = got.iter().zip(want).filter(|(a, b)| a != b).count() as u64
        + got.len().abs_diff(want.len()) as u64;
    out.check(bad == 0, bad, || format!("{what}: {bad} cell(s) differ from the reference"));
}

fn check_golden(out: &mut Outcome, seed: u64, cells: &[CellBits]) {
    if seed == DEFAULT_SEED {
        let d = digest(cells);
        out.check(d == GOLDEN_SWEEP_DIGEST, cells.len() as u64, || {
            format!("sweep digest {d:#018x} != golden {GOLDEN_SWEEP_DIGEST:#018x}")
        });
        out.note(format!("sweep golden digest {d:#018x}"));
    }
}

/// `sweep-cold`: every pass runs the grid on a fresh engine.
pub fn cold(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_host = HostSpeed::default();
    let mut setups = Vec::new();
    let mut cells = Vec::new();
    let mut host = HostSpeed::default();
    let mut timed = Timed::default();
    let mut reference: Option<Vec<CellBits>> = None;
    let started = Instant::now();
    let mut last_engine = None;
    while started.elapsed().as_secs_f64() < seconds || timed.passes == 0 {
        drop(last_engine.take());
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let grid = inputs::sweep_grid(seed);
            cells = inputs::single_cell_grids(&grid);
            let engine = fresh_engine();
            setups.push(t.elapsed().as_secs_f64());
            drop(engine);
            setup_host.sample();
        }
        let engine = fresh_engine();
        let from = host.window();
        let (got, latency_s) = timed_pass(&engine, &cells, &mut host);
        let stats = engine.cache().stats();
        timed.add(&latency_s, host.slowdown_since(from));
        out.attempted += got.len() as u64;
        out.check(stats.misses == stats.entries as u64, got.len() as u64, || {
            format!("cold misses {} != distinct entries {}", stats.misses, stats.entries)
        });
        match &reference {
            None => reference = Some(got),
            Some(r) => check_cells(&mut out, &got, r, "cold pass"),
        }
        last_engine = Some(engine);
    }
    let reference = reference.expect("at least one pass ran");
    // The same cells warm: no misses, the same bits.
    let engine = last_engine.expect("at least one pass ran");
    let before = engine.cache().stats();
    let (warm, _) = timed_pass(&engine, &cells, &mut host);
    let misses = engine.cache().stats().misses - before.misses;
    out.check(misses == 0, warm.len() as u64, || format!("warm re-pass missed {misses} times"));
    check_cells(&mut out, &warm, &reference, "warm re-pass");
    check_golden(&mut out, seed, &reference);
    out.note(format!("measured set-up {:.6} s; set-up {}", median(&setups), setup_host.note()));
    timed.report(&mut out, median(&setups) / setup_host.slowdown(), &host);
    out
}

/// `sweep-warm`: set-up fills the engine's cache; timed passes hit only.
pub fn warm(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_host = HostSpeed::default();
    // Each fill measured, and scaled by its own host samples.
    let (mut fills, mut scaled_fills) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<CellBits>> = None;
    let mut filled = None;
    let mut cells = Vec::new();
    for _ in 0..WARM_FILLS {
        drop(filled.take());
        let from = setup_host.window();
        let t = Instant::now();
        let grid = inputs::sweep_grid(seed);
        cells = inputs::single_cell_grids(&grid);
        let engine = fresh_engine();
        let build_s = t.elapsed().as_secs_f64();
        let (got, latency_s) = timed_pass(&engine, &cells, &mut setup_host);
        // The fill's own time: host samples between its cells are left out.
        let fill_s = build_s + latency_s.iter().sum::<f64>();
        fills.push(fill_s);
        scaled_fills.push(fill_s / setup_host.slowdown_since(from));
        let stats = engine.cache().stats();
        out.check(stats.misses == stats.entries as u64, got.len() as u64, || {
            format!("fill misses {} != distinct entries {}", stats.misses, stats.entries)
        });
        match &reference {
            None => reference = Some(got),
            Some(r) => check_cells(&mut out, &got, r, "cold fill"),
        }
        filled = Some(engine);
    }
    let engine = filled.expect("at least one fill ran");
    let reference = reference.expect("at least one fill ran");

    let mut host = HostSpeed::default();
    let mut timed = Timed::default();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || timed.passes == 0 {
        let before = engine.cache().stats();
        let from = host.window();
        let (got, latency_s) = timed_pass(&engine, &cells, &mut host);
        let misses = engine.cache().stats().misses - before.misses;
        timed.add(&latency_s, host.slowdown_since(from));
        out.attempted += got.len() as u64;
        out.check(misses == 0, got.len() as u64, || format!("warm pass missed {misses} times"));
        check_cells(&mut out, &got, &reference, "warm pass");
    }
    check_golden(&mut out, seed, &reference);
    out.note(format!("measured set-up {:.6} s; set-up {}", median(&fills), setup_host.note()));
    timed.report(&mut out, median(&scaled_fills), &host);
    out
}

/// Per-call layer times gathered by [`TimingBackend`] and the traced
/// cell driver.
#[derive(Default)]
pub struct Layers {
    hit_calls: u64,
    hit_s: f64,
    miss_calls: u64,
    miss_s: f64,
    chunks: u64,
    meter_s: f64,
    /// Wall time inside `Runner::run`/`Runner::train`.
    runner_s: f64,
    evaluations: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.hit_calls += o.hit_calls;
        self.hit_s += o.hit_s;
        self.miss_calls += o.miss_calls;
        self.miss_s += o.miss_s;
        self.chunks += o.chunks;
        self.meter_s += o.meter_s;
        self.runner_s += o.runner_s;
        self.evaluations += o.evaluations;
    }
}

/// A [`SimExecutor`] behind the public [`Backend`] trait that times each
/// region invocation and meter read. A `run_region` call is a miss when
/// the shared cache's miss counter moved during the call — exact when
/// one worker drives the cache, as in the traced passes.
pub struct TimingBackend {
    exec: SimExecutor,
    misses: Counter,
    pub layers: Layers,
}

impl TimingBackend {
    pub fn new(exec: SimExecutor, misses: Counter) -> Self {
        TimingBackend { exec, misses, layers: Layers::default() }
    }
}

impl Backend for TimingBackend {
    fn machine(&self) -> &Machine {
        self.exec.machine()
    }

    fn power_cap_w(&self) -> f64 {
        Backend::power_cap_w(&self.exec)
    }

    fn requested_power_cap_w(&self) -> f64 {
        self.exec.requested_power_cap_w()
    }

    fn begin_run(&mut self) {
        self.exec.begin_run()
    }

    fn charge_overhead(&mut self, dt_s: f64) {
        self.exec.charge_overhead(dt_s)
    }

    fn run_region(&mut self, region: &RegionModel, cfg: TunedConfig) -> RegionRun {
        let before = self.misses.get();
        let t = Instant::now();
        let run = self.exec.run_region(region, cfg);
        let dt = t.elapsed().as_secs_f64();
        if self.misses.get() != before {
            self.layers.miss_calls += 1;
            self.layers.miss_s += dt;
            let sim = cfg.omp.as_sim();
            self.layers.chunks += chunk_count(region.iterations, sim.threads, sim.schedule) as u64;
        } else {
            self.layers.hit_calls += 1;
            self.layers.hit_s += dt;
        }
        run
    }

    fn energy_j(&mut self) -> Result<f64, MeasureError> {
        let t = Instant::now();
        let e = self.exec.energy_j();
        self.layers.meter_s += t.elapsed().as_secs_f64();
        e
    }

    fn attach_faults(&mut self, plan: FaultPlan) {
        self.exec.attach_faults(plan)
    }

    fn attach_cap_handle(&mut self, handle: CapHandle) {
        self.exec.attach_cap_handle(handle)
    }

    fn record_sample(&mut self, region: &str, time_s: f64, energy_total_j: f64) {
        self.exec.record_sample(region, time_s, energy_total_j)
    }

    fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        self.exec.trace()
    }

    fn attach_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.exec.attach_trace(sink)
    }

    fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.exec.metrics()
    }

    fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.exec.attach_metrics(registry)
    }

    fn bind_shared_cache(&mut self, cache: Arc<SharedSimCache>) -> Result<(), RunError> {
        self.exec.bind_shared_cache(cache)
    }
}

/// What a traced cell runs against: the engine's cache and the registry
/// whose miss counter the cache mirrors.
pub struct TracedCtx {
    machine: Machine,
    cache: Arc<SharedSimCache>,
    registry: Arc<MetricsRegistry>,
    misses: Counter,
}

impl TracedCtx {
    pub fn new(engine: &SweepEngine) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        assert!(engine.cache().attach_metrics(&registry), "cache already carries metrics");
        let misses = registry.counter("powersim/cache/misses");
        TracedCtx { machine: Machine::crill(), cache: Arc::clone(engine.cache()), registry, misses }
    }

    fn backend(&self, cap_w: f64) -> TimingBackend {
        let exec = SimExecutor::new(self.machine.clone(), cap_w)
            .with_shared_cache(Arc::clone(&self.cache));
        TimingBackend::new(exec, self.misses.clone())
    }
}

fn timed_run(layers: &mut Layers, f: impl FnOnce() -> AppRunReport) -> AppRunReport {
    let t = Instant::now();
    let rep = f();
    layers.runner_s += t.elapsed().as_secs_f64();
    rep
}

/// One grid cell driven through [`Runner`] on [`TimingBackend`]s — the
/// same strategy recipes the engine runs, so its results must match the
/// engine's bit for bit.
pub fn traced_cell(
    ctx: &TracedCtx,
    wl: &WorkloadDescriptor,
    cap_w: f64,
    strategy: SweepStrategy,
    objective: Objective,
    layers: &mut Layers,
) -> AppRunReport {
    let space = ConfigSpace::for_machine(&ctx.machine);
    match strategy {
        SweepStrategy::Default => {
            let mut b = ctx.backend(cap_w);
            let rep = timed_run(layers, || {
                Runner::new(&mut b).workload(wl).objective(objective).run().expect("workload set")
            });
            layers.add(&b.layers);
            rep
        }
        SweepStrategy::Online => {
            let mut tuner = RegionTuner::new(TunerOptions::online(space).with_objective(objective))
                .with_metrics(Arc::clone(&ctx.registry));
            let mut b = ctx.backend(cap_w);
            let rep = timed_run(layers, || {
                Runner::new(&mut b).workload(wl).tuner(&mut tuner).run().expect("workload set")
            });
            layers.add(&b.layers);
            rep
        }
        SweepStrategy::Offline => {
            let mut trainer = ctx.backend(cap_w);
            let context = format!("{}.{}.{}W.{}", wl.name, ctx.machine.name, cap_w, objective);
            let t = Instant::now();
            let history = Runner::new(&mut trainer)
                .workload(wl)
                .train(
                    TunerOptions::offline_train(space.clone()).with_objective(objective),
                    &context,
                )
                .expect("offline training options");
            layers.runner_s += t.elapsed().as_secs_f64();
            layers.add(&trainer.layers);
            layers.evaluations +=
                history.entries.values().map(|e| e.evaluations as u64).sum::<u64>();
            let mut tuner = RegionTuner::new(
                TunerOptions::offline_replay(space, history).with_objective(objective),
            );
            let mut b = ctx.backend(cap_w);
            let rep = timed_run(layers, || {
                Runner::new(&mut b).workload(wl).tuner(&mut tuner).run().expect("workload set")
            });
            layers.add(&b.layers);
            rep
        }
        SweepStrategy::OnlineSelective { .. } => unreachable!("not on the benchmark grid"),
    }
}

/// A traced pass over the grid: one worker, so every call's hit/miss
/// classification is exact.
fn traced_pass(ctx: &TracedCtx, cells: &[SweepGrid]) -> PoolRun<CellBits, Layers> {
    pool(cells.len(), 1, |i, layers: &mut Layers| {
        let g = &cells[i];
        let rep = traced_cell(
            ctx,
            &g.workloads[0],
            g.caps_w[0],
            g.strategies[0],
            g.objectives[0],
            layers,
        );
        bits(&rep)
    })
}

fn evaluations(registry: &MetricsRegistry) -> u64 {
    registry.snapshot().counter("harmony/evaluations/nelder-mead")
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// One grid's untraced reference passes: parallel (for the straggler
/// tail) and serial (the timed shape, for the tracing overhead).
struct Untraced {
    parallel: PoolRun<CellBits, ()>,
    serial: PoolRun<CellBits, ()>,
}

/// Report one traced pass's layers under `prefix`; the layer times plus
/// the unattributed remainder add up to the pass's wall time.
fn report_layers(
    out: &mut Outcome,
    prefix: &str,
    pass: &PoolRun<CellBits, Layers>,
    cache: (u64, u64),
    online_evals: u64,
    untraced: &Untraced,
) {
    let (hits, misses) = cache;
    let l = &pass.states[0];
    let m = |name: &str| format!("{prefix}.{name}");
    let evals = l.evaluations + online_evals;
    let backend_s = l.hit_s + l.miss_s + l.meter_s;
    let driver_s = l.runner_s - backend_s;
    let unattributed_s = pass.wall_s - l.runner_s;
    let traced_ops = pass.out.len() as f64 / pass.wall_s;
    let untraced_ops = untraced.serial.out.len() as f64 / untraced.serial.wall_s;
    let p = &untraced.parallel;
    out.check(l.miss_calls == misses && l.hit_calls == hits, pass.out.len() as u64, || {
        format!(
            "{prefix}: classified {} misses / {} hits, cache counted {misses} / {hits}",
            l.miss_calls, l.hit_calls
        )
    });
    // A warm pass misses 0 times (checked), so it has no simulate layer.
    if misses > 0 {
        out.metric(m("powersim.memo.misses"), misses as f64, "count");
        out.metric(m("powersim.simulate_s"), l.miss_s, "s");
        out.metric(m("powersim.simulate_us_per_miss"), per(l.miss_s * 1e6, misses), "us");
        out.metric(m("omprt.chunks_simulated"), l.chunks as f64, "count");
        out.metric(m("powersim.simulate_ns_per_chunk"), per(l.miss_s * 1e9, l.chunks), "ns");
    }
    out.metric(m("powersim.memo.hits"), hits as f64, "count");
    out.metric(m("powersim.memo.hit_s"), l.hit_s, "s");
    out.metric(m("powersim.memo.hit_ns"), per(l.hit_s * 1e9, hits), "ns");
    out.metric(m("core.meter_s"), l.meter_s, "s");
    out.metric(m("core.driver_s"), driver_s, "s");
    out.metric(m("harmony.evaluations"), evals as f64, "count");
    out.metric(m("core.driver_ns_per_eval"), per(driver_s * 1e9, evals), "ns");
    out.metric(m("sweep.unattributed_s"), unattributed_s, "s");
    out.metric(m("sweep.wall_s"), pass.wall_s, "s");
    out.metric(m("sweep.worker_idle_s"), p.idle_s, "s");
    out.metric(m("sweep.parallel_ops_per_s"), p.out.len() as f64 / p.wall_s, "1/s");
    out.metric(m("trace.ops_per_s"), traced_ops, "1/s");
    out.metric(m("trace.overhead_pct"), (untraced_ops / traced_ops - 1.0) * 100.0, "%");
    out.note(format!(
        "{prefix}: traced wall {:.3} s = simulate {:.3} + memo hit {:.3} + meter {:.3} + driver {:.3} \
         + unattributed {unattributed_s:.4} ({:.2}%); untraced {untraced_ops:.1} cells/s, traced {traced_ops:.1}; \
         {} workers: {:.3} s with a {:.3} worker-s straggler tail",
        pass.wall_s,
        l.miss_s,
        l.hit_s,
        l.meter_s,
        driver_s,
        100.0 * unattributed_s / pass.wall_s,
        workers(),
        p.wall_s,
        p.idle_s,
    ));
}

/// What a timed pass's one-cell-grid calls cost over one whole-grid
/// [`SweepEngine::run`] on the same warm cache (a thread spawn and two
/// cache-stat reads per call): the benchmark harness's share of the
/// `sweep-warm` figures.
fn harness_cost(out: &mut Outcome, seed: u64, cells: &[SweepGrid], want: &[CellBits]) {
    let grid = inputs::sweep_grid(seed);
    let engine = fresh_engine();
    engine.run(&grid);
    let mut host = HostSpeed::default();
    let (mut per_cell_s, mut whole_s) = (Vec::new(), Vec::new());
    for _ in 0..HARNESS_REPEATS {
        let (got, latency_s) = timed_pass(&engine, cells, &mut host);
        per_cell_s.push(latency_s.iter().sum::<f64>());
        check_cells(out, &got, want, "one-cell-grid warm pass");
        let t = Instant::now();
        let rep = engine.run(&grid);
        whole_s.push(t.elapsed().as_secs_f64());
        let got: Vec<CellBits> = rep.cells.iter().map(|c| bits(&c.report)).collect();
        check_cells(out, &got, want, "whole-grid warm pass");
    }
    out.attempted += 2 * HARNESS_REPEATS as u64 * cells.len() as u64;
    let (one, whole) = (median(&per_cell_s), median(&whole_s));
    let harness_s = one - whole;
    out.metric("sweep-warm.sweep.harness_us_per_cell", harness_s * 1e6 / cells.len() as f64, "us");
    out.metric("sweep-warm.sweep.harness_pct", 100.0 * harness_s / one, "%");
    out.note(format!(
        "sweep harness: warm pass as one-cell grids {one:.4} s, as one grid {whole:.4} s \
         (medians of {HARNESS_REPEATS})"
    ));
}

/// The traced breakdown of both sweep workloads: untraced reference
/// passes, then a cold and a warm pass driven through [`TimingBackend`].
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let cells = inputs::single_cell_grids(&inputs::sweep_grid(seed));
    let reference = |workers: usize| {
        let engine = fresh_engine();
        let cold = engine_pass(&engine, &cells, workers);
        let warm = engine_pass(&engine, &cells, workers);
        (cold, warm)
    };
    let (pcold, pwarm) = reference(workers());
    let (scold, swarm) = reference(1);
    for (pass, what) in
        [(&pwarm, "parallel warm"), (&scold, "serial cold"), (&swarm, "serial warm")]
    {
        check_cells(&mut out, &pass.out, &pcold.out, what);
    }
    harness_cost(&mut out, seed, &cells, &pcold.out);

    let engine = fresh_engine();
    let ctx = TracedCtx::new(&engine);
    let s0 = engine.cache().stats();
    let tcold = traced_pass(&ctx, &cells);
    let s1 = engine.cache().stats();
    let evals_cold = evaluations(&ctx.registry);
    let twarm = traced_pass(&ctx, &cells);
    let s2 = engine.cache().stats();
    let evals_warm = evaluations(&ctx.registry) - evals_cold;
    out.attempted += 2 * cells.len() as u64;
    check_cells(&mut out, &tcold.out, &pcold.out, "traced cold pass vs engine");
    check_cells(&mut out, &twarm.out, &pcold.out, "traced warm pass vs engine");
    out.check(s1.misses == s1.entries as u64, cells.len() as u64, || {
        format!("traced cold misses {} != entries {}", s1.misses, s1.entries)
    });
    out.check(s2.misses == s1.misses, cells.len() as u64, || {
        format!("traced warm pass missed {} times", s2.misses - s1.misses)
    });
    let cold = Untraced { parallel: pcold, serial: scold };
    let warm = Untraced { parallel: pwarm, serial: swarm };
    let delta = |a: &CacheSnapshot, b: &CacheSnapshot| (b.hits - a.hits, b.misses - a.misses);
    report_layers(&mut out, "sweep-cold", &tcold, delta(&s0, &s1), evals_cold, &cold);
    report_layers(&mut out, "sweep-warm", &twarm, delta(&s1, &s2), evals_warm, &warm);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_kernels::{model, Class};

    #[test]
    fn timing_backend_is_transparent() {
        let mut wl = model::sp(Class::W);
        wl.timesteps = 4;
        let grid = SweepGrid::new(Machine::crill())
            .workload(wl)
            .caps(&[70.0])
            .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline])
            .objectives(&[Objective::Time, Objective::Energy]);
        let want: Vec<CellBits> = SweepEngine::new(Machine::crill())
            .run(&grid)
            .cells
            .iter()
            .map(|c| bits(&c.report))
            .collect();
        let engine = fresh_engine();
        let ctx = TracedCtx::new(&engine);
        let cells = inputs::single_cell_grids(&grid);
        let pass = traced_pass(&ctx, &cells);
        assert_eq!(pass.out, want);
        let stats = engine.cache().stats();
        let l = &pass.states[0];
        assert_eq!((l.hit_calls, l.miss_calls), (stats.hits, stats.misses));
        assert!(stats.misses > 0 && l.evaluations > 0 && l.chunks > 0);
    }

    #[test]
    fn pool_returns_items_in_order() {
        let run = pool(50, 3, |i, count: &mut usize| {
            *count += 1;
            i * 2
        });
        assert_eq!(run.out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(run.states.iter().sum::<usize>(), 50);
        assert!(run.idle_s >= 0.0);
    }
}
