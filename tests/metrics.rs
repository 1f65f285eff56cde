//! Cross-crate contract of the arcs-metrics layer: the trace analysis
//! engine rebuilds live OMPT profiles and the simulator's §III-C overhead
//! accounting from JSONL alone, the metrics registry mirrors every layer's
//! own counters, and — the zero-cost contract — runs without a registry
//! attached are bit-identical to runs that never heard of metrics.

use arcs::prelude::*;
use arcs::OmptProfiler;
use arcs_kernels::{model, Class};
use arcs_metrics::{analyze, MetricsRegistry, TraceReader};
use arcs_omprt::{Runtime, TraceTool};
use arcs_trace::{to_jsonl, VecSink};
use std::sync::Arc;

fn tiny_sp() -> arcs_powersim::WorkloadDescriptor {
    let mut wl = model::sp(Class::B);
    wl.timesteps = 4;
    wl
}

fn analyze_jsonl(text: &str) -> arcs_metrics::TraceReport {
    analyze(TraceReader::new(std::io::Cursor::new(text.to_string()))).expect("trace parses")
}

/// A live run's JSONL trace carries enough per-thread data to rebuild the
/// OMPT profiler's report: invocation counts exactly, the wall / loop /
/// barrier breakdown up to floating-point summation order.
#[test]
fn live_trace_rebuilds_the_ompt_profile() {
    let rt = Arc::new(Runtime::new(4));
    let sink = Arc::new(VecSink::new());
    TraceTool::attach(&rt, sink.clone());
    let profiler = OmptProfiler::attach(&rt);

    let even = rt.register_region("live/even");
    let skewed = rt.register_region("live/skewed");
    for _ in 0..6 {
        rt.parallel_for(even, 0..256, |i| {
            std::hint::black_box(i * i);
        });
        rt.parallel_for(skewed, 0..64, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        });
    }

    let report = analyze_jsonl(&to_jsonl(&sink.drain()).unwrap());
    let rows = profiler.report_named(&rt);
    assert_eq!(rows.len(), 2);
    assert_eq!(report.regions.len(), 2);
    for row in &rows {
        let rebuilt = &report.regions[&row.region];
        assert_eq!(rebuilt.invocations, row.invocations);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-9);
        assert!(close(rebuilt.wall_s, row.wall_s), "{}: wall", row.region);
        assert!(close(rebuilt.busy_s, row.loop_s), "{}: loop", row.region);
        assert!(close(rebuilt.barrier_s, row.barrier_s), "{}: barrier", row.region);
        assert!(close(rebuilt.implicit_task_s(), row.implicit_task_s), "{}: task", row.region);
    }
    // Live traces have no simulator clock: the driver-level overhead
    // cross-check does not apply (no OverheadCharged events at all here).
    assert_eq!(report.overhead.events, 0);
}

/// A traced simulated tuned run round-trips through JSONL into an analysis
/// whose overhead ledger matches the driver's own §III-C accounting — and
/// the cross-check (wall = Σ region + Σ overhead) holds to rounding.
#[test]
fn sim_trace_overhead_cross_check_matches_the_app_report() {
    let m = Machine::crill();
    let wl = tiny_sp();
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 80.0);
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    let rep =
        Runner::new(&mut exec).workload(&wl).trace(sink.clone()).tuner(&mut tuner).run().unwrap();

    let report = analyze_jsonl(&to_jsonl(&sink.drain()).unwrap());
    assert_eq!(report.seq_gaps, 0);
    assert_eq!(report.regions.len(), 5);
    for region in report.regions.values() {
        assert_eq!(region.invocations, 4);
    }

    // The analysis sums the same OverheadCharged values in the same order
    // as the driver, so the ledgers agree to the last bit.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1e-12);
    assert!(close(report.overhead.config_change_s, rep.config_change_overhead_s));
    assert!(close(report.overhead.instrumentation_s, rep.instrumentation_overhead_s));
    assert!(close(report.wall_s, rep.time_s));
    assert!(
        report.overhead_consistent(),
        "sim driver invariant: wall − region − overhead = {:+e}",
        report.overhead_residual_s()
    );

    // Search and cache views are populated from the same run.
    assert_eq!(report.convergence.len(), 5);
    for curve in report.convergence.values() {
        assert!(!curve.is_empty());
        assert!(curve.windows(2).all(|w| w[1].best_value <= w[0].best_value));
    }
    assert!(report.cache.lookups() > 0);
}

/// The zero-cost contract at sweep scale: a parallel sweep without a
/// registry is bit-identical to the serial baseline, and attaching a
/// registry changes observability only — every report stays the same.
#[test]
fn metrics_registry_changes_no_numbers_on_the_sweep_path() {
    let m = Machine::crill();
    let grid = SweepGrid::new(m.clone())
        .workload(tiny_sp())
        .caps(&[70.0, 100.0])
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline])
        .with_noise(0.1, 9);

    let serial = SweepEngine::new(m.clone()).with_workers(1).run(&grid);
    let plain = SweepEngine::new(m.clone()).run(&grid);
    let registry = Arc::new(MetricsRegistry::new());
    let metered = SweepEngine::new(m.clone()).with_metrics(Arc::clone(&registry)).run(&grid);

    assert_eq!(serial.cells.len(), 6);
    for ((s, p), q) in serial.cells.iter().zip(&plain.cells).zip(&metered.cells) {
        assert_eq!(
            s.report,
            p.report,
            "{} @ {}W diverged without metrics",
            s.strategy.label(),
            s.cap_w
        );
        assert_eq!(
            s.report,
            q.report,
            "{} @ {}W diverged under metrics",
            s.strategy.label(),
            s.cap_w
        );
        assert_eq!(s.history, q.history);
    }
    assert_eq!(serial.cache.misses, metered.cache.misses);

    // The registry mirrored the cache's own accounting while changing it.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("powersim/cache/hits"), metered.cache.hits);
    assert_eq!(snap.counter("powersim/cache/misses"), metered.cache.misses);
}

/// One tuned simulated run populates every layer's metrics: cache traffic,
/// per-strategy search evaluations, and the driver's switch/overhead/time
/// series — each agreeing with the layer's own report of the same run.
#[test]
fn registry_covers_every_sim_layer_after_a_tuned_run() {
    use arcs_metrics::MetricValue;
    let m = Machine::crill();
    let wl = tiny_sp();
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 80.0);
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    let rep = Runner::new(&mut exec)
        .workload(&wl)
        .metrics(Arc::clone(&registry))
        .trace(sink.clone())
        .tuner(&mut tuner)
        .run()
        .unwrap();
    let stats = tuner.stats();
    let records = sink.drain();
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count() as u64;

    let snap = registry.snapshot();
    let cache = exec.shared_cache().stats();
    assert_eq!(snap.counter("powersim/cache/hits"), cache.hits);
    assert_eq!(snap.counter("powersim/cache/misses"), cache.misses);
    assert_eq!(snap.counter("harmony/evaluations/nelder-mead"), count("SearchIteration"));
    assert!(snap.counter("harmony/evaluations/nelder-mead") > 0);
    assert_eq!(snap.counter("core/configs_switched"), stats.config_changes);
    match snap.get("core/overhead_s") {
        Some(MetricValue::Gauge(total)) => {
            let expect = rep.config_change_overhead_s + rep.instrumentation_overhead_s;
            assert!((total - expect).abs() <= 1e-12 * expect.abs().max(1e-12));
        }
        other => panic!("core/overhead_s missing or mistyped: {other:?}"),
    }
    match snap.get("core/region_time_s") {
        Some(MetricValue::Histogram(h)) => {
            assert_eq!(h.count, 20); // 5 regions × 4 timesteps
            assert!(h.p50 > 0.0 && h.p50 <= h.p99);
        }
        other => panic!("core/region_time_s missing or mistyped: {other:?}"),
    }
}

/// The live backend wires the registry through to the omprt runtime: real
/// fork/join counters land next to the shared driver's series.
#[test]
fn registry_covers_the_live_runtime() {
    use arcs::LiveExecutor;
    use arcs_powersim::{ImbalanceProfile, MemoryProfile, RegionModel, StrideClass};
    let region = RegionModel {
        name: "live/metered".into(),
        iterations: 64,
        cycles_per_iter: 50_000.0,
        imbalance: ImbalanceProfile::Uniform,
        memory: MemoryProfile {
            footprint_bytes: 1e6,
            accesses_per_iter: 10.0,
            stride: StrideClass::Medium,
            temporal_reuse: 0.5,
            hot_bytes_per_thread: 4096.0,
        },
        serial_s: 0.0,
        critical_s: 0.0,
    };
    let wl = WorkloadDescriptor { name: "live-metered".into(), step: vec![region], timesteps: 5 };
    let rt = Arc::new(Runtime::new(4));
    let registry = Arc::new(MetricsRegistry::new());
    let mut exec = LiveExecutor::new(Arc::clone(&rt), Machine::crill(), 85.0).with_time_scale(1e-2);
    let rep = Runner::new(&mut exec).workload(&wl).metrics(Arc::clone(&registry)).run().unwrap();
    assert_eq!(rep.per_region["live/metered"].invocations, 5);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("omprt/regions"), 5);
    assert_eq!(snap.counter("omprt/iterations"), 5 * 64);
    assert!(snap.counter("omprt/chunks") >= 5);
}
