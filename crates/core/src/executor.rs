//! Simulator-backed application execution.
//!
//! [`SimExecutor`] runs a [`WorkloadDescriptor`](arcs_powersim::WorkloadDescriptor)
//! on a simulated power-capped machine, either at the paper's default
//! configuration or under an ARCS [`RegionTuner`](crate::tuner::RegionTuner).
//! It implements [`Backend`], so the run loop itself — §III-C overhead
//! charging, energy metering, report assembly — lives once in
//! [`crate::backend`] and is shared verbatim with the live path.
//!
//! Region results are memoised per (region, trip count, configuration,
//! cap) in a [`SharedSimCache`] — the simulator is deterministic, so
//! repeated invocations at the same configuration are identical, which
//! makes whole-application sweeps cheap. By default each executor owns a
//! private cache; [`SimExecutor::with_shared_cache`] attaches a cache
//! shared across executors (the sweep engine does this so concurrent
//! cells never re-simulate a configuration another cell already priced).
//!
//! Simulated region durations are also pushed into an optional APEX
//! instance so profile-based analyses (Fig. 9) read the same introspection
//! state the live path populates.

use crate::backend::{self, Backend, RegionFeatures, RegionRun, RunError};
use crate::cap::{CapHandle, CapWatch};
use crate::faults::{FaultClock, MeterFault};
use crate::tunable::TunedConfig;
use arcs_apex::Apex;
use arcs_metrics::MetricsRegistry;
use arcs_powersim::{
    simulate_region_with, CacheBindError, CacheReader, FaultPlan, FxBuildHasher, InvocationFaults,
    Machine, MeasureError, PackageEnergy, Rapl, RegionId, RegionModel, SharedSimCache, SimConfig,
    SimReport, SimScratch,
};
use arcs_trace::{TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-region executor state: the cache-interned id (resolved once, not
/// per lookup) and the invocation ordinal feeding the noise model.
struct RegionSlot {
    id: RegionId,
    invocations: u64,
}

/// Executes workloads on the simulated machine under a power cap.
pub struct SimExecutor {
    pub machine: Machine,
    cap_w: f64,
    /// The cap as requested, before RAPL clamping (trace `CapChange`).
    requested_cap_w: f64,
    rapl: Rapl,
    cache: Arc<SharedSimCache>,
    /// Lock-free view of `cache`'s frozen shard snapshots; rebuilt
    /// whenever a different cache is bound.
    reader: CacheReader,
    /// Reusable simulation working memory (miss path only).
    scratch: SimScratch,
    apex: Option<Arc<Apex>>,
    noise: Option<NoiseModel>,
    trace: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    energy_meter: PackageEnergy,
    /// Per-region slots: interned cache id + invocation ordinal (the
    /// ordinal feeds the stateless noise model and persists across runs so
    /// repeated training passes see fresh noise).
    regions: HashMap<String, RegionSlot, FxBuildHasher>,
    faults: Option<FaultClock>,
    /// Externally-owned cap, polled at region boundaries (the broker's
    /// reallocation path; `None` keeps the constructor cap for the run).
    cap_watch: Option<CapWatch>,
}

/// Multiplicative measurement noise: real testbeds never return the same
/// region time twice (OS jitter, cache state, DVFS transients). The model
/// is *stateless*: the factor for an invocation is a pure function of
/// (seed, region name, invocation ordinal), so it does not depend on the
/// order in which other regions run — two executors replaying the same
/// region sequence agree factor-for-factor even if interleaved
/// differently. Runs are reproducible, but the *tuner* sees
/// per-invocation perturbations, which is what resolves near-tie argmins
/// differently across power caps and workloads on the paper's machines
/// (see EXPERIMENTS.md deviations D2/D3).
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Coefficient of variation of the multiplicative factor.
    pub cv: f64,
    pub seed: u64,
}

impl NoiseModel {
    pub fn new(cv: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&cv));
        NoiseModel { cv, seed }
    }

    /// Multiplicative factor for one invocation (mean 1, cv ≈ `cv`,
    /// strictly positive). Pure: same (seed, region, invocation) → same
    /// factor, regardless of what ran before.
    pub fn factor(&self, region: &str, invocation: u64) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in region.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        h ^= invocation.wrapping_mul(0xA24B_AED4_963E_E407);
        // splitmix64 finaliser.
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let a = (self.cv * 3f64.sqrt()).min(0.95);
        1.0 - a + 2.0 * a * u
    }
}

impl SimExecutor {
    pub fn new(machine: Machine, cap_w: f64) -> Self {
        let mut rapl = Rapl::new(&machine);
        let requested_cap_w = cap_w;
        let cap_w = rapl.set_package_cap(cap_w);
        let cache = Arc::new(SharedSimCache::new(&machine.name));
        let reader = cache.reader();
        SimExecutor {
            machine,
            cap_w,
            requested_cap_w,
            rapl,
            cache,
            reader,
            scratch: SimScratch::default(),
            apex: None,
            noise: None,
            trace: None,
            metrics: None,
            energy_meter: PackageEnergy::new(),
            regions: HashMap::default(),
            faults: None,
            cap_watch: None,
        }
    }

    /// Route region samples into an APEX instance as well.
    pub fn with_apex(mut self, apex: Arc<Apex>) -> Self {
        if let Some(sink) = &self.trace {
            apex.set_trace(Arc::clone(sink));
        }
        self.apex = Some(apex);
        self
    }

    /// Perturb every region invocation's measured time (and energy) by
    /// deterministic multiplicative noise.
    pub fn with_noise(mut self, cv: f64, seed: u64) -> Self {
        self.noise = Some(NoiseModel::new(cv, seed));
        self
    }

    /// Emit the trace/metrics breadcrumbs for one injected fault.
    fn note_fault(&self, kind: &str, region: &str, magnitude: f64) {
        if let Some(sink) = &self.trace {
            if sink.enabled() {
                sink.record(
                    None,
                    TraceEvent::FaultInjected {
                        kind: kind.to_string(),
                        region: region.to_string(),
                        magnitude,
                    },
                );
            }
        }
        if let Some(registry) = &self.metrics {
            registry.counter(&format!("arcs/faults/{kind}")).inc();
        }
    }

    /// Attach a memo cache shared with other executors. The machine is not
    /// part of the cache key, so a cache of another machine model panics
    /// in debug builds and is ignored (the private cache is kept) in
    /// release builds. [`Runner::shared_cache`](crate::backend::Runner::shared_cache)
    /// surfaces the mismatch as an error instead.
    pub fn with_shared_cache(mut self, cache: Arc<SharedSimCache>) -> Self {
        let bound = self.bind_cache(cache);
        debug_assert!(
            bound.is_ok(),
            "shared cache belongs to a different machine model: {bound:?}"
        );
        self
    }

    fn bind_cache(&mut self, cache: Arc<SharedSimCache>) -> Result<(), CacheBindError> {
        cache.check_machine(&self.machine.name)?;
        if let Some(sink) = &self.trace {
            cache.attach_trace(Arc::clone(sink));
        }
        if let Some(registry) = &self.metrics {
            cache.attach_metrics(registry);
        }
        self.reader = cache.reader();
        // Interned ids belong to the cache that issued them — re-resolve
        // lazily against the new cache.
        self.regions.clear();
        self.cache = cache;
        Ok(())
    }

    /// The memo cache this executor reads and writes.
    pub fn shared_cache(&self) -> &Arc<SharedSimCache> {
        &self.cache
    }

    pub fn power_cap_w(&self) -> f64 {
        self.cap_w
    }

    /// Memoised single-region simulation. Looks up by `&str` — the region
    /// name is only copied into the cache on first miss.
    pub fn simulate(&mut self, region: &RegionModel, cfg: SimConfig) -> Arc<SimReport> {
        self.simulate_at(region, cfg, None)
    }

    /// [`SimExecutor::simulate`] with an optional per-region frequency
    /// limit (the DVFS knob); `None` is exactly the unclamped path.
    pub fn simulate_at(
        &mut self,
        region: &RegionModel,
        cfg: SimConfig,
        freq_limit_ghz: Option<f64>,
    ) -> Arc<SimReport> {
        let id = self.region_id(&region.name);
        let cap_w = self.cap_w;
        let machine = &self.machine;
        let scratch = &mut self.scratch;
        self.cache.get_or_insert_id(
            &mut self.reader,
            id,
            region.iterations,
            cfg,
            cap_w,
            freq_limit_ghz,
            || simulate_region_with(machine, cap_w, region, cfg, freq_limit_ghz, scratch),
        )
    }

    /// The cache-interned id for `region`, resolved once per region per
    /// cache bind (warm calls are one map probe, no allocation).
    fn region_id(&mut self, region: &str) -> RegionId {
        if let Some(slot) = self.regions.get(region) {
            return slot.id;
        }
        let id = self.cache.intern(region);
        self.regions.insert(region.to_string(), RegionSlot { id, invocations: 0 });
        id
    }

    /// Next invocation ordinal for `region` (0-based).
    fn next_invocation(&mut self, region: &str) -> u64 {
        if let Some(slot) = self.regions.get_mut(region) {
            let inv = slot.invocations;
            slot.invocations += 1;
            inv
        } else {
            let id = self.cache.intern(region);
            self.regions.insert(region.to_string(), RegionSlot { id, invocations: 1 });
            0
        }
    }

    /// Apply a newly requested cap: reprogram RAPL, remember both views,
    /// trace the move. One shared path for scheduled cap faults and
    /// external (broker) reallocations.
    fn apply_requested_cap(&mut self, cap: f64) {
        let effective = self.rapl.set_package_cap(cap);
        self.requested_cap_w = cap;
        self.cap_w = effective;
        if let Some(sink) = &self.trace {
            if sink.enabled() {
                sink.record(
                    None,
                    TraceEvent::CapChange { requested_w: cap, effective_w: effective },
                );
            }
        }
    }
}

impl Backend for SimExecutor {
    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn power_cap_w(&self) -> f64 {
        self.cap_w
    }

    fn requested_power_cap_w(&self) -> f64 {
        self.requested_cap_w
    }

    fn begin_run(&mut self) {
        self.energy_meter = PackageEnergy::new();
        self.energy_meter.sample(&self.rapl); // prime against the current counter
        if let Some(fc) = &mut self.faults {
            fc.begin_run();
        }
    }

    fn charge_overhead(&mut self, dt_s: f64) {
        let p = backend::overhead_power_w(&self.machine);
        self.rapl.advance(dt_s, p);
    }

    fn run_region(&mut self, region: &RegionModel, cfg: TunedConfig) -> RegionRun {
        let inv = self.next_invocation(&region.name);
        // An external cap move (broker reallocation) applies first, at
        // the region boundary; a cap fault scheduled for the same
        // invocation overrides it below.
        if let Some(cap) = self.cap_watch.as_mut().and_then(|w| w.poll()) {
            self.apply_requested_cap(cap);
        }
        let ifaults: Option<InvocationFaults> =
            self.faults.as_mut().map(|fc| fc.invocation_faults(&region.name, inv));
        // Scheduled cap change fires *before* the invocation, so the
        // simulation (and the memo cache key) see the new envelope.
        if let Some(cap) = ifaults.and_then(|f| f.cap_change_w) {
            self.note_fault("cap_change", &region.name, cap);
            self.apply_requested_cap(cap);
        }
        let mut rep = self.simulate_at(region, cfg.omp.as_sim(), cfg.freq_ghz);
        if let Some(f) = ifaults {
            if f.straggler_factor > 1.0 {
                // A real slowdown: machine state (time and energy) grows,
                // not just the observation.
                rep = Arc::new(rep.with_straggler(&self.machine, f.straggler_factor));
                self.note_fault("straggler", &region.name, f.straggler_factor);
            }
        }
        let fnoise = match &self.noise {
            Some(n) => n.factor(&region.name, inv),
            None => 1.0,
        };
        self.rapl.advance(rep.time_s * fnoise, rep.avg_power_w());
        let mut observed = rep.time_s * fnoise;
        if let Some(f) = ifaults {
            if f.spike_factor > 1.0 {
                // Measurement-only: the timer lies, the machine doesn't.
                observed *= f.spike_factor;
                self.note_fault("timer_spike", &region.name, f.spike_factor);
            }
            if f.drop_sample {
                if let Some(fc) = &mut self.faults {
                    fc.arm_stale_read();
                }
                self.note_fault("sample_drop", &region.name, 1.0);
            }
        }
        RegionRun {
            time_s: observed,
            features: RegionFeatures {
                busy_s: rep.busy_total_s(),
                barrier_s: rep.barrier_total_s(),
                l1_miss_rate: rep.cache.l1_miss_rate,
                l2_miss_rate: rep.cache.l2_miss_rate,
                l3_miss_rate: rep.cache.l3_miss_rate,
            },
        }
    }

    fn energy_j(&mut self) -> Result<f64, MeasureError> {
        match self.faults.as_mut().and_then(FaultClock::meter_fault) {
            Some(MeterFault::Fail(ord)) => {
                self.note_fault("rapl_read", "", ord as f64);
                Err(MeasureError::RaplRead { attempts: 1 })
            }
            // A dropped sample: answer with the stale counter value
            // without resampling RAPL.
            Some(MeterFault::Stale) => Ok(self.energy_meter.total_j()),
            None => Ok(self.energy_meter.sample(&self.rapl)),
        }
    }

    fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultClock::new(plan));
    }

    fn attach_cap_handle(&mut self, handle: CapHandle) {
        // The handle's current value replaces the constructor cap; later
        // `set`s apply at region boundaries via `CapWatch::poll`.
        let requested = handle.get();
        let effective = self.rapl.set_package_cap(requested);
        self.requested_cap_w = requested;
        self.cap_w = effective;
        self.cap_watch = Some(CapWatch::new(handle));
    }

    fn record_sample(&mut self, region: &str, time_s: f64, energy_total_j: f64) {
        if let Some(apex) = &self.apex {
            let task = apex.task(region);
            apex.sample(task, time_s);
            // Energy introspection: the unwrapped RAPL reading, as a
            // periodic APEX sampler would record it.
            apex.record_counter("rapl/package_energy_j", energy_total_j);
        }
    }

    fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace.as_ref()
    }

    fn attach_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.cache.attach_trace(Arc::clone(&sink));
        if let Some(apex) = &self.apex {
            apex.set_trace(Arc::clone(&sink));
        }
        self.trace = Some(sink);
    }

    fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.cache.attach_metrics(&registry);
        self.metrics = Some(registry);
    }

    fn bind_shared_cache(&mut self, cache: Arc<SharedSimCache>) -> Result<(), RunError> {
        self.bind_cache(cache).map_err(RunError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Runner;
    use crate::config::OmpConfig;
    use crate::report::AppRunReport;
    use crate::sweep::{SweepEngine, SweepStrategy};
    use arcs_kernels::model;
    use arcs_kernels::Class;
    use arcs_powersim::WorkloadDescriptor;
    use arcs_trace::Objective;

    fn default_run(m: &Machine, cap_w: f64, wl: &WorkloadDescriptor) -> AppRunReport {
        Runner::new(&mut SimExecutor::new(m.clone(), cap_w)).workload(wl).run().unwrap()
    }

    fn tuned_cell(
        m: &Machine,
        cap_w: f64,
        wl: &WorkloadDescriptor,
        strategy: SweepStrategy,
    ) -> crate::sweep::CellResult {
        SweepEngine::new(m.clone()).run_cell(wl, cap_w, strategy, Objective::Time, None)
    }

    fn small_bt() -> WorkloadDescriptor {
        let mut wl = model::bt(Class::W);
        wl.timesteps = 30;
        wl
    }

    #[test]
    fn default_run_is_reproducible() {
        let m = Machine::crill();
        let wl = small_bt();
        let a = default_run(&m, 85.0, &wl);
        let b = default_run(&m, 85.0, &wl);
        assert_eq!(a.time_s, b.time_s);
        assert!((a.energy_j - b.energy_j).abs() < 1e-9);
        assert_eq!(a.per_region.len(), 5);
        assert_eq!(a.per_region["bt/x_solve"].invocations, 30);
    }

    #[test]
    fn default_run_has_no_overheads() {
        let m = Machine::crill();
        let rep = default_run(&m, 115.0, &small_bt());
        assert_eq!(rep.config_change_overhead_s, 0.0);
        assert_eq!(rep.instrumentation_overhead_s, 0.0);
        assert!(rep.tuner.is_none());
    }

    #[test]
    fn energy_counter_path_matches_simulated_energy_roughly() {
        // The RAPL path quantises at 1 ms but must track total energy.
        let m = Machine::crill();
        let wl = small_bt();
        let rep = default_run(&m, 115.0, &wl);
        assert!(rep.energy_j > 0.0);
        // Cross-check against direct integration of the region reports.
        let mut exec = SimExecutor::new(m.clone(), 115.0);
        let cfg = OmpConfig::default_for(&m).as_sim();
        let direct: f64 =
            wl.step.iter().map(|r| exec.simulate(r, cfg).energy_j * wl.timesteps as f64).sum();
        let err = (rep.energy_j - direct).abs() / direct;
        assert!(err < 0.02, "counter {} vs direct {direct}", rep.energy_j);
    }

    #[test]
    fn offline_beats_default_on_sp() {
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 20; // replay length doesn't change per-invocation ratios
        let base = default_run(&m, 115.0, &wl);
        let cell = tuned_cell(&m, 115.0, &wl, SweepStrategy::Offline);
        let (off, history) = (cell.report, cell.history.unwrap());
        assert!(
            off.time_s < base.time_s,
            "offline {} should beat default {}",
            off.time_s,
            base.time_s
        );
        assert_eq!(history.len(), 5);
        // Energy improves too (the paper's headline).
        assert!(off.energy_j < base.energy_j);
    }

    #[test]
    fn online_pays_search_overhead_but_still_helps_sp() {
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 200;
        let base = default_run(&m, 85.0, &wl);
        let on = tuned_cell(&m, 85.0, &wl, SweepStrategy::Online).report;
        assert!(on.time_s < base.time_s, "online {} vs default {}", on.time_s, base.time_s);
        assert!(on.tuner.unwrap().config_changes > 0);
    }

    #[test]
    fn tuned_runs_account_overheads() {
        let m = Machine::crill();
        let mut wl = model::bt(Class::W);
        wl.timesteps = 10;
        let on = tuned_cell(&m, 115.0, &wl, SweepStrategy::Online).report;
        // Instrumentation is per-tuned-invocation; configuration changes
        // fire whenever the global ICVs move.
        assert!(on.config_change_overhead_s > 0.0);
        assert!(on.config_change_overhead_s <= 50.0 * m.config_change_s);
        assert!((on.instrumentation_overhead_s - 50.0 * m.instrumentation_s).abs() < 1e-9);
    }

    #[test]
    fn training_converges_and_exports_all_regions() {
        let m = Machine::crill();
        let mut wl = model::bt(Class::W);
        wl.timesteps = 60;
        let mut exec = SimExecutor::new(m.clone(), 115.0);
        let space = crate::config::ConfigSpace::crill();
        let h = Runner::new(&mut exec)
            .workload(&wl)
            .train(crate::tuner::TunerOptions::offline_train(space), "bt.W.test")
            .unwrap();
        assert_eq!(h.len(), 5);
        for (_, entry) in h.entries.iter() {
            assert_eq!(entry.evaluations, 252);
        }
    }

    #[test]
    fn shared_cache_is_reused_across_executors() {
        let m = Machine::crill();
        let cache = Arc::new(SharedSimCache::new(&m.name));
        let wl = small_bt();
        let a = Runner::new(&mut SimExecutor::new(m.clone(), 85.0))
            .workload(&wl)
            .shared_cache(Arc::clone(&cache))
            .run()
            .unwrap();
        let warm = cache.stats();
        assert_eq!(warm.hits, 5 * 29); // 5 regions × (30 − first) invocations
        let b =
            Runner::new(&mut SimExecutor::new(m.clone(), 85.0).with_shared_cache(cache.clone()))
                .workload(&wl)
                .run()
                .unwrap();
        assert_eq!(a, b);
        // The second executor never missed: all its lookups hit.
        let after = cache.stats();
        assert_eq!(after.misses, warm.misses);
        assert_eq!(after.hits, warm.hits + 5 * 30);
    }

    #[test]
    fn shared_cache_rejects_wrong_machine() {
        let cache = Arc::new(SharedSimCache::new("minotaur"));
        let err = match SimExecutor::new(Machine::crill(), 85.0).bind_shared_cache(cache) {
            Err(RunError::CacheBind(e)) => e,
            other => panic!("expected a cache-bind error, got {other:?}"),
        };
        assert_eq!(err.cache_machine, "minotaur");
        assert_eq!(err.machine, "crill");
        assert!(err.to_string().contains("different machine model"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different machine model")]
    fn shared_cache_mismatch_panics_in_debug_builds() {
        let cache = Arc::new(SharedSimCache::new("minotaur"));
        let _ = SimExecutor::new(Machine::crill(), 85.0).with_shared_cache(cache);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::backend::Runner;
    use crate::sweep::{SweepEngine, SweepStrategy};
    use arcs_kernels::{model, Class};
    use arcs_powersim::WorkloadDescriptor;
    use arcs_trace::{NullSink, Objective, TraceEvent, VecSink};

    fn tiny_sp() -> WorkloadDescriptor {
        let mut wl = model::sp(Class::B);
        wl.timesteps = 4;
        wl
    }

    #[test]
    fn traced_online_run_emits_the_full_event_taxonomy() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let sink = Arc::new(VecSink::new());
        let _ = SweepEngine::new(m).with_trace(sink.clone()).run_cell(
            &wl,
            80.0,
            SweepStrategy::Online,
            Objective::Time,
            None,
        );

        let records = sink.drain();
        let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
        assert_eq!(count("CapChange"), 1);
        assert_eq!(count("RegionBegin"), 20); // 5 regions × 4 timesteps
        assert_eq!(count("RegionEnd"), 20);
        assert_eq!(count("PowerSample"), 20);
        assert!(count("SearchIteration") > 0, "tuner must report search steps");
        assert!(count("ConfigSwitch") > 0);
        assert!(count("OverheadCharged") > 0);
        assert!(count("CacheMiss") > 0);
        // The cap is below Crill's RAPL floor? No — 80 W is in range, so
        // requested == effective.
        let cap = records.iter().find(|r| r.event.kind() == "CapChange").unwrap();
        assert!(matches!(
            cap.event,
            TraceEvent::CapChange { requested_w, effective_w }
                if requested_w == 80.0 && effective_w == 80.0
        ));
        // Sequence numbers are unique and drain() sorts them.
        for w in records.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn cap_handle_moves_apply_at_region_boundaries_and_trace_cap_changes() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let handle = crate::cap::CapHandle::new(100.0);
        let sink = Arc::new(VecSink::new());
        let mut exec = SimExecutor::new(m.clone(), 85.0);
        exec.attach_cap_handle(handle.clone());
        assert_eq!(exec.power_cap_w(), 100.0, "the handle replaces the constructor cap");

        // Reallocate mid-run: the driver's next region boundary applies it.
        handle.set(60.0);
        let rep = Runner::new(&mut exec).workload(&wl).trace(sink.clone()).run().unwrap();
        assert_eq!(rep.power_cap_w, 60.0);
        let records = sink.drain();
        let caps: Vec<(f64, f64)> = records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::CapChange { requested_w, effective_w } => {
                    Some((requested_w, effective_w))
                }
                _ => None,
            })
            .collect();
        // Run-start CapChange at the attach-time value, then the mid-run
        // move traced through the same path a scheduled cap fault uses.
        assert_eq!(caps, vec![(100.0, 100.0), (60.0, 60.0)]);
        // No FaultInjected breadcrumb: a reallocation is not a fault.
        assert_eq!(records.iter().filter(|r| r.event.kind() == "FaultInjected").count(), 0);

        // An identical run at a fixed 60 W cap prices the post-move
        // regions identically (the memo cache key follows the envelope).
        let fixed = Runner::new(&mut SimExecutor::new(m, 60.0)).workload(&wl).run().unwrap();
        assert_eq!(
            rep.per_region["sp/x_solve"].total_time_s,
            fixed.per_region["sp/x_solve"].total_time_s
        );
    }

    #[test]
    fn null_sink_runs_bit_identical_to_untraced_runs() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let plain = Runner::new(&mut SimExecutor::new(m.clone(), 85.0).with_noise(0.1, 9))
            .workload(&wl)
            .run()
            .unwrap();
        let nulled = Runner::new(&mut SimExecutor::new(m.clone(), 85.0).with_noise(0.1, 9))
            .workload(&wl)
            .trace(Arc::new(NullSink))
            .run()
            .unwrap();
        assert_eq!(plain, nulled);
    }

    #[test]
    fn runner_surfaces_cache_bind_errors() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let mut exec = SimExecutor::new(m, 85.0);
        let err = Runner::new(&mut exec)
            .workload(&wl)
            .shared_cache(Arc::new(SharedSimCache::new("minotaur")))
            .run()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, RunError::CacheBind(_)), "got {err:?}");
    }

    #[test]
    fn runner_requires_a_workload() {
        let mut exec = SimExecutor::new(Machine::crill(), 85.0);
        let err = Runner::new(&mut exec).run().map(|_| ()).unwrap_err();
        assert!(matches!(err, RunError::MissingWorkload));
    }

    #[test]
    fn default_cell_matches_the_runner() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let cell = SweepEngine::new(m.clone()).run_cell(
            &wl,
            85.0,
            SweepStrategy::Default,
            Objective::Time,
            None,
        );
        let direct = Runner::new(&mut SimExecutor::new(m, 85.0)).workload(&wl).run().unwrap();
        assert_eq!(cell.report, direct);
    }
}

#[cfg(test)]
mod noise_tests {
    use super::*;
    use crate::backend::Runner;
    use crate::report::AppRunReport;
    use crate::tuner::{RegionTuner, TunerOptions};
    use arcs_kernels::{model, Class};
    use arcs_powersim::WorkloadDescriptor;

    fn run(mut exec: SimExecutor, wl: &WorkloadDescriptor) -> AppRunReport {
        Runner::new(&mut exec).workload(wl).run().unwrap()
    }

    #[test]
    fn noise_is_reproducible_and_mean_preserving() {
        let m = Machine::crill();
        let mut wl = model::bt(Class::W);
        wl.timesteps = 40;
        let clean = run(SimExecutor::new(m.clone(), 115.0), &wl);
        let a = run(SimExecutor::new(m.clone(), 115.0).with_noise(0.2, 7), &wl);
        let b = run(SimExecutor::new(m.clone(), 115.0).with_noise(0.2, 7), &wl);
        assert_eq!(a.time_s, b.time_s, "same seed ⇒ same run");
        let c = run(SimExecutor::new(m.clone(), 115.0).with_noise(0.2, 8), &wl);
        assert_ne!(a.time_s, c.time_s, "different seed ⇒ different run");
        // Mean-1 noise over 200 invocations: totals within a few percent.
        let rel = (a.time_s - clean.time_s).abs() / clean.time_s;
        assert!(rel < 0.05, "noise must be mean-preserving: {rel}");
    }

    #[test]
    fn noise_factors_do_not_depend_on_interleaving() {
        // The stateless model: a region's k-th invocation draws the same
        // factor whether or not other regions ran in between.
        let n = NoiseModel::new(0.2, 41);
        let alone: Vec<f64> = (0..10).map(|i| n.factor("sp/x_solve", i)).collect();
        let interleaved: Vec<f64> = (0..10)
            .map(|i| {
                let _ = n.factor("sp/y_solve", i); // unrelated draws
                let _ = n.factor("sp/z_solve", i);
                n.factor("sp/x_solve", i)
            })
            .collect();
        assert_eq!(alone, interleaved);
        // Distinct regions and ordinals decorrelate.
        assert_ne!(n.factor("sp/x_solve", 0), n.factor("sp/y_solve", 0));
        assert_ne!(n.factor("sp/x_solve", 0), n.factor("sp/x_solve", 1));
    }

    #[test]
    fn noise_factor_mean_is_one() {
        let n = NoiseModel::new(0.15, 3);
        let mean: f64 = (0..10_000).map(|i| n.factor("r", i)).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn noisy_training_still_finds_good_configs() {
        // Offline training under 15% measurement noise must still deliver
        // most of SP's improvement when its history is replayed on the
        // clean simulator (the train→test gap stays small).
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 60;
        let clean_base = run(SimExecutor::new(m.clone(), 115.0), &wl);
        let space = crate::config::ConfigSpace::for_machine(&m);
        let mut trainer = SimExecutor::new(m.clone(), 115.0).with_noise(0.15, 42);
        let history = Runner::new(&mut trainer)
            .workload(&wl)
            .train(TunerOptions::offline_train(space.clone()), "noisy")
            .unwrap();
        let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space, history));
        let replay = Runner::new(&mut SimExecutor::new(m.clone(), 115.0))
            .workload(&wl)
            .tuner(&mut tuner)
            .run()
            .unwrap();
        let ratio = replay.time_s / clean_base.time_s;
        assert!(ratio < 0.85, "noisy-trained configs must still win: {ratio}");
    }
}

#[cfg(test)]
mod apex_integration_tests {
    use super::*;
    use crate::backend::Runner;
    use arcs_kernels::{model, Class};

    #[test]
    fn sim_runs_populate_apex_profiles_and_energy_counters() {
        let m = Machine::crill();
        let mut wl = model::bt(Class::W);
        wl.timesteps = 10;
        let apex = Arc::new(Apex::new());
        let mut exec = SimExecutor::new(m, 115.0).with_apex(Arc::clone(&apex));
        let rep = Runner::new(&mut exec).workload(&wl).run().unwrap();
        // Timers: one profile per region, one sample per invocation.
        let task = apex.task("bt/x_solve");
        assert_eq!(apex.profile(task).unwrap().count, 10);
        // Energy counter: monotone, final reading equals the report total.
        let e = apex.counter("rapl/package_energy_j").unwrap();
        assert_eq!(e.count, 50);
        assert!(e.max >= e.min);
        assert!((e.last - rep.energy_j).abs() / rep.energy_j < 0.02);
    }
}
