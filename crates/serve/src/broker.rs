//! The deterministic broker core: admission, scheduling, and hierarchical
//! power-budget arbitration over a simulated fleet.
//!
//! # Execution model
//!
//! The broker is a discrete-event simulator over *virtual* time
//! (integer microseconds, so event ordering is exact). One job runs per
//! node; a job executes as a sequence of *quanta* — successive
//! [`Runner`] runs over the same persistent executor and tuner, so the
//! tuner's search state, the fault clock and the memo cache all carry
//! across quanta exactly as they would across the phases of one long
//! run. Between quanta the broker may move the job's power allocation;
//! the move travels through the job's [`CapHandle`] and lands at the
//! next region boundary as an ordinary mid-run `CapChange` — the same
//! path a scheduled cap fault takes, which the tuner already adapts to.
//!
//! # Power hierarchy
//!
//! The budget is arbitrated in three levels: one *global* budget (watts)
//! owned by the broker, split into *node-level* allocations (what
//! [`TraceEvent::CapReallocated`] records), each programmed onto the
//! node as a *per-socket* package cap (`node watts / sockets`, see
//! [`FleetNode::package_cap_w`](arcs_powersim::FleetNode::package_cap_w)).
//!
//! # Admission, fairness, conservation
//!
//! * **Admission**: a job is rejected at submission if no budget or node
//!   could *ever* cover its floor cap. Anything admissible waits its
//!   turn (FIFO) for a free node plus budget headroom.
//! * **Fairness**: every running job is pinned at least its floor; the
//!   surplus is water-filled proportionally to tenant weight (a
//!   tenant's weight is split evenly across its running jobs), capped
//!   at each node's hardware maximum. `Degraded` jobs stop receiving
//!   surplus and hold exactly their floor.
//! * **Conservation**: Σ allocations ≤ budget at every reallocation
//!   point. Allocations are quantized down to [`ALLOC_QUANTUM_W`] steps
//!   above the floor, which both preserves the invariant under float
//!   arithmetic and keeps the per-cap memo-cache key space small.
//!
//! Determinism: all state lives in `BTreeMap`/`BTreeSet` (iteration
//! order is the id order), virtual time is integral, and the simulator
//! underneath is deterministic — the same submission sequence always
//! produces byte-identical traces.

use crate::job::{resolve_workload, JobSpec, JobState};
use crate::journal::{load_journal, BrokerJournal, JournalError};
use crate::telemetry::{self, event_line, push_event, Digest, TelemetrySnapshot, TenantTelemetry};
use arcs::backend::{Backend, Runner};
use arcs::{
    CapHandle, ConfigSpace, RegionTuner, ResilienceOptions, RunStatus, SimExecutor, TunerOptions,
};
use arcs_metrics::{Counter, Gauge, GaugeFamily, Histogram, HistogramFamily, MetricsRegistry};
use arcs_powersim::{FaultPlan, Fleet, Machine, NodeFaultClass, NodeFaultPlan, WorkloadDescriptor};
use arcs_trace::{JobAllocation, TraceEvent, TraceSink};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// Node-level allocations move in steps of this many watts (above each
/// job's floor). Coarse steps keep reallocation churn out of the
/// simulator's per-cap memo-cache key space.
pub const ALLOC_QUANTUM_W: f64 = 0.25;

/// Tolerance for budget comparisons (float sums of quantized watts).
const EPS_W: f64 = 1e-6;

/// Broker tuning knobs beyond the budget itself.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// The global power budget, watts.
    pub budget_w: f64,
    /// Application timesteps per scheduling quantum — the granularity at
    /// which reallocations reach a running job.
    pub quantum_timesteps: usize,
    /// Self-healing ladder applied to every job run (faulted jobs are
    /// always given at least [`ResilienceOptions::standard`], or they
    /// could not degrade gracefully).
    pub resilience: Option<ResilienceOptions>,
    /// Deterministic node-outage schedule for the fleet; `None` (or an
    /// inactive plan) keeps every node immortal.
    pub node_faults: Option<NodeFaultPlan>,
    /// Bound on the admission queue: submissions beyond it are *shed*
    /// with a typed reason and a backpressure hint instead of growing
    /// the queue without bound. `None` keeps the queue unbounded.
    pub max_queue: Option<usize>,
    /// How many times a job may be re-placed after losing its node to a
    /// crash before it fails typed. Graceful drains cost no retry.
    pub max_retries: u64,
    /// Base of the deterministic exponential backoff a crash-requeued
    /// job sits out before becoming placeable again, virtual seconds
    /// (doubles per crash, capped at 64×).
    pub backoff_base_s: f64,
}

impl BrokerConfig {
    pub fn new(budget_w: f64) -> Self {
        BrokerConfig {
            budget_w,
            quantum_timesteps: 4,
            resilience: None,
            node_faults: None,
            max_queue: None,
            max_retries: 3,
            backoff_base_s: 0.05,
        }
    }
}

/// Event-class codes ordering simultaneous events deterministically:
/// capacity returns first, parked jobs release next, quanta complete,
/// and outages strike last — so a quantum ending at the same instant a
/// node fails narrowly escapes, always.
const EV_RECOVER: u8 = 0;
const EV_RELEASE: u8 = 1;
const EV_QUANTUM: u8 = 2;
const EV_FAIL: u8 = 3;

/// Payload of one pending discrete event (keyed `(t_us, class, id)`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// The node keyed by `id` rejoins the pool.
    Recover,
    /// The job keyed by `id` finished its retry backoff and requeues.
    Release,
    /// The job keyed by `id` finishes its in-flight quantum.
    Quantum,
    /// The node keyed by `id` leaves service; `down_us` is the outage
    /// length (`None` = permanent).
    NodeFail { class: NodeFaultClass, down_us: Option<u64> },
}

/// A finished job's summary, kept for `status` queries.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    pub job: u64,
    pub tenant: String,
    pub node: u64,
    pub status: RunStatus,
    pub time_s: f64,
    pub energy_j: f64,
}

/// What [`Broker::submit`] decided.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Admitted under this job id (queued or already running).
    Admitted(u64),
    Rejected {
        job: u64,
        reason: String,
    },
    /// Turned away by load shedding: the bounded admission queue is
    /// full. `retry_after_s` is the backpressure hint (virtual seconds
    /// until capacity can next change) the submit response carries.
    Shed {
        job: u64,
        reason: String,
        retry_after_s: f64,
        queue_depth: u64,
    },
}

impl SubmitOutcome {
    pub fn job(&self) -> u64 {
        match self {
            SubmitOutcome::Admitted(job) => *job,
            SubmitOutcome::Rejected { job, .. } => *job,
            SubmitOutcome::Shed { job, .. } => *job,
        }
    }
}

/// Results of a quantum simulated at start time, applied when its
/// completion event fires.
struct QuantumResult {
    steps: usize,
    time_s: f64,
    energy_j: f64,
    degraded: bool,
}

struct RunningJob {
    spec: JobSpec,
    node: u64,
    /// Effective node-level floor on the assigned node: the larger of
    /// the job's requested floor and the node's RAPL floor.
    floor_w: f64,
    /// Current node-level allocation.
    alloc_w: f64,
    /// Node hardware maximum, cached from the fleet.
    max_w: f64,
    handle: CapHandle,
    exec: SimExecutor,
    tuner: RegionTuner,
    wl: WorkloadDescriptor,
    resilience: Option<ResilienceOptions>,
    remaining: usize,
    time_s: f64,
    energy_j: f64,
    degraded: bool,
    in_flight: Option<QuantumResult>,
    /// Virtual instant of the pending quantum event, so a crash can
    /// cancel it.
    event_at: Option<u64>,
    /// Placements so far, this one included — what the retry budget
    /// compares against.
    attempts: u64,
}

/// An admitted job waiting (or waiting again) for a node: the spec plus
/// whatever progress survived earlier placements. A crash discards the
/// in-flight quantum but keeps every *completed* quantum's timesteps,
/// time and energy — the job resumes where its last boundary left it
/// (with a fresh executor and tuner on the new node).
struct QueuedJob {
    spec: JobSpec,
    remaining: usize,
    time_s: f64,
    energy_j: f64,
    degraded: bool,
    /// Placements consumed so far (0 for a never-placed job).
    attempts: u64,
    /// True once the job has been requeued at least once — queue-wait
    /// is sampled only on first placement.
    requeued: bool,
}

/// Aggregate counters for the `stats` op and load-generator summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BrokerCounters {
    pub submitted: u64,
    pub queued: u64,
    pub running: u64,
    pub completed: u64,
    pub rejected: u64,
    pub degraded: u64,
    /// Terminal failures: retry budget exhausted or stranded (v9).
    pub failed: u64,
    /// Turned away by load shedding at admission (v9).
    pub shed: u64,
    /// Requeue events so far (crash and drain requeues both).
    pub requeued: u64,
    /// Nodes currently out of service (down or draining).
    pub nodes_down: u64,
}

/// Per-tenant handles resolved once (at the tenant's first submission)
/// from the broker's label families, so steady-state emission allocates
/// nothing.
struct TenantHandles {
    wait: Histogram,
    turnaround: Histogram,
    alloc_w: Gauge,
}

/// The broker's always-on SLO instrumentation. The registry is created
/// in [`Broker::new`] (not attached) so `stats`, `watch` and the
/// Prometheus `metrics` op are always rich — the broker is a service,
/// not a hot loop, and its emission points are coarse (submission,
/// placement, reallocation, completion).
struct BrokerMetrics {
    registry: Arc<MetricsRegistry>,
    /// `serve/queue_wait_s`: submission → placement, virtual seconds.
    queue_wait_s: Histogram,
    /// `serve/turnaround_s`: submission → completion, virtual seconds.
    turnaround_s: Histogram,
    /// `serve/realloc_churn_w`: Σ |Δ allocation| per reallocation.
    realloc_churn_w: Histogram,
    /// `serve/reallocations`: how many times the budget was re-divided.
    reallocations: Counter,
    /// `serve/admission{outcome="admitted"|"rejected"|"shed"}`.
    admitted: Counter,
    rejected: Counter,
    shed: Counter,
    /// `serve/requeues`: jobs put back in the queue after losing a node.
    requeues: Counter,
    /// `serve/node_failures`: fleet outages (crash and drain alike).
    node_failures: Counter,
    /// `serve/job_failures`: jobs that failed terminally.
    failed: Counter,
    wait_by_tenant: HistogramFamily,
    turnaround_by_tenant: HistogramFamily,
    alloc_by_tenant: GaugeFamily,
    tenants: BTreeMap<String, TenantHandles>,
}

impl BrokerMetrics {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let admission = registry.counter_family("serve/admission", "outcome");
        BrokerMetrics {
            queue_wait_s: registry.histogram("serve/queue_wait_s"),
            turnaround_s: registry.histogram("serve/turnaround_s"),
            realloc_churn_w: registry.histogram("serve/realloc_churn_w"),
            reallocations: registry.counter("serve/reallocations"),
            admitted: admission.with_label("admitted"),
            rejected: admission.with_label("rejected"),
            shed: admission.with_label("shed"),
            requeues: registry.counter("serve/requeues"),
            node_failures: registry.counter("serve/node_failures"),
            failed: registry.counter("serve/job_failures"),
            wait_by_tenant: registry.histogram_family("serve/queue_wait_s", "tenant"),
            turnaround_by_tenant: registry.histogram_family("serve/turnaround_s", "tenant"),
            alloc_by_tenant: registry.gauge_family("serve/alloc_w", "tenant"),
            tenants: BTreeMap::new(),
            registry,
        }
    }

    /// Resolve (or create) the per-tenant handles for `name`.
    fn tenant(&mut self, name: &str) -> &TenantHandles {
        if !self.tenants.contains_key(name) {
            let handles = TenantHandles {
                wait: self.wait_by_tenant.with_label(name),
                turnaround: self.turnaround_by_tenant.with_label(name),
                alloc_w: self.alloc_by_tenant.with_label(name),
            };
            self.tenants.insert(name.to_string(), handles);
        }
        &self.tenants[name]
    }
}

/// One `watch` subscriber: a channel plus its push period in quantum
/// events. Dropped silently when the receiver goes away.
struct Watcher {
    tx: Sender<TelemetrySnapshot>,
    every: u64,
    seen: u64,
}

/// The multi-tenant power-budget broker (see module docs).
pub struct Broker {
    fleet: Fleet,
    cfg: BrokerConfig,
    trace: Arc<dyn TraceSink>,
    next_job: u64,
    /// Virtual clock, microseconds.
    now_us: u64,
    /// Pending discrete events, keyed `(t_us, class, id)` — `BTreeMap`
    /// so the next event is deterministic and simultaneous events fire
    /// in the [`EV_RECOVER`]..[`EV_FAIL`] class order.
    events: BTreeMap<(u64, u8, u64), Ev>,
    /// Admitted jobs waiting for a node + budget headroom, FIFO.
    queue: VecDeque<u64>,
    queued: BTreeMap<u64, QueuedJob>,
    /// Crash-requeued jobs sitting out their retry backoff; each owns a
    /// pending [`Ev::Release`] event.
    parked: BTreeMap<u64, QueuedJob>,
    running: BTreeMap<u64, RunningJob>,
    completed: BTreeMap<u64, CompletedJob>,
    rejected: BTreeMap<u64, String>,
    /// Terminally failed jobs → typed reason (v9).
    failed: BTreeMap<u64, String>,
    /// Load-shed jobs → typed reason (v9).
    shed: BTreeMap<u64, String>,
    /// Node → virtual instant (µs) it went down.
    down_nodes: BTreeMap<u64, u64>,
    /// Draining nodes (victim still finishing its quantum) → outage
    /// length once the drain completes (`None` = permanent).
    draining: BTreeMap<u64, Option<u64>>,
    /// Tenant → fair-share weight (first submission wins).
    tenants: BTreeMap<String, f64>,
    /// Tenant → rejected-job count (for telemetry rows).
    tenant_rejected: BTreeMap<String, u64>,
    tenant_failed: BTreeMap<String, u64>,
    tenant_shed: BTreeMap<String, u64>,
    tenant_requeued: BTreeMap<String, u64>,
    requeues: u64,
    /// Write-ahead journal; when attached, every submit and step is
    /// recorded (and flushed) before it is applied.
    journal: Option<BrokerJournal>,
    free_nodes: BTreeSet<u64>,
    /// Submission time (virtual µs) of every live job, for queue-wait
    /// and turnaround attribution; entries die with the job.
    submit_us: BTreeMap<u64, u64>,
    metrics: BrokerMetrics,
    /// Rolling narrative for the dashboard's events pane.
    event_pane: VecDeque<String>,
    watchers: Vec<Watcher>,
}

impl Broker {
    pub fn new(fleet: Fleet, cfg: BrokerConfig, trace: Arc<dyn TraceSink>) -> Self {
        let free_nodes: BTreeSet<u64> = fleet.nodes().iter().map(|n| n.id).collect();
        // Seed the fleet's entire outage schedule up front: every fault
        // is a pure function of (seed, node, ordinal), so the schedule
        // is fixed at birth and identical across replays.
        let mut events = BTreeMap::new();
        if let Some(plan) = cfg.node_faults.filter(|p| p.is_active()) {
            for &node in &free_nodes {
                for fault in plan.schedule_for(node) {
                    let t_us = (fault.at_s * 1e6).round().max(0.0) as u64;
                    let down_us = fault.down_s.map(|s| (s * 1e6).round().max(1.0) as u64);
                    events.insert(
                        (t_us, EV_FAIL, node),
                        Ev::NodeFail { class: fault.class, down_us },
                    );
                }
            }
        }
        Broker {
            fleet,
            cfg,
            trace,
            next_job: 0,
            now_us: 0,
            events,
            queue: VecDeque::new(),
            queued: BTreeMap::new(),
            parked: BTreeMap::new(),
            running: BTreeMap::new(),
            completed: BTreeMap::new(),
            rejected: BTreeMap::new(),
            failed: BTreeMap::new(),
            shed: BTreeMap::new(),
            down_nodes: BTreeMap::new(),
            draining: BTreeMap::new(),
            tenants: BTreeMap::new(),
            tenant_rejected: BTreeMap::new(),
            tenant_failed: BTreeMap::new(),
            tenant_shed: BTreeMap::new(),
            tenant_requeued: BTreeMap::new(),
            requeues: 0,
            journal: None,
            free_nodes,
            submit_us: BTreeMap::new(),
            metrics: BrokerMetrics::new(),
            event_pane: VecDeque::new(),
            watchers: Vec::new(),
        }
    }

    /// Attach a write-ahead journal. Must be called on a *fresh* broker
    /// (before any submit or step): the journal's first record is a
    /// [`TraceEvent::BrokerConfigured`] header describing how to rebuild
    /// this broker, and recovery replays every op recorded after it.
    pub fn attach_journal(&mut self, journal: BrokerJournal) {
        journal.append(
            self.now_s(),
            TraceEvent::BrokerConfigured {
                budget_w: self.cfg.budget_w,
                quantum_timesteps: self.cfg.quantum_timesteps as u64,
                machines: self.fleet.nodes().iter().map(|n| n.machine.name.clone()).collect(),
                max_queue: self.cfg.max_queue.map(|q| q as u64),
                max_retries: self.cfg.max_retries,
                backoff_base_s: self.cfg.backoff_base_s,
                resilience: serde_json::to_string(&self.cfg.resilience)
                    .expect("resilience options serialize"),
                node_faults: serde_json::to_string(&self.cfg.node_faults)
                    .expect("node-fault plans serialize"),
            },
        );
        self.journal = Some(journal);
    }

    /// The attached journal's first absorbed write error, if any.
    pub fn journal_error(&self) -> Option<String> {
        self.journal.as_ref().and_then(|j| j.last_error())
    }

    fn journal_op(&self, event: TraceEvent) {
        if let Some(j) = &self.journal {
            j.append(self.now_s(), event);
        }
    }

    /// Reconstruct a broker from its journal by deterministic replay.
    ///
    /// The journal header rebuilds the fleet and config; every recorded
    /// op (submission or step) is then re-applied in order. Because the
    /// broker is deterministic, the recovered broker reaches the exact
    /// state the original had when it last flushed — and with `trace`
    /// emission on during replay, the recovered trace file is
    /// byte-identical to the uninterrupted run's.
    ///
    /// `new_journal`, when given, is attached *before* replay so the new
    /// journal re-records the header and every replayed op — recovery
    /// from a recovery works. A [`TraceEvent::CheckpointRecovered`]
    /// marker is appended to the new journal (never to the trace, whose
    /// bytes must not shift) once replay finishes.
    pub fn recover(
        journal_path: &Path,
        trace: Arc<dyn TraceSink>,
        new_journal: Option<BrokerJournal>,
    ) -> Result<Broker, JournalError> {
        let records = load_journal(journal_path)?;
        let mut it = records.into_iter();
        let header = it.next().ok_or_else(|| JournalError::Header("empty journal".into()))?;
        let TraceEvent::BrokerConfigured {
            budget_w,
            quantum_timesteps,
            machines,
            max_queue,
            max_retries,
            backoff_base_s,
            resilience,
            node_faults,
        } = header.event
        else {
            return Err(JournalError::Header(
                "journal must start with a BrokerConfigured record".into(),
            ));
        };
        let mut fleet = Fleet::new();
        for name in &machines {
            let machine = match name.as_str() {
                "crill" => Machine::crill(),
                "minotaur" => Machine::minotaur(),
                other => {
                    return Err(JournalError::Header(format!("unknown machine model {other:?}")))
                }
            };
            fleet.push(machine);
        }
        let resilience: Option<ResilienceOptions> = serde_json::from_str(&resilience)
            .map_err(|e| JournalError::Header(format!("bad resilience options: {e}")))?;
        let node_faults: Option<NodeFaultPlan> = serde_json::from_str(&node_faults)
            .map_err(|e| JournalError::Header(format!("bad node-fault plan: {e}")))?;
        let cfg = BrokerConfig {
            budget_w,
            quantum_timesteps: quantum_timesteps as usize,
            resilience,
            node_faults,
            max_queue: max_queue.map(|q| q as usize),
            max_retries,
            backoff_base_s,
        };
        let mut broker = Broker::new(fleet, cfg, trace);
        if let Some(journal) = new_journal {
            broker.attach_journal(journal);
        }
        let mut ops = 0u64;
        for rec in it {
            match rec.event {
                TraceEvent::JobSubmitted {
                    tenant,
                    workload,
                    weight,
                    timesteps,
                    fault_seed,
                    requested_floor_w,
                    ..
                } => {
                    broker.submit(JobSpec {
                        tenant,
                        workload,
                        timesteps: timesteps as usize,
                        floor_w: requested_floor_w,
                        weight,
                        fault_seed,
                    });
                }
                TraceEvent::BrokerStep {} => {
                    broker.step();
                }
                // Marker left by an earlier recovery of this lineage.
                TraceEvent::CheckpointRecovered { .. } => continue,
                other => {
                    return Err(JournalError::Header(format!(
                        "unexpected journal record {:?}",
                        other.kind()
                    )))
                }
            }
            ops += 1;
        }
        let c = broker.counters();
        broker.journal_op(TraceEvent::CheckpointRecovered {
            ops,
            submitted: c.submitted,
            completed: c.completed,
        });
        Ok(broker)
    }

    pub fn budget_w(&self) -> f64 {
        self.cfg.budget_w
    }

    /// The broker's own metrics registry — always present (every broker
    /// owns one from birth). The server wires its thread-pool gauges here;
    /// the `arcs-serve` binary bridges trace write errors into it.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics.registry)
    }

    /// Virtual time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_us as f64 / 1e6
    }

    pub fn counters(&self) -> BrokerCounters {
        BrokerCounters {
            submitted: self.next_job,
            queued: (self.queue.len() + self.parked.len()) as u64,
            running: self.running.len() as u64,
            completed: self.completed.len() as u64,
            rejected: self.rejected.len() as u64,
            degraded: self.completed.values().filter(|c| c.status == RunStatus::Degraded).count()
                as u64
                + self.running.values().filter(|r| r.degraded).count() as u64,
            failed: self.failed.len() as u64,
            shed: self.shed.len() as u64,
            requeued: self.requeues,
            nodes_down: (self.down_nodes.len() + self.draining.len()) as u64,
        }
    }

    pub fn job_state(&self, job: u64) -> Option<JobState> {
        if self.queued.contains_key(&job) || self.parked.contains_key(&job) {
            Some(JobState::Queued)
        } else if self.running.contains_key(&job) {
            Some(JobState::Running)
        } else if self.completed.contains_key(&job) {
            Some(JobState::Completed)
        } else if self.rejected.contains_key(&job) {
            Some(JobState::Rejected)
        } else if self.failed.contains_key(&job) {
            Some(JobState::Failed)
        } else if self.shed.contains_key(&job) {
            Some(JobState::Shed)
        } else {
            None
        }
    }

    pub fn completed_jobs(&self) -> &BTreeMap<u64, CompletedJob> {
        &self.completed
    }

    /// Why a terminal job ended the way it did: the rejection, failure
    /// or shed reason (whichever state the job is in).
    pub fn rejection_reason(&self, job: u64) -> Option<&str> {
        self.rejected
            .get(&job)
            .or_else(|| self.failed.get(&job))
            .or_else(|| self.shed.get(&job))
            .map(String::as_str)
    }

    /// All internal events drained and nothing queued, parked or
    /// running. (Seeded fleet faults count as events: an idle broker has
    /// lived its whole outage schedule.)
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
            && self.running.is_empty()
            && self.queue.is_empty()
            && self.parked.is_empty()
    }

    /// Whether [`step`](Broker::step) has work — a pending event, or
    /// stranded queued jobs to sweep once no event can ever free
    /// capacity for them. The server's cue to keep advancing virtual
    /// time between commands.
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty() || !self.queue.is_empty()
    }

    fn emit(&self, event: TraceEvent) {
        if self.trace.enabled() {
            self.trace.record(Some(self.now_s()), event);
        }
    }

    /// Submit a job at the current virtual time. Admission control runs
    /// here: inadmissible jobs are rejected immediately and never
    /// schedule; everything else queues FIFO and is placed as nodes and
    /// budget free up (placement may happen within this call).
    pub fn submit(&mut self, spec: JobSpec) -> SubmitOutcome {
        let job = self.next_job;
        self.next_job += 1;
        let weight = if spec.weight > 0.0 { spec.weight } else { 1.0 };
        self.tenants.entry(spec.tenant.clone()).or_insert(weight);

        let requested_floor = spec.floor_w.unwrap_or(0.0).max(0.0);
        // The cheapest effective floor over nodes that could host the
        // job at all — what admission reasons about.
        let min_floor = self
            .fleet
            .nodes()
            .iter()
            .filter(|n| requested_floor <= n.max_cap_w() + EPS_W)
            .map(|n| requested_floor.max(n.min_cap_w()))
            .fold(None, |best: Option<f64>, f| Some(best.map_or(f, |b| b.min(f))));
        let floor_w = min_floor.unwrap_or(requested_floor);
        // The submitted event doubles as the journal's op record, so it
        // carries everything needed to rebuild the spec on replay.
        let submitted = TraceEvent::JobSubmitted {
            job,
            tenant: spec.tenant.clone(),
            workload: spec.workload.clone(),
            floor_w,
            weight,
            timesteps: spec.timesteps as u64,
            fault_seed: spec.fault_seed,
            requested_floor_w: spec.floor_w,
        };
        self.journal_op(submitted.clone());
        self.emit(submitted);
        self.metrics.tenant(&spec.tenant);
        let line =
            event_line(self.now_s(), telemetry::fmt_submitted(job, &spec.tenant, &spec.workload));
        push_event(&mut self.event_pane, line);

        let reason = if self.fleet.is_empty() {
            Some("the fleet has no nodes".to_string())
        } else if resolve_workload(&spec.workload).is_none() {
            Some(format!("unknown workload {:?}", spec.workload))
        } else if min_floor.is_none() {
            Some("floor cap exceeds every node's capacity".to_string())
        } else if floor_w > self.cfg.budget_w + EPS_W {
            Some("floor cap exceeds the global budget".to_string())
        } else {
            None
        };
        if let Some(reason) = reason {
            self.emit(TraceEvent::JobRejected {
                job,
                tenant: spec.tenant.clone(),
                floor_w,
                reason: reason.clone(),
            });
            self.metrics.rejected.inc();
            *self.tenant_rejected.entry(spec.tenant.clone()).or_insert(0) += 1;
            let line =
                event_line(self.now_s(), telemetry::fmt_rejected(job, &spec.tenant, &reason));
            push_event(&mut self.event_pane, line);
            self.rejected.insert(job, reason.clone());
            return SubmitOutcome::Rejected { job, reason };
        }

        // Load shedding: checked after the JobSubmitted emission (shed
        // jobs count as submitted — the conservation identity needs
        // them) and after rejection (a job that could never run gets the
        // more specific answer).
        if let Some(max_queue) = self.cfg.max_queue {
            let depth = self.queue.len() + self.parked.len();
            if depth >= max_queue {
                let reason = format!("admission queue full ({depth}/{max_queue})");
                let retry_after_s = self.retry_hint_s();
                let queue_depth = depth as u64;
                self.emit(TraceEvent::JobShed {
                    job,
                    tenant: spec.tenant.clone(),
                    reason: reason.clone(),
                    queue_depth,
                    retry_after_s,
                });
                self.metrics.shed.inc();
                *self.tenant_shed.entry(spec.tenant.clone()).or_insert(0) += 1;
                let line =
                    event_line(self.now_s(), telemetry::fmt_shed(job, &spec.tenant, queue_depth));
                push_event(&mut self.event_pane, line);
                self.shed.insert(job, reason.clone());
                return SubmitOutcome::Shed { job, reason, retry_after_s, queue_depth };
            }
        }

        self.metrics.admitted.inc();
        self.submit_us.insert(job, self.now_us);
        self.queue.push_back(job);
        self.queued.insert(
            job,
            QueuedJob {
                spec,
                remaining: 0,
                time_s: 0.0,
                energy_j: 0.0,
                degraded: false,
                attempts: 0,
                requeued: false,
            },
        );
        self.schedule();
        SubmitOutcome::Admitted(job)
    }

    /// Backpressure hint for shed submissions: virtual seconds until the
    /// next pending event — before it, capacity cannot change.
    fn retry_hint_s(&self) -> f64 {
        match self.events.keys().next() {
            Some(&(t, _, _)) => {
                ((t.max(self.now_us) - self.now_us) as f64 / 1e6).max(self.cfg.backoff_base_s)
            }
            None => self.cfg.backoff_base_s,
        }
    }

    /// Process the next discrete event (quantum end, node fail/recover,
    /// retry release). When no event remains but jobs are still queued,
    /// nothing can ever free capacity for them — they are swept to
    /// typed failures so the conservation identity closes at idle.
    /// Returns `false` only when there is nothing left to do.
    pub fn step(&mut self) -> bool {
        if self.events.is_empty() {
            if self.queue.is_empty() {
                return false;
            }
            self.journal_op(TraceEvent::BrokerStep {});
            self.starve_stranded();
            self.notify_watchers();
            return true;
        }
        // Write-ahead: the op is durable before any of its effects are.
        self.journal_op(TraceEvent::BrokerStep {});
        let (&(t, class, id), &ev) = self.events.iter().next().expect("checked non-empty");
        self.events.remove(&(t, class, id));
        self.now_us = self.now_us.max(t);
        match ev {
            Ev::Quantum => self.finish_quantum(id),
            Ev::NodeFail { class, down_us } => self.node_fail(id, class, down_us),
            Ev::Recover => self.node_recover(id),
            Ev::Release => self.release(id),
        }
        self.notify_watchers();
        true
    }

    /// Apply a finished quantum: bank its progress, then complete the
    /// job, continue it, or — when its node is draining — requeue it
    /// (free: a graceful drain costs no retry, no backoff) and take the
    /// node down.
    fn finish_quantum(&mut self, job: u64) {
        let rj = self.running.get_mut(&job).expect("event for a job not running");
        rj.event_at = None;
        let q = rj.in_flight.take().expect("an event implies an in-flight quantum");
        rj.remaining -= q.steps;
        rj.time_s += q.time_s;
        rj.energy_j += q.energy_j;
        let newly_degraded = q.degraded && !rj.degraded;
        if newly_degraded {
            rj.degraded = true;
        }
        let node = rj.node;
        let draining = self.draining.contains_key(&node);

        if rj.remaining == 0 {
            let rj = self.running.remove(&job).expect("present above");
            let status = if rj.degraded { RunStatus::Degraded } else { RunStatus::Ok };
            self.emit(TraceEvent::JobCompleted {
                job,
                tenant: rj.spec.tenant.clone(),
                node: rj.node,
                status: status.to_string(),
                time_s: rj.time_s,
                energy_j: rj.energy_j,
            });
            if let Some(at) = self.submit_us.remove(&job) {
                // Seconds-differenced to match trace replay bitwise (see
                // the queue-wait sample in `place`).
                let turn_s = (self.now_us as f64 / 1e6 - at as f64 / 1e6).max(0.0);
                self.metrics.turnaround_s.record(turn_s);
                self.metrics.tenant(&rj.spec.tenant).turnaround.record(turn_s);
            }
            let line = event_line(
                self.now_s(),
                telemetry::fmt_completed(job, &rj.spec.tenant, &status.to_string(), rj.time_s),
            );
            push_event(&mut self.event_pane, line);
            self.completed.insert(
                job,
                CompletedJob {
                    job,
                    tenant: rj.spec.tenant,
                    node: rj.node,
                    status,
                    time_s: rj.time_s,
                    energy_j: rj.energy_j,
                },
            );
            if draining {
                self.node_goes_down(node);
                self.reallocate("node-drained");
            } else {
                self.free_nodes.insert(node);
                self.reallocate("completed");
            }
            self.schedule();
        } else if draining {
            let rj = self.running.remove(&job).expect("present above");
            self.emit(TraceEvent::JobRequeued {
                job,
                tenant: rj.spec.tenant.clone(),
                node,
                attempt: rj.attempts,
                backoff_s: 0.0,
            });
            self.requeues += 1;
            self.metrics.requeues.inc();
            *self.tenant_requeued.entry(rj.spec.tenant.clone()).or_insert(0) += 1;
            let line =
                event_line(self.now_s(), telemetry::fmt_requeued(job, &rj.spec.tenant, node, 0.0));
            push_event(&mut self.event_pane, line);
            self.queue.push_back(job);
            self.queued.insert(
                job,
                QueuedJob {
                    spec: rj.spec,
                    remaining: rj.remaining,
                    time_s: rj.time_s,
                    energy_j: rj.energy_j,
                    degraded: rj.degraded,
                    attempts: rj.attempts,
                    requeued: true,
                },
            );
            self.node_goes_down(node);
            self.reallocate("node-drained");
            self.schedule();
        } else {
            if newly_degraded {
                // The job stops earning surplus; hand its share back.
                self.reallocate("degraded");
            }
            self.start_quantum(job);
        }
    }

    /// A scheduled fleet outage strikes `node`. A crash evicts the
    /// victim mid-quantum (its in-flight progress is lost and a retry is
    /// spent); a drain lets the victim finish its quantum first. Either
    /// way the node leaves the pool until its recovery event — if any —
    /// fires.
    fn node_fail(&mut self, node: u64, class: NodeFaultClass, down_us: Option<u64>) {
        // A drain's real outage starts at the victim's quantum end, so
        // it can outlive the plan's nominal window and overlap the next
        // scheduled fault: a node already out just absorbs the hit.
        if self.down_nodes.contains_key(&node) || self.draining.contains_key(&node) {
            return;
        }
        let victim = self.running.iter().find(|(_, rj)| rj.node == node).map(|(&j, _)| j);
        self.emit(TraceEvent::NodeFailed {
            node,
            class: class.label().to_string(),
            permanent: down_us.is_none(),
            victim,
        });
        self.metrics.node_failures.inc();
        let line = event_line(
            self.now_s(),
            telemetry::fmt_node_failed(node, class.label(), down_us.is_none(), victim),
        );
        push_event(&mut self.event_pane, line);

        match (victim, class) {
            (None, _) => {
                // The node was free: it just leaves the pool.
                self.free_nodes.remove(&node);
                self.down_nodes.insert(node, self.now_us);
                if let Some(d) = down_us {
                    self.events.insert((self.now_us + d, EV_RECOVER, node), Ev::Recover);
                }
            }
            (Some(_), NodeFaultClass::Drain) => {
                // Graceful: the victim finishes its quantum, then
                // requeues free; the node goes down at that boundary.
                self.draining.insert(node, down_us);
            }
            (Some(job), NodeFaultClass::Crash) => {
                let mut rj = self.running.remove(&job).expect("victim is running");
                if let Some(at) = rj.event_at.take() {
                    self.events.remove(&(at, EV_QUANTUM, job));
                }
                // The in-flight quantum dies with the node: completed
                // quanta stay banked, this one is re-run elsewhere.
                rj.in_flight = None;
                self.down_nodes.insert(node, self.now_us);
                if let Some(d) = down_us {
                    self.events.insert((self.now_us + d, EV_RECOVER, node), Ev::Recover);
                }
                if rj.attempts > self.cfg.max_retries {
                    self.fail_job(
                        job,
                        rj.spec.tenant.clone(),
                        format!(
                            "retry budget exhausted: {} placements all lost their node",
                            rj.attempts
                        ),
                        rj.attempts,
                    );
                } else {
                    // Deterministic exponential backoff, doubling per
                    // consumed placement, capped at 64× the base.
                    let backoff_s = self.cfg.backoff_base_s
                        * 2f64.powi((rj.attempts.saturating_sub(1)).min(6) as i32);
                    self.emit(TraceEvent::JobRequeued {
                        job,
                        tenant: rj.spec.tenant.clone(),
                        node,
                        attempt: rj.attempts,
                        backoff_s,
                    });
                    self.requeues += 1;
                    self.metrics.requeues.inc();
                    *self.tenant_requeued.entry(rj.spec.tenant.clone()).or_insert(0) += 1;
                    let line = event_line(
                        self.now_s(),
                        telemetry::fmt_requeued(job, &rj.spec.tenant, node, backoff_s),
                    );
                    push_event(&mut self.event_pane, line);
                    let release_us = self.now_us + (backoff_s * 1e6).round().max(1.0) as u64;
                    self.events.insert((release_us, EV_RELEASE, job), Ev::Release);
                    self.parked.insert(
                        job,
                        QueuedJob {
                            spec: rj.spec,
                            remaining: rj.remaining,
                            time_s: rj.time_s,
                            energy_j: rj.energy_j,
                            degraded: rj.degraded,
                            attempts: rj.attempts,
                            requeued: true,
                        },
                    );
                }
                self.reallocate("node-failed");
                self.schedule();
            }
        }
    }

    /// A temporary outage ends: the node rejoins the fair-share pool.
    fn node_recover(&mut self, node: u64) {
        let since = self.down_nodes.remove(&node).expect("recovery for a node not down");
        // Seconds-differenced like every duration the replay rebuilds.
        let down_s = (self.now_us as f64 / 1e6 - since as f64 / 1e6).max(0.0);
        self.emit(TraceEvent::NodeRecovered { node, down_s });
        let line = event_line(self.now_s(), telemetry::fmt_node_recovered(node, down_s));
        push_event(&mut self.event_pane, line);
        self.free_nodes.insert(node);
        self.schedule();
    }

    /// A crash-requeued job finished its backoff: back into the FIFO.
    fn release(&mut self, job: u64) {
        let qj = self.parked.remove(&job).expect("release for a job not parked");
        self.queue.push_back(job);
        self.queued.insert(job, qj);
        self.schedule();
    }

    /// No event can ever fire again, yet jobs are queued: every node
    /// they could run on is permanently gone. Fail them typed so
    /// `submitted == completed + failed + shed + rejected` still holds.
    fn starve_stranded(&mut self) {
        while let Some(job) = self.queue.pop_front() {
            let qj = self.queued.remove(&job).expect("queued job has a spec");
            self.fail_job(
                job,
                qj.spec.tenant,
                "no surviving node can host the job".to_string(),
                qj.attempts,
            );
        }
    }

    fn fail_job(&mut self, job: u64, tenant: String, reason: String, attempts: u64) {
        self.emit(TraceEvent::JobFailed {
            job,
            tenant: tenant.clone(),
            reason: reason.clone(),
            attempts,
        });
        self.metrics.failed.inc();
        *self.tenant_failed.entry(tenant.clone()).or_insert(0) += 1;
        self.submit_us.remove(&job);
        let line = event_line(self.now_s(), telemetry::fmt_failed(job, &tenant, &reason));
        push_event(&mut self.event_pane, line);
        self.failed.insert(job, reason);
    }

    /// A drain completes: the victim's quantum ended, the node actually
    /// leaves service now (its recovery clock starts here, not at the
    /// nominal fault time).
    fn node_goes_down(&mut self, node: u64) {
        let down_us = self.draining.remove(&node).expect("node was draining");
        self.down_nodes.insert(node, self.now_us);
        if let Some(d) = down_us {
            self.events.insert((self.now_us + d, EV_RECOVER, node), Ev::Recover);
        }
    }

    /// Drain every event — run all admitted jobs to completion.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Place queued jobs onto free nodes, FIFO (no skipping: a large job
    /// at the head waits rather than being starved by smaller ones
    /// slipping past it). Newly placed jobs trigger one `scheduled`
    /// reallocation and start their first quantum.
    fn schedule(&mut self) {
        let mut placed = Vec::new();
        while let Some(&job) = self.queue.front() {
            let spec = &self.queued[&job].spec;
            let requested = spec.floor_w.unwrap_or(0.0).max(0.0);
            let committed: f64 = self.running.values().map(|r| r.floor_w).sum();
            let node = self.free_nodes.iter().copied().find(|id| {
                let n = self.fleet.node(*id).expect("free node exists");
                requested <= n.max_cap_w() + EPS_W
                    && committed + requested.max(n.min_cap_w()) <= self.cfg.budget_w + EPS_W
            });
            let Some(node) = node else { break };
            self.place(job, node);
            placed.push(job);
        }
        if !placed.is_empty() {
            self.reallocate("scheduled");
            for job in placed {
                self.start_quantum(job);
            }
        }
    }

    /// Bind a job to a node: build its persistent executor (shared
    /// model cache, cap handle at the floor, optional fault plan) and
    /// tuner. The final allocation lands in the `scheduled`
    /// reallocation that follows.
    fn place(&mut self, job: u64, node_id: u64) {
        self.queue.pop_front();
        let qj = self.queued.remove(&job).expect("queued job has a spec");
        let spec = qj.spec;
        let node = self.fleet.node(node_id).expect("placing on a fleet node").clone();
        let floor_w = spec.floor_w.unwrap_or(0.0).max(node.min_cap_w());
        let mut wl = resolve_workload(&spec.workload).expect("admission resolved the workload");
        if spec.timesteps > 0 {
            wl.timesteps = spec.timesteps;
        }
        // A requeued job resumes at its last completed quantum boundary;
        // a fresh one starts from the workload's full length.
        let remaining = if qj.requeued { qj.remaining } else { wl.timesteps };

        let handle = CapHandle::new(node.package_cap_w(floor_w));
        // The executor outlives every quantum of the job, so the handle and
        // the fault plan attach once here: the fault ordinals then run on
        // across quanta instead of restarting with each one.
        let mut exec = SimExecutor::new(node.machine.clone(), node.package_cap_w(floor_w))
            .with_shared_cache(Arc::clone(&node.cache));
        exec.attach_cap_handle(handle.clone());
        let mut resilience = self.cfg.resilience;
        if let Some(seed) = spec.fault_seed {
            exec.attach_faults(FaultPlan::flaky_rapl(seed));
            // A faulted job without a self-healing ladder would turn
            // hard meter faults into run errors; force the standard one.
            resilience = Some(resilience.unwrap_or_else(ResilienceOptions::standard));
        }
        let tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&node.machine)));

        self.emit(TraceEvent::JobScheduled {
            job,
            tenant: spec.tenant.clone(),
            node: node_id,
            cap_w: floor_w,
        });
        if !qj.requeued {
            // Queue wait is the *first* placement's wait — a requeued
            // job already paid it (replay applies the same rule).
            if let Some(&at) = self.submit_us.get(&job) {
                // Differenced in seconds (not µs) so the sample is
                // bitwise identical to what a trace replay reconstructs
                // from the emitted `t_s` timestamps.
                let wait_s = (self.now_us as f64 / 1e6 - at as f64 / 1e6).max(0.0);
                self.metrics.queue_wait_s.record(wait_s);
                self.metrics.tenant(&spec.tenant).wait.record(wait_s);
            }
        }
        let line =
            event_line(self.now_s(), telemetry::fmt_scheduled(job, &spec.tenant, node_id, floor_w));
        push_event(&mut self.event_pane, line);
        self.free_nodes.remove(&node_id);
        self.running.insert(
            job,
            RunningJob {
                spec,
                node: node_id,
                floor_w,
                alloc_w: floor_w,
                max_w: node.max_cap_w(),
                handle,
                exec,
                tuner,
                wl,
                resilience,
                remaining,
                time_s: qj.time_s,
                energy_j: qj.energy_j,
                degraded: qj.degraded,
                in_flight: None,
                event_at: None,
                attempts: qj.attempts + 1,
            },
        );
    }

    /// Simulate one quantum for `job` now and schedule its completion
    /// event at `now + quantum duration` (virtual time).
    fn start_quantum(&mut self, job: u64) {
        let quantum = self.cfg.quantum_timesteps.max(1);
        let rj = self.running.get_mut(&job).expect("quantum for a running job");
        let steps = rj.remaining.min(quantum);
        rj.wl.timesteps = steps;
        let mut runner = Runner::new(&mut rj.exec).workload(&rj.wl).tuner(&mut rj.tuner);
        if let Some(res) = rj.resilience {
            runner = runner.resilience(res);
        }
        let report = runner.run().expect("a resilient simulated quantum cannot error");
        let dur_us = (report.time_s * 1e6).round().max(1.0) as u64;
        rj.in_flight = Some(QuantumResult {
            steps,
            time_s: report.time_s,
            energy_j: report.energy_j,
            degraded: report.status == RunStatus::Degraded,
        });
        let at = self.now_us + dur_us;
        rj.event_at = Some(at);
        self.events.insert((at, EV_QUANTUM, job), Ev::Quantum);
    }

    /// Redistribute the global budget across running jobs: floors
    /// first, then weighted-fair water-filling of the surplus (see
    /// module docs). Emits [`TraceEvent::CapReallocated`] and moves the
    /// cap handles of every job whose allocation changed.
    fn reallocate(&mut self, reason: &str) {
        // Per-tenant running-job counts split each tenant's weight.
        let mut tenant_jobs: BTreeMap<&str, f64> = BTreeMap::new();
        for rj in self.running.values() {
            *tenant_jobs.entry(rj.spec.tenant.as_str()).or_insert(0.0) += 1.0;
        }
        let mut alloc: BTreeMap<u64, f64> = BTreeMap::new();
        let mut weight: BTreeMap<u64, f64> = BTreeMap::new();
        let mut unsat: BTreeSet<u64> = BTreeSet::new();
        for (&job, rj) in &self.running {
            alloc.insert(job, rj.floor_w);
            if !rj.degraded && rj.max_w > rj.floor_w + EPS_W {
                let w = self.tenants.get(&rj.spec.tenant).copied().unwrap_or(1.0)
                    / tenant_jobs[rj.spec.tenant.as_str()];
                weight.insert(job, w);
                unsat.insert(job);
            }
        }

        // Water-fill: each round shares the remaining surplus by weight;
        // jobs that hit their node maximum leave the pool and their
        // leftover flows to the next round. Terminates because a round
        // either saturates somebody or distributes everything.
        loop {
            let used: f64 = alloc.values().sum();
            let surplus = self.cfg.budget_w - used;
            if surplus <= ALLOC_QUANTUM_W / 2.0 || unsat.is_empty() {
                break;
            }
            let total_weight: f64 = unsat.iter().map(|j| weight[j]).sum();
            let mut saturated = false;
            for job in unsat.clone() {
                let give = surplus * weight[&job] / total_weight;
                let max = self.running[&job].max_w;
                let a = alloc.get_mut(&job).expect("allocated above");
                if *a + give >= max - EPS_W {
                    *a = max;
                    unsat.remove(&job);
                    saturated = true;
                } else {
                    *a += give;
                }
            }
            if !saturated {
                break;
            }
        }

        // Quantize the surplus part down so Σ never creeps past the
        // budget and per-cap cache keys stay coarse.
        for (job, a) in alloc.iter_mut() {
            let floor = self.running[job].floor_w;
            *a = floor + ((*a - floor) / ALLOC_QUANTUM_W).floor() * ALLOC_QUANTUM_W;
        }

        let total_w: f64 = alloc.values().sum();
        let allocations: Vec<JobAllocation> = alloc
            .iter()
            .map(|(&job, &cap_w)| JobAllocation { job, node: self.running[&job].node, cap_w })
            .collect();
        let mut churn_w = 0.0;
        for (job, &cap_w) in &alloc {
            let rj = self.running.get_mut(job).expect("allocated jobs are running");
            if (rj.alloc_w - cap_w).abs() > EPS_W {
                churn_w += (rj.alloc_w - cap_w).abs();
                rj.alloc_w = cap_w;
                let sockets = self.fleet.node(rj.node).expect("job node exists").machine.sockets;
                rj.handle.set(cap_w / sockets as f64);
            }
        }
        self.metrics.reallocations.inc();
        self.metrics.realloc_churn_w.record(churn_w);
        // Per-tenant allocated-watts gauges: recompute every tenant's sum
        // (tenants with nothing running drop to 0).
        let mut by_tenant: BTreeMap<&str, f64> = BTreeMap::new();
        for rj in self.running.values() {
            *by_tenant.entry(rj.spec.tenant.as_str()).or_insert(0.0) += rj.alloc_w;
        }
        for (name, handles) in &self.metrics.tenants {
            handles.alloc_w.set(by_tenant.get(name.as_str()).copied().unwrap_or(0.0));
        }
        let line = event_line(
            self.now_s(),
            telemetry::fmt_realloc(reason, total_w, self.cfg.budget_w, allocations.len()),
        );
        push_event(&mut self.event_pane, line);
        self.emit(TraceEvent::CapReallocated {
            reason: reason.to_string(),
            budget_w: self.cfg.budget_w,
            total_w,
            allocations,
        });
    }

    /// One dashboard frame of the broker's current state (see
    /// [`TelemetrySnapshot`]). SLO digests read the same registry series
    /// the Prometheus exposition renders.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut tenants: BTreeMap<String, TenantTelemetry> = BTreeMap::new();
        for (name, &weight) in &self.tenants {
            let handles = self.metrics.tenants.get(name);
            tenants.insert(
                name.clone(),
                TenantTelemetry {
                    weight,
                    queued: 0,
                    running: 0,
                    completed: 0,
                    degraded: 0,
                    rejected: self.tenant_rejected.get(name).copied().unwrap_or(0),
                    failed: self.tenant_failed.get(name).copied().unwrap_or(0),
                    shed: self.tenant_shed.get(name).copied().unwrap_or(0),
                    requeued: self.tenant_requeued.get(name).copied().unwrap_or(0),
                    alloc_w: 0.0,
                    fair_share_w: 0.0,
                    queue_wait: handles.map(|h| Digest::from(&h.wait)).unwrap_or_default(),
                    turnaround: handles.map(|h| Digest::from(&h.turnaround)).unwrap_or_default(),
                },
            );
        }
        for qj in self.queued.values().chain(self.parked.values()) {
            if let Some(t) = tenants.get_mut(&qj.spec.tenant) {
                t.queued += 1;
            }
        }
        for rj in self.running.values() {
            if let Some(t) = tenants.get_mut(&rj.spec.tenant) {
                t.running += 1;
                t.alloc_w += rj.alloc_w;
                if rj.degraded {
                    t.degraded += 1;
                }
            }
        }
        for done in self.completed.values() {
            if let Some(t) = tenants.get_mut(&done.tenant) {
                t.completed += 1;
                if done.status == RunStatus::Degraded {
                    t.degraded += 1;
                }
            }
        }
        let c = self.counters();
        let mut snap = TelemetrySnapshot {
            now_s: self.now_s(),
            budget_w: self.cfg.budget_w,
            // `+ 0.0` normalises the empty sum's `-0.0` so idle frames
            // serialize as `0`, matching the replay reconstruction.
            allocated_w: self.running.values().map(|r| r.alloc_w).sum::<f64>() + 0.0,
            submitted: c.submitted,
            queued: c.queued,
            running: c.running,
            completed: c.completed,
            rejected: c.rejected,
            degraded: c.degraded,
            failed: c.failed,
            shed: c.shed,
            requeued: c.requeued,
            nodes_down: c.nodes_down,
            queue_wait: Digest::from(&self.metrics.queue_wait_s),
            turnaround: Digest::from(&self.metrics.turnaround_s),
            realloc_churn_w: Digest::from(&self.metrics.realloc_churn_w),
            tenants,
            events: self.event_pane.iter().cloned().collect(),
        };
        snap.compute_fair_shares();
        snap
    }

    /// Subscribe to telemetry frames: one immediately, then one every
    /// `every` quantum events (clamped to ≥ 1). The subscription dies
    /// silently when the receiver hangs up.
    pub fn watch(&mut self, every: u64, tx: Sender<TelemetrySnapshot>) {
        let every = every.max(1);
        if tx.send(self.telemetry()).is_ok() {
            self.watchers.push(Watcher { tx, every, seen: 0 });
        }
    }

    fn notify_watchers(&mut self) {
        if self.watchers.is_empty() {
            return;
        }
        let mut due = false;
        for w in &mut self.watchers {
            w.seen += 1;
            if w.seen % w.every == 0 {
                due = true;
            }
        }
        if !due {
            return;
        }
        let snap = self.telemetry();
        self.watchers.retain(|w| w.seen % w.every != 0 || w.tx.send(snap.clone()).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_powersim::Machine;
    use arcs_trace::{TraceRecord, VecSink};

    fn small_broker(budget_w: f64, nodes: usize, sink: Arc<VecSink>) -> Broker {
        let fleet = Fleet::homogeneous(Machine::crill(), nodes);
        let mut cfg = BrokerConfig::new(budget_w);
        cfg.quantum_timesteps = 2;
        Broker::new(fleet, cfg, sink)
    }

    fn spec(tenant: &str) -> JobSpec {
        JobSpec::new(tenant, "sp.S").timesteps(4)
    }

    fn conservation_holds(records: &[TraceRecord]) {
        let mut seen = 0;
        for r in records {
            if let TraceEvent::CapReallocated { budget_w, total_w, allocations, .. } = &r.event {
                let sum: f64 = allocations.iter().map(|a| a.cap_w).sum();
                assert!((sum - total_w).abs() < 1e-6, "total_w must equal Σ allocations");
                assert!(*total_w <= budget_w + 1e-6, "Σ {total_w} over budget {budget_w}");
                seen += 1;
            }
        }
        assert!(seen > 0, "the trace must carry reallocation points");
    }

    #[test]
    fn jobs_complete_and_the_budget_is_conserved() {
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(400.0, 2, Arc::clone(&sink));
        let a = broker.submit(spec("acme"));
        let b = broker.submit(spec("acme"));
        let c = broker.submit(spec("umbrella"));
        assert!(matches!(a, SubmitOutcome::Admitted(0)));
        assert!(matches!(b, SubmitOutcome::Admitted(1)));
        // Two nodes: the third job queues until one finishes.
        assert_eq!(broker.job_state(c.job()), Some(JobState::Queued));

        broker.run_until_idle();
        assert!(broker.is_idle());
        let counters = broker.counters();
        assert_eq!(counters.completed, 3);
        assert_eq!(counters.rejected, 0);
        assert_eq!(counters.queued, 0);
        for job in [0, 1, 2] {
            assert_eq!(broker.job_state(job), Some(JobState::Completed));
            let done = &broker.completed_jobs()[&job];
            assert_eq!(done.status, RunStatus::Ok);
            assert!(done.time_s > 0.0 && done.energy_j > 0.0);
        }
        conservation_holds(&sink.drain());
    }

    #[test]
    fn inadmissible_jobs_are_rejected_with_a_reason() {
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(400.0, 2, Arc::clone(&sink));
        // Crill nodes top out at 230 W: a 500 W floor fits no node.
        let over_node = broker.submit(spec("acme").floor_w(500.0));
        let SubmitOutcome::Rejected { reason, .. } = &over_node else {
            panic!("500 W floor must be rejected")
        };
        assert!(reason.contains("every node"), "{reason}");

        // 200 W fits a node but exceeds a 150 W budget.
        let mut tight = small_broker(150.0, 2, Arc::new(VecSink::new()));
        let over_budget = tight.submit(spec("acme").floor_w(200.0));
        let SubmitOutcome::Rejected { reason, .. } = &over_budget else {
            panic!("a floor above the budget must be rejected")
        };
        assert!(reason.contains("global budget"), "{reason}");

        let unknown = broker.submit(JobSpec::new("acme", "nope.S"));
        assert!(matches!(unknown, SubmitOutcome::Rejected { .. }));

        // Rejections are queryable and traced; admitted work is unharmed.
        assert_eq!(broker.job_state(over_node.job()), Some(JobState::Rejected));
        assert!(broker.rejection_reason(over_node.job()).is_some());
        let ok = broker.submit(spec("acme"));
        broker.run_until_idle();
        assert_eq!(broker.job_state(ok.job()), Some(JobState::Completed));
        let records = sink.drain();
        let rejections =
            records.iter().filter(|r| matches!(r.event, TraceEvent::JobRejected { .. })).count();
        assert_eq!(rejections, 2);
    }

    #[test]
    fn tenant_weights_shape_the_surplus_split() {
        let sink = Arc::new(VecSink::new());
        // Budget 300 over two crill nodes: floors 57.5 + 57.5, surplus
        // 185 split 2:1 → heavy ≈ 180.8, light ≈ 119.2 (both < 230 max).
        let mut broker = small_broker(300.0, 2, Arc::clone(&sink));
        broker.submit(spec("heavy").weight(2.0));
        broker.submit(spec("light").weight(1.0));
        let records_mid: Vec<_> = sink.drain();
        let last_realloc = records_mid
            .iter()
            .rev()
            .find_map(|r| match &r.event {
                TraceEvent::CapReallocated { allocations, .. } => Some(allocations.clone()),
                _ => None,
            })
            .expect("scheduling reallocates");
        assert_eq!(last_realloc.len(), 2);
        let heavy = last_realloc.iter().find(|a| a.job == 0).unwrap().cap_w;
        let light = last_realloc.iter().find(|a| a.job == 1).unwrap().cap_w;
        let heavy_extra = heavy - 57.5;
        let light_extra = light - 57.5;
        assert!(
            (heavy_extra / light_extra - 2.0).abs() < 0.02,
            "surplus must split ≈2:1, got {heavy_extra}:{light_extra}"
        );
        assert!(heavy + light <= 300.0 + 1e-6);
        broker.run_until_idle();
    }

    #[test]
    fn degraded_jobs_are_pinned_to_their_floor() {
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(460.0, 2, Arc::clone(&sink));
        // Job 0 runs under a flaky meter with a zero error budget: the
        // first absorbed hard fault degrades it.
        let mut res = ResilienceOptions::standard();
        res.max_read_retries = 0;
        res.error_budget = Some(0);
        broker.cfg.resilience = Some(res);
        broker.submit(spec("faulty").fault_seed(7).timesteps(8));
        broker.submit(spec("clean").timesteps(8));
        broker.run_until_idle();

        let done = broker.completed_jobs();
        assert_eq!(done[&0].status, RunStatus::Degraded);
        assert_eq!(done[&1].status, RunStatus::Ok);

        let records = sink.drain();
        let degraded_realloc = records
            .iter()
            .find_map(|r| match &r.event {
                TraceEvent::CapReallocated { reason, allocations, .. } if reason == "degraded" => {
                    Some(allocations.clone())
                }
                _ => None,
            })
            .expect("degradation must trigger a reallocation");
        let pinned = degraded_realloc.iter().find(|a| a.job == 0).unwrap();
        assert!(
            (pinned.cap_w - 57.5).abs() < 1e-9,
            "degraded job must hold exactly its floor, got {}",
            pinned.cap_w
        );
        // The clean job inherits the freed surplus, up to its node max.
        let clean = degraded_realloc.iter().find(|a| a.job == 1).unwrap();
        assert!((clean.cap_w - 230.0).abs() < 1e-9, "got {}", clean.cap_w);
        conservation_holds(&records);
    }

    #[test]
    fn same_submissions_produce_byte_identical_traces() {
        let run = || {
            let sink = Arc::new(VecSink::new());
            let mut broker = small_broker(350.0, 2, Arc::clone(&sink));
            broker.submit(spec("acme").fault_seed(3));
            broker.submit(spec("umbrella"));
            broker.submit(spec("acme"));
            broker.submit(spec("umbrella").floor_w(9000.0)); // rejected
            broker.run_until_idle();
            sink.drain()
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let first = run();
        assert_eq!(first, run(), "broker runs must be deterministic");
        assert!(first.contains("JobRejected"));
        assert!(first.contains("JobCompleted"));
    }

    /// The conservation identity every run must close with:
    /// `submitted == completed + failed + shed + rejected` at idle.
    fn zero_lost(broker: &Broker) {
        let c = broker.counters();
        assert!(broker.is_idle(), "identity only holds at idle");
        assert_eq!(c.submitted, c.completed + c.failed + c.shed + c.rejected, "jobs lost: {c:?}");
    }

    /// How long one `spec("t")` job takes alone on a crill node — used
    /// to time fault injection relative to real quantum durations.
    fn probe_runtime_s(timesteps: usize) -> f64 {
        let mut broker = small_broker(230.0, 1, Arc::new(VecSink::new()));
        broker.submit(spec("probe").timesteps(timesteps));
        broker.run_until_idle();
        broker.completed_jobs()[&0].time_s
    }

    #[test]
    fn a_crash_requeues_the_victim_and_it_still_completes() {
        let total = probe_runtime_s(8);
        let run = |sink: Arc<VecSink>| {
            let fleet = Fleet::homogeneous(Machine::crill(), 1);
            let mut cfg = BrokerConfig::new(230.0);
            cfg.quantum_timesteps = 2;
            // One crash ≈ 30% into the job, healed well before the end.
            cfg.node_faults = Some(NodeFaultPlan {
                seed: 11,
                start_s: total * 0.3,
                mtbf_s: 1e-3,
                mttr_s: total * 0.1,
                max_faults_per_node: 1,
                ..NodeFaultPlan::default()
            });
            let mut broker = Broker::new(fleet, cfg, sink);
            broker.submit(spec("acme").timesteps(8));
            broker.run_until_idle();
            broker
        };
        let sink = Arc::new(VecSink::new());
        let broker = run(sink.clone());
        zero_lost(&broker);
        let c = broker.counters();
        assert_eq!(c.completed, 1, "the victim must finish after requeue: {c:?}");
        assert!(c.requeued >= 1, "the crash must have requeued the victim");
        let records = sink.drain();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains(&"NodeFailed"));
        assert!(kinds.contains(&"NodeRecovered"));
        assert!(kinds.contains(&"JobRequeued"));
        let crash_pos = kinds.iter().position(|k| *k == "NodeFailed").unwrap();
        let done_pos = kinds.iter().rposition(|k| *k == "JobCompleted").unwrap();
        assert!(crash_pos < done_pos, "completion happens after the crash");
        conservation_holds(&records);

        // And the whole faulted run is deterministic, byte for byte.
        let to_text = |records: &[TraceRecord]| {
            records.iter().map(|r| serde_json::to_string(r).unwrap()).collect::<Vec<_>>().join("\n")
        };
        let again = Arc::new(VecSink::new());
        run(again.clone());
        assert_eq!(to_text(&records), to_text(&again.drain()));
    }

    #[test]
    fn retry_budget_exhaustion_fails_typed() {
        let total = probe_runtime_s(8);
        let sink = Arc::new(VecSink::new());
        let fleet = Fleet::homogeneous(Machine::crill(), 1);
        let mut cfg = BrokerConfig::new(230.0);
        cfg.quantum_timesteps = 2;
        cfg.max_retries = 0; // the first crash is fatal
        cfg.node_faults = Some(NodeFaultPlan {
            seed: 5,
            start_s: total * 0.3,
            mtbf_s: 1e-3,
            mttr_s: total * 0.1,
            max_faults_per_node: 1,
            ..NodeFaultPlan::default()
        });
        let mut broker = Broker::new(fleet, cfg, sink.clone());
        broker.submit(spec("acme").timesteps(8));
        broker.run_until_idle();
        zero_lost(&broker);
        let c = broker.counters();
        assert_eq!((c.completed, c.failed), (0, 1), "{c:?}");
        assert_eq!(broker.job_state(0), Some(JobState::Failed));
        assert!(broker.rejection_reason(0).unwrap().contains("retry budget"));
        let records = sink.drain();
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::JobFailed { job: 0, attempts: 1, .. })));
    }

    #[test]
    fn stranded_jobs_fail_typed_when_no_node_survives() {
        let sink = Arc::new(VecSink::new());
        let fleet = Fleet::homogeneous(Machine::crill(), 1);
        let mut cfg = BrokerConfig::new(230.0);
        cfg.quantum_timesteps = 2;
        // The only node dies permanently before any work is submitted.
        cfg.node_faults = Some(NodeFaultPlan {
            seed: 3,
            start_s: 0.0,
            mtbf_s: 1e-3,
            permanent_rate: 1.0,
            max_faults_per_node: 1,
            ..NodeFaultPlan::default()
        });
        let mut broker = Broker::new(fleet, cfg, sink.clone());
        broker.step(); // the permanent outage fires
        broker.submit(spec("acme"));
        broker.submit(spec("umbrella"));
        broker.run_until_idle();
        zero_lost(&broker);
        let c = broker.counters();
        assert_eq!(c.failed, 2, "{c:?}");
        for job in [0, 1] {
            assert_eq!(broker.job_state(job), Some(JobState::Failed));
            assert!(broker.rejection_reason(job).unwrap().contains("no surviving node"));
        }
        let records = sink.drain();
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::NodeFailed { permanent: true, .. })));
    }

    #[test]
    fn a_full_queue_sheds_with_a_backpressure_hint() {
        let sink = Arc::new(VecSink::new());
        let fleet = Fleet::homogeneous(Machine::crill(), 1);
        let mut cfg = BrokerConfig::new(230.0);
        cfg.quantum_timesteps = 2;
        cfg.max_queue = Some(1);
        let mut broker = Broker::new(fleet, cfg, sink.clone());
        broker.submit(spec("acme")); // runs
        broker.submit(spec("acme")); // queues (depth 1 = max)
        let third = broker.submit(spec("late"));
        let SubmitOutcome::Shed { job, reason, retry_after_s, queue_depth } = third else {
            panic!("the third job must be shed, got {third:?}")
        };
        assert_eq!(job, 2);
        assert_eq!(queue_depth, 1);
        assert!(reason.contains("queue full"), "{reason}");
        assert!(retry_after_s > 0.0, "the hint must be actionable");
        assert_eq!(broker.job_state(2), Some(JobState::Shed));
        broker.run_until_idle();
        zero_lost(&broker);
        let c = broker.counters();
        assert_eq!((c.completed, c.shed), (2, 1), "{c:?}");
        let records = sink.drain();
        assert!(records.iter().any(|r| matches!(r.event, TraceEvent::JobShed { job: 2, .. })));
        // Shed jobs still count as submitted in the trace.
        let submitted =
            records.iter().filter(|r| matches!(r.event, TraceEvent::JobSubmitted { .. })).count();
        assert_eq!(submitted, 3);
    }

    #[test]
    fn journal_replay_reconstructs_the_exact_broker() {
        let dir = std::env::temp_dir().join(format!("arcs-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("broker.journal.jsonl");

        // Drive a faulted broker through an explicit op sequence,
        // journaling every op.
        let ops = |broker: &mut Broker| {
            broker.submit(spec("acme").timesteps(8));
            broker.submit(spec("umbrella"));
            for _ in 0..3 {
                broker.step();
            }
            broker.submit(spec("acme").fault_seed(9));
            while broker.step() {}
        };
        let sink = Arc::new(VecSink::new());
        let fleet = Fleet::homogeneous(Machine::crill(), 2);
        let mut cfg = BrokerConfig::new(400.0);
        cfg.quantum_timesteps = 2;
        cfg.node_faults = Some(NodeFaultPlan::node_flap(7));
        let mut original = Broker::new(fleet, cfg, sink.clone());
        original.attach_journal(BrokerJournal::create(&journal_path).unwrap());
        ops(&mut original);
        assert!(original.journal_error().is_none());

        // Recover from the journal alone: same counters, and the
        // replayed trace is record-for-record identical.
        let rec_sink = Arc::new(VecSink::new());
        let recovered = Broker::recover(&journal_path, rec_sink.clone(), None).unwrap();
        assert_eq!(recovered.counters(), original.counters());
        assert_eq!(recovered.now_s(), original.now_s());
        let to_text = |records: &[TraceRecord]| {
            records.iter().map(|r| serde_json::to_string(r).unwrap()).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(to_text(&sink.drain()), to_text(&rec_sink.drain()));
        assert_eq!(
            recovered.completed_jobs().keys().collect::<Vec<_>>(),
            original.completed_jobs().keys().collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_garbage_journals() {
        let dir =
            std::env::temp_dir().join(format!("arcs-serve-badjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.jsonl");
        assert!(matches!(
            Broker::recover(&missing, Arc::new(VecSink::new()), None),
            Err(JournalError::Open(_))
        ));
        // A journal that does not start with a header is refused.
        let headerless = dir.join("headerless.jsonl");
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(230.0, 1, Arc::clone(&sink));
        broker.submit(spec("acme"));
        broker.run_until_idle();
        let text = sink
            .drain()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect::<String>();
        std::fs::write(&headerless, text).unwrap();
        assert!(matches!(
            Broker::recover(&headerless, Arc::new(VecSink::new()), None),
            Err(JournalError::Header(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reallocations_reach_running_jobs_through_their_cap_handles() {
        // One node, budget exactly the node max: a solo job gets the
        // full 230 W; when a second job arrives nothing can be taken
        // (the other node is busy)... so use two nodes and watch the
        // first job's allocation shrink when the second schedules.
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(300.0, 2, Arc::clone(&sink));
        broker.submit(spec("acme").timesteps(8));
        let solo_alloc = broker.running[&0].alloc_w;
        assert!((solo_alloc - 230.0).abs() < 1e-9, "solo job takes its node max, got {solo_alloc}");
        let solo_cap = broker.running[&0].handle.get();
        assert!((solo_cap - 115.0).abs() < 1e-9, "package cap is node watts / sockets");

        broker.submit(spec("umbrella").timesteps(8));
        let squeezed = broker.running[&0].alloc_w;
        assert!(squeezed < solo_alloc, "arrival must squeeze the incumbent");
        let squeezed_cap = broker.running[&0].handle.get();
        assert!((squeezed_cap - squeezed / 2.0).abs() < 1e-9);
        broker.run_until_idle();
        conservation_holds(&sink.drain());
    }
}
