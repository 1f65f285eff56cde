//! Integration: the broker's telemetry plane — `stats` and `watch` over
//! real TCP, live-vs-replay agreement, and the driver's self-profile
//! spans — against the whole stack.

use arcs_powersim::{Fleet, Machine};
use arcs_serve::server::Client;
use arcs_serve::{
    Broker, BrokerConfig, JobSpec, Request, Server, SubmitOutcome, TelemetrySnapshot,
    TraceTelemetry,
};
use arcs_trace::{TraceEvent, TraceRecord, TraceSink, VecSink};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// `stats` returns counters and a telemetry snapshot taken at the same
/// broker instant, with populated SLO digests and conserved budget.
#[test]
fn stats_carries_a_consistent_telemetry_snapshot() {
    let fleet = Fleet::homogeneous(Machine::crill(), 2);
    let mut cfg = BrokerConfig::new(400.0);
    cfg.quantum_timesteps = 2;
    let broker = Broker::new(fleet, cfg, Arc::new(arcs_trace::NullSink));
    let handle = Server::start(broker, "127.0.0.1:0", 2).expect("ephemeral port");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    for (tenant, wl, weight) in
        [("acme", "sp.S", 2.0), ("umbrella", "cg.S", 1.0), ("acme", "ep.S", 2.0)]
    {
        let spec = JobSpec::new(tenant, wl).timesteps(4).weight(weight);
        let resp = client.roundtrip(&Request::submit(&spec)).unwrap();
        assert_eq!(resp.accepted, Some(true));
    }

    // Poll until the broker drains all three jobs (virtual time runs
    // fast; the loop bounds wall time, not correctness).
    let mut last = None;
    for _ in 0..200 {
        let resp = client.roundtrip(&Request::op_only("stats")).unwrap();
        let stats = resp.stats.expect("stats body");
        let telemetry = resp.telemetry.expect("telemetry snapshot rides along");
        // Same instant: the counters and the snapshot cannot disagree.
        assert_eq!(stats.submitted, telemetry.submitted);
        assert_eq!(stats.completed, telemetry.completed);
        assert!(telemetry.allocated_w <= telemetry.budget_w + 1e-6);
        let tenant_alloc: f64 = telemetry.tenants.values().map(|t| t.alloc_w).sum();
        assert!(tenant_alloc <= telemetry.budget_w + 1e-6);
        let done = stats.completed == 3;
        last = Some(telemetry);
        if done {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let snap = last.expect("at least one stats roundtrip");
    assert_eq!(snap.completed, 3, "all jobs drain");
    // Every placement records a queue wait; all three jobs were placed.
    assert_eq!(snap.queue_wait.count, 3);
    assert_eq!(snap.turnaround.count, 3);
    assert!(snap.realloc_churn_w.count > 0, "reallocation happened");
    let acme = &snap.tenants["acme"];
    assert_eq!(acme.weight, 2.0);
    assert_eq!(acme.completed, 2);
    assert_eq!(snap.tenants["umbrella"].completed, 1);
    assert!(!snap.events.is_empty());
    assert!(snap.events.iter().any(|l| l.contains("submitted")));

    // `metrics` renders the same registry as Prometheus text.
    let resp = client.roundtrip(&Request::op_only("metrics")).unwrap();
    let text = resp.metrics.expect("prometheus text");
    assert!(text.contains("# TYPE serve_queue_wait_s histogram"), "got:\n{text}");
    assert!(text.contains("tenant=\"acme\""));

    client.roundtrip(&Request::op_only("shutdown")).unwrap();
    handle.shutdown();
}

/// `watch` switches the connection to raw NDJSON snapshot pushes; every
/// frame conserves the budget and virtual time never runs backwards.
#[test]
fn watch_streams_budget_conserving_frames() {
    let fleet = Fleet::homogeneous(Machine::crill(), 2);
    let mut cfg = BrokerConfig::new(345.0);
    cfg.quantum_timesteps = 2;
    let broker = Broker::new(fleet, cfg, Arc::new(arcs_trace::NullSink));
    let handle = Server::start(broker, "127.0.0.1:0", 2).expect("ephemeral port");
    let addr = handle.addr().to_string();

    // Subscribe first so the stream sees the jobs arrive.
    let stream = TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"{\"op\":\"watch\",\"every\":1}\n").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);

    let mut client = Client::connect(&addr).unwrap();
    for i in 0..4u64 {
        let tenant = if i % 2 == 0 { "acme" } else { "umbrella" };
        let spec = JobSpec::new(tenant, "sp.S").timesteps(4);
        client.roundtrip(&Request::submit(&spec)).unwrap();
    }

    let mut frames = Vec::new();
    let mut line = String::new();
    while frames.len() < 8 {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let snap: TelemetrySnapshot = serde_json::from_str(line.trim()).unwrap();
        frames.push(snap);
    }
    assert!(frames.len() >= 8, "the broker pushes a frame per quantum");
    let mut prev_t = -1.0;
    for snap in &frames {
        assert!(snap.allocated_w <= snap.budget_w + 1e-6, "conservation in every frame");
        assert!(snap.now_s >= prev_t, "virtual time is monotonic");
        prev_t = snap.now_s;
    }
    assert!(frames.iter().any(|s| s.running > 0), "the stream saw work in flight");

    client.roundtrip(&Request::op_only("shutdown")).unwrap();
    handle.shutdown();
}

/// The replay reconstruction agrees with the live broker's own
/// telemetry on everything a drained trace can know.
#[test]
fn replay_agrees_with_live_telemetry() {
    let fleet = Fleet::homogeneous(Machine::crill(), 2);
    let sink = Arc::new(VecSink::new());
    let mut cfg = BrokerConfig::new(345.0);
    cfg.quantum_timesteps = 3;
    let mut broker = Broker::new(fleet, cfg, Arc::clone(&sink) as Arc<dyn TraceSink>);

    for i in 0..10u64 {
        let tenant = format!("tenant{}", i % 3);
        let mut spec = JobSpec::new(tenant, ["sp.S", "cg.S", "ep.S"][i as usize % 3]).timesteps(3);
        if i % 3 == 0 {
            spec = spec.weight(2.0);
        }
        if i == 7 {
            spec = spec.floor_w(9_000.0); // planted inadmissible job
        }
        match broker.submit(spec) {
            SubmitOutcome::Admitted(_)
            | SubmitOutcome::Rejected { .. }
            | SubmitOutcome::Shed { .. } => {}
        }
        broker.step();
    }
    broker.run_until_idle();
    let live = broker.telemetry();

    let mut tt = TraceTelemetry::new();
    for rec in sink.drain() {
        tt.consume(&rec);
    }
    let replay = tt.snapshot();

    assert_eq!(replay.submitted, live.submitted);
    assert_eq!(replay.completed, live.completed);
    assert_eq!(replay.rejected, live.rejected);
    assert_eq!(replay.degraded, live.degraded);
    assert_eq!((replay.queued, replay.running), (0, 0));
    assert_eq!(replay.allocated_w, live.allocated_w);
    assert_eq!(replay.budget_w, live.budget_w);
    // The SLO digests are rebuilt from the same samples through the
    // same log-bucket histograms — identical, not merely close.
    assert_eq!(replay.queue_wait, live.queue_wait);
    assert_eq!(replay.turnaround, live.turnaround);
    assert_eq!(replay.realloc_churn_w, live.realloc_churn_w);
    assert_eq!(replay.tenants.len(), live.tenants.len());
    for (name, l) in &live.tenants {
        let r = &replay.tenants[name];
        assert_eq!(r.weight, l.weight, "{name}");
        assert_eq!(r.completed, l.completed, "{name}");
        assert_eq!(r.rejected, l.rejected, "{name}");
        assert_eq!(r.queue_wait, l.queue_wait, "{name}");
        assert_eq!(r.turnaround, l.turnaround, "{name}");
    }
    // Both panes narrate through the same helpers in trace order.
    assert_eq!(replay.events, live.events);
}

/// `DriverPhases` reaches the trace only when self-profiling is opted
/// in — byte-compared deterministic traces must never grow wall-clock
/// spans by accident.
#[test]
fn self_profile_spans_are_opt_in() {
    use arcs::{Runner, SimExecutor};
    use arcs_kernels::{model, Class};

    let run = |self_profile: bool| -> Vec<TraceRecord> {
        let machine = Machine::crill();
        let sink = Arc::new(VecSink::new());
        let mut exec = SimExecutor::new(machine.clone(), machine.power.tdp_w);
        let wl = model::sp(Class::S);
        Runner::new(&mut exec)
            .workload(&wl)
            .trace(sink.clone())
            .self_profile(self_profile)
            .run()
            .expect("sim run succeeds");
        sink.drain()
    };

    let plain = run(false);
    assert!(
        !plain.iter().any(|r| matches!(r.event, TraceEvent::DriverPhases { .. })),
        "no spans without opt-in"
    );
    let profiled = run(true);
    let spans: Vec<_> = profiled
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::DriverPhases { workload, invocations, tune_s, measure_s, .. } => {
                Some((workload.clone(), *invocations, *tune_s, *measure_s))
            }
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), 1, "one span summary per run");
    let (workload, invocations, tune_s, measure_s) = &spans[0];
    assert_eq!(workload, "sp.S");
    assert!(*invocations > 0);
    assert!(*tune_s >= 0.0);
    assert!(*measure_s > 0.0, "the run did measure something");
}
