//! The traced breakdown of the serving path: `Server::start` on loopback
//! with one pool thread, journal and trace off, driven by one closed-loop
//! client connection — a `submit` and a `status` per job, a `stats` every
//! 10th job, then a drain and a `shutdown`. It is not an end-to-end
//! workload: the server's unpaced clock makes its request rate too
//! unsteady to gate (see `perfbench/README.md`).
//!
//! The server's virtual clock free-runs between commands, so how far jobs
//! have progressed at any request depends on host speed; the checks are
//! therefore conservation-level only.

use crate::broker::{BUDGET_W, NODES};
use crate::inputs;
use crate::outcome::Outcome;
use crate::stats::{mean, percentile};
use arcs_powersim::{Fleet, Machine};
use arcs_serve::protocol::StatsBody;
use arcs_serve::server::Client;
use arcs_serve::{Broker, BrokerConfig, Request, Response, Server, ServerHandle};
use arcs_trace::NullSink;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs per connection.
const JOBS: usize = 1000;
const STATS_EVERY: usize = 10;
/// Longest a drain may take before the run counts as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Submit,
    Status,
    Stats,
}

fn broker() -> Broker {
    let fleet = Fleet::homogeneous(Machine::crill(), NODES);
    Broker::new(fleet, BrokerConfig::new(BUDGET_W), Arc::new(NullSink))
}

fn start() -> (ServerHandle, Client) {
    let handle = Server::start(broker(), "127.0.0.1:0", 1).expect("binding a loopback port");
    let client = Client::connect(&handle.addr().to_string()).expect("connecting over loopback");
    (handle, client)
}

/// One connection's requests, their round-trip times and the outcome.
#[derive(Default)]
struct Conn {
    rtt: Vec<(Op, f64)>,
    request_s: f64,
    drain_s: f64,
    submitted: u64,
    accepted: u64,
    rejected: u64,
    /// (request, response) pairs, kept only when asked for.
    log: Vec<(Request, Response)>,
}

fn send(
    client: &mut Client,
    conn: &mut Conn,
    keep: bool,
    op: Op,
    req: Request,
) -> Result<Response, String> {
    let t = Instant::now();
    let resp = client.roundtrip(&req);
    let dt = t.elapsed().as_secs_f64();
    match resp {
        Ok(resp) if resp.ok => {
            conn.rtt.push((op, dt));
            if keep {
                conn.log.push((req, resp.clone()));
            }
            Ok(resp)
        }
        other => Err(format!("{} failed: {other:?}", req.op)),
    }
}

fn connection(out: &mut Outcome, seed: u64, keep: bool) -> Conn {
    let mut conn = Conn::default();
    let stream = inputs::job_stream(seed, JOBS, BUDGET_W);
    let (handle, mut client) = start();
    let mut error = None;
    let t0 = Instant::now();
    for (i, spec) in stream.iter().enumerate() {
        let resp = match send(&mut client, &mut conn, keep, Op::Submit, Request::submit(spec)) {
            Ok(resp) => resp,
            Err(e) => {
                error = Some(e);
                break;
            }
        };
        conn.submitted += 1;
        match resp.accepted {
            Some(true) => conn.accepted += 1,
            Some(false) => conn.rejected += 1,
            None => out.check(false, 1, || "submit answered without an admission verdict".into()),
        }
        let Some(job) = resp.job else {
            error = Some("submit answered without a job id".into());
            break;
        };
        let mut result =
            send(&mut client, &mut conn, keep, Op::Status, Request::status(job)).map(drop);
        if result.is_ok() && (i + 1) % STATS_EVERY == 0 {
            result =
                send(&mut client, &mut conn, keep, Op::Stats, Request::op_only("stats")).map(drop);
        }
        if let Err(e) = result {
            error = Some(e);
            break;
        }
    }
    let failed = error.is_some();
    if let Some(e) = error {
        out.check(false, 1, || e);
    }
    conn.request_s = t0.elapsed().as_secs_f64();

    // Drain: poll until nothing is queued or running, then shut down.
    let t1 = Instant::now();
    let mut last: Option<StatsBody> = None;
    while !failed && t1.elapsed() < DRAIN_LIMIT {
        match client.roundtrip(&Request::op_only("stats")).map(|r| r.stats) {
            Ok(Some(s)) if s.queued == 0 && s.running == 0 => {
                last = Some(s);
                break;
            }
            Ok(Some(s)) => last = Some(s),
            other => {
                out.check(false, 1, || format!("drain stats failed: {other:?}"));
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let shut = client.roundtrip(&Request::op_only("shutdown"));
    drop(client);
    if matches!(&shut, Ok(r) if r.ok) {
        handle.wait();
    } else {
        handle.shutdown();
    }
    conn.drain_s = t1.elapsed().as_secs_f64();
    out.check(matches!(&shut, Ok(r) if r.ok), 1, || format!("shutdown failed: {shut:?}"));

    let n = conn.submitted;
    out.check(n == JOBS as u64, JOBS as u64 - n.min(JOBS as u64), || {
        format!("only {n} of {JOBS} submits answered")
    });
    out.check(conn.accepted + conn.rejected == n, n, || {
        format!("accepted {} + rejected {} != submitted {n}", conn.accepted, conn.rejected)
    });
    match last {
        Some(s) => {
            out.check(s.queued == 0 && s.running == 0, n, || format!("drain timed out: {s:?}"));
            out.check(s.completed == conn.accepted, n, || {
                format!("completed {} != accepted {} after the drain", s.completed, conn.accepted)
            });
            out.check(s.submitted == n && s.rejected == conn.rejected, n, || {
                format!(
                    "server counted {} submitted / {} rejected, client {n} / {}",
                    s.submitted, s.rejected, conn.rejected
                )
            });
        }
        None => out.check(false, n, || "no stats after the drain".into()),
    }
    conn
}

fn ms(rtt: &[(Op, f64)], op: Option<Op>) -> Vec<f64> {
    rtt.iter().filter(|(o, _)| op.is_none_or(|want| *o == want)).map(|(_, s)| s * 1e3).collect()
}

fn us_pct(rtt: &[(Op, f64)], op: Op, p: f64) -> f64 {
    let v: Vec<f64> = ms(rtt, Some(op)).into_iter().map(|m| m * 1e3).collect();
    percentile(&v, p).unwrap_or(f64::NAN)
}

/// Replay a connection's commands against an in-process broker, timing
/// each as the server's broker thread would run it (no steps between).
fn replay_in_process(log: &[(Request, Response)]) -> f64 {
    let mut b = broker();
    let mut total = 0.0;
    for (req, _) in log {
        let t = Instant::now();
        match req.op.as_str() {
            "submit" => {
                std::hint::black_box(b.submit(req.to_spec().expect("a logged submit has a spec")));
            }
            "status" => {
                let job = req.job.expect("a logged status names a job");
                std::hint::black_box((
                    b.job_state(job),
                    b.completed_jobs().get(&job).cloned(),
                    b.rejection_reason(job).map(str::to_string),
                ));
            }
            _ => {
                std::hint::black_box((
                    StatsBody::from_counters(b.counters(), b.budget_w(), b.now_s()),
                    b.telemetry(),
                ));
            }
        }
        total += t.elapsed().as_secs_f64();
    }
    total / log.len().max(1) as f64
}

/// The traced breakdown: one connection that keeps its messages, between
/// two untraced ones, then its protocol and broker shares measured off
/// the wire.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    // Untraced references before and after, so warm-up and drift do not
    // land on one side of the comparison.
    let reference = connection(&mut out, seed, false);
    let conn = connection(&mut out, seed, true);
    let after = connection(&mut out, seed, false);
    out.attempted += 3 * conn.rtt.len() as u64;
    out.check(
        conn.accepted == reference.accepted && conn.rejected == reference.rejected,
        conn.submitted,
        || "traced connection admitted differently".into(),
    );

    // Protocol: encode and decode the connection's own messages, both ways.
    let mut encode_s = 0.0;
    let mut decode_s = 0.0;
    let mut stats_bytes = Vec::new();
    for (req, resp) in &conn.log {
        let t = Instant::now();
        let req_line = serde_json::to_string(req).expect("requests serialize");
        let resp_line = serde_json::to_string(resp).expect("responses serialize");
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let req_back: Request = serde_json::from_str(&req_line).expect("requests parse");
        let resp_back: Response = serde_json::from_str(&resp_line).expect("responses parse");
        decode_s += t.elapsed().as_secs_f64();
        out.check(&req_back == req && &resp_back == resp, 1, || {
            "protocol round trip lost data".into()
        });
        if req.op == "stats" {
            stats_bytes.push(resp_line.len() as f64 + 1.0);
        }
    }
    let pairs = conn.log.len().max(1) as f64;
    let encode_us = encode_s * 1e6 / pairs;
    let decode_us = decode_s * 1e6 / pairs;
    let broker_us = replay_in_process(&conn.log) * 1e6;
    let rtt_us = mean(&ms(&conn.rtt, None)) * 1e3;
    let transport_us = rtt_us - encode_us - decode_us - broker_us;
    let rtt_total_s: f64 = conn.rtt.iter().map(|(_, s)| s).sum();
    let client_s = conn.request_s - rtt_total_s;
    let ops = |c: &Conn| c.rtt.len() as f64 / c.request_s;

    let m = |name: &str| format!("wire.{name}");
    for (op, name) in [(Op::Submit, "submit"), (Op::Status, "status")] {
        out.metric(m(&format!("serve.wire.{name}_rtt_us.p50")), us_pct(&conn.rtt, op, 50.0), "us");
        out.metric(m(&format!("serve.wire.{name}_rtt_us.p99")), us_pct(&conn.rtt, op, 99.0), "us");
    }
    out.metric(m("serve.wire.stats_rtt_us.p50"), us_pct(&conn.rtt, Op::Stats, 50.0), "us");
    out.metric(m("serve.wire.stats_rtt_us.p90"), us_pct(&conn.rtt, Op::Stats, 90.0), "us");
    out.metric(m("serve.protocol.encode_ns"), encode_us * 1e3, "ns");
    out.metric(m("serve.protocol.decode_ns"), decode_us * 1e3, "ns");
    out.metric(m("serve.wire.stats_bytes"), mean(&stats_bytes), "bytes");
    out.metric(m("serve.wire.rtt_us"), rtt_us, "us");
    out.metric(m("serve.wire.broker_us"), broker_us, "us");
    out.metric(m("serve.wire.transport_us"), transport_us, "us");
    out.metric(m("serve.wire.client_s"), client_s, "s");
    out.metric(m("serve.server.drain_ms"), conn.drain_s * 1e3, "ms");
    out.metric(m("trace.ops_per_s"), ops(&conn), "1/s");
    let untraced_ops = (ops(&reference) + ops(&after)) / 2.0;
    out.metric(m("trace.overhead_pct"), (untraced_ops / ops(&conn) - 1.0) * 100.0, "%");
    out.note(format!(
        "wire: request phase {:.3} s = {} round trips x {rtt_us:.1} us (protocol {:.1} + broker {broker_us:.1} \
         + transport/unattributed {transport_us:.1}) + client {client_s:.4} s; drain {:.1} ms",
        conn.request_s,
        conn.rtt.len(),
        encode_us + decode_us,
        conn.drain_s * 1e3
    ));
    out
}
