//! The per-layer metrics of the traced run.
//!
//! The service-layer metrics come from the workload's own service: its
//! counters around the traced window and the client timestamps of that
//! window ([`service_layer`]). Every other layer is timed here, from the
//! benchmark's own calls into each crate's public functions on the run's
//! seeded inputs ([`run`]); these probes are the same on every workload.

use crate::inputs::{self, Inputs, SHARDS};
use crate::plasticity;
use crate::stats::{self, Metrics};
use crate::steering::{Got, Served};
use crate::trace::{SpanId, Tracer};
use simspatial_geom::{Element, Shape, SoaAabbs};
use simspatial_index::{
    BatchResults, GridConfig, KnnBatchResults, QueryEngine, ShardedEngine, UniformGrid,
};
use simspatial_moving::{sharded_strategy_engine, ShardWriteMode, UpdateStrategyKind};
use simspatial_net::wire::{self, ClientMsg, DecodeLimits, ServerMsg};
use simspatial_net::NetConfig;
use simspatial_service::{Consistency, Request, ServiceStats};

/// Every per-layer metric, in output order: name, unit.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("sim.update_ms", "ms"),
    ("moving.apply_ms", "ms"),
    ("sharded.route_updates_ms", "ms"),
    ("moving.structural_per_update", "ratio"),
    ("moving.migrations_per_tick", "count"),
    ("service.tick_overhead_ms", "ms"),
    ("sharded.rebuilds_per_write", "ratio"),
    ("service.snapshot_clone_mb", "MB"),
    ("kernel.intersect_ns_per_box", "ns"),
    ("kernel.min_dist2_ns_per_box", "ns"),
    ("index.range_us_per_query", "us"),
    ("index.knn_us_per_probe", "us"),
    ("index.tests_per_result", "ratio"),
    ("sharded.range_us_per_query", "us"),
    ("sharded.knn_us_per_probe", "us"),
    ("sharded.lanes_per_query", "ratio"),
    ("service.requests_per_dispatch", "ratio"),
    ("service.dispatcher_busy_share", "share"),
    ("service.worker_busy_share", "share"),
    ("service.worker_steals", "count"),
    ("service.max_queue_depth", "count"),
    ("service.reads_behind_write", "share"),
    ("service.stale_reads", "count"),
    ("net.lone_overhead_us", "us"),
    ("net.quantum_wait_ms", "ms"),
    ("net.codec_us_per_request", "us"),
    ("net.server_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Ticks replayed by the write-path probe.
const TICKS: usize = 5;
/// Repetitions of each query-path probe batch.
const REPS: usize = 16;
/// Repetitions of the kernel probes, over every shard-0 query.
const KERNEL_REPS: usize = 4;
/// Rounds of the read mix whose shard-0 queries feed the shard probes.
const SHARD_ROUNDS: usize = 16;
/// Repetitions of each lone request of the net probe, per side.
const NET_REPS: usize = 12;
/// kNN `k` of the query-path probes.
const PROBE_K: usize = 8;

/// Service-layer metrics over one traced window: `before`/`after` are the
/// service counters around it, `wall` its length in seconds, `behind` the
/// share of its reads that overlapped a write, and `clone_mb` the
/// snapshot-copy gauge sampled after each write.
pub fn service_layer(
    before: &ServiceStats,
    after: &ServiceStats,
    wall: f64,
    behind: f64,
    clone_mb: &[f64],
) -> Metrics {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let busy_ns: f64 = after
        .worker_busy_ns
        .iter()
        .enumerate()
        .map(|(i, &a)| d(a, before.worker_busy_ns.get(i).copied().unwrap_or(0)))
        .sum();
    let workers = after.worker_busy_ns.len().max(1) as f64;
    let mut m = Metrics::default();
    m.put(
        "service.requests_per_dispatch",
        d(after.coalesced_requests, before.coalesced_requests)
            / d(after.dispatches, before.dispatches).max(1.0),
        "ratio",
    );
    m.put(
        "service.dispatcher_busy_share",
        (after.exec_elapsed_s - before.exec_elapsed_s) / wall,
        "share",
    );
    m.put(
        "service.worker_busy_share",
        busy_ns * 1e-9 / (workers * wall),
        "share",
    );
    m.put(
        "service.worker_steals",
        d(after.worker_steals, before.worker_steals),
        "count",
    );
    // A high-water mark since the service started, so it covers set-up and
    // the untraced window too; both windows run the same load.
    m.put(
        "service.max_queue_depth",
        after.max_queue_depth as f64,
        "count",
    );
    m.put("service.reads_behind_write", behind, "share");
    m.put(
        "service.stale_reads",
        d(after.stale_reads, before.stale_reads),
        "count",
    );
    m.put(
        "sharded.rebuilds_per_write",
        d(after.shard_rebuilds, before.shard_rebuilds)
            / d(after.update_dispatches, before.update_dispatches).max(1.0),
        "ratio",
    );
    m.put("service.snapshot_clone_mb", stats::median(clone_mb), "MB");
    m
}

/// Median duration of the spans called `name` in microseconds, per one of
/// the `n` queries each span ran.
fn per_query(tr: &Tracer, name: &str, n: usize) -> f64 {
    tr.median_ns(name) * 1e-3 / n.max(1) as f64
}

/// Median duration in nanoseconds of the spans called `name` whose
/// request id is `req`.
fn median_ns(tr: &Tracer, name: &str, req: u64) -> f64 {
    let d: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == name && s.req == req)
        .map(|s| s.dur_ns() as f64)
        .collect();
    stats::median(&d)
}

/// Runs every layer probe, recording a span around each call. Returns the
/// metrics and any output that failed its check.
pub fn run(inputs: &Inputs, seed: u64, tr: &mut Tracer) -> (Metrics, Vec<String>) {
    let mut m = Metrics::default();
    let mut errors = Vec::new();
    write_path(inputs, seed, tr, &mut m, &mut errors);
    query_path(inputs, tr, &mut m);
    net(inputs, seed, tr, &mut m, &mut errors);
    (m, errors)
}

/// A few served plasticity ticks, each replayed on an identically built
/// strategy engine outside the service and routed by a bare planner. The
/// served simulation sends no monitor batch, so the service's own
/// execution clock covers exactly the tick's apply and routing.
fn write_path(
    inputs: &Inputs,
    seed: u64,
    tr: &mut Tracer,
    m: &mut Metrics,
    errors: &mut Vec<String>,
) {
    let elements = inputs.data.elements();
    let (service, mut sim) = plasticity::build(inputs.data.clone(), seed, 0);
    let handle = service.handle();
    let mut replay = sharded_strategy_engine(
        elements,
        SHARDS,
        UpdateStrategyKind::GridMigrate,
        ShardWriteMode::Incremental,
    );
    let (mut planner, _) = ShardedEngine::build(elements, SHARDS, |_| ()).into_parts();
    let mut lanes = Vec::new();
    let (mut update_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    for step in 0..TICKS as u64 {
        let exec_before = handle.stats().exec_elapsed_s;
        let report = match tr.span("sim.run_step", SpanId::NONE, step, || sim.run_step()) {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("write probe: {e}"));
                break;
            }
        };
        let exec_s = handle.stats().exec_elapsed_s - exec_before;
        let tick: Vec<(u32, Shape)> = sim
            .data()
            .elements()
            .iter()
            .map(|e| (e.id, Shape::Box(e.aabb())))
            .collect();
        let applied = tr.span("sharded.update_batch", SpanId::NONE, step, || {
            replay.update_batch(&tick)
        });
        tr.span("sharded.route_updates", SpanId::NONE, step, || {
            planner.route_updates(&tick, &mut lanes)
        });
        if applied.applied != tick.len() as u64 || report.applied != tick.len() as u64 {
            errors.push(format!("write probe: tick {step} not applied in full"));
        }
        update_ms.push(report.update_s * 1e3);
        overhead_ms.push((report.tick_s - exec_s) * 1e3);
    }
    let served = service.shutdown();
    let ms = |name| tr.median_ns(name) * 1e-6;
    m.put("sim.update_ms", stats::median(&update_ms), "ms");
    m.put("moving.apply_ms", ms("sharded.update_batch"), "ms");
    m.put(
        "sharded.route_updates_ms",
        ms("sharded.route_updates"),
        "ms",
    );
    m.put(
        "moving.structural_per_update",
        served.structural_touches as f64 / served.updates_applied.max(1) as f64,
        "ratio",
    );
    m.put(
        "moving.migrations_per_tick",
        served.migrations as f64 / served.update_dispatches.max(1) as f64,
        "count",
    );
    m.put(
        "service.tick_overhead_ms",
        stats::median(&overhead_ms),
        "ms",
    );
}

/// One round of the steering read mix through the sharded engine; then
/// the boxes and probes of the first [`SHARD_ROUNDS`] rounds that land in
/// shard 0, through that shard's grid and its SoA kernel.
fn query_path(inputs: &Inputs, tr: &mut Tracer, m: &mut Metrics) {
    let (boxes, probes) = inputs::queries(&inputs.reads[..inputs::ROUND]);
    let grid = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let mut sharded = ShardedEngine::build(inputs.data.elements(), SHARDS, grid);
    let (mut out, mut kout) = (BatchResults::new(), KnnBatchResults::new());
    for rep in 0..REPS as u64 {
        tr.span("sharded.range_collect", SpanId::NONE, rep, || {
            sharded.range_collect(&boxes, &mut out)
        });
        tr.span("sharded.knn_collect", SpanId::NONE, rep, || {
            sharded.knn_collect(&probes, PROBE_K, &mut kout)
        });
    }
    m.put(
        "sharded.range_us_per_query",
        per_query(tr, "sharded.range_collect", boxes.len()),
        "us",
    );
    m.put(
        "sharded.knn_us_per_probe",
        per_query(tr, "sharded.knn_collect", probes.len()),
        "us",
    );

    let (planner, executors) = sharded.into_parts();
    let mut lanes = Vec::new();
    tr.span("sharded.route_range", SpanId::NONE, 0, || {
        planner.route_range(&boxes, &mut lanes)
    });
    let routed: usize = lanes.iter().map(|l| l.len()).sum();
    m.put(
        "sharded.lanes_per_query",
        routed as f64 / boxes.len() as f64,
        "ratio",
    );

    // Shard 0's envelopes, re-identified densely as inside the shard, and
    // the queries the router sends there.
    let all = inputs.data.elements();
    let shard: Vec<Element> = executors[0]
        .global_ids()
        .iter()
        .enumerate()
        .map(|(local, &g)| Element::new(local as u32, Shape::Box(all[g as usize].aabb())))
        .collect();
    drop(executors);
    let router = planner.router();
    let (mut boxes, mut probes) = inputs::queries(&inputs.reads[..SHARD_ROUNDS * inputs::ROUND]);
    boxes.retain(|b| router.route(b).contains(&0));
    probes.retain(|p| router.home(p) == 0);

    let entries: Vec<_> = shard.iter().map(|e| (e.aabb(), e.id)).collect();
    let soa = SoaAabbs::from_entries(&entries);
    let (mut mask, mut dist) = (Vec::new(), Vec::new());
    for rep in 0..KERNEL_REPS as u64 {
        for q in &boxes {
            tr.span("kernel.intersect_mask", SpanId::NONE, rep, || {
                soa.intersect_mask(q, &mut mask)
            });
        }
        for p in &probes {
            tr.span("kernel.min_dist2_into", SpanId::NONE, rep, || {
                soa.min_dist2_into(p, &mut dist)
            });
        }
    }
    let per_box = soa.len().max(1) as f64;
    m.put(
        "kernel.intersect_ns_per_box",
        tr.median_ns("kernel.intersect_mask") / per_box,
        "ns",
    );
    m.put(
        "kernel.min_dist2_ns_per_box",
        tr.median_ns("kernel.min_dist2_into") / per_box,
        "ns",
    );

    let index = UniformGrid::build(&shard, GridConfig::auto(&shard));
    let mut engine = QueryEngine::new();
    let (mut tests, mut results) = (0u64, 0u64);
    for rep in 0..REPS as u64 {
        let st = tr.span("index.range_count", SpanId::NONE, rep, || {
            engine.range_count(&index, &shard, &boxes)
        });
        tests += st.counts.total_tests();
        results += st.results;
        tr.span("index.knn_count", SpanId::NONE, rep, || {
            engine.knn_count(&index, &shard, &probes, PROBE_K)
        });
    }
    m.put(
        "index.range_us_per_query",
        per_query(tr, "index.range_count", boxes.len()),
        "us",
    );
    m.put(
        "index.knn_us_per_probe",
        per_query(tr, "index.knn_count", probes.len()),
        "us",
    );
    m.put(
        "index.tests_per_result",
        tests as f64 / results.max(1) as f64,
        "ratio",
    );
}

/// Lone requests on an idle server, each against the same in-process
/// call, plus the codec on the steering frames.
fn net(inputs: &Inputs, seed: u64, tr: &mut Tracer, m: &mut Metrics, errors: &mut Vec<String>) {
    let served = Served::build(&inputs.data, true);
    let (boxes, _) = inputs::queries(&inputs.reads[..inputs::ROUND]);
    let mut state = inputs.envelopes();
    let update = Request::Update(inputs::steering_writes(&mut state, seed, 1).remove(0));
    let count = |n: usize| Request::RangeCount(boxes[..n].to_vec());
    // Items, request, tenant: a 4-box request fits one admission
    // quantum (32 items) on its own connection; 33 and 256 items need
    // one and seven more.
    let cases = [
        (4u64, count(4), "lone"),
        (32, count(32), "quantum"),
        (33, count(33), "quantum"),
        (256, update, "quantum"),
    ];
    let mut local = served.local_port();
    let mut lone = served.port("lone");
    let mut quantum = served.port("quantum");
    for _ in 0..NET_REPS {
        for (items, request, tenant) in &cases {
            let remote = if *tenant == "lone" {
                &mut lone
            } else {
                &mut quantum
            };
            let got_local = tr.span("service.call", SpanId::NONE, *items, || {
                local.call(request, Consistency::Snapshot)
            });
            let got_remote = tr.span("net.call", SpanId::NONE, *items, || {
                remote.call(request, Consistency::Snapshot)
            });
            for got in [got_local, got_remote] {
                if !matches!(got, Ok(Got::Reply(..))) {
                    errors.push(format!("net probe: a {items}-item request failed"));
                }
            }
        }
    }
    let delta = |items| median_ns(tr, "net.call", items) - median_ns(tr, "service.call", items);
    m.put("net.lone_overhead_us", delta(4) * 1e-3, "us");
    // Extra quanta: one for 33 items, seven for 256.
    m.put(
        "net.quantum_wait_ms",
        (delta(33) + delta(256) - 2.0 * delta(32)) / 8.0 * 1e-6,
        "ms",
    );
    let tenant_p50 = served
        .server()
        .map(|s| s.stats())
        .and_then(|st| st.tenants.into_iter().find(|t| t.name == "lone"))
        .map_or(0.0, |t| t.latency.quantile_s(0.5));
    m.put(
        "net.server_share",
        tenant_p50 / (median_ns(tr, "net.call", 4) * 1e-9),
        "share",
    );

    // The codec on every frame of one steering round plus a write.
    let frames: Vec<(Request, simspatial_service::Response, u64)> = inputs.reads[..inputs::ROUND]
        .iter()
        .chain(std::iter::once(&cases[3].1))
        .filter_map(|r| match local.call(r, Consistency::Snapshot) {
            Ok(Got::Reply(response, epoch)) => Some((r.clone(), response, epoch)),
            _ => None,
        })
        .collect();
    drop((local, lone, quantum));
    served.shutdown();
    let config = NetConfig::default();
    let limits = DecodeLimits {
        max_frame: config.max_frame,
        max_items: config.max_items,
    };
    let (mut up, mut down) = (Vec::new(), Vec::new());
    let mut codec_ok = frames.len() == inputs::ROUND + 1;
    for rep in 0..REPS as u64 {
        for (corr, (request, response, epoch)) in frames.iter().enumerate() {
            let corr = corr as u64;
            let (c, s) = tr.span("net.codec", SpanId::NONE, rep, || {
                wire::encode_request(&mut up, corr, Some(Consistency::Snapshot), request);
                let c = wire::decode_client_msg(&up, &limits);
                wire::encode_reply(&mut down, corr, 0, *epoch, response);
                (c, wire::decode_server_msg(&down))
            });
            codec_ok &= matches!(c, Ok(ClientMsg::Request { request: ref r, .. }) if r == request)
                && matches!(s, Ok(ServerMsg::Reply { response: ref r, .. }) if r == response);
        }
    }
    if !codec_ok {
        errors.push("net probe: a frame did not survive encode and decode".into());
    }
    let codec = tr.durations_ns("net.codec");
    m.put(
        "net.codec_us_per_request",
        codec.iter().sum::<f64>() / codec.len().max(1) as f64 * 1e-3,
        "us",
    );
}
