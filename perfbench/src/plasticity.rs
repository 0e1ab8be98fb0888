//! `plasticity_step`: the paper's served simulation loop. Every element
//! moves every step (paper-calibrated plasticity), so every tick is a full
//! `Step` through the incremental grid-migration shards; each step then
//! sends one `RangeCount` monitor batch at `Barrier` consistency.

use crate::inputs::{Inputs, MONITOR_BOXES, MONITOR_SELECTIVITY, SHARDS};
use crate::stats::{self, HostClock, Metrics, Obj, Steal};
use crate::trace::{SpanId, Tracer};
use crate::{oracle, probes, Outcome};
use simspatial_datagen::{Dataset, QueryWorkload};
use simspatial_geom::{Aabb, Element};
use simspatial_moving::{sharded_strategy_engine, ShardWriteMode, UpdateStrategyKind};
use simspatial_service::{ServiceConfig, ServiceHandle, ShardedBackend, SpatialService};
use simspatial_sim::{PlasticityWorkload, ServedSimulation, ServedStepReport, SimulationConfig};
use std::time::Instant;

/// Every this many steps the monitor totals are checked by brute force.
const CHECK_EVERY: usize = 8;

/// The quantile `read_p999_us` reads on this workload: the median, so
/// the metric reports no tail here. A run yields only two to three hundred
/// monitor batches, and their upper quantiles follow how often the host
/// doubles one batch's latency: over ten 30-second runs the upper
/// quartile spread 0.19 where the median spread 0.09.
const TAIL_QUANTILE: f64 = 0.5;

/// `peak_rss_mb` is read after this many steps. The high-water mark keeps
/// creeping up for hundreds of steps, so reading it at the end would let a
/// faster program, which does more steps, show more memory.
const RSS_STEPS: u64 = 48;

pub fn monitor_seed(seed: u64) -> u64 {
    seed ^ 0x0AA1_7000
}

/// Builds the served simulation over `data`, sending `monitor_boxes`
/// boxes per step: the timed set-up.
pub fn build(data: Dataset, seed: u64, monitor_boxes: usize) -> (SpatialService, ServedSimulation) {
    let engine = sharded_strategy_engine(
        data.elements(),
        SHARDS,
        UpdateStrategyKind::GridMigrate,
        ShardWriteMode::Incremental,
    );
    let service = SpatialService::spawn(ShardedBackend::spawn(engine), ServiceConfig::default());
    let sim = ServedSimulation::new(
        data,
        Box::new(PlasticityWorkload::paper_calibrated(seed)),
        service.handle(),
        SimulationConfig {
            // The simulation's local probe structure is not on the served
            // path; a scan keeps it out of the measurement.
            strategy: UpdateStrategyKind::NoIndexScan,
            monitor_queries_per_step: monitor_boxes,
            monitor_selectivity: MONITOR_SELECTIVITY,
            seed: monitor_seed(seed),
        },
    );
    (service, sim)
}

/// One measured window of steps.
#[derive(Default)]
struct Window {
    steps: u64,
    busy_s: f64,
    /// Wall time of each step, and the host's steal during it.
    step_s: Vec<f64>,
    steal: Vec<Steal>,
    failed: u64,
    reports: Vec<ServedStepReport>,
    /// Snapshot-copy gauge after each tick, MB (traced windows only).
    clone_mb: Vec<f64>,
    /// Peak resident memory after [`RSS_STEPS`] steps, MB.
    rss_mb: Option<f64>,
}

struct Loop {
    sim: ServedSimulation,
    handle: ServiceHandle,
    /// Regenerates each step's monitor boxes from the same seed.
    monitor: QueryWorkload,
    errors: Vec<String>,
    checked: u64,
}

impl Window {
    /// Steps per second from the median time of the steps the host did
    /// not slow.
    fn ops_per_s(&self) -> f64 {
        1.0 / stats::median(&stats::kept(&self.step_s, &stats::clean_mask(&self.steal)))
    }
}

impl Loop {
    fn window(&mut self, seconds: f64, tr: &mut Tracer) -> Window {
        let mut w = Window::default();
        let n = self.sim.data().len() as u64;
        while w.busy_s < seconds {
            let clock = HostClock::now();
            let t = Instant::now();
            let span = tr.open("sim.run_step", SpanId::NONE, self.sim.steps_done() as u64);
            let step = self.sim.run_step();
            tr.close(span);
            let dt = t.elapsed().as_secs_f64();
            let steal = clock.steal_until(&HostClock::now());
            // Outside the timed interval from here on.
            let boxes = self
                .monitor
                .range_queries(MONITOR_SELECTIVITY, MONITOR_BOXES);
            let Ok(r) = step else {
                w.failed += 1;
                break;
            };
            w.steps += 1;
            if w.steps == RSS_STEPS {
                w.rss_mb = Some(stats::peak_rss_mb());
            }
            w.busy_s += dt;
            w.step_s.push(dt);
            w.steal.push(steal);
            if r.applied != n || r.delta {
                self.errors.push(format!(
                    "step {}: tick applied {} of {n}",
                    r.step, r.applied
                ));
            }
            if r.step % CHECK_EVERY == 0 {
                let envs: Vec<Aabb> = self
                    .sim
                    .data()
                    .elements()
                    .iter()
                    .map(Element::aabb)
                    .collect();
                let want: u64 = boxes.iter().map(|q| oracle::count(&envs, q)).sum();
                self.checked += 1;
                if want != r.monitor_results {
                    self.errors.push(format!(
                        "step {}: monitor total {}, brute force {want}",
                        r.step, r.monitor_results
                    ));
                }
            }
            w.reports.push(r);
            if tr.is_on() {
                w.clone_mb
                    .push(self.handle.stats().snapshot_clone_bytes as f64 / 1e6);
            }
        }
        w
    }
}

pub fn run(inputs: &Inputs, seed: u64, seconds: f64, trace: bool, origin: Instant) -> Outcome {
    let ((service, sim), setup, setup_steal) = crate::set_up(
        || inputs.data.clone(),
        |data| build(data, seed, MONITOR_BOXES),
        |(old, _)| {
            old.shutdown();
        },
    );
    let mut lp = Loop {
        sim,
        handle: service.handle(),
        monitor: QueryWorkload::new(inputs.data.universe(), monitor_seed(seed)),
        errors: Vec::new(),
        checked: 0,
    };

    let mut off = Tracer::new(origin, false, "main");
    let w = lp.window(seconds, &mut off);
    let mut out = Outcome::default();
    if trace {
        let before = service.stats();
        let mut tr = Tracer::new(origin, true, "main");
        let t = Instant::now();
        let wt = lp.window(seconds, &mut tr);
        let wall = t.elapsed().as_secs_f64();
        let after = service.stats();
        // Monitors follow their tick in one closed loop: no read overlaps
        // a write here.
        out.layer = probes::service_layer(&before, &after, wall, 0.0, &wt.clone_mb);
        out.overhead = Some((w.ops_per_s(), wt.ops_per_s()));
        out.attempted += wt.steps + wt.failed;
        out.failed += wt.failed;
        out.spans = tr.spans;
    }
    let final_stats = service.shutdown();

    // Only steps the host did not slow count (see `stats::clean_mask`);
    // every step does the same work, so the median step time gives the
    // rate.
    let keep = stats::clean_mask(&w.steal);
    let reports = stats::kept(&w.reports, &keep);
    let tick_ms: Vec<f64> = reports.iter().map(|r| r.tick_s * 1e3).collect();
    let monitor_us: Vec<f64> = reports.iter().map(|r| r.monitor_s * 1e6).collect();
    let setup = stats::kept(&setup, &stats::clean_mask(&setup_steal));
    let mut m = Metrics::default();
    m.put("ops_per_s", w.ops_per_s(), "1/s");
    m.put("queries_per_s", w.ops_per_s() * MONITOR_BOXES as f64, "1/s");
    m.put("read_p50_us", stats::median(&monitor_us), "us");
    m.put("read_p999_us", stats::quantile(&monitor_us, TAIL_QUANTILE), "us");
    m.put("write_p50_ms", stats::median(&tick_ms), "ms");
    m.put("setup_s", stats::median(&setup), "s");
    m.put(
        "peak_rss_mb",
        w.rss_mb.unwrap_or_else(stats::peak_rss_mb),
        "MB",
    );
    out.e2e = m;
    out.attempted += w.steps + w.failed;
    out.failed += w.failed;
    out.correct = lp.errors.is_empty() && lp.checked > 0;
    out.errors = lp.errors;
    out.accounting = Obj::default()
        .num("steps", w.steps as f64)
        .num("window_s", w.busy_s)
        .num("steps_kept", reports.len() as f64)
        .num("host_steal_share", stats::mean_steal(&w.steal))
        .num("elements", inputs.data.len() as f64)
        .num("shards", SHARDS as f64)
        .num("monitor_boxes_per_step", MONITOR_BOXES as f64)
        .num("steps_checked", lp.checked as f64)
        .num("peak_rss_after_steps", w.steps.min(RSS_STEPS) as f64)
        .num("updates_applied", final_stats.updates_applied as f64)
        .raw(
            "samples",
            Obj::default()
                .num("read_p50_us", monitor_us.len() as f64)
                .num("read_p999_us", monitor_us.len() as f64)
                .num("read_p999_us_quantile", TAIL_QUANTILE)
                .num("write_p50_ms", tick_ms.len() as f64)
                .num("setup_s", setup.len() as f64)
                .end(),
        );
    out
}
