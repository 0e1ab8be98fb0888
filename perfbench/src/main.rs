//! The benchmark of the served simulation loop.
//!
//! ```text
//! perfbench --workload <plasticity_step|monitor_steering|monitor_steering_tcp>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one accounting line (provenance, sample counts, attempted and
//! failed operations) and then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run additionally
//! measures a traced window and the layer probes, reports the per-layer
//! metrics and writes its spans to `out/` beside this package's manifest.
//! See README.md for the workloads and metrics.

mod inputs;
mod oracle;
mod plasticity;
mod probes;
mod stats;
mod steering;
mod trace;

use stats::{Metrics, Obj};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Builds the service under test [`SETUP_REPS`] times, tearing the
/// previous one down before the next is built, and keeps the last. Only
/// `build` is timed; `prepare` makes its untimed input. Returns the
/// service, each set-up's seconds and the host's steal during each.
pub fn set_up<I, T>(
    mut prepare: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>, Vec<stats::Steal>) {
    let (mut built, mut secs, mut steal) = (None, Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        if let Some(old) = built.take() {
            teardown(old);
        }
        let input = prepare();
        let clock = stats::HostClock::now();
        let t = Instant::now();
        built = Some(build(input));
        secs.push(t.elapsed().as_secs_f64());
        steal.push(clock.steal_until(&stats::HostClock::now()));
    }
    (built.expect("at least one set-up"), secs, steal)
}

const WORKLOADS: [&str; 3] = [
    "plasticity_step",
    "monitor_steering",
    "monitor_steering_tcp",
];

const USAGE: &str =
    "usage: perfbench --workload <plasticity_step|monitor_steering|monitor_steering_tcp> \
--seed <n> --seconds <s> --trace <0|1>";

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    /// The workload's own per-layer metrics (traced runs only).
    pub layer: Metrics,
    pub accounting: Obj,
    pub errors: Vec<String>,
    pub spans: Vec<trace::Span>,
    /// Operations per second of the untraced and the traced window.
    pub overhead: Option<(f64, f64)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Before any thread exists: the library reads it once, at first use.
    std::env::set_var("SIMSPATIAL_THREADS", inputs::THREADS.to_string());

    let origin = Instant::now();
    let inputs = inputs::Inputs::generate(args.seed);
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut out = match args.workload.as_str() {
        "plasticity_step" => plasticity::run(&inputs, seed, seconds, trace, origin),
        "monitor_steering" => steering::run(&inputs, seed, seconds, trace, false, origin),
        _ => steering::run(&inputs, seed, seconds, trace, true, origin),
    };

    let metrics = if trace {
        layer_metrics(&inputs, &args, &mut out, origin)
    } else {
        std::mem::take(&mut out.e2e)
    };
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let accounting = std::mem::take(&mut out.accounting);
    println!(
        "{}",
        Obj::default()
            .raw(
                "provenance",
                stats::provenance(inputs::THREADS)
                    .str("workload", &args.workload)
                    .num("seed", seed as f64)
                    .num("seconds", seconds)
                    .num("trace", f64::from(u8::from(trace)))
                    .end()
            )
            .raw(
                "accounting",
                accounting
                    .num("attempted", out.attempted as f64)
                    .num("failed", out.failed as f64)
                    .end()
            )
            .end()
    );
    println!(
        "{}",
        Obj::default()
            .raw("correct", out.correct)
            .raw("attempted", out.attempted)
            .raw("failed", out.failed)
            .raw("metrics", metrics.to_json())
            .end()
    );
}

/// Runs the layer probes and assembles every per-layer metric; writes the
/// run's spans out and adds their self-time table to the accounting.
fn layer_metrics(
    inputs: &inputs::Inputs,
    args: &Args,
    out: &mut Outcome,
    origin: Instant,
) -> Metrics {
    let mut probe_spans = trace::Tracer::new(origin, true, "probes");
    let (probe, probe_errors) = probes::run(inputs, args.seed, &mut probe_spans);
    out.correct &= probe_errors.is_empty();
    out.errors.extend(probe_errors);
    let mut all = trace::Tracer::new(origin, true, "main");
    all.spans = std::mem::take(&mut out.spans);
    all.absorb(probe_spans);
    let spans = all.spans;

    let (untraced, traced) = out.overhead.unwrap_or((0.0, 0.0));
    let mut own = std::mem::take(&mut out.layer);
    own.put("trace.overhead_share", 1.0 - traced / untraced, "share");

    let mut m = Metrics::default();
    for (name, unit) in probes::PER_LAYER {
        let value = own
            .get(name)
            .or_else(|| probe.get(name))
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
        m.put(name, value, unit);
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = trace::write_jsonl(&path, &spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let mut self_ms = Obj::default();
    for (name, ns) in trace::self_time_ns(&spans) {
        self_ms = self_ms.num(name, ns as f64 * 1e-6);
    }
    out.accounting = std::mem::take(&mut out.accounting)
        .num("untraced_ops_per_s", untraced)
        .num("traced_ops_per_s", traced)
        .num("spans", spans.len() as f64)
        .raw("span_self_time_ms", self_ms.end())
        .str("spans_file", &path.display().to_string());
    m
}
