//! Order statistics, the result line and the run's provenance.

use std::fmt::Write as _;

/// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Samples taken while the hypervisor ran other guests for more than this
/// share of this guest's CPU time are left out of the metrics.
pub const STEAL_LIMIT: f64 = 0.03;

/// The host's CPU time over one interval, in the kernel's `/proc/stat`
/// ticks (10 ms of one CPU each), summed over CPUs: how much of it the
/// hypervisor stole from this guest, and the total.
#[derive(Debug, Clone, Copy, Default)]
pub struct Steal {
    pub ticks: u64,
    pub total: u64,
}

impl Steal {
    /// The stolen share of the interval; 0 where the counters are not
    /// available.
    pub fn share(&self) -> f64 {
        self.ticks as f64 / self.total.max(1) as f64
    }

    /// The stolen share beyond one tick. A step or set-up spans only 20 to
    /// 40 ticks, so a single tick, which may be the counter rounding a
    /// sliver of steal up, is already 2.5 to 5 % of it; one tick per
    /// interval is therefore always allowed.
    pub fn excess(&self) -> f64 {
        self.ticks.saturating_sub(1) as f64 / self.total.max(1) as f64
    }
}

/// A reading of the host's CPU counters in `/proc/stat`: the ticks the
/// hypervisor stole from this guest and the total, both summed over CPUs.
#[derive(Debug, Clone, Copy)]
pub struct HostClock(Option<(u64, u64)>);

impl HostClock {
    pub fn now() -> HostClock {
        let read = || {
            let stat = std::fs::read_to_string("/proc/stat").ok()?;
            let fields: Vec<u64> = stat
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            Some((*fields.get(7)?, fields.iter().sum()))
        };
        HostClock(read())
    }

    /// The steal between `self` and `later`; none where the counters are
    /// not available.
    pub fn steal_until(&self, later: &HostClock) -> Steal {
        match (self.0, later.0) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Steal {
                ticks: s1.saturating_sub(s0),
                total: t1 - t0,
            },
            _ => Steal::default(),
        }
    }
}

/// Mean stolen share over the intervals.
pub fn mean_steal(steal: &[Steal]) -> f64 {
    mean(&steal.iter().map(Steal::share).collect::<Vec<_>>())
}

/// Which samples count: those whose interval's steal beyond one tick is
/// within [`STEAL_LIMIT`], and never fewer than the quarter with the least
/// steal, so a run on a host that is busy throughout still reports its
/// least disturbed samples.
pub fn clean_mask(steal: &[Steal]) -> Vec<bool> {
    let excess: Vec<f64> = steal.iter().map(Steal::excess).collect();
    let mut sorted = excess.clone();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted
        .get(sorted.len().saturating_sub(1) / 4)
        .copied()
        .unwrap_or(0.0);
    let limit = STEAL_LIMIT.max(quarter);
    excess.iter().map(|&s| s <= limit).collect()
}

/// The entries of `values` the mask keeps.
pub fn kept<T: Copy>(values: &[T], mask: &[bool]) -> Vec<T> {
    values
        .iter()
        .zip(mask)
        .filter(|(_, &k)| k)
        .map(|(v, _)| *v)
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metric values in insertion order, rendered as the benchmark's
/// `"metrics"` object.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// A finite JSON number with every digit Rust prints (non-finite values,
/// which JSON cannot carry, become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON object assembled from pre-rendered values.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    pub fn raw(mut self, key: &str, json: impl std::fmt::Display) -> Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":{json}");
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.raw(key, format!("\"{escaped}\""))
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    pub fn end(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// What was measured, where: printed with every run's result.
pub fn provenance(threads: usize) -> Obj {
    let features: Vec<&str> = [("simd", cfg!(feature = "simd"))]
        .into_iter()
        .filter_map(|(f, on)| on.then_some(f))
        .collect();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Obj::default()
        .str("commit", env!("PERFBENCH_COMMIT"))
        .str("source_hash", env!("PERFBENCH_SOURCE_HASH"))
        .raw("features", format!("{features:?}"))
        .str(
            "simd_level",
            &format!("{:?}", simspatial_geom::simd::level()),
        )
        .num("available_parallelism", parallelism as f64)
        .num("simspatial_threads", threads as f64)
}
