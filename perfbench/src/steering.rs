//! `monitor_steering` and `monitor_steering_tcp`: a dashboard reader and a
//! steering writer against a snapshot-publishing sharded grid.
//!
//! The reader pipelines a window of [`WINDOW`] `Snapshot` reads from the
//! fixed read mix; the writer sends one neuron-sized `Update` every
//! [`WRITE_PERIOD`], timed from when it was due. In-process both roles
//! hold a `ServiceHandle`; over TCP each is a tenant on its own
//! `NetClient` connection to a `NetServer` on loopback.

use crate::inputs::{self, Inputs, ROUND, SHARDS};
use crate::stats::{self, HostClock, Metrics, Obj};
use crate::trace::{SpanId, Tracer};
use crate::{oracle, probes, Outcome};
use simspatial_datagen::Dataset;
use simspatial_geom::{Aabb, Element};
use simspatial_index::{GridConfig, ShardedEngine, UniformGrid};
use simspatial_net::{CallOutcome, NetClient, NetConfig, NetServer};
use simspatial_service::{
    Consistency, Request, Response, ServiceConfig, ServiceHandle, ServiceStats, ShardedBackend,
    SpatialService, Ticket,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Reads in flight on the reader's connection.
pub const WINDOW: usize = 8;
/// One steering write is due every period. At this pace the writes take
/// about a tenth of the run in-process.
pub const WRITE_PERIOD: Duration = Duration::from_millis(450);
/// Every this many reads one is kept for checking; coprime with the
/// round length so every request kind is sampled.
const SAMPLE_EVERY: usize = 257;
/// At most this many kept reads are checked, spread evenly over epochs.
const MAX_CHECKED: usize = 160;
/// The quantile `read_p999_us` reads. A run yields about 10⁵ reads, so
/// hundreds lie beyond it: those held behind a write.
const TAIL_QUANTILE: f64 = 0.999;

/// The snapshot-publishing 4-shard grid behind both steering workloads.
pub fn build_service(data: &Dataset) -> SpatialService {
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let engine = ShardedEngine::build(data.elements(), SHARDS, build).with_rebuild(build);
    SpatialService::spawn(
        ShardedBackend::spawn_snapshot(engine),
        ServiceConfig::default(),
    )
}

/// A running service, optionally behind a TCP front end.
pub struct Served {
    service: Option<SpatialService>,
    server: Option<NetServer>,
    pub handle: ServiceHandle,
}

impl Served {
    pub fn build(data: &Dataset, tcp: bool) -> Served {
        let service = build_service(data);
        let handle = service.handle();
        if tcp {
            let server = NetServer::bind(service, "127.0.0.1:0", NetConfig::default())
                .expect("bind a loopback port");
            Served {
                service: None,
                server: Some(server),
                handle,
            }
        } else {
            Served {
                service: Some(service),
                server: None,
                handle,
            }
        }
    }

    pub fn server(&self) -> Option<&NetServer> {
        self.server.as_ref()
    }

    pub fn shutdown(self) -> ServiceStats {
        match (self.server, self.service) {
            (Some(server), _) => server.shutdown(),
            (None, Some(service)) => service.shutdown(),
            (None, None) => unreachable!("a served front end holds its service"),
        }
    }

    fn reader(&self) -> Port {
        self.port("reader")
    }

    fn writer(&self) -> Port {
        self.port("writer")
    }

    /// A connection as `tenant` when served over TCP, else a handle.
    pub fn port(&self, tenant: &str) -> Port {
        match &self.server {
            Some(server) => Port::Remote {
                client: NetClient::connect(server.local_addr(), tenant).expect("connect"),
                corrs: VecDeque::new(),
            },
            None => self.local_port(),
        }
    }

    /// An in-process handle, also when a TCP front end is running.
    pub fn local_port(&self) -> Port {
        Port::Local {
            handle: self.handle.clone(),
            tickets: VecDeque::new(),
        }
    }
}

/// How one request ended.
pub enum Got {
    Reply(Response, u64),
    /// Shed before admission (a TCP `Retry` frame).
    Retry,
    /// Admitted and failed typed, or refused at submission.
    Error,
}

/// One client connection: FIFO pipelining either way.
pub enum Port {
    Local {
        handle: ServiceHandle,
        tickets: VecDeque<Option<Ticket>>,
    },
    Remote {
        client: NetClient,
        corrs: VecDeque<u64>,
    },
}

impl Port {
    /// Sends `request` without waiting for its reply.
    pub fn send(&mut self, request: &Request, mode: Consistency) -> Result<(), String> {
        match self {
            Port::Local { handle, tickets } => {
                tickets.push_back(handle.submit_at(request.clone(), mode).ok());
                Ok(())
            }
            Port::Remote { client, corrs } => {
                let corr = client
                    .enqueue_at(request, Some(mode))
                    .map_err(|e| e.to_string())?;
                client.flush().map_err(|e| e.to_string())?;
                corrs.push_back(corr);
                Ok(())
            }
        }
    }

    /// The reply to the oldest request in flight.
    pub fn recv(&mut self) -> Result<Got, String> {
        match self {
            Port::Local { tickets, .. } => {
                let ticket = tickets.pop_front().ok_or("nothing in flight")?;
                Ok(match ticket.map(Ticket::recv_reply) {
                    Some(Ok(reply)) => Got::Reply(reply.response, reply.epoch),
                    _ => Got::Error,
                })
            }
            Port::Remote { client, corrs } => {
                let want = corrs.pop_front().ok_or("nothing in flight")?;
                let msg = client.recv_msg().map_err(|e| e.to_string())?;
                use simspatial_net::wire::ServerMsg;
                match msg {
                    ServerMsg::Reply {
                        corr,
                        epoch,
                        response,
                        ..
                    } if corr == want => Ok(Got::Reply(response, epoch)),
                    ServerMsg::Error { corr, .. } if corr == want => Ok(Got::Error),
                    ServerMsg::Retry { corr, .. } if corr == want => Ok(Got::Retry),
                    _ => Err(format!("no reply for request {want}")),
                }
            }
        }
    }

    /// Sends `request` and waits for its reply.
    pub fn call(&mut self, request: &Request, mode: Consistency) -> Result<Got, String> {
        if let Port::Remote { client, .. } = self {
            return Ok(match client.call_at(request, Some(mode)) {
                Ok(CallOutcome::Reply {
                    response, epoch, ..
                }) => Got::Reply(response, epoch),
                Ok(CallOutcome::Retry { .. }) => Got::Retry,
                Ok(CallOutcome::Rejected(_)) => Got::Error,
                Err(e) => return Err(e.to_string()),
            });
        }
        self.send(request, mode)?;
        self.recv()
    }

    pub fn is_remote(&self) -> bool {
        matches!(self, Port::Remote { .. })
    }
}

struct ReadRec {
    submit_ns: u64,
    reply_ns: u64,
    items: u64,
    ok: bool,
}

struct WriteRec {
    index: usize,
    due_ns: u64,
    submit_ns: u64,
    ack_ns: u64,
    epoch: Option<u64>,
}

#[derive(Default)]
struct Window {
    start_ns: u64,
    wall_s: f64,
    reads: Vec<ReadRec>,
    writes: Vec<WriteRec>,
    retries: u64,
    errors: u64,
    /// Snapshot-copy gauge after each write, MB (traced windows only).
    clone_mb: Vec<f64>,
    /// The host's steal in each write period.
    period_steal: Vec<stats::Steal>,
}

impl Window {
    fn ok_reads(&self) -> impl Iterator<Item = &ReadRec> {
        self.reads.iter().filter(|r| r.ok)
    }

    fn ok_writes(&self) -> impl Iterator<Item = &WriteRec> {
        self.writes.iter().filter(|w| w.epoch.is_some())
    }

    fn attempted(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }

    fn failed(&self) -> u64 {
        self.attempted() - (self.ok_reads().count() + self.ok_writes().count()) as u64
    }

    /// The write period a timestamp falls in.
    fn period(&self, t_ns: u64) -> usize {
        (t_ns.saturating_sub(self.start_ns) / WRITE_PERIOD.as_nanos() as u64) as usize
    }

    /// Which whole write periods count: those the host did not slow (see
    /// `stats::clean_mask`).
    fn kept_periods(&self) -> Vec<bool> {
        stats::clean_mask(&self.period_steal)
    }

    /// Operations and queries completed per second in each kept write
    /// period. Every period holds one write and the same read mix, so
    /// their median is the window's rate.
    fn period_rates(&self) -> (Vec<f64>, Vec<f64>) {
        let keep = self.kept_periods();
        let (mut ops, mut queries) = (vec![0u64; keep.len()], vec![0u64; keep.len()]);
        for r in self.ok_reads() {
            if let Some(i) = Some(self.period(r.reply_ns)).filter(|&i| i < keep.len()) {
                ops[i] += 1;
                queries[i] += r.items;
            }
        }
        for w in self.ok_writes() {
            if let Some(o) = ops.get_mut(self.period(w.ack_ns)) {
                *o += 1;
            }
        }
        let per_s = |v: Vec<u64>| {
            let rates: Vec<f64> = v
                .into_iter()
                .map(|c| c as f64 / WRITE_PERIOD.as_secs_f64())
                .collect();
            stats::kept(&rates, &keep)
        };
        (per_s(ops), per_s(queries))
    }

    fn ops_per_s(&self) -> f64 {
        stats::median(&self.period_rates().0)
    }

    /// Share of reads whose submit-to-reply interval overlaps a write's
    /// submit-to-ack interval.
    fn reads_behind_write(&self) -> f64 {
        let behind = self
            .reads
            .iter()
            .filter(|r| {
                self.writes
                    .iter()
                    .any(|w| r.submit_ns < w.ack_ns && w.submit_ns < r.reply_ns)
            })
            .count();
        behind as f64 / self.reads.len().max(1) as f64
    }
}

struct Loop<'a> {
    reads: &'a [Request],
    writes: &'a [Request],
    reader: Port,
    writer: Port,
    handle: ServiceHandle,
    origin: Instant,
    next_read: usize,
    next_write: usize,
    /// Kept replies: `(read sequence number, response, epoch)`.
    samples: Vec<(usize, Response, u64)>,
    /// Acknowledged writes: `(write index, epoch)`.
    acked: Vec<(usize, u64)>,
    broken: Option<String>,
}

impl Loop<'_> {
    fn window(&mut self, seconds: f64, trace: bool, spans: &mut Tracer) -> Window {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let writer_done = AtomicBool::new(false);
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let remote = self.reader.is_remote();
        let mut rtr = Tracer::new(self.origin, trace, "reader");
        let mut wtr = Tracer::new(self.origin, trace, "writer");
        let mut w = Window::default();
        let (reads, writes, handle) = (self.reads, self.writes, &self.handle);
        let (reader, writer) = (&mut self.reader, &mut self.writer);
        let (next_read, next_write) = (&mut self.next_read, &mut self.next_write);
        let (samples, acked) = (&mut self.samples, &mut self.acked);

        let (read_out, write_out) = std::thread::scope(|s| {
            let writer_done = &writer_done;
            let wtr = &mut wtr;
            let write_thread = s.spawn(move || {
                let mut recs = Vec::new();
                let mut clone_mb = Vec::new();
                let mut clocks = Vec::new();
                let mut broken = None;
                for i in 0.. {
                    let due = t0 + WRITE_PERIOD * i;
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    clocks.push(HostClock::now());
                    if due >= deadline {
                        break;
                    }
                    let index = *next_write;
                    *next_write += 1;
                    let request = writes[index].clone();
                    let span = wtr.open("write", SpanId::NONE, index as u64);
                    let submit = Instant::now();
                    let name = if remote {
                        "net.call"
                    } else {
                        "service.submit+recv"
                    };
                    let got = wtr.span(name, span, index as u64, || {
                        writer.call(&request, Consistency::Barrier)
                    });
                    let ack = Instant::now();
                    wtr.close(span);
                    let epoch = match got {
                        Ok(Got::Reply(response, epoch)) => {
                            match oracle::check(&[], &request, &response) {
                                Ok(()) => Some(epoch),
                                Err(e) => {
                                    broken = Some(format!("write {index}: {e}"));
                                    None
                                }
                            }
                        }
                        Ok(_) => None,
                        Err(e) => {
                            broken = Some(e);
                            None
                        }
                    };
                    recs.push(WriteRec {
                        index,
                        due_ns: ns(due),
                        submit_ns: ns(submit),
                        ack_ns: ns(ack),
                        epoch,
                    });
                    if wtr.is_on() {
                        clone_mb.push(handle.stats().snapshot_clone_bytes as f64 / 1e6);
                    }
                    if broken.is_some() {
                        break;
                    }
                }
                writer_done.store(true, Ordering::SeqCst);
                (recs, clone_mb, clocks, broken)
            });

            let rtr = &mut rtr;
            let read_thread = s.spawn(move || {
                let mut recs = Vec::new();
                let (mut retries, mut errors) = (0u64, 0u64);
                let mut inflight: VecDeque<(usize, u64, SpanId)> = VecDeque::new();
                let mut broken = None;
                let (send_name, recv_name) = if remote {
                    ("net.send", "net.recv_msg")
                } else {
                    ("service.submit_at", "service.recv_reply")
                };
                loop {
                    while inflight.len() < WINDOW && broken.is_none() {
                        let stop = *next_read % ROUND == 0
                            && Instant::now() >= deadline
                            && writer_done.load(Ordering::SeqCst);
                        if stop {
                            break;
                        }
                        let seq = *next_read;
                        let request = &reads[seq % reads.len()];
                        let span = rtr.open("read", SpanId::NONE, seq as u64);
                        let submit = ns(Instant::now());
                        let sent = rtr.span(send_name, span, seq as u64, || {
                            reader.send(request, Consistency::Snapshot)
                        });
                        if let Err(e) = sent {
                            broken = Some(e);
                            break;
                        }
                        *next_read += 1;
                        inflight.push_back((seq, submit, span));
                    }
                    let Some((seq, submit_ns, span)) = inflight.pop_front() else {
                        break;
                    };
                    let got = if broken.is_none() {
                        rtr.span(recv_name, span, seq as u64, || reader.recv())
                    } else {
                        Err(String::new())
                    };
                    let reply_ns = ns(Instant::now());
                    rtr.close(span);
                    let request = &reads[seq % reads.len()];
                    let ok = match got {
                        Ok(Got::Reply(response, epoch)) => {
                            if seq % SAMPLE_EVERY == 0 {
                                samples.push((seq, response, epoch));
                            }
                            true
                        }
                        Ok(Got::Retry) => {
                            retries += 1;
                            false
                        }
                        Ok(Got::Error) => {
                            errors += 1;
                            false
                        }
                        Err(e) => {
                            if broken.is_none() {
                                broken = Some(e);
                            }
                            errors += 1;
                            false
                        }
                    };
                    recs.push(ReadRec {
                        submit_ns,
                        reply_ns,
                        items: request.len() as u64,
                        ok,
                    });
                }
                (recs, retries, errors, ns(Instant::now()), broken)
            });
            (
                read_thread.join().expect("reader thread"),
                write_thread.join().expect("writer thread"),
            )
        });

        let (recs, retries, errors, end_ns, rbroken) = read_out;
        let (wrecs, clone_mb, clocks, wbroken) = write_out;
        w.start_ns = ns(t0);
        w.wall_s = (end_ns - w.start_ns) as f64 * 1e-9;
        w.reads = recs;
        w.retries = retries;
        w.errors = errors + wrecs.iter().filter(|r| r.epoch.is_none()).count() as u64;
        acked.extend(wrecs.iter().filter_map(|r| r.epoch.map(|e| (r.index, e))));
        w.writes = wrecs;
        w.clone_mb = clone_mb;
        w.period_steal = clocks.windows(2).map(|c| c[0].steal_until(&c[1])).collect();
        self.broken = self.broken.take().or(rbroken).or(wbroken);
        spans.absorb(rtr);
        spans.absorb(wtr);
        w
    }
}

/// Replays the acknowledged writes over the initial envelopes and
/// checks the kept replies against the state at the epoch each one
/// reports. Returns the number of replies checked and any mismatch.
fn check(lp: Loop<'_>, initial: Vec<Aabb>) -> (usize, Vec<String>) {
    let Loop {
        reads,
        writes,
        mut samples,
        acked,
        broken,
        ..
    } = lp;
    let mut errors = Vec::new();
    if let Some(e) = &broken {
        errors.push(format!("connection broke: {e}"));
    }
    if acked.windows(2).any(|p| p[1].1 <= p[0].1) {
        errors.push("write epochs do not increase".into());
    }
    samples.sort_by_key(|s| s.2);
    let stride = samples.len().div_ceil(MAX_CHECKED).max(1);
    let mut envs = initial;
    let mut applied = 0;
    let mut checked = 0;
    for (seq, response, epoch) in samples.iter().step_by(stride) {
        while applied < acked.len() && acked[applied].1 <= *epoch {
            if let Request::Update(moves) = &writes[acked[applied].0] {
                for &(id, b) in moves {
                    envs[id as usize] = b;
                }
            }
            applied += 1;
        }
        let request = &reads[seq % reads.len()];
        checked += 1;
        if let Err(e) = oracle::check(&envs, request, response) {
            errors.push(format!(
                "read {seq} ({}) at epoch {epoch}: {e}",
                oracle::kind(request)
            ));
        }
    }
    (checked, errors)
}

pub fn run(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    trace: bool,
    tcp: bool,
    origin: Instant,
) -> Outcome {
    let windows = if trace { 2 } else { 1 };
    let per_window = (seconds / WRITE_PERIOD.as_secs_f64()).ceil() as usize + 1;
    let mut state = inputs.envelopes();
    let writes: Vec<Request> = inputs::steering_writes(&mut state, seed, windows * per_window)
        .into_iter()
        .map(Request::Update)
        .collect();

    let (served, setup, setup_steal) = crate::set_up(
        || (),
        |()| Served::build(&inputs.data, tcp),
        |old| {
            old.shutdown();
        },
    );
    let mut lp = Loop {
        reads: &inputs.reads,
        writes: &writes,
        reader: served.reader(),
        writer: served.writer(),
        handle: served.handle.clone(),
        origin,
        next_read: 0,
        next_write: 0,
        samples: Vec::new(),
        acked: Vec::new(),
        broken: None,
    };

    let mut off = Tracer::new(origin, false, "main");
    let w = lp.window(seconds, false, &mut off);
    let mut out = Outcome::default();
    if trace {
        let before = served.handle.stats();
        let mut tr = Tracer::new(origin, true, "main");
        let wt = lp.window(seconds, true, &mut tr);
        let after = served.handle.stats();
        out.layer = probes::service_layer(
            &before,
            &after,
            wt.wall_s,
            wt.reads_behind_write(),
            &wt.clone_mb,
        );
        out.overhead = Some((w.ops_per_s(), wt.ops_per_s()));
        out.attempted += wt.attempted();
        out.failed += wt.failed();
        out.spans = tr.spans;
    }
    let (checked, errors) = check(lp, inputs.envelopes());
    served.shutdown();

    // Latencies of the requests that completed in a kept write period.
    let keep = w.kept_periods();
    let kept = |t_ns: u64| keep.get(w.period(t_ns)).copied().unwrap_or(false);
    let read_us: Vec<f64> = w
        .ok_reads()
        .filter(|r| kept(r.reply_ns))
        .map(|r| (r.reply_ns - r.submit_ns) as f64 * 1e-3)
        .collect();
    let write_ms: Vec<f64> = w
        .ok_writes()
        .filter(|r| kept(r.ack_ns))
        .map(|r| (r.ack_ns - r.due_ns) as f64 * 1e-6)
        .collect();
    let setup = stats::kept(&setup, &stats::clean_mask(&setup_steal));
    let late_ms: Vec<f64> = w
        .writes
        .iter()
        .map(|r| (r.submit_ns - r.due_ns) as f64 * 1e-6)
        .collect();
    let mut m = Metrics::default();
    m.put("ops_per_s", w.ops_per_s(), "1/s");
    m.put("queries_per_s", stats::median(&w.period_rates().1), "1/s");
    m.put("read_p50_us", stats::median(&read_us), "us");
    m.put("read_p999_us", stats::quantile(&read_us, TAIL_QUANTILE), "us");
    m.put("write_p50_ms", stats::median(&write_ms), "ms");
    m.put("setup_s", stats::median(&setup), "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.e2e = m;
    out.attempted += w.attempted();
    out.failed += w.failed();
    out.correct = errors.is_empty() && checked > 0;
    out.errors = errors;
    out.accounting = Obj::default()
        .num("reads", w.reads.len() as f64)
        .num("writes", w.writes.len() as f64)
        .num("failed_retry", w.retries as f64)
        .num("failed_error", w.errors as f64)
        .num("reads_checked", checked as f64)
        .num("window_s", w.wall_s)
        .num("periods", keep.len() as f64)
        .num("periods_kept", keep.iter().filter(|&&k| k).count() as f64)
        .num("host_steal_share", stats::mean_steal(&w.period_steal))
        .num("elements", inputs.data.len() as f64)
        .num("shards", SHARDS as f64)
        .num("read_window", WINDOW as f64)
        .num("write_period_ms", WRITE_PERIOD.as_secs_f64() * 1e3)
        .num("write_elements", inputs::NEURON_ELEMENTS as f64)
        .num("writer_late_p50_ms", stats::median(&late_ms))
        .num(
            "writer_late_max_ms",
            late_ms.iter().copied().fold(0.0, f64::max),
        )
        .raw(
            "samples",
            Obj::default()
                .num("read_p50_us", read_us.len() as f64)
                .num("read_p999_us", read_us.len() as f64)
                .num("read_p999_us_quantile", TAIL_QUANTILE)
                .num("write_p50_ms", write_ms.len() as f64)
                .num("setup_s", setup.len() as f64)
                .end(),
        );
    out
}
