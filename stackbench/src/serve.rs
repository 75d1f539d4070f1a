//! The `serve` workload: an in-process `rif-server` (event-loop front
//! door, two shard workers, RiFSSD at 2000 P/E, real-time pacing) driven
//! by one generator thread over two `client::Conn` connections, plus the
//! socket-less probe that drives `shard::spawn_shard` directly.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rif_events::{MetricsRegistry, SimRng};
use rif_server::pacing::VirtualClock;
use rif_server::poller::Waker;
use rif_server::protocol::{decode_response, encode_request};
use rif_server::shard::{spawn_shard, ReplyTo, ShardHandle, ShardMsg, ShardSpec, Submission};
use rif_server::{Conn, Request, Response, Server, ServerConfig, TraceRecorder};
use rif_ssd::{RetryKind, SsdConfig};
use rif_workloads::IoOp;

use crate::common::{mean, median, percentile, Checks, Metrics, Tally, Tracer};

/// Offered rate of the open-loop `light` phase.
pub const LIGHT_RPS: f64 = 4000.0;
/// Outstanding requests of the closed-loop `saturate` phase.
const WINDOW: usize = 64;
/// A request unanswered this long after it was due (open loop) or sent
/// (closed loop) no longer counts as completed.
const DEADLINE: Duration = Duration::from_secs(1);
/// Longest `Server::stop` may take before the run gives up waiting.
const STOP_WATCHDOG: Duration = Duration::from_secs(10);
/// How long the generator sleeps when it has nothing to send or read.
/// It shares two cores with the server's three threads, so it sleeps
/// rather than spins.
const IDLE: Duration = Duration::from_micros(15);
/// Share of reads, and the transfer size of every request.
const READ_SHARE: f64 = 0.9;
const IO_BYTES: u32 = 16 * 1024;
/// Logical capacity served (the server default); the shard probe serves
/// half of it, one shard's span.
const CAPACITY: u64 = 8 << 30;

/// One planned request.
#[derive(Debug, Clone, Copy)]
pub struct Io {
    op: IoOp,
    offset: u64,
}

/// Requests drawn from the seed before the run: 90 % reads, 16-KiB
/// aligned offsets spread uniformly over `capacity`.
pub fn plan_ios(n: usize, seed: u64, capacity: u64) -> Vec<Io> {
    let mut rng = SimRng::stream(seed, 0x10);
    let slots = capacity / IO_BYTES as u64;
    (0..n)
        .map(|_| Io {
            op: if rng.uniform() < READ_SHARE {
                IoOp::Read
            } else {
                IoOp::Write
            },
            offset: (rng.next_u64() % slots) * IO_BYTES as u64,
        })
        .collect()
}

/// Poisson due times (offsets from the phase start) for `secs` at
/// `rate`, drawn from the seed before the run.
pub fn plan_dues(rate: f64, secs: f64, seed: u64) -> Vec<Duration> {
    let mut rng = SimRng::stream(seed, 0x20);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exponential(rate);
        if t >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Where the generator sends requests.
trait Target {
    fn send(&mut self, tag: u64, io: Io, tr: &mut Tracer) -> io::Result<()>;
    /// Appends every response that has arrived, without blocking.
    fn poll(&mut self, out: &mut Vec<Response>, tr: &mut Tracer) -> io::Result<()>;
}

/// The front door: two `client::Conn`s, requests alternating by tag.
struct Front {
    conns: Vec<Conn>,
}

impl Front {
    fn connect(server: &Server, tr: &mut Tracer) -> io::Result<Front> {
        let addr = server.local_addr().to_string();
        let mut conns = Vec::new();
        for i in 0..2 {
            let mut c = tr.time("client.connect", i, || Conn::connect(&addr))?;
            c.set_nonblocking()?;
            conns.push(c);
        }
        Ok(Front { conns })
    }
}

impl Target for Front {
    fn send(&mut self, tag: u64, io: Io, tr: &mut Tracer) -> io::Result<()> {
        let (tenant, offset, bytes) = (0, io.offset, IO_BYTES);
        let req = match io.op {
            IoOp::Read => Request::Read {
                tenant,
                tag,
                offset,
                bytes,
            },
            IoOp::Write => Request::Write {
                tenant,
                tag,
                offset,
                bytes,
            },
        };
        if tr.is_on() {
            // `Conn::send` encodes internally; the traced run encodes
            // once more on the side to time the codec alone.
            std::hint::black_box(tr.time("protocol.encode_request", tag, || encode_request(&req)));
        }
        let conn = &mut self.conns[(tag % 2) as usize];
        tr.time("client.send", tag, || conn.send(&req))
    }

    fn poll(&mut self, out: &mut Vec<Response>, tr: &mut Tracer) -> io::Result<()> {
        for c in &mut self.conns {
            c.pump()?;
            while let Some(frame) = c
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?
            {
                let resp = tr
                    .time("protocol.decode_response", 0, || decode_response(&frame))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
                tr.retag_last(resp.tag());
                out.push(resp);
            }
        }
        Ok(())
    }
}

/// One shard worker fed straight through its inbox; completions come
/// back on an event-loop style queue with a `poller::Waker`.
struct ShardProbe {
    handle: ShardHandle,
    replies_tx: Sender<(u64, Response)>,
    replies: Receiver<(u64, Response)>,
    waker: Waker,
    waker_rx: UnixStream,
}

impl ShardProbe {
    fn spawn(seed: u64) -> io::Result<ShardProbe> {
        let spec = ShardSpec::partition(CAPACITY / 2, 1)[0];
        let mut cfg = SsdConfig::small(RetryKind::Rif, 2000);
        cfg.queue_depth = ServerConfig::default().queue_depth;
        cfg.seed = seed;
        let (tx, rx) = mpsc::channel();
        let handle = spawn_shard(
            spec,
            cfg,
            VirtualClock::start(1.0),
            Arc::new(Mutex::new(MetricsRegistry::new())),
            Arc::new(TraceRecorder::new(false)),
            rx,
            tx,
        )?;
        let (waker, waker_rx) = Waker::new()?;
        let (replies_tx, replies) = mpsc::channel();
        Ok(ShardProbe {
            handle,
            replies_tx,
            replies,
            waker,
            waker_rx,
        })
    }

    fn inflight(&self) -> &AtomicUsize {
        &self.handle.inflight
    }
}

impl Target for ShardProbe {
    fn send(&mut self, tag: u64, io: Io, tr: &mut Tracer) -> io::Result<()> {
        // The server reserves the in-flight slot at admission and the
        // worker releases it on completion; the probe does the same.
        self.inflight().fetch_add(1, Ordering::AcqRel);
        let msg = ShardMsg::Submit(Submission {
            tag,
            op: io.op,
            offset: io.offset,
            bytes: IO_BYTES,
            reply: ReplyTo::Event {
                tx: self.replies_tx.clone(),
                key: 0,
                waker: self.waker.clone(),
            },
        });
        tr.time("shard.submit", tag, || self.handle.tx.send(msg))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "shard worker gone"))
    }

    fn poll(&mut self, out: &mut Vec<Response>, _tr: &mut Tracer) -> io::Result<()> {
        self.waker.drain(&self.waker_rx);
        while let Ok((_, resp)) = self.replies.try_recv() {
            out.push(resp);
        }
        Ok(())
    }
}

/// How each request of a phase ended. `completed + busy + error +
/// timed_out + unanswered == attempted` always holds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcomes {
    pub attempted: u64,
    pub completed: u64,
    pub busy: u64,
    pub error: u64,
    /// Answered, but after the request's deadline.
    pub timed_out: u64,
    /// Never answered before the phase gave up waiting.
    pub unanswered: u64,
}

impl Outcomes {
    fn failed(&self) -> u64 {
        self.busy + self.error + self.timed_out + self.unanswered
    }

    fn balanced(&self) -> bool {
        self.completed + self.busy + self.error + self.timed_out + self.unanswered == self.attempted
    }

    fn add(&mut self, o: &Outcomes) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.busy += o.busy;
        self.error += o.error;
        self.timed_out += o.timed_out;
        self.unanswered += o.unanswered;
    }

    /// Classifies one response that arrived `late` past its deadline.
    fn record(&mut self, resp: &Response, late: bool) {
        match resp {
            Response::Done { .. } if late => self.timed_out += 1,
            Response::Done { .. } => self.completed += 1,
            Response::Busy { .. } => self.busy += 1,
            _ => self.error += 1,
        }
    }
}

/// One completed request of an open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which equal share of the phase (by due time) it belongs to.
    pub window: usize,
    pub op: IoOp,
    /// Wall latency from the due time.
    pub wall_ns: u64,
    /// The device's simulated latency (`latency_ns ÷ time_scale`).
    pub device_ns: u64,
}

/// Results of one open-loop phase, each request timed from its due time.
#[derive(Default)]
pub struct OpenLoop {
    pub outcomes: Outcomes,
    pub samples: Vec<Sample>,
    /// How late the generator sent each request.
    pub late_ns: Vec<u64>,
}

/// Equal shares of an open-loop phase. Latency figures are medians over
/// the shares: on a shared host, other tenants take the CPUs away for
/// whole seconds, which inflates every request in flight, and a median
/// over shares ignores a minority of such stretches.
const WINDOWS: usize = 12;

impl OpenLoop {
    /// `f` of every completed request of kind `op`.
    pub fn values(&self, op: IoOp, f: impl Fn(&Sample) -> u64) -> Vec<u64> {
        self.samples.iter().filter(|s| s.op == op).map(f).collect()
    }

    /// Median over the windows of each window's `stat` of `f`, in µs.
    pub fn windowed_us(
        &self,
        op: IoOp,
        stat: impl Fn(&mut [u64]) -> u64,
        f: impl Fn(&Sample) -> u64,
    ) -> f64 {
        let per_window: Vec<f64> = (0..WINDOWS)
            .map(|w| {
                let mut v: Vec<u64> = self
                    .samples
                    .iter()
                    .filter(|s| s.op == op && s.window == w)
                    .map(&f)
                    .collect();
                stat(&mut v) as f64 / 1e3
            })
            .collect();
        median(&per_window)
    }
}

/// Sends `ios[i]` at `dues[i]` regardless of responses and times each
/// request from its due time.
fn open_loop(t: &mut dyn Target, ios: &[Io], dues: &[Duration], tr: &mut Tracer) -> OpenLoop {
    let n = dues.len();
    let mut r = OpenLoop::default();
    let mut answered = vec![false; n];
    let mut n_answered = 0;
    let mut next = 0;
    let mut resp = Vec::new();
    let start = Instant::now() + Duration::from_millis(2);
    // Time since the phase start, zero until it begins.
    let clock = || Instant::now().saturating_duration_since(start);
    let give_up = dues.last().copied().unwrap_or_default() + DEADLINE;
    loop {
        let mut busy = false;
        let now = clock();
        while next < n && dues[next] <= now {
            let late = clock().saturating_sub(dues[next]);
            r.late_ns.push(late.as_nanos() as u64);
            if t.send(next as u64, ios[next], tr).is_err() {
                // A broken transport fails what is left of the phase.
                r.outcomes.error += 1;
                answered[next] = true;
                n_answered += 1;
            }
            next += 1;
            busy = true;
        }
        if t.poll(&mut resp, tr).is_err() {
            break;
        }
        let at = clock();
        for x in resp.drain(..) {
            let i = x.tag() as usize;
            if i >= next || answered[i] {
                continue;
            }
            answered[i] = true;
            n_answered += 1;
            busy = true;
            let wall = at.saturating_sub(dues[i]);
            let late = wall > DEADLINE;
            r.outcomes.record(&x, late);
            if let (Response::Done { latency_ns, .. }, false) = (x, late) {
                r.samples.push(Sample {
                    window: i * WINDOWS / n,
                    op: ios[i].op,
                    wall_ns: wall.as_nanos() as u64,
                    // Real-time pacing: one simulated ns per wall ns.
                    device_ns: latency_ns,
                });
            }
        }
        if next == n && (n_answered == n || at > give_up) {
            break;
        }
        if !busy {
            std::thread::sleep(IDLE);
        }
    }
    r.outcomes.attempted = next as u64;
    r.outcomes.unanswered = (next - n_answered) as u64;
    r
}

/// Results of one closed-loop phase.
pub struct ClosedLoop {
    pub outcomes: Outcomes,
    /// Completion rate over each equal share of the completions.
    pub slice_rps: Vec<f64>,
}

/// Sends `total` requests keeping `WINDOW` outstanding, and measures the
/// completion rate over `slices` equal shares of them (the rate is their
/// median, for the same reason as the latency windows'). A fixed amount of
/// work, not a fixed time, keeps memory use the same from run to run. A
/// request past its deadline frees its window slot; if it is answered
/// later it counts as timed out.
fn closed_loop(
    t: &mut dyn Target,
    ios: &[Io],
    total: usize,
    slices: usize,
    tr: &mut Tracer,
) -> ClosedLoop {
    let mut out = Outcomes::default();
    // Requests holding a window slot, in send order, and every request
    // not answered yet (expired ones included).
    let mut live: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut done_at: Vec<Instant> = Vec::with_capacity(total);
    let mut resp = Vec::new();
    let mut next = 0usize;
    let mut broken = false;
    let mut last_send = Instant::now();
    loop {
        let now = Instant::now();
        while next < total && !broken && live.len() < WINDOW {
            let tag = next as u64;
            next += 1;
            out.attempted += 1;
            if t.send(tag, ios[tag as usize % ios.len()], tr).is_err() {
                out.error += 1;
                broken = true;
                break;
            }
            last_send = Instant::now();
            live.push_back((tag, last_send));
            sent_at.insert(tag, last_send);
        }
        while live
            .front()
            .is_some_and(|&(_, at)| now.duration_since(at) > DEADLINE)
        {
            live.pop_front();
        }
        if t.poll(&mut resp, tr).is_err() {
            break;
        }
        let at = Instant::now();
        let got = !resp.is_empty();
        for x in resp.drain(..) {
            let Some(sent) = sent_at.remove(&x.tag()) else {
                continue;
            };
            let late = at.duration_since(sent) > DEADLINE;
            out.record(&x, late);
            if !late && matches!(x, Response::Done { .. }) {
                done_at.push(at);
            }
        }
        live.retain(|(tag, _)| sent_at.contains_key(tag));
        let all_sent = next == total || broken;
        if all_sent && (sent_at.is_empty() || at.duration_since(last_send) > DEADLINE) {
            break;
        }
        if !got {
            std::thread::sleep(IDLE);
        }
    }
    out.unanswered = sent_at.len() as u64;
    let per = (done_at.len() / slices.max(1)).max(1);
    let slice_rps = done_at
        .chunks_exact(per)
        .filter(|c| c.len() > 1)
        .map(|c| (c.len() - 1) as f64 / c[c.len() - 1].duration_since(c[0]).as_secs_f64())
        .collect();
    ClosedLoop {
        outcomes: out,
        slice_rps,
    }
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Shrinks this thread's timer slack to 1 µs, so the generator's short
/// idle sleeps end when asked instead of up to 50 µs later.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1000u64) };
    if rc != 0 {
        eprintln!("stackbench: could not set the timer slack; idle sleeps run long");
    }
}

/// The served device: RiFSSD at 2000 P/E, paced one simulated ns per
/// wall ns, so served latency is device latency plus stack overhead.
fn server_config(seed: u64) -> ServerConfig {
    ServerConfig {
        time_scale: 1.0,
        retry: RetryKind::Rif,
        pe_cycles: 2000,
        seed,
        capacity_bytes: CAPACITY,
        ..ServerConfig::default()
    }
}

/// Stops the server on a helper thread and waits at most
/// `STOP_WATCHDOG`. Returns the stop time, or `None` when it hung (the
/// stuck thread is left behind; the process exit ends it).
fn stop_with_watchdog(server: Server, tr: &mut Tracer) -> Option<f64> {
    let (done_tx, done_rx) = mpsc::channel();
    let t0 = Instant::now();
    let stopper = std::thread::spawn(move || {
        server.stop();
        let _ = done_tx.send(());
    });
    let ok = tr.time("server.stop", 0, || {
        done_rx.recv_timeout(STOP_WATCHDOG).is_ok()
    });
    if ok {
        let _ = stopper.join();
        Some(t0.elapsed().as_secs_f64())
    } else {
        eprintln!("stackbench: Server::stop did not return within {STOP_WATCHDOG:?}");
        None
    }
}

/// Starts the server and connects both generator connections.
fn start(seed: u64, tr: &mut Tracer) -> io::Result<(Server, Front)> {
    let server = tr.time("server.start", 0, || Server::start(server_config(seed), 0))?;
    let front = Front::connect(&server, tr)?;
    Ok((server, front))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn avg(v: &mut [u64]) -> u64 {
    mean(v)
}

fn p50(v: &mut [u64]) -> u64 {
    percentile(v, 50.0)
}

fn p90(v: &mut [u64]) -> u64 {
    percentile(v, 90.0)
}

/// Checks one phase's accounting and counts its requests.
fn account(name: &str, o: &Outcomes, checks: &mut Checks) -> Tally {
    checks.require(
        o.balanced(),
        format!("serve/{name}: outcomes {o:?} do not add up to the attempted count"),
    );
    if o.failed() > 0 {
        eprintln!("stackbench: serve/{name}: {o:?}");
    }
    Tally {
        attempted: o.attempted,
        failed: o.failed(),
    }
}

/// The open loop's checks: the server kept up with the offered rate,
/// answering at least 99 % of the requests within their deadline.
fn check_light(name: &str, l: &OpenLoop, checks: &mut Checks) -> Tally {
    let o = &l.outcomes;
    checks.require(
        o.completed as f64 >= 0.99 * o.attempted as f64,
        format!(
            "serve/{name}: {} of {} requests completed",
            o.completed, o.attempted
        ),
    );
    checks.require(
        l.samples.iter().any(|s| s.op == IoOp::Read),
        format!("serve/{name}: no completed reads"),
    );
    account(name, &l.outcomes, checks)
}

/// Requests of the `saturate` phase per second of the section, at about
/// 100k requests/s on two cores.
const SATURATE_PER_SEC: usize = 40_000;

/// The traced `serve` section: `light` untraced and then traced (the
/// difference is the tracing overhead), `saturate` with the event-loop
/// counters read around it, then the socket-less shard probe.
pub fn run_traced(
    seed: u64,
    secs: f64,
    m: &mut Metrics,
    checks: &mut Checks,
    tr: &mut Tracer,
) -> io::Result<Tally> {
    tighten_timer_slack();
    let mut off = Tracer::new(false);
    let dues = plan_dues(LIGHT_RPS, secs, seed);
    let ios = plan_ios(dues.len().max(WINDOW), seed, CAPACITY);
    let total = SATURATE_PER_SEC * secs as usize;
    let (server, mut front) = start(seed, tr)?;

    let plain = open_loop(&mut front, &ios, &dues, &mut off);
    let mut tally = check_light("light-untraced", &plain, checks);
    let light = open_loop(&mut front, &ios, &dues, tr);
    tally += check_light("light", &light, checks);

    let before = tr.time("server.metrics_snapshot", 0, || server.metrics_snapshot());
    // The saturate phases run untraced: their figures are rates and
    // server counters, and per-call spans would only slow them.
    let sat = closed_loop(&mut front, &ios, total, 4, &mut off);
    let after = tr.time("server.metrics_snapshot", 0, || server.metrics_snapshot());
    tally += account("saturate", &sat.outcomes, checks);
    drop(front);
    let stop_s = stop_with_watchdog(server, tr);

    let mut probe = ShardProbe::spawn(seed)?;
    let shard_ios = plan_ios(ios.len(), seed, CAPACITY / 2);
    let shard_light = open_loop(&mut probe, &shard_ios, &dues, tr);
    tally += check_light("shard-light", &shard_light, checks);
    let shard_sat = closed_loop(&mut probe, &shard_ios, total, 4, &mut off);
    tally += account("shard-saturate", &shard_sat.outcomes, checks);
    let ShardProbe { handle, .. } = probe;
    handle.stop();

    let mut all = Outcomes::default();
    for o in [&plain.outcomes, &light.outcomes, &sat.outcomes] {
        all.add(o);
    }
    let wakeups = after.counter("server.epoll_wakeups") - before.counter("server.epoll_wakeups");
    let wall = |s: &Sample| s.wall_ns;
    let device = |s: &Sample| s.device_ns;
    let overhead = |s: &Sample| s.wall_ns.saturating_sub(s.device_ns);
    let mut reads = light.values(IoOp::Read, wall);

    m.put(
        "serve.read_mean_us",
        plain.windowed_us(IoOp::Read, avg, wall),
        "us",
    );
    m.put(
        "serve.read_p90_us",
        plain.windowed_us(IoOp::Read, p90, wall),
        "us",
    );
    m.put(
        "serve.write_mean_us",
        plain.windowed_us(IoOp::Write, avg, wall),
        "us",
    );
    m.put(
        "serve.device_p50_us",
        light.windowed_us(IoOp::Read, p50, device),
        "us",
    );
    m.put(
        "serve.device_p90_us",
        light.windowed_us(IoOp::Read, p90, device),
        "us",
    );
    m.put(
        "serve.overhead_p50_us",
        light.windowed_us(IoOp::Read, p50, overhead),
        "us",
    );
    m.put(
        "serve.overhead_p90_us",
        light.windowed_us(IoOp::Read, p90, overhead),
        "us",
    );
    m.put("serve.read_p99_us", us(percentile(&mut reads, 99.0)), "us");
    m.put("serve.read_p999_us", us(percentile(&mut reads, 99.9)), "us");
    m.put("serve.read_samples", reads.len() as f64, "count");
    m.put("serve.completed", all.completed as f64, "count");
    m.put("serve.busy", all.busy as f64, "count");
    m.put("serve.error", all.error as f64, "count");
    m.put("serve.timed_out", all.timed_out as f64, "count");
    m.put("serve.unanswered", all.unanswered as f64, "count");
    m.put(
        "serve.start_s",
        tr.total_ns("server.start") as f64 / 1e9,
        "s",
    );
    m.put(
        "serve.stop_s",
        stop_s.unwrap_or(STOP_WATCHDOG.as_secs_f64()),
        "s",
    );
    m.put(
        "serve.server_completed",
        after.counter("server.completed") as f64,
        "count",
    );
    m.put("serve.saturate_rps", median(&sat.slice_rps), "1/s");
    m.put(
        "shard.overhead_p50_us",
        shard_light.windowed_us(IoOp::Read, p50, overhead),
        "us",
    );
    m.put(
        "shard.overhead_p90_us",
        shard_light.windowed_us(IoOp::Read, p90, overhead),
        "us",
    );
    m.put("shard.max_rps", median(&shard_sat.slice_rps), "1/s");
    m.put("shard.submit_ns", tr.mean_ns("shard.submit"), "ns");
    m.put(
        "event_loop.wakeups_per_req",
        wakeups as f64 / sat.outcomes.attempted.max(1) as f64,
        "ratio",
    );
    m.put(
        "event_loop.write_queue_max_bytes",
        after.gauge("server.write_queue.max_bytes").unwrap_or(0.0),
        "bytes",
    );
    m.put(
        "protocol.encode_ns",
        tr.mean_ns("protocol.encode_request"),
        "ns",
    );
    m.put(
        "protocol.decode_ns",
        tr.mean_ns("protocol.decode_response"),
        "ns",
    );
    m.put("client.send_ns", tr.mean_ns("client.send"), "ns");
    let late = &light.late_ns;
    m.put(
        "gen.late_mean_us",
        us(late.iter().sum::<u64>() / late.len().max(1) as u64),
        "us",
    );
    m.put(
        "gen.late_max_us",
        us(late.iter().copied().max().unwrap_or(0)),
        "us",
    );
    m.put(
        "trace.overhead_frac.serve",
        light.windowed_us(IoOp::Read, p50, wall) / plain.windowed_us(IoOp::Read, p50, wall) - 1.0,
        "ratio",
    );
    Ok(tally)
}
