//! The two simulator workloads: `rif-workloads` trace generation feeding
//! the `rif-ssd` event engine through its stepper API, for all seven
//! retry schemes.

use std::time::Instant;

use rif_events::{SimDuration, SimTime};
use rif_ssd::hybrid::{HybridConfig, MigrationPolicy};
use rif_ssd::{RetryKind, SimReport, Simulator, SsdConfig};
use rif_workloads::{IoOp, SynthConfig, Trace, WorkloadProfile};

use crate::common::{mean, median, percentile, thread_cpu_s, Checks, Metrics, Tally, Tracer};

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Table II Ali124 at Fig. 19's 20 µs mean interarrival on the
    /// Table I device at 2000 P/E: the read/retry path.
    Ali124,
    /// 50 % writes on the small SLC/QLC hybrid device with background
    /// GC, migration and refresh on: writes and background traffic
    /// contend with reads.
    HybridMixed,
}

/// Requests per scheme run; a round (all seven schemes) takes one to
/// three seconds of host time.
const ALI124_REQUESTS: usize = 24_000;
const HYBRID_REQUESTS: usize = 80_000;
/// The hybrid device starts empty. Its latency figures count only the
/// requests after this many, by when the SLC cache has filled, GC runs
/// and latency has levelled off.
const HYBRID_WARMUP: usize = 32_000;

/// Simulated time advanced per `advance_until` call.
const WINDOW: SimDuration = SimDuration::from_us(500);

impl SimKind {
    fn requests(self) -> usize {
        match self {
            SimKind::Ali124 => ALI124_REQUESTS,
            SimKind::HybridMixed => HYBRID_REQUESTS,
        }
    }

    fn warmup(self) -> u64 {
        match self {
            SimKind::Ali124 => 0,
            SimKind::HybridMixed => HYBRID_WARMUP as u64,
        }
    }

    fn synth(self) -> SynthConfig {
        match self {
            SimKind::Ali124 => SynthConfig {
                mean_interarrival_ns: 20_000.0,
                ..WorkloadProfile::by_name("Ali124")
                    .expect("Table II profile")
                    .config()
            },
            // Half writes: 64-KiB requests every 40 µs offer about
            // 1.6 GB/s, which the device sustains. The 128-MiB hot set
            // fills the shrunken device below far enough that GC must
            // relocate live data within one run.
            SimKind::HybridMixed => SynthConfig {
                read_ratio: 0.5,
                cold_read_ratio: 0.6,
                hot_region_bytes: 128 << 20,
                cold_region_bytes: 64 << 20,
                mean_interarrival_ns: 40_000.0,
                ..SynthConfig::default()
            },
        }
    }

    fn config(self, retry: RetryKind, seed: u64) -> SsdConfig {
        let mut cfg = match self {
            SimKind::Ali124 => SsdConfig::paper(retry, 2000),
            SimKind::HybridMixed => {
                // The background knobs of `hybrid_sweep`'s "bg on" cells.
                let mut h = HybridConfig::slc_qlc();
                h.migration = MigrationPolicy::Fifo;
                h.bg.high_watermark = 0.0001;
                h.bg.low_watermark = 0.0;
                h.bg.refresh_interval_days = 25.0;
                h.bg.refresh_scan_batch = 8;
                let mut cfg = SsdConfig::small(retry, 1500);
                // A quarter of the small device's blocks: a working set
                // this size against a full-size device would need a
                // run many times longer before the first relocation.
                cfg.geometry.blocks_per_plane = 16;
                cfg.hybrid = Some(h);
                cfg
            }
        };
        cfg.seed = seed;
        cfg
    }

    /// Generates the workload's trace from the seed (timed as
    /// `workloads.generate`).
    pub fn generate(self, seed: u64, tr: &mut Tracer) -> Trace {
        let synth = self.synth();
        tr.time("workloads.generate", 0, || {
            synth.generate(self.requests(), seed)
        })
    }
}

/// Metric-name form of a scheme label (`SWR+` becomes `SWRplus`).
pub fn scheme_key(retry: RetryKind) -> String {
    retry.label().replace('+', "plus")
}

/// One scheme's run: its report, the simulated latencies of its
/// requests past the warm-up, and the host CPU time it took.
pub struct SchemeRun {
    pub retry: RetryKind,
    pub report: SimReport,
    pub json: String,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub host_s: f64,
}

/// Runs one scheme over the trace through the stepper API: every
/// request is submitted up front, then the clock advances in fixed
/// windows, draining completions after each (the pattern the
/// determinism suite pins to `Simulator::run`).
pub fn run_scheme(
    kind: SimKind,
    retry: RetryKind,
    seed: u64,
    trace: &Trace,
    tr: &mut Tracer,
) -> SchemeRun {
    let cpu0 = thread_cpu_s();
    let cfg = kind.config(retry, seed);
    let mut sim = tr.time("ssd.new", 0, || Simulator::new(cfg));
    // A submitted request's id is its position in the trace, so the
    // submit span and the request's completion share it.
    for (i, r) in trace.iter().enumerate() {
        tr.time("ssd.submit", i as u64, || sim.submit(*r));
    }
    let mut read_ns = Vec::with_capacity(trace.len());
    let mut write_ns = Vec::new();
    let mut horizon = SimTime::ZERO;
    let mut window = 0u64;
    while sim.pending_events() > 0 {
        horizon += WINDOW;
        tr.time("ssd.advance_until", window, || sim.advance_until(horizon));
        for c in sim.drain_completions() {
            if c.id < kind.warmup() {
                continue;
            }
            match c.op {
                IoOp::Read => read_ns.push(c.latency().as_ns()),
                IoOp::Write => write_ns.push(c.latency().as_ns()),
            }
        }
        window += 1;
    }
    let report = tr.time("ssd.finish", 0, || sim.finish());
    let host_s = thread_cpu_s() - cpu0;
    SchemeRun {
        retry,
        json: report.to_json(),
        report,
        read_ns,
        write_ns,
        host_s,
    }
}

/// Runs all seven schemes once (one round).
pub fn run_round(kind: SimKind, seed: u64, trace: &Trace, tr: &mut Tracer) -> Vec<SchemeRun> {
    RetryKind::ALL
        .into_iter()
        .map(|retry| run_scheme(kind, retry, seed, trace, tr))
        .collect()
}

/// The checks every round of a workload must pass: every request
/// completes, and the workload loads the layer it exists for.
pub fn check_round(kind: SimKind, runs: &[SchemeRun], n: usize, checks: &mut Checks) -> Tally {
    let mut tally = Tally::default();
    for r in runs {
        tally.attempted += n as u64;
        let done = r.report.completed_requests;
        tally.failed += (n as u64).saturating_sub(done);
        checks.require(
            done == n as u64 && r.read_ns.len() + r.write_ns.len() == n - kind.warmup() as usize,
            format!("{kind:?}/{}: {done} of {n} requests completed", r.retry),
        );
    }
    let by = |k: RetryKind| runs.iter().find(|r| r.retry == k).expect("scheme ran");
    match kind {
        SimKind::Ali124 => {
            let senc = by(RetryKind::Sentinel).report.decode_failures;
            let rif = by(RetryKind::Rif).report.in_die_retries;
            checks.require(senc > 0, "sim-ali124: SENC has no decode failures");
            checks.require(rif > 0, "sim-ali124: RiFSSD has no in-die retries");
        }
        SimKind::HybridMixed => {
            for r in runs {
                let bg = r.report.hybrid.map_or(0, |h| h.bg_ops);
                checks.require(
                    r.report.gc_relocations > 0 && bg > 0,
                    format!(
                        "sim-hybrid-mixed/{}: gc_relocations {} bg_ops {bg}",
                        r.retry, r.report.gc_relocations
                    ),
                );
            }
        }
    }
    tally
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The untraced run: rounds of all seven schemes until `seconds` have
/// passed. Every round must reproduce the first round's reports byte
/// for byte; host speed is the median over rounds of simulated requests
/// per CPU second.
pub fn run(kind: SimKind, seed: u64, seconds: f64, m: &mut Metrics, checks: &mut Checks) -> Tally {
    let mut off = Tracer::new(false);
    let (trace, setup_s) = crate::common::timed_setup(5, || kind.generate(seed, &mut off));
    let n = trace.len();
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut tally = Tally::default();
    let mut first: Option<Vec<SchemeRun>> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < seconds {
        let runs = run_round(kind, seed, &trace, &mut off);
        let cpu_s: f64 = runs.iter().map(|r| r.host_s).sum();
        rates.push((n * runs.len()) as f64 / cpu_s);
        tally += check_round(kind, &runs, n, checks);
        match &first {
            None => first = Some(runs),
            Some(f) => {
                let same = f.iter().zip(&runs).all(|(a, b)| a.json == b.json);
                checks.require(same, format!("{kind:?}: a repeated round changed a report"));
            }
        }
    }
    let first = first.expect("one round ran");
    let rif = first
        .iter()
        .find(|r| r.retry == RetryKind::Rif)
        .expect("RiFSSD ran");
    let mut reads = rif.read_ns.clone();
    eprintln!(
        "stackbench: {kind:?} seed {seed}: {} rounds, report hash {:016x}",
        rates.len(),
        report_hash(&first)
    );
    m.put("setup_s", setup_s, "s");
    m.put("ops_per_s", median(&rates), "1/s");
    // Means, not medians: most RiFSSD reads take the same retry-free
    // time, so the median is one constant for every seed.
    m.put("read_mean_us", us(mean(&reads)), "us");
    m.put("read_p90_us", us(percentile(&mut reads, 90.0)), "us");
    m.put("write_mean_us", us(mean(&rif.write_ns)), "us");
    tally
}

/// FNV-1a over every scheme's canonical report, printed so that runs of
/// one seed can be compared across processes.
pub fn report_hash(runs: &[SchemeRun]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in runs.iter().flat_map(|r| r.json.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}
