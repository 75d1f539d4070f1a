//! Pieces every workload shares: the span recorder of the traced run,
//! the metric list a run prints, and small statistics helpers.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call into a public function of the stack.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call, as `<layer>.<function>`.
    pub name: &'static str,
    /// The request (or trial, or scheme run) the call belongs to; spans
    /// of one request share it.
    pub req: u64,
    /// Start and end, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Off, [`Tracer::time`] is the bare call plus
/// one branch; on, it reads the clock twice and pushes a [`Span`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording a span named `name` for request `req` when on.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            start_ns,
            end_ns,
        });
        out
    }

    /// Sets the request id of the span recorded last, for calls whose
    /// request is known only from their result.
    pub fn retag_last(&mut self, req: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.req = req;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Mean duration of the spans called `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        d.iter().sum::<u64>() as f64 / d.len().max(1) as f64
    }

    /// Writes every span as one tab-separated line under a header.
    pub fn write_tsv(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\treq\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(w, "{}\t{}\t{}\t{}", s.name, s.req, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// The metrics one run reports, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Self-check results: a run is correct only when every check passed.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("stackbench: CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`, which it sorts.
pub fn percentile(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Mean of `v`, rounded down.
pub fn mean(v: &[u64]) -> u64 {
    v.iter().sum::<u64>() / v.len().max(1) as u64
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Peak resident set size of this process in MB, from `VmHWM`.
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

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this thread has run, in nanoseconds. Host-speed figures use
/// it rather than wall time: on a shared host the wall clock also counts
/// time the thread waited for a CPU, which other tenants decide.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// [`thread_cpu_ns`] in seconds.
pub fn thread_cpu_s() -> f64 {
    thread_cpu_ns() as f64 / 1e9
}

/// Runs `setup` `times` times and returns the last result with the
/// median wall time of the runs in seconds, so a one-off stall on the
/// shared host does not move `setup_s`.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), median(&secs))
}

/// Outcome counts of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}
