//! The `ldpc-mc` workload: the Fig. 11/14 Monte-Carlo on the paper's
//! QC-LDPC code — encode, binary-symmetric-channel corruption, on-die RP
//! prediction over the rearranged layout, and min-sum decoding — the only
//! path that reaches `rif-ldpc` and the bit-level `rif-odear` RP.

use std::time::Instant;

use rif_events::SimRng;
use rif_ldpc::bits::BitVec;
use rif_ldpc::decoder::MinSumDecoder;
use rif_ldpc::{Bsc, QcLdpcCode};
use rif_odear::accuracy::{measure_accuracy, AccuracyPoint};
use rif_odear::rp::ReadRetryPredictor;

use crate::common::{
    mean, median, percentile, thread_cpu_ns, thread_cpu_s, timed_setup, Checks, Metrics, Tally,
    Tracer,
};

/// Below, at and above the code's correction capability.
pub const RBERS: [f64; 3] = [0.004, 0.0085, 0.012];
/// Metric-name suffix and decode span name of each RBER.
pub const RBER_KEYS: [&str; 3] = ["0.004", "0.0085", "0.012"];
const DECODE_SPANS: [&str; 3] = [
    "ldpc.decode.0.004",
    "ldpc.decode.0.0085",
    "ldpc.decode.0.012",
];
/// RBER the RP threshold is calibrated to (the code's capability).
const CAPABILITY: f64 = 0.0085;
/// Trials per RBER in one round (about 0.7 s of host time).
pub const TRIALS: usize = 64;

/// The code, its decoder and the RP built for it.
pub struct Codec {
    pub code: QcLdpcCode,
    pub decoder: MinSumDecoder,
    pub rp: ReadRetryPredictor,
}

impl Codec {
    pub fn paper() -> Codec {
        let code = QcLdpcCode::paper();
        Codec {
            decoder: MinSumDecoder::new(&code),
            rp: ReadRetryPredictor::for_capability(&code, CAPABILITY),
            code,
        }
    }
}

/// Verdict counts at one RBER, in the categories of
/// [`rif_odear::accuracy::AccuracyPoint`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdicts {
    pub correct: usize,
    pub correctable: usize,
    pub false_retry: usize,
    pub missed_retry: usize,
    pub decode_fail: usize,
    pub iterations: u64,
}

/// One round: `TRIALS` trials at each RBER, with per-trial CPU times.
pub struct Round {
    pub verdicts: [Verdicts; 3],
    /// Encode time of each trial (the write path of a codeword).
    pub encode_ns: Vec<u64>,
    /// Corrupt + rearrange + predict + decode time of each trial (the
    /// read path of a codeword).
    pub read_ns: Vec<u64>,
    /// Decoded words that differ from the encoded codeword although the
    /// decoder reported success.
    pub miscorrections: usize,
    /// CPU time of the round.
    pub cpu_s: f64,
}

/// Runs one round. Trial `k` at RBER index `pi` draws from
/// `SimRng::stream(seed, pi * TRIALS + k)` in the order
/// `measure_accuracy` does, so both see the same pages.
pub fn run_round(c: &Codec, seed: u64, tr: &mut Tracer) -> Round {
    let cpu0 = thread_cpu_s();
    let mut verdicts = [Verdicts::default(); 3];
    let mut encode_ns = Vec::with_capacity(3 * TRIALS);
    let mut read_ns = Vec::with_capacity(3 * TRIALS);
    let mut miscorrections = 0;
    for (pi, &rber) in RBERS.iter().enumerate() {
        let channel = Bsc::new(rber);
        for k in 0..TRIALS {
            let id = (pi * TRIALS + k) as u64;
            let mut rng = SimRng::stream(seed, id);
            let data = BitVec::random(c.code.data_bits(), &mut rng);
            let w0 = thread_cpu_ns();
            let cw = tr.time("ldpc.encode", id, || c.code.encode(&data));
            let r0 = thread_cpu_ns();
            let noisy = tr.time("channel.corrupt", id, || channel.corrupt(&cw, &mut rng));
            let sensed = tr.time("odear.rearrange", id, || c.code.rearrange(&noisy));
            let predicted_fail = tr
                .time("odear.predict", id, || c.rp.predict(&sensed))
                .retry_needed;
            let out = tr.time(DECODE_SPANS[pi], id, || c.decoder.decode(&noisy));
            let r1 = thread_cpu_ns();
            encode_ns.push(r0 - w0);
            read_ns.push(r1 - r0);

            let v = &mut verdicts[pi];
            let actual_fail = !out.success;
            v.iterations += out.iterations as u64;
            if out.success && out.decoded != cw {
                miscorrections += 1;
            }
            if predicted_fail == actual_fail {
                v.correct += 1;
            }
            if actual_fail {
                v.decode_fail += 1;
                if !predicted_fail {
                    v.missed_retry += 1;
                }
            } else {
                v.correctable += 1;
                if predicted_fail {
                    v.false_retry += 1;
                }
            }
        }
    }
    Round {
        verdicts,
        encode_ns,
        read_ns,
        miscorrections,
        cpu_s: thread_cpu_s() - cpu0,
    }
}

/// The round's checks: decoded words are the codewords sent, pages
/// below the capability all decode and pages above it all fail.
pub fn check_round(r: &Round, checks: &mut Checks) -> Tally {
    checks.require(
        r.miscorrections == 0,
        format!("ldpc-mc: {} miscorrected codewords", r.miscorrections),
    );
    checks.require(
        r.verdicts[0].decode_fail == 0,
        format!(
            "ldpc-mc: {} failures at RBER 0.004",
            r.verdicts[0].decode_fail
        ),
    );
    checks.require(
        r.verdicts[2].decode_fail == TRIALS,
        format!(
            "ldpc-mc: {} of {TRIALS} failures at RBER 0.012",
            r.verdicts[2].decode_fail
        ),
    );
    Tally {
        attempted: (3 * TRIALS) as u64,
        failed: r.miscorrections as u64,
    }
}

/// Fraction of trials where RP's verdict matched the decoder's.
pub fn rp_accuracy(v: &[Verdicts; 3]) -> f64 {
    v.iter().map(|v| v.correct).sum::<usize>() as f64 / (3 * TRIALS) as f64
}

/// True when `measure_accuracy`'s point carries exactly these counts.
pub fn point_matches(p: &AccuracyPoint, v: &Verdicts) -> bool {
    let uncorrectable = TRIALS - v.correctable;
    let rate = |num: usize, den: usize| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    p.trials == TRIALS
        && p.accuracy == v.correct as f64 / TRIALS as f64
        && p.false_retry_rate == rate(v.false_retry, v.correctable)
        && p.missed_retry_rate == rate(v.missed_retry, uncorrectable)
}

/// `measure_accuracy` over the same pages as [`run_round`],
/// single-threaded.
pub fn reference_points(c: &Codec, seed: u64) -> Vec<AccuracyPoint> {
    measure_accuracy(&c.code, &c.rp, &RBERS, TRIALS, seed, 1)
}

/// The untraced run: identical rounds until `seconds` have passed;
/// speed is the median over rounds of codewords per CPU second.
pub fn run(seed: u64, seconds: f64, m: &mut Metrics, checks: &mut Checks) -> Tally {
    let (codec, setup_s) = timed_setup(3, Codec::paper);
    let mut off = Tracer::new(false);
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    // Per-trial times of every round: rounds repeat the same pages, so
    // each trial's median over rounds drops the rounds that other
    // tenants of the host disturbed.
    let mut encode_ns: Vec<Vec<u64>> = vec![Vec::new(); 3 * TRIALS];
    let mut read_ns: Vec<Vec<u64>> = vec![Vec::new(); 3 * TRIALS];
    let mut first: Option<[Verdicts; 3]> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < seconds {
        let r = run_round(&codec, seed, &mut off);
        tally += check_round(&r, checks);
        rates.push((3 * TRIALS) as f64 / r.cpu_s);
        for (i, (e, rd)) in r.encode_ns.iter().zip(&r.read_ns).enumerate() {
            encode_ns[i].push(*e);
            read_ns[i].push(*rd);
        }
        match first {
            None => first = Some(r.verdicts),
            Some(f) => checks.require(
                f == r.verdicts,
                "ldpc-mc: a repeated round changed a verdict",
            ),
        }
    }
    let first = first.expect("one round ran");
    eprintln!(
        "stackbench: ldpc-mc seed {seed}: {} rounds, rp_accuracy {:.4}",
        rates.len(),
        rp_accuracy(&first)
    );
    m.put("setup_s", setup_s, "s");
    m.put("ops_per_s", median(&rates), "1/s");
    let per_trial = |v: Vec<Vec<u64>>| -> Vec<u64> {
        v.into_iter()
            .map(|mut t| percentile(&mut t, 50.0))
            .collect()
    };
    let (mut reads, encodes) = (per_trial(read_ns), per_trial(encode_ns));
    m.put("read_mean_us", mean(&reads) as f64 / 1e3, "us");
    m.put(
        "read_p90_us",
        percentile(&mut reads, 90.0) as f64 / 1e3,
        "us",
    );
    m.put("write_mean_us", mean(&encodes) as f64 / 1e3, "us");
    tally
}
