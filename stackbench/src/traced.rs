//! The traced run (`--trace 1`). It covers every layer, whatever the
//! workload: each section runs its workload's inputs once untraced and
//! once with a span around every public call, checks that both give the
//! same outputs, and reports per-layer numbers plus its own overhead.

use std::io;

use rif_ssd::RetryKind;

use crate::common::{percentile, thread_cpu_s, Checks, Metrics, Tally, Tracer};
use crate::mc::{self, Codec, RBER_KEYS, TRIALS};
use crate::serve;
use crate::sim::{self, scheme_key, SimKind};

/// Where the spans go, inside the benchmark's own directory.
const SPANS_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out/spans.tsv");

pub fn run(seed: u64, seconds: f64, m: &mut Metrics, checks: &mut Checks) -> io::Result<Tally> {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut tally = Tally::default();

    // --- rif-workloads + rif-ssd ------------------------------------
    let mut bg = [0u64; 4];
    for kind in [SimKind::Ali124, SimKind::HybridMixed] {
        let trace = kind.generate(seed, &mut tr);
        let plain = sim::run_round(kind, seed, &trace, &mut off);
        let traced = sim::run_round(kind, seed, &trace, &mut tr);
        tally += sim::check_round(kind, &traced, trace.len(), checks);
        for (a, b) in plain.iter().zip(&traced) {
            checks.require(
                a.json == b.json,
                format!("{kind:?}/{}: traced report differs from untraced", a.retry),
            );
        }
        eprintln!(
            "stackbench: traced {kind:?} seed {seed}: report hash {:016x}",
            sim::report_hash(&traced)
        );
        let host = |runs: &[sim::SchemeRun]| runs.iter().map(|r| r.host_s).sum::<f64>();
        let key = match kind {
            SimKind::Ali124 => "ali124",
            SimKind::HybridMixed => "hybrid",
        };
        m.put(
            format!("trace.overhead_frac.{key}"),
            host(&traced) / host(&plain) - 1.0,
            "ratio",
        );
        match kind {
            SimKind::Ali124 => {
                for r in &plain {
                    let rep = &r.report;
                    let n = rep.completed_requests.max(1) as f64;
                    let host_ns = r.host_s * 1e9;
                    let k = scheme_key(r.retry);
                    m.put(format!("ssd.{k}.host_ns_per_req"), host_ns / n, "ns");
                    m.put(
                        format!("ssd.{k}.host_ns_per_sense"),
                        host_ns / rep.page_senses.max(1) as f64,
                        "ns",
                    );
                    m.put(
                        format!("ssd.{k}.page_senses"),
                        rep.page_senses as f64,
                        "count",
                    );
                    m.put(
                        format!("ssd.{k}.decode_failures"),
                        rep.decode_failures as f64,
                        "count",
                    );
                    m.put(
                        format!("ssd.{k}.in_die_retries"),
                        rep.in_die_retries as f64,
                        "count",
                    );
                    m.put(
                        format!("ssd.{k}.uncor_page_transfers"),
                        rep.uncor_page_transfers as f64,
                        "count",
                    );
                    m.put(
                        format!("ssd.{k}.senses_per_req"),
                        rep.page_senses as f64 / n,
                        "ratio",
                    );
                    m.put(
                        format!("ssd.{k}.chan_wasted_frac"),
                        rep.channel_usage().wasted(),
                        "ratio",
                    );
                }
                let rif = traced
                    .iter()
                    .find(|r| r.retry == RetryKind::Rif)
                    .expect("RiFSSD ran");
                let mut reads = rif.read_ns.clone();
                m.put(
                    "ssd.rif_read_p99_us",
                    percentile(&mut reads, 99.0) as f64 / 1e3,
                    "us",
                );
            }
            SimKind::HybridMixed => {
                let n = (trace.len() * plain.len()) as f64;
                m.put("ssd.hybrid_host_ns_per_req", host(&plain) * 1e9 / n, "ns");
                for r in &traced {
                    let h = r.report.hybrid.expect("hybrid device");
                    bg[0] += r.report.gc_relocations;
                    bg[1] += h.bg_ops;
                    bg[2] += h.migrated_slots;
                    bg[3] += h.refreshed_slots;
                }
            }
        }
    }
    m.put(
        "workloads.generate_s",
        tr.total_ns("workloads.generate") as f64 / 1e9,
        "s",
    );
    for (name, span) in [
        ("ssd.new_s", "ssd.new"),
        ("ssd.submit_s", "ssd.submit"),
        ("ssd.advance_s", "ssd.advance_until"),
        ("ssd.finish_s", "ssd.finish"),
    ] {
        m.put(name, tr.total_ns(span) as f64 / 1e9, "s");
    }
    for (name, v) in [
        "gc_relocations",
        "bg_ops",
        "migrated_slots",
        "refreshed_slots",
    ]
    .iter()
    .zip(bg)
    {
        m.put(format!("ssd.{name}"), v as f64, "count");
    }

    // --- rif-ldpc + bit-level rif-odear ------------------------------
    let codec = Codec::paper();
    let cpu0 = thread_cpu_s();
    let points = tr.time("odear.measure_accuracy", 0, || {
        mc::reference_points(&codec, seed)
    });
    let reference_s = thread_cpu_s() - cpu0;
    let round = mc::run_round(&codec, seed, &mut tr);
    tally += mc::check_round(&round, checks);
    for (i, (p, v)) in points.iter().zip(&round.verdicts).enumerate() {
        checks.require(
            mc::point_matches(p, v),
            format!(
                "ldpc-mc: measure_accuracy disagrees with the per-call loop at {}",
                mc::RBERS[i]
            ),
        );
    }
    let trials = (3 * TRIALS) as f64;
    for (name, span) in [
        ("ldpc.encode_ns", "ldpc.encode"),
        ("channel.corrupt_ns", "channel.corrupt"),
        ("odear.rearrange_ns", "odear.rearrange"),
        ("odear.predict_ns", "odear.predict"),
    ] {
        m.put(name, tr.mean_ns(span), "ns");
    }
    for (i, key) in RBER_KEYS.iter().enumerate() {
        let v = &round.verdicts[i];
        m.put(
            format!("ldpc.decode_ns.{key}"),
            tr.mean_ns(&format!("ldpc.decode.{key}")),
            "ns",
        );
        m.put(
            format!("ldpc.decode_iters_mean.{key}"),
            v.iterations as f64 / TRIALS as f64,
            "count",
        );
        m.put(
            format!("ldpc.decode_fail.{key}"),
            v.decode_fail as f64,
            "count",
        );
    }
    m.put(
        "odear.rp_accuracy",
        mc::rp_accuracy(&round.verdicts),
        "ratio",
    );
    m.put(
        "odear.measure_accuracy_ns",
        reference_s * 1e9 / trials,
        "ns",
    );
    m.put(
        "trace.overhead_frac.mc",
        round.cpu_s / reference_s - 1.0,
        "ratio",
    );

    // --- rif-server ---------------------------------------------------
    tally += serve::run_traced(seed, seconds / 5.0, m, checks, &mut tr)?;

    m.put("trace.spans", tr.spans().len() as f64, "count");
    m.put(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    tr.write_tsv(std::path::Path::new(SPANS_OUT))?;
    eprintln!(
        "stackbench: wrote {} spans to {SPANS_OUT}",
        tr.spans().len()
    );
    Ok(tally)
}
