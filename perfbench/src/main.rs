//! The partree benchmark: one process starts three replicas and a
//! gateway, drives a deterministic closed loop of one workload through
//! `Gateway::request`, checks every response against an in-process
//! build, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). See README.md.

mod fleet;
mod gen;
mod host;
mod layers;
mod stats;
mod trace;
mod workload;

use fleet::{Counters, Fleet};
use stats::{median, percentile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::SpanLog;
use workload::{Client, Kind, Mismatch, Prepared};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Latency samples the untraced run collects at least, so that 100 lie
/// beyond its p99: a run that has fewer after `--seconds` goes on until
/// it has them, for at most `MAX_STRETCH` times `--seconds`.
const MIN_SAMPLES: u64 = 10_000;
const MAX_STRETCH: f64 = 2.0;
/// Sample slots of the client, allocated and touched before the first
/// set-up so the resident set does not grow with the op count.
const SAMPLE_SLOTS: usize = 1 << 18;
/// Length of one slice of the traced run; slices alternate between
/// untraced and traced, so host drift reaches both sides alike.
const TRACE_SLICE_S: f64 = 1.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One op as the closed loop saw it.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    lat_ns: u64,
    ok: bool,
}

struct Phase {
    samples: Vec<Sample>,
    client: ClientTotals,
    seconds: f64,
    spans: Option<SpanLog>,
}

#[derive(Default)]
struct ClientTotals {
    checks: Vec<workload::Check>,
    delta_ops: u64,
    delta_sent: u64,
    unknown_base: u64,
}

impl ClientTotals {
    fn add(&mut self, other: ClientTotals) {
        self.checks.extend(other.checks);
        self.delta_ops += other.delta_ops;
        self.delta_sent += other.delta_sent;
        self.unknown_base += other.unknown_base;
    }
}

impl Phase {
    fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Successful ops per second of the phase.
    fn throughput(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.seconds
    }

    fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.lat_ns as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The p99 of each of [`P99_CHUNKS`] chunks of equal op count, in
    /// the order the ops ran.
    fn chunk_p99s_ms(&self) -> Vec<f64> {
        let per = self.samples.len() / P99_CHUNKS;
        self.samples
            .chunks_exact(per.max(1))
            .take(P99_CHUNKS)
            .map(|chunk| {
                let mut v: Vec<f64> = chunk.iter().map(|s| s.lat_ns as f64 / 1e6).collect();
                v.sort_by(f64::total_cmp);
                percentile(&v, 0.99)
            })
            .collect()
    }
}

const P99_CHUNKS: usize = 5;

/// The client's sample buffer, reused across phases.
fn sample_buffer() -> Vec<Sample> {
    // Written element by element: a zeroed `vec!` may come from
    // untouched pages that only count once used.
    let mut v = Vec::with_capacity(SAMPLE_SLOTS);
    v.resize(
        SAMPLE_SLOTS,
        Sample {
            ok: true,
            ..Sample::default()
        },
    );
    v.clear();
    v
}

/// Runs the closed loop for `seconds` (longer, up to the stretch
/// limit, until `min_samples` ops are done): the client sends its next
/// op as soon as the previous one has been answered. Samples go into
/// `buf`, at most [`SAMPLE_SLOTS`] of them.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    args: &Args,
    prep: &Prepared,
    fleet: &Fleet,
    mut buf: Vec<Sample>,
    first_op: u64,
    seconds: f64,
    traced: bool,
    min_samples: u64,
) -> Result<Phase, Mismatch> {
    buf.clear();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let hard_deadline = start + Duration::from_secs_f64(seconds * MAX_STRETCH);
    let mut client = Client::new(
        args.kind,
        args.seed,
        prep.warm.as_ref(),
        workload::measured_stream(args.kind),
    );
    client.next_op = first_op;
    if traced {
        client.spans = Some(SpanLog::new(start));
    }
    while buf.len() < SAMPLE_SLOTS {
        let planned = client.plan();
        let t0 = Instant::now();
        if t0 >= hard_deadline || (t0 >= deadline && buf.len() as u64 >= min_samples) {
            break;
        }
        let ok = client.exec(&fleet.gateway, planned)?;
        let t1 = Instant::now();
        buf.push(Sample {
            lat_ns: (t1 - t0).as_nanos() as u64,
            ok,
        });
    }
    let seconds = start.elapsed().as_secs_f64();
    Ok(Phase {
        samples: buf,
        client: ClientTotals {
            checks: std::mem::take(&mut client.checks),
            delta_ops: client.delta_ops,
            delta_sent: client.delta_sent,
            unknown_base: client.unknown_base,
        },
        seconds,
        spans: client.spans.take(),
    })
}

/// Starts a fleet and runs the workload's warm-up on it. Returns the
/// fleet and the set-up time; the warm-up's responses are checked after
/// the set-up is timed.
fn set_up(args: &Args, prep: &mut Prepared) -> Result<(Fleet, f64), Failure> {
    let t = Instant::now();
    let fleet = Fleet::start().map_err(|e| Failure::Setup(format!("fleet start: {e}")))?;
    let warmed = workload::warm_up(args.kind, args.seed, prep, &fleet.gateway);
    let seconds = t.elapsed().as_secs_f64();
    let checked = warmed.and_then(|checks| workload::verify(args.seed, &checks, host::nproc()));
    if let Err(Mismatch(m)) = checked {
        fleet.shutdown();
        return Err(Failure::Mismatch(format!("warm-up: {m}")));
    }
    Ok((fleet, seconds))
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| json_metric(n, *v, u))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Per-kop rate of a counter over `ops` ops.
fn per_kop(count: u64, ops: u64) -> f64 {
    count as f64 * 1000.0 / ops.max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counter-derived per-layer metrics of a phase: `after − before`.
fn counter_metrics(before: &Counters, after: &Counters, ops: u64) -> Vec<Metric> {
    let d = |f: fn(&partree_service::MetricsSnapshot) -> u64| after.sum(f) - before.sum(f);
    let g = |f: fn(&partree_service::MetricsSnapshot) -> u64| after.global(f) - before.global(f);
    let hits = d(|m| m.cache_hits);
    let misses = d(|m| m.cache_misses);
    let delta = d(|m| m.delta_requests);
    vec![
        (
            "service.constructions_per_kop".into(),
            per_kop(d(|m| m.constructions), ops),
            "1/kop",
        ),
        (
            "service.cache_hit_ratio".into(),
            ratio(hits, hits + misses),
            "ratio",
        ),
        (
            "service.batch_mean".into(),
            ratio(d(|m| m.batched_requests), d(|m| m.batches)),
            "count",
        ),
        (
            "service.shed_per_kop".into(),
            per_kop(d(|m| m.busy), ops),
            "1/kop",
        ),
        (
            "gateway.hedges_per_kop".into(),
            per_kop(
                after.gateway.hedges_issued - before.gateway.hedges_issued,
                ops,
            ),
            "1/kop",
        ),
        (
            "gateway.retries_per_kop".into(),
            per_kop(after.gateway.retries - before.gateway.retries, ops),
            "1/kop",
        ),
        (
            "delta.patched_ratio".into(),
            ratio(d(|m| m.delta_patched), delta),
            "ratio",
        ),
        (
            "delta.fallback_ratio".into(),
            ratio(d(|m| m.delta_fallbacks), delta),
            "ratio",
        ),
        (
            "delta.unknown_base_ratio".into(),
            ratio(d(|m| m.delta_unknown_base), delta),
            "ratio",
        ),
        (
            "exec.steals_per_kop".into(),
            per_kop(g(|m| m.exec_steals), ops),
            "1/kop",
        ),
        (
            "exec.parks_per_kop".into(),
            per_kop(g(|m| m.exec_parks), ops),
            "1/kop",
        ),
        (
            "pram.work_per_op".into(),
            ratio(d(|m| m.work), ops),
            "count/op",
        ),
        (
            "pram.depth_per_op".into(),
            ratio(d(|m| m.depth), ops),
            "count/op",
        ),
    ]
}

/// What a phase did, as the workload's design counts it.
#[derive(Debug, Clone, Copy)]
struct DesignCounts {
    ops: u64,
    /// Codebooks the replicas built.
    constructions: u64,
    hedges: u64,
    /// Drift steps run, delta requests the client sent (re-tries
    /// included), steps re-seeded after `UnknownBase`, and delta
    /// requests the replicas served.
    steps: u64,
    sent: u64,
    reseeded: u64,
    served: u64,
}

impl DesignCounts {
    fn of(before: &Counters, after: &Counters, ops: u64, client: &ClientTotals) -> DesignCounts {
        DesignCounts {
            ops,
            constructions: after.sum(|m| m.constructions) - before.sum(|m| m.constructions),
            hedges: after.gateway.hedges_issued - before.gateway.hedges_issued,
            steps: client.delta_ops,
            sent: client.delta_sent,
            reseeded: client.unknown_base,
            served: after.sum(|m| m.delta_requests) - before.sum(|m| m.delta_requests),
        }
    }
}

/// Holds the counts to the workload's design: warm ops construct only
/// for hedges, every cold op constructs, and every delta request the
/// client sent reached a replica (hedged copies on top). `Err` names
/// the count that breaks it.
fn design_check(kind: Kind, c: &DesignCounts) -> Result<String, String> {
    let (holds, detail) = match kind {
        Kind::WarmCodec => (
            c.constructions <= c.hedges,
            format!("constructions {} <= hedges {}", c.constructions, c.hedges),
        ),
        Kind::ColdConstruct => (
            c.constructions >= c.ops,
            format!("constructions {} >= ops {}", c.constructions, c.ops),
        ),
        Kind::DriftStream => (
            c.sent >= c.steps && c.served >= c.sent && c.served <= c.sent + c.hedges,
            format!(
                "{} drift steps sent {} delta requests ({} steps re-seeded after UnknownBase and \
                 retried); replicas served {}, hedges {}",
                c.steps, c.sent, c.reseeded, c.served, c.hedges
            ),
        ),
    };
    let line = format!("design_check {}: {detail}", kind.name());
    if holds {
        Ok(line)
    } else {
        Err(line)
    }
}

type Metric = (String, f64, &'static str);

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

enum Failure {
    /// A response differed from the in-process reference.
    Mismatch(String),
    /// The counts of the traced run break the workload's design.
    Design(String),
    /// The fleet could not start; nothing was measured.
    Setup(String),
}

fn run(args: &Args) -> Result<Outcome, Failure> {
    let mut prep = Prepared::new(args.kind, args.seed);
    let buf = sample_buffer();
    // What the harness holds before any fleet starts: the sample buffer
    // and the in-process references. `peak_rss_mb` is the peak above it.
    let baseline_mb = host::status_mb("VmRSS:");
    let (fleet, first_setup_s) = set_up(args, &mut prep)?;
    let built = fleet.counters().sum(|m| m.constructions);
    println!(
        "setup {}: the set-up ran {built} constructions",
        args.kind.name()
    );
    if prep.known_failures > 0 {
        println!(
            "known_failures {}: {} warm items fail to build (minimax codewords over 64 bits), in-process and on the fleet alike",
            args.kind.name(),
            prep.known_failures
        );
    }
    let result = if args.trace {
        measure_traced(args, &fleet, &prep)
    } else {
        measure(args, &fleet, &prep, buf, baseline_mb)
    };
    fleet.shutdown();
    let mut outcome = result?;
    if !args.trace {
        // The other set-ups run after the measured phase, each on a
        // fleet of its own, so the peak resident set is that of the one
        // fleet the phase ran on.
        let mut times = vec![first_setup_s];
        for _ in 1..SETUPS {
            let (fleet, seconds) = set_up(args, &mut prep)?;
            fleet.shutdown();
            times.push(seconds);
        }
        outcome
            .metrics
            .push(("setup_s".into(), median(&mut times), "s"));
    }
    Ok(outcome)
}

fn mismatch(Mismatch(m): Mismatch) -> Failure {
    Failure::Mismatch(m)
}

/// The untraced run: the end-to-end metrics but `setup_s`.
fn measure(
    args: &Args,
    fleet: &Fleet,
    prep: &Prepared,
    buf: Vec<Sample>,
    baseline_mb: f64,
) -> Result<Outcome, Failure> {
    let phase =
        run_phase(args, prep, fleet, buf, 0, args.seconds, false, MIN_SAMPLES).map_err(mismatch)?;
    let peak_rss_mb = host::status_mb("VmHWM:") - baseline_mb;
    let checked =
        workload::verify(args.seed, &phase.client.checks, host::nproc()).map_err(mismatch)?;
    let lat = phase.latencies_ms();
    // A p99 that falls from chunk to chunk would mean the warm-up left
    // the fleet unsettled; printed so a reader can see it did not.
    println!("p99 per fifth of the run (ms): {:?}", phase.chunk_p99s_ms());
    println!(
        "ops {}: attempted {} succeeded {} failed {}; {} latency samples, {} beyond p99; \
         {checked} responses checked after the run (warm ops as they arrive), 0 byte mismatches",
        args.kind.name(),
        phase.attempted(),
        phase.attempted() - phase.failed(),
        phase.failed(),
        lat.len(),
        stats::beyond(lat.len(), 0.99),
    );
    Ok(Outcome {
        attempted: phase.attempted(),
        failed: phase.failed(),
        metrics: vec![
            ("throughput_rps".into(), phase.throughput(), "1/s"),
            ("latency_p50_ms".into(), percentile(&lat, 0.5), "ms"),
            ("latency_p99_ms".into(), percentile(&lat, 0.99), "ms"),
            ("peak_rss_mb".into(), peak_rss_mb, "MB"),
        ],
    })
}

/// The traced run: the closed loop in slices of [`TRACE_SLICE_S`] that
/// alternate between untraced and traced, with the fleet's counters
/// read around all of them; then the per-layer replays.
fn measure_traced(args: &Args, fleet: &Fleet, prep: &Prepared) -> Result<Outcome, Failure> {
    let slices = ((args.seconds / TRACE_SLICE_S).round() as usize).max(2);
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut attempted, mut failed, mut spans, mut traced_ops) = (0, 0, 0, 0);
    let mut totals = ClientTotals::default();
    let mut next_op = 0;
    let before = fleet.settled_counters();
    for k in 0..slices {
        let traced = k % 2 == 1;
        let phase = run_phase(
            args,
            prep,
            fleet,
            Vec::new(),
            next_op,
            TRACE_SLICE_S,
            traced,
            0,
        )
        .map_err(mismatch)?;
        // Each slice starts a fresh drift chain: a chain's decode steps
        // need its encode steps in the same slice.
        next_op = (next_op + phase.attempted()).next_multiple_of(workload::OPS_PER_CHAIN);
        rates[usize::from(traced)].push(phase.throughput());
        attempted += phase.attempted();
        failed += phase.failed();
        if let Some(log) = &phase.spans {
            spans += log.spans.len();
            traced_ops += log
                .spans
                .iter()
                .map(|s| s.op)
                .collect::<std::collections::BTreeSet<_>>()
                .len();
        }
        totals.add(phase.client);
    }
    let after = fleet.settled_counters();
    let checked = workload::verify(args.seed, &totals.checks, host::nproc()).map_err(mismatch)?;
    let counts = DesignCounts::of(&before, &after, attempted, &totals);
    println!(
        "{}",
        design_check(args.kind, &counts).map_err(Failure::Design)?
    );
    println!(
        "trace {}: {slices} alternating slices; {spans} spans over {traced_ops} ops; \
         {checked} responses checked, 0 byte mismatches",
        args.kind.name(),
    );
    let mut metrics = layers::measure(args.kind, args.seed, prep, fleet);
    metrics.extend(counter_metrics(&before, &after, attempted));
    let [plain, traced] = rates.map(|mut r| median(&mut r));
    metrics.push((
        "trace.overhead_pct".into(),
        (plain - traced) / plain * 100.0,
        "%",
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <warm_codec|cold_construct|drift_stream> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let calib_before = (host::calibrate_ms(), host::handoff_us());
    let (cpu_before, steal_before) = (host::cpu_seconds(), host::steal_seconds());
    let outcome = run(&args);
    let cpu_s = host::cpu_seconds() - cpu_before;
    let steal_s = host::steal_seconds() - steal_before;
    let calib_after = (host::calibrate_ms(), host::handoff_us());
    println!(
        "host {{\"nproc\": {}, \"cpu\": \"{}\", \"calibration_ms_before\": {:.3}, \"calibration_ms_after\": {:.3}, \
         \"handoff_us_before\": {:.3}, \"handoff_us_after\": {:.3}, \"process_cpu_s\": {cpu_s:.2}, \
         \"host_steal_s\": {steal_s:.2}}}",
        host::nproc(),
        host::cpu_model().replace('"', "'"),
        calib_before.0,
        calib_after.0,
        calib_before.1,
        calib_after.1,
    );
    match outcome {
        Ok(o) if o.metrics.iter().any(|(_, v, _)| !v.is_finite()) => {
            let empty: Vec<&str> = o
                .metrics
                .iter()
                .filter(|m| !m.1.is_finite())
                .map(|m| m.0.as_str())
                .collect();
            eprintln!("perfbench: no samples for {empty:?}");
            ExitCode::FAILURE
        }
        Ok(o) => {
            println!("{}", result_line(true, o.attempted, o.failed, &o.metrics));
            ExitCode::SUCCESS
        }
        Err(Failure::Mismatch(m)) => {
            eprintln!("perfbench: byte mismatch, run aborted: {m}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
        Err(Failure::Design(m)) => {
            eprintln!("perfbench: the counts break the workload's design: {m}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
        Err(Failure::Setup(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> DesignCounts {
        DesignCounts {
            ops: 1000,
            constructions: 3,
            hedges: 5,
            steps: 800,
            sent: 850,
            reseeded: 50,
            served: 852,
        }
    }

    #[test]
    fn design_check_holds_on_counts_that_fit_the_design() {
        assert!(design_check(Kind::WarmCodec, &counts()).is_ok());
        let cold = DesignCounts {
            constructions: 1004,
            ..counts()
        };
        assert!(design_check(Kind::ColdConstruct, &cold).is_ok());
        assert!(design_check(Kind::DriftStream, &counts()).is_ok());
    }

    #[test]
    fn design_check_fails_on_counts_that_break_the_design() {
        // Warm ops that construct without a hedge.
        let warm = DesignCounts {
            constructions: 6,
            ..counts()
        };
        assert!(design_check(Kind::WarmCodec, &warm).is_err());
        // A cold op answered without a construction.
        let cold = DesignCounts {
            constructions: 999,
            ..counts()
        };
        assert!(design_check(Kind::ColdConstruct, &cold).is_err());
        // A delta request lost on the way, one served twice beyond the
        // hedges, and a step that sent nothing.
        for drift in [
            DesignCounts {
                served: 849,
                ..counts()
            },
            DesignCounts {
                served: 856,
                ..counts()
            },
            DesignCounts {
                sent: 799,
                served: 799,
                ..counts()
            },
        ] {
            assert!(design_check(Kind::DriftStream, &drift).is_err());
        }
    }
}
