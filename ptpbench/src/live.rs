//! `live-forced` and `live-batched`: the threaded shard server under an
//! open-loop client.
//!
//! Both use `bench_live`'s configuration: 300 ops/s from one driver thread
//! for `--seconds`, 20% reads, 10% cross-shard writes, hot-key skew 0.1,
//! 64 keys per shard, T = 20 ms, a 1 ms busy flush per WAL flush and no
//! faults. `live-forced` force-writes every record and sends every message
//! on its own; `live-batched` turns on group commit and message coalescing
//! with a 10 ms window. Latency is measured from each operation's scheduled
//! arrival, so a stall is charged to every operation queued behind it.
//! The unit of work is one write: `throughput_per_s` is goodput (committed
//! writes per second) and the latencies are write latencies.
//!
//! The untraced run keeps each node's flight-recorder ring, so a failed
//! audit leaves a dump (written to `.bench_out/`) together with its seed.

use crate::dbsim::{horizon, live_mix, replay, topology, Block, SimTally};
use crate::host::{quantile, timed_setup, Interleaver};
use crate::spans::Spans;
use crate::{Args, Report, OUT_DIR};
use ptp_live::{run_server, BatchConfig, LiveOptions, LiveReport, LogHistogram, ObsConfig};
use ptp_obs::{STAGE_COMMIT_WAIT, STAGE_LOCK_WAIT, STAGE_PROTOCOL, STAGE_QUEUE, STAGE_ROUNDS};
use ptp_shard::PlanTable;
use std::time::{Duration, Instant};

const FLUSH_COST: Duration = Duration::from_millis(1);
const BATCH_WINDOW: Duration = Duration::from_millis(10);

fn options(args: &Args, batched: bool, obs: ObsConfig) -> LiveOptions {
    let mut opts = live_mix(Duration::from_secs(args.seconds), args.seed);
    opts.flush_cost = FLUSH_COST;
    opts.drain_timeout = Duration::from_secs(20);
    if batched {
        opts.batch = BatchConfig::on(BATCH_WINDOW);
    }
    opts.obs = obs;
    opts
}

/// The untraced run's instruments: only the flight-recorder ring.
fn flight_only() -> ObsConfig {
    ObsConfig { flight_capacity: 512, ..ObsConfig::off() }
}

/// Quantile `q` of a log-bucketed microsecond histogram, in ms,
/// interpolated linearly inside the bucket that holds it. Above 32 us a
/// bucket spans 1/16 of an octave, so the bucket edge alone would make a
/// latency read the same across many runs.
fn quantile_ms(h: &LogHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return f64::NAN;
    }
    let at_rank = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let target = (q * n as f64).clamp(1.0, n as f64);
    let v = at_rank(target.ceil() as u64);
    if v < 32 {
        return v as f64 / 1000.0;
    }
    // The bucket's rank range [first, last]: at_rank is monotone.
    let (mut lo, mut hi) = (1u64, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at_rank(mid) >= v {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (first, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at_rank(mid) <= v {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    let step = 1u64 << (63 - v.leading_zeros() - 4);
    let within = (target - (first - 1) as f64) / (last - first + 1) as f64;
    ((v - step) as f64 + within * step as f64) / 1000.0
}

fn hist<'a>(r: &'a LiveReport, name: &str) -> &'a LogHistogram {
    r.metrics.hist(name).expect("run_server always records both latency histograms")
}

/// Counts failures and writes the flight dump of a failed run.
fn account(args: &Args, r: &LiveReport, report: &mut Report) {
    let attempted = (r.issued_writes + r.issued_reads) as u64;
    let acked = (r.completed_writes + r.completed_reads) as u64;
    report.attempted += attempted;
    report.failed += attempted.saturating_sub(acked) + r.audit.violations.len() as u64;
    if r.audit.ok && r.clean_drain {
        return;
    }
    report.correct = false;
    eprintln!(
        "{}: seed {} failed (audit ok {}, clean drain {}): {:?}",
        args.workload, args.seed, r.audit.ok, r.clean_drain, r.audit.violations
    );
    if let Some(dump) = &r.flight_dump {
        let path = format!("{OUT_DIR}/flight-{}-seed{}.txt", args.workload, args.seed);
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, dump));
        match written {
            Ok(()) => eprintln!("flight dump written to {path}"),
            Err(e) => eprintln!("writing {path}: {e}"),
        }
    }
}

/// Replays `opts`' schedule through the simulator with the router's delay
/// distribution: what the protocol costs with zero system overhead. The
/// tally's decision latencies give the floor, and its ptp-shard, ptp-ddb
/// and simulator counts the per-layer metrics of the layers live re-hosts.
fn sim_floor(opts: &LiveOptions) -> SimTally {
    let started = Instant::now();
    let (topo, pools) = topology(opts);
    let Block { cluster, specs, reads } = replay(opts, &topo, &pools, opts.seed);
    let build = started.elapsed();
    let started = Instant::now();
    let run = cluster.run();
    let run_time = started.elapsed();
    let mut tally = SimTally::new();
    tally.add(&topo, &specs, reads, &run, build, run_time, horizon(opts.duration));
    tally
}

/// Runs `live-forced` (`batched = false`) or `live-batched`.
pub fn run(args: &Args, batched: bool, spans: &mut Spans) -> Report {
    let mut report = Report { correct: true, ..Report::default() };
    let opts = options(args, batched, flight_only());
    let (_, setup_s) = spans
        .time("live.setup", 0, || {
            timed_setup(5, || {
                let (topo, pools) = topology(&opts);
                let schedule = ptp_live::driver::generate(&opts, &topo, &pools);
                PlanTable::compile(topo, &schedule.specs)
            })
        })
        .0;
    report.setup_s = setup_s;
    // The host record: the reference kernel's rate on this run.
    let mut il = Interleaver::default();
    for _ in 0..20 {
        il.ref_block();
    }
    report.ref_rate = il.ref_rate();

    let (plain, _) = spans.time("live.run_server", 0, || run_server(&opts));
    account(args, &plain, &mut report);
    let write_p50 = quantile_ms(hist(&plain, "write_latency_us"), 0.5);
    if !args.trace {
        report.metric("throughput_per_s", plain.achieved_rate, "1/s");
        report.metric("latency_p50_ms", write_p50, "ms");
        report.metric("latency_p95_ms", quantile_ms(hist(&plain, "write_latency_us"), 0.95), "ms");
        return report;
    }

    let traced_opts = options(args, batched, ObsConfig::recording());
    let (traced, _) = spans.time("live.run_server.recording", 0, || run_server(&traced_opts));
    account(args, &traced, &mut report);
    let (floor, _) = spans.time("shard.sim_floor", 0, || sim_floor(&opts));
    floor.report(&mut report);
    let floor_p50 = quantile(&floor.decided_ms, 0.5);

    for (stage, name) in [
        (STAGE_QUEUE, "live.queue_ms_p50"),
        (STAGE_LOCK_WAIT, "live.lock_wait_ms_p50"),
        (STAGE_PROTOCOL, "live.protocol_ms_p50"),
        (STAGE_COMMIT_WAIT, "live.commit_wait_ms_p50"),
    ] {
        let mut h = LogHistogram::new();
        for ((path, _, s), cell) in traced.stages.rows() {
            if *s == stage && path.starts_with("write") {
                h.merge(&cell.hist);
            }
        }
        report.metric(name, quantile_ms(&h, 0.5), "ms");
    }
    let writes = traced.completed_writes.max(1) as f64;
    let committed = traced.committed.max(1) as f64;
    let measured = hist(&traced, "write_latency_us").sum() + hist(&traced, "read_latency_us").sum();
    report.metric(
        "live.rounds_per_write",
        traced.stages.stage_total_us(STAGE_ROUNDS) as f64 / writes,
        "count",
    );
    report.metric(
        "live.msgs_per_send",
        traced.protocol_messages as f64 / traced.channel_sends.max(1) as f64,
        "count",
    );
    report.metric("live.sends_per_commit", traced.channel_sends as f64 / committed, "count");
    report.metric("live.abort_frac", traced.aborted as f64 / writes, "frac");
    report.metric(
        "live.stage_coverage",
        traced.stages.attributed_us() as f64 / measured.max(1) as f64,
        "frac",
    );
    report.metric("live.write_p99_ms", quantile_ms(hist(&plain, "write_latency_us"), 0.99), "ms");
    report.metric("live.read_p50_ms", quantile_ms(hist(&plain, "read_latency_us"), 0.5), "ms");
    report.metric("live.sim_floor_p50_ms", floor_p50, "ms");
    report.metric("live.overhead_p50_ms", write_p50 - floor_p50, "ms");
    report.metric("ddb.flushes_per_commit", traced.flushes as f64 / committed, "count");
    report.metric("host.ref_rate", report.ref_rate, "1/s");
    report.metric(
        "obs.overhead_frac",
        quantile_ms(hist(&traced, "write_latency_us"), 0.5) / write_p50 - 1.0,
        "frac",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut h = LogHistogram::new();
        for v in 50_000..60_000u64 {
            h.record(v);
        }
        let p50 = quantile_ms(&h, 0.5);
        assert!((p50 - 55.0).abs() < 1.0, "{p50}");
        let edge = h.quantile(0.5) as f64 / 1000.0;
        assert!(p50 <= edge && p50 > edge - 2.049, "{p50} vs bucket edge {edge}");
    }
}
