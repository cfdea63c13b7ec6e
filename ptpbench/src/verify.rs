//! `verify`: the simulator verifier — serial schedule-family sweeps over
//! all eight protocols at n = 5, plus a seeded safe chaos campaign.
//!
//! One pass sweeps every (protocol, schedule family) sub-grid once, in an
//! order shuffled by the seed, then runs a campaign whose timelines derive
//! from the seed (the same campaign in every pass). A run makes a fixed number of passes, so every count the
//! program makes repeats exactly for a given seed. Verdict totals of each
//! sub-grid must match `golden_verify.txt`; a protocol's expected blocked
//! or inconsistent verdicts are part of the golden record, not failures.
//! The unit of work is one scenario or campaign timeline.
//!
//! The traced run executes the same sub-grids scenario by scenario through
//! one [`Session`] per protocol with `Session::set_profiling` on, so it can
//! time scenario construction and execution apart and read each run's
//! simulator counters and decision instants.

use crate::host::{mix, quantile, shuffled, timed_setup, Interleaver};
use crate::spans::Spans;
use crate::{Args, Report};
use ptp_core::protocols::Verdict;
use ptp_core::simnet::Profile;
use ptp_core::{
    sweep_with_session, Campaign, CampaignConfig, PartitionSchedule, PartitionShape, ProtocolKind,
    Scenario, ScheduleShape, SessionPool, SweepGrid, SweepReport,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Cluster size of every sweep.
const N: usize = 5;
/// Timelines per pass of the campaign.
const CAMPAIGN_TIMELINES: usize = 1500;
/// Passes per measured second (about 0.55 s of sweeping and reference
/// blocks per pass on the calibration host).
const PASSES_PER_SECOND: f64 = 1.8;
/// Ticks per `T` in every grid.
const T_TICKS: f64 = 1000.0;

const GOLDEN: &str = include_str!("../golden_verify.txt");

/// Verdict totals: total, all-commit, all-abort, blocked, inconsistent.
type Totals = [usize; 5];

fn totals(r: &SweepReport) -> Totals {
    [r.total, r.all_commit, r.all_abort, r.blocked_count, r.inconsistent_count]
}

/// The sub-grids: one per (protocol, schedule family).
fn jobs() -> Vec<(ProtocolKind, ScheduleShape)> {
    let mut jobs = Vec::new();
    for kind in ProtocolKind::ALL {
        for shape in ScheduleShape::FAMILIES {
            jobs.push((kind, shape));
        }
    }
    jobs
}

fn grid(shape: ScheduleShape) -> SweepGrid {
    SweepGrid::schedule_families(N).with_shapes(vec![shape])
}

/// Parses `golden_verify.txt`: `kind|family|n|total|commit|abort|blocked|inconsistent`.
fn golden() -> BTreeMap<(String, String), Totals> {
    let mut map = BTreeMap::new();
    for line in GOLDEN.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let f: Vec<&str> = line.split('|').collect();
        assert_eq!(f.len(), 8, "malformed golden line: {line}");
        assert_eq!(f[2], N.to_string(), "golden line for another n: {line}");
        let mut t = [0usize; 5];
        for (slot, field) in t.iter_mut().zip(&f[3..]) {
            *slot = field.parse().expect("golden totals are integers");
        }
        map.insert((f[0].to_string(), f[1].to_string()), t);
    }
    map
}

/// The golden table as this build computes it (`--print-golden`).
pub fn golden_table() -> String {
    let mut pool = SessionPool::new();
    let mut out = String::from("# kind|family|n|total|all_commit|all_abort|blocked|inconsistent\n");
    for (kind, shape) in jobs() {
        let t = totals(&sweep_with_session(pool.session(kind, N), &grid(shape)));
        let _ = writeln!(
            out,
            "{}|{}|{N}|{}|{}|{}|{}|{}",
            kind.name(),
            shape.name(),
            t[0],
            t[1],
            t[2],
            t[3],
            t[4]
        );
    }
    out
}

/// Scenarios whose verdict class differs from the golden record.
fn mismatches(got: &Totals, want: &Totals) -> u64 {
    let (mut over, mut under) = (0usize, 0usize);
    for (g, w) in got[1..].iter().zip(&want[1..]) {
        over += g.saturating_sub(*w);
        under += w.saturating_sub(*g);
    }
    over.max(under).max(got[0].abs_diff(want[0])) as u64
}

struct Setup {
    pool: SessionPool,
    grids: Vec<(ScheduleShape, SweepGrid)>,
    golden: BTreeMap<(String, String), Totals>,
}

fn build_setup() -> Setup {
    let mut pool = SessionPool::new();
    for kind in ProtocolKind::ALL {
        let _ = pool.session(kind, N);
    }
    let grids = ScheduleShape::FAMILIES.iter().map(|&s| (s, grid(s))).collect();
    Setup { pool, grids, golden: golden() }
}

fn grid_of(grids: &[(ScheduleShape, SweepGrid)], shape: ScheduleShape) -> &SweepGrid {
    &grids.iter().find(|(s, _)| *s == shape).expect("every family has a grid").1
}

/// Builds the scenario of grid cell `index` through the public API.
fn scenario_of(grid: &SweepGrid, index: usize) -> Scenario {
    let spec = grid.scenario(index);
    let mut s = Scenario::new(grid.n)
        .votes(grid.votes[spec.vote_index].clone())
        .delay(grid.delays[spec.delay_index].clone());
    s.mode = grid.mode;
    s.partition = match spec.shape {
        ScheduleShape::Simple => {
            PartitionShape::Simple { g2: spec.g2.to_vec(), at: spec.at, heal_at: spec.heal_at() }
        }
        shape => {
            let mut schedule = PartitionSchedule::new();
            shape.write_schedule(grid.n, spec.g2, spec.at, spec.heal, &mut schedule);
            PartitionShape::Schedule(schedule)
        }
    };
    s
}

/// What the traced path adds up across scenarios.
#[derive(Default)]
struct Tally {
    scenarios: u64,
    events: u64,
    sent: u64,
    timeouts: u64,
    returned: u64,
    build: Duration,
    run: Duration,
    commit_t: Vec<f64>,
    profile: Profile,
}

/// Sweeps one sub-grid cell by cell (the traced path).
fn sweep_traced(
    pool: &mut SessionPool,
    kind: ProtocolKind,
    grid: &SweepGrid,
    tally: &mut Tally,
) -> Totals {
    let session = pool.session(kind, N);
    session.set_profiling(true);
    let mut t = [0usize; 5];
    for index in 0..grid.size() {
        let started = Instant::now();
        let scenario = scenario_of(grid, index);
        let built = Instant::now();
        let result = session.run(&scenario);
        tally.run += built.elapsed();
        tally.build += built - started;
        tally.scenarios += 1;
        tally.events += result.report.events;
        tally.sent += result.report.counters.sent;
        tally.timeouts += result.report.counters.timers_fired;
        tally.returned += result.report.counters.returned;
        t[0] += 1;
        match result.verdict {
            Verdict::AllCommit => {
                t[1] += 1;
                let last = result.outcomes.iter().filter_map(|o| o.decided_at).max();
                if let Some(at) = last {
                    tally.commit_t.push(at.ticks() as f64 / T_TICKS);
                }
            }
            Verdict::AllAbort => t[2] += 1,
            Verdict::Blocked { .. } => t[3] += 1,
            Verdict::Inconsistent { .. } => t[4] += 1,
        }
    }
    tally.profile.merge(&session.take_profile());
    session.set_profiling(false);
    t
}

/// Runs `passes` passes; a `tally` selects the cell-by-cell path.
fn passes(
    args: &Args,
    setup: &mut Setup,
    first_pass: u64,
    passes: u64,
    mut tally: Option<&mut Tally>,
    spans: &mut Spans,
    report: &mut Report,
) -> Interleaver {
    let mut il = Interleaver::default();
    let jobs = jobs();
    let campaign_seed = mix(args.seed, 0xca3b);
    for pass in first_pass..first_pass + passes {
        let pass_span = spans.open("verify.pass", 0);
        for key in shuffled(&(0..jobs.len()).collect::<Vec<_>>(), mix(args.seed, pass)) {
            let (kind, shape) = jobs[key];
            let grid = grid_of(&setup.grids, shape);
            let size = grid.size();
            let pool = &mut setup.pool;
            let got = match tally.as_deref_mut() {
                None => {
                    let started = Instant::now();
                    let r = il
                        .work_block(key, size, || sweep_with_session(pool.session(kind, N), grid));
                    spans.aggregate(
                        "core.sweep_with_session",
                        pass_span,
                        started,
                        started.elapsed(),
                        1,
                    );
                    totals(&r)
                }
                Some(t) => {
                    let (build0, run0, started) = (t.build, t.run, Instant::now());
                    let got = il.work_block(key, size, || sweep_traced(pool, kind, grid, t));
                    spans.aggregate(
                        "core.scenario_build",
                        pass_span,
                        started,
                        t.build - build0,
                        size as u64,
                    );
                    spans.aggregate(
                        "core.session_run",
                        pass_span,
                        started,
                        t.run - run0,
                        size as u64,
                    );
                    got
                }
            };
            let want = setup
                .golden
                .get(&(kind.name().to_string(), shape.name().to_string()))
                .copied()
                .unwrap_or_default();
            let bad = mismatches(&got, &want);
            if bad > 0 {
                eprintln!(
                    "verify: {} / {} verdict totals {got:?} differ from golden {want:?}",
                    kind.name(),
                    shape.name()
                );
                report.correct = false;
            }
            report.failed += bad;
            report.attempted += size as u64;
        }
        let config =
            CampaignConfig::safe(ProtocolKind::HuangLi3pc, N, CAMPAIGN_TIMELINES, campaign_seed);
        let started = Instant::now();
        let campaign =
            il.work_block(jobs.len(), CAMPAIGN_TIMELINES, || Campaign::new(config).run());
        spans.aggregate("core.campaign", pass_span, started, started.elapsed(), 1);
        report.attempted += campaign.executed as u64;
        if !campaign.all_green() {
            report.correct = false;
            report.failed += campaign.failures.len() as u64;
            for f in &campaign.failures {
                eprintln!("verify: campaign seed {campaign_seed:#x} failed:\n{}", f.render());
            }
        }
        spans.close(pass_span);
    }
    il.finish();
    il
}

/// Runs the `verify` workload.
pub fn run(args: &Args, spans: &mut Spans) -> Report {
    let mut report = Report { correct: true, ..Report::default() };
    let (mut setup, setup_s) = spans.time("verify.setup", 0, || timed_setup(11, build_setup)).0;
    report.setup_s = setup_s;
    let total = ((args.seconds as f64 * PASSES_PER_SECOND).round() as u64).max(1);

    if !args.trace {
        let il = passes(args, &mut setup, 0, total, None, spans, &mut report);
        report.ref_rate = il.ref_rate();
        report.metric("throughput_per_s", il.rates().0, "1/s");
        report.metric("latency_p50_ms", il.unit_ms(0.5), "ms");
        report.metric("latency_p95_ms", il.unit_ms(0.95), "ms");
        return report;
    }

    // Traced: a plain half first, for the overhead of observing, then the
    // instrumented half.
    let plain_passes = (total / 2).max(1);
    let plain = passes(args, &mut setup, 0, plain_passes, None, spans, &mut report);
    let mut tally = Tally::default();
    let traced_passes = (total - plain_passes).max(1);
    let traced =
        passes(args, &mut setup, plain_passes, traced_passes, Some(&mut tally), spans, &mut report);

    let per = |x: u64| x as f64 / tally.scenarios.max(1) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / tally.scenarios.max(1) as f64;
    let handler_ns = tally.profile.total().nanos as f64;
    report.metric("core.build_us_per_scenario", us(tally.build), "us");
    report.metric("core.run_us_per_scenario", us(tally.run), "us");
    report.metric("simnet.events_per_scenario", per(tally.events), "count");
    report.metric("simnet.msgs_per_scenario", per(tally.sent), "count");
    report.metric(
        "simnet.dispatch_ns_per_event",
        (tally.run.as_nanos() as f64 - handler_ns).max(0.0) / tally.events.max(1) as f64,
        "ns",
    );
    let by_event: BTreeMap<&str, (u64, u64)> =
        tally.profile.by_event().into_iter().map(|(e, p)| (e, (p.count, p.nanos))).collect();
    for event in ["deliver", "timer", "ud", "start"] {
        let (count, nanos) = by_event.get(event).copied().unwrap_or((0, 0));
        report.metric(
            format!("protocols.handler_ns_per_event.{event}"),
            nanos as f64 / count.max(1) as f64,
            "ns",
        );
    }
    report.metric("protocols.timeouts_per_scenario", per(tally.timeouts), "count");
    report.metric("protocols.ud_returns_per_scenario", per(tally.returned), "count");
    report.metric("protocols.commit_T_p50", quantile(&tally.commit_t, 0.5), "T");
    report.metric("protocols.commit_T_p99", quantile(&tally.commit_t, 0.99), "T");
    report.ref_rate = plain.ref_rate();
    report.metric("host.ref_rate", report.ref_rate, "1/s");
    report.metric("host.raw_scenarios_per_s", plain.rates().1, "1/s");
    report.metric("obs.overhead_frac", plain.rates().0 / traced.rates().0 - 1.0, "frac");
    report
}
