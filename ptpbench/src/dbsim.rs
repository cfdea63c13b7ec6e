//! `db-sim`: the sharded store in the deterministic simulator, fed the live
//! workload's traffic mix and cut by a transient simple partition.
//!
//! Each block generates one second of the `live-*` mix with
//! `ptp_live::driver::generate` (its own seed derived from the run seed),
//! maps wall time to virtual time (T = 1000 ticks = 20 ms), and runs it
//! through a `ShardCluster` (3 shards x 2 replicas over 6 sites, HL-3PC)
//! with leases and anti-entropy on. Delays are uniform over [T/10, T], as
//! the live router samples them. During the second quarter of the block
//! one shard's replica is cut from every other site — from its master in
//! particular — so transactions on that shard terminate through the
//! termination protocol; the partition heals and anti-entropy must bring
//! the replica back.
//!
//! Under live's 20 ms injected delays the store's CPU cost is invisible;
//! here it is all there is. The unit of work is one simulated transaction
//! (a write or a read).

use crate::host::{mix, quantile, shuffled, timed_setup, Interleaver};
use crate::spans::Spans;
use crate::{Args, Report};
use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::Key;
use ptp_core::model::Decision;
use ptp_core::simnet::{DelayModel, PartitionEngine, PartitionSpec, SimTime, SiteId};
use ptp_live::driver::{generate, OpKind};
use ptp_live::{KeySkew, LiveOptions};
use ptp_shard::{
    check_read_history, PlanTable, ShardCluster, ShardReadSpec, ShardRun, ShardTopology,
    ShardTxnSpec,
};
use std::time::{Duration, Instant};

/// Ticks per `T`; with T = 20 ms one millisecond is 50 ticks.
const T_TICKS: u64 = 1000;
const TICKS_PER_MS: u64 = 50;
/// Wall time of the live mix one block simulates.
const BLOCK: Duration = Duration::from_millis(1000);
/// Distinct blocks; every pass runs each once, in a seeded order. A pass
/// takes about a second on the calibration host.
const BLOCKS_PER_PASS: u64 = 45;

/// The live workload's mix (see `live.rs`): 300 ops/s, 20% reads, 10%
/// cross-shard writes, 10% of operations on each shard's hot key.
pub fn live_mix(duration: Duration, seed: u64) -> LiveOptions {
    let mut opts = LiveOptions::small(300.0, duration);
    opts.skew = KeySkew::HotKey { hot_fraction: 0.1 };
    opts.seed = seed;
    opts
}

/// The shard map and key pools `opts` describes, as `run_server` builds
/// them.
pub fn topology(opts: &LiveOptions) -> (ShardTopology, Vec<Vec<Key>>) {
    let topo = ShardTopology::uniform(opts.sites, opts.shards, opts.replication);
    let pools = topo.key_pool(opts.keys_per_shard);
    (topo, pools)
}

/// Microseconds of wall time to simulator ticks.
pub fn ticks(at: Duration) -> u64 {
    at.as_micros() as u64 * TICKS_PER_MS / 1000
}

/// Where a replay of `duration` of the live mix stops: 200 T after the
/// last arrival, ample for every write to terminate.
pub fn horizon(duration: Duration) -> SimTime {
    SimTime(ticks(duration) + 200 * T_TICKS)
}

/// One block's inputs: the cluster ready to run, and what to audit.
pub struct Block {
    /// The cluster with its workload, partition, delays and read path.
    pub cluster: ShardCluster,
    /// The write transactions submitted.
    pub specs: Vec<ShardTxnSpec>,
    /// Reads submitted.
    pub reads: usize,
}

/// Builds the ShardCluster that replays `opts`' live schedule, with
/// `delay_seed` driving the uniform [T/10, T] delays. No partition, lease
/// or anti-entropy; callers add those.
pub fn replay(
    opts: &LiveOptions,
    topo: &ShardTopology,
    pools: &[Vec<Key>],
    delay_seed: u64,
) -> Block {
    let schedule = generate(opts, topo, pools);
    let mut cluster = ShardCluster::new(topo.clone(), CommitProtocol::HuangLi)
        .delay(DelayModel::Uniform { seed: delay_seed, min: T_TICKS / 10, max: T_TICKS });
    cluster.config.max_time = horizon(opts.duration);
    let mut specs = schedule.specs.into_iter();
    let mut reads = 0;
    for op in &schedule.ops {
        let at = ticks(op.at);
        match &op.kind {
            OpKind::Write => {
                let spec = specs.next().expect("one spec per write op");
                debug_assert_eq!(spec.id, op.txn);
                cluster = cluster.submit(at, spec);
            }
            OpKind::Read(key) => {
                reads += 1;
                cluster =
                    cluster.submit_read(at, ShardReadSpec { id: op.txn, keys: vec![key.clone()] });
            }
        }
    }
    let specs = cluster.workload.iter().map(|(_, s)| s.clone()).collect();
    Block { cluster, specs, reads }
}

fn build_block(seed: u64, index: u64, topo: &ShardTopology, pools: &[Vec<Key>]) -> Block {
    let block_seed = mix(seed, index);
    let Block { cluster, specs, reads } =
        replay(&live_mix(BLOCK, block_seed), topo, pools, mix(block_seed, 1));
    let shard = (index % topo.shards() as u64) as usize;
    let replica = topo.group(shard)[1];
    let rest: Vec<SiteId> =
        (0..topo.sites() as u16).map(SiteId).filter(|s| *s != replica).collect();
    let end = ticks(BLOCK);
    let cluster = cluster
        .partition(PartitionEngine::new(vec![PartitionSpec::transient(
            SimTime(end / 4),
            rest,
            vec![replica],
            SimTime(end / 2),
        )]))
        .leases(400, 2_000)
        .anti_entropy(750);
    Block { cluster, specs, reads }
}

fn audit(
    specs: &[ShardTxnSpec],
    reads: usize,
    run: &ShardRun,
    topo: &ShardTopology,
    pools: &[Vec<Key>],
) -> u64 {
    let mut failed = 0;
    let atomicity = run.metrics.atomicity_violations();
    for txn in &atomicity {
        eprintln!("db-sim: {txn:?} decided both ways");
    }
    failed += atomicity.len() as u64;
    let plans = PlanTable::compile(topo.clone(), specs);
    for spec in specs {
        let master = plans.get(spec.id).expect("compiled").master();
        if !run.metrics.decisions.get(&spec.id).is_some_and(|d| d.contains_key(&master.0)) {
            eprintln!("db-sim: {:?} undecided at its master {master}", spec.id);
            failed += 1;
        }
    }
    let answered = run.reads.served() + run.reads.aborted;
    if run.reads.submitted != reads || answered != reads {
        eprintln!("db-sim: reads {:?} of {reads} submitted", run.reads);
        failed += reads.abs_diff(answered) as u64;
    }
    let violations = check_read_history(topo, &[], specs, &run.metrics);
    for v in &violations {
        eprintln!("db-sim: read history violation {v:?}");
    }
    failed += violations.len() as u64;
    for (shard, pool) in pools.iter().enumerate() {
        let group = topo.group(shard);
        for key in pool {
            let values: Vec<_> = group
                .iter()
                .map(|s| run.storages[s.index()].get(key).and_then(|v| v.as_u64()))
                .collect();
            if values.iter().any(|v| *v != values[0]) {
                eprintln!("db-sim: shard {shard} replicas diverge on {key:?}: {values:?}");
                failed += 1;
            }
        }
    }
    failed
}

/// Per-layer tallies of simulated blocks: ptp-shard, ptp-ddb and the
/// simulator underneath.
pub struct SimTally {
    txns: u64,
    writes: u64,
    build: Duration,
    run: Duration,
    events: u64,
    served_reads: u64,
    fast_reads: u64,
    min_availability: f64,
    wal_records: u64,
    committed: u64,
    aborted: u64,
    hold_t: Vec<f64>,
    /// Submission to decision at the master of every decided write, in ms.
    pub decided_ms: Vec<f64>,
}

impl SimTally {
    /// An empty tally.
    pub fn new() -> SimTally {
        SimTally {
            txns: 0,
            writes: 0,
            build: Duration::ZERO,
            run: Duration::ZERO,
            events: 0,
            served_reads: 0,
            fast_reads: 0,
            min_availability: 1.0,
            wal_records: 0,
            committed: 0,
            aborted: 0,
            hold_t: Vec::new(),
            decided_ms: Vec::new(),
        }
    }

    /// Adds one block that took `build` to set up and `run_time` to run,
    /// with its simulation ending at `horizon`.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        topo: &ShardTopology,
        specs: &[ShardTxnSpec],
        reads: usize,
        run: &ShardRun,
        build: Duration,
        run_time: Duration,
        horizon: SimTime,
    ) {
        self.txns += (specs.len() + reads) as u64;
        self.writes += specs.len() as u64;
        self.build += build;
        self.run += run_time;
        self.events += run.report.events;
        self.served_reads += run.reads.served() as u64;
        self.fast_reads += (run.reads.lease + run.reads.lock_local) as u64;
        let min = run.shards.iter().map(|s| s.availability()).fold(f64::INFINITY, f64::min);
        self.min_availability = self.min_availability.min(min);
        self.wal_records += run.wals.iter().map(|w| w.durable().len() as u64).sum::<u64>();
        let plans = PlanTable::compile(topo.clone(), specs);
        for spec in specs {
            let master = plans.get(spec.id).expect("compiled").master();
            let decided = run.metrics.decisions.get(&spec.id).and_then(|d| d.get(&master.0));
            match decided {
                Some((Decision::Commit, _)) => self.committed += 1,
                Some((Decision::Abort, _)) => self.aborted += 1,
                None => continue,
            }
            if let (Some((_, at)), Some(sub)) = (decided, run.metrics.submitted.get(&spec.id)) {
                self.decided_ms
                    .push(at.ticks().saturating_sub(sub.ticks()) as f64 / TICKS_PER_MS as f64);
            }
        }
        self.hold_t.extend(
            run.metrics.hold_durations(horizon).iter().map(|h| h.2 as f64 / T_TICKS as f64),
        );
    }

    /// Reports the ptp-shard, ptp-ddb and simulator metrics.
    pub fn report(&self, report: &mut Report) {
        let per_txn = |d: Duration| d.as_secs_f64() * 1e6 / self.txns.max(1) as f64;
        report.metric("shard.build_us_per_txn", per_txn(self.build), "us");
        report.metric("shard.run_us_per_txn", per_txn(self.run), "us");
        report.metric(
            "shard.fast_read_frac",
            self.fast_reads as f64 / self.served_reads.max(1) as f64,
            "frac",
        );
        report.metric("shard.min_availability", self.min_availability, "frac");
        report.metric(
            "simnet.events_per_txn",
            self.events as f64 / self.txns.max(1) as f64,
            "count",
        );
        report.metric(
            "ddb.wal_records_per_commit",
            self.wal_records as f64 / self.committed.max(1) as f64,
            "count",
        );
        report.metric("ddb.abort_frac", self.aborted as f64 / self.writes.max(1) as f64, "frac");
        report.metric("ddb.lock_hold_T_p50", quantile(&self.hold_t, 0.5), "T");
    }
}

fn passes(
    args: &Args,
    passes: std::ops::Range<u64>,
    mut tally: Option<&mut SimTally>,
    spans: &mut Spans,
    report: &mut Report,
) -> Interleaver {
    let (topo, pools) = topology(&live_mix(BLOCK, args.seed));
    let mut il = Interleaver::default();
    let order: Vec<u64> = (0..BLOCKS_PER_PASS).collect();
    for index in passes.flat_map(|pass| shuffled(&order, mix(args.seed, pass))) {
        let block_span = spans.open("dbsim.block", 0);
        let started = Instant::now();
        let (Block { cluster, specs, reads }, _) =
            spans.time("shard.build", block_span, || build_block(args.seed, index, &topo, &pools));
        let build = started.elapsed();
        let txns = (specs.len() + reads) as u64;
        let started = Instant::now();
        let (run, _) = il.work_block(index as usize, txns as usize, || {
            spans.time("shard.run", block_span, || cluster.run())
        });
        let run_time = started.elapsed();
        let (failed, _) =
            spans.time("shard.audit", block_span, || audit(&specs, reads, &run, &topo, &pools));
        report.attempted += txns;
        report.failed += failed;
        if failed > 0 {
            eprintln!("db-sim: block {index} (seed {}) failed its audit", args.seed);
            report.correct = false;
        }
        if let Some(t) = tally.as_deref_mut() {
            t.add(&topo, &specs, reads, &run, build, run_time, horizon(BLOCK));
        }
        spans.close(block_span);
    }
    il.finish();
    il
}

/// Runs the `db-sim` workload.
pub fn run(args: &Args, spans: &mut Spans) -> Report {
    let mut report = Report { correct: true, ..Report::default() };
    let (topo, pools) = topology(&live_mix(BLOCK, args.seed));
    let (_, setup_s) = spans
        .time("dbsim.setup", 0, || {
            timed_setup(5, || {
                (0..BLOCKS_PER_PASS)
                    .map(|i| build_block(args.seed, i, &topo, &pools))
                    .collect::<Vec<_>>()
            })
        })
        .0;
    report.setup_s = setup_s;
    let total = args.seconds.max(2);

    if !args.trace {
        let il = passes(args, 0..total, None, spans, &mut report);
        report.ref_rate = il.ref_rate();
        report.metric("throughput_per_s", il.rates().0, "1/s");
        report.metric("latency_p50_ms", il.unit_ms(0.5), "ms");
        report.metric("latency_p95_ms", il.unit_ms(0.95), "ms");
        return report;
    }

    let plain_passes = total / 2;
    let plain = passes(args, 0..plain_passes, None, spans, &mut report);
    let mut tally = SimTally::new();
    let traced = passes(args, plain_passes..total, Some(&mut tally), spans, &mut report);
    tally.report(&mut report);
    report.ref_rate = plain.ref_rate();
    report.metric("host.ref_rate", report.ref_rate, "1/s");
    report.metric("obs.overhead_frac", plain.rates().0 / traced.rates().0 - 1.0, "frac");
    report
}
