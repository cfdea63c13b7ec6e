//! The repository's end-to-end benchmark.
//!
//! ```text
//! ptpbench --workload <verify|db-sim|live-forced|live-batched>
//!          --seed <u64> --seconds <1..=120> --trace <0|1>
//! ptpbench --print-golden      # verdict totals for golden_verify.txt
//! ```
//!
//! Every workload drives the crates only through their public APIs, makes
//! its inputs from `--seed`, checks the program's outputs, and prints one
//! JSON object as its last line: `correct`, `attempted`, `failed` and
//! `metrics` — every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`, whatever the workload. NOTES.md explains the
//! workloads and metrics.

mod dbsim;
mod host;
mod live;
mod spans;
mod verify;

use spans::Spans;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// Where traced runs write their spans and failing runs their flight dumps.
pub const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics and their units, as `BENCHMARK.json` lists them.
/// Every workload measures each one; `throughput_per_s` and the latencies
/// count the workload's own unit of work (see NOTES.md).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("served_ok_frac", "frac"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// The per-layer metrics and their units, as `BENCHMARK.json` lists them.
/// A workload that never calls a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.build_us_per_scenario", "us"),
    ("core.run_us_per_scenario", "us"),
    ("simnet.events_per_scenario", "count"),
    ("simnet.events_per_txn", "count"),
    ("simnet.msgs_per_scenario", "count"),
    ("simnet.dispatch_ns_per_event", "ns"),
    ("protocols.handler_ns_per_event.deliver", "ns"),
    ("protocols.handler_ns_per_event.timer", "ns"),
    ("protocols.handler_ns_per_event.ud", "ns"),
    ("protocols.handler_ns_per_event.start", "ns"),
    ("protocols.timeouts_per_scenario", "count"),
    ("protocols.ud_returns_per_scenario", "count"),
    ("protocols.commit_T_p50", "T"),
    ("protocols.commit_T_p99", "T"),
    ("shard.build_us_per_txn", "us"),
    ("shard.run_us_per_txn", "us"),
    ("shard.fast_read_frac", "frac"),
    ("shard.min_availability", "frac"),
    ("ddb.wal_records_per_commit", "count"),
    ("ddb.flushes_per_commit", "count"),
    ("ddb.abort_frac", "frac"),
    ("ddb.lock_hold_T_p50", "T"),
    ("live.queue_ms_p50", "ms"),
    ("live.lock_wait_ms_p50", "ms"),
    ("live.protocol_ms_p50", "ms"),
    ("live.commit_wait_ms_p50", "ms"),
    ("live.rounds_per_write", "count"),
    ("live.msgs_per_send", "count"),
    ("live.sends_per_commit", "count"),
    ("live.abort_frac", "frac"),
    ("live.stage_coverage", "frac"),
    ("live.write_p99_ms", "ms"),
    ("live.read_p50_ms", "ms"),
    ("live.sim_floor_p50_ms", "ms"),
    ("live.overhead_p50_ms", "ms"),
    ("obs.overhead_frac", "frac"),
    ("host.ref_rate", "1/s"),
    ("host.raw_scenarios_per_s", "1/s"),
];

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations not served, or served wrongly.
    pub failed: u64,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// The reference kernel's rate during the run (units per second).
    pub ref_rate: f64,
    /// Metrics in emission order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// One run's parsed arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: u64,
    /// Per-layer (traced) run.
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err(format!("--seconds must be in 1..=120, not {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["verify", "db-sim", "live-forced", "live-batched"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Puts the workload's metrics in `list`'s order, filling the per-layer
/// metrics of layers it never called with 0. A metric the workload did not
/// measure, measured in another unit, or missing from `list` is an error.
fn in_manifest_order(
    measured: Vec<(String, f64, &'static str)>,
    list: &[(&'static str, &'static str)],
    fill: bool,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    if let Some(m) = measured.iter().find(|m| !list.iter().any(|(name, _)| *name == m.0)) {
        return Err(format!("metric {} is not in the manifest", m.0));
    }
    let mut out = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        match measured.iter().find(|m| m.0 == name) {
            Some(m) if m.2 != unit => return Err(format!("{name} is in {}, not {unit}", m.2)),
            Some(m) => out.push(m.clone()),
            None if fill => out.push((name.to_string(), 0.0, unit)),
            None => return Err(format!("the workload did not measure {name}")),
        }
    }
    Ok(out)
}

fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(metrics, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-golden") {
        print!("{}", verify::golden_table());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ptpbench: {e}");
            eprintln!(
                "usage: ptpbench --workload <verify|db-sim|live-forced|live-batched> \
                 --seed <u64> --seconds <1..=120> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ptp_obs::host_fields()
    );

    let mut spans = Spans::new(args.trace);
    let mut report = match args.workload.as_str() {
        "verify" => verify::run(&args, &mut spans),
        "db-sim" => dbsim::run(&args, &mut spans),
        "live-forced" => live::run(&args, false, &mut spans),
        "live-batched" => live::run(&args, true, &mut spans),
        _ => unreachable!("parse admits only the four workloads"),
    };

    if args.trace {
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, spans.to_json_lines()))
        {
            eprintln!("ptpbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    } else {
        let served = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.metric("setup_s", report.setup_s, "s");
        report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
        report.metric("served_ok_frac", served, "frac");
    }
    let list: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    report.metrics = match in_manifest_order(std::mem::take(&mut report.metrics), list, args.trace)
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ptpbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.attempted == 0 {
        eprintln!("ptpbench: the run attempted nothing");
        return ExitCode::FAILURE;
    }
    if let Some((name, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("ptpbench: metric {name} is {value}");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"host_record\": {{{}, \"ref_rate\": {:?}}}}}",
        ptp_obs::host_fields(),
        report.ref_rate
    );
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv("--workload db-sim --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("db-sim", 7, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv("--workload verify --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload verify --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload verify --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let names = manifest.matches("\"name\": ").count();
        let workloads = manifest.matches("\"why\": ").count();
        assert_eq!(names - workloads, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{name} ({unit}) is not in BENCHMARK.json");
        }
    }

    #[test]
    fn per_layer_metrics_not_measured_read_zero() {
        let list = [("a", "ms"), ("b", "count")];
        let got = in_manifest_order(vec![("b".into(), 2.0, "count")], &list, true).unwrap();
        assert_eq!(got, vec![("a".into(), 0.0, "ms"), ("b".into(), 2.0, "count")]);
        assert!(in_manifest_order(vec![("b".into(), 2.0, "count")], &list, false).is_err());
        assert!(in_manifest_order(vec![("b".into(), 2.0, "ms")], &list, true).is_err());
        assert!(in_manifest_order(vec![("c".into(), 2.0, "ms")], &list, true).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report { correct: true, attempted: 3, failed: 0, ..Report::default() };
        r.metric("a", 1.5, "ms");
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
