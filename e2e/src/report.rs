//! From a run's [`Outcome`] to named metrics, and the formats they are
//! printed in. The names, units and bounds here are the ones `BENCHMARK.json`
//! states; a test keeps the two in step.

use crate::hist::Hist;
use crate::probes::frame_bytes;
use crate::record::Recorder;
use crate::span::Kind;
use crate::workloads::{Opts, Outcome, Workload, SLICES};

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Name, fixed for every later comparison.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the first value by which the second may be worse (in
    /// `selfcheck`: may differ) before it counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "tx_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "tx_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// The 99th percentile of the transaction latency. A user sees it, but this
/// host cannot hold it to any bound the driver accepts: the driver's own two
/// sets of ten runs of the same code spread 27% and 46% on `inproc_hot` and
/// 37% and 35% on `inproc_durable`, against 0.25, the largest bound there
/// is. So `BENCHMARK.json` lists it without a bound, among the per-layer
/// metrics; an untraced run prints it beside the end-to-end metrics and
/// `selfcheck`, whose runs are paired, holds it to this one.
pub const TAIL: EndToEnd = EndToEnd {
    name: "tx_p99_us",
    unit: "us",
    higher_is_better: false,
    bound: 0.25,
};

/// What the fixed-count recovery stage of `inproc_durable` measures. No other
/// workload has them and the driver wants every end-to-end metric from every
/// workload, so they are not in `BENCHMARK.json`; `selfcheck` holds them to
/// these bounds, and a traced run reports them per layer.
pub const DURABLE_ONLY: [EndToEnd; 2] = [
    EndToEnd {
        name: "recover_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "wal_bytes_per_tx",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.005,
    },
];

/// Name and unit of every per-layer metric, in the order they are printed.
/// A metric that does not apply to a workload is reported as 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    (TAIL.name, TAIL.unit),
    ("wire.req_encode_ns", "ns"),
    ("wire.req_decode_ns", "ns"),
    ("wire.resp_encode_ns", "ns"),
    ("wire.resp_decode_ns", "ns"),
    ("wire.take_frame_ns", "ns"),
    ("wire.bytes_per_tx", "bytes"),
    ("client.write_us", "us"),
    ("client.wait_us", "us"),
    ("client.rtt_frame_p50_us", "us"),
    ("client.rtt_frame_p99_us", "us"),
    ("client.rtt_begin_us", "us"),
    ("client.rtt_child_us", "us"),
    ("client.rtt_access_r_us", "us"),
    ("client.rtt_access_w_us", "us"),
    ("client.rtt_commit_child_us", "us"),
    ("client.rtt_commit_top_us", "us"),
    ("server.loopback_floor_us", "us"),
    ("server.residual_us", "us"),
    ("server.unattributed_share", "ratio"),
    ("executor.spawn_to_poll_us", "us"),
    ("executor.wake_to_poll_us", "us"),
    ("executor.peak_in_flight", "count"),
    ("manager.begin_ns", "ns"),
    ("manager.begin_p99_ns", "ns"),
    ("tx.child_ns", "ns"),
    ("tx.child_p99_ns", "ns"),
    ("tx.read_ns", "ns"),
    ("tx.read_p99_ns", "ns"),
    ("tx.write_ns", "ns"),
    ("tx.write_p99_ns", "ns"),
    ("manager.commit_child_ns", "ns"),
    ("manager.commit_child_p99_ns", "ns"),
    ("manager.commit_top_ns", "ns"),
    ("manager.commit_top_p99_ns", "ns"),
    ("manager.abort_ns", "ns"),
    ("manager.abort_p99_ns", "ns"),
    ("gen.overhead_share", "ratio"),
    ("tx.read_async_us", "us"),
    ("tx.write_async_us", "us"),
    ("object.waits_per_tx", "1/tx"),
    ("object.mean_wait_us", "us"),
    ("object.handoffs_per_tx", "1/tx"),
    ("object.mean_wave_size", "count"),
    ("object.spin_grant_share", "ratio"),
    ("object.cancelled_per_ktx", "1/ktx"),
    ("manager.queued_waiters_max", "count"),
    ("deadlock.victims_per_ktx", "1/ktx"),
    ("deadlock.timeouts_per_ktx", "1/ktx"),
    ("deadlock.retries_per_tx", "1/tx"),
    ("mvcc.versions_published_per_tx", "1/tx"),
    ("mvcc.versions_collected_per_tx", "1/tx"),
    ("mvcc.chain_len_max", "count"),
    ("wal.appends_per_tx", "1/tx"),
    ("wal.fsyncs_per_ktx", "1/ktx"),
    ("wal.batch_max", "count"),
    ("wal.commit_top_extra_ns", "ns"),
    ("wal.bytes_per_tx", "bytes"),
    ("recovery.recover_s", "s"),
    ("recovery.replay_tx_per_s", "1/s"),
    ("recovery.checkpoint_ts", "count"),
    ("setup.register_s", "s"),
    ("setup.connect_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Median of `values`; 0.0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One value per slice and the one that is reported.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceStat {
    /// The median of the per-slice values: the reported metric. A stall that
    /// hits fewer than half the slices is left out of it; one that hits most
    /// of them, a periodic hiccup of the system under test, is not.
    pub value: f64,
    /// The per-slice values, in time order.
    pub slices: Vec<f64>,
}

fn slice_stat(slices: Vec<f64>) -> SliceStat {
    SliceStat {
        value: median(&slices),
        slices,
    }
}

/// The timing metrics of a run, each over the slices that `select` keeps.
pub struct Timing {
    /// Committed transactions per second.
    pub tx_per_s: SliceStat,
    /// Median latency, µs.
    pub p50_us: SliceStat,
    /// 99th percentile latency, µs.
    pub p99_us: SliceStat,
    /// Fewest committed transactions in any one slice.
    pub samples_min: u64,
    /// Latency over the whole timed phase, µs: p50, p90, p99, p99.9 and the
    /// largest sample. Not a metric; printed so that a reader sees the tail.
    pub whole_run_us: [f64; 5],
}

/// Pool every client's histogram slice by slice and take each slice's rate
/// and percentiles.
pub fn timing(recs: &[Recorder], slice_s: f64, select: impl Fn(usize) -> bool) -> Timing {
    let (mut rate, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples_min = u64::MAX;
    let mut whole_run = Hist::new();
    for s in (0..SLICES).filter(|&s| select(s)) {
        let mut pooled = Hist::new();
        for r in recs {
            pooled.merge(&r.slices[s]);
        }
        whole_run.merge(&pooled);
        rate.push(pooled.count() as f64 / slice_s);
        p50.push(pooled.quantile(0.5) / 1e3);
        p99.push(pooled.quantile(0.99) / 1e3);
        samples_min = samples_min.min(pooled.count());
    }
    Timing {
        tx_per_s: slice_stat(rate),
        p50_us: slice_stat(p50),
        p99_us: slice_stat(p99),
        samples_min,
        whole_run_us: [0.5, 0.9, 0.99, 0.999, 1.0].map(|q| whole_run.quantile(q) / 1e3),
    }
}

/// Values of [`END_TO_END`], in order.
pub fn end_to_end(out: &Outcome, t: &Timing) -> [f64; 4] {
    [
        t.tx_per_s.value,
        t.p50_us.value,
        out.setup.total_s,
        out.rss_mb,
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Values of [`PER_LAYER`], in order, from a traced run.
pub fn per_layer(out: &Outcome, opts: &Opts) -> Vec<f64> {
    let mut kinds: Vec<Hist> = (0..Kind::COUNT).map(|_| Hist::new()).collect();
    for trace in out.recs.iter().filter_map(|r| r.trace.as_ref()) {
        for (pooled, h) in kinds.iter_mut().zip(&trace.kinds) {
            pooled.merge(h);
        }
    }
    let p50 = |k: Kind| kinds[k as usize].quantile(0.5);
    let p99 = |k: Kind| kinds[k as usize].quantile(0.99);
    let st = &out.stats;
    let tx = st.top_level_commits as f64;
    let pr = &out.probes;
    let wire = matches!(
        opts.workload,
        Workload::WirePingpong | Workload::WirePipelined
    );

    // Round trips: per frame when each frame waits, per burst when pipelined.
    let mut rtt = Hist::new();
    for k in Kind::FRAMES.into_iter().chain([Kind::RttBurst]) {
        rtt.merge(&kinds[k as usize]);
    }
    let rtt_p50_us = rtt.quantile(0.5) / 1e3;
    let frames_per_rtt = if opts.workload == Workload::WirePipelined {
        6.0
    } else {
        1.0
    };
    let codec_us = (pr.codec_ns[..4].iter().sum::<f64>() + 2.0 * pr.codec_ns[4]) / 1e3;
    let reference_us = pr.reference_ns.iter().sum::<f64>() / 6.0 / 1e3;
    let residual_us = if wire {
        rtt_p50_us - pr.loopback_floor_us - frames_per_rtt * (codec_us + reference_us)
    } else {
        0.0
    };

    // Bytes on the wire: the six frames, plus the aborted child's four for
    // the share of transactions that took the abort path.
    let fb = frame_bytes().map(|b| b as f64);
    let bytes_per_tx = if wire {
        fb[..6].iter().sum::<f64>() + ratio(st.aborts as f64, tx) * (fb[1] + fb[2] + fb[3] + fb[6])
    } else {
        0.0
    };

    // Share of the transaction spans that no call accounts for: the root's
    // self time. Totals are used because they add up; medians do not.
    let called: u64 = (Kind::Begin as usize..Kind::COUNT)
        .filter(|&k| k != Kind::ClientWrite as usize && k != Kind::ClientWait as usize)
        .map(|k| kinds[k].sum())
        .sum();
    let tx_total = kinds[Kind::Tx as usize].sum();
    let overhead_share = if tx_total == 0 {
        0.0
    } else {
        1.0 - called as f64 / tx_total as f64
    };

    let traced = timing(&out.recs, opts.slice_s, |s| s % 2 == 0);
    let untraced = timing(&out.recs, opts.slice_s, |s| s % 2 == 1);
    let attempted: u64 = out.recs.iter().map(|r| r.attempted).sum();
    let retries: u64 = out.recs.iter().map(|r| r.retries).sum();
    let durable = out.durable.as_ref();

    let named = [
        // From the slices that were not traced: it is the end-to-end tail.
        (TAIL.name, untraced.p99_us.value),
        ("wire.req_encode_ns", pr.codec_ns[0]),
        ("wire.req_decode_ns", pr.codec_ns[1]),
        ("wire.resp_encode_ns", pr.codec_ns[2]),
        ("wire.resp_decode_ns", pr.codec_ns[3]),
        ("wire.take_frame_ns", pr.codec_ns[4]),
        ("wire.bytes_per_tx", bytes_per_tx),
        ("client.write_us", p50(Kind::ClientWrite) / 1e3),
        ("client.wait_us", p50(Kind::ClientWait) / 1e3),
        ("client.rtt_frame_p50_us", rtt_p50_us),
        ("client.rtt_frame_p99_us", rtt.quantile(0.99) / 1e3),
        ("client.rtt_begin_us", p50(Kind::RttBegin) / 1e3),
        ("client.rtt_child_us", p50(Kind::RttChild) / 1e3),
        ("client.rtt_access_r_us", p50(Kind::RttAccessR) / 1e3),
        ("client.rtt_access_w_us", p50(Kind::RttAccessW) / 1e3),
        (
            "client.rtt_commit_child_us",
            p50(Kind::RttCommitChild) / 1e3,
        ),
        ("client.rtt_commit_top_us", p50(Kind::RttCommitTop) / 1e3),
        ("server.loopback_floor_us", pr.loopback_floor_us),
        ("server.residual_us", residual_us),
        ("server.unattributed_share", ratio(residual_us, rtt_p50_us)),
        ("executor.spawn_to_poll_us", pr.spawn_to_poll_us),
        ("executor.wake_to_poll_us", pr.wake_to_poll_us),
        ("executor.peak_in_flight", out.peak_in_flight as f64),
        ("manager.begin_ns", p50(Kind::Begin)),
        ("manager.begin_p99_ns", p99(Kind::Begin)),
        ("tx.child_ns", p50(Kind::Child)),
        ("tx.child_p99_ns", p99(Kind::Child)),
        ("tx.read_ns", p50(Kind::Read)),
        ("tx.read_p99_ns", p99(Kind::Read)),
        ("tx.write_ns", p50(Kind::Write)),
        ("tx.write_p99_ns", p99(Kind::Write)),
        ("manager.commit_child_ns", p50(Kind::CommitChild)),
        ("manager.commit_child_p99_ns", p99(Kind::CommitChild)),
        ("manager.commit_top_ns", p50(Kind::CommitTop)),
        ("manager.commit_top_p99_ns", p99(Kind::CommitTop)),
        ("manager.abort_ns", p50(Kind::Abort)),
        ("manager.abort_p99_ns", p99(Kind::Abort)),
        ("gen.overhead_share", overhead_share),
        ("tx.read_async_us", p50(Kind::ReadAsync) / 1e3),
        ("tx.write_async_us", p50(Kind::WriteAsync) / 1e3),
        ("object.waits_per_tx", ratio(st.waits as f64, tx)),
        (
            "object.mean_wait_us",
            ratio(st.total_wait.as_secs_f64() * 1e6, st.waits as f64),
        ),
        ("object.handoffs_per_tx", ratio(st.handoffs as f64, tx)),
        (
            "object.mean_wave_size",
            ratio(st.wave_grants as f64, st.handoffs as f64),
        ),
        (
            "object.spin_grant_share",
            ratio(st.spin_grants as f64, st.wave_grants as f64),
        ),
        (
            "object.cancelled_per_ktx",
            ratio(st.cancelled_waiters as f64 * 1e3, tx),
        ),
        ("manager.queued_waiters_max", out.queued_waiters_max as f64),
        (
            "deadlock.victims_per_ktx",
            ratio(st.deadlocks as f64 * 1e3, tx),
        ),
        (
            "deadlock.timeouts_per_ktx",
            ratio(st.timeouts as f64 * 1e3, tx),
        ),
        (
            "deadlock.retries_per_tx",
            ratio(retries as f64, attempted as f64),
        ),
        (
            "mvcc.versions_published_per_tx",
            ratio(st.versions_published as f64, tx),
        ),
        (
            "mvcc.versions_collected_per_tx",
            ratio(st.versions_collected as f64, tx),
        ),
        ("mvcc.chain_len_max", out.chain_len_max as f64),
        ("wal.appends_per_tx", ratio(st.wal_appends as f64, tx)),
        ("wal.fsyncs_per_ktx", ratio(st.wal_fsyncs as f64 * 1e3, tx)),
        ("wal.batch_max", st.group_commit_batch_max as f64),
        (
            "wal.commit_top_extra_ns",
            durable.map_or(0.0, |_| p50(Kind::CommitTop) - pr.reference_ns[5]),
        ),
        (
            "wal.bytes_per_tx",
            durable.map_or(0.0, |d| d.wal_bytes_per_tx),
        ),
        ("recovery.recover_s", durable.map_or(0.0, |d| d.recover_s)),
        (
            "recovery.replay_tx_per_s",
            durable.map_or(0.0, |d| ratio(d.replayed as f64, d.recover_s)),
        ),
        (
            "recovery.checkpoint_ts",
            durable.map_or(0.0, |d| d.checkpoint_ts as f64),
        ),
        ("setup.register_s", out.setup.register_s),
        ("setup.connect_s", out.setup.connect_s),
        ("setup.warmup_s", out.setup.warmup_s),
        (
            "trace.overhead_ratio",
            ratio(traced.tx_per_s.value, untraced.tx_per_s.value),
        ),
    ];
    // The names are spelt out beside the values so that none can slip a row.
    assert!(
        named.iter().map(|m| m.0).eq(PER_LAYER.iter().map(|m| m.0)),
        "per-layer values are in the order of PER_LAYER"
    );
    named.iter().map(|m| m.1).collect()
}

/// One line of human-readable output: `metric <workload>/<name> <value>
/// <unit>`.
pub fn metric_line(workload: &str, name: &str, value: f64, unit: &str) -> String {
    format!("metric {workload}/{name} {value} {unit}")
}

/// Parse a line written by [`metric_line`]: workload, name, value, unit.
pub fn parse_metric_line(line: &str) -> Option<(&str, &str, f64, &str)> {
    let mut f = line.strip_prefix("metric ")?.split_whitespace();
    let (workload, name) = f.next()?.split_once('/')?;
    let value = f.next()?.parse().ok()?;
    Some((workload, name, value, f.next()?))
}

/// The result line the driver reads: one JSON object, the last line of
/// standard output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Clock;

    #[test]
    fn median_of_odd_even_and_none() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_slice_median_leaves_out_a_stall_of_four_slices_but_not_of_six() {
        let clock = Clock::start();
        let run = |stalled: usize| {
            let mut rec = Recorder::new(clock, 0, SLICES, false);
            for s in 0..SLICES {
                // A stalled slice: a tenth of the transactions, ten times as
                // slow.
                let (n, ns) = if s < stalled {
                    (100, 10_000)
                } else {
                    (1000, 1_000)
                };
                for _ in 0..n {
                    rec.slices[s].record(ns);
                }
            }
            timing(&[rec], 0.5, |_| true)
        };
        let t = run(4);
        assert_eq!(t.tx_per_s.value, 2000.0);
        assert_eq!(t.tx_per_s.slices[3], 200.0);
        assert!((t.p50_us.value - 1.0).abs() < 0.01, "{:?}", t.p50_us);
        assert!((t.p99_us.value - 1.0).abs() < 0.01, "{:?}", t.p99_us);
        assert!(t.p99_us.slices[3] > 9.0);
        assert_eq!(t.samples_min, 100);
        let t = run(6);
        assert_eq!(t.tx_per_s.value, 200.0);
        assert!(t.p99_us.value > 9.0);
        // The five slices of one parity of a traced run.
        let odd = timing(&[Recorder::new(clock, 0, SLICES, false)], 0.5, |s| {
            s % 2 == 1
        });
        assert_eq!((odd.tx_per_s.slices.len(), odd.tx_per_s.value), (5, 0.0));
    }

    #[test]
    fn metric_lines_round_trip() {
        let line = metric_line("inproc_hot", "tx_p99_us", 12.5, "us");
        assert_eq!(
            parse_metric_line(&line),
            Some(("inproc_hot", "tx_p99_us", 12.5, "us"))
        );
        assert_eq!(parse_metric_line("info inproc_hot/attempted 3"), None);
    }

    #[test]
    fn result_line_is_the_contracts_shape() {
        let line = result_json(
            true,
            10,
            0,
            &[("setup_s", "s", 1.25), ("tx_per_s", "1/s", 1e-7)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"tx_per_s\": {\"value\": 0.0000001, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn names_are_unique_and_fit_the_contracts_grammar() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand; it must name what the code names.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in &END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in &PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name());
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let named = text.matches("\"name\": ").count();
        assert_eq!(
            named,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }
}
