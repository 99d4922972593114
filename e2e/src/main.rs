//! Command line of the benchmark: `run` one workload, `all` of them, each in
//! a fresh process, or `selfcheck` that two runs of the suite agree.

use ntx_e2e::report::{self, EndToEnd, DURABLE_ONLY, END_TO_END, PER_LAYER, TAIL};
use ntx_e2e::span::{self, Clock};
use ntx_e2e::workloads::{self, Opts, Outcome, Workload, SETUPS, SLICES};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  ntx-e2e run --workload <name> [options]   one workload in this process
  ntx-e2e all [options]                     every workload, a fresh process each
  ntx-e2e selfcheck [options]               each workload six times, as two sides of three pairs;
                                            fail if the sides' medians disagree
options:
  --seed <n>          seed of the generated inputs (default 1)
  --seconds <s>       length of the timed phase, ten slices (default 15)
  --trace <0|1>       1: per-layer metrics and a span file instead of the end-to-end metrics;
                      with `all`, a traced run of each workload after the untraced one (default 0)
  --warmup-scale <f>  scale every fixed count: warm-up, probes, recovery stage (default 1)
workloads: wire_pingpong wire_pipelined inproc_uniform inproc_hot async_deep inproc_durable";

/// Options as given, before a workload is chosen.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: ntx_e2e::RUN_SECONDS,
        scale: 1.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<f64, String> {
            match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
                _ => Err(format!("{flag} takes a positive number, not {value}")),
            }
        };
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Some(Workload::from_name(value).ok_or_else(|| format!("no workload {value}"))?);
            }
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, not {value}"))?;
            }
            "--seconds" => out.seconds = number()?,
            "--warmup-scale" => out.scale = number()?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(out)
}

fn run_workload(opts: &Opts) -> Outcome {
    match opts.workload {
        Workload::WirePingpong | Workload::WirePipelined => workloads::wire::run(opts),
        Workload::AsyncDeep => workloads::async_deep::run(opts),
        Workload::InprocUniform | Workload::InprocHot | Workload::InprocDurable => {
            workloads::inproc::run(opts)
        }
    }
}

/// Write the kept spans of every client to `e2e/out/trace-<workload>.jsonl`.
fn write_trace(opts: &Opts, out: &Outcome) -> std::io::Result<()> {
    let dir = workloads::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.jsonl", opts.workload.name()));
    let mut file = BufWriter::new(std::fs::File::create(&path)?);
    let mut base = 0;
    for trace in out.recs.iter().filter_map(|r| r.trace.as_ref()) {
        span::write_jsonl(&mut file, base, &trace.raw)?;
        base += trace.raw.len();
    }
    file.flush()?;
    println!(
        "info {}/trace_file {} ({base} spans)",
        opts.workload.name(),
        path.display()
    );
    Ok(())
}

/// `run`: one workload in this process. The last line printed is the result
/// object the driver reads.
fn cmd_run(clock: Clock, args: Args) -> Result<bool, String> {
    let mut opts = Opts {
        workload: args.workload.ok_or("run needs --workload <name>")?,
        seed: args.seed,
        slice_s: args.seconds / SLICES as f64,
        scale: args.scale,
        trace: args.trace,
        rehearsal: false,
        origin: 0,
        clock,
    };
    let w = opts.workload.name();
    // Every pass but the last stops where its timed phase would start. The
    // first began when the process did; only it pays what a process pays
    // once, and the median leaves that out.
    let (mut passes, mut errors) = (Vec::new(), Vec::new());
    for _ in 1..SETUPS {
        let pass = run_workload(&Opts {
            trace: false,
            rehearsal: true,
            ..opts
        });
        passes.push(pass.setup);
        errors.extend(pass.errors);
        opts.origin = clock.now();
    }
    let mut out = run_workload(&opts);
    passes.push(out.setup);
    out.errors.extend(errors);
    let setup_passes: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.total_s)).collect();
    passes.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
    out.setup = passes[passes.len() / 2];
    let timing = report::timing(&out.recs, opts.slice_s, |_| true);
    let attempted: u64 = out.recs.iter().map(|r| r.attempted).sum();
    let failed: u64 = out.recs.iter().map(|r| r.failed).sum();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("info {w}/seed {}", opts.seed);
    println!("info {w}/slice_s {}", opts.slice_s);
    println!("info {w}/setup_s_passes {}", setup_passes.join(" "));
    println!("info {w}/nproc {nproc}");
    println!("info {w}/attempted {attempted}");
    println!("info {w}/failed {failed}");
    println!("info {w}/samples_per_slice_min {}", timing.samples_min);
    let [p50, p90, p99, p999, max] = timing.whole_run_us;
    println!(
        "info {w}/whole_run_us p50={p50:.3} p90={p90:.3} p99={p99:.3} p99.9={p999:.3} max={max:.3}"
    );
    if let Some(d) = &out.durable {
        println!("info {w}/wal_fs {}", d.wal_fs);
    }

    let metrics: Vec<(&str, &str, f64)> = if opts.trace {
        if let Err(e) = write_trace(&opts, &out) {
            out.errors
                .push(format!("writing the trace file failed: {e}"));
        }
        let values = report::per_layer(&out, &opts);
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    } else {
        let values = report::end_to_end(&out, &timing);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    };
    for (name, unit, v) in &metrics {
        println!("{}", report::metric_line(w, name, *v, unit));
    }
    if !opts.trace {
        let tail = timing.p99_us.value;
        println!("{}", report::metric_line(w, TAIL.name, tail, TAIL.unit));
        // The metric is the median of these; the best slice is what the
        // code costs when nothing disturbs it.
        for (name, s, best) in [
            (
                "tx_per_s",
                &timing.tx_per_s,
                f64::max as fn(f64, f64) -> f64,
            ),
            ("tx_p50_us", &timing.p50_us, f64::min),
            ("tx_p99_us", &timing.p99_us, f64::min),
        ] {
            let slices: Vec<String> = s.slices.iter().map(|v| format!("{v:.3}")).collect();
            println!("info {w}/{name}_slices {}", slices.join(" "));
            let best = s.slices.iter().copied().reduce(best).unwrap_or(0.0);
            println!("info {w}/{name}_best_slice {best:.3}");
        }
        if let Some(d) = &out.durable {
            for (m, v) in DURABLE_ONLY.iter().zip([d.recover_s, d.wal_bytes_per_tx]) {
                println!("{}", report::metric_line(w, m.name, v, m.unit));
            }
        }
    }
    for (name, _, v) in &metrics {
        if !v.is_finite() {
            out.errors.push(format!("{name} is {v}"));
        }
    }
    out.check(attempted > 0, || {
        "no transaction ended inside the timed phase".to_string()
    });
    for e in &out.errors {
        println!("error {w}: {e}");
    }
    let correct = out.errors.is_empty();
    let finite: Vec<_> = metrics
        .iter()
        .map(|&(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();
    println!(
        "{}",
        report::result_json(correct, attempted.max(1), failed, &finite)
    );
    Ok(correct)
}

/// Run one workload in a child process of this binary, echo what it prints
/// and return its metrics by name.
fn run_child(
    args: &Args,
    workload: Workload,
    trace: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--warmup-scale", &args.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut metrics = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        if let Some((_, name, value, _unit)) = report::parse_metric_line(line) {
            metrics.insert(name.to_string(), value);
        }
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!("{} failed ({})", workload.name(), output.status));
    }
    Ok(metrics)
}

/// `all`: every workload once, and once more traced if asked.
fn cmd_all(args: &Args) -> Result<bool, String> {
    for w in Workload::ALL {
        run_child(args, w, false)?;
        if args.trace {
            run_child(args, w, true)?;
        }
    }
    Ok(true)
}

/// Pairs of runs per workload in `selfcheck`.
const PAIRS: usize = 3;

/// Distance between the first and third quartile of `values` over their
/// median, with the quartiles of Python's `statistics.quantiles(values, n=4)`.
fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = (k * (v.len() + 1)) as f64 / 4.0;
        let i = (pos as usize).clamp(1, v.len() - 1);
        v[i - 1] + (pos - i as f64) * (v[i] - v[i - 1])
    };
    (quartile(3) - quartile(1)) / report::median(&v)
}

/// `selfcheck`: do two sets of runs of the same code agree? Each workload
/// runs `2 * PAIRS` times back to back, the runs going to side A and side B
/// by turns and each pair in the opposite order of the one before, so that a
/// slow minute of the host falls on both sides. A metric whose side medians
/// differ by more than its bound fails the check. One whose runs spread
/// wider than its bound is reported as unresolved: this host, at this hour,
/// cannot hold it to that bound, whatever the medians say.
fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut agree = true;
    for w in Workload::ALL {
        let mut sides = [Vec::new(), Vec::new()];
        for pair in 0..PAIRS {
            for side in [pair % 2, 1 - pair % 2] {
                sides[side].push(run_child(args, w, false)?);
            }
        }
        let durable_only: &[EndToEnd] = match w {
            Workload::InprocDurable => &DURABLE_ONLY,
            _ => &[],
        };
        for m in END_TO_END.iter().chain([&TAIL]).chain(durable_only) {
            let of = |side: &[BTreeMap<String, f64>]| -> Vec<f64> {
                side.iter().map(|run| run[m.name]).collect()
            };
            let (a, b) = (of(&sides[0]), of(&sides[1]));
            let (med_a, med_b) = (report::median(&a), report::median(&b));
            let diff = (med_b - med_a).abs() / med_a;
            let spread = quartile_spread(&[a, b].concat());
            let verdict = if diff > m.bound {
                agree = false;
                "  DISAGREE"
            } else if spread > m.bound {
                "  unresolved"
            } else {
                ""
            };
            rows.push(format!(
                "{:<16} {:<16} {med_a:>14.3} {med_b:>14.3} {:>7.2}% {:>7.2}% {:>6.1}%{verdict}",
                w.name(),
                m.name,
                diff * 100.0,
                spread * 100.0,
                m.bound * 100.0
            ));
        }
    }
    println!();
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "diff", "spread", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let clock = Clock::start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let done = parse(rest).and_then(|args| match cmd.as_str() {
        "run" => cmd_run(clock, args),
        "all" => cmd_all(&args),
        "selfcheck" => cmd_selfcheck(&args),
        other => Err(format!("unknown command {other}")),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ntx-e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::quartile_spread;

    #[test]
    fn quartiles_are_pythons() {
        // statistics.quantiles([10, 11, 12, 13, 20, 30], n=4) == [10.75, 12.5, 22.5]
        let spread = quartile_spread(&[30.0, 10.0, 12.0, 11.0, 20.0, 13.0]);
        assert!((spread - 11.75 / 12.5).abs() < 1e-12, "{spread}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
