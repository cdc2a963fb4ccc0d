//! End-to-end and per-layer benchmark of the NCL serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mentions|notes|icd10_scale --seed N --seconds S --trace 0|1 [--repeat R]
//! ```
//!
//! One run builds a workload's world, generates its inputs from the
//! seed, sets the linker up, checks every output and measures for the
//! given seconds. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the run also sends each request
//! through the layer entry points one at a time, records one span per
//! call, writes the spans to `perfbench/out/spans-<workload>.jsonl` and
//! prints the per-layer metrics. `--repeat R` is the steadiness mode:
//! it runs the workload (or `all`) R times in child processes with seeds
//! N..N+R and prints the median and quartiles of every end-to-end metric.
//! See README.md.

mod clock;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use report::{parse_result, Report};
use std::process::{Command, ExitCode};
use trace::Tracer;

const WORKLOADS: &[&str] = &["mentions", "notes", "icd10_scale"];

/// Printed with `--trace 0`, in this order.
const END_TO_END: &[&str] = &[
    "setup_s",
    "serial_p50_ms",
    "throughput_rps_per_cpu",
    "publish_s",
    "peak_rss_mb",
    "top1_acc",
    "phase1_recall",
    "span_precision",
    "span_recall",
];

/// Printed with `--trace 1`, in this order.
const PER_LAYER: &[&str] = &[
    "rewrite.us_per_query",
    "rewrite.memo_hit_ratio",
    "retrieve.us_per_query",
    "retrieve.postings_examined_per_query",
    "retrieve.docs_scored_per_query",
    "retrieve.pruned_ratio",
    "score.us_per_query",
    "score.us_per_candidate",
    "score.deadline_us_per_query",
    "link.unattributed_frac",
    "propose.us_per_note",
    "propose.spans_per_note",
    "document.us_per_span",
    "batch.speedup",
    "frontend.open_p50_ms",
    "frontend.queue_wait_p50_ms",
    "frontend.service_p50_ms",
    "frontend.e2e_p99_ms",
    "frontend.late_p99_ms",
    "frontend.admitted_partial",
    "frontend.admitted_shed",
    "fit.pretrain_s",
    "fit.refine_s",
    "fit.pairs_per_s",
    "freeze.s",
    "cache.mb",
    "checkpoint.load_s",
    "feedback.labels",
    "feedback.retrain_s",
    "feedback.publish_s",
    "trace.overhead_ms",
    "trace.spans",
];

const USAGE: &str = "usage: ncl-perfbench --workload mentions|notes|icd10_scale|all \
--seed N --seconds S --trace 0|1 [--repeat R]";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            repeat: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--repeat" => args.repeat = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let known = WORKLOADS.contains(&args.workload.as_str())
            || (args.workload == "all" && args.repeat.is_some());
        if !known {
            return Err(format!("unknown workload '{}'", args.workload));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// The commit the benchmark was built from: `git`'s HEAD when the
/// source tree is a git checkout, else a fingerprint of the sources.
fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head.chars().take(12).collect();
        };
        if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
            return id.trim().chars().take(12).collect();
        }
        if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
            if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
                return line.chars().take(12).collect();
            }
        }
    }
    // FNV-1a over every source file, in path order.
    let mut files = Vec::new();
    let mut dirs = vec![root.join("crates"), root.join("vendor")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

/// Hardware threads, kernel dispatch level, commit and seed.
fn stamp(seed: u64) -> String {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "hw_threads={hw} simd={:?} commit={} seed={seed}",
        ncl_tensor::simd::active(),
        commit()
    )
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run(args: &Args) -> ExitCode {
    println!(
        "# perfbench workload={} seconds={} trace={} {}",
        args.workload,
        args.seconds,
        u8::from(args.trace),
        stamp(args.seed)
    );
    let ticks_before = clock::cpu_ticks();
    let mut report = Report::default();
    let mut tracer = args.trace.then(Tracer::new);
    match args.workload.as_str() {
        "mentions" => workloads::mentions(args, tracer.as_mut(), &mut report),
        "notes" => workloads::notes_workload(args, tracer.as_mut(), &mut report),
        _ => workloads::icd10_scale(args, tracer.as_mut(), &mut report),
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    if let Some(tr) = &tracer {
        let path = workloads::out_dir().join(format!("spans-{}.jsonl", args.workload));
        let header = format!(
            "{{\"workload\":\"{}\",\"stamp\":\"{}\"}}",
            args.workload,
            stamp(args.seed)
        );
        let written = tr.write_jsonl(&path, &header);
        report.check(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
        println!(
            "# spans: {} written to {}",
            tr.spans().len(),
            path.display()
        );
    }
    report.check(report.attempted > 0, || "no operation was attempted".into());
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for name in report.missing(names) {
        report.check(false, || format!("metric {name} was not measured"));
    }
    println!(
        "# {} checks, {} failed; all metrics:\n{}",
        report.checks(),
        report.failures().len(),
        report.table()
    );
    for f in report.failures() {
        eprintln!("check failed: {f}");
    }
    // Time the hypervisor gave to others while this run measured (see
    // `clock.rs`).
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, clock::cpu_ticks()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("# host steal {share:.1}% of CPU time during the run");
    }
    println!("{}", report.json(names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Steadiness mode: `repeat` child runs per workload with consecutive
/// seeds; prints the median and quartiles of every end-to-end metric
/// and the spread (q3 − q1) as a share of the median.
fn steadiness(args: &Args, repeat: usize) -> ExitCode {
    println!(
        "# steadiness {repeat} runs per workload, {}",
        stamp(args.seed)
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let chosen: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for w in chosen {
        let mut runs = Vec::new();
        for i in 0..repeat as u64 {
            let seed = args.seed + i;
            let started = std::time::Instant::now();
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .output();
            let text = out
                .as_ref()
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                .unwrap_or_default();
            let parsed = text.lines().last().and_then(parse_result);
            let steal = text
                .lines()
                .find_map(|l| l.strip_prefix("# host steal "))
                .and_then(|l| l.split('%').next())
                .unwrap_or("?");
            match (out, parsed) {
                (Ok(o), Some(r)) if o.status.success() && r.correct => {
                    println!(
                        "  {w} seed {seed}: attempted {} failed {} in {:.1} s, host steal {steal}%",
                        r.attempted,
                        r.failed,
                        started.elapsed().as_secs_f64()
                    );
                    runs.push(r);
                }
                (o, _) => {
                    eprintln!("  {w} seed {seed}: run failed ({:?})", o.map(|o| o.status));
                    ok = false;
                }
            }
        }
        if runs.len() < 2 {
            continue;
        }
        println!(
            "{w}: {:<16} {:>14} {:>14} {:>14} {:>8}",
            "metric", "median", "q1", "q3", "spread"
        );
        for (m, (name, _, unit)) in runs[0].metrics.iter().enumerate() {
            let v = stats::sorted(runs.iter().map(|r| r.metrics[m].1).collect());
            let (q1, q3) = stats::quartiles(&v).expect("two or more runs");
            let med = stats::median(&v);
            println!(
                "{w}: {name:<16} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}%  {unit}",
                100.0 * (q3 - q1) / med.abs()
            );
        }
        let shares: Vec<f64> = runs
            .iter()
            .map(|r| r.failed as f64 / r.attempted as f64)
            .collect();
        println!("{w}: failed share per run {shares:?}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(n) => steadiness(&args, n),
        None => run(&args),
    }
}
