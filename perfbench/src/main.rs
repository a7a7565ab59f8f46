//! Command line of the benchmark:
//!
//! ```text
//! riot-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <path>]
//! ```
//!
//! `--trace 0` times plain runs for `--seconds` and prints the end-to-end
//! metrics; `--trace 1` alternates plain, governed and traced runs and
//! prints the per-layer metrics. Either way every run's output and counts
//! are checked, and the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--out` also writes a
//! fuller report (run metadata, sample counts, min/max) to that path.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use riot::storage::{BufferPool, MemBlockDevice, PoolConfig};
use riot::{DiskModel, EngineKind};
use riot_perfbench::ledger::{self, Ledger};
use riot_perfbench::rig::{self, Measured, RigConfig, SCRATCH_DIR};
use riot_perfbench::workloads::{self, Input, Scale, Spec, DEFAULT_SEED};

/// Version of the `--out` report layout.
const REPORT_VERSION: u32 = 1;

/// Fewest samples of each kind a run takes, however short `--seconds`.
const MIN_RUNS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out,
    })
}

/// One reported metric with its samples.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            samples,
        }
    }

    fn one(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, vec![value])
    }

    fn median(&self) -> f64 {
        median(&self.samples)
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Run `f`, turning a panic into an error.
fn attempt<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(p))))
}

/// One script run from a fresh rig: (setup seconds, measurements).
fn fresh_run(
    spec: &Spec,
    inputs: &[Input],
    rc: RigConfig,
    profiled: bool,
) -> Result<(f64, Measured), String> {
    attempt(|| {
        let t0 = Instant::now();
        let mut r = rig::setup(spec, inputs, rc)?;
        let setup_s = t0.elapsed().as_secs_f64();
        Ok((setup_s, rig::run(&mut r, spec.script, profiled)?))
    })
}

/// Checks every run: the same output as the first run, and the pinned
/// counts. Keeps reads and writes for their observed range.
struct Checker<'a> {
    spec: &'a Spec,
    output: Option<String>,
    reads: Vec<f64>,
    writes: Vec<f64>,
}

impl<'a> Checker<'a> {
    fn new(spec: &'a Spec) -> Self {
        Checker {
            spec,
            output: None,
            reads: vec![],
            writes: vec![],
        }
    }

    fn check(&mut self, m: &Measured) -> Result<(), String> {
        let first = self.output.get_or_insert_with(|| m.output.clone());
        if *first != m.output {
            return Err("output differs from the first run's".into());
        }
        let pin = &self.spec.pin;
        let pinned = [
            ("reads", pin.reads, m.io.reads),
            ("writes", pin.writes, m.io.writes),
            ("device blocks", Some(pin.blocks), m.blocks),
            ("flops", Some(pin.flops), m.flops),
        ];
        let drift: Vec<String> = pinned
            .iter()
            .filter(|(_, want, got)| want.is_some_and(|w| w != *got))
            .map(|(what, want, got)| format!("{what} = {got}, pinned {}", want.unwrap_or(0)))
            .collect();
        if !drift.is_empty() {
            return Err(drift.join("; "));
        }
        self.reads.push(m.io.reads as f64);
        self.writes.push(m.io.writes as f64);
        Ok(())
    }
}

/// Tallies attempted and failed runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("{what} run {} failed: {e}", self.attempted);
        })
        .ok()
    }
}

/// The checked output must be what the pin (at the default seed) or the
/// MatNamed engine on the same inputs (at any other seed) prints.
fn verify_output(spec: &Spec, seed: u64, inputs: &[Input], output: &str) -> Result<(), String> {
    if seed == DEFAULT_SEED {
        let got = workloads::fnv1a(output);
        return if got == spec.pin.checksum {
            Ok(())
        } else {
            Err(format!(
                "output checksum {got:#018x}, pinned {:#018x}",
                spec.pin.checksum
            ))
        };
    }
    let rc = RigConfig {
        engine: EngineKind::MatNamed,
        ..RigConfig::plain()
    };
    let (_, reference) = fresh_run(spec, inputs, rc, false)?;
    if reference.output == output {
        Ok(())
    } else {
        Err(format!(
            "RIOT printed\n{output}\nbut MatNamed printed\n{}",
            reference.output
        ))
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds per `BufferPool::pin` of a resident block: a loop over
/// 16 resident blocks of a pool shaped like the workloads' (one shard,
/// LRU, no prefetch), median of five rounds.
fn pin_hit_ns() -> Result<f64, String> {
    const BLOCKS: u64 = 16;
    const PINS: u64 = 1 << 18;
    let e = |e: riot::storage::StorageError| e.to_string();
    let pool = BufferPool::new(
        Box::new(MemBlockDevice::new(workloads::BLOCK_SIZE)),
        PoolConfig {
            frames: 64,
            prefetch_depth: 0,
            ..PoolConfig::default()
        },
    );
    let first = pool.allocate_blocks(BLOCKS).map_err(e)?;
    for i in 0..BLOCKS {
        pool.write_new(first.offset(i), |b| b.fill(0)).map_err(e)?;
    }
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for i in 0..PINS {
            let frame = pool.pin(first.offset(i % BLOCKS)).map_err(e)?;
            std::hint::black_box(frame.data()[0]);
        }
        rounds.push(t0.elapsed().as_nanos() as f64 / PINS as f64);
    }
    Ok(median(&rounds))
}

/// One checked but untimed run, so the first timed run does not also
/// pay for the process's first touch of its heap.
fn warm_up(spec: &Spec, inputs: &[Input], tally: &mut Tally, checker: &mut Checker) {
    let r = fresh_run(spec, inputs, RigConfig::plain(), false).and_then(|(_, m)| checker.check(&m));
    tally.record("warm-up", r);
}

/// What a mode measured.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    /// The output every run printed (all runs are checked equal).
    output: Option<String>,
}

/// `--trace 0`: plain runs for `seconds`; the end-to-end metrics.
fn timed_mode(spec: &Spec, inputs: &[Input], seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut checker = Checker::new(spec);
    let (mut setup, mut query, mut moved, mut amp) = (vec![], vec![], vec![], vec![]);
    let input_blocks = workloads::input_blocks(inputs) as f64;
    warm_up(spec, inputs, &mut tally, &mut checker);
    let t0 = Instant::now();
    while query.len() < MIN_RUNS || t0.elapsed().as_secs_f64() < seconds {
        let r = fresh_run(spec, inputs, RigConfig::plain(), false)
            .and_then(|(s, m)| checker.check(&m).map(|()| (s, m)));
        if let Some((s, m)) = tally.record("timed", r) {
            setup.push(s);
            query.push(m.wall_s);
            moved.push(m.io.total_blocks() as f64);
            amp.push(m.blocks as f64 / input_blocks);
        } else if tally.failed as usize > MIN_RUNS {
            break;
        }
    }
    let metrics = vec![
        Metric::new("query_s", "s", query),
        Metric::new("setup_s", "s", setup),
        Metric::new("blocks_moved", "blocks", moved),
        Metric::new("space_amp", "ratio", amp),
        Metric::one("peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    Outcome {
        tally,
        metrics,
        output: checker.output,
    }
}

/// `--trace 1`: rounds of one plain, one governed and one traced run for
/// `seconds`; the per-layer metrics.
fn traced_mode(spec: &Spec, inputs: &[Input], seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut checker = Checker::new(spec);
    let parse_ns = || {
        let t0 = Instant::now();
        riot::rlang::parse_program(spec.script)
            .map(|_| t0.elapsed().as_nanos() as u64)
            .map_err(|e| format!("parse: {e}"))
    };
    let governed = RigConfig {
        governed: true,
        ..RigConfig::plain()
    };
    let traced = RigConfig {
        timed_device: true,
        trace_capacity: Some(spec.ring),
        ..RigConfig::plain()
    };
    let (mut plain_s, mut governed_s) = (vec![], vec![]);
    let mut runs: Vec<(Measured, Ledger)> = vec![];
    warm_up(spec, inputs, &mut tally, &mut checker);
    let t0 = Instant::now();
    while runs.len() < MIN_RUNS || t0.elapsed().as_secs_f64() < seconds {
        let r = fresh_run(spec, inputs, RigConfig::plain(), false)
            .and_then(|(_, m)| checker.check(&m).map(|()| m));
        if let Some(m) = tally.record("plain", r) {
            plain_s.push(m.wall_s);
        }
        let r = fresh_run(spec, inputs, governed, false)
            .and_then(|(_, m)| checker.check(&m).map(|()| m));
        if let Some(m) = tally.record("governed", r) {
            governed_s.push(m.wall_s);
        }
        let r = parse_ns().and_then(|parse| {
            let (_, m) = fresh_run(spec, inputs, traced, true)?;
            checker.check(&m)?;
            let dev = m.device.unwrap_or_default();
            if (dev.reads, dev.writes) != (m.io.reads, m.io.writes) {
                return Err(format!(
                    "device counted {}r/{}w, engine {}r/{}w",
                    dev.reads, dev.writes, m.io.reads, m.io.writes
                ));
            }
            let profile = m.profile.as_ref().ok_or("no profile")?;
            let l = ledger::reconcile(profile, (m.wall_s * 1e9) as u64, parse)?;
            Ok((m, l))
        });
        if let Some(run) = tally.record("traced", r) {
            runs.push(run);
        }
        if tally.failed as usize > MIN_RUNS {
            break;
        }
    }
    let pin_ns = tally.record("pin-hit", attempt(pin_hit_ns));
    if runs.is_empty() || plain_s.is_empty() || governed_s.is_empty() || pin_ns.is_none() {
        return Outcome {
            tally,
            metrics: vec![],
            output: checker.output,
        };
    }
    let ledger = |f: fn(&Ledger) -> f64| runs.iter().map(|(_, l)| f(l)).collect::<Vec<_>>();
    let each = |f: &dyn Fn(&Measured) -> f64| runs.iter().map(|(m, _)| f(m)).collect::<Vec<_>>();
    let (m, l) = &runs[0];
    let dev = m.device.unwrap_or_default();
    let plain = median(&plain_s);
    let traced_wall = median(&ledger(|l| l.wall_s));
    let busy = each(&|m| {
        let d = m.device.unwrap_or_default();
        (d.read_ns + d.write_ns) as f64 * 1e-9 / m.wall_s
    });
    let model = DiskModel {
        cpu_ns_per_op: 0.0,
        ..DiskModel::default()
    };
    let range = |xs: &[f64]| {
        xs.iter().copied().fold(f64::MIN, f64::max) - xs.iter().copied().fold(f64::MAX, f64::min)
    };
    let metrics = vec![
        Metric::new("rlang.parse_s", "s", ledger(|l| l.parse_s)),
        Metric::new("rlang.interp_self_s", "s", ledger(|l| l.interp_self_s)),
        Metric::one("core.forcing_points", "count", l.forcing_points as f64),
        Metric::new("core.force_self_s", "s", ledger(|l| l.force_self_s)),
        Metric::new(
            "core.force_us_per_point",
            "us",
            ledger(|l| l.force_self_s * 1e6 / l.forcing_points.max(1) as f64),
        ),
        Metric::one("core.opt_plans", "count", l.opt_plans as f64),
        Metric::one("core.opt_rewrites", "count", l.opt_rewrites as f64),
        Metric::new("exec.transpose_s", "s", ledger(|l| l.transpose_s)),
        Metric::new("exec.matmul_s", "s", ledger(|l| l.matmul_s)),
        Metric::new("exec.factor_s", "s", ledger(|l| l.factor_s)),
        Metric::new("exec.sparse_s", "s", ledger(|l| l.sparse_s)),
        Metric::new("exec.other_s", "s", ledger(|l| l.other_s)),
        Metric::one("exec.flops", "count", m.flops as f64),
        Metric::one("pool.hits", "count", m.pool.hits as f64),
        Metric::one("pool.misses", "count", m.pool.misses as f64),
        Metric::one("pool.hit_rate", "ratio", m.pool.hit_rate()),
        Metric::one(
            "pool.evict_writebacks",
            "count",
            m.pool.evict_writebacks as f64,
        ),
        Metric::one(
            "pool.prefetch_issued",
            "count",
            m.pool.prefetch_issued as f64,
        ),
        Metric::one(
            "pool.prefetch_useful",
            "ratio",
            ratio(m.pool.prefetch_hits as f64, m.pool.prefetch_issued as f64),
        ),
        Metric::one(
            "pool.prefetch_wasted",
            "count",
            m.pool.prefetch_wasted as f64,
        ),
        Metric::one("pool.pin_hit_ns", "ns", pin_ns.unwrap_or_default()),
        Metric::one("device.reads", "count", dev.reads as f64),
        Metric::one("device.writes", "count", dev.writes as f64),
        Metric::new(
            "device.read_s",
            "s",
            each(&|m| m.device.unwrap_or_default().read_ns as f64 * 1e-9),
        ),
        Metric::new(
            "device.write_s",
            "s",
            each(&|m| m.device.unwrap_or_default().write_ns as f64 * 1e-9),
        ),
        Metric::new("device.busy_frac", "ratio", busy),
        Metric::one("reads", "count", m.io.reads as f64),
        Metric::one("writes", "count", m.io.writes as f64),
        Metric::one("reads_range", "count", range(&checker.reads)),
        Metric::one("writes_range", "count", range(&checker.writes)),
        Metric::one("io_model_s", "model_s", model.modeled_seconds(&m.io, 0)),
        Metric::one("governance.overhead", "ratio", median(&governed_s) / plain),
        Metric::one("trace.overhead", "ratio", traced_wall / plain),
        Metric::new("trace.wall_s", "s", ledger(|l| l.wall_s)),
        Metric::one("trace.events", "count", l.events as f64),
        Metric::one("trace.dropped", "count", l.dropped as f64),
    ];
    Outcome {
        tally,
        metrics,
        output: checker.output,
    }
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn write_report(path: &str, args: &Args, spec: &Spec, out: &Outcome) -> std::io::Result<()> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"version\": {REPORT_VERSION}, \"benchmark\": \"riot-perfbench\", \"workload\": {}, \
         \"seed\": {}, \"trace\": {}, \"run_seconds\": {}, \"cores_available\": {cores}, \
         \"device\": {}, \"engine\": \"RIOT\", \"threads\": {}, \"frames\": {}, \"prefetch\": {}, \
         \"block_size\": {}, \"commit\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        json_str(spec.name),
        args.seed,
        u8::from(args.trace),
        json_num(args.seconds),
        json_str(spec.device.label()),
        spec.threads,
        spec.frames,
        spec.prefetch,
        workloads::BLOCK_SIZE,
        json_str(&commit()),
        out.tally.attempted,
        out.tally.failed,
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let _ = write!(
            s,
            "{}{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"min\": {}, \"max\": {}, \"values\": [{}]}}",
            if i == 0 { "" } else { ", " },
            json_str(m.name),
            json_num(m.median()),
            json_str(m.unit),
            m.samples.len(),
            json_num(min),
            json_num(max),
            m.samples.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(", "),
        );
    }
    s.push_str("}}\n");
    std::fs::write(path, s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("riot-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::find(&args.workload) else {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|s| s.name).collect();
        eprintln!(
            "riot-perfbench: unknown workload '{}' (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let inputs = workloads::inputs(spec, args.seed, Scale::Full);
    let mut out = if args.trace {
        traced_mode(spec, &inputs, args.seconds)
    } else {
        timed_mode(spec, &inputs, args.seconds)
    };
    // Every run printed the same text (the checker saw to that); one
    // check of that text against the reference covers them all.
    let verified = match &out.output {
        Some(o) => verify_output(spec, args.seed, &inputs, o),
        None => Err("no run completed".into()),
    };
    if let Err(e) = verified {
        eprintln!("output check failed: {e}");
        out.tally.failed = out.tally.attempted;
    }
    let _ = std::fs::remove_dir(SCRATCH_DIR);

    println!(
        "riot-perfbench {} seed {} ({}, {} frames, {} thread(s), prefetch {})",
        spec.name,
        args.seed,
        spec.device.label(),
        spec.frames,
        spec.threads,
        spec.prefetch
    );
    for m in &out.metrics {
        println!(
            "  {:<24} {:>16.6} {:<8} (n={})",
            m.name,
            m.median(),
            m.unit,
            m.samples.len()
        );
    }
    let mut correct = out.tally.failed == 0 && !out.metrics.is_empty();
    if let Some(path) = &args.out {
        if let Err(e) = write_report(path, &args, spec, &out) {
            eprintln!("riot-perfbench: writing {path}: {e}");
            correct = false;
        }
    }
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.attempted, out.tally.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(m.name),
            json_num(m.median()),
            json_str(m.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
