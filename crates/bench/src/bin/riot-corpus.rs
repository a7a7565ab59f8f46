//! The workload-corpus runner: executes every corpus R script across
//! all four engines at thread counts {1, 4} and prefetch {0, AUTO},
//! asserts byte-identical output in every cell and the manifests' exact
//! counted-I/O budgets, measures governance checkpoint overhead
//! (ungoverned vs. governed with empty limits; `--test-mode` asserts it
//! stays under 5%), and (with `--out <path>`) writes a JSON report with
//! per-cell wall clock, I/O, one `QueryProfile` tree per workload, and
//! the governance-overhead rows. Without `--out` no file is written.
//!
//! ```text
//! cargo run --release -p riot-bench --bin riot-corpus                          # full profile
//! cargo run --release -p riot-bench --bin riot-corpus -- --out corpus.json    # ... + JSON report
//! cargo run --release -p riot-bench --bin riot-corpus -- --test-mode   # CI gate, small sizes
//! cargo run --release -p riot-bench --bin riot-corpus -- --update     # regenerate budgets/checksums
//! ```

use std::fmt::Write as _;

use riot_bench::corpus::{
    self, cores_available, engine_slug, measure_profile, verify_workload, Cell, CellResult,
    WorkloadReport, THREADS,
};
use riot_core::{EngineKind, ResourceLimits, Session};
use riot_rlang::Interpreter;
use riot_storage::PREFETCH_AUTO;

fn main() {
    let (mut test_mode, mut update, mut out) = (false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--test-mode" => test_mode = true,
            "--update" => update = true,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            unknown => {
                eprintln!("unknown flag: {unknown} (expected --test-mode, --update, --out <path>)");
                std::process::exit(2);
            }
        }
    }

    if update {
        update_manifests();
        return;
    }

    let profile_name = if test_mode { "test" } else { "full" };
    let cores = cores_available();
    println!("RIOT workload corpus — profile '{profile_name}', {cores} core(s) available");
    if cores == 1 {
        println!("note: 1-core container; >1-thread wall-clock comparisons are skipped");
        println!("      (I/O parity across thread counts is still asserted in every cell)\n");
    } else {
        println!();
    }

    let mut reports = Vec::new();
    for w in corpus::workloads() {
        println!("== {} — {}", w.name, w.manifest.description);
        let report = verify_workload(&w, profile_name);
        print_workload_table(&report, cores);
        reports.push(report);
    }
    println!(
        "all {} workloads green: cross-engine outputs identical, budgets exact in every cell",
        reports.len()
    );

    let overhead = measure_governance_overhead(profile_name);
    print_overhead_table(&overhead, test_mode);

    if let Some(path) = out {
        write_bench_json(&path, &reports, &overhead, profile_name, cores);
    }
}

/// One workload's governance checkpoint-overhead measurement: the same
/// script on the same cell (Riot, one thread, no prefetch), ungoverned
/// vs. governed with empty limits, min-of-N wall clock each.
struct OverheadRow {
    name: &'static str,
    ungoverned_secs: f64,
    governed_secs: f64,
}

/// Measure governance checkpoint overhead per workload. The variants
/// are interleaved within each repetition so clock drift and cache
/// warmth hit both equally; min-of-N discards scheduler noise.
fn measure_governance_overhead(profile_name: &str) -> Vec<OverheadRow> {
    const REPS: usize = 5;
    let cell = Cell {
        engine: EngineKind::Riot,
        threads: 1,
        prefetch: 0,
    };
    let mut rows = Vec::new();
    for w in corpus::workloads() {
        let profile = w
            .manifest
            .profile(profile_name)
            .unwrap_or_else(|| panic!("{}: no {profile_name} profile", w.name));
        let (mut plain, mut governed) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            let mut interp = Interpreter::new(corpus::session_config(profile, cell));
            corpus::bind_inputs(&mut interp, &corpus::inputs(w.name, profile), false);
            let (_, m) = corpus::run_script_measured(&mut interp, w.script, false);
            plain = plain.min(m.wall_secs);

            let s = Session::with_limits(
                corpus::session_config(profile, cell),
                ResourceLimits::none(),
            );
            let mut interp = Interpreter::with_session(s);
            corpus::bind_inputs(&mut interp, &corpus::inputs(w.name, profile), false);
            let (_, m) = corpus::run_script_measured(&mut interp, w.script, false);
            governed = governed.min(m.wall_secs);
        }
        rows.push(OverheadRow {
            name: w.name,
            ungoverned_secs: plain,
            governed_secs: governed,
        });
    }
    rows
}

/// Print the overhead rows; in test mode assert the aggregate stays
/// under 5% (aggregated across workloads so millisecond-scale test
/// profiles don't gate on per-row timer noise, with a 10 ms grace for
/// the same reason).
fn print_overhead_table(rows: &[OverheadRow], test_mode: bool) {
    println!("governance checkpoint overhead (riot engine, 1 thread, min of 5):");
    println!(
        "   {:<10} {:>13} {:>13} {:>9}",
        "workload", "ungoverned", "governed", "overhead"
    );
    let (mut total_plain, mut total_gov) = (0.0f64, 0.0f64);
    for r in rows {
        total_plain += r.ungoverned_secs;
        total_gov += r.governed_secs;
        println!(
            "   {:<10} {:>12.4}s {:>12.4}s {:>+8.2}%",
            r.name,
            r.ungoverned_secs,
            r.governed_secs,
            (r.governed_secs / r.ungoverned_secs - 1.0) * 100.0
        );
    }
    let pct = (total_gov / total_plain - 1.0) * 100.0;
    println!(
        "   {:<10} {total_plain:>12.4}s {total_gov:>12.4}s {pct:>+8.2}%\n",
        "total"
    );
    if test_mode {
        assert!(
            total_gov <= total_plain * 1.05 + 0.010,
            "governance checkpoint overhead {pct:.2}% exceeds the 5% budget \
             ({total_plain:.4}s ungoverned vs {total_gov:.4}s governed)"
        );
        println!("governance overhead within the 5% budget\n");
    }
}

/// Per-workload result table. Wall-clock *comparisons* across thread
/// counts (the speedup column) are skipped on 1-core machines, where
/// they would only measure scheduler noise; I/O parity is asserted by
/// `verify_workload` regardless.
fn print_workload_table(report: &WorkloadReport, cores: usize) {
    println!(
        "   {:<22} {:>9} {:>9} {:>11} {:>9}",
        "engine", "reads", "writes", "wall", "speedup"
    );
    for &engine in &[
        EngineKind::PlainR,
        EngineKind::Strawman,
        EngineKind::MatNamed,
        EngineKind::Riot,
    ] {
        let base = cell(report, engine, 1, 0);
        let Some(base) = base else { continue };
        let speedup = if cores == 1 {
            "-".to_string()
        } else {
            match cell(report, engine, THREADS[1], 0) {
                Some(t4) if t4.wall_secs > 0.0 => {
                    format!("{:.2}x", base.wall_secs / t4.wall_secs)
                }
                _ => "-".to_string(),
            }
        };
        println!(
            "   {:<22} {:>9} {:>9} {:>9.4}s {:>9}",
            engine.label(),
            base.reads,
            base.writes,
            base.wall_secs,
            speedup
        );
    }
    println!("   checksum {:#018x}\n", report.checksum);
}

fn cell(
    report: &WorkloadReport,
    engine: EngineKind,
    threads: usize,
    prefetch: usize,
) -> Option<&CellResult> {
    report.cells.iter().find(|c| {
        c.cell.engine == engine && c.cell.threads == threads && c.cell.prefetch == prefetch
    })
}

/// Re-measure every profile of every workload and rewrite the manifest
/// files with fresh checksums and budgets.
fn update_manifests() {
    for w in corpus::workloads() {
        let mut manifest = w.manifest.clone();
        for profile in &mut manifest.profiles {
            let (checksum, budgets) = measure_profile(&w, profile);
            profile.checksum = checksum;
            for (engine, budget) in budgets {
                profile.set_budget(engine, budget);
            }
            println!(
                "{:<8} [{}] checksum {:#018x}  {}",
                w.name,
                profile.name,
                checksum,
                profile
                    .budgets
                    .iter()
                    .map(|(slug, b)| format!("{slug}={}r/{}w", b.reads, b.writes))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        std::fs::write(w.manifest_path, manifest.render())
            .unwrap_or_else(|e| panic!("writing {}: {e}", w.manifest_path));
    }
    println!("manifests rewritten; verify with --test-mode and a full run");
}

/// Write the JSON report to `path`: run metadata, one entry per workload
/// with every grid cell's counters and the captured Riot profile tree
/// (the deterministic counts-only EXPLAIN rendering), and the governance
/// checkpoint-overhead rows.
fn write_bench_json(
    path: &str,
    reports: &[WorkloadReport],
    overhead: &[OverheadRow],
    profile_name: &str,
    cores: usize,
) {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"workload_corpus\",\n");
    let _ = writeln!(out, "  \"profile\": \"{profile_name}\",");
    let _ = writeln!(out, "  \"cores_available\": {cores},");
    let _ = writeln!(
        out,
        "  \"one_core_note\": \"thread cells measure I/O parity, not speedup, when cores_available is 1\","
    );
    out.push_str("  \"workloads\": [\n");
    for (wi, r) in reports.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"checksum\": \"{:#018x}\",", r.checksum);
        out.push_str("      \"cells\": [\n");
        for (ci, c) in r.cells.iter().enumerate() {
            let pf = if c.cell.prefetch == PREFETCH_AUTO {
                "\"auto\"".to_string()
            } else {
                c.cell.prefetch.to_string()
            };
            let _ = write!(
                out,
                "        {{ \"engine\": \"{}\", \"threads\": {}, \"prefetch\": {}, \
                 \"reads\": {}, \"writes\": {}, \"wall_secs\": {:.6}, \"flops\": {} }}",
                engine_slug(c.cell.engine),
                c.cell.threads,
                pf,
                c.reads,
                c.writes,
                c.wall_secs,
                c.flops
            );
            out.push_str(if ci + 1 < r.cells.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ],\n");
        let (spans, tree) = r
            .cells
            .iter()
            .find_map(|c| c.profile_tree.as_ref().map(|t| (c.spans, t.as_str())))
            .unwrap_or((0, ""));
        let _ = writeln!(out, "      \"profile_spans\": {spans},");
        let _ = writeln!(
            out,
            "      \"riot_profile_tree\": \"{}\"",
            json_escape(tree)
        );
        out.push_str("    }");
        out.push_str(if wi + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"governance_overhead\": {\n");
    out.push_str("    \"cell\": { \"engine\": \"riot\", \"threads\": 1, \"prefetch\": 0 },\n");
    out.push_str("    \"reps\": 5,\n");
    out.push_str("    \"rows\": [\n");
    for (i, r) in overhead.iter().enumerate() {
        let _ = write!(
            out,
            "      {{ \"workload\": \"{}\", \"ungoverned_secs\": {:.6}, \
             \"governed_secs\": {:.6}, \"overhead_pct\": {:.3} }}",
            r.name,
            r.ungoverned_secs,
            r.governed_secs,
            (r.governed_secs / r.ungoverned_secs - 1.0) * 100.0
        );
        out.push_str(if i + 1 < overhead.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ]\n  }\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
