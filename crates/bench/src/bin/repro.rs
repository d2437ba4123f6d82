//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [ARTIFACT] [--PARAM VALUE]... [--write] [--threads N] [--metrics PATH] [--wall-unix SECS]
//! repro bench-check <report.json> <baseline.json> <max-regress-pct>
//! repro chaos [--seeds N] [--seed 0xHEX] [--plan FILE] [--summary PATH]
//!             [--no-storm] [--threads N]
//! ```
//!
//! `ARTIFACT` is one of [`ARTIFACTS`] or `all` (the default, every
//! artifact in order). An unknown artifact or flag is a usage error
//! (exit 2).
//!
//! Parameter flags are the experiment schema names with `-` for `_`
//! (`--horizon-h`, `--slot-min`), documented in EXPERIMENTS.md's
//! parameter tables and `GET /v1/experiments`.
//!
//! Stdout is the paper-vs-measured record itself: each artifact prints
//! the `EXPERIMENTS.md` sections it files (markdown), then a summary of
//! every paper-vs-measured comparison. With `--write`, the harness also
//! rewrites `EXPERIMENTS.md` — the same sections behind the serving
//! endpoints preamble and followed by a timing line — and dumps raw
//! results as JSON under `results/`; a failed write ends the run with
//! exit 1. Progress and timing go to stderr.
//!
//! `--threads N` pins the `tts_exec` worker count for every sweep in the
//! run (overriding `TTS_THREADS` and the machine default). Results are
//! byte-identical at any thread count — see the determinism tests.
//!
//! `--metrics PATH` collects observability data (counters, gauges,
//! histograms, span timers — see `tts_obs`) across every experiment in the
//! run and writes a JSON sidecar `{"snapshot": …, "flushes": […]}` to
//! PATH. The snapshot body contains only deterministic metrics, so the
//! sidecar is byte-identical at any thread count; `--wall-unix SECS`
//! stamps it with a caller-supplied wall clock (omitted by default to keep
//! the bytes reproducible). Flushes come from the discrete simulator's
//! periodic flush hook, stamped with simulated time.
//!
//! `bench-check` compares a bench harness JSON report against a baseline
//! (e.g. `BENCH_baseline.json`) and fails if any benchmark present in both
//! regressed by more than the given percentage — the CI gate that keeps
//! the disabled-metrics hot paths at full speed.
//!
//! Registry experiments render their own sections
//! ([`Figure::markdown`]); the artifacts that are plain library calls or
//! analyses over other figures (Table 1/2, Figures 1/4/10, TCO, the
//! extension studies) are rendered here.

use std::fmt::Write as _;
use std::time::Instant;
use thermal_time_shifting::chart::ascii_chart;
use thermal_time_shifting::experiment::{self, ExecCtx, Figure, ParamSpec, Params};
use thermal_time_shifting::experiments::{self, Comparison};
use thermal_time_shifting::params;
use thermal_time_shifting::report::{comparison_row, text_table};
use tts_server::validation::{self, ValidationConfig};
use tts_server::ServerClass;
use tts_tco::Table2;
use tts_units::json::Json;
use tts_units::Fraction;
use tts_workload::GoogleTrace;

/// A selectable artifact: its name, the registry experiments it runs
/// (their schemas are the parameter flags it accepts), and the
/// hand-rendered section that follows them.
type Artifact = (
    &'static str,
    &'static [&'static str],
    Option<fn(&mut Report)>,
);

/// Every artifact, in the order `all` renders them.
const ARTIFACTS: &[Artifact] = &[
    ("table1", &[], Some(run_table1)),
    ("fig1", &[], Some(run_fig1)),
    ("fig4", &[], Some(run_fig4)),
    ("fig7", &["fig7"], None),
    ("fig10", &[], Some(run_fig10)),
    ("fig11", &["fig11"], None),
    ("fig12", &["fig12"], None),
    ("table2", &[], Some(run_table2)),
    ("tco", &["fig11", "fig12"], Some(run_tco)),
    ("dcsim", &["dcsim"], None),
    ("fleet", &["fleet"], None),
    ("schedule", &["schedule"], None),
    ("design", &["design"], None),
    ("scenarios", &["scenarios"], None),
    ("extensions", &[], Some(run_extensions)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench-check") {
        std::process::exit(bench_check(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("chaos") {
        std::process::exit(chaos(&args[1..]));
    }
    let Cli {
        write,
        threads,
        metrics,
        wall_unix,
        artifacts,
        params,
    } = parse_cli(&args).unwrap_or_else(|msg| {
        eprintln!("repro: {msg}\n{}", usage());
        std::process::exit(2);
    });
    tts_exec::set_thread_override(threads);

    let ctx = if metrics.is_some() {
        ExecCtx::with_metrics()
    } else {
        ExecCtx::disabled()
    };
    if ctx.is_enabled() {
        // Route the worker pool's (best-effort) telemetry to the same
        // registry.
        tts_exec::set_metrics_sink(ctx.sink().clone());
    }

    let started = Instant::now();
    let mut md = String::new();
    md.push_str(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run --release -p tts-bench --bin repro -- all --write`.\n\n\
         Absolute agreement with the authors' testbed is not expected (our substrate\n\
         is a from-scratch simulator, theirs was ANSYS Icepak + a physical RD330 +\n\
         an unreleased DCSim); the reproduction criteria are the *shapes*: who wins,\n\
         by roughly what factor, and where the crossovers fall. See DESIGN.md for\n\
         the substitutions.\n\n",
    );
    md.push_str(&serving_endpoints_md());
    let mut report = Report {
        ctx,
        write,
        params,
        md,
        comparisons: Vec::new(),
        figures: Vec::new(),
    };
    for (_, experiments, render) in artifacts {
        for name in experiments {
            report.experiment(name);
        }
        if let Some(render) = render {
            render(&mut report);
        }
    }
    if !report.comparisons.is_empty() {
        let mut summary = String::from(
            "\n## Summary\n\n| experiment | metric | paper | measured | deviation |\n|---|---|---|---|---|\n",
        );
        for (ctx_label, c) in &report.comparisons {
            let _ = writeln!(summary, "| {} {}", ctx_label, comparison_row(c));
        }
        report.section(&summary);
    }
    let Report { ctx, mut md, .. } = report;

    let _ = writeln!(
        md,
        "\n*Total regeneration time: {:.1} s.*",
        started.elapsed().as_secs_f64()
    );

    if write {
        write_file("EXPERIMENTS.md", &md);
        eprintln!("wrote EXPERIMENTS.md");
    }
    if let Some(path) = metrics {
        let sidecar = ctx.sidecar(None, wall_unix).expect("metrics enabled");
        let text = sidecar.to_string_pretty();
        // Parse-back validation: the sidecar must round-trip through the
        // in-repo JSON layer before it is worth writing.
        let parsed = tts_units::json::parse(&text).expect("metrics sidecar parses back");
        assert_eq!(parsed, sidecar, "metrics sidecar round-trips losslessly");
        write_file(&path, &text);
        eprintln!("wrote metrics sidecar to {path}");
    }
    eprintln!("done in {:.1} s", started.elapsed().as_secs_f64());
}

/// The `EXPERIMENTS.md` preamble section documenting the `ttsd` HTTP
/// endpoints, with the experiment rows generated from the live registry
/// so regeneration can never drift from the code.
fn serving_endpoints_md() -> String {
    let mut md = String::from(
        "## Serving endpoints (`ttsd`)\n\n\
         Every experiment below is also served over HTTP by `ttsd`\n\
         (`cargo run --release -p tts-svc --bin ttsd`). `POST\n\
         /v1/experiments/{name}` answers exactly the bytes `--write` files as\n\
         `results/{name}.summary.json`, computed or cached, at any thread\n\
         count; see DESIGN.md (\"Serving layer\") for the architecture.\n\n\
         | endpoint | method | description |\n|---|---|---|\n\
         | `/healthz` | GET | liveness probe |\n\
         | `/metrics` | GET | metrics snapshot (deterministic; `?full=1` adds best-effort) |\n\
         | `/v1/experiments` | GET | the registry: names and supported parameters |\n\
         | `/v1/jobs` | GET | list known jobs (active and retained terminal) |\n\
         | `/v1/jobs` | POST | submit `{\\\"experiment\\\", \\\"params\\\"}` async; `202` + job id |\n\
         | `/v1/jobs/{id}` | GET | job status document |\n\
         | `/v1/jobs/{id}/events` | GET | chunked NDJSON progress stream until terminal |\n\
         | `/v1/jobs/{id}/result` | GET | result bytes (`409` until done) |\n\
         | `/v1/jobs/{id}` | DELETE | cooperative cancellation |\n\
         | `/admin/shutdown` | POST | graceful drain and final metrics flush |\n",
    );
    for exp in experiment::registry() {
        let _ = writeln!(
            md,
            "| `/v1/experiments/{}` | POST | run `{}` (params: {}) |",
            exp.name(),
            exp.name(),
            exp.schema()
                .iter()
                .map(|p| format!("`{}`", p.name))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    md.push('\n');
    // The declarative parameter schemas, rendered from the same
    // `ParamSpec` tables `GET /v1/experiments` serves — EXPERIMENTS.md
    // can never drift from the wire contract.
    md.push_str(
        "### Experiment parameters\n\n\
         Each experiment accepts only the parameters below (anything else is a\n\
         `400 unknown parameter`); ranges are inclusive and validated server-side.\n\n",
    );
    for exp in experiment::registry() {
        let _ = writeln!(md, "#### `{}`\n", exp.name());
        md.push_str(&params::schema_markdown(exp.schema()));
        md.push('\n');
    }
    md
}

/// A parsed command line: the run-wide flags (`--write`, `--threads`,
/// `--metrics`, `--wall-unix`), the selected artifacts, and each selected
/// experiment's [`Params`] from the remaining flags.
#[derive(Default)]
struct Cli {
    write: bool,
    threads: Option<usize>,
    metrics: Option<String>,
    wall_unix: Option<f64>,
    artifacts: Vec<Artifact>,
    params: Vec<(&'static str, Params)>,
}

/// Parses the command line. Parameter flags go through
/// [`params::flags_to_json`] and [`Params::from_json`], the parse
/// `POST /v1/experiments/{name}` uses, so ranges, types and error text
/// match the HTTP 400s.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut selector: Option<&str> = None;
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            if let Some(first) = selector.replace(arg) {
                return Err(format!("more than one artifact: {first:?} and {arg:?}"));
            }
            continue;
        };
        if name == "write" {
            cli.write = true;
            continue;
        }
        let value = it
            .next()
            .filter(|v| !v.is_empty() && !v.starts_with("--"))
            .ok_or_else(|| format!("--{name} needs a value"))?;
        match name {
            "threads" => {
                let body = params::flags_to_json([(name, value.as_str())]);
                cli.threads = Params::from_json(&body, params::BASE)?.threads;
            }
            "metrics" => cli.metrics = Some(value.clone()),
            "wall-unix" => {
                let secs = value.parse().map_err(|_| {
                    "--wall-unix requires a number (seconds since the epoch)".to_string()
                })?;
                cli.wall_unix = Some(secs);
            }
            _ => flags.push((name, value)),
        }
    }

    cli.artifacts = match selector.unwrap_or("all") {
        "all" => ARTIFACTS.to_vec(),
        name => vec![*ARTIFACTS
            .iter()
            .find(|a| a.0 == name)
            .ok_or_else(|| format!("unknown artifact {name:?}"))?],
    };
    let mut names: Vec<&'static str> = Vec::new();
    for name in cli.artifacts.iter().flat_map(|a| a.1.iter()) {
        if !names.contains(name) {
            names.push(name);
        }
    }
    if names.is_empty() && !flags.is_empty() {
        return Err(format!(
            "{} takes no parameter flags (got --{})",
            cli.artifacts[0].0, flags[0].0
        ));
    }
    cli.params = scope_params(&params::flags_to_json(flags), &names)?;
    Ok(cli)
}

/// Parses `body` once per experiment in `names`, each against its own
/// schema and seeing only the keys that schema declares. The body is
/// first checked against the union of the schemas, so a key that no
/// selected experiment accepts is an error — and with one experiment
/// selected, every error is word for word the HTTP one.
fn scope_params(
    body: &Json,
    names: &[&'static str],
) -> Result<Vec<(&'static str, Params)>, String> {
    let schemas: Vec<&[ParamSpec]> = names
        .iter()
        .map(|name| {
            experiment::find(name)
                .expect("artifacts list registered experiments")
                .schema()
        })
        .collect();
    let mut union: Vec<ParamSpec> = Vec::new();
    for spec in schemas.iter().flat_map(|s| s.iter()) {
        if !union.iter().any(|u| u.name == spec.name) {
            union.push(*spec);
        }
    }
    Params::from_json(body, &union)?;
    let members = body.as_obj().unwrap_or_default();
    names
        .iter()
        .zip(schemas)
        .map(|(name, schema)| {
            let own = members
                .iter()
                .filter(|(key, _)| schema.iter().any(|s| s.name == key))
                .cloned()
                .collect();
            Ok((*name, Params::from_json(&Json::Obj(own), schema)?))
        })
        .collect()
}

/// The usage text, listing the artifacts dispatch reads.
fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    format!(
        "usage: repro [all|{}] [--PARAM VALUE]... [--write] [--threads N] [--metrics PATH] \
         [--wall-unix SECS]\n       repro bench-check <report.json> <baseline.json> \
         <max-regress-pct>\n       repro chaos [--seeds N] [--seed 0xHEX] [--plan FILE] \
         [--summary PATH] [--no-storm] [--threads N]\n\
         parameter flags are the experiment schema names with - for _ \
         (see EXPERIMENTS.md or GET /v1/experiments)",
        names.join("|")
    )
}

/// Writes `contents` to `path`, creating its directory; a failure ends
/// the run with exit 1 and names the path.
fn write_file(path: &str, contents: &str) {
    let dir = std::path::Path::new(path).parent();
    let result = dir
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = result {
        eprintln!("repro: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// What one run accumulates: the `EXPERIMENTS.md` text, the
/// paper-vs-measured rows, and the registry figures rendered so far.
/// Sections reach the record only through [`Report::section`].
struct Report {
    ctx: ExecCtx,
    write: bool,
    params: Vec<(&'static str, Params)>,
    md: String,
    comparisons: Vec<(String, Comparison)>,
    figures: Vec<Figure>,
}

impl Report {
    /// Prints one `EXPERIMENTS.md` section and appends it to the record,
    /// so stdout is exactly the sections `--write` files.
    fn section(&mut self, markdown: &str) {
        print!("{markdown}");
        self.md.push_str(markdown);
    }

    /// Runs one registered experiment with its scoped params, unless this
    /// run already has its figure: emits its section, collects its
    /// comparisons, and (with `--write`) files its JSON artifacts plus the
    /// machine-readable summary from `emit_json`.
    fn experiment(&mut self, name: &str) {
        if self.figures.iter().any(|f| f.name == name) {
            return;
        }
        let exp = experiment::find(name).expect("experiment is registered");
        let params = self
            .params
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| p)
            .expect("params are scoped for every selected experiment");
        let fig = exp.run_with(&self.ctx, params).unwrap_or_else(|msg| {
            eprintln!("{name}: {msg}");
            std::process::exit(2);
        });
        self.section(&fig.markdown);
        self.comparisons.extend(fig.comparisons.iter().cloned());
        if self.write {
            for (path, doc) in &fig.artifacts {
                write_file(path, &doc.to_string_pretty());
            }
            write_file(
                &format!("results/{}.summary.json", fig.name),
                &exp.emit_json(&fig).to_string_pretty(),
            );
        }
        self.figures.push(fig);
    }
}

/// `bench-check <report.json> <baseline.json> <max-regress-pct>`: fails
/// (exit 1) if any benchmark present in both reports has a mean more than
/// `max-regress-pct` percent slower than the baseline.
///
/// Exit codes: `0` all within bounds, `1` regression, `2` usage error or
/// no overlapping benchmarks, `3` a report/baseline file is absent or
/// malformed (the gate degrades gracefully — CI treats `3` as "nothing
/// to compare against", not as a crashed harness).
fn bench_check(args: &[String]) -> i32 {
    let (report_path, baseline_path, pct) = match args {
        [r, b, p] => match p.parse::<f64>() {
            Ok(pct) if pct >= 0.0 => (r, b, pct),
            _ => {
                eprintln!("bench-check: max-regress-pct must be a non-negative number");
                return 2;
            }
        },
        _ => {
            eprintln!("usage: repro bench-check <report.json> <baseline.json> <max-regress-pct>");
            return 2;
        }
    };
    let load = |path: &str| match tts_bench::baseline::load_report(path) {
        Ok(entries) => Some(entries),
        Err(msg) => {
            eprintln!("bench-check: {msg}");
            eprintln!("bench-check: skipping comparison (exit 3): record a fresh baseline to re-arm the gate");
            None
        }
    };
    let (Some(report), Some(baseline)) = (load(report_path), load(baseline_path)) else {
        return 3;
    };
    let mut checked = 0;
    let mut failures = 0;
    for (name, mean) in &report {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == name) else {
            continue;
        };
        checked += 1;
        let limit = base * (1.0 + pct / 100.0);
        let delta = (mean / base - 1.0) * 100.0;
        let ok = *mean <= limit;
        println!(
            "bench-check {:<48} {:>12.0} ns vs baseline {:>12.0} ns ({:+.1} %) {}",
            name,
            mean,
            base,
            delta,
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            failures += 1;
        }
    }
    if checked == 0 {
        eprintln!(
            "bench-check: no overlapping benchmarks between {report_path} and {baseline_path}"
        );
        return 2;
    }
    if failures > 0 {
        eprintln!("bench-check: {failures} of {checked} benchmarks regressed more than {pct} %");
        return 1;
    }
    println!("bench-check: all {checked} overlapping benchmarks within {pct} % of baseline");
    0
}

/// `chaos [--seeds N] [--seed 0xHEX] [--plan FILE] [--summary PATH]
/// [--no-storm] [--threads N]`: the fault-injection gate.
///
/// Without `--seed`, runs a batch of `--seeds` scenarios (default 16)
/// from the fixed base seed, then — unless `--no-storm` — drives the
/// connection-level storm against an embedded `ttsd` server, and writes
/// a byte-deterministic summary JSON (default
/// `results/chaos.summary.json`; only plan-determined storm fields are
/// included, so the file is `cmp`-identical at any `TTS_THREADS`).
///
/// With `--seed 0x…` (the one-liner printed for a failing seed), replays
/// exactly that scenario and prints its full report. `--plan FILE` runs
/// an explicit fault plan instead of sampling one.
///
/// Exit codes: `0` all invariants held, `1` violations (each with its
/// replay line), `2` usage error.
fn chaos(args: &[String]) -> i32 {
    use tts_chaos::{run_batch, run_plan, run_scenario, BatchConfig, FaultPlan};
    use tts_units::json::{FromJson, Json, ToJson};

    let mut seeds: usize = 16;
    let mut seed: Option<u64> = None;
    let mut plan_path: Option<String> = None;
    let mut summary_path = "results/chaos.summary.json".to_string();
    let mut storm = true;
    let parse_u64 = |raw: &str| -> Option<u64> {
        match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => raw.parse().ok(),
        }
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => seeds = n,
                _ => {
                    eprintln!("chaos: --seeds requires a positive integer");
                    return 2;
                }
            },
            "--seed" => match it.next().and_then(|v| parse_u64(v)) {
                Some(s) => seed = Some(s),
                None => {
                    eprintln!("chaos: --seed requires a decimal or 0x-hex integer");
                    return 2;
                }
            },
            "--plan" => match it.next() {
                Some(p) => plan_path = Some(p.clone()),
                None => {
                    eprintln!("chaos: --plan requires a file path");
                    return 2;
                }
            },
            "--summary" => match it.next() {
                Some(p) => summary_path = p.clone(),
                None => {
                    eprintln!("chaos: --summary requires an output path");
                    return 2;
                }
            },
            "--no-storm" => storm = false,
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => tts_exec::set_thread_override(Some(n)),
                _ => {
                    eprintln!("chaos: --threads requires a positive integer");
                    return 2;
                }
            },
            other => {
                eprintln!(
                    "chaos: unknown argument {other:?}\nusage: repro chaos [--seeds N] \
                     [--seed 0xHEX] [--plan FILE] [--summary PATH] [--no-storm] [--threads N]"
                );
                return 2;
            }
        }
    }

    let cfg = BatchConfig {
        seeds,
        ..BatchConfig::default()
    };
    let plan = match &plan_path {
        Some(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| format!("{e}"))
                .and_then(|text| {
                    tts_units::json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))
                })
                .and_then(|json| FaultPlan::from_json(&json).map_err(|e| e.to_string()));
            match doc {
                Ok(plan) => Some(plan),
                Err(msg) => {
                    eprintln!("chaos: cannot load plan {path}: {msg}");
                    return 2;
                }
            }
        }
        None => None,
    };

    // Single-scenario replay: the target of the printed one-liner.
    if seed.is_some() || plan.is_some() {
        let seed = seed.unwrap_or(0);
        let report = match &plan {
            Some(plan) => run_plan(seed, cfg.servers, plan),
            None => run_scenario(seed, cfg.servers),
        };
        println!("{}", report.to_json().to_string_pretty());
        if report.all_green() {
            println!(
                "chaos: seed {seed:#x} green ({} checks, {} faults)",
                report.checks,
                report.fault_counts.iter().map(|(_, c)| *c).sum::<u64>()
            );
            return 0;
        }
        eprintln!(
            "chaos: seed {seed:#x} violated {} invariant(s); replay with: {}",
            report.violations.len(),
            report.replay_command()
        );
        return 1;
    }

    // Batch mode: the CI gate.
    let summary = run_batch(&cfg);
    println!(
        "chaos: {} scenarios from base seed {:#x}: {} checks, {} violation(s)",
        summary.scenarios,
        summary.base_seed,
        summary.checks,
        summary.violations().len()
    );
    for (kind, count) in &summary.fault_counts {
        println!("chaos:   {kind:<22} {count}");
    }
    let storm_report = storm.then(|| {
        let report = tts_svc::run_storm(&tts_svc::default_storm());
        println!(
            "chaos: storm: {} clients answered, {} timed out, {} violation(s)",
            report.answered,
            report.timed_out,
            report.violations.len()
        );
        report
    });

    let mut doc = vec![("batch".to_string(), summary.to_json())];
    if let Some(report) = &storm_report {
        doc.push(("storm".to_string(), report.deterministic_json()));
    }
    let json = Json::Obj(doc).to_string_pretty();
    if let Some(dir) = std::path::Path::new(&summary_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&summary_path, &json) {
        eprintln!("chaos: cannot write {summary_path}: {e}");
        return 2;
    }
    println!("chaos: summary written to {summary_path}");

    let storm_failed = storm_report.as_ref().is_some_and(|r| !r.all_green());
    if summary.all_green() && !storm_failed {
        println!("chaos: all green");
        return 0;
    }
    if !summary.all_green() {
        eprintln!("chaos: failing seeds — replay each with:");
        for line in summary.replay_lines() {
            eprintln!("  {line}");
        }
    }
    if storm_failed {
        eprintln!("chaos: the connection storm found violations (see summary JSON)");
    }
    1
}

fn run_table1(r: &mut Report) {
    let rows = experiments::table1();
    let table = text_table(
        &[
            "PCM",
            "Melting Temp (°C)",
            "Heat of Fusion (J/g)",
            "Density (g/mL)",
            "Stability",
            "E. Conductive",
            "Corrosive",
            "DC-suitable",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.1}", r.melting_temp_c),
                    format!("{:.0}", r.heat_of_fusion_j_g),
                    format!("{:.2}", r.density_g_ml),
                    r.stability.clone(),
                    yesno(r.electrically_conductive),
                    yesno(r.corrosive),
                    yesno(r.datacenter_suitable),
                ]
            })
            .collect::<Vec<_>>(),
    );
    r.section(&format!(
        "## Table 1 — PCM comparison\n\nReproduced as a data table (paper values embedded); \
         only the paraffins pass the datacenter screen, as in §2.1.\n\n```text\n{table}```\n\n"
    ));
}

fn run_fig1(r: &mut Report) {
    let (no_wax, with_wax) = experiments::concept_figure();
    let chart = ascii_chart(
        &[("heat output", &no_wax), ("cooling load w/ PCM", &with_wax)],
        72,
        14,
    );
    r.section(&format!(
        "## Figure 1 — concept\n\nRendered from a real 1U cluster run (first day): the wax \
         flattens the daytime peak and returns the heat overnight.\n\n```text\n{chart}```\n\n"
    ));
}

fn run_fig4(r: &mut Report) {
    let v = validation::run(&ValidationConfig::default());
    let chart = ascii_chart(
        &[
            ("real wax", &v.real_wax),
            ("real placebo", &v.real_placebo),
            ("model wax", &v.icepak_wax),
            ("model placebo", &v.icepak_placebo),
        ],
        72,
        16,
    );
    // Figure 4 (c): per-sensor steady-state bars.
    let sensors = text_table(
        &["sensor", "Real °C", "Icepak °C", "Difference K"],
        &v.sensors
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    format!("{:.2}", s.real_c),
                    format!("{:.2}", s.icepak_c),
                    format!("{:+.2}", s.difference()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    r.comparisons.push((
        "Fig 4".into(),
        Comparison::new(
            "steady-state mean difference (abs)",
            0.22,
            v.steady_wax.mean_difference.abs(),
            "K",
        ),
    ));
    r.section(&format!(
        "## Figure 4 — model validation\n\nOur \"real server\" is a perturbed high-resolution \
         reference model with noisy sensors (see DESIGN.md). Four traces (temperatures near the \
         wax box):\n\n```text\n{chart}```\n\nSteady-state mean difference: wax {:+.2} K, \
         placebo {:+.2} K (paper: 0.22 °C). Transient correlation r = {:.3}.\n\n\
         Figure 4 (c) — per-sensor steady state while hot:\n\n```text\n{sensors}```\n\n",
        v.steady_wax.mean_difference, v.steady_placebo.mean_difference, v.transient_wax.correlation
    ));
}

fn run_fig10(r: &mut Report) {
    let trace = GoogleTrace::default_two_day();
    let total = trace.total();
    let pct: Vec<f64> = total.values().iter().map(|v| v * 100.0).collect();
    let chart = ascii_chart(&[("total load %", &pct)], 72, 12);
    r.section(&format!(
        "## Figure 10 — workload trace\n\nSynthetic two-day Google-like trace (three job \
         types), normalized to exactly 50 % mean / 95 % peak:\n\n```text\n{chart}```\n\n\
         Measured mean {:.1} %, peak {:.1} %.\n\n",
        total.mean() * 100.0,
        total.peak() * 100.0
    ));
}

fn run_table2(r: &mut Report) {
    let t = Table2::paper();
    let rows = vec![
        (
            "FacilitySpaceCapEx",
            t.facility_space_capex_per_sqft,
            "$/sq. ft.",
        ),
        ("UPSCapEx", t.ups_capex_per_server, "$/server"),
        ("PowerInfraCapEx", t.power_infra_capex_per_kw, "$/kWatt"),
        ("CoolingInfraCapEx", t.cooling_infra_capex_per_kw, "$/kWatt"),
        ("RestCapEx", t.rest_capex_per_kw, "$/kWatt"),
        ("DCInterest", t.dc_interest_per_kw, "$/kWatt"),
        ("ServerCapEx", t.server_capex_per_server, "$/server"),
        ("WaxCapEx", t.wax_capex_per_server, "$/server"),
        ("ServerInterest", t.server_interest_per_server, "$/server"),
        ("DatacenterOpEx", t.datacenter_opex_per_kw, "$/kWatt"),
        ("ServerEnergyOpEx", t.server_energy_opex_per_kw, "$/kWatt"),
        ("ServerPowerOpEx", t.server_power_opex_per_kw, "$/KWatt"),
        ("CoolingEnergyOpEx", t.cooling_energy_opex_per_kw, "$/kWatt"),
        ("RestOpEx", t.rest_opex_per_kw, "$/kWatt"),
    ];
    let table = text_table(
        &["Description", "TCO/month", "Unit"],
        &rows
            .iter()
            .map(|(n, r, u)| vec![n.to_string(), r.to_string(), u.to_string()])
            .collect::<Vec<_>>(),
    );
    r.section(&format!(
        "## Table 2 — TCO parameters\n\nEmbedded verbatim; the per-server rows are derived \
         from server price (price/48 months, price × 0.0055 interest) and reproduce the \
         printed bands.\n\n```text\n{table}```\n\n"
    ));
}

/// The §5 TCO tables, from the fig11/fig12 figures `tco` runs first.
fn run_tco(r: &mut Report) {
    let figure = |name: &str| {
        r.figures
            .iter()
            .find(|f| f.name == name)
            .expect("tco runs fig11 and fig12 first")
    };
    let (fig11, fig12) = (figure("fig11"), figure("fig12"));
    let mut md = String::from("## TCO analyses\n\n");
    let mut comparisons = Vec::new();
    for class in ServerClass::ALL {
        // The §5 analyses consume only the headline scalars, handed over
        // through the figures' key/value surface.
        let reduction = fig11
            .key_value(&format!("peak_reduction_frac.{class}"))
            .expect("fig11 reports a peak reduction per class");
        let gain = fig12
            .key_value(&format!("peak_gain_frac.{class}"))
            .expect("fig12 reports a peak gain per class");
        let s = experiments::tco_summary(class, Fraction::new(reduction), Fraction::new(gain));
        let _ = writeln!(
            md,
            "### {class}\n\nMeasured peak cooling-load reduction {:.1} %, peak throughput gain \
             {:.1} %.\n\n| metric | paper | measured | deviation |\n|---|---|---|---|",
            s.peak_reduction_pct,
            gain * 100.0
        );
        for c in [
            s.downsize_savings_per_year,
            s.added_servers,
            s.retrofit_savings_per_year,
            s.tco_efficiency_pct,
        ] {
            let _ = writeln!(md, "{}", comparison_row(&c));
            comparisons.push((format!("TCO {class}"), c));
        }
        md.push('\n');
    }
    r.comparisons.extend(comparisons);
    r.section(&md);
}

fn run_extensions(r: &mut Report) {
    use thermal_time_shifting::extensions::*;
    use thermal_time_shifting::{scenarios, Scenario};
    let class = ServerClass::LowPower1U;
    // The deployment, flash-crowd and lifetime studies share one sweep.
    let study = Scenario::new(class).cooling_load_study();
    let mut md = String::from("## Extension studies (beyond the paper)\n\n");

    // Figure 1's "additional advantages" are the scenario matrix's
    // (temperate, economizer, diurnal) cell: the first site, the first two
    // backends and the first trace cover it.
    let matrix = scenarios::run_matrix(&scenarios::MatrixConfig {
        sites: 1,
        backends: 2,
        traces: 1,
        ..scenarios::MatrixConfig::default()
    });
    let opex = matrix
        .cell("temperate", "economizer", "diurnal")
        .expect("the matrix prefix holds the temperate economizer cell");
    let _ = writeln!(
        md,
        "* **Cooling electricity** (tariff + temperate-climate economizer, 1U cluster): ${:.0}/yr → ${:.0}/yr with PCM ({:.2} % saved by shifting cooling work into cheap, cold nights — Figure 1's \"additional advantages\").",
        opex.cost_no_wax.value(),
        opex.cost_with_wax.value(),
        opex.delta_frac * 100.0
    );

    let reloc = relocation_study(class);
    let _ = writeln!(
        md,
        "* **Job relocation vs. wax** (§5.2's other lever, $0.12/server-hour WAN+SLA): ${:.0}/yr → ${:.0}/yr per oversubscribed cluster.",
        reloc.without_pcm_per_year.value(),
        reloc.with_pcm_per_year.value()
    );

    let _ = writeln!(
        md,
        "* **Rack-by-rack deployment** (fraction equipped → peak reduction):"
    );
    for p in partial_deployment_study(class, &study, 5) {
        let _ = writeln!(
            md,
            "  * {:.0} % equipped → {:.2} % peak reduction",
            p.equipped.percent(),
            p.peak_reduction.percent()
        );
    }

    let crowd = flash_crowd_study(class, &study);
    let _ = writeln!(
        md,
        "* **Flash crowd** (+20 % for 1 h on the daily peak): peak reduction {:.2} % calm → {:.2} % with the surge (re-optimized wax still absorbs most of it).",
        crowd.calm_reduction.percent(),
        crowd.surge_reduction.percent()
    );

    let life = lifetime_study(&study);
    let _ = writeln!(
        md,
        "* **Cycling endurance** (Table 1 stability made quantitative): the selected commercial paraffin keeps {:.1} % of its latent capacity after the 4-year server life and {:.1} % after the 10-year plant life; 80 % end-of-life is reached only after {} daily cycles.\n",
        life.capacity_after_server_life.percent(),
        life.capacity_after_plant_life.percent(),
        life.cycles_to_80pct
    );
    r.section(&md);
}

fn yesno(b: bool) -> String {
    if b {
        "Yes".into()
    } else {
        "No".into()
    }
}
