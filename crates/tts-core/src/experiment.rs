//! The unified experiment API.
//!
//! Each registered experiment is an [`Experiment`]: a named unit that
//! runs against an [`ExecCtx`] (metrics sink + flush buffer) and returns a
//! [`Figure`] — its one human rendering (the `EXPERIMENTS.md` section,
//! which `repro` both prints and files), the paper-vs-measured
//! comparisons, the JSON artifacts to write, and the headline scalars
//! downstream analyses (TCO) consume. The harness dispatches by name via
//! [`find`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tts_dcsim::balancer::RoundRobin;
use tts_dcsim::cluster::{
    default_melting_candidates, melt_onset_load_fraction, select_melting_point, ClusterConfig,
};
use tts_dcsim::discrete;
use tts_obs::MetricsSink;
use tts_server::blockage::default_sweep;
use tts_server::ServerClass;
use tts_units::json::{Json, ToJson};
use tts_units::{Celsius, Seconds};
use tts_workload::{GoogleTrace, JobStream, JobType};

use crate::chart::ascii_chart;
use crate::experiments::{self, Comparison};
use crate::report::text_table;
use crate::scenario::{MeltingPointChoice, Scenario};

/// A cooperative cancellation token: cheap to clone, safe to poll from
/// any thread. The holder of one half (e.g. a job store answering
/// `DELETE /v1/jobs/{id}`) calls [`CancelToken::cancel`]; the running
/// experiment observes it at its next checkpoint — by construction the
/// periodic flush boundary, via [`ExecCtx::record_flush`] — and unwinds
/// with the [`CANCELLED`] sentinel payload.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The panic payload [`ExecCtx::check_cancel`] unwinds with. Runners that
/// `catch_unwind` an experiment downcast the payload to `&str` and compare
/// against this sentinel to tell a cancelled run from a crashed one.
pub const CANCELLED: &str = "tts-core: experiment run cancelled";

/// Whether a caught panic payload is the [`CANCELLED`] sentinel.
pub fn is_cancel_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<&str>()
        .is_some_and(|s| *s == CANCELLED)
        || payload
            .downcast_ref::<String>()
            .is_some_and(|s| s == CANCELLED)
}

/// A progress callback fired at every flush boundary with the simulated
/// time reached; see [`ExecCtx::on_progress`].
type ProgressFn = Box<dyn FnMut(Seconds) + Send>;

/// The execution context handed to every experiment: the metrics sink the
/// run reports into, the buffer periodic flushes land in, a cooperative
/// [`CancelToken`], and an optional progress callback.
///
/// Cloning is cheap and shares the registry, flush buffer, token, and
/// progress hook, so a clone can be moved into a long-lived callback
/// (e.g. the discrete simulator's flush hook) while the caller keeps
/// reading.
#[derive(Clone)]
pub struct ExecCtx {
    sink: MetricsSink,
    flushes: Arc<Mutex<Vec<Json>>>,
    cancel: CancelToken,
    progress: Arc<Mutex<Option<ProgressFn>>>,
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("sink", &self.sink)
            .field("cancelled", &self.cancel.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl ExecCtx {
    /// A context with telemetry off: every metric write is a no-op and
    /// [`Self::sidecar`] returns `None`.
    pub fn disabled() -> Self {
        Self {
            sink: MetricsSink::disabled(),
            flushes: Arc::new(Mutex::new(Vec::new())),
            cancel: CancelToken::new(),
            progress: Arc::new(Mutex::new(None)),
        }
    }

    /// A context backed by a fresh metrics registry.
    pub fn with_metrics() -> Self {
        Self {
            sink: MetricsSink::fresh(),
            ..Self::disabled()
        }
    }

    /// Attaches a cancellation token (builder-style). Clones made after
    /// this call share the token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The context's cancellation token (clone it to cancel from afar).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Installs a progress callback fired at every flush boundary with
    /// the simulated time reached — independent of whether telemetry is
    /// enabled, so a disabled-sink job run still streams progress.
    pub fn on_progress(&self, f: impl FnMut(Seconds) + Send + 'static) {
        *self.progress.lock().expect("progress hook lock") = Some(Box::new(f));
    }

    /// Cancellation checkpoint: unwinds with the [`CANCELLED`] sentinel
    /// payload if the token has been tripped. Called from
    /// [`Self::record_flush`], i.e. at every periodic flush boundary of a
    /// simulation run; experiments with natural checkpoints of their own
    /// may call it directly.
    pub fn check_cancel(&self) {
        if self.cancel.is_cancelled() {
            std::panic::panic_any(CANCELLED);
        }
    }

    /// The sink experiments report into.
    pub fn sink(&self) -> &MetricsSink {
        &self.sink
    }

    /// Whether telemetry is being collected.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// The periodic checkpoint wired into the discrete simulator's flush
    /// hook. In order: polls the cancel token (unwinding with the
    /// [`CANCELLED`] sentinel if tripped), fires the progress callback
    /// with `sim_time`, then — when telemetry is on — snapshots the
    /// registry and appends it to the flush buffer.
    pub fn record_flush(&self, sim_time: Seconds) {
        self.check_cancel();
        if let Some(f) = self.progress.lock().expect("progress hook lock").as_mut() {
            f(sim_time);
        }
        if let Some(snap) = self.sink.snapshot(Some(sim_time.value()), None) {
            self.flushes.lock().expect("flush buffer lock").push(snap);
        }
    }

    /// The flushes recorded so far, in order.
    pub fn flushes(&self) -> Vec<Json> {
        self.flushes.lock().expect("flush buffer lock").clone()
    }

    /// The metrics sidecar document: the final deterministic snapshot
    /// (stamped with the caller-supplied wall clock, if any) plus every
    /// periodic flush. `None` when telemetry is off.
    pub fn sidecar(&self, sim_time: Option<f64>, wall_unix: Option<f64>) -> Option<Json> {
        let snap = self.sink.snapshot(sim_time, wall_unix)?;
        Some(Json::Obj(vec![
            ("snapshot".to_string(), snap),
            ("flushes".to_string(), Json::Arr(self.flushes())),
        ]))
    }
}

pub use crate::params::{ParamKind, ParamSpec, Params};

/// What an experiment produced: everything the harness needs to print,
/// record, and chain into downstream analyses.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The experiment's dispatch name (e.g. `fig11`).
    pub name: String,
    /// Human title, carried in the JSON summary ([`Experiment::emit_json`]).
    pub title: String,
    /// The `EXPERIMENTS.md` section (charts, tables, prose): the only
    /// human rendering, printed by `repro` exactly as it is filed.
    pub markdown: String,
    /// Paper-vs-measured records, each with its context label
    /// (e.g. `("Fig 11a", …)`).
    pub comparisons: Vec<(String, Comparison)>,
    /// JSON artifacts to write on `--write`: `(relative path, document)`.
    pub artifacts: Vec<(String, Json)>,
    /// Headline scalars keyed by name, the hand-off surface between
    /// experiments (TCO reads Figure 11/12 headline numbers from here).
    pub key_values: Vec<(String, f64)>,
}

impl Figure {
    /// An empty figure with the given name and title.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            markdown: String::new(),
            comparisons: Vec::new(),
            artifacts: Vec::new(),
            key_values: Vec::new(),
        }
    }

    /// Looks up a headline scalar by key.
    pub fn key_value(&self, key: &str) -> Option<f64> {
        self.key_values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }
}

/// A named, self-rendering unit of the repro suite.
pub trait Experiment {
    /// The dispatch name (`repro <name>`).
    fn name(&self) -> &'static str;

    /// Runs the experiment, reporting telemetry into `ctx`. `params` is
    /// already checked against [`Self::schema`]; every unset parameter
    /// takes its schema default. Call [`Self::run_with`], which checks.
    fn execute(&self, ctx: &ExecCtx, params: &Params) -> Figure;

    /// The declarative schema of [`Params`] this experiment honours —
    /// names, value domains, defaults, and docs, all from one source of
    /// truth (see [`crate::params`]). `threads` is in every schema
    /// because the executor override is experiment-agnostic.
    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::BASE
    }

    /// Runs with caller-supplied overrides, erroring on any set parameter
    /// outside [`Self::schema`]. `params.threads` is *not* applied
    /// here — the caller owns the executor (see [`Params`]).
    fn run_with(&self, ctx: &ExecCtx, params: &Params) -> Result<Figure, String> {
        params.ensure_only(self.schema())?;
        Ok(self.execute(ctx, params))
    }

    /// Serializes a figure's machine-readable face: name, title, headline
    /// scalars, and comparisons. Override to emit richer documents.
    fn emit_json(&self, fig: &Figure) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(fig.name.clone())),
            ("title".to_string(), Json::Str(fig.title.clone())),
            (
                "key_values".to_string(),
                Json::Obj(
                    fig.key_values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "comparisons".to_string(),
                Json::Arr(
                    fig.comparisons
                        .iter()
                        .map(|(ctx, c)| {
                            Json::Obj(vec![
                                ("context".to_string(), Json::Str(ctx.clone())),
                                ("comparison".to_string(), c.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Every registered experiment, in suite order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Fig7Blockage),
        Box::new(Fig11CoolingLoad),
        Box::new(Fig12Constrained),
        Box::new(DcsimQos),
        Box::new(ChaosBatch),
        Box::new(FleetScale),
        Box::new(ScheduleOpt),
        Box::new(DesignSearch),
        Box::new(Scenarios),
    ]
}

/// Finds an experiment by dispatch name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// Figure 7: the airflow-blockage temperature sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig7Blockage;

impl Experiment for Fig7Blockage {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn execute(&self, ctx: &ExecCtx, _params: &Params) -> Figure {
        let mut fig = Figure::new("fig7", "Figure 7: temperatures vs. airflow blockage");
        fig.markdown
            .push_str("## Figure 7 — airflow blockage sweeps\n\n");
        // The classes run in turn, so each class's ten-point sweep gets
        // the whole width.
        for class in ServerClass::ALL {
            let rows = default_sweep(&class.spec(), ctx.sink());
            let table_rows: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.0}%", r.blockage.percent()),
                        format!("{:.1}", r.outlet.value()),
                        format!("{:.1}", r.wax_zone.value()),
                        r.sockets
                            .iter()
                            .map(|t| format!("{:.0}", t.value()))
                            .collect::<Vec<_>>()
                            .join("/"),
                        format!("{:.1}", r.flow.cfm()),
                    ]
                })
                .collect();
            let table = text_table(
                &[
                    "blockage",
                    "outlet °C",
                    "wax zone °C",
                    "sockets °C",
                    "flow CFM",
                ],
                &table_rows,
            );
            fig.markdown
                .push_str(&format!("### {class}\n\n```text\n{table}```\n\n"));
            if class == ServerClass::LowPower1U {
                let rise = rows[9].outlet.value() - rows[0].outlet.value();
                fig.comparisons.push((
                    "Fig 7a".into(),
                    Comparison::new("1U outlet rise 0→90 % blockage", 14.0, rise, "K"),
                ));
                fig.key_values.push(("outlet_rise_1u_k".into(), rise));
            }
            if class == ServerClass::OpenComputeBlade {
                let baseline = rows[0].outlet.value();
                fig.comparisons.push((
                    "Fig 7c".into(),
                    Comparison::new("OCP baseline outlet", 68.0, baseline, "°C"),
                ));
                fig.key_values
                    .push(("ocp_baseline_outlet_c".into(), baseline));
            }
        }
        fig
    }
}

/// Figure 11: the fully-subscribed cooling-load study, all three classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig11CoolingLoad;

impl Experiment for Fig11CoolingLoad {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::FIG11
    }

    /// The study at `servers` (default: the paper's 1008) and, with
    /// `melt_temp_c`, a fixed melting point instead of the catalogue grid
    /// search. The paper comparison stays attached — under overrides it
    /// reads as "how far this what-if lands from the published figure".
    fn execute(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let servers = params.servers.unwrap_or(1008);
        let mut fig = Figure::new(
            "fig11",
            "Figure 11: cluster cooling load, fully subscribed cooling",
        );
        fig.markdown
            .push_str("## Figure 11 — peak cooling-load reduction\n\n");
        for (panel, class) in ["a", "b", "c"].iter().zip(ServerClass::ALL) {
            let mut scenario = Scenario::new(class).metrics(ctx.sink()).servers(servers);
            if let Some(t) = params.melt_temp_c {
                scenario = scenario.melting_point(MeltingPointChoice::Fixed(Celsius::new(t)));
            }
            let study = scenario.cooling_load_study();
            let peak_reduction = Comparison::new(
                "peak cooling-load reduction",
                experiments::paper_fig11_reduction(class),
                study.run.peak_reduction.percent(),
                "%",
            );
            let chart = ascii_chart(
                &[
                    ("cooling load", &study.run.load_no_wax_kw),
                    ("load with PCM", &study.run.load_with_wax_kw),
                ],
                72,
                12,
            );
            fig.markdown.push_str(&format!(
                "### ({panel}) {class}\n\n```text\n{chart}```\n\nPeak {} kW → {} kW: **{:.1} % reduction** (paper: {:.1} %), wax = {}, melt onset at {:.0} % load, refreeze tail ≈ {:.1} h/day (paper: 6–9 h).\n\n",
                peak_kw(study.run.peak_no_wax.value()),
                peak_kw(study.run.peak_with_wax.value()),
                peak_reduction.measured,
                peak_reduction.paper,
                study.material.name(),
                melt_onset_load_fraction(&ClusterConfig {
                    spec: scenario.spec(),
                    servers,
                    chars: study.chars.clone(),
                }) * 100.0,
                study.run.elevated_hours / 2.0
            ));
            fig.comparisons
                .push((format!("Fig 11{panel}"), peak_reduction));
            fig.artifacts
                .push((format!("results/fig11{panel}.json"), study.run.to_json()));
            fig.key_values.push((
                format!("peak_reduction_frac.{class}"),
                study.run.peak_reduction.value(),
            ));
        }
        fig
    }
}

/// A cluster peak for the Figure 11 prose: whole kilowatts, or two
/// decimals below 10 kW so a small cluster's peaks stay readable.
fn peak_kw(kw: f64) -> String {
    if kw < 10.0 {
        format!("{kw:.2}")
    } else {
        format!("{kw:.0}")
    }
}

/// Figure 12: the thermally constrained throughput study, all three
/// classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig12Constrained;

impl Experiment for Fig12Constrained {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn execute(&self, ctx: &ExecCtx, _params: &Params) -> Figure {
        let mut fig = Figure::new(
            "fig12",
            "Figure 12: throughput in a thermally constrained datacenter",
        );
        fig.markdown.push_str(
            "## Figure 12 — constrained throughput\n\n\
             A tick counts as boosted when the with-wax throughput exceeds the no-wax peak \
             by more than 0.1 % (`norm_base × 1.001` in `dcsim::throttle`); each panel's \
             boosted hours are those ticks' hours over the two-day trace, halved to a day, \
             set next to the paper's hours.\n\n",
        );
        for (panel, class) in ["a", "b", "c"].iter().zip(ServerClass::ALL) {
            let study = Scenario::new(class).metrics(ctx.sink()).constrained_study();
            let (paper_gain, paper_hours) = experiments::paper_fig12(class);
            let peak_gain = Comparison::new(
                "peak throughput gain",
                paper_gain,
                study.run.peak_gain * 100.0,
                "%",
            );
            // The paper reports hours of elevated throughput per day; the
            // trace covers two days.
            let boost_hours = Comparison::new(
                "hours of boosted throughput (per day)",
                paper_hours,
                study.run.boosted_hours / 2.0,
                "h",
            );
            let chart = ascii_chart(
                &[
                    ("ideal", &study.run.ideal),
                    ("no wax", &study.run.no_wax),
                    ("with wax", &study.run.with_wax),
                ],
                72,
                12,
            );
            fig.markdown.push_str(&format!(
                "### ({panel}) {class}\n\n```text\n{chart}```\n\nPeak throughput gain **{:.1} %** (paper: {:.1} %); throttle onset delayed {:.2} h; boosted {:.1} h/day (paper: {:.1} h); wax = {}.\n\n",
                peak_gain.measured,
                peak_gain.paper,
                study.run.delay_hours,
                boost_hours.measured,
                boost_hours.paper,
                study.material.name()
            ));
            fig.comparisons.push((format!("Fig 12{panel}"), peak_gain));
            fig.comparisons
                .push((format!("Fig 12{panel}"), boost_hours));
            fig.artifacts
                .push((format!("results/fig12{panel}.json"), study.run.to_json()));
            fig.key_values
                .push((format!("peak_gain_frac.{class}"), study.run.peak_gain));
        }
        fig
    }
}

/// The discrete job-level cluster simulation: runs two days of
/// MapReduce-class jobs through the event-driven simulator and reports
/// QoS. The event loop streams telemetry into the context's sink and
/// flushes a registry snapshot every six simulated hours.
#[derive(Debug, Clone, Copy, Default)]
pub struct DcsimQos;

impl Experiment for DcsimQos {
    fn name(&self) -> &'static str {
        "dcsim"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::DCSIM
    }

    /// The simulation at a job-stream seed and cluster size (defaults:
    /// seed 17, 32 servers).
    fn execute(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let seed = params.seed.unwrap_or(17);
        let servers = params.servers.unwrap_or(32);
        let trace = GoogleTrace::default_two_day();
        // The engine reads the stream as it generates: the job list is
        // never held whole, only counted.
        let mut jobs = JobStream::new(trace.total().clone(), JobType::MapReduce, servers, seed);
        let mut offered = 0usize;
        let mut sim = discrete::ClusterConfig::new(servers)
            .rack_size(8)
            .metrics(ctx.sink())
            .build(RoundRobin::new());
        let flush_ctx = ctx.clone();
        sim.set_periodic_flush(Seconds::new(6.0 * 3600.0), move |t| {
            flush_ctx.record_flush(t)
        });
        let m = sim.run(
            jobs.by_ref().inspect(|_| offered += 1),
            trace.total().duration(),
        );
        let offered = offered + jobs.count();

        let mut fig = Figure::new(
            "dcsim",
            "Discrete cluster simulation: job-level QoS (two-day trace)",
        );
        let table = text_table(
            &["metric", "value"],
            &[
                vec!["jobs offered".into(), format!("{offered}")],
                vec!["jobs completed".into(), format!("{}", m.completed)],
                vec!["in flight at end".into(), format!("{}", m.in_flight)],
                vec![
                    "mean response".into(),
                    format!("{:.1} s", m.mean_response_s),
                ],
                vec!["p95 response".into(), format!("{:.1} s", m.p95_response_s)],
                vec![
                    "cluster utilization".into(),
                    format!("{:.1} %", m.cluster_utilization * 100.0),
                ],
                vec![
                    "throughput".into(),
                    format!("{:.2} jobs/s", m.throughput_jobs_per_s),
                ],
            ],
        );
        fig.markdown.push_str(&format!(
            "## Discrete simulation — job-level QoS\n\n{servers} servers behind a round-robin \
             balancer serve two days of MapReduce-class jobs offered along the Figure 10 \
             trace.\n\n```text\n{table}```\n\n"
        ));
        fig.key_values = vec![
            ("completed".into(), m.completed as f64),
            ("mean_response_s".into(), m.mean_response_s),
            ("p95_response_s".into(), m.p95_response_s),
            ("cluster_utilization".into(), m.cluster_utilization),
            ("throughput_jobs_per_s".into(), m.throughput_jobs_per_s),
        ];
        fig
    }
}

/// The chaos batch: N seeded fault-injection scenarios, every invariant
/// checked, failing seeds reported with their replay one-liners.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosBatch;

impl Experiment for ChaosBatch {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::CHAOS
    }

    /// Runs the batch and renders the roll-up (`repro chaos` files the
    /// full summary JSON itself).
    fn execute(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let mut cfg = tts_chaos::BatchConfig::default();
        if let Some(seed) = params.seed {
            cfg.base_seed = seed;
        }
        if let Some(seeds) = params.seeds {
            cfg.seeds = seeds;
        }
        if let Some(servers) = params.servers {
            cfg.servers = servers;
        }
        let summary = tts_chaos::run_batch(&cfg);
        ctx.sink()
            .counter("chaos.scenarios")
            .add(summary.scenarios as u64);
        ctx.sink().counter("chaos.checks").add(summary.checks);
        ctx.sink()
            .counter("chaos.violations")
            .add(summary.violations().len() as u64);

        let mut fig = Figure::new("chaos", "Chaos batch: seeded fault-injection scenarios");
        let mut rows = vec![
            vec!["scenarios".into(), format!("{}", summary.scenarios)],
            vec!["invariant checks".into(), format!("{}", summary.checks)],
            vec![
                "violations".into(),
                format!("{}", summary.violations().len()),
            ],
        ];
        for (kind, count) in &summary.fault_counts {
            rows.push(vec![format!("faults: {kind}"), format!("{count}")]);
        }
        let table = text_table(&["metric", "value"], &rows);
        fig.markdown.push_str(&format!(
            "## Chaos batch — seeded fault injection\n\n{} scenarios sampled from base seed \
             {:#x}; every scenario injects a typed fault plan into the cluster, thermal, \
             cooling, and workload layers and checks invariants after every event.\n\n\
             ```text\n{table}```\n\n",
            summary.scenarios, summary.base_seed
        ));
        if !summary.all_green() {
            fig.markdown
                .push_str("Replay the failing seeds with:\n\n```text\n");
            for line in summary.replay_lines() {
                fig.markdown.push_str(&format!("{line}\n"));
            }
            fig.markdown.push_str("```\n\n");
        }
        fig.key_values = vec![
            ("scenarios".into(), summary.scenarios as f64),
            ("checks".into(), summary.checks as f64),
            ("violations".into(), summary.violations().len() as f64),
            ("failing_seeds".into(), summary.failing_seeds.len() as f64),
        ];
        fig
    }
}

/// The fleet-scale experiment: a million servers across several
/// datacenters stepped by the epoch-sharded engine for a two-day diurnal
/// trace, with per-site tariff/ambient economics and geo-routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetScale;

/// The fixed site catalogue the `datacenters` parameter draws from, in
/// order: `(name, peak $/kWh, off-peak $/kWh, ambient °C, UTC offset h)`.
const FLEET_SITES: &[(&str, f64, f64, f64, f64)] = &[
    ("us-east", 0.11, 0.07, 18.0, -5.0),
    ("eu-north", 0.09, 0.06, 8.0, 1.0),
    ("ap-south", 0.13, 0.09, 30.0, 5.5),
    ("us-west", 0.15, 0.10, 22.0, -8.0),
    ("sa-east", 0.12, 0.08, 26.0, -3.0),
    ("eu-west", 0.10, 0.07, 12.0, 0.0),
    ("ap-north", 0.16, 0.11, 16.0, 9.0),
    ("af-south", 0.11, 0.08, 24.0, 2.0),
];

impl Experiment for FleetScale {
    fn name(&self) -> &'static str {
        "fleet"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::FLEET
    }

    /// Runs the fleet (defaults: 1,000,000 servers over 4 catalogue
    /// sites, 256 shards, seed 42, the full two-day trace) and renders
    /// the per-site economics table.
    fn execute(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let servers = params.servers.unwrap_or(1_000_000);
        let sites = params.datacenters.unwrap_or(4).min(FLEET_SITES.len());
        let trace = GoogleTrace::default_two_day().total().clone();
        let horizon = params
            .horizon_h
            .map(|h| Seconds::new(h * 3600.0))
            .unwrap_or_else(|| trace.duration());
        let mut cfg = tts_dcsim::FleetConfig::new(trace)
            .cores_per_server(16)
            .rack_size(48)
            .shards(params.shards.unwrap_or(256))
            .seed(params.seed.unwrap_or(42))
            .horizon(horizon)
            .metrics(ctx.sink());
        for (d, &(name, peak, offpeak, ambient, offset)) in
            FLEET_SITES.iter().take(sites).enumerate()
        {
            let share = servers / sites + usize::from(d < servers % sites);
            cfg = cfg.datacenter(
                tts_dcsim::DatacenterSpec::new(name, share)
                    .tariffs(peak, offpeak)
                    .ambient_c(ambient)
                    .utc_offset_h(offset),
            );
        }
        let mut sim = cfg.build();
        let m = sim.run();

        let mut fig = Figure::new(
            "fleet",
            "Fleet scale: epoch-sharded engine across datacenters",
        );
        let mut rows: Vec<Vec<String>> = m
            .per_dc
            .iter()
            .map(|dc| {
                vec![
                    dc.name.clone(),
                    format!("{}", dc.servers),
                    format!("{:.1} %", dc.mean_utilization * 100.0),
                    format!("{:.1} %", dc.peak_utilization * 100.0),
                    format!("{:.1}", dc.it_energy_kwh / 1000.0),
                    format!("{:.1}", dc.cooling_energy_kwh / 1000.0),
                    format!("{:.1}", dc.energy_cost_usd / 1000.0),
                ]
            })
            .collect();
        let cost_usd: f64 = m.per_dc.iter().map(|d| d.energy_cost_usd).sum();
        let cooling_kwh: f64 = m.per_dc.iter().map(|d| d.cooling_energy_kwh).sum();
        let it_kwh: f64 = m.per_dc.iter().map(|d| d.it_energy_kwh).sum();
        rows.push(vec![
            "TOTAL".into(),
            format!("{}", m.servers),
            format!("{:.1} %", m.mean_utilization * 100.0),
            String::new(),
            format!("{:.1}", it_kwh / 1000.0),
            format!("{:.1}", cooling_kwh / 1000.0),
            format!("{:.1}", cost_usd / 1000.0),
        ]);
        let table = text_table(
            &[
                "site",
                "servers",
                "mean util",
                "peak util",
                "IT MWh",
                "cool MWh",
                "cost k$",
            ],
            &rows,
        );
        fig.markdown.push_str(&format!(
            "## Fleet scale — epoch-sharded engine\n\n{} servers across {} sites stepped in \
             {} epochs by the struct-of-arrays fleet engine; the deferrable quarter of each \
             site's diurnal demand chases cheap cooling headroom across timezones. Byte-identical \
             at any `TTS_THREADS` and any shard count.\n\n```text\n{table}```\n\n\
             {} shards, 60-s epochs: mean delay {:.2} s, {} fault events, ledger residue \
             {:.3e} core-s.\n\n",
            m.servers,
            sites,
            m.epochs,
            sim.shard_count(),
            m.mean_delay_s,
            m.fault_events,
            m.conservation_error_core_s,
        ));
        fig.key_values = vec![
            ("servers".into(), m.servers as f64),
            ("epochs".into(), m.epochs as f64),
            ("server_steps".into(), m.server_steps() as f64),
            ("mean_utilization".into(), m.mean_utilization),
            ("mean_delay_s".into(), m.mean_delay_s),
            ("energy_cost_usd".into(), cost_usd),
            ("cooling_energy_kwh".into(), cooling_kwh),
            (
                "conservation_error_core_s".into(),
                m.conservation_error_core_s,
            ),
        ];
        fig.artifacts
            .push(("results/fleet.json".into(), m.to_json()));
        fig
    }
}

/// The receding-horizon PCM/job co-optimizer: jointly schedules
/// deferrable job tranches, PCM charge/discharge, and grid draw under
/// the time-of-use tariff, and reports the energy bill against the
/// passive paper configuration on the identical diurnal trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleOpt;

impl Experiment for ScheduleOpt {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::SCHEDULE
    }

    /// Runs the co-optimizer (defaults: the paper's 1008 servers, 24 h
    /// horizon + 3 h extension, 15-min slots, four delay classes) and
    /// renders the optimized-vs-passive comparison.
    fn execute(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let mut cfg = tts_opt::ScheduleConfig::default();
        if let Some(seed) = params.seed {
            cfg.seed = seed;
        }
        if let Some(servers) = params.servers {
            cfg.servers = servers;
        }
        if let Some(h) = params.horizon_h {
            cfg.horizon_h = h;
        }
        if let Some(m) = params.slot_min {
            cfg.slot_min = m as f64;
        }
        if let Some(t) = params.tranches {
            cfg.tranches = t;
        }
        let out = tts_opt::run_schedule(&cfg, ctx.sink());
        ctx.check_cancel();

        let mut fig = Figure::new(
            "schedule",
            "Schedule: receding-horizon PCM/job co-optimizer vs. passive wax",
        );
        let chart = ascii_chart(
            &[
                ("passive chiller load", &out.load_passive_kw),
                ("optimized chiller load", &out.load_optimized_kw),
            ],
            72,
            12,
        );
        let table = text_table(
            &["metric", "passive", "optimized"],
            &[
                vec![
                    "energy bill".into(),
                    format!("${:.2}", out.cost_passive_usd),
                    format!("${:.2}", out.cost_optimized_usd),
                ],
                vec![
                    "capacity-overload slots".into(),
                    format!("{}", out.overload_slots_passive),
                    format!("{}", out.overload_slots),
                ],
            ],
        );
        fig.markdown.push_str(&format!(
            "## Schedule — receding-horizon co-optimizer\n\nEvery hour a bounded-variable \
             simplex re-plans the next {:.0} h + {:.0} h: which deferrable tranches \
             (30/60/120/180-min classes, a quarter of offered load) run now vs. later, and \
             how hard to charge or discharge the wax, minimizing the time-of-use energy \
             bill subject to job-conservation, state-of-charge, cooling-capacity, and \
             deadline constraints. The baseline is the paper's passive configuration on the \
             identical trace.\n\n```text\n{chart}```\n\n```text\n{table}```\n\nSavings \
             **${:.2}** ({:.2} %), {:.1} kWh executed off-schedule, {} deadline misses.\n\n\
             {} servers, {} slots of {:.0} min, {} delay classes: {} plans ({} fallbacks), \
             {} simplex iterations, conservation residue {:.3e} kWh.\n\n",
            cfg.horizon_h,
            cfg.extension_h,
            out.savings_usd,
            out.savings_frac * 100.0,
            out.deferred_energy_kwh,
            out.deadline_misses,
            cfg.servers,
            out.slots,
            cfg.slot_min,
            cfg.tranches,
            out.plans,
            out.fallback_plans,
            out.simplex_iterations,
            out.conservation_error_kwh,
        ));
        fig.key_values = vec![
            ("cost_passive_usd".into(), out.cost_passive_usd),
            ("cost_optimized_usd".into(), out.cost_optimized_usd),
            ("savings_usd".into(), out.savings_usd),
            ("savings_frac".into(), out.savings_frac),
            ("deferred_energy_kwh".into(), out.deferred_energy_kwh),
            ("simplex_iterations".into(), out.simplex_iterations as f64),
            ("plans".into(), out.plans as f64),
            ("fallback_plans".into(), out.fallback_plans as f64),
            ("deadline_misses".into(), out.deadline_misses as f64),
            ("final_soc".into(), out.final_soc),
        ];
        fig.artifacts
            .push(("results/schedule.json".into(), out.to_json()));
        fig
    }
}

/// The surrogate-driven design search: the paper's melting-point space
/// solved by screened CMA-ES in a tenth of the grid's simulator
/// evaluations, cross-checked against the wax that fig11's exhaustive
/// sweep ([`select_melting_point`]) picks for the same cluster, plus a
/// joint search over server class × melting point × wax mass × tariff
/// phase × ambient offset that the grid could never afford (the full
/// lattice has ~10⁶ points).
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignSearch;

impl Experiment for DesignSearch {
    fn name(&self) -> &'static str {
        "design"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::DESIGN
    }

    fn execute(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        use crate::design::{self, SearchConfig};

        let servers = params.servers.unwrap_or(1008);
        let seed = params.seed.unwrap_or(42);
        let budget = params.budget.unwrap_or(7);
        let generations = params.generations.unwrap_or(40);

        // Paper space: the fig11 1U configuration, searched by CMA-ES and
        // then checked against the wax fig11's own exhaustive sweep picks.
        let class = ServerClass::LowPower1U;
        let scenario = crate::Scenario::new(class).servers(servers);
        let config = scenario.cluster();
        let trace = GoogleTrace::default_two_day().total().clone();

        let cmaes_cfg = SearchConfig {
            seed,
            budget,
            max_generations: generations,
            ..SearchConfig::default()
        };
        let d = design::search_melting_point(&config, &trace, &cmaes_cfg, ctx.sink());
        ctx.check_cancel();

        let candidates = default_melting_candidates();
        let grid_evals = candidates.len();
        let (grid_material, grid_run) =
            select_melting_point(&config, &trace, candidates, ctx.sink());
        ctx.check_cancel();
        let grid_melt_c = grid_material.melting_point().value();
        let grid_peak_kw = grid_run.peak_with_wax.value();
        let matches = d.best_x[0].to_bits() == grid_melt_c.to_bits()
            && d.best_value.to_bits() == grid_peak_kw.to_bits();

        // Joint space: the design problem the paper leaves open. 8× the
        // paper-space budget is still ~10⁴× smaller than its full lattice.
        let joint_obj = design::JointObjective::paper_default(servers);
        let joint_cfg = SearchConfig {
            seed,
            budget: budget * 8,
            max_generations: generations,
            screen: 2,
        };
        let j = design::minimize(&joint_obj.space(), &joint_obj, &joint_cfg, ctx.sink());
        ctx.check_cancel();
        let jb = &j.best_out;
        let joint_finite = j.trace.iter().all(|v| v.is_finite()) && j.best_value.is_finite();
        let joint_delta = match (j.trace.first(), j.trace.last()) {
            (Some(first), Some(last)) => first - last,
            _ => f64::NAN,
        };

        let mut fig = Figure::new(
            "design",
            "Design: surrogate-driven search vs. the exhaustive grid",
        );
        let table = text_table(
            &["search", "melt °C", "objective", "sim evals", "memo hits"],
            &[
                vec![
                    "cmaes+surrogate".into(),
                    format!("{:.1}", d.best_x[0]),
                    format!("{:.3} kW", d.best_value),
                    format!("{}", d.evals),
                    format!("{}", d.memo_hits),
                ],
                vec![
                    "exhaustive grid".into(),
                    format!("{grid_melt_c:.1}"),
                    format!("{grid_peak_kw:.3} kW"),
                    format!("{grid_evals}"),
                    "-".into(),
                ],
            ],
        );
        fig.markdown.push_str(&format!(
            "## Design — surrogate-driven search\n\nThe `tts-design` optimizer (LHS seeding, \
             (μ/μ_w, λ)-CMA-ES, RBF-surrogate expected-improvement screening, lattice polish) \
             replays the paper's melting-point selection with a budget of **{budget}** \
             simulator evaluations against the {grid_evals} of fig11's exhaustive sweep, and \
             is checked against the wax that sweep picks.\n\n\
             ```text\n{table}```\n\nPaper space: {class}, {servers} servers, seed {seed}; \
             the search ran {} generations with {} surrogate fits. Optimum match: **{}**. \
             The joint search then explores \
             class × melting point × wax mass × tariff phase × ambient offset \
             (≈ 10⁶ lattice points) in {} evaluations: best time-of-use cooling cost \
             **${:.2}** at {} / {:.1} °C / {:.2}× mass / {:+.0} h tariff shift / \
             {:+.1} °C ambient.\n\n",
            d.generations,
            d.surrogate_fits,
            if matches { "exact" } else { "MISMATCH" },
            j.evals,
            jb.cost_usd,
            jb.class,
            jb.melt_c,
            jb.mass_mult,
            jb.tariff_phase_h,
            jb.ambient_off_c,
        ));
        fig.comparisons.push((
            "Fig 11a".into(),
            Comparison::new(
                "1U peak reduction at the design optimum",
                experiments::paper_fig11_reduction(class),
                d.best_out.peak_reduction.percent(),
                "%",
            ),
        ));
        fig.key_values = vec![
            (
                "design_matches_grid".into(),
                if matches { 1.0 } else { 0.0 },
            ),
            ("design_evals".into(), d.evals as f64),
            ("grid_evals".into(), grid_evals as f64),
            ("design_memo_hits".into(), d.memo_hits as f64),
            ("design_generations".into(), d.generations as f64),
            ("design_surrogate_fits".into(), d.surrogate_fits as f64),
            ("design_melt_c".into(), d.best_x[0]),
            ("design_peak_with_wax_kw".into(), d.best_value),
            ("grid_melt_c".into(), grid_melt_c),
            (
                "design_peak_reduction_pct".into(),
                d.best_out.peak_reduction.percent(),
            ),
            ("joint_evals".into(), j.evals as f64),
            ("joint_cost_usd".into(), jb.cost_usd),
            ("joint_melt_c".into(), jb.melt_c),
            ("joint_mass_mult".into(), jb.mass_mult),
            ("joint_tariff_phase_h".into(), jb.tariff_phase_h),
            ("joint_ambient_off_c".into(), jb.ambient_off_c),
            (
                "joint_trace_finite".into(),
                if joint_finite { 1.0 } else { 0.0 },
            ),
            ("joint_trace_delta_usd".into(), joint_delta),
        ];
        let num_arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        fig.artifacts.push((
            "results/design.json".into(),
            Json::Obj(vec![
                (
                    "paper_space".to_string(),
                    Json::Obj(vec![
                        ("class".to_string(), Json::Str(class.to_string())),
                        ("servers".to_string(), Json::Num(servers as f64)),
                        ("seed".to_string(), Json::Num(seed as f64)),
                        ("best_melt_c".to_string(), Json::Num(d.best_x[0])),
                        ("best_peak_with_wax_kw".to_string(), Json::Num(d.best_value)),
                        (
                            "peak_reduction".to_string(),
                            Json::Num(d.best_out.peak_reduction.value()),
                        ),
                        ("evals".to_string(), Json::Num(d.evals as f64)),
                        ("memo_hits".to_string(), Json::Num(d.memo_hits as f64)),
                        ("generations".to_string(), Json::Num(d.generations as f64)),
                        (
                            "surrogate_fits".to_string(),
                            Json::Num(d.surrogate_fits as f64),
                        ),
                        ("matches_grid".to_string(), Json::Bool(matches)),
                        ("grid_evals".to_string(), Json::Num(grid_evals as f64)),
                        ("grid_melt_c".to_string(), Json::Num(grid_melt_c)),
                        ("trace".to_string(), num_arr(&d.trace)),
                    ]),
                ),
                (
                    "joint".to_string(),
                    Json::Obj(vec![
                        ("best".to_string(), jb.to_json()),
                        ("evals".to_string(), Json::Num(j.evals as f64)),
                        ("generations".to_string(), Json::Num(j.generations as f64)),
                        (
                            "surrogate_fits".to_string(),
                            Json::Num(j.surrogate_fits as f64),
                        ),
                        ("trace".to_string(), num_arr(&j.trace)),
                    ]),
                ),
            ]),
        ));
        fig
    }
}

/// The scenario matrix: cooling backend × climate site × demand trace,
/// each cell a full cooling-load study billed under the paper tariff and
/// the site's seeded weather year.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scenarios;

impl Experiment for Scenarios {
    fn name(&self) -> &'static str {
        "scenarios"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::SCENARIOS
    }

    /// Runs the matrix (defaults: all 3 sites × all 3 backends × all 4
    /// traces, weather seed 42) and renders the per-cell TCO deltas.
    fn execute(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let mut cfg = crate::scenarios::MatrixConfig::default();
        if let Some(sites) = params.sites {
            cfg.sites = sites;
        }
        if let Some(backends) = params.backends {
            cfg.backends = backends;
        }
        if let Some(traces) = params.traces {
            cfg.traces = traces;
        }
        if let Some(seed) = params.seed {
            cfg.seed = seed;
        }
        let matrix = crate::scenarios::run_matrix(&cfg);
        ctx.check_cancel();
        ctx.sink()
            .counter("scenarios.cells")
            .add(matrix.cells.len() as u64);

        let mut fig = Figure::new(
            "scenarios",
            "Scenarios: cooling backend × climate site × demand trace",
        );
        let rows: Vec<Vec<String>> = matrix
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.site.clone(),
                    c.backend.clone(),
                    c.trace.clone(),
                    format!("{:.0}", c.cost_no_wax.value()),
                    format!("{:.0}", c.cost_with_wax.value()),
                    format!("{:+.2} %", c.delta_frac * 100.0),
                    if c.reuse_credit.value() > 0.0 {
                        format!("{:.0}", c.reuse_credit.value())
                    } else {
                        "-".into()
                    },
                ]
            })
            .collect();
        let table = text_table(
            &[
                "site",
                "backend",
                "trace",
                "no wax $/yr",
                "with wax $/yr",
                "PCM Δ",
                "reuse $/yr",
            ],
            &rows,
        );
        fig.markdown.push_str(&format!(
            "## Scenario matrix — backend × site × trace\n\nEach cell re-runs the Figure 11 \
             cooling-load study on its demand trace (wax melting point re-optimized per \
             trace), then bills the with-wax and no-wax load series through its cooling \
             backend — the paper's fixed-COP chiller, an airside economizer whose COP \
             follows the site's seeded weather year, or an iDataCool-style hot-water loop \
             whose 60 °C outlet earns an energy-reuse credit — under the paper's \
             time-of-use tariff. {} cells ({} sites × {} backends × {} traces), weather seed \
             {}.\n\n```text\n{table}```\n\nHot-water energy reuse strictly lowers the bill on \
             **{}** of the matrix's hot-water cells.\n\n",
            matrix.cells.len(),
            cfg.sites.min(tts_cooling::Site::ALL.len()),
            cfg.backends.min(crate::scenarios::BACKENDS.len()),
            cfg.traces.min(crate::scenarios::TRACES.len()),
            cfg.seed,
            matrix.hotwater_reuse_win_cells,
        ));
        fig.key_values = vec![
            ("cells".into(), matrix.cells.len() as f64),
            (
                "hotwater_reuse_win_cells".into(),
                matrix.hotwater_reuse_win_cells as f64,
            ),
        ];
        for c in &matrix.cells {
            fig.key_values.push((
                format!("delta_usd.{}.{}.{}", c.site, c.backend, c.trace),
                c.delta.value(),
            ));
        }
        fig.artifacts
            .push(("results/scenarios.json".into(), matrix.to_json()));
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_dispatches_by_name() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "fig7",
                "fig11",
                "fig12",
                "dcsim",
                "chaos",
                "fleet",
                "schedule",
                "design",
                "scenarios"
            ]
        );
        assert!(find("fig11").is_some());
        assert!(find("fig99").is_none());
    }

    #[test]
    fn disabled_ctx_has_no_sidecar() {
        let ctx = ExecCtx::disabled();
        ctx.record_flush(Seconds::new(60.0));
        assert!(ctx.flushes().is_empty());
        assert!(ctx.sidecar(None, None).is_none());
    }

    #[test]
    fn dcsim_experiment_reports_qos_and_flushes() {
        let ctx = ExecCtx::with_metrics();
        let fig = DcsimQos.run_with(&ctx, &Params::default()).unwrap();
        assert!(fig.key_value("completed").expect("completed") > 1000.0);
        assert!(fig.key_value("cluster_utilization").expect("util") > 0.2);
        // Two simulated days at a six-hour flush cadence.
        let flushes = ctx.flushes();
        assert!(
            (7..=9).contains(&flushes.len()),
            "expected ~8 flushes, got {}",
            flushes.len()
        );
        // Flushes carry simulated timestamps; the sidecar wraps them.
        let first = &flushes[0];
        assert_eq!(
            first.get("sim_time_s").and_then(|v| v.as_f64()),
            Some(6.0 * 3600.0)
        );
        let sidecar = ctx.sidecar(None, Some(1.75e9)).expect("enabled");
        assert!(sidecar.get("snapshot").is_some());
        assert!(sidecar.get("flushes").is_some());
        let text = sidecar.to_string_pretty();
        let parsed = tts_units::json::parse(&text).expect("round-trips");
        assert_eq!(parsed, sidecar);
    }

    #[test]
    fn params_parse_validate_and_reject_unknown_keys() {
        use tts_units::json::parse;
        let all = crate::params::ALL;
        let p = Params::from_json(&parse(r#"{"threads":4,"seed":99}"#).unwrap(), all).unwrap();
        assert_eq!(p.threads, Some(4));
        assert_eq!(p.seed, Some(99));
        assert_eq!(p.set_fields(), vec!["threads", "seed"]);
        let empty = Params::from_json(&parse("{}").unwrap(), all).unwrap();
        assert_eq!(empty, Params::default());
        for bad in [
            r#"{"thread":4}"#,         // unknown key
            r#"{"threads":0}"#,        // below range
            r#"{"threads":1.5}"#,      // not an integer
            r#"{"threads":"4"}"#,      // wrong type
            r#"{"servers":0}"#,        // below range
            r#"{"melt_temp_c":200}"#,  // out of physical range
            r#"{"melt_temp_c":null}"#, // NaN-ish
            "[1]",                     // not an object
        ] {
            assert!(
                Params::from_json(&parse(bad).unwrap(), all).is_err(),
                "{bad} should be rejected"
            );
        }
        // Parsing is schema-scoped: a parameter another experiment owns
        // is *unknown* here, and the error names only this schema's
        // params.
        let err = Params::from_json(&parse(r#"{"shards":8}"#).unwrap(), Fig7Blockage.schema())
            .unwrap_err();
        assert!(
            err.contains("unknown parameter \"shards\"") && err.contains("threads"),
            "{err}"
        );
        assert!(!err.contains("shards, "), "{err}");
    }

    #[test]
    fn schedule_experiment_honours_params_and_reports_savings() {
        let ctx = ExecCtx::disabled();
        // A short horizon and coarse slots keep the debug-mode LP small;
        // the full default is exercised in release by the CI gate.
        let fig = ScheduleOpt
            .run_with(
                &ctx,
                &Params {
                    servers: Some(96),
                    horizon_h: Some(2.0),
                    slot_min: Some(30),
                    tranches: Some(2),
                    seed: Some(7),
                    ..Params::default()
                },
            )
            .expect("supported params");
        assert!(fig.markdown.contains("96 servers"));
        assert!(fig.key_value("plans").expect("plans") > 0.0);
        assert_eq!(fig.key_value("deadline_misses"), Some(0.0));
        assert!(fig.key_value("savings_usd").expect("savings") > 0.0);
        // The fleet engine's shard count means nothing to the scheduler.
        let err = ScheduleOpt
            .run_with(
                &ctx,
                &Params {
                    shards: Some(8),
                    ..Params::default()
                },
            )
            .unwrap_err();
        assert!(err.contains("shards"), "{err}");
    }

    #[test]
    fn run_with_rejects_unsupported_params() {
        let ctx = ExecCtx::disabled();
        let seeded = Params {
            seed: Some(1),
            ..Params::default()
        };
        // fig7 only honours `threads`; a seed must be refused, not ignored.
        let err = Fig7Blockage.run_with(&ctx, &seeded).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn fig11_prints_small_cluster_peaks_to_two_decimals() {
        // One 1U server peaks near 0.18 kW: whole kilowatts would print
        // "Peak 0 kW → 0 kW".
        let fig = Fig11CoolingLoad
            .run_with(
                &ExecCtx::disabled(),
                &Params {
                    servers: Some(1),
                    ..Params::default()
                },
            )
            .expect("supported params");
        let peaks: Vec<&str> = fig
            .markdown
            .split("Peak ")
            .skip(1)
            .map(|rest| rest.split(" kW:").next().expect("peak pair"))
            .collect();
        assert_eq!(peaks.len(), 3, "{}", fig.markdown);
        for pair in peaks {
            let (no_wax, with_wax) = pair.split_once(" kW → ").expect("two peaks");
            for kw in [no_wax, with_wax] {
                let decimals = kw.split_once('.').map_or(0, |(_, d)| d.len());
                assert_eq!(decimals, 2, "{pair}");
                assert!(kw.parse::<f64>().expect("a number") > 0.0, "{pair}");
            }
            assert_ne!(no_wax, with_wax, "the wax must shave a visible amount");
        }
    }

    #[test]
    fn dcsim_honours_seed_and_servers_params() {
        let ctx = ExecCtx::disabled();
        let small = DcsimQos
            .run_with(
                &ctx,
                &Params {
                    servers: Some(8),
                    seed: Some(3),
                    ..Params::default()
                },
            )
            .expect("supported params");
        let default = DcsimQos.run_with(&ctx, &Params::default()).unwrap();
        // A quarter of the cluster completes measurably less of the offered
        // load than the full one (the sections render the sizes too).
        assert!(small.markdown.contains("8 servers"));
        assert!(default.markdown.contains("32 servers"));
        assert!(small.key_value("completed").unwrap() < default.key_value("completed").unwrap());
    }

    #[test]
    fn fleet_experiment_honours_scale_params() {
        let ctx = ExecCtx::disabled();
        let fig = FleetScale
            .run_with(
                &ctx,
                &Params {
                    servers: Some(2_000),
                    shards: Some(8),
                    datacenters: Some(2),
                    horizon_h: Some(1.0),
                    seed: Some(7),
                    ..Params::default()
                },
            )
            .expect("supported params");
        assert_eq!(fig.key_value("servers"), Some(2_000.0));
        assert_eq!(fig.key_value("epochs"), Some(60.0));
        assert_eq!(fig.key_value("server_steps"), Some(120_000.0));
        let util = fig.key_value("mean_utilization").expect("util");
        assert!((0.0..=1.0).contains(&util), "{util}");
        assert!(fig.markdown.contains("us-east") && fig.markdown.contains("eu-north"));
        // The wax melting point means nothing to the fleet engine.
        let err = FleetScale
            .run_with(
                &ctx,
                &Params {
                    melt_temp_c: Some(50.0),
                    ..Params::default()
                },
            )
            .unwrap_err();
        assert!(err.contains("melt_temp_c"), "{err}");
    }

    #[test]
    fn scenarios_experiment_honours_prefix_params() {
        let ctx = ExecCtx::disabled();
        let fig = Scenarios
            .run_with(
                &ctx,
                &Params {
                    sites: Some(1),
                    backends: Some(3),
                    traces: Some(1),
                    seed: Some(42),
                    ..Params::default()
                },
            )
            .expect("supported params");
        assert_eq!(fig.key_value("cells"), Some(3.0));
        assert!(fig.key_value("hotwater_reuse_win_cells").unwrap() >= 1.0);
        assert!(fig
            .key_value("delta_usd.temperate.chiller.diurnal")
            .is_some());
        // The fleet engine's shard count means nothing to the matrix.
        let err = Scenarios
            .run_with(
                &ctx,
                &Params {
                    shards: Some(8),
                    ..Params::default()
                },
            )
            .unwrap_err();
        assert!(err.contains("shards"), "{err}");
    }

    #[test]
    fn default_emit_json_carries_key_values() {
        let mut fig = Figure::new("fig7", "t");
        fig.key_values.push(("x".into(), 1.5));
        fig.comparisons
            .push(("Fig 7a".into(), Comparison::new("m", 1.0, 2.0, "K")));
        let doc = Fig7Blockage.emit_json(&fig);
        assert_eq!(
            doc.get("key_values")
                .and_then(|kv| kv.get("x"))
                .and_then(|v| v.as_f64()),
            Some(1.5)
        );
        assert!(doc.get("comparisons").is_some());
    }
}
