//! The epoch-sharded fleet engine: 1M+ servers across datacenters.
//!
//! The discrete engine ([`crate::discrete`]) replays individual jobs —
//! exact, but a million servers would mean billions of events. This
//! module trades job identity for scale the way the paper trades the
//! 1008-server cluster for a datacenter extrapolation, except the fleet
//! is simulated directly: per-server *fluid* state stepped in fixed
//! epochs. ROADMAP item #1 ("simulate the fleet directly") and the
//! geo-routing formulation of "Thermal-aware Workload Distribution for
//! Data Centers with Demand Variations" (arXiv 2308.12559) both live
//! here: each datacenter has its own tariff, ambient temperature, and
//! diurnal phase, and a deferrable share of work is routed toward cheap
//! cooling headroom each epoch.
//!
//! # State layout
//!
//! Struct-of-arrays, sharded: each `Shard` owns flat arrays —
//! `remaining` (backlog core-seconds, the remaining-work array),
//! `done`/`delay` (QoS accumulators) and `down` — for a contiguous run
//! of whole racks. Shards step in parallel over
//! [`tts_exec::par_map_mut`]; everything that crosses a shard boundary
//! (fault actions, the reroute pool, demand planning, per-DC accounting)
//! happens serially between epochs.
//!
//! # Determinism argument (thread- AND shard-invariance)
//!
//! 1. Per-server updates are pure functions of `(seed, global index,
//!    epoch, per-DC inputs, own state)` — no neighbour reads.
//! 2. Shard boundaries are snapped to rack boundaries, so per-rack
//!    partial sums accumulate over the same servers in the same order
//!    no matter how racks are grouped into shards.
//! 3. The merge folds rack partials in global rack order on the driver
//!    thread, and `par_map_mut` returns shard results in input order.
//!
//! Hence the result is byte-identical across `TTS_THREADS` *and* across
//! shard counts — `rack_size` is the real scheduling boundary, and the
//! regression tests below pin rack-aligned vs misaligned shard counts to
//! the same bytes. Fault actions from a [`FaultHook`] pass through a
//! [`CalendarQueue`], which quantizes them to the next epoch boundary in
//! deterministic `(time, insertion)` order.

use crate::calendar::CalendarQueue;
use crate::discrete::{FaultAction, FaultHook};
use tts_cooling::Tariff;
use tts_obs::{Counter, Gauge, MetricsSink};
use tts_units::{DollarsPerKwh, Seconds};
use tts_workload::TimeSeries;

/// Local hours of every site's peak-tariff window, `[start, end)`.
const PEAK_WINDOW_H: (f64, f64) = (8.0, 20.0);

/// One datacenter in the fleet: capacity plus the per-site economics the
/// geo-router trades against (tariff, ambient-driven cooling overhead,
/// diurnal phase).
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterSpec {
    /// Site name (report key).
    pub name: String,
    /// Servers at this site.
    pub servers: usize,
    /// Electricity price during local peak hours (08–20), $/kWh.
    pub tariff_peak_per_kwh: f64,
    /// Electricity price off-peak, $/kWh.
    pub tariff_offpeak_per_kwh: f64,
    /// Outside-air temperature, °C (drives the cooling overhead).
    pub ambient_c: f64,
    /// Local-time offset from the trace clock, hours (shifts both the
    /// diurnal demand phase and the tariff schedule).
    pub utc_offset_h: f64,
    /// Per-server idle power, W.
    pub idle_w: f64,
    /// Per-server power at full core occupancy, W.
    pub busy_w: f64,
}

impl DatacenterSpec {
    /// A site with `servers` machines and defaults: $0.10/$0.07 per kWh,
    /// 18 °C ambient, zero offset, 150 W idle / 300 W busy.
    pub fn new(name: &str, servers: usize) -> Self {
        Self {
            name: name.to_string(),
            servers,
            tariff_peak_per_kwh: 0.10,
            tariff_offpeak_per_kwh: 0.07,
            ambient_c: 18.0,
            utc_offset_h: 0.0,
            idle_w: 150.0,
            busy_w: 300.0,
        }
    }

    /// Sets the peak / off-peak electricity tariff ($/kWh).
    #[must_use]
    pub fn tariffs(mut self, peak: f64, offpeak: f64) -> Self {
        self.tariff_peak_per_kwh = peak;
        self.tariff_offpeak_per_kwh = offpeak;
        self
    }

    /// Sets the outside-air temperature (°C).
    #[must_use]
    pub fn ambient_c(mut self, c: f64) -> Self {
        self.ambient_c = c;
        self
    }

    /// Sets the local-time offset (hours).
    #[must_use]
    pub fn utc_offset_h(mut self, h: f64) -> Self {
        self.utc_offset_h = h;
        self
    }

    /// The tariff in force at trace time `t_s` (local peak = 08:00–20:00).
    pub fn tariff_at(&self, t_s: f64) -> f64 {
        let tariff = Tariff {
            peak_rate: DollarsPerKwh::new(self.tariff_peak_per_kwh),
            offpeak_rate: DollarsPerKwh::new(self.tariff_offpeak_per_kwh),
            peak_start_hour: PEAK_WINDOW_H.0,
            peak_end_hour: PEAK_WINDOW_H.1,
        };
        tariff
            .rate_at(Seconds::new(t_s + self.utc_offset_h * 3600.0))
            .value()
    }

    /// Cooling power as a fraction of IT power: 0.10 at ≤10 °C ambient,
    /// +0.015 per °C above that (free cooling degrades as it warms).
    pub fn cooling_overhead(&self) -> f64 {
        0.10 + 0.015 * (self.ambient_c - 10.0).max(0.0)
    }
}

tts_units::derive_json! {
    struct DatacenterSpec {
        name,
        servers,
        tariff_peak_per_kwh,
        tariff_offpeak_per_kwh,
        ambient_c,
        utc_offset_h,
        idle_w,
        busy_w,
    }
}

/// Builder for [`FleetSim`].
#[derive(Debug, Clone)]
#[must_use = "a fleet config does nothing until .build()"]
pub struct FleetConfig {
    datacenters: Vec<DatacenterSpec>,
    trace: TimeSeries,
    cores_per_server: usize,
    rack_size: usize,
    epoch: f64,
    shards: usize,
    seed: u64,
    deferrable_frac: f64,
    horizon: Option<f64>,
    metrics: MetricsSink,
}

impl FleetConfig {
    /// A fleet driven by `trace` (utilization of full core capacity,
    /// sampled per site at local time). Defaults: 16 cores/server, racks
    /// of 48, 60 s epochs, 8 shards, seed 42, 25% deferrable work,
    /// horizon = trace duration.
    pub fn new(trace: TimeSeries) -> Self {
        Self {
            datacenters: Vec::new(),
            trace,
            cores_per_server: 16,
            rack_size: 48,
            epoch: 60.0,
            shards: 8,
            seed: 42,
            deferrable_frac: 0.25,
            horizon: None,
            metrics: MetricsSink::default(),
        }
    }

    /// Adds a datacenter.
    pub fn datacenter(mut self, spec: DatacenterSpec) -> Self {
        self.datacenters.push(spec);
        self
    }

    /// Concurrent job slots per server (default 16).
    pub fn cores_per_server(mut self, cores: usize) -> Self {
        self.cores_per_server = cores;
        self
    }

    /// Servers per rack (default 48) — the sharding boundary: shard cuts
    /// are snapped to whole racks, which is what makes the result
    /// shard-count-invariant.
    pub fn rack_size(mut self, servers: usize) -> Self {
        self.rack_size = servers;
        self
    }

    /// Requested shard count (default 8; clamped to the rack count).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Seed for the per-server demand jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fraction of each site's demand the geo-router may move to another
    /// site (default 0.25; 0 disables routing).
    pub fn deferrable_frac(mut self, frac: f64) -> Self {
        self.deferrable_frac = frac;
        self
    }

    /// Simulated horizon (default: the trace duration; longer horizons
    /// wrap the trace).
    pub fn horizon(mut self, horizon: Seconds) -> Self {
        self.horizon = Some(horizon.value());
        self
    }

    /// Routes epoch-loop telemetry to `sink` (all deterministic — the
    /// control path is serial).
    pub fn metrics(mut self, sink: &MetricsSink) -> Self {
        self.metrics = sink.clone();
        self
    }

    /// Builds the simulator.
    ///
    /// # Panics
    /// Panics when no datacenter has servers, or cores / rack size /
    /// shards / deferrable fraction / trace are out of range.
    pub fn build(self) -> FleetSim {
        let total: usize = self.datacenters.iter().map(|d| d.servers).sum();
        assert!(total > 0, "fleet needs at least one server");
        assert!(self.cores_per_server > 0, "need at least one core");
        assert!(self.rack_size > 0, "need at least one server per rack");
        assert!(self.shards > 0, "need at least one shard");
        assert!(
            (0.0..=1.0).contains(&self.deferrable_frac),
            "deferrable fraction must be in [0, 1]"
        );
        assert!(!self.trace.is_empty(), "trace must offer some load");
        assert!(self.trace.peak() > 0.0, "trace must offer some load");

        // Racks never straddle a datacenter: each site's servers are cut
        // into rack_size chunks (last rack possibly partial).
        let mut racks: Vec<(u32, usize)> = Vec::new(); // (dc, servers)
        for (d, spec) in self.datacenters.iter().enumerate() {
            let mut left = spec.servers;
            while left > 0 {
                let n = left.min(self.rack_size);
                racks.push((d as u32, n));
                left -= n;
            }
        }
        // Shards are contiguous runs of whole racks; rack r goes to shard
        // ⌊r·S/R⌋ — deterministic, and grouping cannot change results
        // (see the module-level determinism argument).
        let effective = self.shards.min(racks.len());
        let mut shards: Vec<Shard> = Vec::with_capacity(effective);
        let mut base = 0usize;
        let mut rack_cursor = 0usize;
        for k in 0..effective {
            let hi = ((k + 1) * racks.len()).div_ceil(effective).min(racks.len());
            let mut shard_racks = Vec::new();
            let mut n = 0usize;
            let mut dc = Vec::new();
            for &(d, len) in &racks[rack_cursor..hi] {
                shard_racks.push(ShardRack {
                    start: n,
                    len,
                    dc: d,
                });
                dc.extend(std::iter::repeat_n(d, len));
                n += len;
            }
            rack_cursor = hi;
            shards.push(Shard {
                base,
                racks: shard_racks,
                dc,
                remaining: vec![0.0; n],
                done: vec![0.0; n],
                delay: vec![0.0; n],
                down: vec![false; n],
            });
            base += n;
        }
        debug_assert_eq!(base, total);

        let horizon = self.horizon.unwrap_or(self.trace.duration().value());
        assert!(horizon > 0.0, "horizon must be positive");
        let live: Vec<usize> = self.datacenters.iter().map(|d| d.servers).collect();
        let ndc = self.datacenters.len();
        FleetSim {
            obs: FleetObs::resolve(&self.metrics),
            datacenters: self.datacenters,
            trace: self.trace,
            cores: self.cores_per_server,
            epoch: self.epoch,
            seed: self.seed,
            deferrable_frac: self.deferrable_frac,
            horizon,
            shards,
            live,
            reroute_pool: vec![0.0; ndc],
            util_trace: vec![Vec::new(); ndc],
            control: CalendarQueue::new(),
            fault_hook: None,
            fault_events: 0,
            rescheduled_core_s: 0.0,
        }
    }
}

/// A contiguous run of whole racks within one shard.
#[derive(Debug)]
struct ShardRack {
    /// Offset of the rack's first server within the shard.
    start: usize,
    /// Servers in the rack.
    len: usize,
    /// Owning datacenter.
    dc: u32,
}

/// One shard: struct-of-arrays state for a contiguous run of whole racks.
#[derive(Debug)]
struct Shard {
    /// Global index of the shard's first server.
    base: usize,
    racks: Vec<ShardRack>,
    /// Per-server owning datacenter.
    dc: Vec<u32>,
    /// Remaining work (backlog), core-seconds.
    remaining: Vec<f64>,
    /// Work completed, core-seconds.
    done: Vec<f64>,
    /// ∫ backlog dt, core-seconds² (queueing-delay accumulator).
    delay: Vec<f64>,
    /// Down due to an injected fault.
    down: Vec<bool>,
}

/// Per-rack partial sums from one epoch step, merged serially in global
/// rack order.
#[derive(Debug, Clone, Copy)]
struct RackPartial {
    dc: u32,
    offered: f64,
    done: f64,
    backlog: f64,
    /// Rerouted work delivered out of the pool this epoch.
    delivered: f64,
}

impl Shard {
    /// Steps every live server one epoch. Pure per-server arithmetic —
    /// see the module-level determinism argument.
    fn step(
        &mut self,
        e: u64,
        dt: f64,
        cores: usize,
        seed: u64,
        fresh_per_core: &[f64],
        reroute_per_core: &[f64],
    ) -> Vec<RackPartial> {
        let cores_f = cores as f64;
        let cap = cores_f * dt;
        let mut out = Vec::with_capacity(self.racks.len());
        for rack in &self.racks {
            let mut p = RackPartial {
                dc: rack.dc,
                offered: 0.0,
                done: 0.0,
                backlog: 0.0,
                delivered: 0.0,
            };
            for i in rack.start..rack.start + rack.len {
                if self.down[i] {
                    continue;
                }
                let d = self.dc[i] as usize;
                let g = (self.base + i) as u64;
                let fresh = fresh_per_core[d] * cores_f * jitter(seed, g, e);
                let redo = reroute_per_core[d] * cores_f;
                let x = self.remaining[i] + fresh + redo;
                let done = x.min(cap);
                self.remaining[i] = x - done;
                self.done[i] += done;
                self.delay[i] += self.remaining[i] * dt;
                p.offered += fresh;
                p.done += done;
                p.backlog += self.remaining[i];
                p.delivered += redo;
            }
            out.push(p);
        }
        out
    }
}

/// Deterministic per-(seed, server, epoch) demand jitter in [0.75, 1.25)
/// — a splitmix64 finalizer, so servers decorrelate without any shared
/// RNG stream to order.
fn jitter(seed: u64, server: u64, epoch: u64) -> f64 {
    let mut z = seed
        ^ server.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ epoch.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    0.75 + 0.5 * ((z >> 11) as f64 / (1u64 << 53) as f64)
}

/// Resolved epoch-loop metric handles (no-ops without a sink). The
/// control path is serial, so everything registers deterministic.
#[derive(Debug, Clone, Default)]
struct FleetObs {
    epochs: Counter,
    kills: Counter,
    revives: Counter,
    servers_down: Gauge,
}

impl FleetObs {
    fn resolve(sink: &MetricsSink) -> Self {
        Self {
            epochs: sink.counter("fleet.epochs"),
            kills: sink.counter("fleet.fault.kills"),
            revives: sink.counter("fleet.fault.revives"),
            servers_down: sink.gauge("fleet.servers_down"),
        }
    }
}

/// Per-datacenter results of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct DcMetrics {
    /// Site name.
    pub name: String,
    /// Servers at the site.
    pub servers: usize,
    /// Mean utilization of full core capacity.
    pub mean_utilization: f64,
    /// Peak per-epoch utilization.
    pub peak_utilization: f64,
    /// IT energy, kWh.
    pub it_energy_kwh: f64,
    /// Cooling energy, kWh.
    pub cooling_energy_kwh: f64,
    /// Electricity cost (IT + cooling at the local tariff), $.
    pub energy_cost_usd: f64,
}

tts_units::derive_json! {
    struct DcMetrics {
        name,
        servers,
        mean_utilization,
        peak_utilization,
        it_energy_kwh,
        cooling_energy_kwh,
        energy_cost_usd,
    }
}

/// Aggregate metrics of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Fleet size.
    pub servers: usize,
    /// Epochs stepped.
    pub epochs: u64,
    /// Fresh work credited, core-seconds.
    pub offered_core_s: f64,
    /// Work completed, core-seconds.
    pub done_core_s: f64,
    /// Backlog at the end of the run, core-seconds.
    pub backlog_core_s: f64,
    /// Displaced work still waiting in the reroute pool, core-seconds.
    pub reroute_pool_core_s: f64,
    /// offered − done − backlog − pool (float residue of the ledger;
    /// deterministic, and ≈0 relative to offered).
    pub conservation_error_core_s: f64,
    /// Fleet-mean utilization of full core capacity.
    pub mean_utilization: f64,
    /// Largest total backlog seen at any epoch boundary, core-seconds.
    pub peak_backlog_core_s: f64,
    /// Mean queueing delay per unit of completed work, seconds
    /// (Little's law over the backlog integral).
    pub mean_delay_s: f64,
    /// Fault actions applied (kills + revives).
    pub fault_events: u64,
    /// Work displaced off killed servers, core-seconds.
    pub rescheduled_core_s: f64,
    /// Per-site breakdown, in configuration order.
    pub per_dc: Vec<DcMetrics>,
}

tts_units::derive_json! {
    struct FleetMetrics {
        servers,
        epochs,
        offered_core_s,
        done_core_s,
        backlog_core_s,
        reroute_pool_core_s,
        conservation_error_core_s,
        mean_utilization,
        peak_backlog_core_s,
        mean_delay_s,
        fault_events,
        rescheduled_core_s,
        per_dc,
    }
}

impl FleetMetrics {
    /// Simulated-servers × epochs — the work unit of the
    /// `BENCH_fleet.json` throughput metric (servers × steps / sec once
    /// divided by wall time).
    pub fn server_steps(&self) -> u64 {
        self.servers as u64 * self.epochs
    }
}

/// The epoch-sharded fleet simulator (see the module docs).
#[derive(Debug)]
pub struct FleetSim {
    datacenters: Vec<DatacenterSpec>,
    trace: TimeSeries,
    cores: usize,
    epoch: f64,
    seed: u64,
    deferrable_frac: f64,
    horizon: f64,
    shards: Vec<Shard>,
    /// Live (not-down) servers per datacenter.
    live: Vec<usize>,
    /// Work displaced off killed servers (or sites with no live
    /// capacity), waiting for delivery, core-seconds per datacenter.
    reroute_pool: Vec<f64>,
    /// Per-epoch utilization per datacenter.
    util_trace: Vec<Vec<f64>>,
    /// Fault actions quantized to the next epoch boundary, drained in
    /// deterministic (time, insertion) order.
    control: CalendarQueue<FaultAction>,
    fault_hook: Option<Box<dyn FaultHook>>,
    obs: FleetObs,
    fault_events: u64,
    rescheduled_core_s: f64,
}

impl FleetSim {
    /// Installs a fault hook; actions fire at the first epoch boundary at
    /// or after their requested time. Call before [`Self::run`].
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Fleet size.
    pub fn servers(&self) -> usize {
        self.shards.iter().map(|s| s.dc.len()).sum()
    }

    /// Number of shards after snapping to rack boundaries.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Servers currently down.
    pub fn servers_down(&self) -> usize {
        self.servers() - self.live.iter().sum::<usize>()
    }

    /// The recorded per-epoch utilization of datacenter `dc` (fraction of
    /// its full core capacity), available after [`Self::run`].
    pub fn utilization_trace(&self, dc: usize) -> Option<TimeSeries> {
        let values = self.util_trace.get(dc)?;
        if values.is_empty() {
            return None;
        }
        Some(TimeSeries::new(Seconds::new(self.epoch), values.clone()))
    }

    /// Applies one fault action (already quantized to an epoch boundary).
    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::KillServer(g) => {
                let Some((s, i)) = self.locate(g) else {
                    return;
                };
                if self.shards[s].down[i] {
                    return;
                }
                self.fault_events += 1;
                self.obs.kills.incr();
                let shard = &mut self.shards[s];
                shard.down[i] = true;
                let d = shard.dc[i] as usize;
                let displaced = shard.remaining[i];
                shard.remaining[i] = 0.0;
                self.reroute_pool[d] += displaced;
                self.rescheduled_core_s += displaced;
                self.live[d] -= 1;
            }
            FaultAction::ReviveServer(g) => {
                let Some((s, i)) = self.locate(g) else {
                    return;
                };
                if !self.shards[s].down[i] {
                    return;
                }
                self.fault_events += 1;
                self.obs.revives.incr();
                self.shards[s].down[i] = false;
                let d = self.shards[s].dc[i] as usize;
                self.live[d] += 1;
            }
        }
        self.obs.servers_down.set(self.servers_down() as f64);
    }

    /// Global server index → (shard, local index), or `None` when out of
    /// range.
    fn locate(&self, g: usize) -> Option<(usize, usize)> {
        let s = match self.shards.binary_search_by(|sh| sh.base.cmp(&g)) {
            Ok(s) => s,
            Err(0) => return None,
            Err(s) => s - 1,
        };
        let i = g - self.shards[s].base;
        (i < self.shards[s].dc.len()).then_some((s, i))
    }

    /// Runs the configured horizon and returns the aggregate metrics.
    pub fn run(&mut self) -> FleetMetrics {
        let dt = self.epoch;
        let cores_f = self.cores as f64;
        let ndc = self.datacenters.len();
        let epochs = (self.horizon / dt).ceil() as u64;
        let trace_len = self.trace.duration().value();

        let mut offered_total = 0.0f64;
        let mut peak_backlog = 0.0f64;
        let mut dc_done = vec![0.0f64; ndc];
        let mut dc_peak_util = vec![0.0f64; ndc];
        let mut dc_it_kwh = vec![0.0f64; ndc];
        let mut dc_cool_kwh = vec![0.0f64; ndc];
        let mut dc_cost = vec![0.0f64; ndc];

        for e in 0..epochs {
            let t0 = e as f64 * dt;
            self.obs.epochs.incr();

            // 1. Control: quantize hook actions due by t0 through the
            // calendar queue, then apply in (time, insertion) order.
            while let Some(tn) = self.fault_hook.as_ref().and_then(|h| h.next_time()) {
                if tn > t0 {
                    break;
                }
                let mut hook = self.fault_hook.take().expect("hook present");
                for action in hook.pop_actions(tn) {
                    self.control.push(tn, action);
                }
                assert!(
                    hook.next_time().is_none_or(|next| next > tn),
                    "fault hook must advance past {tn}"
                );
                self.fault_hook = Some(hook);
            }
            while self.control.peek_time().is_some_and(|t| t <= t0) {
                let (_, action) = self.control.pop().expect("peeked control event");
                self.apply_fault(action);
            }

            // 2. Demand: each site samples the diurnal trace at its own
            // local time (wrapping past the trace end).
            let mut planned = vec![0.0f64; ndc];
            for (d, spec) in self.datacenters.iter().enumerate() {
                let local = (t0 + spec.utc_offset_h * 3600.0).rem_euclid(trace_len);
                let util = self.trace.at(Seconds::new(local));
                planned[d] = util * (spec.servers * self.cores) as f64 * dt;
            }

            // 3. Geo-routing: the deferrable share chases cooling
            // headroom per unit cost (tariff × (1 + cooling overhead)).
            let frac = self.deferrable_frac;
            let mut flex_total = 0.0;
            let mut weights = vec![0.0f64; ndc];
            let mut weight_sum = 0.0;
            for d in 0..ndc {
                flex_total += planned[d] * frac;
                let live_cap = (self.live[d] * self.cores) as f64 * dt;
                let keep = planned[d] * (1.0 - frac);
                let headroom = (live_cap - keep).max(0.0);
                let spec = &self.datacenters[d];
                let cost = spec.tariff_at(t0) * (1.0 + spec.cooling_overhead());
                weights[d] = headroom / cost;
                weight_sum += weights[d];
            }
            let mut fresh_per_core = vec![0.0f64; ndc];
            let mut reroute_per_core = vec![0.0f64; ndc];
            for d in 0..ndc {
                let flex = if weight_sum > 0.0 {
                    flex_total * weights[d] / weight_sum
                } else {
                    planned[d] * frac
                };
                let assign = planned[d] * (1.0 - frac) + flex;
                offered_total += assign;
                let live_cores = (self.live[d] * self.cores) as f64;
                if live_cores > 0.0 {
                    fresh_per_core[d] = assign / live_cores;
                    if self.reroute_pool[d] > 0.0 {
                        reroute_per_core[d] = self.reroute_pool[d] / live_cores;
                    }
                } else {
                    // No live capacity: the site's work waits in the
                    // pool (still in the ledger, delivered on revival).
                    self.reroute_pool[d] += assign;
                }
            }

            // 4. Parallel shard step; results arrive in shard order.
            let seed = self.seed;
            let cores = self.cores;
            let partials = tts_exec::par_map_mut(&mut self.shards, |shard| {
                shard.step(e, dt, cores, seed, &fresh_per_core, &reroute_per_core)
            });

            // 5. Serial merge in global rack order.
            let mut epoch_done = vec![0.0f64; ndc];
            let mut backlog_now = 0.0f64;
            let mut jitter_residue = vec![0.0f64; ndc];
            for p in partials.iter().flatten() {
                let d = p.dc as usize;
                jitter_residue[d] += p.offered;
                self.reroute_pool[d] -= p.delivered;
                epoch_done[d] += p.done;
                backlog_now += p.backlog;
            }
            // The jitter makes per-server credits sum to slightly more or
            // less than the plan; keep the ledger honest by booking the
            // difference (deterministic: both sides are rack-order sums).
            for d in 0..ndc {
                if (self.live[d] * self.cores) > 0 {
                    let planned_credit = fresh_per_core[d] * (self.live[d] * self.cores) as f64;
                    offered_total += jitter_residue[d] - planned_credit;
                }
            }
            peak_backlog = peak_backlog.max(backlog_now);

            // 6. Per-site accounting at the local tariff.
            for d in 0..ndc {
                let spec = &self.datacenters[d];
                let busy_cores = epoch_done[d] / dt;
                let util = busy_cores / (spec.servers * self.cores) as f64;
                self.util_trace[d].push(util);
                dc_done[d] += epoch_done[d];
                dc_peak_util[d] = dc_peak_util[d].max(util);
                let it_w = self.live[d] as f64 * spec.idle_w
                    + busy_cores / cores_f * (spec.busy_w - spec.idle_w);
                let cool_w = it_w * spec.cooling_overhead();
                let it_kwh = it_w / 1000.0 * (dt / 3600.0);
                let cool_kwh = cool_w / 1000.0 * (dt / 3600.0);
                dc_it_kwh[d] += it_kwh;
                dc_cool_kwh[d] += cool_kwh;
                dc_cost[d] += (it_kwh + cool_kwh) * spec.tariff_at(t0);
            }
        }

        // Final sums walk servers in global order — shard grouping cannot
        // change the fold order.
        let mut done_total = 0.0;
        let mut backlog_total = 0.0;
        let mut delay_total = 0.0;
        for shard in &self.shards {
            for i in 0..shard.dc.len() {
                done_total += shard.done[i];
                backlog_total += shard.remaining[i];
                delay_total += shard.delay[i];
            }
        }
        let pool_total: f64 = self.reroute_pool.iter().sum();
        let servers = self.servers();
        let capacity = (servers * self.cores) as f64 * (epochs as f64 * dt);
        let per_dc = self
            .datacenters
            .iter()
            .enumerate()
            .map(|(d, spec)| DcMetrics {
                name: spec.name.clone(),
                servers: spec.servers,
                // An empty site has no capacity to divide by.
                mean_utilization: if spec.servers > 0 {
                    dc_done[d] / ((spec.servers * self.cores) as f64 * (epochs as f64 * dt))
                } else {
                    0.0
                },
                peak_utilization: dc_peak_util[d],
                it_energy_kwh: dc_it_kwh[d],
                cooling_energy_kwh: dc_cool_kwh[d],
                energy_cost_usd: dc_cost[d],
            })
            .collect();
        FleetMetrics {
            servers,
            epochs,
            offered_core_s: offered_total,
            done_core_s: done_total,
            backlog_core_s: backlog_total,
            reroute_pool_core_s: pool_total,
            conservation_error_core_s: offered_total - done_total - backlog_total - pool_total,
            mean_utilization: done_total / capacity,
            peak_backlog_core_s: peak_backlog,
            mean_delay_s: if done_total > 0.0 {
                delay_total / done_total
            } else {
                0.0
            },
            fault_events: self.fault_events,
            rescheduled_core_s: self.rescheduled_core_s,
            per_dc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_units::json::ToJson;

    fn diurnal(hours: usize) -> TimeSeries {
        TimeSeries::from_fn(Seconds::new(300.0), hours * 12, |t| {
            0.45 + 0.35 * (core::f64::consts::TAU * (t / 86_400.0 - 0.25)).sin()
        })
    }

    fn two_site_config(shards: usize, seed: u64) -> FleetConfig {
        FleetConfig::new(diurnal(24))
            .datacenter(
                DatacenterSpec::new("cold-cheap", 96)
                    .tariffs(0.06, 0.04)
                    .ambient_c(8.0),
            )
            .datacenter(
                DatacenterSpec::new("hot-pricey", 96)
                    .tariffs(0.14, 0.10)
                    .ambient_c(32.0)
                    .utc_offset_h(6.0),
            )
            .cores_per_server(4)
            .rack_size(16)
            .shards(shards)
            .seed(seed)
    }

    #[test]
    fn conserves_work() {
        let m = two_site_config(4, 7).build().run();
        assert!(m.offered_core_s > 0.0 && m.done_core_s > 0.0);
        assert!(
            m.conservation_error_core_s.abs() <= 1e-6 * m.offered_core_s.max(1.0),
            "ledger drift {} of {}",
            m.conservation_error_core_s,
            m.offered_core_s
        );
        assert!((0.0..=1.0).contains(&m.mean_utilization));
    }

    #[test]
    fn shard_count_cannot_change_bytes() {
        // 12 racks of 16: shards ∈ {1, 3} divide the racks evenly
        // (rack-aligned), {5, 7} do not (misaligned) — every grouping
        // must produce identical bytes. This is the rack_size-boundary
        // regression test.
        let baseline = two_site_config(1, 11).build().run();
        let baseline_json = baseline.to_json_string();
        for shards in [3usize, 5, 7, 12, 64] {
            let mut sim = two_site_config(shards, 11).build();
            assert!(sim.shard_count() <= 12);
            let m = sim.run();
            assert_eq!(m, baseline, "shards={shards}");
            assert_eq!(m.to_json_string(), baseline_json, "shards={shards}");
            for d in 0..2 {
                assert_eq!(
                    format!("{:?}", sim.utilization_trace(d)),
                    format!("{:?}", {
                        let mut s1 = two_site_config(1, 11).build();
                        s1.run();
                        s1.utilization_trace(d)
                    }),
                    "shards={shards} dc={d}"
                );
            }
        }
    }

    #[test]
    fn geo_router_prefers_cheap_cold_headroom() {
        let m = two_site_config(4, 3).build().run();
        let cold = &m.per_dc[0];
        let hot = &m.per_dc[1];
        assert!(
            cold.mean_utilization > hot.mean_utilization,
            "router should load the cheap/cold site: {} vs {}",
            cold.mean_utilization,
            hot.mean_utilization
        );
        // Same IT fleet, hotter site → more cooling energy per IT kWh.
        assert!(
            hot.cooling_energy_kwh / hot.it_energy_kwh
                > cold.cooling_energy_kwh / cold.it_energy_kwh
        );
    }

    /// Scheduled fault hook (same shape as the discrete-engine tests).
    #[derive(Debug)]
    struct Scheduled {
        faults: Vec<(f64, FaultAction)>,
        cursor: usize,
    }

    impl FaultHook for Scheduled {
        fn next_time(&self) -> Option<f64> {
            self.faults.get(self.cursor).map(|f| f.0)
        }

        fn pop_actions(&mut self, now: f64) -> Vec<FaultAction> {
            let mut actions = Vec::new();
            while let Some(&(t, a)) = self.faults.get(self.cursor) {
                if t > now {
                    break;
                }
                actions.push(a);
                self.cursor += 1;
            }
            actions
        }
    }

    #[test]
    fn faults_displace_and_conserve_work() {
        // Overloaded fleet (demand > capacity) so every server carries
        // backlog and kills genuinely displace work.
        let mut sim = FleetConfig::new(TimeSeries::new(Seconds::new(3600.0), vec![1.2; 24]))
            .datacenter(DatacenterSpec::new("a", 96))
            .datacenter(DatacenterSpec::new("b", 96).ambient_c(30.0))
            .cores_per_server(4)
            .rack_size(16)
            .shards(4)
            .seed(5)
            .build();
        sim.set_fault_hook(Box::new(Scheduled {
            faults: vec![
                (3600.0, FaultAction::KillServer(0)),
                (3600.0, FaultAction::KillServer(1)),
                (7200.0, FaultAction::ReviveServer(0)),
                (7200.0, FaultAction::KillServer(500)), // out of range: no-op
            ],
            cursor: 0,
        }));
        let m = sim.run();
        assert_eq!(m.fault_events, 3);
        assert!(m.rescheduled_core_s > 0.0, "killed servers held backlog");
        assert_eq!(sim.servers_down(), 1);
        assert!(m.conservation_error_core_s.abs() <= 1e-6 * m.offered_core_s);
    }

    #[test]
    fn faulted_runs_are_shard_invariant_too() {
        let run = |shards: usize| {
            let mut sim = two_site_config(shards, 9).build();
            sim.set_fault_hook(Box::new(Scheduled {
                faults: (0..24)
                    .map(|i| {
                        let t = 600.0 * (i as f64 + 1.0);
                        if i % 3 == 2 {
                            (t, FaultAction::ReviveServer(i % 7))
                        } else {
                            (t, FaultAction::KillServer(i % 7))
                        }
                    })
                    .collect(),
                cursor: 0,
            }));
            sim.run()
        };
        let a = run(1);
        let b = run(5);
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn whole_site_outage_parks_work_until_revival() {
        let mut cfg = FleetConfig::new(diurnal(24))
            .datacenter(DatacenterSpec::new("solo", 8))
            .cores_per_server(2)
            .rack_size(4)
            .shards(2)
            .deferrable_frac(0.0);
        cfg = cfg.seed(1);
        let mut sim = cfg.build();
        let mut faults: Vec<(f64, FaultAction)> = (0..8)
            .map(|s| (3600.0, FaultAction::KillServer(s)))
            .collect();
        faults.push((10_800.0, FaultAction::ReviveServer(3)));
        sim.set_fault_hook(Box::new(Scheduled { faults, cursor: 0 }));
        let m = sim.run();
        // Demand offered during the outage stayed in the ledger and was
        // (partly) worked off after the revival.
        assert!(m.conservation_error_core_s.abs() <= 1e-6 * m.offered_core_s);
        assert!(m.done_core_s > 0.0);
        assert_eq!(sim.servers_down(), 7);
    }

    #[test]
    fn telemetry_counts_epochs_and_faults() {
        let sink = MetricsSink::fresh();
        let mut sim = FleetConfig::new(diurnal(6))
            .datacenter(DatacenterSpec::new("a", 16))
            .cores_per_server(2)
            .rack_size(8)
            .metrics(&sink)
            .build();
        sim.set_fault_hook(Box::new(Scheduled {
            faults: vec![
                (600.0, FaultAction::KillServer(2)),
                (1200.0, FaultAction::ReviveServer(2)),
            ],
            cursor: 0,
        }));
        let m = sim.run();
        assert_eq!(sink.counter("fleet.epochs").value(), m.epochs);
        assert_eq!(sink.counter("fleet.fault.kills").value(), 1);
        assert_eq!(sink.counter("fleet.fault.revives").value(), 1);
    }

    #[test]
    fn horizon_wraps_the_trace() {
        let m = FleetConfig::new(diurnal(24))
            .datacenter(DatacenterSpec::new("a", 8))
            .cores_per_server(2)
            .rack_size(4)
            .horizon(Seconds::new(2.0 * 86_400.0))
            .build()
            .run();
        assert_eq!(m.epochs, 2 * 1440);
        assert!((0.0..=1.0).contains(&m.mean_utilization));
    }

    #[test]
    fn an_empty_site_reports_zero_utilization() {
        let m = FleetConfig::new(diurnal(1))
            .datacenter(DatacenterSpec::new("busy", 8))
            .datacenter(DatacenterSpec::new("empty", 0))
            .build()
            .run();
        assert!(m.per_dc[0].mean_utilization > 0.0);
        assert_eq!(m.per_dc[1].mean_utilization, 0.0);
        assert!(!m.to_json_string().contains("null"));
    }

    #[test]
    fn tariff_window_is_08_to_20_local_time_at_every_offset() {
        let (peak, offpeak) = (0.14, 0.06);
        for offset_h in [-8.0, 0.0, 5.5, 12.0] {
            let spec = DatacenterSpec::new("site", 1)
                .tariffs(peak, offpeak)
                .utc_offset_h(offset_h);
            // Trace time of a local clock reading on the trace's second day.
            let at = |h: f64, m: f64| 86_400.0 + h * 3600.0 + m * 60.0 - offset_h * 3600.0;
            for (t_s, want, label) in [
                (at(7.0, 59.0), offpeak, "07:59"),
                (at(8.0, 0.0), peak, "08:00"),
                (at(19.0, 59.0), peak, "19:59"),
                (at(20.0, 0.0), offpeak, "20:00"),
            ] {
                assert_eq!(spec.tariff_at(t_s), want, "{label} local at {offset_h:+} h");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_fleet_panics() {
        let _ = FleetConfig::new(diurnal(1)).build();
    }

    #[test]
    fn utilization_trace_shows_the_diurnal_phase_shift() {
        let mut sim = FleetConfig::new(diurnal(24))
            .datacenter(DatacenterSpec::new("east", 32))
            .datacenter(DatacenterSpec::new("west", 32).utc_offset_h(12.0))
            .cores_per_server(2)
            .rack_size(8)
            .deferrable_frac(0.0)
            .build();
        sim.run();
        let east = sim.utilization_trace(0).expect("recorded");
        let west = sim.utilization_trace(1).expect("recorded");
        let peak_gap = (east.peak_time().value() - west.peak_time().value()).abs() / 3600.0;
        // 12 h offset → peaks half a day apart (mod 24 h).
        assert!(
            (10.0..=14.0).contains(&peak_gap) || peak_gap <= 2.0 && east.len() < 24,
            "peak gap {peak_gap} h"
        );
    }
}
