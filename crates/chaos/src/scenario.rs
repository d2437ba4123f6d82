//! One seeded chaos scenario: sample a plan, inject it through every
//! hook layer, check invariants after every event/step.
//!
//! A scenario is four phases over the same [`FaultPlan`]:
//!
//! 1. **Cluster** — the dcsim event loop under server kills/flaps and
//!    workload bursts/dropouts ([`tts_dcsim::discrete::FaultHook`]).
//! 2. **Thermal** — a PCM-backed server rig stepped through fan
//!    failures, blockage spikes and sensor faults
//!    ([`tts_thermal::BoundaryFault`]).
//! 3. **Cooling** — room ride-through under plant outages/deratings
//!    ([`tts_cooling::DegradedCooling`]).
//! 4. **Workload** — seeded trace generation, JSON round-trip and
//!    non-negativity.
//! 5. **Schedule** — the receding-horizon PCM/job co-optimizer
//!    (`tts_opt`) re-planning through the plan's cooling deratings and
//!    workload bursts; the controller must stay feasible (no deadline
//!    misses, work conserved, SOC in bounds) or degrade gracefully.
//! 6. **Backend** — the alternative cooling backends (economizer with a
//!    generated weather series, hot-water loop with energy reuse) under
//!    the plan's damper jams, pump derates and reuse dropouts: faulted
//!    bills must bracket between nominal and worst-case, credits must
//!    stay physical, and pump derates must never lengthen ride-through.
//!
//! Everything is a pure function of `(seed, config)`; reports are
//! byte-deterministic, which is what makes `repro chaos --seed 0x…`
//! replays exact.

use crate::fault::{Fault, FaultPlan, PlanConfig};
use crate::invariant::{Checker, Violation};
use tts_cooling::emergency::{ride_through, DegradedCooling, RoomModel};
use tts_dcsim::balancer::LeastLoaded;
use tts_dcsim::discrete::{ClusterConfig, FaultAction, FaultHook};
use tts_dcsim::fleet::{DatacenterSpec, FleetConfig};
use tts_obs::MetricsSink;
use tts_pcm::{PcmMaterial, PcmState};
use tts_rng::{Normal, SeedableRng, Xoshiro256pp};
use tts_thermal::{BoundaryControls, ThermalNetwork};
use tts_units::json::{FromJson, Json, ToJson};
use tts_units::{
    air_heat_capacity_flow, Celsius, CubicMetersPerSecond, Grams, Joules, JoulesPerKelvin, Seconds,
    Watts, WattsPerKelvin,
};
use tts_workload::google::GoogleTraceConfig;
use tts_workload::{GoogleTrace, JobStream, JobType, TimeSeries};

/// Scenario shape knobs (plan sampling derives from these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Cluster size for the dcsim phase.
    pub servers: usize,
    /// Cores per server.
    pub cores: usize,
    /// Scenario window, seconds.
    pub window_s: f64,
    /// Baseline offered utilization before workload faults.
    pub base_util: f64,
    /// Upper bound on sampled faults per plan.
    pub max_faults: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            servers: 4,
            cores: 2,
            window_s: 3_600.0,
            base_util: 0.55,
            max_faults: 10,
        }
    }
}

tts_units::derive_json! { struct ScenarioConfig { servers, cores, window_s, base_util, max_faults } }

impl ScenarioConfig {
    /// The plan-sampling knobs this scenario shape implies.
    pub fn plan_config(&self) -> PlanConfig {
        PlanConfig {
            window_s: self.window_s,
            servers: self.servers,
            max_faults: self.max_faults,
        }
    }
}

/// The deterministic outcome of one seeded scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The scenario seed (sole source of randomness).
    pub seed: u64,
    /// Invariant checks performed.
    pub checks: u64,
    /// Invariant violations (empty on a green run).
    pub violations: Vec<Violation>,
    /// Faults in the sampled plan, by kind (taxonomy order).
    pub fault_counts: Vec<(String, u64)>,
    /// Jobs completed in the cluster phase.
    pub completed: u64,
    /// Jobs re-dispatched after server kills.
    pub rescheduled: u64,
    /// Stale completions discarded after server kills.
    pub stale_completions: u64,
    /// Kill/revive actions the simulator actually applied.
    pub fault_events: u64,
}

impl ScenarioReport {
    /// Did every invariant hold?
    pub fn all_green(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-line replay command for this seed.
    pub fn replay_command(&self) -> String {
        replay_command(self.seed)
    }
}

/// The one-line replay command for a failing seed — printed in failure
/// reports so a violation reproduces from a copy-paste.
pub fn replay_command(seed: u64) -> String {
    format!("repro chaos --seed {seed:#x}")
}

impl ToJson for ScenarioReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("checks".to_string(), Json::Num(self.checks as f64)),
            ("violations".to_string(), self.violations.to_json()),
            (
                "fault_counts".to_string(),
                Json::Obj(
                    self.fault_counts
                        .iter()
                        .map(|(k, c)| (k.clone(), Json::Num(*c as f64)))
                        .collect(),
                ),
            ),
            ("completed".to_string(), Json::Num(self.completed as f64)),
            (
                "rescheduled".to_string(),
                Json::Num(self.rescheduled as f64),
            ),
            (
                "stale_completions".to_string(),
                Json::Num(self.stale_completions as f64),
            ),
            (
                "fault_events".to_string(),
                Json::Num(self.fault_events as f64),
            ),
        ])
    }
}

/// Adapts a [`FaultPlan`]'s kill/revive schedule to the dcsim
/// [`FaultHook`] seam.
#[derive(Debug)]
pub struct PlanFaultHook {
    events: Vec<(f64, FaultAction)>,
    cursor: usize,
}

impl PlanFaultHook {
    /// Extracts the event-level faults from a plan (already sorted by
    /// onset).
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let events = plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::ServerKill { at_s, server } => Some((at_s, FaultAction::KillServer(server))),
                Fault::ServerRevive { at_s, server } => {
                    Some((at_s, FaultAction::ReviveServer(server)))
                }
                _ => None,
            })
            .collect();
        Self { events, cursor: 0 }
    }
}

impl FaultHook for PlanFaultHook {
    fn next_time(&self) -> Option<f64> {
        self.events.get(self.cursor).map(|e| e.0)
    }

    fn pop_actions(&mut self, now: f64) -> Vec<FaultAction> {
        let mut actions = Vec::new();
        while let Some(&(t, a)) = self.events.get(self.cursor) {
            if t > now {
                break;
            }
            actions.push(a);
            self.cursor += 1;
        }
        actions
    }
}

/// Runs one full scenario for `seed`.
pub fn run_scenario(seed: u64, cfg: &ScenarioConfig) -> ScenarioReport {
    let plan = FaultPlan::sample(seed, &cfg.plan_config());
    run_plan(seed, cfg, &plan)
}

/// Runs a scenario against an explicit plan (the `--plan file.json`
/// path; `seed` still drives the workload and sensor-noise draws).
pub fn run_plan(seed: u64, cfg: &ScenarioConfig, plan: &FaultPlan) -> ScenarioReport {
    let mut checker = Checker::new();
    let cluster = cluster_phase(seed, cfg, plan, &mut checker);
    thermal_phase(seed, cfg, plan, &mut checker);
    cooling_phase(cfg, plan, &mut checker);
    workload_phase(seed, &mut checker);
    schedule_phase(cfg, plan, &mut checker);
    backend_phase(seed, cfg, plan, &mut checker);
    let (checks, violations) = checker.into_parts();
    ScenarioReport {
        seed,
        checks,
        violations,
        fault_counts: plan.kind_counts(),
        completed: cluster.0,
        rescheduled: cluster.1,
        stale_completions: cluster.2,
        fault_events: cluster.3,
    }
}

/// Multiplies trace buckets covered by workload faults.
fn faulted_trace(cfg: &ScenarioConfig, plan: &FaultPlan) -> TimeSeries {
    let dt = 60.0;
    let buckets = (cfg.window_s / dt).ceil() as usize;
    let mut vals = vec![cfg.base_util; buckets.max(1)];
    for f in &plan.faults {
        let (at, dur, mult) = match *f {
            Fault::WorkloadBurst {
                at_s,
                duration_s,
                multiplier,
            } => (at_s, duration_s, multiplier),
            Fault::WorkloadDropout { at_s, duration_s } => (at_s, duration_s, 0.05),
            _ => continue,
        };
        let first = (at / dt).floor() as usize;
        let last = ((at + dur) / dt).ceil() as usize;
        for v in vals
            .iter_mut()
            .take(last.min(buckets.max(1)))
            .skip(first.min(buckets.max(1)))
        {
            *v = (*v * mult).clamp(0.0, 0.95);
        }
    }
    TimeSeries::new(Seconds::new(dt), vals)
}

/// Phase 1: the discrete cluster under event-level faults. Returns
/// `(completed, rescheduled, stale_completions, fault_events)`.
fn cluster_phase(
    seed: u64,
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    checker: &mut Checker,
) -> (u64, u64, u64, u64) {
    let trace = faulted_trace(cfg, plan);
    fleet_cross_check(seed, cfg, plan, &trace, checker);
    let jobs = JobStream::new(trace, JobType::SocialNetworking, cfg.servers, seed).collect_all();
    let offered = jobs.len() as u64;
    let sink = MetricsSink::fresh();
    let mut sim = ClusterConfig::new(cfg.servers)
        .cores_per_server(cfg.cores)
        .rack_size(cfg.servers.div_ceil(2).max(1))
        .metrics(&sink)
        .build(LeastLoaded::new());
    sim.set_fault_hook(Box::new(PlanFaultHook::from_plan(plan)));
    let m = sim.run(&jobs, Seconds::new(cfg.window_s));

    checker.check(
        "jobs.conservation",
        m.completed + m.in_flight == offered,
        || {
            format!(
                "completed {} + in_flight {} != offered {offered}",
                m.completed, m.in_flight
            )
        },
    );
    let arrivals = sink.counter("dcsim.arrivals").value();
    checker.check(
        "jobs.arrivals_accounted",
        arrivals == m.completed + m.in_flight,
        || {
            format!(
                "sink arrivals {arrivals} vs accounted {}",
                m.completed + m.in_flight
            )
        },
    );
    checker.check(
        "jobs.rescheduled_accounted",
        sink.counter("dcsim.fault.rescheduled").value() == m.rescheduled,
        || "sink and metrics disagree on rescheduled jobs".to_string(),
    );
    let type_sum: u64 = m.per_type.iter().map(|q| q.completed).sum();
    checker.check("qos.per_type_totals", type_sum == m.completed, || {
        format!("per-type sum {type_sum} != completed {}", m.completed)
    });
    checker.check(
        "util.bounds",
        m.server_utilization
            .iter()
            .chain(m.rack_utilization.iter())
            .all(|u| u.is_finite() && (0.0..=1.0 + 1e-9).contains(u)),
        || format!("utilization out of [0,1]: {:?}", m.server_utilization),
    );
    checker.check(
        "qos.finite",
        m.mean_response_s.is_finite()
            && m.p95_response_s.is_finite()
            && m.mean_response_s >= 0.0
            && m.p95_response_s >= 0.0
            && m.throughput_jobs_per_s >= 0.0,
        || {
            format!(
                "non-physical QoS: mean {} p95 {} thpt {}",
                m.mean_response_s, m.p95_response_s, m.throughput_jobs_per_s
            )
        },
    );
    (
        m.completed,
        m.rescheduled,
        m.stale_completions,
        m.fault_events,
    )
}

/// Phase 1b: the epoch-sharded fleet engine stepped over the same trace
/// and fault plan, once un-sharded and once with ≥4 shards. The two runs
/// must agree byte-for-byte (metrics, JSON rendering, and telemetry
/// counters) and the work ledger must conserve — the chaos-level pin on
/// the fleet engine's shard-invariance contract.
fn fleet_cross_check(
    seed: u64,
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    trace: &TimeSeries,
    checker: &mut Checker,
) {
    let run = |shards: usize| {
        let sink = MetricsSink::fresh();
        let mut sim = FleetConfig::new(trace.clone())
            .datacenter(DatacenterSpec::new("chaos", cfg.servers))
            .cores_per_server(cfg.cores)
            // One rack per server so even a tiny chaos cluster really
            // splits into ≥4 shards.
            .rack_size(1)
            .shards(shards)
            .seed(seed)
            .horizon(Seconds::new(cfg.window_s))
            .metrics(&sink)
            .build();
        sim.set_fault_hook(Box::new(PlanFaultHook::from_plan(plan)));
        let m = sim.run();
        (m, sink)
    };
    let (unsharded, sink1) = run(1);
    let (sharded, sink4) = run(4.min(cfg.servers));
    checker.check(
        "fleet.shard_invariance",
        unsharded == sharded
            && unsharded.to_json().to_string_pretty() == sharded.to_json().to_string_pretty(),
        || format!("1-shard and sharded runs disagree: {unsharded:?} vs {sharded:?}"),
    );
    checker.check(
        "fleet.counters_invariant",
        ["fleet.epochs", "fleet.fault.kills", "fleet.fault.revives"]
            .iter()
            .all(|name| sink1.counter(name).value() == sink4.counter(name).value()),
        || "sharding changed a telemetry counter".to_string(),
    );
    checker.check(
        "fleet.conservation",
        unsharded.conservation_error_core_s.abs() <= 1e-6 * unsharded.offered_core_s.max(1.0),
        || {
            format!(
                "work ledger drift {} of {} offered core-s",
                unsharded.conservation_error_core_s, unsharded.offered_core_s
            )
        },
    );
}

/// Phase 2: a PCM-backed server rig under boundary-condition faults.
fn thermal_phase(seed: u64, cfg: &ScenarioConfig, plan: &FaultPlan, checker: &mut Checker) {
    let mut net = ThermalNetwork::new();
    let inlet = net.add_boundary("inlet", Celsius::new(25.0));
    let air = net.add_air("air", Celsius::new(25.0));
    let outlet = net.add_boundary("outlet", Celsius::new(25.0));
    let cpu = net.add_capacitive("cpu", JoulesPerKelvin::new(400.0), Celsius::new(25.0));
    let nominal = air_heat_capacity_flow(CubicMetersPerSecond::new(0.02));
    let a_in = net.advect(inlet, air, nominal);
    let a_out = net.advect(air, outlet, nominal);
    net.connect(cpu, air, WattsPerKelvin::new(2.0));
    net.set_power(cpu, Watts::new(60.0));
    let wax = PcmState::new(
        &PcmMaterial::commercial_paraffin(Celsius::new(30.0)),
        Grams::new(800.0),
        Celsius::new(25.0),
    );
    let pcm = net.attach_pcm(air, wax, WattsPerKelvin::new(1.5));

    // Collect the thermal faults once; evaluate per step.
    let fan: Vec<(f64, f64, f64)> = plan
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::FanFailure {
                at_s,
                duration_s,
                airflow_frac,
            } => Some((at_s, at_s + duration_s, airflow_frac)),
            _ => None,
        })
        .collect();
    let spikes: Vec<(f64, f64, f64)> = plan
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::BlockageSpike {
                at_s,
                duration_s,
                inlet_delta_k,
            } => Some((at_s, at_s + duration_s, inlet_delta_k)),
            _ => None,
        })
        .collect();
    let noise: Vec<(f64, f64, f64)> = plan
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::SensorNoise {
                at_s,
                duration_s,
                sigma_k,
            } => Some((at_s, at_s + duration_s, sigma_k)),
            _ => None,
        })
        .collect();
    let stuck: Vec<(f64, f64, f64)> = plan
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::SensorStuck {
                at_s,
                duration_s,
                reading_c,
            } => Some((at_s, at_s + duration_s, reading_c)),
            _ => None,
        })
        .collect();

    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x74e2_4a17);
    let unit_noise = Normal::new(0.0, 1.0);
    let active = |set: &[(f64, f64, f64)], t: f64| -> Option<f64> {
        set.iter()
            .filter(|(a, b, _)| (*a..*b).contains(&t))
            .map(|(_, _, v)| *v)
            .next()
    };
    // A naive proportional fan controller closes the loop through the
    // (possibly faulty) sensor, so sensor faults have real consequences.
    let mut fault = |now: Seconds, ctl: &mut BoundaryControls<'_>| {
        let t = now.value();
        let airflow_frac = active(&fan, t).unwrap_or(1.0);
        let delta = active(&spikes, t).unwrap_or(0.0);
        ctl.set_boundary_temp(inlet, Celsius::new(25.0 + delta));
        let mut reading = ctl.temperature(air).value();
        if let Some(sigma) = active(&noise, t) {
            reading += sigma * unit_noise.sample(&mut rng);
        }
        if let Some(frozen) = active(&stuck, t) {
            reading = frozen;
        }
        let command = (0.4 + 0.08 * (reading - 28.0)).clamp(0.3, 1.2) * airflow_frac;
        let mcp = WattsPerKelvin::new(nominal.value() * command.max(0.05));
        ctl.set_advection_flow(a_in, mcp);
        ctl.set_advection_flow(a_out, mcp);
    };

    let steps = (cfg.window_s as usize).min(7_200);
    let mut prev_soc = net.pcm(pcm).melt_fraction().value();
    let mut prev_energy = net.pcm(pcm).stored_energy().value();
    for _ in 0..steps {
        net.step_with(Seconds::new(1.0), &mut fault);
        let soc = net.pcm(pcm).melt_fraction().value();
        let energy = net.pcm(pcm).stored_energy().value();
        let q = net.pcm_heat_flow(pcm).value();
        checker.check_capped(
            "pcm.soc_bounds",
            (-1e-9..=1.0 + 1e-9).contains(&soc),
            3,
            || format!("melt fraction {soc} at t={}", net.time().value()),
        );
        checker.check_capped(
            "pcm.energy_conservation",
            (energy - prev_energy - q).abs() <= 1e-6 + 1e-9 * energy.abs(),
            3,
            || {
                format!(
                    "dE {} != q*dt {} at t={}",
                    energy - prev_energy,
                    q,
                    net.time().value()
                )
            },
        );
        checker.check_capped(
            "pcm.monotone_melt",
            q < 0.0 || soc + 1e-12 >= prev_soc,
            3,
            || {
                format!(
                    "melt went backwards under positive heat: {prev_soc} -> {soc} (q={q}) at t={}",
                    net.time().value()
                )
            },
        );
        let t_air = net.temperature(air).value();
        let t_cpu = net.temperature(cpu).value();
        checker.check_capped(
            "thermal.bounded",
            t_air.is_finite()
                && t_cpu.is_finite()
                && (-40.0..300.0).contains(&t_air)
                && (-40.0..300.0).contains(&t_cpu),
            3,
            || {
                format!(
                    "runaway temps air={t_air} cpu={t_cpu} at t={}",
                    net.time().value()
                )
            },
        );
        prev_soc = soc;
        prev_energy = energy;
    }
}

/// Phase 3: room ride-through under the plan's plant deratings.
fn cooling_phase(cfg: &ScenarioConfig, plan: &FaultPlan, checker: &mut Checker) {
    let room = RoomModel::cluster_room();
    let it_power = Watts::new(120_000.0);
    let plant = Watts::new(140_000.0);
    let coupling = WattsPerKelvin::new(1008.0 * 5.0);
    let budget = Joules::new(1008.0 * 2.0e5);
    let melt = Celsius::new(28.0);
    let window = Seconds::new(cfg.window_s.max(1_800.0));

    let deratings: Vec<(f64, f64, f64)> = plan
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::CoolingDerating {
                at_s,
                duration_s,
                capacity_frac,
            } => Some((at_s, at_s + duration_s, capacity_frac)),
            _ => None,
        })
        .collect();
    let profile = |t: Seconds| -> f64 {
        deratings
            .iter()
            .filter(|(a, b, _)| (*a..*b).contains(&t.value()))
            .map(|(_, _, frac)| *frac)
            .fold(1.0, f64::min)
    };

    let run = |budget: Joules, plant: Watts| {
        ride_through(
            &room,
            it_power,
            DegradedCooling {
                plant_capacity: plant,
                profile: &profile,
            },
            coupling,
            budget,
            melt,
            window,
        )
    };
    let r = run(budget, plant);

    checker.check(
        "room.peak_above_start",
        r.peak_room_temp.value() + 1e-9 >= room.start.value(),
        || format!("peak {} below start", r.peak_room_temp.value()),
    );
    checker.check(
        "room.critical_consistent",
        match r.time_to_critical {
            Some(t) => {
                r.peak_room_temp.value() + 1e-9 >= room.critical.value()
                    && t.value() <= window.value()
            }
            None => r.peak_room_temp.value() <= room.critical.value() + 1e-9,
        },
        || format!("inconsistent report {r:?}"),
    );
    checker.check(
        "wax.budget_bounds",
        (0.0..=budget.value() + 1e-6).contains(&r.wax_energy_absorbed.value()),
        || {
            format!(
                "absorbed {} of budget {}",
                r.wax_energy_absorbed.value(),
                budget.value()
            )
        },
    );
    checker.check(
        "wax.saturation_consistent",
        r.wax_saturated_at.is_none()
            || (r.wax_energy_absorbed.value() - budget.value()).abs() <= 1e-3 * budget.value(),
        || "saturated without spending the budget".to_string(),
    );

    let ttc =
        |r: &tts_cooling::RideThrough| r.time_to_critical.map_or(f64::INFINITY, |t| t.value());
    let richer = run(Joules::new(2.0 * budget.value()), plant);
    checker.check("wax.monotone_budget", ttc(&richer) >= ttc(&r), || {
        format!(
            "doubling the wax budget shortened ride-through: {} -> {}",
            ttc(&r),
            ttc(&richer)
        )
    });
    let stronger = run(budget, Watts::new(plant.value() * 1.1));
    checker.check("plant.monotone_capacity", ttc(&stronger) >= ttc(&r), || {
        format!(
            "extra plant capacity shortened ride-through: {} -> {}",
            ttc(&r),
            ttc(&stronger)
        )
    });
}

/// Phase 4: seeded workload trace — byte-identical JSON round-trip and
/// physical (non-negative) utilization.
fn workload_phase(seed: u64, checker: &mut Checker) {
    let config = GoogleTraceConfig {
        days: 1,
        seed,
        ..GoogleTraceConfig::default()
    };
    let trace = GoogleTrace::generate(config);
    let text = trace.to_json().to_string_pretty();
    let round = tts_units::json::parse(&text)
        .ok()
        .and_then(|v| GoogleTrace::from_json(&v).ok())
        .map(|t| t.to_json().to_string_pretty());
    checker.check(
        "trace.json_round_trip",
        round.as_deref() == Some(text.as_str()),
        || format!("seed {seed}: round-trip not byte-identical"),
    );
    let nonneg = trace.total().values().iter().all(|v| *v >= 0.0)
        && JobType::ALL
            .iter()
            .all(|jt| trace.component(*jt).values().iter().all(|v| *v >= 0.0));
    checker.check("trace.non_negative", nonneg, || {
        format!("seed {seed}: negative utilization sample")
    });
}

/// Phase 5: the receding-horizon co-optimizer (`tts_opt`) driven through
/// the plan's plant-level faults. Cooling deratings and workload
/// bursts/dropouts are translated into [`tts_opt::Disturbances`], which
/// perturb the *actual* plant between re-plans while the controller's
/// forecast stays nominal — exactly the mismatch chaos is meant to
/// probe. Feasible-or-graceful means: every arrived joule is executed
/// (conservation), no deadline is missed, the wax stays inside its
/// physical state of charge, and the bill stays finite.
fn schedule_phase(cfg: &ScenarioConfig, plan: &FaultPlan, checker: &mut Checker) {
    use tts_opt::{run_schedule_on, Disturbances, ScheduleConfig};

    let mut faults = Disturbances::default();
    for f in &plan.faults {
        match *f {
            Fault::CoolingDerating {
                at_s,
                duration_s,
                capacity_frac,
            } => faults
                .capacity
                .push((at_s, at_s + duration_s, capacity_frac)),
            Fault::WorkloadBurst {
                at_s,
                duration_s,
                multiplier,
            } => faults.load.push((at_s, at_s + duration_s, multiplier)),
            Fault::WorkloadDropout { at_s, duration_s } => {
                faults.load.push((at_s, at_s + duration_s, 0.05))
            }
            _ => continue,
        }
    }

    // A small plant on a gently diurnal trace over the scenario window:
    // 5-minute slots keep the LPs tiny while still giving the deferral
    // classes room to move work around.
    let slot_s = 300.0;
    let buckets = ((cfg.window_s / slot_s).ceil() as usize).max(4);
    let vals: Vec<f64> = (0..buckets)
        .map(|i| {
            let phase = i as f64 / buckets as f64 * std::f64::consts::TAU;
            (cfg.base_util * (1.0 + 0.3 * phase.sin())).clamp(0.05, 0.95)
        })
        .collect();
    let trace = TimeSeries::new(Seconds::new(slot_s), vals);
    let schedule_cfg = ScheduleConfig {
        servers: cfg.servers.max(1),
        horizon_h: (cfg.window_s / 3600.0).max(0.5),
        extension_h: 0.5,
        slot_min: slot_s / 60.0,
        tranches: 2,
        replan_every: 1,
        ..ScheduleConfig::default()
    };
    let out = run_schedule_on(&schedule_cfg, &trace, &faults, &MetricsSink::disabled());

    checker.check(
        "schedule.soc_bounds",
        (0.0..=1.0 + 1e-9).contains(&out.final_soc),
        || format!("final melt fraction {} out of [0,1]", out.final_soc),
    );
    checker.check(
        "schedule.conservation",
        out.conservation_error_kwh.abs() <= 1e-6 * out.it_energy_kwh.max(1.0),
        || {
            format!(
                "work ledger drift {} kWh of {} kWh offered",
                out.conservation_error_kwh, out.it_energy_kwh
            )
        },
    );
    checker.check(
        "schedule.no_deadline_misses",
        out.deadline_misses == 0,
        || format!("{} deadline misses under faults", out.deadline_misses),
    );
    checker.check(
        "schedule.costs_finite",
        out.cost_optimized_usd.is_finite()
            && out.cost_passive_usd.is_finite()
            && out.cost_optimized_usd >= 0.0
            && out.cost_passive_usd >= 0.0,
        || {
            format!(
                "non-physical bill: optimized {} passive {}",
                out.cost_optimized_usd, out.cost_passive_usd
            )
        },
    );
    checker.check(
        "schedule.planned_every_slot",
        out.plans + out.fallback_plans > 0 && out.fallback_plans <= out.plans + out.fallback_plans,
        || format!("{} plans, {} fallbacks", out.plans, out.fallback_plans),
    );
    // Note: `overload_slots` is *not* compared against the passive
    // baseline here — deadline forcing through a derated window can
    // legitimately concentrate deferred work where run-on-arrival
    // happened to sail through. Graceful degradation is the four checks
    // above plus physical per-slot loads:
    checker.check(
        "schedule.loads_physical",
        out.load_optimized_kw
            .iter()
            .chain(out.load_passive_kw.iter())
            .all(|kw| kw.is_finite() && *kw >= -1e-9),
        || "non-physical per-slot chiller load".to_string(),
    );
}

/// Phase 6: the alternative cooling backends under backend-level faults.
///
/// The economizer runs against a generated temperate weather series with
/// the plan's damper jams applied through the typed damper seam; the
/// hot-water loop takes the plan's reuse dropouts through the demand
/// seam and its pump derates through the `DegradedCooling` ride-through
/// seam. Every check is a comparison principle: a fault can only move
/// the bill toward the fully-broken bound, never past it and never
/// below nominal, and a pump derate can only shorten ride-through.
fn backend_phase(seed: u64, cfg: &ScenarioConfig, plan: &FaultPlan, checker: &mut Checker) {
    use tts_cooling::climate::{Site, WeatherConfig, WeatherSeries};
    use tts_cooling::freecooling::cooling_electricity_cost;
    use tts_cooling::hotwater::{hot_water_bill, HotWaterLoop};
    use tts_cooling::{CoolingSystem, Economizer, Tariff};
    use tts_units::KiloWatts;

    // A gently diurnal cooling-load profile over the scenario window.
    let dt = Seconds::new(60.0);
    let buckets = ((cfg.window_s / dt.value()).ceil() as usize).max(4);
    let loads_w: Vec<f64> = (0..buckets)
        .map(|i| {
            let phase = i as f64 / buckets as f64 * std::f64::consts::TAU;
            80_000.0 * (1.0 + 0.25 * phase.sin())
        })
        .collect();
    let tariff = Tariff::paper_default();
    let weather = WeatherSeries::generate(&WeatherConfig {
        site: Site::Temperate,
        seed: seed ^ 0x5ca1_ab1e,
        days: 1,
    });

    // --- Economizer under damper jams -------------------------------
    let jams: Vec<(f64, f64, f64)> = plan
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::EconomizerDamperStuck {
                at_s,
                duration_s,
                stuck_frac,
            } => Some((at_s, at_s + duration_s, stuck_frac)),
            _ => None,
        })
        .collect();
    let damper = |t: Seconds| -> f64 {
        jams.iter()
            .filter(|(a, b, _)| (*a..*b).contains(&t.value()))
            .map(|(_, _, frac)| *frac)
            .fold(1.0, f64::min)
    };
    let econ = Economizer::around(CoolingSystem::new(KiloWatts::new(200.0), 4.0));
    let nominal = cooling_electricity_cost(&loads_w, dt, &econ, &tariff, &weather, |_| 1.0);
    let faulted = cooling_electricity_cost(&loads_w, dt, &econ, &tariff, &weather, damper);
    let mechanical = cooling_electricity_cost(&loads_w, dt, &econ, &tariff, &weather, |_| 0.0);
    let eps = 1e-9 * mechanical.value().max(1.0);
    checker.check(
        "economizer.jam_not_cheaper",
        faulted.value() + eps >= nominal.value(),
        || {
            format!(
                "jammed damper cut the bill: {} < {}",
                faulted.value(),
                nominal.value()
            )
        },
    );
    checker.check(
        "economizer.jam_bounded_by_mechanical",
        faulted.value() <= mechanical.value() + eps,
        || {
            format!(
                "jammed bill {} above fully-mechanical bound {}",
                faulted.value(),
                mechanical.value()
            )
        },
    );
    checker.check(
        "economizer.bills_physical",
        nominal.value().is_finite() && nominal.value() >= 0.0 && mechanical.value() >= 0.0,
        || format!("non-physical economizer bill {nominal:?}"),
    );

    // --- Hot-water loop: reuse dropouts -----------------------------
    let dropouts: Vec<(f64, f64)> = plan
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::ReuseDropout { at_s, duration_s } => Some((at_s, at_s + duration_s)),
            _ => None,
        })
        .collect();
    let demand = |t: Seconds| -> f64 {
        if dropouts.iter().any(|(a, b)| (*a..*b).contains(&t.value())) {
            0.0
        } else {
            1.0
        }
    };
    let water = HotWaterLoop::idatacool();
    let bill_nominal = hot_water_bill(&loads_w, dt, &water, &tariff, &weather, |_| 1.0);
    let bill_faulted = hot_water_bill(&loads_w, dt, &water, &tariff, &weather, demand);
    checker.check(
        "hotwater.credit_physical",
        bill_faulted.heat_reused_kwh <= bill_faulted.heat_rejected_kwh + 1e-9
            && bill_faulted.reuse_credit.value() >= 0.0,
        || {
            format!(
                "reused {} of {} kWh rejected",
                bill_faulted.heat_reused_kwh, bill_faulted.heat_rejected_kwh
            )
        },
    );
    checker.check(
        "hotwater.dropout_cuts_credit",
        bill_faulted.reuse_credit.value() <= bill_nominal.reuse_credit.value() + 1e-9,
        || {
            format!(
                "dropout raised the credit: {} > {}",
                bill_faulted.reuse_credit.value(),
                bill_nominal.reuse_credit.value()
            )
        },
    );
    checker.check(
        "hotwater.dropout_not_cheaper",
        bill_faulted.net().value() + 1e-9 >= bill_nominal.net().value(),
        || {
            format!(
                "dropout cut the net bill: {} < {}",
                bill_faulted.net().value(),
                bill_nominal.net().value()
            )
        },
    );
    checker.check(
        "hotwater.energy_cost_unaffected_by_demand",
        (bill_faulted.energy_cost.value() - bill_nominal.energy_cost.value()).abs() <= 1e-9,
        || "reuse demand changed the electricity side of the bill".to_string(),
    );

    // --- Hot-water loop: pump derates through ride-through ----------
    let derates: Vec<(f64, f64, f64)> = plan
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::PumpDerate {
                at_s,
                duration_s,
                flow_frac,
            } => Some((at_s, at_s + duration_s, flow_frac)),
            _ => None,
        })
        .collect();
    let flow = |t: Seconds| -> f64 {
        derates
            .iter()
            .filter(|(a, b, _)| (*a..*b).contains(&t.value()))
            .map(|(_, _, frac)| *frac)
            .fold(1.0, f64::min)
    };
    let room = RoomModel::cluster_room();
    let window = Seconds::new(cfg.window_s.max(1_800.0));
    let run = |profile: &dyn Fn(Seconds) -> f64| {
        ride_through(
            &room,
            Watts::new(120_000.0),
            DegradedCooling {
                plant_capacity: Watts::new(140_000.0),
                profile,
            },
            WattsPerKelvin::new(1008.0 * 5.0),
            Joules::new(1008.0 * 2.0e5),
            Celsius::new(28.0),
            window,
        )
    };
    let full = |_: Seconds| 1.0;
    let healthy = run(&full);
    let derated = run(&flow);
    let ttc =
        |r: &tts_cooling::RideThrough| r.time_to_critical.map_or(f64::INFINITY, |t| t.value());
    checker.check(
        "hotwater.pump_derate_shortens_ride_through",
        ttc(&derated) <= ttc(&healthy) + 1e-9,
        || {
            format!(
                "pump derate lengthened ride-through: {} -> {}",
                ttc(&healthy),
                ttc(&derated)
            )
        },
    );
    checker.check(
        "hotwater.derated_runs_hotter",
        derated.peak_room_temp.value() + 1e-9 >= healthy.peak_room_temp.value(),
        || {
            format!(
                "pump derate cooled the room: {} -> {}",
                healthy.peak_room_temp.value(),
                derated.peak_room_temp.value()
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_deterministic() {
        let cfg = ScenarioConfig::default();
        let a = run_scenario(3, &cfg);
        let b = run_scenario(3, &cfg);
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    #[test]
    fn replay_command_is_hex() {
        assert_eq!(replay_command(0x2a), "repro chaos --seed 0x2a");
    }

    #[test]
    fn a_handful_of_seeds_run_green() {
        let cfg = ScenarioConfig::default();
        for seed in [0, 1, 0xdead_beef] {
            let r = run_scenario(seed, &cfg);
            assert!(
                r.all_green(),
                "seed {seed} violated invariants: {:?}\nreplay: {}",
                r.violations,
                r.replay_command()
            );
            assert!(r.checks > 1_000, "thermal stepping must be checked");
        }
    }
}
