//! The fault taxonomy and the seed-replayable [`FaultPlan`].
//!
//! A plan is either *sampled* from the in-repo PRNG (`FaultPlan::sample`
//! — the same plan for the same seed, forever) or *parsed* from JSON
//! (`FaultPlan::from_json` — for hand-written regression scenarios).
//! Every fault is a plain data record; the injection sites live in the
//! crates they perturb (`dcsim` event hooks, `thermal`/`cooling`
//! boundary hooks, `svc` connection drivers) and this crate's
//! [`crate::scenario`] module wires plans into them.

use tts_rng::{Rng, SeedableRng, Xoshiro256pp};
use tts_units::json::{FromJson, Json, JsonError, ToJson};

/// One typed, scheduled fault. Simulation-level faults carry an onset
/// time (seconds into the scenario window); connection-level faults
/// (`SlowLoris`, `MidBodyDisconnect`, `QueueStorm`, `NestedBody`) are
/// driven as client batches against a live `ttsd` and carry client
/// counts instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// A server dies; its jobs are re-dispatched (event level, `dcsim`).
    ServerKill {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// Victim server index.
        server: usize,
    },
    /// A dead server comes back (event level, `dcsim`).
    ServerRevive {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// Server index to restore.
        server: usize,
    },
    /// CRAC/plant outage or partial derating: only `capacity_frac` of
    /// nominal cooling survives for the duration (boundary level,
    /// `cooling`).
    CoolingDerating {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the derating lasts, seconds.
        duration_s: f64,
        /// Surviving fraction of plant capacity in `[0, 1]`; 0 is a
        /// total outage.
        capacity_frac: f64,
    },
    /// Fan failure: airflow collapses to `airflow_frac` of nominal
    /// (boundary level, `thermal`).
    FanFailure {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the failure lasts, seconds.
        duration_s: f64,
        /// Surviving fraction of nominal airflow in `(0, 1]`.
        airflow_frac: f64,
    },
    /// Airflow blockage / recirculation spike: the inlet runs hotter by
    /// `inlet_delta_k` (boundary level, `thermal`).
    BlockageSpike {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the spike lasts, seconds.
        duration_s: f64,
        /// Inlet temperature excess, K.
        inlet_delta_k: f64,
    },
    /// Gaussian noise on the control sensor (boundary level, `thermal`).
    SensorNoise {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the noise lasts, seconds.
        duration_s: f64,
        /// Noise standard deviation, K.
        sigma_k: f64,
    },
    /// The control sensor freezes at a fixed reading (boundary level,
    /// `thermal`).
    SensorStuck {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the sensor stays stuck, seconds.
        duration_s: f64,
        /// The frozen reading, °C.
        reading_c: f64,
    },
    /// Workload burst: offered load multiplied for the duration
    /// (trace level, `workload`).
    WorkloadBurst {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the burst lasts, seconds.
        duration_s: f64,
        /// Load multiplier, ≥ 1.
        multiplier: f64,
    },
    /// Workload dropout: offered load collapses to near zero for the
    /// duration (trace level, `workload`).
    WorkloadDropout {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the dropout lasts, seconds.
        duration_s: f64,
    },
    /// Slow-loris clients: headers trickled a byte at a time
    /// (connection level, `svc`).
    SlowLoris {
        /// Concurrent slow clients.
        clients: usize,
        /// Pause between bytes, ms.
        byte_gap_ms: u64,
    },
    /// Clients that advertise a body and hang up mid-way (connection
    /// level, `svc`).
    MidBodyDisconnect {
        /// Concurrent disconnecting clients.
        clients: usize,
        /// Fraction of the advertised body actually sent, in `[0, 1)`.
        body_frac: f64,
    },
    /// A burst of well-formed requests sized to saturate the bounded
    /// queue (connection level, `svc`).
    QueueStorm {
        /// Concurrent storm clients.
        clients: usize,
    },
    /// Clients that POST a JSON body nested past the parser's nesting
    /// cap, so the answer must be a `400` from a server that stays up
    /// (connection level, `svc`). Never sampled: only the default storm
    /// drives it.
    NestedBody {
        /// Concurrent hostile clients.
        clients: usize,
    },
    /// Economizer outside-air damper jams at a fixed position: the
    /// free-cooling blend is scaled by `stuck_frac` (backend level,
    /// `cooling::freecooling`).
    EconomizerDamperStuck {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the damper stays jammed, seconds.
        duration_s: f64,
        /// Jammed damper position in `[0, 1]`; 0 is stuck closed
        /// (fully mechanical cooling).
        stuck_frac: f64,
    },
    /// Hot-water-loop pump derate: coolant flow (and with it the loop's
    /// heat-rejection capacity) collapses to `flow_frac` of nominal
    /// (backend level, `cooling::hotwater`).
    PumpDerate {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the derate lasts, seconds.
        duration_s: f64,
        /// Surviving fraction of nominal flow in `(0, 1]`.
        flow_frac: f64,
    },
    /// The heat-reuse consumer stops taking heat (district-heat loop
    /// valve closed, adsorption chiller offline): the reuse credit
    /// vanishes for the duration (backend level, `cooling::hotwater`).
    ReuseDropout {
        /// Onset, seconds into the scenario.
        at_s: f64,
        /// How long the demand is gone, seconds.
        duration_s: f64,
    },
}

impl Fault {
    /// Stable kind tag used in JSON and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::ServerKill { .. } => "ServerKill",
            Fault::ServerRevive { .. } => "ServerRevive",
            Fault::CoolingDerating { .. } => "CoolingDerating",
            Fault::FanFailure { .. } => "FanFailure",
            Fault::BlockageSpike { .. } => "BlockageSpike",
            Fault::SensorNoise { .. } => "SensorNoise",
            Fault::SensorStuck { .. } => "SensorStuck",
            Fault::WorkloadBurst { .. } => "WorkloadBurst",
            Fault::WorkloadDropout { .. } => "WorkloadDropout",
            Fault::SlowLoris { .. } => "SlowLoris",
            Fault::MidBodyDisconnect { .. } => "MidBodyDisconnect",
            Fault::QueueStorm { .. } => "QueueStorm",
            Fault::NestedBody { .. } => "NestedBody",
            Fault::EconomizerDamperStuck { .. } => "EconomizerDamperStuck",
            Fault::PumpDerate { .. } => "PumpDerate",
            Fault::ReuseDropout { .. } => "ReuseDropout",
        }
    }

    /// Onset time for scheduled (simulation-level) faults; `None` for
    /// connection-level faults, which run as a separate client phase.
    pub fn at(&self) -> Option<f64> {
        match *self {
            Fault::ServerKill { at_s, .. }
            | Fault::ServerRevive { at_s, .. }
            | Fault::CoolingDerating { at_s, .. }
            | Fault::FanFailure { at_s, .. }
            | Fault::BlockageSpike { at_s, .. }
            | Fault::SensorNoise { at_s, .. }
            | Fault::SensorStuck { at_s, .. }
            | Fault::WorkloadBurst { at_s, .. }
            | Fault::WorkloadDropout { at_s, .. }
            | Fault::EconomizerDamperStuck { at_s, .. }
            | Fault::PumpDerate { at_s, .. }
            | Fault::ReuseDropout { at_s, .. } => Some(at_s),
            Fault::SlowLoris { .. }
            | Fault::MidBodyDisconnect { .. }
            | Fault::QueueStorm { .. }
            | Fault::NestedBody { .. } => None,
        }
    }
}

fn num(fields: &mut Vec<(String, Json)>, key: &str, v: f64) {
    fields.push((key.to_string(), Json::Num(v)));
}

fn get_f64(v: &Json, ty: &str, key: &str) -> Result<f64, JsonError> {
    v.get(key)
        .ok_or_else(|| JsonError::missing_field(ty, key))?
        .as_f64()
        .ok_or_else(|| JsonError::new(format!("{ty}.{key} must be a number")))
}

fn get_usize(v: &Json, ty: &str, key: &str) -> Result<usize, JsonError> {
    let n = get_f64(v, ty, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(JsonError::new(format!(
            "{ty}.{key} must be a non-negative integer, got {n}"
        )));
    }
    Ok(n as usize)
}

impl ToJson for Fault {
    fn to_json(&self) -> Json {
        let mut fields = vec![("kind".to_string(), Json::Str(self.kind().to_string()))];
        match *self {
            Fault::ServerKill { at_s, server } | Fault::ServerRevive { at_s, server } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "server", server as f64);
            }
            Fault::CoolingDerating {
                at_s,
                duration_s,
                capacity_frac,
            } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
                num(&mut fields, "capacity_frac", capacity_frac);
            }
            Fault::FanFailure {
                at_s,
                duration_s,
                airflow_frac,
            } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
                num(&mut fields, "airflow_frac", airflow_frac);
            }
            Fault::BlockageSpike {
                at_s,
                duration_s,
                inlet_delta_k,
            } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
                num(&mut fields, "inlet_delta_k", inlet_delta_k);
            }
            Fault::SensorNoise {
                at_s,
                duration_s,
                sigma_k,
            } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
                num(&mut fields, "sigma_k", sigma_k);
            }
            Fault::SensorStuck {
                at_s,
                duration_s,
                reading_c,
            } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
                num(&mut fields, "reading_c", reading_c);
            }
            Fault::WorkloadBurst {
                at_s,
                duration_s,
                multiplier,
            } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
                num(&mut fields, "multiplier", multiplier);
            }
            Fault::WorkloadDropout { at_s, duration_s } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
            }
            Fault::SlowLoris {
                clients,
                byte_gap_ms,
            } => {
                num(&mut fields, "clients", clients as f64);
                num(&mut fields, "byte_gap_ms", byte_gap_ms as f64);
            }
            Fault::MidBodyDisconnect { clients, body_frac } => {
                num(&mut fields, "clients", clients as f64);
                num(&mut fields, "body_frac", body_frac);
            }
            Fault::QueueStorm { clients } => {
                num(&mut fields, "clients", clients as f64);
            }
            Fault::NestedBody { clients } => {
                num(&mut fields, "clients", clients as f64);
            }
            Fault::EconomizerDamperStuck {
                at_s,
                duration_s,
                stuck_frac,
            } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
                num(&mut fields, "stuck_frac", stuck_frac);
            }
            Fault::PumpDerate {
                at_s,
                duration_s,
                flow_frac,
            } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
                num(&mut fields, "flow_frac", flow_frac);
            }
            Fault::ReuseDropout { at_s, duration_s } => {
                num(&mut fields, "at_s", at_s);
                num(&mut fields, "duration_s", duration_s);
            }
        }
        Json::Obj(fields)
    }
}

impl FromJson for Fault {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind = v
            .get("kind")
            .ok_or_else(|| JsonError::missing_field("Fault", "kind"))?
            .as_str()
            .ok_or_else(|| JsonError::new("Fault.kind must be a string".to_string()))?;
        match kind {
            "ServerKill" => Ok(Fault::ServerKill {
                at_s: get_f64(v, kind, "at_s")?,
                server: get_usize(v, kind, "server")?,
            }),
            "ServerRevive" => Ok(Fault::ServerRevive {
                at_s: get_f64(v, kind, "at_s")?,
                server: get_usize(v, kind, "server")?,
            }),
            "CoolingDerating" => Ok(Fault::CoolingDerating {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
                capacity_frac: get_f64(v, kind, "capacity_frac")?,
            }),
            "FanFailure" => Ok(Fault::FanFailure {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
                airflow_frac: get_f64(v, kind, "airflow_frac")?,
            }),
            "BlockageSpike" => Ok(Fault::BlockageSpike {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
                inlet_delta_k: get_f64(v, kind, "inlet_delta_k")?,
            }),
            "SensorNoise" => Ok(Fault::SensorNoise {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
                sigma_k: get_f64(v, kind, "sigma_k")?,
            }),
            "SensorStuck" => Ok(Fault::SensorStuck {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
                reading_c: get_f64(v, kind, "reading_c")?,
            }),
            "WorkloadBurst" => Ok(Fault::WorkloadBurst {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
                multiplier: get_f64(v, kind, "multiplier")?,
            }),
            "WorkloadDropout" => Ok(Fault::WorkloadDropout {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
            }),
            "SlowLoris" => Ok(Fault::SlowLoris {
                clients: get_usize(v, kind, "clients")?,
                byte_gap_ms: get_usize(v, kind, "byte_gap_ms")? as u64,
            }),
            "MidBodyDisconnect" => Ok(Fault::MidBodyDisconnect {
                clients: get_usize(v, kind, "clients")?,
                body_frac: get_f64(v, kind, "body_frac")?,
            }),
            "QueueStorm" => Ok(Fault::QueueStorm {
                clients: get_usize(v, kind, "clients")?,
            }),
            "NestedBody" => Ok(Fault::NestedBody {
                clients: get_usize(v, kind, "clients")?,
            }),
            "EconomizerDamperStuck" => Ok(Fault::EconomizerDamperStuck {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
                stuck_frac: get_f64(v, kind, "stuck_frac")?,
            }),
            "PumpDerate" => Ok(Fault::PumpDerate {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
                flow_frac: get_f64(v, kind, "flow_frac")?,
            }),
            "ReuseDropout" => Ok(Fault::ReuseDropout {
                at_s: get_f64(v, kind, "at_s")?,
                duration_s: get_f64(v, kind, "duration_s")?,
            }),
            other => Err(JsonError::new(format!("unknown Fault kind `{other}`"))),
        }
    }
}

/// Knobs for [`FaultPlan::sample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Scenario window the scheduled faults land in, seconds.
    pub window_s: f64,
    /// Cluster size (victim servers are drawn from it).
    pub servers: usize,
    /// Upper bound on sampled faults per plan (at least 1 is drawn).
    pub max_faults: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            window_s: 3_600.0,
            servers: 4,
            max_faults: 10,
        }
    }
}

tts_units::derive_json! { struct PlanConfig { window_s, servers, max_faults } }

/// A deterministic, replayable schedule of faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, sorted by onset; connection-level faults (no
    /// onset) follow at the end.
    pub faults: Vec<Fault>,
}

tts_units::derive_json! { struct FaultPlan { faults } }

impl FaultPlan {
    /// Samples a plan from the in-repo PRNG. The same `(seed, config)`
    /// pair yields the same plan on every platform — that is the whole
    /// replay contract.
    pub fn sample(seed: u64, cfg: &PlanConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let n = rng.gen_range(1..cfg.max_faults.max(1) + 1);
        let mut faults = Vec::new();
        for _ in 0..n {
            let at_s = (rng.gen_range(0.0..0.8) * cfg.window_s).round();
            let duration_s = (rng.gen_range(0.02..0.4) * cfg.window_s).round();
            match rng.gen_range(0u32..15) {
                0 | 1 => {
                    // Kills are the most interesting fault; over-weight
                    // them and usually pair a revive (a "flap").
                    let server = rng.gen_range(0..cfg.servers.max(1));
                    faults.push(Fault::ServerKill { at_s, server });
                    if rng.gen_bool(0.75) {
                        faults.push(Fault::ServerRevive {
                            at_s: (at_s + duration_s).min(cfg.window_s),
                            server,
                        });
                    }
                }
                2 => faults.push(Fault::CoolingDerating {
                    at_s,
                    duration_s,
                    capacity_frac: rng.gen_range(0.0..0.9),
                }),
                3 => faults.push(Fault::FanFailure {
                    at_s,
                    duration_s,
                    airflow_frac: rng.gen_range(0.1..0.8),
                }),
                4 => faults.push(Fault::BlockageSpike {
                    at_s,
                    duration_s,
                    inlet_delta_k: rng.gen_range(2.0..15.0),
                }),
                5 => faults.push(Fault::SensorNoise {
                    at_s,
                    duration_s,
                    sigma_k: rng.gen_range(0.1..3.0),
                }),
                6 => faults.push(Fault::SensorStuck {
                    at_s,
                    duration_s,
                    reading_c: rng.gen_range(15.0..60.0),
                }),
                7 => faults.push(Fault::WorkloadBurst {
                    at_s,
                    duration_s,
                    multiplier: rng.gen_range(1.2..2.0),
                }),
                8 => faults.push(Fault::WorkloadDropout { at_s, duration_s }),
                9 => faults.push(Fault::SlowLoris {
                    clients: rng.gen_range(1usize..5),
                    byte_gap_ms: rng.gen_range(5u64..40),
                }),
                10 => faults.push(Fault::MidBodyDisconnect {
                    clients: rng.gen_range(1usize..5),
                    body_frac: rng.gen_range(0.1..0.9),
                }),
                11 => faults.push(Fault::QueueStorm {
                    clients: rng.gen_range(8usize..25),
                }),
                12 => faults.push(Fault::EconomizerDamperStuck {
                    at_s,
                    duration_s,
                    stuck_frac: rng.gen_range(0.0..0.8),
                }),
                13 => faults.push(Fault::PumpDerate {
                    at_s,
                    duration_s,
                    flow_frac: rng.gen_range(0.2..0.9),
                }),
                _ => faults.push(Fault::ReuseDropout { at_s, duration_s }),
            }
        }
        // Scheduled faults in onset order; connection-level ones at the
        // end. Stable sort keeps kill→revive pairs ordered at ties.
        faults.sort_by(|a, b| {
            let ka = a.at().unwrap_or(f64::INFINITY);
            let kb = b.at().unwrap_or(f64::INFINITY);
            ka.total_cmp(&kb)
        });
        Self { faults }
    }

    /// `(kind, count)` pairs in taxonomy order — a deterministic digest
    /// for summaries.
    pub fn kind_counts(&self) -> Vec<(String, u64)> {
        const KINDS: [&str; 16] = [
            "ServerKill",
            "ServerRevive",
            "CoolingDerating",
            "FanFailure",
            "BlockageSpike",
            "SensorNoise",
            "SensorStuck",
            "WorkloadBurst",
            "WorkloadDropout",
            "SlowLoris",
            "MidBodyDisconnect",
            "QueueStorm",
            "NestedBody",
            "EconomizerDamperStuck",
            "PumpDerate",
            "ReuseDropout",
        ];
        KINDS
            .iter()
            .map(|k| {
                (
                    k.to_string(),
                    self.faults.iter().filter(|f| f.kind() == *k).count() as u64,
                )
            })
            .collect()
    }

    /// The connection-level faults (driven against a live service).
    pub fn connection_faults(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .filter(|f| f.at().is_none())
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let cfg = PlanConfig::default();
        assert_eq!(FaultPlan::sample(42, &cfg), FaultPlan::sample(42, &cfg));
        assert_ne!(FaultPlan::sample(42, &cfg), FaultPlan::sample(43, &cfg));
    }

    #[test]
    fn scheduled_faults_are_sorted_and_in_window() {
        let cfg = PlanConfig::default();
        for seed in 0..200 {
            let plan = FaultPlan::sample(seed, &cfg);
            assert!(!plan.faults.is_empty());
            let times: Vec<f64> = plan.faults.iter().filter_map(|f| f.at()).collect();
            for w in times.windows(2) {
                assert!(w[0] <= w[1], "seed {seed}: unsorted {times:?}");
            }
            for t in &times {
                assert!((0.0..=cfg.window_s).contains(t), "seed {seed}: {t}");
            }
        }
    }

    #[test]
    fn json_round_trips_every_kind() {
        let cfg = PlanConfig {
            window_s: 7_200.0,
            servers: 8,
            max_faults: 40,
        };
        // A big plan hits every variant with overwhelming probability.
        let plan = FaultPlan::sample(7, &cfg);
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("round-trip");
        assert_eq!(plan, back);
        // Byte-identical canonical text both ways.
        assert_eq!(
            json.canonical().to_string_pretty(),
            back.to_json().canonical().to_string_pretty()
        );
    }

    #[test]
    fn nested_body_round_trips_and_is_never_sampled() {
        let plan = FaultPlan {
            faults: vec![Fault::NestedBody { clients: 2 }],
        };
        let back = FaultPlan::from_json(&plan.to_json()).expect("round-trip");
        assert_eq!(back, plan);
        assert_eq!(plan.faults[0].kind(), "NestedBody");
        assert_eq!(plan.faults[0].at(), None);
        let cfg = PlanConfig {
            max_faults: 40,
            ..PlanConfig::default()
        };
        for seed in 0..200 {
            let sampled = FaultPlan::sample(seed, &cfg);
            assert!(
                sampled.faults.iter().all(|f| f.kind() != "NestedBody"),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let v = tts_units::json::parse(r#"{"kind":"MeteorStrike"}"#).unwrap();
        assert!(Fault::from_json(&v).is_err());
    }

    #[test]
    fn kind_counts_cover_the_taxonomy() {
        let plan = FaultPlan::sample(1, &PlanConfig::default());
        let counts = plan.kind_counts();
        assert_eq!(counts.len(), 16);
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, plan.faults.len() as u64);
    }
}
