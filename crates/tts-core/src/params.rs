//! Declarative experiment-parameter schemas.
//!
//! Every knob an experiment exposes over `POST /v1/experiments/{name}`
//! (or as a `repro` flag, via [`flags_to_json`]) is described once, as a
//! [`ParamSpec`]: name, value domain, default, and prose. Validation
//! ([`Params::from_json`]), support checks ([`Params::ensure_only`]), the
//! `GET /v1/experiments` wire schema ([`schema_json`]), and the
//! `EXPERIMENTS.md` parameter tables ([`schema_markdown`]) are all derived
//! from the same specs, so the docs cannot drift from what the server
//! actually accepts — and an experiment that doesn't understand a
//! parameter never sees it: `fig7` rejects `shards` at parse time with an
//! error that lists only *its* parameters.
//!
//! Specs are `const`-constructible so each experiment's schema is a
//! `&'static [ParamSpec]` with zero runtime registration; defaults that
//! differ between experiments (e.g. `servers` means 32 to `dcsim` and a
//! million to `fleet`) are expressed with [`ParamSpec::with_default`].

use tts_units::json::Json;

/// The value domain of one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamKind {
    /// A non-negative integer in `min..=max`.
    Int {
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// A finite float in `min..=max`.
    Float {
        /// Smallest accepted value.
        min: f64,
        /// Largest accepted value.
        max: f64,
    },
}

/// One declarative experiment parameter.
#[derive(Clone, Copy)]
pub struct ParamSpec {
    /// The wire name (JSON key and `--flag` name).
    pub name: &'static str,
    /// Accepted values.
    pub kind: ParamKind,
    /// Unit rendered in range errors and docs (empty when unitless).
    pub unit: &'static str,
    /// Human-readable default, for docs and the wire schema.
    pub default: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// Stores a validated value into [`Params`].
    set: fn(&mut Params, f64),
    /// Reads the value back (`None` when unset).
    get: fn(&Params) -> Option<f64>,
}

impl std::fmt::Debug for ParamSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamSpec")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("default", &self.default)
            .finish_non_exhaustive()
    }
}

impl ParamSpec {
    /// The same spec with an experiment-specific default (for schemas
    /// where the shared knob lands on a different value).
    pub const fn with_default(mut self, default: &'static str) -> Self {
        self.default = default;
        self
    }

    /// Validates a JSON value against this spec, returning the value as
    /// `f64` (exact for every in-range integer: the domains stay below
    /// 2^53).
    pub fn validate(&self, value: &Json) -> Result<f64, String> {
        match self.kind {
            ParamKind::Int { min, max } => {
                let x = value
                    .as_f64()
                    .filter(|x| x.is_finite() && x.fract() == 0.0 && *x >= 0.0)
                    .ok_or_else(|| {
                        format!("parameter {:?} must be a non-negative integer", self.name)
                    })?;
                let n = x as u64;
                if !(min..=max).contains(&n) {
                    return Err(format!(
                        "parameter {:?} must be in {min}..={max} (got {n})",
                        self.name
                    ));
                }
                Ok(n as f64)
            }
            ParamKind::Float { min, max } => {
                let x = value
                    .as_f64()
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| format!("parameter {:?} must be a number", self.name))?;
                if !(min..=max).contains(&x) {
                    let unit = if self.unit.is_empty() {
                        String::new()
                    } else {
                        format!(" {}", self.unit)
                    };
                    return Err(format!(
                        "parameter {:?} must be in {min}..={max}{unit} (got {x})",
                        self.name
                    ));
                }
                Ok(x)
            }
        }
    }

    /// The spec as a wire-schema object: `{name, type, min, max,
    /// default, unit, doc}`.
    pub fn to_json(&self) -> Json {
        let (ty, min, max) = match self.kind {
            ParamKind::Int { min, max } => ("int", min as f64, max as f64),
            ParamKind::Float { min, max } => ("float", min, max),
        };
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.to_string())),
            ("type".to_string(), Json::Str(ty.to_string())),
            ("min".to_string(), Json::Num(min)),
            ("max".to_string(), Json::Num(max)),
            ("default".to_string(), Json::Str(self.default.to_string())),
            ("unit".to_string(), Json::Str(self.unit.to_string())),
            ("doc".to_string(), Json::Str(self.doc.to_string())),
        ])
    }
}

/// Caller-supplied overrides for one experiment run, parsed from the JSON
/// body of `POST /v1/experiments/{name}` (and usable by any embedder).
///
/// Every field is optional; `None` means "the experiment's default". An
/// experiment declares the knobs it honours as a `&'static [ParamSpec]`
/// schema ([`crate::experiment::Experiment::schema`]); parsing a body
/// against that schema ([`Params::from_json`]) rejects unknown keys,
/// wrong types, and out-of-range values up front, so a typo'd or
/// unsupported parameter is a clear error rather than a silently
/// ignored field.
///
/// `threads` is special: it is *advisory to the executor*, applied by the
/// caller (the serving layer wraps the run in a thread-count override).
/// The repo-wide determinism contract means it can never change result
/// bytes — only how fast they are produced.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Params {
    /// Worker-thread count for the run's parallel sweeps.
    pub threads: Option<usize>,
    /// Trace seed for the discrete simulation's job stream.
    pub seed: Option<u64>,
    /// Cluster size (number of servers).
    pub servers: Option<usize>,
    /// Fixed wax melting point in °C instead of the catalogue grid search.
    pub melt_temp_c: Option<f64>,
    /// Scenario count for the chaos batch (the seed chain length).
    pub seeds: Option<usize>,
    /// Shard count for the fleet engine's epoch-parallel stepping.
    pub shards: Option<usize>,
    /// Number of datacenters drawn from the fleet site catalogue.
    pub datacenters: Option<usize>,
    /// Simulated horizon in hours (the fleet trace wraps past its end;
    /// the scheduler plans this far ahead).
    pub horizon_h: Option<f64>,
    /// Planning slot length in minutes for the scheduler.
    pub slot_min: Option<usize>,
    /// Number of deferrable delay classes for the scheduler.
    pub tranches: Option<usize>,
    /// Paid simulator-evaluation budget for the design search.
    pub budget: Option<usize>,
    /// CMA-ES generation cap for the design search.
    pub generations: Option<usize>,
    /// Climate-site count for the scenario matrix (prefix of
    /// temperate/tropical/desert).
    pub sites: Option<usize>,
    /// Cooling-backend count for the scenario matrix (prefix of
    /// chiller/economizer/hotwater).
    pub backends: Option<usize>,
    /// Demand-trace count for the scenario matrix (prefix of
    /// diurnal/weekly/flash/training).
    pub traces: Option<usize>,
}

/// `threads` — honoured by every experiment.
pub const THREADS: ParamSpec = ParamSpec {
    name: "threads",
    kind: ParamKind::Int { min: 1, max: 1024 },
    unit: "",
    default: "executor default",
    doc: "Worker-thread count, advisory to the executor; never changes result bytes.",
    set: |p, v| p.threads = Some(v as usize),
    get: |p| p.threads.map(|v| v as f64),
};

/// `seed` — trace/scenario seed.
pub const SEED: ParamSpec = ParamSpec {
    name: "seed",
    kind: ParamKind::Int {
        min: 0,
        max: (1u64 << 53) - 1,
    },
    unit: "",
    default: "42",
    doc: "Deterministic seed for the run's generated trace or scenario chain.",
    set: |p, v| p.seed = Some(v as u64),
    get: |p| p.seed.map(|v| v as f64),
};

/// `servers` — cluster size.
pub const SERVERS: ParamSpec = ParamSpec {
    name: "servers",
    kind: ParamKind::Int {
        min: 1,
        max: 1_000_000,
    },
    unit: "",
    default: "1008",
    doc: "Cluster size in servers.",
    set: |p, v| p.servers = Some(v as usize),
    get: |p| p.servers.map(|v| v as f64),
};

/// `melt_temp_c` — fixed wax melting point.
pub const MELT_TEMP_C: ParamSpec = ParamSpec {
    name: "melt_temp_c",
    kind: ParamKind::Float {
        min: 0.0,
        max: 150.0,
    },
    unit: "°C",
    default: "catalogue grid search",
    doc: "Fixed wax melting point instead of the catalogue grid search.",
    set: |p, v| p.melt_temp_c = Some(v),
    get: |p| p.melt_temp_c,
};

/// `seeds` — chaos scenario count.
pub const SEEDS: ParamSpec = ParamSpec {
    name: "seeds",
    kind: ParamKind::Int { min: 1, max: 4096 },
    unit: "",
    default: "16",
    doc: "Scenario count for the chaos batch (the seed chain length).",
    set: |p, v| p.seeds = Some(v as usize),
    get: |p| p.seeds.map(|v| v as f64),
};

/// `shards` — fleet engine shard count.
pub const SHARDS: ParamSpec = ParamSpec {
    name: "shards",
    kind: ParamKind::Int {
        min: 1,
        max: 65_536,
    },
    unit: "",
    default: "256",
    doc: "Shard count for the fleet engine's epoch-parallel stepping.",
    set: |p, v| p.shards = Some(v as usize),
    get: |p| p.shards.map(|v| v as f64),
};

/// `datacenters` — fleet site count.
pub const DATACENTERS: ParamSpec = ParamSpec {
    name: "datacenters",
    kind: ParamKind::Int { min: 1, max: 8 },
    unit: "",
    default: "4",
    doc: "Number of datacenters drawn from the fleet site catalogue.",
    set: |p, v| p.datacenters = Some(v as usize),
    get: |p| p.datacenters.map(|v| v as f64),
};

/// `horizon_h` — simulated/planning horizon.
pub const HORIZON_H: ParamSpec = ParamSpec {
    name: "horizon_h",
    kind: ParamKind::Float {
        min: 0.01,
        max: 240.0,
    },
    unit: "hours",
    default: "trace duration",
    doc: "Simulated horizon in hours (traces wrap past their end).",
    set: |p, v| p.horizon_h = Some(v),
    get: |p| p.horizon_h,
};

/// `slot_min` — scheduler planning-slot length.
pub const SLOT_MIN: ParamSpec = ParamSpec {
    name: "slot_min",
    kind: ParamKind::Int { min: 5, max: 60 },
    unit: "minutes",
    default: "15",
    doc: "Planning slot length in minutes for the receding-horizon scheduler.",
    set: |p, v| p.slot_min = Some(v as usize),
    get: |p| p.slot_min.map(|v| v as f64),
};

/// `tranches` — scheduler delay-class count.
pub const TRANCHES: ParamSpec = ParamSpec {
    name: "tranches",
    kind: ParamKind::Int { min: 1, max: 4 },
    unit: "",
    default: "4",
    doc: "Deferrable delay classes (prefix of 30/60/120/180 min).",
    set: |p, v| p.tranches = Some(v as usize),
    get: |p| p.tranches.map(|v| v as f64),
};

/// `budget` — design-search paid-evaluation cap.
pub const BUDGET: ParamSpec = ParamSpec {
    name: "budget",
    kind: ParamKind::Int {
        min: 1,
        max: 100_000,
    },
    unit: "evals",
    default: "7",
    doc: "Paid simulator evaluations the design search may spend (memo hits are free).",
    set: |p, v| p.budget = Some(v as usize),
    get: |p| p.budget.map(|v| v as f64),
};

/// `generations` — design-search CMA-ES generation cap.
pub const GENERATIONS: ParamSpec = ParamSpec {
    name: "generations",
    kind: ParamKind::Int {
        min: 1,
        max: 10_000,
    },
    unit: "",
    default: "40",
    doc: "Upper bound on CMA-ES generations in the design search.",
    set: |p, v| p.generations = Some(v as usize),
    get: |p| p.generations.map(|v| v as f64),
};

/// `sites` — scenario-matrix climate-site count.
pub const SITES: ParamSpec = ParamSpec {
    name: "sites",
    kind: ParamKind::Int { min: 1, max: 3 },
    unit: "",
    default: "3",
    doc: "Climate sites swept (prefix of temperate/tropical/desert).",
    set: |p, v| p.sites = Some(v as usize),
    get: |p| p.sites.map(|v| v as f64),
};

/// `backends` — scenario-matrix cooling-backend count.
pub const BACKENDS: ParamSpec = ParamSpec {
    name: "backends",
    kind: ParamKind::Int { min: 1, max: 3 },
    unit: "",
    default: "3",
    doc: "Cooling backends swept (prefix of chiller/economizer/hotwater).",
    set: |p, v| p.backends = Some(v as usize),
    get: |p| p.backends.map(|v| v as f64),
};

/// `traces` — scenario-matrix demand-trace count.
pub const TRACES: ParamSpec = ParamSpec {
    name: "traces",
    kind: ParamKind::Int { min: 1, max: 4 },
    unit: "",
    default: "4",
    doc: "Demand traces swept (prefix of diurnal/weekly/flash/training).",
    set: |p, v| p.traces = Some(v as usize),
    get: |p| p.traces.map(|v| v as f64),
};

/// Every spec, in canonical order — the universe [`Params::set_fields`]
/// and [`Params::ensure_only`] scan.
pub const ALL: &[ParamSpec] = &[
    THREADS,
    SEED,
    SERVERS,
    MELT_TEMP_C,
    SEEDS,
    SHARDS,
    DATACENTERS,
    HORIZON_H,
    SLOT_MIN,
    TRANCHES,
    BUDGET,
    GENERATIONS,
    SITES,
    BACKENDS,
    TRACES,
];

/// The schema every experiment supports at minimum.
pub const BASE: &[ParamSpec] = &[THREADS];

/// `fig11` — cooling-load study knobs.
pub const FIG11: &[ParamSpec] = &[THREADS, SERVERS, MELT_TEMP_C];

/// `dcsim` — discrete cluster simulation knobs.
pub const DCSIM: &[ParamSpec] = &[THREADS, SEED.with_default("17"), SERVERS.with_default("32")];

/// `chaos` — fault-injection batch knobs.
pub const CHAOS: &[ParamSpec] = &[
    THREADS,
    SEED.with_default("0x74737473"),
    SEEDS,
    SERVERS.with_default("4"),
];

/// `fleet` — epoch-sharded fleet engine knobs.
pub const FLEET: &[ParamSpec] = &[
    THREADS,
    SEED,
    SERVERS.with_default("1000000"),
    SHARDS,
    DATACENTERS,
    HORIZON_H,
];

/// `schedule` — receding-horizon co-optimizer knobs.
pub const SCHEDULE: &[ParamSpec] = &[
    THREADS,
    SEED,
    SERVERS,
    HORIZON_H.with_default("24"),
    SLOT_MIN,
    TRANCHES,
];

/// `design` — surrogate-assisted design-search knobs.
pub const DESIGN: &[ParamSpec] = &[THREADS, SEED, SERVERS, BUDGET, GENERATIONS];

/// `scenarios` — scenario-matrix knobs (site × backend × trace axes).
pub const SCENARIOS: &[ParamSpec] = &[THREADS, SEED, SITES, BACKENDS, TRACES];

/// The names in a schema, in order.
pub fn names(schema: &[ParamSpec]) -> Vec<&'static str> {
    schema.iter().map(|s| s.name).collect()
}

/// A schema as the wire document `GET /v1/experiments` embeds: an array
/// of [`ParamSpec::to_json`] objects.
pub fn schema_json(schema: &[ParamSpec]) -> Json {
    Json::Arr(schema.iter().map(ParamSpec::to_json).collect())
}

/// A schema as a Markdown parameter table (the `EXPERIMENTS.md`
/// serving-endpoint docs are generated from this, so they cannot drift
/// from validation).
pub fn schema_markdown(schema: &[ParamSpec]) -> String {
    let mut md =
        String::from("| param | type | range | default | description |\n|---|---|---|---|---|\n");
    for s in schema {
        let (ty, range) = match s.kind {
            ParamKind::Int { min, max } => ("int", format!("{min}..={max}")),
            ParamKind::Float { min, max } => ("float", format!("{min}..={max}")),
        };
        let range = if s.unit.is_empty() {
            range
        } else {
            format!("{range} {}", s.unit)
        };
        md.push_str(&format!(
            "| `{}` | {ty} | {range} | {} | {} |\n",
            s.name, s.default, s.doc
        ));
    }
    md
}

/// The request body `POST /v1/experiments/{name}` would carry for the
/// command-line flags `--<name> <value>`, given as `(name, value)` pairs
/// without the leading `--`. A flag name with `-` spelled `_` is the key;
/// a value that is a JSON number becomes that number and anything else a
/// string, so [`Params::from_json`] gives a flag exactly the validation
/// and error text of the same key in an HTTP body.
pub fn flags_to_json<'a>(flags: impl IntoIterator<Item = (&'a str, &'a str)>) -> Json {
    Json::Obj(
        flags
            .into_iter()
            .map(|(name, raw)| {
                let value = match tts_units::json::parse(raw) {
                    Ok(n @ Json::Num(_)) => n,
                    _ => Json::Str(raw.to_string()),
                };
                (name.replace('-', "_"), value)
            })
            .collect(),
    )
}

impl Params {
    /// Parses a request body against an experiment's schema. The body
    /// must be a JSON object; keys outside the schema, wrong types, and
    /// out-of-range values are errors (the serving layer maps them to
    /// `400`). An empty object is the all-defaults run.
    pub fn from_json(doc: &Json, schema: &[ParamSpec]) -> Result<Self, String> {
        let Json::Obj(members) = doc else {
            return Err(format!(
                "params must be a JSON object, got {}",
                doc.kind_name()
            ));
        };
        let mut p = Params::default();
        for (key, value) in members {
            let spec = schema.iter().find(|s| s.name == key).ok_or_else(|| {
                format!(
                    "unknown parameter {key:?} (known: {})",
                    names(schema).join(", ")
                )
            })?;
            (spec.set)(&mut p, spec.validate(value)?);
        }
        Ok(p)
    }

    /// Names of the parameters that are actually set, in [`ALL`] order.
    pub fn set_fields(&self) -> Vec<&'static str> {
        ALL.iter()
            .filter(|s| (s.get)(self).is_some())
            .map(|s| s.name)
            .collect()
    }

    /// Errors unless every set parameter is in `schema` — the guard
    /// behind the default
    /// [`crate::experiment::Experiment::run_with`], protecting embedders
    /// that build [`Params`] directly rather than via
    /// [`Params::from_json`].
    pub fn ensure_only(&self, schema: &[ParamSpec]) -> Result<(), String> {
        for spec in ALL {
            if (spec.get)(self).is_some() && !schema.iter().any(|s| s.name == spec.name) {
                return Err(format!(
                    "parameter {:?} is not supported by this experiment (supported: {})",
                    spec.name,
                    names(schema).join(", ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_units::json::parse;

    #[test]
    fn every_spec_round_trips_through_set_and_get() {
        for spec in ALL {
            let probe = match spec.kind {
                ParamKind::Int { min, .. } => min.max(1) as f64,
                ParamKind::Float { min, max } => (min + max) / 2.0,
            };
            let mut p = Params::default();
            (spec.set)(&mut p, probe);
            assert_eq!(
                (spec.get)(&p),
                Some(probe),
                "{} does not round-trip",
                spec.name
            );
            assert_eq!(p.set_fields(), vec![spec.name]);
        }
    }

    #[test]
    fn unknown_keys_are_rejected_per_schema() {
        // `shards` is real — but not for fig7's schema.
        let doc = parse(r#"{"shards": 8}"#).unwrap();
        let err = Params::from_json(&doc, BASE).unwrap_err();
        assert!(
            err.contains("unknown parameter \"shards\"") && err.contains("threads"),
            "{err}"
        );
        assert!(
            !err.contains("shards, "),
            "error must list only fig7's params: {err}"
        );
        // The same body is fine against the fleet schema.
        assert!(Params::from_json(&doc, FLEET).is_ok());
    }

    #[test]
    fn range_edges_validate_inclusively() {
        for (body, ok) in [
            (r#"{"horizon_h": 0.01}"#, true),
            (r#"{"horizon_h": 240}"#, true),
            (r#"{"horizon_h": 0.009}"#, false),
            (r#"{"horizon_h": 240.1}"#, false),
            (r#"{"slot_min": 5}"#, true),
            (r#"{"slot_min": 60}"#, true),
            (r#"{"slot_min": 4}"#, false),
            (r#"{"slot_min": 61}"#, false),
            (r#"{"tranches": 1}"#, true),
            (r#"{"tranches": 4}"#, true),
            (r#"{"tranches": 0}"#, false),
            (r#"{"tranches": 5}"#, false),
        ] {
            let doc = parse(body).unwrap();
            assert_eq!(
                Params::from_json(&doc, SCHEDULE).is_ok(),
                ok,
                "{body} expected ok={ok}"
            );
        }
        let err =
            Params::from_json(&parse(r#"{"horizon_h": 999}"#).unwrap(), SCHEDULE).unwrap_err();
        assert_eq!(
            err,
            "parameter \"horizon_h\" must be in 0.01..=240 hours (got 999)"
        );
    }

    #[test]
    fn defaults_can_differ_per_experiment() {
        let dcsim_seed = DCSIM.iter().find(|s| s.name == "seed").unwrap();
        let fleet_seed = FLEET.iter().find(|s| s.name == "seed").unwrap();
        assert_eq!(dcsim_seed.default, "17");
        assert_eq!(fleet_seed.default, "42");
        // Same validation domain either way.
        assert_eq!(dcsim_seed.kind, fleet_seed.kind);
    }

    #[test]
    fn schema_json_carries_types_ranges_and_defaults() {
        let doc = schema_json(SCHEDULE);
        let Json::Arr(items) = &doc else {
            panic!("schema must be an array")
        };
        assert_eq!(items.len(), SCHEDULE.len());
        let slot = items
            .iter()
            .find(|i| i.get("name").and_then(|n| n.as_str()) == Some("slot_min"))
            .expect("slot_min in schema");
        assert_eq!(slot.get("type").and_then(|t| t.as_str()), Some("int"));
        assert_eq!(slot.get("min").and_then(|m| m.as_f64()), Some(5.0));
        assert_eq!(slot.get("max").and_then(|m| m.as_f64()), Some(60.0));
        assert_eq!(slot.get("default").and_then(|d| d.as_str()), Some("15"));
    }

    #[test]
    fn markdown_mirrors_the_wire_schema() {
        let md = schema_markdown(FLEET);
        for spec in FLEET {
            assert!(md.contains(&format!("`{}`", spec.name)), "{md}");
            assert!(md.contains(spec.doc), "{md}");
        }
        assert!(md.contains("0.01..=240 hours"), "{md}");
    }
}
