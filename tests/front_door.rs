//! One front door: a `repro` parameter flag and the same key in a
//! `POST /v1/experiments/{name}` body go through one parse
//! ([`params::flags_to_json`], then [`Params::from_json`]). For every
//! `ParamSpec` of every registered experiment the two paths must agree on
//! the parsed [`Params`] and, word for word, on every error.

use thermal_time_shifting::experiment::{self, ParamKind, ParamSpec, Params};
use thermal_time_shifting::params;
use tts_units::json::parse;

/// Parses `--<flag> <raw>` the way `repro` does.
fn via_flag(schema: &[ParamSpec], flag: &str, raw: &str) -> Result<Params, String> {
    Params::from_json(&params::flags_to_json([(flag, raw)]), schema)
}

/// Parses `{"<key>": <json>}` the way `ttsd` does.
fn via_body(schema: &[ParamSpec], key: &str, json: &str) -> Result<Params, String> {
    let body = parse(&format!("{{{key:?}: {json}}}")).expect("test body is valid JSON");
    Params::from_json(&body, schema)
}

/// The flag spelling of a spec: its wire name with `-` for `_`.
fn flag(spec: &ParamSpec) -> String {
    spec.name.replace('_', "-")
}

/// Every `(experiment, schema, spec)` triple in the registry.
fn every_spec() -> Vec<(&'static str, &'static [ParamSpec], ParamSpec)> {
    experiment::registry()
        .iter()
        .flat_map(|exp| exp.schema().iter().map(|s| (exp.name(), exp.schema(), *s)))
        .collect()
}

/// Asserts that `raw` as a flag and `json` as a body value give the same
/// outcome, and returns it.
fn agree(
    exp: &str,
    schema: &[ParamSpec],
    spec: &ParamSpec,
    raw: &str,
    json: &str,
) -> Result<Params, String> {
    let by_flag = via_flag(schema, &flag(spec), raw);
    let by_body = via_body(schema, spec.name, json);
    assert_eq!(
        by_flag,
        by_body,
        "{exp} --{} {raw} vs {{{:?}: {json}}}",
        flag(spec),
        spec.name
    );
    by_flag
}

#[test]
fn every_in_range_flag_parses_like_its_json_body() {
    for (exp, schema, spec) in every_spec() {
        let values = match spec.kind {
            ParamKind::Int { min, max } => [min, (min + max) / 2, max].map(|n| n.to_string()),
            ParamKind::Float { min, max } => [min, (min + max) / 2.0, max].map(|x| x.to_string()),
        };
        for v in &values {
            let p = agree(exp, schema, &spec, v, v)
                .unwrap_or_else(|e| panic!("{exp} --{} {v} rejected: {e}", flag(&spec)));
            assert_eq!(
                p.set_fields(),
                vec![spec.name],
                "{exp} --{} {v}",
                flag(&spec)
            );
        }
    }
}

#[test]
fn out_of_range_flags_fail_with_the_http_error() {
    for (exp, schema, spec) in every_spec() {
        let mut values = Vec::new();
        match spec.kind {
            ParamKind::Int { min, max } => {
                if min > 0 {
                    values.push((min - 1).to_string());
                }
                values.push((max + 1).to_string());
            }
            ParamKind::Float { min, max } => {
                values.push((min - 1.0).to_string());
                values.push((max + 1.0).to_string());
            }
        }
        for v in &values {
            let err = agree(exp, schema, &spec, v, v).expect_err("out of range");
            assert!(err.contains(&format!("{:?}", spec.name)), "{exp}: {err}");
        }
    }
}

#[test]
fn foreign_flags_fail_with_the_http_error() {
    let mut checked = 0;
    for exp in experiment::registry() {
        let schema = exp.schema();
        for spec in params::ALL {
            if schema.iter().any(|s| s.name == spec.name) {
                continue;
            }
            let err = agree(exp.name(), schema, spec, "1", "1").expect_err("foreign key");
            assert!(
                err.starts_with(&format!("unknown parameter {:?}", spec.name)),
                "{}: {err}",
                exp.name()
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "some schema must lack some parameter");
}

#[test]
fn wrongly_typed_flags_fail_with_the_http_error() {
    for (exp, schema, spec) in every_spec() {
        for (raw, json) in [("many", "\"many\""), ("-1", "-1"), ("2.5", "2.5")] {
            let outcome = agree(exp, schema, &spec, raw, json);
            if matches!(spec.kind, ParamKind::Int { .. }) {
                assert!(outcome.is_err(), "{exp} --{} {raw}", flag(&spec));
            }
        }
    }
}

#[test]
fn values_outside_json_number_syntax_stay_strings() {
    // A flag value is a number only if JSON would read it as one, so Rust
    // spellings such as `inf` or `0x10` meet the HTTP type error.
    for raw in ["inf", "NaN", "0x10", "1_000", "+5", " "] {
        assert_eq!(
            params::flags_to_json([("seed", raw)]),
            parse(&format!("{{\"seed\": {raw:?}}}")).unwrap(),
            "{raw:?}"
        );
    }
    assert_eq!(
        params::flags_to_json([("servers", "1e3")]),
        parse(r#"{"servers": 1e3}"#).unwrap()
    );
}

#[test]
fn flag_names_spell_underscores_as_dashes() {
    assert_eq!(
        params::flags_to_json([
            ("slot-min", "15"),
            ("horizon-h", "6"),
            ("melt-temp-c", "48")
        ]),
        parse(r#"{"slot_min": 15, "horizon_h": 6, "melt_temp_c": 48}"#).unwrap()
    );
}

#[test]
fn no_flags_is_the_all_defaults_run() {
    for exp in experiment::registry() {
        let by_flag = Params::from_json(&params::flags_to_json([]), exp.schema());
        let by_body = Params::from_json(&parse("{}").unwrap(), exp.schema());
        assert_eq!(by_flag, Ok(Params::default()), "{}", exp.name());
        assert_eq!(by_flag, by_body, "{}", exp.name());
    }
}

#[test]
fn repeated_flags_resolve_like_repeated_keys() {
    let schema = experiment::find("dcsim")
        .expect("dcsim is registered")
        .schema();
    let by_flag = Params::from_json(
        &params::flags_to_json([("seed", "1"), ("seed", "2")]),
        schema,
    );
    let by_body = Params::from_json(&parse(r#"{"seed": 1, "seed": 2}"#).unwrap(), schema);
    assert_eq!(by_flag, by_body);
    assert_eq!(by_flag.map(|p| p.seed), Ok(Some(2)));
}

#[test]
fn every_schema_takes_the_run_wide_threads_flag() {
    // `repro` applies `--threads` to the whole run, whatever the artifact,
    // so every experiment must accept it.
    for exp in experiment::registry() {
        assert!(
            exp.schema().iter().any(|s| s.name == params::THREADS.name),
            "{} lacks threads",
            exp.name()
        );
    }
    assert_eq!(
        via_flag(params::BASE, "threads", "0"),
        via_body(params::BASE, "threads", "0")
    );
}
