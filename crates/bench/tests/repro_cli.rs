//! The `repro` binary's front door: bad input exits 2 with the same
//! message the HTTP API gives, every accepted flag reaches the run
//! (a flag that is parsed but dropped would leave the output unchanged),
//! and stdout is exactly the record `--write` files.

use std::process::{Command, Output};
use thermal_time_shifting::experiment::{self, Params};
use thermal_time_shifting::params;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Stderr without the trailing `done in X s` timing line.
fn stderr_without_timing(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = text.lines().collect();
    match lines.split_last() {
        Some((last, rest)) if last.starts_with("done in ") => rest.join("\n"),
        _ => text.into_owned(),
    }
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(message), "repro {args:?}: {stderr}");
}

/// The error `POST /v1/experiments/{exp}` answers for the one key `flag`
/// (dashes spelled as underscores) set to `value`.
fn http_error(exp: &str, flag: &str, value: &str) -> String {
    let schema = experiment::find(exp).expect("registered").schema();
    Params::from_json(&params::flags_to_json([(flag, value)]), schema)
        .expect_err("the HTTP path rejects it too")
}

#[test]
fn unknown_artifacts_exit_2() {
    assert_usage_error(&["nosuch"], "unknown artifact \"nosuch\"");
    assert_usage_error(&["nosuch", "--bogus", "3"], "unknown artifact \"nosuch\"");
}

#[test]
fn schema_violations_exit_2_with_the_http_message() {
    for (exp, flag, value) in [
        ("fig7", "bogus", "1"),
        ("fig7", "servers", "3"),
        ("scenarios", "sites", "9"),
        ("fleet", "datacenters", "20"),
        ("schedule", "slot-min", "1"),
    ] {
        let message = http_error(exp, flag, value);
        assert_usage_error(&[exp, &format!("--{flag}"), value], &message);
    }
}

#[test]
fn hand_rendered_artifacts_take_no_parameter_flags() {
    assert_usage_error(
        &["table1", "--servers", "3"],
        "table1 takes no parameter flags",
    );
}

#[test]
fn threads_flag_does_not_change_the_output() {
    let plain = repro(&["fig7"]);
    let pinned = repro(&["--threads", "2", "fig7"]);
    assert!(plain.status.success() && pinned.status.success());
    assert_eq!(plain.stdout, pinned.stdout);
    assert_eq!(
        stderr_without_timing(&plain),
        stderr_without_timing(&pinned)
    );
}

#[test]
fn seed_flag_reaches_dcsim() {
    let default = repro(&["dcsim"]);
    let seeded = repro(&["dcsim", "--seed", "5"]);
    assert!(default.status.success() && seeded.status.success());
    assert_ne!(default.stdout, seeded.stdout);
}

#[test]
fn failed_writes_exit_nonzero_and_name_the_path() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_failed_write");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A regular file where `--write` needs the `results` directory.
    std::fs::write(dir.join("results"), "not a directory").expect("blocker file");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig7", "--write"])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("cannot write results/"), "{stderr}");
}

/// The sections of an `EXPERIMENTS.md`: everything after the serving
/// endpoints preamble, without the trailing timing line.
fn filed_sections(md: &str) -> &str {
    let start = md
        .match_indices("\n## ")
        .map(|(i, _)| i + 1)
        .find(|&i| !md[i..].starts_with("## Serving endpoints"))
        .expect("a section follows the preamble");
    let end = md
        .rfind("\n*Total regeneration time: ")
        .expect("a timing line");
    &md[start..end]
}

#[test]
fn stdout_is_exactly_the_filed_sections() {
    for (artifact, heading) in [("table1", "## Table 1"), ("fig7", "## Figure 7")] {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("repro_sections_{artifact}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([artifact, "--write"])
            .current_dir(&dir)
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "repro {artifact}: {out:?}");
        let md = std::fs::read_to_string(dir.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
        assert!(stdout.starts_with(heading), "repro {artifact}: {stdout}");
        assert_eq!(stdout, filed_sections(&md), "repro {artifact}");
    }
}
