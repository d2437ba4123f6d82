//! The simulation-test harness: run a batch of seeded scenarios and
//! summarize them byte-deterministically.
//!
//! Mirrors the `tts_rng::prop` convention: a base seed spawns a
//! [`SplitMix64`] chain of per-scenario seeds (the base seed itself is
//! case 0), so any failing scenario replays from its printed seed with
//! `repro chaos --seed 0x…` — no dependence on batch size, thread
//! count, or position in the batch.

use crate::invariant::Violation;
use crate::scenario::{replay_command, run_scenario, ScenarioReport};
use tts_rng::{RngCore, SplitMix64};
use tts_units::json::{Json, ToJson};

/// Batch shape: how many scenarios, from which base seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Base seed for the scenario-seed chain.
    pub base_seed: u64,
    /// Number of scenarios to run.
    pub seeds: usize,
    /// Cluster size of every scenario.
    pub servers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            base_seed: 0x7473_7473, // "tsts"
            seeds: 16,
            servers: 4,
        }
    }
}

/// The seed chain for a batch: base seed first, then SplitMix64
/// successors — identical to the `prop` harness's case chain.
pub fn seed_chain(base_seed: u64, n: usize) -> Vec<u64> {
    let mut seq = SplitMix64::new(base_seed);
    let mut seeds = Vec::with_capacity(n);
    let mut seed = base_seed;
    for _ in 0..n {
        seeds.push(seed);
        seed = seq.next_u64();
    }
    seeds
}

/// Batch outcome: per-scenario reports plus roll-up tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSummary {
    /// The base seed the chain was rooted at.
    pub base_seed: u64,
    /// Scenarios run.
    pub scenarios: usize,
    /// Total invariant checks across the batch.
    pub checks: u64,
    /// Total faults injected across the batch, by kind.
    pub fault_counts: Vec<(String, u64)>,
    /// Seeds whose scenario violated an invariant, in chain order.
    pub failing_seeds: Vec<u64>,
    /// Every report, in chain order.
    pub reports: Vec<ScenarioReport>,
}

impl ChaosSummary {
    /// Did every scenario pass every invariant?
    pub fn all_green(&self) -> bool {
        self.failing_seeds.is_empty()
    }

    /// All violations across the batch, each tagged with its seed.
    pub fn violations(&self) -> Vec<(u64, &Violation)> {
        self.reports
            .iter()
            .flat_map(|r| r.violations.iter().map(move |v| (r.seed, v)))
            .collect()
    }

    /// One replay line per failing seed — the copy-paste repro block.
    pub fn replay_lines(&self) -> Vec<String> {
        self.failing_seeds
            .iter()
            .map(|s| replay_command(*s))
            .collect()
    }
}

impl ToJson for ChaosSummary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("base_seed".to_string(), Json::Num(self.base_seed as f64)),
            ("scenarios".to_string(), Json::Num(self.scenarios as f64)),
            ("checks".to_string(), Json::Num(self.checks as f64)),
            (
                "fault_counts".to_string(),
                Json::Obj(
                    self.fault_counts
                        .iter()
                        .map(|(k, c)| (k.clone(), Json::Num(*c as f64)))
                        .collect(),
                ),
            ),
            (
                "failing_seeds".to_string(),
                Json::Arr(
                    self.failing_seeds
                        .iter()
                        .map(|s| Json::Str(format!("{s:#x}")))
                        .collect(),
                ),
            ),
            ("reports".to_string(), self.reports.to_json()),
        ])
    }
}

/// Runs `cfg.seeds` scenarios across the seed chain, in parallel via
/// [`tts_exec::par_map`] (ordered — the summary is byte-identical at
/// any `TTS_THREADS`).
pub fn run_batch(cfg: &BatchConfig) -> ChaosSummary {
    let seeds = seed_chain(cfg.base_seed, cfg.seeds);
    let servers = cfg.servers;
    let reports: Vec<ScenarioReport> =
        tts_exec::par_map(&seeds, move |seed| run_scenario(*seed, servers));
    summarize(cfg.base_seed, reports)
}

/// Rolls a list of reports (chain order) into a [`ChaosSummary`].
pub fn summarize(base_seed: u64, reports: Vec<ScenarioReport>) -> ChaosSummary {
    let checks = reports.iter().map(|r| r.checks).sum();
    let failing_seeds = reports
        .iter()
        .filter(|r| !r.all_green())
        .map(|r| r.seed)
        .collect();
    let mut fault_counts: Vec<(String, u64)> = Vec::new();
    for r in &reports {
        for (kind, count) in &r.fault_counts {
            match fault_counts.iter_mut().find(|(k, _)| k == kind) {
                Some((_, c)) => *c += count,
                None => fault_counts.push((kind.clone(), *count)),
            }
        }
    }
    ChaosSummary {
        base_seed,
        scenarios: reports.len(),
        checks,
        fault_counts,
        failing_seeds,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_chain_matches_prop_convention() {
        let chain = seed_chain(7, 3);
        assert_eq!(chain[0], 7, "base seed is case 0");
        let mut seq = SplitMix64::new(7);
        assert_eq!(chain[1], seq.next_u64());
        assert_eq!(chain[2], seq.next_u64());
    }

    #[test]
    fn batch_is_deterministic_and_green() {
        let cfg = BatchConfig {
            seeds: 4,
            ..BatchConfig::default()
        };
        let a = run_batch(&cfg);
        let b = run_batch(&cfg);
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
        assert!(
            a.all_green(),
            "violations: {:?}\nreplay:\n{}",
            a.violations(),
            a.replay_lines().join("\n")
        );
        assert_eq!(a.scenarios, 4);
        assert!(a.checks > 4_000, "every scenario steps thermal checks");
    }

    #[test]
    fn summarize_flags_failing_seeds_in_chain_order() {
        let mut r1 = run_scenario(1, 4);
        let mut r2 = run_scenario(2, 4);
        r1.violations.push(crate::invariant::Violation {
            invariant: "fake".to_string(),
            detail: "forced".to_string(),
        });
        r2.violations.push(crate::invariant::Violation {
            invariant: "fake".to_string(),
            detail: "forced".to_string(),
        });
        let s = summarize(0, vec![r1, r2]);
        assert_eq!(s.failing_seeds, vec![1, 2]);
        assert_eq!(
            s.replay_lines(),
            vec!["repro chaos --seed 0x1", "repro chaos --seed 0x2"]
        );
        assert!(!s.all_green());
        assert_eq!(s.violations().len(), 2);
    }
}
