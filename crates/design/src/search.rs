//! The search driver: objective seam, evaluation memo, CMA-ES run.
//!
//! # Determinism contract
//!
//! All optimizer math (CMA-ES updates, surrogate fits, ranking, memo
//! bookkeeping) is serial. The only parallelism is fanning an evaluation
//! batch through [`tts_exec::par_map`], which preserves input order, so a
//! search is byte-identical at any `TTS_THREADS` and fully replayable from
//! its seed. Timing is only ever recorded into a `BestEffort`-tagged
//! histogram, which is excluded from deterministic metric snapshots.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use tts_obs::{Determinism, MetricsSink};
use tts_rng::{Sample, SeedableRng, Xoshiro256pp};

use crate::cmaes::CmaEs;
use crate::space::{DesignSpace, Dim};
use crate::surrogate::{expected_improvement, Rbf, MAX_TRAINING};

/// Objective value marking an infeasible design (constraint violation the
/// objective cannot express as a penalty). Infeasible points are archived
/// but never become the incumbent and never enter surrogate training.
pub const INFEASIBLE: f64 = f64::INFINITY;

/// Latency buckets (milliseconds per simulator evaluation).
const EVAL_MS_EDGES: [f64; 10] = [0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0];

/// Space-filling design size seeding the surrogate before CMA-ES.
const DOE_POINTS: usize = 3;

/// Initial CMA-ES step size in the unit cube.
const SIGMA0: f64 = 0.3;

/// A black-box objective over a [`DesignSpace`]. `evaluate` runs the (maybe
/// expensive) simulator and returns its full output; `value` extracts the
/// scalar to minimize, so a search returns the full output of its best
/// point and of every point in its archive. Return [`INFEASIBLE`] from
/// `value` for hard constraint violations, or fold soft constraints in as
/// penalties.
pub trait Objective: Sync {
    /// Full simulator output for one design point.
    type Out: Clone + Send;
    /// Run the simulator at the (snapped) point `x`.
    fn evaluate(&self, x: &[f64]) -> Self::Out;
    /// Scalar objective (lower is better) of an output.
    fn value(&self, out: &Self::Out) -> f64;
}

/// Tunables for one surrogate-screened (μ/μ_w, λ)-CMA-ES run with a
/// lattice-polish phase.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Seed for every random decision in the run.
    pub seed: u64,
    /// Hard cap on *paid* simulator evaluations (memo hits are free).
    pub budget: usize,
    /// Cap on CMA-ES generations.
    pub max_generations: usize,
    /// Paid evaluations per generation: the surrogate ranks the population
    /// by expected improvement and only the top `screen` are simulated.
    pub screen: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            seed: 42,
            budget: 64,
            max_generations: 64,
            screen: 1,
        }
    }
}

/// Outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchResult<Out> {
    /// Best (snapped) design point found.
    pub best_x: Vec<f64>,
    /// Simulator output at `best_x`.
    pub best_out: Out,
    /// Objective value at `best_x` ([`INFEASIBLE`] when nothing feasible).
    pub best_value: f64,
    /// Paid simulator evaluations.
    pub evals: usize,
    /// Requests served from the memo instead of the simulator.
    pub memo_hits: usize,
    /// CMA-ES generations run.
    pub generations: usize,
    /// Surrogate model fits performed.
    pub surrogate_fits: usize,
    /// Best-so-far objective after each phase step (finite entries only,
    /// non-increasing).
    pub trace: Vec<f64>,
    /// Every distinct point whose true output was obtained, in first-seen
    /// order, with its full simulator output.
    pub archive: Vec<(Vec<f64>, Out)>,
}

struct Search<'a, O: Objective> {
    space: &'a DesignSpace,
    obj: &'a O,
    sink: &'a MetricsSink,
    /// Byte-keyed evaluation memo: snapped point bits → simulator output.
    cache: BTreeMap<Vec<u8>, O::Out>,
    budget: usize,
    evals: usize,
    memo_hits: usize,
    generations: usize,
    surrogate_fits: usize,
    known: BTreeSet<Vec<u8>>,
    archive: Vec<(Vec<f64>, O::Out)>,
    training: Vec<(Vec<f64>, f64)>,
    best: Option<(Vec<f64>, O::Out, f64)>,
    fallback: Option<(Vec<f64>, O::Out)>,
    trace: Vec<f64>,
}

impl<'a, O: Objective> Search<'a, O> {
    fn new(space: &'a DesignSpace, obj: &'a O, sink: &'a MetricsSink, budget: usize) -> Self {
        Search {
            space,
            obj,
            sink,
            cache: BTreeMap::new(),
            budget,
            evals: 0,
            memo_hits: 0,
            generations: 0,
            surrogate_fits: 0,
            known: BTreeSet::new(),
            archive: Vec::new(),
            training: Vec::new(),
            best: None,
            fallback: None,
            trace: Vec::new(),
        }
    }

    fn best_value(&self) -> f64 {
        self.best.as_ref().map_or(INFEASIBLE, |(_, _, v)| *v)
    }

    /// Fold a point with known true output into the search state. Archive
    /// order follows request order; the incumbent moves only on a strict
    /// improvement, so among ties the earliest-requested point wins.
    fn observe(&mut self, x: &[f64], out: O::Out, key: Vec<u8>) {
        if !self.known.insert(key) {
            return;
        }
        let v = self.obj.value(&out);
        if self.fallback.is_none() {
            self.fallback = Some((x.to_vec(), out.clone()));
        }
        if v.is_finite() {
            self.training.push((self.space.unit_of(x), v));
            if v < self.best_value() {
                self.best = Some((x.to_vec(), out.clone(), v));
            }
        }
        self.archive.push((x.to_vec(), out));
    }

    /// Request true outputs for `points` (snapped). Memo hits are free;
    /// misses are deduplicated, truncated to the remaining budget, and
    /// fanned through `par_map` in request order.
    fn request(&mut self, points: &[Vec<f64>]) {
        let mut fresh: BTreeSet<Vec<u8>> = BTreeSet::new();
        let mut to_eval: Vec<Vec<f64>> = Vec::new();
        for x in points {
            let k = self.space.key(x);
            if self.cache.contains_key(&k) || fresh.contains(&k) {
                continue;
            }
            if self.evals + to_eval.len() >= self.budget {
                continue;
            }
            fresh.insert(k);
            to_eval.push(x.clone());
        }
        if !to_eval.is_empty() {
            let obj = self.obj;
            let t0 = Instant::now();
            let outs = tts_exec::par_map(&to_eval, |x| obj.evaluate(x));
            let per_eval_ms = t0.elapsed().as_secs_f64() * 1e3 / to_eval.len() as f64;
            let hist = self.sink.histogram_tagged(
                "design.eval_ms",
                &EVAL_MS_EDGES,
                Determinism::BestEffort,
            );
            for _ in 0..to_eval.len() {
                hist.record(per_eval_ms);
            }
            self.sink.counter("design.evals").add(to_eval.len() as u64);
            self.evals += to_eval.len();
            for (x, out) in to_eval.into_iter().zip(outs) {
                let k = self.space.key(&x);
                self.cache.insert(k, out);
            }
        }
        for x in points {
            let k = self.space.key(x);
            if let Some(out) = self.cache.get(&k) {
                if !fresh.contains(&k) {
                    self.memo_hits += 1;
                }
                let out = out.clone();
                self.observe(x, out, k);
            }
            // Unseen and unaffordable: silently skipped (budget exhausted).
        }
    }

    /// Fit the RBF surrogate on the best [`MAX_TRAINING`] feasible points.
    fn fit_surrogate(&mut self) -> Option<Rbf> {
        if self.training.len() < 3 {
            return None;
        }
        let samples: Vec<(Vec<f64>, f64)> = if self.training.len() > MAX_TRAINING {
            let mut idx: Vec<usize> = (0..self.training.len()).collect();
            idx.sort_by(|&a, &b| {
                self.training[a]
                    .1
                    .partial_cmp(&self.training[b].1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            idx.truncate(MAX_TRAINING);
            idx.sort_unstable();
            idx.iter().map(|&i| self.training[i].clone()).collect()
        } else {
            self.training.clone()
        };
        let fit = Rbf::fit(&samples);
        if fit.is_some() {
            self.surrogate_fits += 1;
            self.sink.counter("design.surrogate.fits").incr();
        }
        fit
    }

    /// Worst-feasible-plus-range stand-in so infeasible or unknown points
    /// rank strictly behind every feasible one in a CMA-ES tell.
    fn penalty_value(&self) -> f64 {
        let worst = self
            .training
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::NEG_INFINITY, f64::max);
        if worst.is_finite() {
            let best = self.best_value();
            let range = if best.is_finite() {
                (worst - best).max(1.0)
            } else {
                1.0
            };
            worst + range
        } else {
            1.0
        }
    }

    fn run_cmaes(mut self, cfg: &SearchConfig) -> SearchResult<O::Out> {
        let d = self.space.dim();

        // Deterministic Latin-hypercube design of experiments: one stratum
        // per point and dimension, strata shuffled by a seeded stream.
        let mut doe_rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0x5eed_d0e5_5eed_d0e5);
        let n0 = DOE_POINTS.min(self.budget).max(1);
        let mut strata: Vec<Vec<usize>> = vec![(0..n0).collect(); d];
        for col in strata.iter_mut() {
            for i in (1..col.len()).rev() {
                let j = (f64::sample(&mut doe_rng) * (i + 1) as f64) as usize;
                col.swap(i, j.min(i));
            }
        }
        let doe_pts: Vec<Vec<f64>> = (0..n0)
            .map(|row| {
                let u: Vec<f64> = (0..d)
                    .map(|c| (strata[c][row] as f64 + 0.5) / n0 as f64)
                    .collect();
                self.space.from_unit(&u)
            })
            .collect();
        self.request(&doe_pts);
        if self.best_value().is_finite() {
            self.trace.push(self.best_value());
        }

        // Centre the strategy on the best DoE point when one is feasible.
        let mean0 = match &self.best {
            Some((bx, _, _)) => self.space.unit_of(bx),
            None => vec![0.5; d],
        };
        let mut es = CmaEs::new(d, cfg.seed, SIGMA0, mean0);

        // Leftover budget certifies lattice-local optimality.
        let reserve = self.polish_reserve().min(self.budget / 3);
        let gen_budget = self.budget.saturating_sub(reserve);
        let mut stall = 0usize;
        while self.evals < gen_budget && self.generations < cfg.max_generations {
            let asked = es.ask();
            let real: Vec<Vec<f64>> = asked.iter().map(|u| self.space.from_unit(u)).collect();
            let units: Vec<Vec<f64>> = real.iter().map(|x| self.space.unit_of(x)).collect();
            let prev_best = self.best_value();

            let rbf = self.fit_surrogate();
            // Rank the population's unevaluated points by expected
            // improvement and pay for only the most promising ones.
            let mut unknown: Vec<usize> = Vec::new();
            let mut seen_in_gen: BTreeSet<Vec<u8>> = BTreeSet::new();
            for (i, x) in real.iter().enumerate() {
                let k = self.space.key(x);
                if !self.cache.contains_key(&k) && seen_in_gen.insert(k) {
                    unknown.push(i);
                }
            }
            if let Some(rbf) = &rbf {
                let f_best = self.best_value();
                let mut scored: Vec<(f64, usize)> = unknown
                    .iter()
                    .map(|&i| {
                        let pred = rbf.predict(&units[i]);
                        let s = rbf.min_dist(&units[i]) * rbf.value_range();
                        (expected_improvement(pred, s, f_best), i)
                    })
                    .collect();
                scored.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                unknown = scored.into_iter().map(|(_, i)| i).collect();
            }
            let pay = cfg.screen.max(1).min(gen_budget - self.evals);
            let chosen: Vec<Vec<f64>> =
                unknown.iter().take(pay).map(|&i| real[i].clone()).collect();
            self.request(&chosen);

            let penalty = self.penalty_value();
            let tell_vals: Vec<f64> = real
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let k = self.space.key(x);
                    if let Some(out) = self.cache.get(&k) {
                        let v = self.obj.value(out);
                        if v.is_finite() {
                            v
                        } else {
                            penalty
                        }
                    } else if let Some(rbf) = &rbf {
                        rbf.predict(&units[i])
                    } else {
                        penalty
                    }
                })
                .collect();
            es.tell(&units, &tell_vals);
            self.generations += 1;
            self.sink.counter("design.generations").incr();

            let now_best = self.best_value();
            if now_best < prev_best {
                stall = 0;
            } else {
                stall += 1;
            }
            if now_best.is_finite() {
                self.trace.push(now_best);
            }
            if stall >= 12 && es.sigma() < 0.02 {
                break;
            }
        }

        self.polish();
        self.finish()
    }

    /// Evaluations worth reserving for the polish phase: one sweep of the
    /// incumbent's lattice neighborhood.
    fn polish_reserve(&self) -> usize {
        self.space
            .dims()
            .iter()
            .map(|d| match *d {
                Dim::Continuous { step, .. } => {
                    if step > 0.0 {
                        2
                    } else {
                        0
                    }
                }
                Dim::Integer { .. } => 2,
                Dim::Categorical { choices, .. } => choices.saturating_sub(1),
            })
            .sum()
    }

    /// Hill-climb the snap lattice around the incumbent: evaluate its
    /// neighbors (cheapest certificate of grid-local optimality) and move
    /// only on strict improvement. Memoized neighbors are free, so the walk
    /// can keep riding cached values after the budget runs out.
    fn polish(&mut self) {
        loop {
            let Some((bx, _, bv)) = self.best.clone() else {
                break;
            };
            let ns = self.space.neighbors(&bx);
            let unknown: Vec<Vec<f64>> = ns
                .iter()
                .filter(|n| !self.cache.contains_key(&self.space.key(n)))
                .cloned()
                .collect();
            if !unknown.is_empty() && self.evals < self.budget {
                self.request(&unknown);
            }
            let mut step_best: Option<(Vec<f64>, f64)> = None;
            for n in &ns {
                if let Some(out) = self.cache.get(&self.space.key(n)) {
                    let v = self.obj.value(out);
                    if v.is_finite() && v < step_best.as_ref().map_or(INFEASIBLE, |(_, sv)| *sv) {
                        step_best = Some((n.clone(), v));
                    }
                }
            }
            match step_best {
                Some((nx, nv)) if nv < bv => {
                    let out = self
                        .cache
                        .get(&self.space.key(&nx))
                        .expect("polish winner must be memoized")
                        .clone();
                    self.best = Some((nx, out, nv));
                    self.trace.push(nv);
                }
                _ => break,
            }
        }
    }

    fn finish(self) -> SearchResult<O::Out> {
        let (best_x, best_out, best_value) = match self.best {
            Some((x, o, v)) => (x, o, v),
            None => {
                let (x, o) = self.fallback.expect("design search evaluated no points");
                (x, o, INFEASIBLE)
            }
        };
        if best_value.is_finite() {
            self.sink.gauge("design.best_objective").set(best_value);
        }
        SearchResult {
            best_x,
            best_out,
            best_value,
            evals: self.evals,
            memo_hits: self.memo_hits,
            generations: self.generations,
            surrogate_fits: self.surrogate_fits,
            trace: self.trace,
            archive: self.archive,
        }
    }
}

/// Minimize `obj` over `space` with a private evaluation memo, so no
/// point is simulated twice within the run.
pub fn minimize<O: Objective>(
    space: &DesignSpace,
    obj: &O,
    cfg: &SearchConfig,
    sink: &MetricsSink,
) -> SearchResult<O::Out> {
    assert!(cfg.budget > 0, "search budget must be positive");
    Search::new(space, obj, sink, cfg.budget).run_cmaes(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Dim;

    struct Sphere {
        center: Vec<f64>,
    }

    impl Objective for Sphere {
        type Out = f64;
        fn evaluate(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.center)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        }
        fn value(&self, out: &f64) -> f64 {
            *out
        }
    }

    fn unit_space(d: usize) -> DesignSpace {
        DesignSpace::new(
            (0..d)
                .map(|_| Dim::Continuous {
                    name: "x",
                    lo: 0.0,
                    hi: 1.0,
                    step: 0.0,
                })
                .collect(),
        )
    }

    #[test]
    fn cmaes_minimizes_a_sphere() {
        let space = unit_space(3);
        let obj = Sphere {
            center: vec![0.3, 0.6, 0.4],
        };
        let cfg = SearchConfig {
            budget: 400,
            max_generations: 200,
            screen: 4,
            ..SearchConfig::default()
        };
        let sink = MetricsSink::disabled();
        let r = minimize(&space, &obj, &cfg, &sink);
        assert!(r.best_value < 1e-3, "sphere best {} too poor", r.best_value);
        assert!(r.evals <= 400);
    }

    #[test]
    fn budget_is_a_hard_cap() {
        let space = unit_space(2);
        let obj = Sphere {
            center: vec![0.5, 0.5],
        };
        let cfg = SearchConfig {
            budget: 9,
            ..SearchConfig::default()
        };
        let sink = MetricsSink::disabled();
        let r = minimize(&space, &obj, &cfg, &sink);
        assert!(r.evals <= 9, "spent {} evals over a budget of 9", r.evals);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let space = unit_space(2);
        let obj = Sphere {
            center: vec![0.25, 0.75],
        };
        let cfg = SearchConfig {
            budget: 40,
            ..SearchConfig::default()
        };
        let sink = MetricsSink::disabled();
        let a = minimize(&space, &obj, &cfg, &sink);
        let b = minimize(&space, &obj, &cfg, &sink);
        assert_eq!(a.best_x, b.best_x);
        assert_eq!(a.trace, b.trace);
        assert_eq!(
            a.archive.iter().map(|(x, _)| x.clone()).collect::<Vec<_>>(),
            b.archive.iter().map(|(x, _)| x.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn infeasible_points_never_win() {
        let space = DesignSpace::new(vec![Dim::Continuous {
            name: "x",
            lo: 0.0,
            hi: 9.0,
            step: 1.0,
        }]);
        struct HalfFeasible;
        impl Objective for HalfFeasible {
            type Out = f64;
            fn evaluate(&self, x: &[f64]) -> f64 {
                x[0]
            }
            fn value(&self, out: &f64) -> f64 {
                if *out < 5.0 {
                    INFEASIBLE
                } else {
                    *out
                }
            }
        }
        // A budget that covers the whole 10-point lattice: whatever order
        // CMA-ES visits it in, the infeasible half must never be reported.
        let cfg = SearchConfig {
            budget: 100,
            ..SearchConfig::default()
        };
        let sink = MetricsSink::disabled();
        let r = minimize(&space, &HalfFeasible, &cfg, &sink);
        assert_eq!(r.best_x, vec![5.0]);
        assert!(r.best_value.is_finite());
        assert!(r.archive.iter().any(|(x, _)| x[0] < 5.0));
    }
}
