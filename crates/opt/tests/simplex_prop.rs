//! Property tests pinning the bounded-variable simplex against a
//! brute-force vertex enumerator.
//!
//! For an LP whose variables all live in finite boxes, the feasible
//! region is a bounded polytope: if it is non-empty it has a vertex, and
//! every vertex is the intersection of `n` active constraints drawn from
//! the variable bounds and the row bounds. So a dumb oracle — solve every
//! n-of-N constraint combination by Gaussian elimination, keep the
//! feasible ones, take the cheapest — is exact, and the simplex must
//! agree with it on both the verdict (optimal vs. infeasible) and the
//! objective value.
//!
//! Coefficients are drawn from a half-integer grid so the oracle's little
//! linear solves stay well-conditioned; the disagreement tolerance is
//! far below the grid resolution. Failures replay exactly via the
//! printed `TTS_PROP_SEED` (the harness is seed-chained).

use tts_opt::model::{BacklogItem, DELAY_CLASSES_MIN};
use tts_opt::{HorizonModel, Lp, Outcome, SlotForecast};
use tts_rng::prop::prelude::*;

const TOL: f64 = 1e-6;

/// One randomly generated boxed LP.
#[derive(Debug, Clone)]
struct BoxedLp {
    /// Per-variable (lo, hi, cost); lo ≤ hi, both finite.
    vars: Vec<(f64, f64, f64)>,
    /// Per-row (coefficients, lo, hi); lo ≤ hi, both finite.
    rows: Vec<(Vec<f64>, f64, f64)>,
}

impl BoxedLp {
    /// Decodes an LP from a stream of grid integers (consumed in order,
    /// wrapping) — this keeps the random surface a flat `Vec<i64>` the
    /// harness knows how to shrink.
    fn decode(n: usize, m: usize, data: &[i64]) -> Self {
        let mut at = 0usize;
        let mut next = || {
            let v = data[at % data.len()];
            at += 1;
            v
        };
        let grid = |v: i64| (v % 9) as f64 / 2.0; // −4.0..=4.0 by 0.5
        let vars = (0..n)
            .map(|_| {
                let lo = grid(next());
                let width = (next().rem_euclid(5)) as f64 / 2.0; // 0 (degenerate) ..= 2
                (lo, lo + width, grid(next()))
            })
            .collect();
        let rows = (0..m)
            .map(|_| {
                let coeffs: Vec<f64> = (0..n).map(|_| grid(next())).collect();
                let lo = grid(next()) * 2.0;
                let width = (next().rem_euclid(9)) as f64; // 0 ..= 8
                (coeffs, lo, lo + width)
            })
            .collect();
        Self { vars, rows }
    }

    fn build(&self) -> Lp {
        let mut lp = Lp::new();
        let idx: Vec<usize> = self
            .vars
            .iter()
            .map(|&(lo, hi, cost)| lp.add_var(lo, hi, cost))
            .collect();
        for (coeffs, lo, hi) in &self.rows {
            let terms: Vec<(usize, f64)> =
                idx.iter().copied().zip(coeffs.iter().copied()).collect();
            lp.add_row(*lo, &terms, *hi);
        }
        lp
    }

    fn objective(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(&(_, _, c), xi)| c * xi).sum()
    }

    fn feasible(&self, x: &[f64]) -> bool {
        let vars_ok = self
            .vars
            .iter()
            .zip(x)
            .all(|(&(lo, hi, _), &xi)| xi >= lo - TOL && xi <= hi + TOL);
        let rows_ok = self.rows.iter().all(|(coeffs, lo, hi)| {
            let v: f64 = coeffs.iter().zip(x).map(|(a, xi)| a * xi).sum();
            v >= lo - TOL && v <= hi + TOL
        });
        vars_ok && rows_ok
    }

    /// Every candidate equality constraint `a·x = b` a vertex can sit on.
    fn constraints(&self) -> Vec<(Vec<f64>, f64)> {
        let n = self.vars.len();
        let mut out = Vec::new();
        for (j, &(lo, hi, _)) in self.vars.iter().enumerate() {
            let mut unit = vec![0.0; n];
            unit[j] = 1.0;
            out.push((unit.clone(), lo));
            out.push((unit, hi));
        }
        for (coeffs, lo, hi) in &self.rows {
            out.push((coeffs.clone(), *lo));
            out.push((coeffs.clone(), *hi));
        }
        out
    }

    /// Exhaustive vertex enumeration: the minimum objective over every
    /// feasible basic solution, or `None` if no combination is feasible
    /// (⇔ the polytope is empty, since it is bounded).
    fn brute_force(&self) -> Option<f64> {
        let n = self.vars.len();
        let cons = self.constraints();
        let mut best: Option<f64> = None;
        let mut pick = vec![0usize; n];
        enumerate_combinations(cons.len(), n, &mut pick, 0, 0, &mut |chosen| {
            let a: Vec<Vec<f64>> = chosen.iter().map(|&i| cons[i].0.clone()).collect();
            let b: Vec<f64> = chosen.iter().map(|&i| cons[i].1).collect();
            if let Some(x) = solve_linear(a, b) {
                if self.feasible(&x) {
                    let obj = self.objective(&x);
                    best = Some(best.map_or(obj, |b: f64| b.min(obj)));
                }
            }
        });
        best
    }
}

/// Calls `f` with every size-`k` index combination out of `0..n`.
fn enumerate_combinations(
    n: usize,
    k: usize,
    pick: &mut Vec<usize>,
    depth: usize,
    from: usize,
    f: &mut impl FnMut(&[usize]),
) {
    if depth == k {
        f(pick);
        return;
    }
    for i in from..n {
        pick[depth] = i;
        enumerate_combinations(n, k, pick, depth + 1, i + 1, f);
    }
}

/// Dense Gaussian elimination with partial pivoting; `None` on a
/// (near-)singular system.
fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap();
        if a[pivot][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col].clone();
        for row in col + 1..n {
            let f = a[row][col] / pivot_row[col];
            for (av, pv) in a[row][col..n].iter_mut().zip(&pivot_row[col..n]) {
                *av -= f * pv;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let s: f64 = (col + 1..n).map(|k| a[col][k] * x[k]).sum();
        x[col] = (b[col] - s) / a[col][col];
    }
    Some(x)
}

proptest! {
    /// The headline pin: on every random boxed LP (degenerate
    /// zero-width boxes and empty polytopes included), the simplex and
    /// the vertex enumerator agree on feasibility, and on the objective
    /// value when feasible — and the simplex's solution really satisfies
    /// every constraint it was given.
    #[test]
    fn simplex_matches_brute_force_on_boxed_lps(
        n in 1usize..4,
        m in 0usize..4,
        data in collection::vec(-1_000_000i64..1_000_000, 48usize),
    ) {
        let lp = BoxedLp::decode(n, m, &data);
        match (lp.build().solve(), lp.brute_force()) {
            (Outcome::Optimal(s), Some(best)) => {
                prop_assert!(lp.feasible(&s.x), "simplex returned infeasible point {:?} for {lp:?}", s.x);
                prop_assert!(
                    (s.objective - best).abs() <= TOL * (1.0 + best.abs()),
                    "objective {} vs oracle {best} on {lp:?}",
                    s.objective
                );
                prop_assert!(
                    (lp.objective(&s.x) - s.objective).abs() <= TOL * (1.0 + s.objective.abs()),
                    "reported objective disagrees with c·x on {lp:?}"
                );
            }
            (Outcome::Infeasible, None) => {}
            (got, oracle) => panic!("simplex said {got:?}, oracle said {oracle:?} for {lp:?}"),
        }
    }

    /// Duplicating a row (a classic degeneracy: redundant constraints,
    /// ties at every pivot) must not change the verdict or the optimum —
    /// and Bland's rule must still terminate.
    #[test]
    fn redundant_rows_change_nothing(
        n in 1usize..4,
        data in collection::vec(-1_000_000i64..1_000_000, 48usize),
    ) {
        let lp = BoxedLp::decode(n, 2, &data);
        let mut doubled = lp.clone();
        doubled.rows.push(lp.rows[0].clone());
        doubled.rows.push(lp.rows[1].clone());
        match (lp.build().solve(), doubled.build().solve()) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                prop_assert!(
                    (a.objective - b.objective).abs() <= TOL * (1.0 + a.objective.abs()),
                    "duplicated rows moved the optimum: {} vs {}",
                    a.objective,
                    b.objective
                );
            }
            (Outcome::Infeasible, Outcome::Infeasible) => {}
            (a, b) => panic!("verdict changed under duplicated rows: {a:?} vs {b:?}"),
        }
    }

    /// A free variable with negative cost and no capping constraint is
    /// always reported unbounded (never mislabelled infeasible, never an
    /// iteration-limit loop).
    #[test]
    fn uncapped_negative_cost_is_unbounded(
        cost in -8i64..0,
        floor in -8i64..1,
        slope in 0i64..5,
    ) {
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, cost as f64 / 2.0);
        // Only a lower bound on a non-negative combination: growth is free.
        lp.add_row(floor as f64, &[(x, 1.0 + slope as f64)], f64::INFINITY);
        prop_assert_eq!(lp.solve(), Outcome::Unbounded);
    }

    /// Replayability: the same LP solved twice walks the identical pivot
    /// sequence — same iteration count, same solution bytes. (Case seeds
    /// come from the harness's deterministic chain, so a failure here
    /// reproduces from the printed `TTS_PROP_SEED`.)
    #[test]
    fn solving_is_deterministic(
        n in 1usize..4,
        m in 0usize..4,
        data in collection::vec(-1_000_000i64..1_000_000, 48usize),
    ) {
        let lp = BoxedLp::decode(n, m, &data);
        let (a, b) = (lp.build().solve(), lp.build().solve());
        prop_assert_eq!(&a, &b);
        if let (Outcome::Optimal(a), Outcome::Optimal(b)) = (&a, &b) {
            prop_assert_eq!(a.iterations, b.iterations);
            prop_assert_eq!(
                format!("{:?} {:?}", a.x, a.objective),
                format!("{:?} {:?}", b.x, b.objective)
            );
        }
    }
}

/// FNV-1a over the IEEE-754 bits of every value, in order.
fn fnv_bits(xs: &[f64]) -> u64 {
    let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    tts_units::fnv1a64(&bytes)
}

/// `(iterations, objective bits, FNV of the x bits)` of an optimal solve.
fn fingerprint(lp: &Lp) -> (u64, u64, u64) {
    let outcome = lp.solve();
    let s = outcome.optimal().expect("every pinned LP is optimal");
    (s.iterations, s.objective.to_bits(), fnv_bits(&s.x))
}

/// The fixed-seed LP of pin `seed`: the [`BoxedLp`] generator at sizes
/// beyond the brute-force oracle's reach (3..=12 variables, 2..=9 rows),
/// with every row range re-centred on the box midpoint so the LP is
/// feasible and the pivots fill the tableau in.
fn pinned_lp(seed: u64) -> Lp {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let n = 3 + (seed % 10) as usize;
    let m = 2 + (seed % 8) as usize;
    let data: Vec<i64> = (0..4 * n * m + 8)
        .map(|_| rng.gen_range(-1_000_000i64..1_000_000))
        .collect();
    let mut lp = BoxedLp::decode(n, m, &data);
    let mid: Vec<f64> = lp.vars.iter().map(|&(lo, hi, _)| (lo + hi) / 2.0).collect();
    for (coeffs, lo, hi) in &mut lp.rows {
        let at_mid: f64 = coeffs.iter().zip(&mid).map(|(a, x)| a * x).sum();
        let half = (*hi - *lo) / 2.0;
        (*lo, *hi) = (at_mid - half, at_mid + half);
    }
    lp.build()
}

include!("common/schedule_lp.rs");

/// `fingerprint(pinned_lp(seed))` for seeds `0..20`, recorded on the
/// dense-loop solver; the row-pattern kernels must reproduce them bit for
/// bit. Any change to a pivot, a rounding or the iteration count shows.
const PINNED: [(u64, u64, u64); 20] = [
    (2, 0x3ff8000000000000, 0xbedf6ff4fe972551),
    (7, 0xbfe3555555555555, 0x0c3dc56155df0a85),
    (2, 0x40310aaaaaaaaaaa, 0xac558a0b76ece650),
    (9, 0xc030400000000000, 0x6bd2c57960095c7d),
    (10, 0xc032684bda12f687, 0x6b2bd030281afcfb),
    (7, 0x40393d1745d1745e, 0xcbabfa15959bcde8),
    (17, 0xbfd507845c20f4e0, 0xdff6cb1f3c581f6b),
    (14, 0xc0128e3b373136d4, 0x1e90dc38136cfde1),
    (7, 0xc017000000000000, 0xff597913589b4bb2),
    (4, 0x4023c00000000000, 0xf1602e48ca72b758),
    (5, 0xc036d40f4898d5f8, 0x2571ae6b28dcbe5e),
    (4, 0xc01f000000000000, 0xf3c5ba506c67b940),
    (10, 0xc027f00000000000, 0x610a25196cd62264),
    (10, 0xc010212f684bda15, 0xc9d6435d79445f13),
    (9, 0x4001eaacfcd84a0c, 0x6d4a9f606b5eb993),
    (6, 0xc00f93b13b13b140, 0x1b1e07703f867acc),
    (3, 0x4043910000000000, 0x79329576e8465b55),
    (8, 0xc02e955555555550, 0x23b8e9cbda822915),
    (11, 0xc03dcf2d819e15fc, 0x47236ce3679ff44e),
    (21, 0xc0228e6666666673, 0x25e99a6bdfffab67),
];

#[test]
fn fixed_seed_lps_keep_their_bits() {
    for (seed, want) in PINNED.iter().enumerate() {
        let got = fingerprint(&pinned_lp(seed as u64));
        assert_eq!(got, *want, "pinned LP {seed} drifted");
    }
}

#[test]
fn default_schedule_plan_keeps_its_bits() {
    let got = fingerprint(&default_schedule_lp());
    assert_eq!(got, (604, 0x4050f2462021cbc4, 0x4fb17d83a6eb3072));
}

/// One delay class at 30-minute slots: 54 slots, the coarsest default
/// grid `schedule` accepts with its shortest deadline window.
#[test]
fn one_tranche_half_hour_plan_keeps_its_bits() {
    let got = fingerprint(&schedule_lp(1, 30.0, 0.0, 170.0));
    assert_eq!(got, (133, 0x4051b8dbfffad53a, 0xcfa38359abbb0bc1));
}

/// Four classes, each with 6 kW·slot of backlog already overdue, under a
/// plant derated to 125 kW: every job-conservation row starts below its
/// lower bound, so phase 1 opens with hundreds of infeasible rows.
#[test]
fn overdue_derated_plan_keeps_its_bits() {
    let got = fingerprint(&schedule_lp(4, 15.0, 6.0, 125.0));
    assert_eq!(got, (611, 0x405118ac8688322c, 0x6f4c4309070faaec));
}
