//! A zero-dependency bounded-variable primal simplex solver.
//!
//! Minimizes `c·x` subject to per-variable bounds `l ≤ x ≤ u` and range
//! constraints `lo ≤ a·x ≤ hi`. Every range row is normalized to an
//! equality `a·x − s = 0` with a *bounded slack* `s ∈ [lo, hi]`, so the
//! whole problem is a system `A·[x; s] = 0` over bounded variables and the
//! all-slack basis is immediately available. The solver is a two-phase
//! tableau method:
//!
//! * **phase 1** drives bound violations of the basic variables to zero by
//!   minimizing the total infeasibility (a piecewise-linear objective whose
//!   gradient is kept exact each iteration — no Big-M constants);
//! * **phase 2** prices with Dantzig's rule (most negative reduced cost,
//!   lowest index on ties) and falls back to **Bland's rule** after a run
//!   of degenerate pivots, which guarantees termination; once a
//!   non-degenerate step is made it switches back.
//!
//! Nonbasic variables sit at a bound, the ratio test honours both bounds of
//! every basic variable, and a step that exhausts the entering variable's
//! own span is applied as a *bound flip* without a pivot. All arithmetic is
//! plain `f64` in a fixed iteration order with index-based tie-breaking:
//! the same [`Lp`] always produces bit-identical output, on any machine,
//! at any thread count — there is no randomness and no clock anywhere in
//! the crate.
//!
//! The tableau `B⁻¹·A` keeps dense values, but each row also carries a
//! sorted *pattern*: the columns that may be nonzero, every other entry
//! being exactly `+0.0`. Planning LPs are very sparse (a few nonzeros in a
//! row of ~1200 columns), so the pivot, the phase-1 gradient, the reduced
//! costs and the basic-value refresh loop over patterns only. A pivot
//! eliminates along the pivot row's pattern, and each touched row's
//! pattern becomes the union of the two, minus the pivot column and any
//! entry that cancelled to exactly zero. This changes no output bit of the
//! plain dense loops: every column sum still runs over rows in ascending
//! order (and a row's refresh over ascending columns), and the only terms
//! skipped are `±0` products, which leave unchanged any value that is not
//! `−0.0`. The gradient and refresh sums start at `+0.0` and so never
//! become `−0.0`, and reduced costs are only compared against tolerances.
//! A zero tableau entry may carry the other sign than under dense loops,
//! but every nonzero entry is identical, and the sign of a zero never
//! reaches a comparison, a pivot or the solution.
//!
//! The phase-1 gradient `d_j = Σ_i sign_i · (B⁻¹A)_ij` (sign `+1` for a
//! basic variable below its lower bound, `−1` above its upper, `0` when
//! feasible) is filled from scratch once, then updated in place. Between
//! two iterations `d_j` can change only if column `j` of the tableau did,
//! or if some row with `j` in its pattern changed sign. A pivot writes only
//! the columns of the pivot row's pattern, which include the entering and
//! the leaving variable; a bound flip writes none. A row's old pattern lies
//! in its new one plus the pivot row's. So each iteration recomputes `d_j`
//! only for those columns and for the patterns of the rows whose sign
//! changed (a step, a bound flip or the periodic refresh of basic values
//! can each move a sign). Each recomputed `d_j` is the same ascending-row
//! sum of the same products as the full fill: the extra `±0` terms from
//! rows outside `j`'s patterns leave a sum started at `+0.0` unchanged.
//! Every other entry is already the value the fill would give, so the
//! gradient, and every pivot after it, is bit-identical to a fresh fill.

/// Reduced-cost tolerance: a direction must beat this to count as improving.
const COST_TOL: f64 = 1e-9;
/// Bound-violation tolerance for declaring a basis (and the LP) feasible.
const FEAS_TOL: f64 = 1e-7;
/// Smallest tableau entry admissible as a pivot element.
const PIVOT_TOL: f64 = 1e-9;
/// A step this small counts as degenerate for the Bland's-rule trigger.
const DEGEN_STEP: f64 = 1e-10;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGEN_LIMIT: u32 = 30;
/// Basic values are recomputed from scratch every this many pivots.
const REFRESH_EVERY: u64 = 64;

/// One range constraint: `lo ≤ Σ coeffs ≤ hi`.
#[derive(Debug, Clone)]
struct RowDef {
    coeffs: Vec<(usize, f64)>,
    lo: f64,
    hi: f64,
}

/// A linear program under construction: bounded variables, range rows,
/// linear cost, to be minimized.
///
/// ```
/// use tts_opt::simplex::{Lp, Outcome};
///
/// // min −x −2y  s.t.  x + y ≤ 3,  0 ≤ x ≤ 2,  0 ≤ y ≤ 2.
/// let mut lp = Lp::new();
/// let x = lp.add_var(0.0, 2.0, -1.0);
/// let y = lp.add_var(0.0, 2.0, -2.0);
/// lp.add_row(f64::NEG_INFINITY, &[(x, 1.0), (y, 1.0)], 3.0);
/// let Outcome::Optimal(sol) = lp.solve() else { panic!() };
/// assert!((sol.objective - (-5.0)).abs() < 1e-9); // x=1, y=2
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lp {
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    rows: Vec<RowDef>,
}

/// An optimal solution: variable values (in `add_var` order), the
/// objective, and the simplex iteration count (pivots + bound flips).
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal values of the structural variables.
    pub x: Vec<f64>,
    /// The minimized objective `c·x`.
    pub objective: f64,
    /// Simplex iterations spent (phase 1 + phase 2).
    pub iterations: u64,
}

/// The result of [`Lp::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An optimal vertex was found.
    Optimal(Solution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The iteration cap was hit (numerical trouble; treat as "no plan").
    IterationLimit,
}

impl Outcome {
    /// The solution, if optimal.
    pub fn optimal(&self) -> Option<&Solution> {
        match self {
            Outcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

impl Lp {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lo, hi]` and objective coefficient
    /// `cost`, returning its column index. `hi` may be `f64::INFINITY`;
    /// `lo` must be finite (shift the variable if you need a free one).
    ///
    /// # Panics
    /// Panics on NaN, `lo > hi`, or a non-finite `lo`/`cost`.
    pub fn add_var(&mut self, lo: f64, hi: f64, cost: f64) -> usize {
        assert!(lo.is_finite(), "variable lower bound must be finite");
        assert!(!hi.is_nan() && lo <= hi, "need lo ≤ hi, got [{lo}, {hi}]");
        assert!(cost.is_finite(), "cost must be finite");
        self.lower.push(lo);
        self.upper.push(hi);
        self.cost.push(cost);
        self.lower.len() - 1
    }

    /// Adds the range constraint `lo ≤ Σ coeff_j·x_j ≤ hi`; one side may be
    /// infinite. Returns the row index.
    ///
    /// # Panics
    /// Panics if both sides are infinite, `lo > hi`, a coefficient is not
    /// finite, or a column index is out of range.
    pub fn add_row(&mut self, lo: f64, coeffs: &[(usize, f64)], hi: f64) -> usize {
        assert!(
            lo.is_finite() || hi.is_finite(),
            "row needs at least one finite side"
        );
        assert!(!lo.is_nan() && !hi.is_nan() && lo <= hi, "need lo ≤ hi");
        for &(j, a) in coeffs {
            assert!(j < self.lower.len(), "column {j} out of range");
            assert!(a.is_finite(), "coefficient must be finite");
        }
        self.rows.push(RowDef {
            coeffs: coeffs.to_vec(),
            lo,
            hi,
        });
        self.rows.len() - 1
    }

    /// Solves the program. Deterministic: identical inputs give identical
    /// outcomes, bit for bit.
    pub fn solve(&self) -> Outcome {
        if self.lower.iter().zip(&self.upper).any(|(l, u)| l > u) {
            return Outcome::Infeasible;
        }
        Solver::new(self).run()
    }
}

/// Which bound a variable move lands on; resolved by the ratio test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Landing {
    Lower,
    Upper,
}

/// Where one row's pattern lives in [`Solver::cols`]: `len` ascending
/// columns from `at`, in a slot of `room` entries.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: usize,
    len: usize,
    room: usize,
}

/// The working state of one solve.
struct Solver {
    m: usize,
    n: usize,
    /// Total columns: structural + slack.
    nt: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    /// `B⁻¹·A` values, row-major `m × nt`. Entries outside their row's
    /// pattern are `+0.0`.
    tab: Vec<f64>,
    /// Every row's pattern (the ascending columns whose tableau entry may
    /// be nonzero), back to back in one buffer. A row that outgrows its
    /// slot moves to a slot of twice its new length at the end. One buffer
    /// rather than a `Vec` per row: thousands of small per-row allocations
    /// can pin the freed tableau's memory between solves, so that the next
    /// tableau needs fresh pages.
    cols: Vec<u32>,
    /// Per row: its pattern's slot in `cols`.
    slots: Vec<Slot>,
    /// Scratch: the pivot row's pattern during a pivot.
    pivot_cols: Vec<u32>,
    /// Scratch: a row's new pattern during elimination.
    merged: Vec<u32>,
    /// Pricing vector over all `nt` columns: the phase-1 infeasibility
    /// gradient or the phase-2 reduced costs.
    d: Vec<f64>,
    /// Per row: the sign its basic variable's bound violation had in the
    /// last phase-1 gradient (`+1` below, `−1` above, `0` feasible). Empty
    /// until the first gradient of phase 1.
    signs: Vec<f64>,
    /// Scratch: the columns whose phase-1 gradient entry may have changed
    /// since the last gradient, with a per-column mark to keep them unique.
    stale: Vec<u32>,
    stale_mark: Vec<bool>,
    /// Scratch: the rows with a nonzero sign, ascending.
    infeasible: Vec<usize>,
    /// Scratch: tableau column `q` of this iteration's entering variable,
    /// gathered once so the ratio test, the step and the pivot read it
    /// contiguously rather than at a stride of `nt`.
    col: Vec<f64>,
    /// Basic variable per row.
    basis: Vec<usize>,
    /// Variable → basis row, or `-1` when nonbasic.
    pos: Vec<i64>,
    /// Current value of every variable.
    x: Vec<f64>,
    /// For nonbasic variables: parked at the upper bound?
    at_upper: Vec<bool>,
    iterations: u64,
    degenerate_run: u32,
    bland: bool,
}

impl Solver {
    fn new(lp: &Lp) -> Self {
        let (m, n) = (lp.rows.len(), lp.lower.len());
        let nt = n + m;
        let mut lower = lp.lower.clone();
        let mut upper = lp.upper.clone();
        let mut cost = lp.cost.clone();
        for r in &lp.rows {
            lower.push(r.lo);
            upper.push(r.hi);
            cost.push(0.0);
        }
        // Rows are `a·x − s = 0`; with the all-slack basis B = −I the
        // tableau B⁻¹·A starts as −a on structural columns and +I on the
        // slack block.
        assert!(u32::try_from(nt).is_ok(), "too many columns: {nt}");
        let mut tab = vec![0.0; m * nt];
        let mut cols = Vec::with_capacity(lp.rows.iter().map(|r| 2 * r.coeffs.len() + 2).sum());
        let mut slots = Vec::with_capacity(m);
        let mut row_cols = Vec::with_capacity(nt);
        for (i, r) in lp.rows.iter().enumerate() {
            for &(j, a) in &r.coeffs {
                tab[i * nt + j] -= a;
            }
            tab[i * nt + n + i] = 1.0;
            row_cols.clear();
            row_cols.extend(r.coeffs.iter().map(|&(j, _)| j as u32));
            row_cols.push((n + i) as u32);
            row_cols.sort_unstable();
            row_cols.dedup();
            let (at, len) = (cols.len(), row_cols.len());
            cols.extend_from_slice(&row_cols);
            cols.resize(at + 2 * len, 0);
            slots.push(Slot {
                at,
                len,
                room: 2 * len,
            });
        }
        let mut x = vec![0.0; nt];
        let mut at_upper = vec![false; nt];
        for j in 0..n {
            x[j] = lp.lower[j];
            at_upper[j] = false;
        }
        let mut s = Self {
            m,
            n,
            nt,
            lower,
            upper,
            cost,
            tab,
            cols,
            slots,
            pivot_cols: Vec::with_capacity(nt),
            merged: Vec::with_capacity(nt),
            d: vec![0.0; nt],
            signs: Vec::new(),
            stale: Vec::with_capacity(nt),
            stale_mark: vec![false; nt],
            infeasible: Vec::with_capacity(m),
            col: vec![0.0; m],
            basis: (n..nt).collect(),
            pos: (0..nt).map(|j| j as i64 - n as i64).collect(),
            x,
            at_upper,
            iterations: 0,
            degenerate_run: 0,
            bland: false,
        };
        s.refresh_basics();
        s
    }

    /// Recomputes every basic value exactly from the nonbasic ones:
    /// `x_B = −Σ_{j nonbasic} (B⁻¹A)_j · x_j`. Only nonbasic values are
    /// read and only basic ones written, so each row is stored as soon as
    /// it is summed.
    fn refresh_basics(&mut self) {
        for (i, s) in self.slots.iter().enumerate() {
            let row = &self.tab[i * self.nt..(i + 1) * self.nt];
            let mut beta = 0.0;
            for &j in &self.cols[s.at..s.at + s.len] {
                let j = j as usize;
                if self.pos[j] >= 0 || self.x[j] == 0.0 {
                    continue;
                }
                beta -= row[j] * self.x[j];
            }
            self.x[self.basis[i]] = beta;
        }
    }

    /// Largest bound violation over the basic variables.
    fn max_violation(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for &b in &self.basis {
            let v = (self.lower[b] - self.x[b]).max(self.x[b] - self.upper[b]);
            worst = worst.max(v);
        }
        worst
    }

    /// Phase-2 reduced costs `d = c − c_B·B⁻¹A`, recomputed exactly.
    fn reduced_costs(&mut self) {
        self.d.copy_from_slice(&self.cost);
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = self.cost[b];
            if cb == 0.0 {
                continue;
            }
            let row = &self.tab[i * self.nt..(i + 1) * self.nt];
            let s = self.slots[i];
            for &j in &self.cols[s.at..s.at + s.len] {
                self.d[j as usize] -= cb * row[j as usize];
            }
        }
        for &b in &self.basis {
            self.d[b] = 0.0;
        }
    }

    /// Row `i`'s phase-1 sign: `+1` if its basic variable lies below its
    /// lower bound, `−1` if above its upper bound, `0` if feasible.
    fn infeasibility_sign(&self, i: usize) -> f64 {
        let b = self.basis[i];
        if self.x[b] < self.lower[b] - FEAS_TOL {
            1.0
        } else if self.x[b] > self.upper[b] + FEAS_TOL {
            -1.0
        } else {
            0.0
        }
    }

    /// Phase-1 gradient of the total infeasibility `w = Σ (l−β)⁺ + (β−u)⁺`
    /// with respect to each nonbasic variable, from scratch into `d`: each
    /// infeasible row's pattern, rows in ascending order.
    fn fill_gradient(&self, d: &mut [f64]) {
        d.fill(0.0);
        for i in 0..self.m {
            let sign = self.infeasibility_sign(i);
            if sign == 0.0 {
                continue;
            }
            let row = &self.tab[i * self.nt..(i + 1) * self.nt];
            let s = self.slots[i];
            for &j in &self.cols[s.at..s.at + s.len] {
                d[j as usize] += sign * row[j as usize];
            }
        }
        for &b in &self.basis {
            d[b] = 0.0;
        }
    }

    /// The phase-1 gradient, updated in place. The first call fills it;
    /// later calls recompute only the entries that can have changed since
    /// the last call (see the module docs), each as the same ascending-row
    /// sum that [`Solver::fill_gradient`] forms.
    fn infeasibility_gradient(&mut self) {
        if self.signs.is_empty() {
            let mut d = std::mem::take(&mut self.d);
            self.fill_gradient(&mut d);
            self.d = d;
            self.signs = (0..self.m).map(|i| self.infeasibility_sign(i)).collect();
            return;
        }
        mark_stale(&self.pivot_cols, &mut self.stale_mark, &mut self.stale);
        self.infeasible.clear();
        for i in 0..self.m {
            let sign = self.infeasibility_sign(i);
            if sign != self.signs[i] {
                self.signs[i] = sign;
                let s = self.slots[i];
                let cols = &self.cols[s.at..s.at + s.len];
                mark_stale(cols, &mut self.stale_mark, &mut self.stale);
            }
            if sign != 0.0 {
                self.infeasible.push(i);
            }
        }
        for &j in &self.stale {
            let j = j as usize;
            self.stale_mark[j] = false;
            let mut dj = 0.0;
            if self.pos[j] < 0 {
                for &i in &self.infeasible {
                    dj += self.signs[i] * self.tab[i * self.nt + j];
                }
            }
            self.d[j] = dj;
        }
        self.stale.clear();
    }

    /// Picks the entering variable and its direction (+1 from lower, −1
    /// from upper) from the pricing vector `d`. Dantzig by default, Bland
    /// when triggered; ties always break to the lowest index.
    fn entering(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (var, dir, score)
        for (j, &dj) in self.d.iter().enumerate() {
            if self.pos[j] >= 0 || self.lower[j] == self.upper[j] {
                continue;
            }
            let (dir, score) = if !self.at_upper[j] && dj < -COST_TOL {
                (1.0, -dj)
            } else if self.at_upper[j] && dj > COST_TOL {
                (-1.0, dj)
            } else {
                continue;
            };
            if self.bland {
                return Some((j, dir));
            }
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((j, dir, score));
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// Gathers tableau column `q` into `col`, for the ratio test and the
    /// step that follow.
    fn gather_column(&mut self, q: usize) {
        for (i, a) in self.col.iter_mut().enumerate() {
            *a = self.tab[i * self.nt + q];
        }
    }

    /// The ratio test: how far the entering variable `q` can move along
    /// `dir` before a basic variable hits a bound (or its own span runs
    /// out). Returns the step and the blocking row with its landing bound;
    /// `None` row means a bound flip, `None` overall means unbounded. Reads
    /// column `q` from `col`.
    fn ratio(&self, q: usize, dir: f64, phase1: bool) -> Option<(f64, Option<(usize, Landing)>)> {
        let mut t_best = self.upper[q] - self.lower[q]; // own span (may be ∞)
        let mut block: Option<(usize, Landing)> = None;
        const TIE: f64 = 1e-9;
        for (i, &a) in self.col.iter().enumerate() {
            if a.abs() <= PIVOT_TOL {
                continue;
            }
            let rate = -a * dir; // dβ_i per unit step
            let b = self.basis[i];
            let (beta, lb, ub) = (self.x[b], self.lower[b], self.upper[b]);
            let (t_i, landing) = if phase1 && beta < lb - FEAS_TOL {
                // Infeasible below: blocks only when climbing back to `lb`.
                if rate > 0.0 {
                    ((lb - beta) / rate, Landing::Lower)
                } else {
                    continue;
                }
            } else if phase1 && beta > ub + FEAS_TOL {
                if rate < 0.0 {
                    ((ub - beta) / rate, Landing::Upper)
                } else {
                    continue;
                }
            } else if rate > 0.0 {
                if ub.is_finite() {
                    ((ub - beta) / rate, Landing::Upper)
                } else {
                    continue;
                }
            } else if lb.is_finite() {
                ((lb - beta) / rate, Landing::Lower)
            } else {
                continue;
            };
            let t_i = t_i.max(0.0);
            let better = match block {
                _ if t_i < t_best - TIE => true,
                None => t_i <= t_best, // row blocks win ties against flips
                Some((r, _)) if (t_i - t_best).abs() <= TIE => {
                    if self.bland {
                        self.basis[i] < self.basis[r]
                    } else {
                        a.abs() > self.col[r].abs()
                    }
                }
                _ => false,
            };
            if better {
                t_best = t_best.min(t_i);
                block = Some((i, landing));
            }
        }
        if t_best.is_finite() {
            Some((t_best, block))
        } else {
            None
        }
    }

    /// Applies a step of length `t` of variable `q` along `dir`, either as
    /// a bound flip or as a pivot on the blocking row. Reads column `q`
    /// from `col`.
    fn step(&mut self, q: usize, dir: f64, t: f64, block: Option<(usize, Landing)>) {
        if t > 0.0 {
            for (&a, &b) in self.col.iter().zip(&self.basis) {
                self.x[b] += -a * dir * t;
            }
            self.x[q] += dir * t;
        }
        match block {
            None => {
                // Bound flip: park exactly on the opposite bound. The
                // tableau is untouched, so no column's entries changed.
                self.pivot_cols.clear();
                self.at_upper[q] = dir > 0.0;
                self.x[q] = if dir > 0.0 {
                    self.upper[q]
                } else {
                    self.lower[q]
                };
            }
            Some((r, landing)) => {
                let leaving = self.basis[r];
                self.x[leaving] = match landing {
                    Landing::Lower => self.lower[leaving],
                    Landing::Upper => self.upper[leaving],
                };
                self.at_upper[leaving] = landing == Landing::Upper;
                self.pos[leaving] = -1;
                self.pos[q] = r as i64;
                self.basis[r] = q;
                self.pivot(r, q);
            }
        }
        self.iterations += 1;
        if t <= DEGEN_STEP {
            self.degenerate_run += 1;
            if self.degenerate_run >= DEGEN_LIMIT {
                self.bland = true;
            }
        } else {
            self.degenerate_run = 0;
            self.bland = false;
        }
        if self.iterations.is_multiple_of(REFRESH_EVERY) {
            self.refresh_basics();
        }
    }

    /// Gauss-Jordan pivot on `(row r, column q)`, over the pivot row's
    /// pattern only.
    fn pivot(&mut self, r: usize, q: usize) {
        let nt = self.nt;
        let piv = self.col[r];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        let s = self.slots[r];
        self.pivot_cols.clear();
        self.pivot_cols
            .extend_from_slice(&self.cols[s.at..s.at + s.len]);
        for &j in &self.pivot_cols {
            self.tab[r * nt + j as usize] *= inv;
        }
        for i in 0..self.m {
            if i != r && self.col[i] != 0.0 {
                self.eliminate(i, r, q);
            }
        }
        self.tab[r * nt + q] = 1.0;
    }

    /// Subtracts `f ×` the scaled pivot row `r` (pattern `pivot_cols`) from
    /// row `i`, where `f` zeroes column `q`, walking the two ascending
    /// patterns once. Row `i`'s pattern becomes their union minus `q` and
    /// minus any entry that cancelled to exactly zero (reset to `+0.0`).
    fn eliminate(&mut self, i: usize, r: usize, q: usize) {
        let nt = self.nt;
        let f = self.col[i];
        let (row, pivot_row) = if i < r {
            let (head, tail) = self.tab.split_at_mut(r * nt);
            (&mut head[i * nt..(i + 1) * nt], &tail[..nt])
        } else {
            let (head, tail) = self.tab.split_at_mut(i * nt);
            (&mut tail[..nt], &head[r * nt..(r + 1) * nt])
        };
        let s = self.slots[i];
        let (cols, pivot_cols) = (&self.cols[s.at..s.at + s.len], &self.pivot_cols);
        self.merged.clear();
        let (mut a, mut b) = (0, 0);
        loop {
            let (j, in_pivot) = match (cols.get(a), pivot_cols.get(b)) {
                (Some(&x), Some(&y)) if x == y => {
                    a += 1;
                    b += 1;
                    (x, true)
                }
                (Some(&x), Some(&y)) if x < y => {
                    a += 1;
                    (x, false)
                }
                (Some(&x), None) => {
                    a += 1;
                    (x, false)
                }
                (_, Some(&y)) => {
                    b += 1;
                    (y, true)
                }
                (None, None) => break,
            };
            let ju = j as usize;
            if in_pivot {
                row[ju] -= f * pivot_row[ju];
            }
            if ju == q || row[ju] == 0.0 {
                row[ju] = 0.0; // exact elimination / cancellation
            } else {
                self.merged.push(j);
            }
        }
        let len = self.merged.len();
        if len > s.room {
            let at = self.cols.len();
            self.cols.resize(at + 2 * len, 0);
            self.slots[i] = Slot {
                at,
                len,
                room: 2 * len,
            };
        }
        let s = &mut self.slots[i];
        s.len = len;
        self.cols[s.at..s.at + len].copy_from_slice(&self.merged);
    }

    fn run(&mut self) -> Outcome {
        let max_iter = 2_000 + 200 * (self.m + self.n) as u64;
        // Phase 1: minimize total infeasibility.
        while self.max_violation() > FEAS_TOL {
            if self.iterations > max_iter {
                return Outcome::IterationLimit;
            }
            self.infeasibility_gradient();
            let Some((q, dir)) = self.entering() else {
                return Outcome::Infeasible; // w minimized but still > 0
            };
            self.gather_column(q);
            let Some((t, block)) = self.ratio(q, dir, true) else {
                // An improving ray of a function bounded below: numerics.
                return Outcome::IterationLimit;
            };
            self.step(q, dir, t, block);
        }
        // Phase 2: minimize the true cost from the feasible basis.
        loop {
            if self.iterations > max_iter {
                return Outcome::IterationLimit;
            }
            self.reduced_costs();
            let Some((q, dir)) = self.entering() else {
                break; // optimal
            };
            self.gather_column(q);
            match self.ratio(q, dir, false) {
                None => return Outcome::Unbounded,
                Some((t, block)) => self.step(q, dir, t, block),
            }
        }
        self.refresh_basics();
        let mut x = self.x[..self.n].to_vec();
        for (j, v) in x.iter_mut().enumerate() {
            // Snap tiny excursions onto the box so downstream consumers
            // (plant execution, invariant checks) see clean values.
            *v = v.max(self.lower[j]).min(self.upper[j]);
            if (*v - self.lower[j]).abs() < FEAS_TOL {
                *v = self.lower[j];
            } else if (*v - self.upper[j]).abs() < FEAS_TOL {
                *v = self.upper[j];
            }
        }
        let objective = x.iter().zip(&self.cost).map(|(v, c)| v * c).sum();
        Outcome::Optimal(Solution {
            x,
            objective,
            iterations: self.iterations,
        })
    }
}

/// Appends to `stale` each of `cols` not yet in it, as `mark` records.
fn mark_stale(cols: &[u32], mark: &mut [bool], stale: &mut Vec<u32>) {
    for &j in cols {
        if !mark[j as usize] {
            mark[j as usize] = true;
            stale.push(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_optimal(lp: &Lp) -> Solution {
        match lp.solve() {
            Outcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn unconstrained_box_sits_at_cheap_corners() {
        let mut lp = Lp::new();
        lp.add_var(0.0, 4.0, 1.0); // wants its lower bound
        lp.add_var(-1.0, 5.0, -2.0); // wants its upper bound
        let s = solve_optimal(&lp);
        assert_eq!(s.x, vec![0.0, 5.0]);
        assert!((s.objective + 10.0).abs() < 1e-9);
    }

    #[test]
    fn classic_two_var_lp() {
        // max x + y  s.t. x + 2y ≤ 4, 3x + y ≤ 6  ⇒ (8/5, 6/5).
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_row(f64::NEG_INFINITY, &[(x, 1.0), (y, 2.0)], 4.0);
        lp.add_row(f64::NEG_INFINITY, &[(x, 3.0), (y, 1.0)], 6.0);
        let s = solve_optimal(&lp);
        assert!((s.x[0] - 1.6).abs() < 1e-9, "{:?}", s.x);
        assert!((s.x[1] - 1.2).abs() < 1e-9, "{:?}", s.x);
    }

    #[test]
    fn equality_rows_and_range_rows() {
        // min x + y  s.t. x + y = 2, 1 ≤ x − y ≤ 3.
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_row(2.0, &[(x, 1.0), (y, 1.0)], 2.0);
        lp.add_row(1.0, &[(x, 1.0), (y, -1.0)], 3.0);
        let s = solve_optimal(&lp);
        assert!((s.x[0] + s.x[1] - 2.0).abs() < 1e-7);
        assert!(s.x[0] - s.x[1] >= 1.0 - 1e-7);
    }

    #[test]
    fn infeasible_is_reported() {
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, 1.0, 0.0);
        lp.add_row(5.0, &[(x, 1.0)], f64::INFINITY); // x ≥ 5 vs x ≤ 1
        assert_eq!(lp.solve(), Outcome::Infeasible);
    }

    #[test]
    fn crossed_variable_bounds_are_infeasible() {
        let mut lp = Lp::new();
        lp.lower.push(2.0);
        lp.upper.push(1.0);
        lp.cost.push(0.0);
        assert_eq!(lp.solve(), Outcome::Infeasible);
    }

    #[test]
    fn unbounded_is_reported() {
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_row(f64::NEG_INFINITY, &[(x, -1.0)], 0.0); // −x ≤ 0, no cap
        assert_eq!(lp.solve(), Outcome::Unbounded);
    }

    #[test]
    fn degenerate_vertices_terminate() {
        // Many redundant rows through the same vertex.
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, -1.0);
        for scale in [1.0, 2.0, 3.0, 4.0] {
            lp.add_row(f64::NEG_INFINITY, &[(x, scale), (y, scale)], 2.0 * scale);
        }
        let s = solve_optimal(&lp);
        assert!((s.x[0] + s.x[1] - 2.0).abs() < 1e-7, "{:?}", s.x);
    }

    #[test]
    fn fixed_variables_stay_fixed() {
        let mut lp = Lp::new();
        let x = lp.add_var(3.0, 3.0, -10.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(5.0, &[(x, 1.0), (y, 1.0)], f64::INFINITY);
        let s = solve_optimal(&lp);
        assert_eq!(s.x[0], 3.0);
        assert!((s.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn solutions_are_bit_identical_across_runs() {
        let build = || {
            let mut lp = Lp::new();
            let v: Vec<usize> = (0..6)
                .map(|i| lp.add_var(0.0, 2.0 + i as f64, ((i * 7) % 5) as f64 - 2.0))
                .collect();
            for w in 0..4 {
                let coeffs: Vec<(usize, f64)> =
                    v.iter().map(|&j| (j, ((j + w) % 3) as f64 - 1.0)).collect();
                lp.add_row(-3.0, &coeffs, 4.0 + w as f64);
            }
            lp
        };
        let (a, b) = (build().solve(), build().solve());
        match (a, b) {
            (Outcome::Optimal(sa), Outcome::Optimal(sb)) => {
                assert_eq!(sa.x, sb.x);
                assert_eq!(sa.objective.to_bits(), sb.objective.to_bits());
                assert_eq!(sa.iterations, sb.iterations);
            }
            (a, b) => assert_eq!(a, b),
        }
    }

    /// The row-pattern invariant: every pattern is strictly ascending,
    /// every entry outside it is exactly `+0.0`, and each basic column is
    /// the unit vector of its row. The values must also still be `B⁻¹·A`:
    /// with `t0` the starting tableau (`−A`, as `B₀ = −I`), the basis
    /// columns of `t0` times the tableau give back `t0`.
    fn assert_tableau_holds(s: &Solver, t0: &[f64]) {
        let nt = s.nt;
        for k in 0..s.m {
            for j in 0..nt {
                let bt: f64 = (0..s.m)
                    .map(|i| t0[k * nt + s.basis[i]] * s.tab[i * nt + j])
                    .sum();
                assert!((bt - t0[k * nt + j]).abs() < 1e-9, "(B·T)[{k}][{j}] = {bt}");
            }
        }
        for (i, slot) in s.slots.iter().enumerate() {
            let cols = &s.cols[slot.at..slot.at + slot.len];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i}: {cols:?}");
            let row = &s.tab[i * s.nt..(i + 1) * s.nt];
            for (j, &v) in row.iter().enumerate() {
                if cols.binary_search(&(j as u32)).is_err() {
                    assert_eq!(v.to_bits(), 0, "entry ({i}, {j}) = {v} outside its pattern");
                }
            }
            for (k, &b) in s.basis.iter().enumerate() {
                assert_eq!(row[b], if k == i { 1.0 } else { 0.0 }, "basic column {b}");
            }
        }
    }

    #[test]
    fn row_patterns_cover_the_tableau_after_every_pivot() {
        use tts_rng::{Rng, SeedableRng, Xoshiro256pp};
        for seed in 0..8 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            // Sparse rows of small integers, so pivots both fill in and
            // cancel entries to exactly zero.
            let mut lp = Lp::new();
            for _ in 0..20 {
                let cost = rng.gen_range(-3i64..4) as f64;
                lp.add_var(0.0, rng.gen_range(1i64..5) as f64, cost);
            }
            for _ in 0..12 {
                let coeffs: Vec<(usize, f64)> = (0..4)
                    .map(|_| (rng.gen_range(0usize..20), rng.gen_range(-3i64..4) as f64))
                    .collect();
                lp.add_row(-2.0, &coeffs, 6.0);
            }
            let mut s = Solver::new(&lp);
            let t0 = s.tab.clone();
            assert_tableau_holds(&s, &t0);
            for _ in 0..200 {
                let q = rng.gen_range(0usize..s.nt);
                if s.pos[q] >= 0 {
                    continue;
                }
                let rows: Vec<usize> = (0..s.m)
                    .filter(|&i| s.tab[i * s.nt + q].abs() > PIVOT_TOL)
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                let r = rows[rng.gen_range(0usize..rows.len())];
                s.gather_column(q);
                s.step(q, 1.0, 0.0, Some((r, Landing::Lower)));
                assert_tableau_holds(&s, &t0);
            }
            // And along the simplex's own pivot sequence.
            let mut s = Solver::new(&lp);
            let _ = s.run();
            assert_tableau_holds(&s, &t0);
        }
    }

    /// Phase 1 of [`Solver::run`], one iteration at a time: after every
    /// gradient update, `d` must equal the from-scratch row-wise fill, bit
    /// for bit. Returns the phase-1 iterations and bound flips taken.
    fn assert_gradients_match_fill(lp: &Lp) -> (u64, u64) {
        let mut s = Solver::new(lp);
        let mut fill = vec![0.0; s.nt];
        let mut flips = 0;
        while s.max_violation() > FEAS_TOL {
            s.infeasibility_gradient();
            s.fill_gradient(&mut fill);
            for (j, (got, want)) in s.d.iter().zip(&fill).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "d[{j}] after {} iterations: {got} vs {want}",
                    s.iterations
                );
            }
            let Some((q, dir)) = s.entering() else {
                break;
            };
            s.gather_column(q);
            let Some((t, block)) = s.ratio(q, dir, true) else {
                break;
            };
            flips += u64::from(block.is_none());
            s.step(q, dir, t, block);
        }
        (s.iterations, flips)
    }

    /// A feasible sparse LP of small integers: short variable spans, so
    /// that steps often exhaust them as bound flips, and each row ranged
    /// around its value at a hidden integer point of the box, which the
    /// all-lower start mostly misses, so that phase 1 runs long.
    fn random_sparse_lp(seed: u64) -> Lp {
        use tts_rng::{Rng, SeedableRng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let n = rng.gen_range(20usize..80);
        let m = rng.gen_range(20usize..120);
        let mut lp = Lp::new();
        let mut hidden = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = rng.gen_range(-2i64..2);
            let span = rng.gen_range(1i64..5);
            lp.add_var(
                lo as f64,
                (lo + span) as f64,
                rng.gen_range(-3i64..4) as f64,
            );
            hidden.push((lo + rng.gen_range(0..span + 1)) as f64);
        }
        for _ in 0..m {
            let coeffs: Vec<(usize, f64)> = (0..rng.gen_range(2usize..6))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(-3i64..4) as f64))
                .collect();
            let at: f64 = coeffs.iter().map(|&(j, a)| a * hidden[j]).sum();
            let below = rng.gen_range(0i64..3) as f64;
            lp.add_row(at - below, &coeffs, at + rng.gen_range(0i64..3) as f64);
        }
        lp
    }

    #[test]
    fn incremental_gradient_matches_fill_on_random_lps() {
        tts_rng::prop::run(
            "incremental_gradient_matches_fill_on_random_lps",
            0u64..u64::MAX,
            |seed| {
                assert_gradients_match_fill(&random_sparse_lp(seed));
            },
        );
    }

    /// The random family above crosses a `refresh_basics` in phase 1 and
    /// takes bound flips, so the oracle test sees both.
    #[test]
    fn random_lps_cross_refreshes_and_take_bound_flips() {
        let runs: Vec<(u64, u64)> = (0..8)
            .map(|seed| assert_gradients_match_fill(&random_sparse_lp(seed)))
            .collect();
        assert!(
            runs.iter().any(|&(iters, _)| iters > REFRESH_EVERY),
            "{runs:?}"
        );
        assert!(runs.iter().any(|&(_, flips)| flips > 0), "{runs:?}");
    }

    mod planning {
        use crate::model::{BacklogItem, HorizonModel, SlotForecast, DELAY_CLASSES_MIN};
        use crate::simplex::Lp;

        include!("../tests/common/schedule_lp.rs");

        #[test]
        fn incremental_gradient_matches_fill_on_schedule_lps() {
            for lp in [
                default_schedule_lp(),
                schedule_lp(1, 30.0, 0.0, 170.0),
                schedule_lp(4, 15.0, 6.0, 125.0),
            ] {
                let (iters, _) = super::assert_gradients_match_fill(&lp);
                assert!(iters > super::REFRESH_EVERY, "{iters} phase-1 iterations");
            }
        }
    }
}
