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
//! # The sparsity index
//!
//! The tableau `B⁻¹·A` keeps dense values, indexed by two bit matrices:
//! each row's *pattern* (a bit per column that may be nonzero) and its
//! transpose, each column's set of rows. Every entry whose bit is clear is
//! exactly `+0.0`. Planning LPs stay very sparse: over the 604 pivots of
//! the default 648 × 1,188 schedule LP, 1.6 % of the tableau is nonzero on
//! average, a pivot row holds ~5 entries and the entering column ~50. So
//! every pass is driven by one of the two:
//!
//! * a pivot on `(r, q)` scales row `r` over its pattern, then updates, in
//!   each row of column `q`'s set (ascending, skipping zero entries), only
//!   the pivot row's columns. A result that is nonzero sets its bit in
//!   both matrices; column `q` and any exact cancellation are reset to
//!   `+0.0` and clear it. No pattern is merged or copied;
//! * the column gather, the ratio test and the basic-value update of a
//!   step visit column `q`'s rows only;
//! * the basic-value refresh walks each row's pattern;
//! * an entry of the pricing vector sums over its column's rows.
//!
//! None of this changes an output bit of plain dense loops. Every column
//! sum still runs over rows in ascending order (and a row's refresh over
//! ascending columns), and the only terms skipped are `±0` products,
//! which leave unchanged any value that is not a zero. The phase-1 and
//! refresh sums start at `+0.0`, which adding a `±0` never turns into
//! `−0.0`, so those sums are bit-identical. Elsewhere a skipped term can at
//! most flip the sign of a zero: a zero tableau entry, a zero reduced cost,
//! or a basic value whose step `x += ∓0` was skipped for a row outside
//! column `q`'s set. Every nonzero value is identical, and the sign of a
//! zero reaches no comparison, pivot or step length. The basic values that
//! reach the solution are recomputed by the final refresh from the
//! nonbasic values, which sit exactly on their bounds.
//!
//! # Incremental pricing
//!
//! Both phases price with `d_j = base_j + Σ_i w_i · (B⁻¹A)_ij` over the
//! rows `i` of nonzero weight, and `d_j = 0` on basic columns. Phase 1
//! takes `base = 0` and as `w_i` the sign of row `i`'s bound violation
//! (`+1` below its lower bound, `−1` above its upper, `0` feasible): the
//! gradient of the total infeasibility. Phase 2 takes `base = c` and
//! `w_i = −c_{B(i)}`: the reduced costs `c − c_B·B⁻¹A`, each term formed as
//! `d −= c_B·a` would form it.
//!
//! `d_j` is formed column by column, for the *stale* columns only; all of
//! them are stale when a phase starts. Between two iterations `d_j` can
//! change only if column `j` of the tableau did, or the weight of a row
//! with `j` in its pattern did. A pivot writes only the columns of the
//! pivot row's pattern, which include the entering and the leaving
//! variable; a bound flip writes none. A row's old pattern lies in its new
//! one plus the pivot row's. So a pivot marks its row's columns stale, and
//! a change of weight marks that row's pattern. In phase 2 only the pivot
//! row's weight changes. In phase 1 a row's sign, and whether it violates a
//! bound (`max(l − x, x − u) > FEAS_TOL`, the loop's test), can change only
//! when its basic value or its basic variable does: after a step that is
//! column `q`'s rows (the pivot row among them), and after a periodic
//! refresh of basic values every row. Only those rows are revisited. Each
//! recomputed `d_j` is the same ascending-row sum of the same nonzero
//! products as a fill over every weighted row, and every other entry is
//! already the value such a fill would give, so pricing, and every pivot
//! after it, is unchanged.

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

/// A `rows × cols` bit matrix, row-major, each row padded to whole words.
struct BitMatrix {
    words: Vec<u64>,
    stride: usize,
}

impl BitMatrix {
    fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        Self {
            words: vec![0; rows * stride],
            stride,
        }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    fn put(&mut self, r: usize, c: usize, on: bool) {
        let at = r * self.stride;
        put_bit(&mut self.words[at..at + self.stride], c, on);
    }
}

/// Sets or clears bit `i` of `words`.
fn put_bit(words: &mut [u64], i: usize, on: bool) {
    let bit = 1u64 << (i % 64);
    if on {
        words[i / 64] |= bit;
    } else {
        words[i / 64] &= !bit;
    }
}

/// The indices of the set bits of `words`, ascending.
fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
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
    /// Row patterns (`m × nt`): bit `(i, j)` is set where entry `(i, j)`
    /// may be nonzero.
    rows: BitMatrix,
    /// The transpose of `rows` (`nt × m`): each column's rows.
    cols: BitMatrix,
    /// Scratch: the pivot row's pattern during a pivot, ascending.
    pivot_cols: Vec<usize>,
    /// Pricing vector over all `nt` columns: the phase-1 infeasibility
    /// gradient or the phase-2 reduced costs, `d_j = base_j + Σ_i w_i ·
    /// (B⁻¹A)_ij` with `base` zero or the cost, and `0` on basic columns.
    d: Vec<f64>,
    /// Per row: its weight `w_i` in `d`. In phase 1 its basic variable's
    /// [`Solver::infeasibility_sign`], in phase 2 minus its cost.
    weights: Vec<f64>,
    /// Bitset of the rows with a nonzero weight.
    weighted: Vec<u64>,
    /// Bitset of the columns whose entry of `d` may have changed since it
    /// was last priced.
    stale: Vec<u64>,
    /// In phase 1, `weights` and `violated` follow the basic values.
    phase1: bool,
    /// Bitset of the rows whose basic variable violates a bound by more
    /// than `FEAS_TOL`; phase 1 runs until it is empty.
    violated: Vec<u64>,
    /// Tableau column `q` of this iteration's entering variable as
    /// `(row, value)` over column `q`'s rows, ascending: gathered once for
    /// the ratio test, the step and the pivot.
    col: Vec<(usize, f64)>,
    /// Basic variable per row.
    basis: Vec<usize>,
    /// Variable → basis row, or `-1` when nonbasic.
    pos: Vec<i64>,
    /// Current value of every variable.
    x: Vec<f64>,
    /// Per variable, the direction it may enter along: `+1` nonbasic at
    /// its lower bound, `−1` at its upper, `0` basic or fixed.
    mobility: Vec<f64>,
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
        let mut tab = vec![0.0; m * nt];
        let mut rows = BitMatrix::new(m, nt);
        let mut cols = BitMatrix::new(nt, m);
        for (i, r) in lp.rows.iter().enumerate() {
            for &(j, a) in &r.coeffs {
                tab[i * nt + j] -= a;
                rows.put(i, j, true);
                cols.put(j, i, true);
            }
            tab[i * nt + n + i] = 1.0;
            rows.put(i, n + i, true);
            cols.put(n + i, i, true);
        }
        let mut x = vec![0.0; nt];
        x[..n].copy_from_slice(&lp.lower);
        let mobility = (0..nt)
            .map(|j| {
                if j < n && lower[j] < upper[j] {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let mut s = Self {
            m,
            n,
            nt,
            lower,
            upper,
            cost,
            tab,
            rows,
            cols,
            pivot_cols: Vec::with_capacity(nt),
            d: vec![0.0; nt],
            weights: vec![0.0; m],
            weighted: vec![0; m.div_ceil(64)],
            stale: vec![0; nt.div_ceil(64)],
            phase1: false,
            violated: vec![0; m.div_ceil(64)],
            col: Vec::with_capacity(m),
            basis: (n..nt).collect(),
            pos: (0..nt).map(|j| j as i64 - n as i64).collect(),
            x,
            mobility,
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
        for i in 0..self.m {
            let row = &self.tab[i * self.nt..(i + 1) * self.nt];
            let mut beta = 0.0;
            for j in ones(self.rows.row(i).iter().copied()) {
                if self.pos[j] >= 0 || self.x[j] == 0.0 {
                    continue;
                }
                beta -= row[j] * self.x[j];
            }
            self.x[self.basis[i]] = beta;
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

    /// Marks every column of `d` stale.
    fn stale_all(&mut self) {
        for j in 0..self.nt {
            put_bit(&mut self.stale, j, true);
        }
    }

    /// Enters phase 1: every row's state from scratch, every entry of `d`
    /// stale.
    fn start_phase1(&mut self) {
        self.phase1 = true;
        self.stale_all();
        for i in 0..self.m {
            self.review_row(i);
        }
    }

    /// Enters phase 2: every row weighs minus its basic variable's cost.
    fn start_phase2(&mut self) {
        self.phase1 = false;
        self.stale_all();
        for i in 0..self.m {
            self.set_weight(i, -self.cost[self.basis[i]]);
        }
    }

    /// Sets row `i`'s weight; a change marks the row's pattern stale.
    fn set_weight(&mut self, i: usize, w: f64) {
        if w != self.weights[i] {
            self.weights[i] = w;
            put_bit(&mut self.weighted, i, w != 0.0);
            for (s, &bits) in self.stale.iter_mut().zip(self.rows.row(i)) {
                *s |= bits;
            }
        }
    }

    /// Re-derives row `i`'s phase-1 state from its basic value: its
    /// violation bit and its sign as weight.
    fn review_row(&mut self, i: usize) {
        let b = self.basis[i];
        let violation = (self.lower[b] - self.x[b]).max(self.x[b] - self.upper[b]);
        put_bit(&mut self.violated, i, violation > FEAS_TOL);
        self.set_weight(i, self.infeasibility_sign(i));
    }

    /// Brings `d` up to date: each stale entry becomes the ascending-row
    /// sum over its column's weighted rows (see the module docs). In phase
    /// 1 that is the gradient of the total infeasibility
    /// `w = Σ (l−β)⁺ + (β−u)⁺` with respect to each nonbasic variable, in
    /// phase 2 the reduced costs `c − c_B·B⁻¹A`.
    fn price(&mut self) {
        for j in ones(self.stale.iter().copied()) {
            let mut dj = 0.0;
            if self.pos[j] < 0 {
                if !self.phase1 {
                    dj = self.cost[j];
                }
                let hits = self.cols.row(j).iter().zip(&self.weighted);
                for i in ones(hits.map(|(a, b)| a & b)) {
                    dj += self.weights[i] * self.tab[i * self.nt + j];
                }
            }
            self.d[j] = dj;
        }
        self.stale.fill(0);
    }

    /// Picks the entering variable and its direction (+1 from lower, −1
    /// from upper) from the pricing vector `d`: the largest improvement
    /// `−mobility_j · d_j` beyond `COST_TOL`. Dantzig by default, Bland
    /// (the first improving column) when triggered; ties always break to
    /// the lowest index.
    fn entering(&self) -> Option<(usize, f64)> {
        let mut best = COST_TOL;
        let mut pick = None;
        for (j, (&dj, &dir)) in self.d.iter().zip(&self.mobility).enumerate() {
            let score = -dir * dj;
            if score > best {
                pick = Some((j, dir));
                if self.bland {
                    break;
                }
                best = score;
            }
        }
        pick
    }

    /// Gathers tableau column `q` over its rows into `col`, for the ratio
    /// test, the step and the pivot that follow.
    fn gather_column(&mut self, q: usize) {
        self.col.clear();
        for i in ones(self.cols.row(q).iter().copied()) {
            self.col.push((i, self.tab[i * self.nt + q]));
        }
    }

    /// The ratio test: how far the entering variable `q` can move along
    /// `dir` before a basic variable hits a bound (or its own span runs
    /// out). Returns the step and the blocking row with its landing bound;
    /// `None` row means a bound flip, `None` overall means unbounded. Reads
    /// column `q` from `col`.
    fn ratio(&self, q: usize, dir: f64) -> Option<(f64, Option<(usize, Landing)>)> {
        let mut t_best = self.upper[q] - self.lower[q]; // own span (may be ∞)
        let mut block: Option<(usize, Landing)> = None;
        let mut block_a: f64 = 0.0;
        const TIE: f64 = 1e-9;
        for &(i, a) in &self.col {
            if a.abs() <= PIVOT_TOL {
                continue;
            }
            let rate = -a * dir; // dβ_i per unit step
            let b = self.basis[i];
            let (beta, lb, ub) = (self.x[b], self.lower[b], self.upper[b]);
            let (t_i, landing) = if self.phase1 && beta < lb - FEAS_TOL {
                // Infeasible below: blocks only when climbing back to `lb`.
                if rate > 0.0 {
                    ((lb - beta) / rate, Landing::Lower)
                } else {
                    continue;
                }
            } else if self.phase1 && beta > ub + FEAS_TOL {
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
                        a.abs() > block_a.abs()
                    }
                }
                _ => false,
            };
            if better {
                t_best = t_best.min(t_i);
                block = Some((i, landing));
                block_a = a;
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
    /// from `col`. In phase 1 it then revisits the rows whose basic value
    /// or basic variable can have changed.
    fn step(&mut self, q: usize, dir: f64, t: f64, block: Option<(usize, Landing)>) {
        if t > 0.0 {
            for &(i, a) in &self.col {
                self.x[self.basis[i]] += -a * dir * t;
            }
            self.x[q] += dir * t;
        }
        match block {
            None => {
                // Bound flip: park exactly on the opposite bound. The
                // tableau is untouched, so no column's entries changed.
                self.mobility[q] = -dir;
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
                self.mobility[leaving] = match landing {
                    _ if self.lower[leaving] == self.upper[leaving] => 0.0,
                    Landing::Lower => 1.0,
                    Landing::Upper => -1.0,
                };
                self.mobility[q] = 0.0;
                self.pos[leaving] = -1;
                self.pos[q] = r as i64;
                self.basis[r] = q;
                self.pivot(r, q);
                if !self.phase1 {
                    self.set_weight(r, -self.cost[q]);
                }
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
        let refresh = self.iterations.is_multiple_of(REFRESH_EVERY);
        if refresh {
            self.refresh_basics();
        }
        if self.phase1 {
            if refresh {
                for i in 0..self.m {
                    self.review_row(i);
                }
            } else {
                for k in 0..self.col.len() {
                    self.review_row(self.col[k].0);
                }
            }
        }
    }

    /// Gauss-Jordan pivot on `(row r, column q)`: each row of column `q`'s
    /// set takes the pivot row's pattern only, and both bit matrices follow
    /// fill-in and exact cancellation. The pivot row's columns, the only
    /// ones written, become stale.
    fn pivot(&mut self, r: usize, q: usize) {
        let nt = self.nt;
        let piv = self.tab[r * nt + q];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        self.pivot_cols.clear();
        self.pivot_cols
            .extend(ones(self.rows.row(r).iter().copied()));
        for &j in &self.pivot_cols {
            self.tab[r * nt + j] *= inv;
        }
        for &(i, f) in &self.col {
            if i == r || f == 0.0 {
                continue;
            }
            for &j in &self.pivot_cols {
                let v = self.tab[i * nt + j] - f * self.tab[r * nt + j];
                // Exact elimination of `q`, or exact cancellation.
                let nonzero = j != q && v != 0.0;
                self.tab[i * nt + j] = if nonzero { v } else { 0.0 };
                self.rows.put(i, j, nonzero);
                self.cols.put(j, i, nonzero);
            }
        }
        self.tab[r * nt + q] = 1.0;
        for &j in &self.pivot_cols {
            put_bit(&mut self.stale, j, true);
        }
    }

    fn run(&mut self) -> Outcome {
        let max_iter = 2_000 + 200 * (self.m + self.n) as u64;
        // Phase 1: minimize total infeasibility.
        self.start_phase1();
        while self.violated.iter().any(|&w| w != 0) {
            if self.iterations > max_iter {
                return Outcome::IterationLimit;
            }
            self.price();
            let Some((q, dir)) = self.entering() else {
                return Outcome::Infeasible; // w minimized but still > 0
            };
            self.gather_column(q);
            let Some((t, block)) = self.ratio(q, dir) else {
                // An improving ray of a function bounded below: numerics.
                return Outcome::IterationLimit;
            };
            self.step(q, dir, t, block);
        }
        // Phase 2: minimize the true cost from the feasible basis.
        self.start_phase2();
        loop {
            if self.iterations > max_iter {
                return Outcome::IterationLimit;
            }
            self.price();
            let Some((q, dir)) = self.entering() else {
                break; // optimal
            };
            self.gather_column(q);
            match self.ratio(q, dir) {
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

    /// Whether bit `i` of `words` is set.
    fn bit(words: &[u64], i: usize) -> bool {
        words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The sparsity-index invariant: every entry outside its row's pattern
    /// is exactly `+0.0`, the column sets are the exact transpose of the
    /// row patterns (padding bits clear), and each basic column is the unit
    /// vector of its row. The values must also still be `B⁻¹·A`: with `t0`
    /// the starting tableau (`−A`, as `B₀ = −I`), the basis columns of `t0`
    /// times the tableau give back `t0`.
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
        for i in 0..s.m {
            assert!(
                ones(s.rows.row(i).iter().copied()).all(|j| j < nt),
                "row {i} padding"
            );
            let row = &s.tab[i * nt..(i + 1) * nt];
            for (j, &v) in row.iter().enumerate() {
                let (in_row, in_col) = (bit(s.rows.row(i), j), bit(s.cols.row(j), i));
                assert_eq!(
                    in_row, in_col,
                    "bit ({i}, {j}): row {in_row}, column {in_col}"
                );
                if !in_row {
                    assert_eq!(v.to_bits(), 0, "entry ({i}, {j}) = {v} outside its pattern");
                }
            }
            for (k, &b) in s.basis.iter().enumerate() {
                assert_eq!(row[b], if k == i { 1.0 } else { 0.0 }, "basic column {b}");
            }
        }
        for j in 0..nt {
            assert!(
                ones(s.cols.row(j).iter().copied()).all(|i| i < s.m),
                "column {j} padding"
            );
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
                if rng.gen_range(0u32..4) == 0 && s.mobility[q] != 0.0 && s.upper[q].is_finite() {
                    // A bound flip: the index must not move.
                    let dir = s.mobility[q];
                    s.gather_column(q);
                    s.step(q, dir, s.upper[q] - s.lower[q], None);
                    assert_tableau_holds(&s, &t0);
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

    /// Largest bound violation over the basic variables: the oracle for
    /// the incremental `violated` set.
    fn max_violation(s: &Solver) -> f64 {
        let mut worst: f64 = 0.0;
        for &b in &s.basis {
            let v = (s.lower[b] - s.x[b]).max(s.x[b] - s.upper[b]);
            worst = worst.max(v);
        }
        worst
    }

    /// The phase-1 gradient from scratch, row by row over each infeasible
    /// row's pattern, rows in ascending order: the oracle for the
    /// column-wise incremental update.
    fn fill_gradient(s: &Solver, d: &mut [f64]) {
        d.fill(0.0);
        for i in 0..s.m {
            let sign = s.infeasibility_sign(i);
            if sign == 0.0 {
                continue;
            }
            let row = &s.tab[i * s.nt..(i + 1) * s.nt];
            for j in ones(s.rows.row(i).iter().copied()) {
                d[j] += sign * row[j];
            }
        }
        for &b in &s.basis {
            d[b] = 0.0;
        }
    }

    /// Phase-2 reduced costs `d = c − c_B·B⁻¹A` from scratch, row by row
    /// over the pattern of each row whose basic variable has a cost.
    fn fill_reduced_costs(s: &Solver, d: &mut [f64]) {
        d.copy_from_slice(&s.cost);
        for (i, &b) in s.basis.iter().enumerate() {
            let cb = s.cost[b];
            if cb == 0.0 {
                continue;
            }
            let row = &s.tab[i * s.nt..(i + 1) * s.nt];
            for j in ones(s.rows.row(i).iter().copied()) {
                d[j] -= cb * row[j];
            }
        }
        for &b in &s.basis {
            d[b] = 0.0;
        }
    }

    /// The incremental phase-1 state against fresh scans: the `violated`
    /// set is nonempty exactly when `max_violation` exceeds `FEAS_TOL`,
    /// and every row's violation bit, weight and weighted bit match its
    /// basic value now.
    fn assert_phase1_state_holds(s: &Solver) {
        let any = s.violated.iter().any(|&w| w != 0);
        assert_eq!(
            any,
            max_violation(s) > FEAS_TOL,
            "after {} iterations",
            s.iterations
        );
        for i in 0..s.m {
            let b = s.basis[i];
            let v = (s.lower[b] - s.x[b]).max(s.x[b] - s.upper[b]);
            assert_eq!(bit(&s.violated, i), v > FEAS_TOL, "row {i} violation");
            let sign = s.infeasibility_sign(i);
            assert_eq!(
                s.weights[i], sign,
                "row {i} sign after {} iterations",
                s.iterations
            );
            assert_eq!(bit(&s.weighted, i), sign != 0.0, "row {i} weighted bit");
        }
    }

    /// [`Solver::run`], one iteration at a time. In phase 1, after every
    /// iteration the incremental row state must match fresh scans, and
    /// after every pricing `d` must equal the from-scratch row-wise
    /// gradient fill, bit for bit. In phase 2 it must equal the row-wise
    /// reduced costs (whose skipped `±0` terms may flip the sign of a zero
    /// entry, which only meets tolerances). Returns the phase-1 iterations
    /// and bound flips taken.
    fn assert_gradients_match_fill(lp: &Lp) -> (u64, u64) {
        let mut s = Solver::new(lp);
        let mut fill = vec![0.0; s.nt];
        let mut flips = 0;
        s.start_phase1();
        let mut phase1_iterations = None;
        loop {
            if s.phase1 {
                assert_phase1_state_holds(&s);
                if s.violated.iter().all(|&w| w == 0) {
                    phase1_iterations = Some(s.iterations);
                    s.start_phase2();
                }
            }
            s.price();
            if s.phase1 {
                fill_gradient(&s, &mut fill);
            } else {
                fill_reduced_costs(&s, &mut fill);
            }
            for (j, (got, want)) in s.d.iter().zip(&fill).enumerate() {
                let same = if s.phase1 {
                    got.to_bits() == want.to_bits()
                } else {
                    got == want
                };
                let it = s.iterations;
                assert!(same, "d[{j}] after {it} iterations: {got} vs {want}");
            }
            let Some((q, dir)) = s.entering() else {
                break;
            };
            s.gather_column(q);
            let Some((t, block)) = s.ratio(q, dir) else {
                break;
            };
            flips += u64::from(s.phase1 && block.is_none());
            s.step(q, dir, t, block);
        }
        (phase1_iterations.unwrap_or(s.iterations), flips)
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
