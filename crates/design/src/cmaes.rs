//! (μ/μ_w, λ)-CMA-ES in the unit cube, fully deterministic.
//!
//! Standard Hansen formulation: rank-based recombination with log weights,
//! cumulative step-size adaptation, rank-1 + rank-μ covariance update, and a
//! cyclic-Jacobi eigendecomposition of the covariance (exact enough and
//! bit-reproducible for the small dimensionalities design spaces have).
//! All arithmetic is serial; the only randomness is a seeded xoshiro256++
//! stream, so identical seeds give identical trajectories.

use tts_rng::{Normal, SeedableRng, Xoshiro256pp};

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
/// Returns `(basis, eigenvalues)` where `basis[i][j]` is component `i` of
/// eigenvector `j`, eigenvalues ascending.
#[allow(clippy::needless_range_loop)] // dense Jacobi rotations read clearest with raw indices
fn eigen_sym(a: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = a.len();
    let mut m: Vec<Vec<f64>> = a.to_vec();
    let mut v: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
        .collect();
    for _sweep in 0..64 {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[p][q] * m[p][q];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if m[p][q].abs() < 1e-30 {
                    continue;
                }
                let theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (mkp, mkq) = (m[k][p], m[k][q]);
                    m[k][p] = c * mkp - s * mkq;
                    m[k][q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let (mpk, mqk) = (m[p][k], m[q][k]);
                    m[p][k] = c * mpk - s * mqk;
                    m[q][k] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let (vkp, vkq) = (v[k][p], v[k][q]);
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        m[i][i]
            .partial_cmp(&m[j][j])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let eigvals: Vec<f64> = order.iter().map(|&i| m[i][i]).collect();
    let basis: Vec<Vec<f64>> = (0..n)
        .map(|row| order.iter().map(|&col| v[row][col]).collect())
        .collect();
    (basis, eigvals)
}

/// The evolution strategy state. Works in `[0,1]^d`; callers are expected to
/// snap sampled points onto the design lattice before evaluating and pass
/// the *snapped* unit coordinates back to [`CmaEs::tell`].
pub struct CmaEs {
    dim: usize,
    lambda: usize,
    weights: Vec<f64>,
    mu_eff: f64,
    cc: f64,
    cs: f64,
    c1: f64,
    cmu: f64,
    damps: f64,
    chi_n: f64,
    mean: Vec<f64>,
    sigma: f64,
    cov: Vec<Vec<f64>>,
    basis: Vec<Vec<f64>>,
    scale: Vec<f64>,
    path_c: Vec<f64>,
    path_s: Vec<f64>,
    gen: u64,
    rng: Xoshiro256pp,
}

impl CmaEs {
    /// New strategy centred on `mean0` (unit cube) with initial step `sigma0`.
    /// The population size is `4 + ⌊3 ln d⌋`.
    pub fn new(dim: usize, seed: u64, sigma0: f64, mean0: Vec<f64>) -> Self {
        assert!(dim >= 1, "CMA-ES needs at least one dimension");
        assert_eq!(mean0.len(), dim, "mean/dim mismatch");
        let lambda = 4 + (3.0 * (dim as f64).ln()).floor() as usize;
        let mu = lambda / 2;
        let mut weights: Vec<f64> = (0..mu)
            .map(|i| ((lambda as f64 + 1.0) / 2.0).ln() - ((i + 1) as f64).ln())
            .collect();
        let wsum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= wsum;
        }
        let mu_eff = 1.0 / weights.iter().map(|w| w * w).sum::<f64>();
        let d = dim as f64;
        let cc = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d);
        let cs = (mu_eff + 2.0) / (d + mu_eff + 5.0);
        let c1 = 2.0 / ((d + 1.3) * (d + 1.3) + mu_eff);
        let cmu =
            (1.0 - c1).min(2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) * (d + 2.0) + mu_eff));
        let damps = 1.0 + 2.0 * (0.0f64).max(((mu_eff - 1.0) / (d + 1.0)).sqrt() - 1.0) + cs;
        let chi_n = d.sqrt() * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d));
        let cov: Vec<Vec<f64>> = (0..dim)
            .map(|i| (0..dim).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        CmaEs {
            dim,
            lambda,
            weights,
            mu_eff,
            cc,
            cs,
            c1,
            cmu,
            damps,
            chi_n,
            mean: mean0,
            sigma: sigma0.clamp(1e-6, 1.0),
            basis: cov.clone(),
            scale: vec![1.0; dim],
            cov,
            path_c: vec![0.0; dim],
            path_s: vec![0.0; dim],
            gen: 0,
            rng: Xoshiro256pp::seed_from_u64(seed ^ 0xc3a5_c3a5_c3a5_c3a5),
        }
    }

    /// Population size λ.
    pub fn lambda(&self) -> usize {
        self.lambda
    }

    /// Current global step size σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Current distribution mean (unit cube).
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    fn refresh_eigen(&mut self) {
        let (basis, eigvals) = eigen_sym(&self.cov);
        self.basis = basis;
        self.scale = eigvals.iter().map(|&e| e.max(1e-20).sqrt()).collect();
    }

    /// Sample λ candidate points in the unit cube (clamped into the box).
    pub fn ask(&mut self) -> Vec<Vec<f64>> {
        self.refresh_eigen();
        let norm = Normal::new(0.0, 1.0);
        let mut out = Vec::with_capacity(self.lambda);
        for _ in 0..self.lambda {
            let z: Vec<f64> = (0..self.dim).map(|_| norm.sample(&mut self.rng)).collect();
            let mut x = self.mean.clone();
            for (i, xi) in x.iter_mut().enumerate() {
                let mut step = 0.0;
                for (j, zj) in z.iter().enumerate() {
                    step += self.basis[i][j] * self.scale[j] * zj;
                }
                *xi = (*xi + self.sigma * step).clamp(0.0, 1.0);
            }
            out.push(x);
        }
        out
    }

    /// Fold one ranked generation back into the distribution. `points` are
    /// unit-cube coordinates (after clamping/snapping) and `values` their
    /// objective values (lower is better); both slices must be λ long.
    pub fn tell(&mut self, points: &[Vec<f64>], values: &[f64]) {
        assert_eq!(points.len(), self.lambda, "tell expects λ points");
        assert_eq!(values.len(), self.lambda, "tell expects λ values");
        let mut order: Vec<usize> = (0..self.lambda).collect();
        order.sort_by(|&i, &j| {
            values[i]
                .partial_cmp(&values[j])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(i.cmp(&j))
        });

        let old_mean = self.mean.clone();
        let mut new_mean = vec![0.0; self.dim];
        for (w, &idx) in self.weights.iter().zip(&order) {
            for (m, &xi) in new_mean.iter_mut().zip(&points[idx]) {
                *m += w * xi;
            }
        }

        // y_w = (m' − m) / σ, and its C^{-1/2} image for the σ path.
        let y_w: Vec<f64> = new_mean
            .iter()
            .zip(&old_mean)
            .map(|(a, b)| (a - b) / self.sigma)
            .collect();
        let mut c_inv_half_y = vec![0.0; self.dim];
        for j in 0..self.dim {
            let mut proj = 0.0;
            for (i, yi) in y_w.iter().enumerate() {
                proj += self.basis[i][j] * yi;
            }
            let whitened = proj / self.scale[j].max(1e-20);
            for (i, out) in c_inv_half_y.iter_mut().enumerate() {
                *out += self.basis[i][j] * whitened;
            }
        }

        let cs_fac = (self.cs * (2.0 - self.cs) * self.mu_eff).sqrt();
        for (p, w) in self.path_s.iter_mut().zip(&c_inv_half_y) {
            *p = (1.0 - self.cs) * *p + cs_fac * w;
        }
        let ps_norm = self.path_s.iter().map(|p| p * p).sum::<f64>().sqrt();
        let expected = (1.0 - (1.0 - self.cs).powi(2 * (self.gen as i32 + 1))).sqrt() * self.chi_n;
        let h_sigma = ps_norm / expected.max(1e-20) < 1.4 + 2.0 / (self.dim as f64 + 1.0);

        let cc_fac = if h_sigma {
            (self.cc * (2.0 - self.cc) * self.mu_eff).sqrt()
        } else {
            0.0
        };
        for (p, y) in self.path_c.iter_mut().zip(&y_w) {
            *p = (1.0 - self.cc) * *p + cc_fac * y;
        }

        let delta_h = if h_sigma {
            0.0
        } else {
            self.cc * (2.0 - self.cc)
        };
        let decay = 1.0 - self.c1 - self.cmu;
        for i in 0..self.dim {
            for j in 0..self.dim {
                let mut rank_mu = 0.0;
                for (w, &idx) in self.weights.iter().zip(&order) {
                    let yi = (points[idx][i] - old_mean[i]) / self.sigma;
                    let yj = (points[idx][j] - old_mean[j]) / self.sigma;
                    rank_mu += w * yi * yj;
                }
                self.cov[i][j] = decay * self.cov[i][j]
                    + self.c1 * (self.path_c[i] * self.path_c[j] + delta_h * self.cov[i][j])
                    + self.cmu * rank_mu;
            }
        }
        // Keep the covariance exactly symmetric against fp drift.
        for i in 0..self.dim {
            for j in (i + 1)..self.dim {
                let s = 0.5 * (self.cov[i][j] + self.cov[j][i]);
                self.cov[i][j] = s;
                self.cov[j][i] = s;
            }
        }

        self.sigma *= ((self.cs / self.damps) * (ps_norm / self.chi_n - 1.0)).exp();
        self.sigma = self.sigma.clamp(1e-8, 2.0);
        self.mean = new_mean;
        self.gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::needless_range_loop)] // column index over a 2×2 basis
    fn jacobi_recovers_known_eigensystem() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = vec![vec![2.0, 1.0], vec![1.0, 2.0]];
        let (basis, vals) = eigen_sym(&a);
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
        // Eigenvector columns are orthonormal.
        for j in 0..2 {
            let n: f64 = (0..2).map(|i| basis[i][j] * basis[i][j]).sum();
            assert!((n - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn converges_on_a_quadratic_bowl() {
        let target = [0.3, 0.7];
        let mut es = CmaEs::new(2, 7, 0.3, vec![0.5, 0.5]);
        let mut best = f64::INFINITY;
        for _ in 0..60 {
            let pts = es.ask();
            let vals: Vec<f64> = pts
                .iter()
                .map(|p| {
                    p.iter()
                        .zip(&target)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                })
                .collect();
            for v in &vals {
                best = best.min(*v);
            }
            es.tell(&pts, &vals);
        }
        assert!(best < 1e-6, "best quadratic value {best} did not converge");
    }

    #[test]
    fn identical_seeds_give_identical_streams() {
        let mut a = CmaEs::new(3, 42, 0.3, vec![0.5; 3]);
        let mut b = CmaEs::new(3, 42, 0.3, vec![0.5; 3]);
        for _ in 0..5 {
            let pa = a.ask();
            let pb = b.ask();
            assert_eq!(pa, pb);
            let va: Vec<f64> = pa.iter().map(|p| p.iter().sum()).collect();
            let vb: Vec<f64> = pb.iter().map(|p| p.iter().sum()).collect();
            a.tell(&pa, &va);
            b.tell(&pb, &vb);
        }
    }
}
