//! Typed design spaces: the domain a search runs over.
//!
//! A [`DesignSpace`] is an ordered list of [`Dim`]s — continuous (optionally
//! snapped to a physical grid such as half-degree material grades), integer,
//! or categorical. The optimizer works internally in the unit cube `[0,1]^d`;
//! every point handed to an objective is first mapped back to real
//! coordinates and *snapped*, so the objective only ever sees realizable
//! designs and identical designs are bit-identical (which is what makes the
//! byte-keyed evaluation memo sound).

/// One dimension of a design space.
#[derive(Debug, Clone, PartialEq)]
pub enum Dim {
    /// Box-bounded continuous variable. When `step > 0.0`, values snap to
    /// the lattice `lo + k*step` (clamped to `[lo, hi]`); with `step == 0.0`
    /// the dimension is truly continuous. Prefer binary-representable steps
    /// (0.5, 0.25, ...) so snapping is exact in floating point.
    Continuous {
        name: &'static str,
        lo: f64,
        hi: f64,
        step: f64,
    },
    /// Bounded integer variable, inclusive on both ends.
    Integer {
        name: &'static str,
        lo: i64,
        hi: i64,
    },
    /// Unordered choice among `choices` alternatives, encoded `0..choices`.
    Categorical { name: &'static str, choices: usize },
}

impl Dim {
    /// Display name of the dimension.
    pub fn name(&self) -> &'static str {
        match *self {
            Dim::Continuous { name, .. }
            | Dim::Integer { name, .. }
            | Dim::Categorical { name, .. } => name,
        }
    }

    /// Clamp and snap a raw coordinate onto the realizable set.
    pub fn snap(&self, x: f64) -> f64 {
        match *self {
            Dim::Continuous { lo, hi, step, .. } => {
                let x = x.clamp(lo, hi);
                if step > 0.0 {
                    let kmax = ((hi - lo) / step + 1e-9).floor();
                    let k = ((x - lo) / step).round().clamp(0.0, kmax);
                    (lo + k * step).min(hi)
                } else {
                    x
                }
            }
            Dim::Integer { lo, hi, .. } => x.round().clamp(lo as f64, hi as f64),
            Dim::Categorical { choices, .. } => x.round().clamp(0.0, (choices - 1) as f64),
        }
    }

    /// Map a unit-cube coordinate `u ∈ [0,1]` to a snapped real coordinate.
    pub fn from_unit(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match *self {
            Dim::Continuous { lo, hi, .. } => self.snap(lo + u * (hi - lo)),
            Dim::Integer { lo, hi, .. } => self.snap(lo as f64 + u * (hi - lo) as f64),
            Dim::Categorical { choices, .. } => {
                ((u * choices as f64).floor()).min((choices - 1) as f64)
            }
        }
    }

    /// Map a snapped real coordinate back into the unit cube.
    pub fn unit_of(&self, x: f64) -> f64 {
        fn box_unit(x: f64, lo: f64, hi: f64) -> f64 {
            if hi > lo {
                ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
            } else {
                0.5
            }
        }
        match *self {
            Dim::Continuous { lo, hi, .. } => box_unit(x, lo, hi),
            Dim::Integer { lo, hi, .. } => box_unit(x, lo as f64, hi as f64),
            Dim::Categorical { choices, .. } => {
                if choices > 1 {
                    ((x + 0.5) / choices as f64).clamp(0.0, 1.0)
                } else {
                    0.5
                }
            }
        }
    }

    /// Realizable values adjacent to `x` on this dimension's lattice.
    /// Continuous dims without a step have no lattice and return nothing;
    /// categorical dims return every other choice.
    fn lattice_neighbors(&self, x: f64) -> Vec<f64> {
        match *self {
            Dim::Continuous { step, .. } => {
                if step > 0.0 {
                    vec![self.snap(x - step), self.snap(x + step)]
                } else {
                    Vec::new()
                }
            }
            Dim::Integer { .. } => vec![self.snap(x - 1.0), self.snap(x + 1.0)],
            Dim::Categorical { choices, .. } => {
                (0..choices).map(|c| c as f64).filter(|&c| c != x).collect()
            }
        }
    }
}

/// An ordered collection of [`Dim`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    dims: Vec<Dim>,
}

impl DesignSpace {
    /// Build a space from its dimensions. Panics on empty or degenerate
    /// (inverted-bound, zero-choice) dimensions.
    pub fn new(dims: Vec<Dim>) -> Self {
        assert!(
            !dims.is_empty(),
            "design space needs at least one dimension"
        );
        for d in &dims {
            match *d {
                Dim::Continuous { lo, hi, step, .. } => {
                    assert!(
                        lo.is_finite() && hi.is_finite() && hi >= lo,
                        "bad bounds on {}",
                        d.name()
                    );
                    assert!(step >= 0.0 && step.is_finite(), "bad step on {}", d.name());
                }
                Dim::Integer { lo, hi, .. } => assert!(hi >= lo, "bad bounds on {}", d.name()),
                Dim::Categorical { choices, .. } => {
                    assert!(choices >= 1, "empty categorical {}", d.name())
                }
            }
        }
        DesignSpace { dims }
    }

    /// The dimensions, in order.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Clamp and snap a full point onto the realizable set.
    pub fn snap(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dims.len(), "point/space dimension mismatch");
        self.dims.iter().zip(x).map(|(d, &v)| d.snap(v)).collect()
    }

    /// Byte key of a snapped point: little-endian IEEE-754 bits per
    /// coordinate. Two points compare equal iff they are bit-identical,
    /// which snapping guarantees for logically-equal designs.
    pub fn key(&self, x: &[f64]) -> Vec<u8> {
        let mut k = Vec::with_capacity(x.len() * 8);
        for v in x {
            k.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        k
    }

    /// Map a unit-cube point to a snapped real point.
    pub fn from_unit(&self, u: &[f64]) -> Vec<f64> {
        assert_eq!(u.len(), self.dims.len(), "point/space dimension mismatch");
        self.dims
            .iter()
            .zip(u)
            .map(|(d, &v)| d.from_unit(v))
            .collect()
    }

    /// Map a snapped real point into the unit cube (for surrogate distances
    /// and CMA-ES bookkeeping).
    pub fn unit_of(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dims.len(), "point/space dimension mismatch");
        self.dims
            .iter()
            .zip(x)
            .map(|(d, &v)| d.unit_of(v))
            .collect()
    }

    /// All realizable single-dimension moves away from `x`, deduplicated
    /// and excluding `x` itself. Used by the grid-polish phase to certify
    /// lattice-local optimality.
    pub fn neighbors(&self, x: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(x.len(), self.dims.len(), "point/space dimension mismatch");
        let here = self.key(x);
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(here);
        let mut out = Vec::new();
        for (i, d) in self.dims.iter().enumerate() {
            for v in d.lattice_neighbors(x[i]) {
                let mut n = x.to_vec();
                n[i] = v;
                let n = self.snap(&n);
                if seen.insert(self.key(&n)) {
                    out.push(n);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn melt_dim() -> Dim {
        Dim::Continuous {
            name: "melt_c",
            lo: 30.0,
            hi: 68.0,
            step: 0.5,
        }
    }

    #[test]
    fn snapping_is_idempotent_and_bit_exact() {
        let d = melt_dim();
        for k in 0..=76 {
            let v = 30.0 + k as f64 * 0.5;
            assert_eq!(d.snap(v).to_bits(), v.to_bits());
            assert_eq!(d.snap(d.snap(v + 0.2)).to_bits(), d.snap(v + 0.2).to_bits());
        }
        assert_eq!(d.snap(29.0), 30.0);
        assert_eq!(d.snap(70.0), 68.0);
        assert_eq!(d.snap(30.26), 30.5);
    }

    #[test]
    fn snapped_grid_matches_accumulated_grid_bitwise() {
        // `default_melting_candidates` in dcsim accumulates `c += 0.5`; the
        // snap lattice must reproduce those exact bit patterns so a search
        // optimum compares bitwise with the grid sweep's pick.
        let d = melt_dim();
        let mut c = 30.0f64;
        while c <= 68.0 {
            assert_eq!(d.snap(c).to_bits(), c.to_bits());
            c += 0.5;
        }
    }

    #[test]
    fn unit_round_trip() {
        let space = DesignSpace::new(vec![
            melt_dim(),
            Dim::Integer {
                name: "phase",
                lo: -6,
                hi: 6,
            },
            Dim::Categorical {
                name: "class",
                choices: 3,
            },
        ]);
        let x = space.snap(&[41.7, 2.2, 1.0]);
        assert_eq!(x, vec![41.5, 2.0, 1.0]);
        let u = space.unit_of(&x);
        let back = space.from_unit(&u);
        assert_eq!(space.key(&back), space.key(&x));
    }

    #[test]
    fn neighbors_stay_in_bounds_and_exclude_self() {
        let space = DesignSpace::new(vec![
            melt_dim(),
            Dim::Categorical {
                name: "class",
                choices: 3,
            },
        ]);
        let x = space.snap(&[30.0, 0.0]);
        let ns = space.neighbors(&x);
        // At the lower bound only one melt neighbor exists, plus 2 classes.
        assert_eq!(ns.len(), 3);
        for n in &ns {
            assert_ne!(space.key(n), space.key(&x));
            assert_eq!(space.key(&space.snap(n)), space.key(n));
        }
    }
}
