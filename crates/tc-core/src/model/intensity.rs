//! Intensity functions `F_c`, `F_m` and the λ trade-off parameter.
//!
//! Following Section 5.3 of the paper (Equation 22):
//!
//! - computing intensity `F_c(d̃) = √(1/d̃)` — short lists spend their time
//!   in per-search fixed work, so compute demand falls with length;
//! - memory intensity `F_m(d̃) = √(BW(d̃))` — `BW` is the *measured*
//!   achieved shared-memory bandwidth at list length `d̃` (Figure 8);
//! - λ converts compute units into memory units; the paper fits it from
//!   the balance-point experiment (`m = λ · p_c · c`, Figure 9).

/// Piecewise-linear (in `log₂ d`) interpolation of the measured bandwidth
/// curve `BW(d)`.
#[derive(Clone, Debug, PartialEq)]
pub struct BwCurve {
    /// `(list_len, bandwidth)` points, ascending in length, from profiling.
    points: Vec<(usize, f64)>,
}

impl BwCurve {
    /// Builds from measured `(length, bandwidth)` points.
    ///
    /// # Panics
    /// Panics if fewer than two points are given or lengths are not
    /// strictly ascending.
    pub fn new(points: Vec<(usize, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two profile points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "profile lengths must be ascending");
        }
        Self { points }
    }

    /// A synthetic saturating curve `BW(d) = peak · d / (d + d_half)`,
    /// used when no profiling pass has run. Shape matches Figure 8:
    /// rising steeply for short lists, saturating for long ones.
    pub fn analytic(peak: f64, d_half: f64) -> Self {
        let points = (0..=14)
            .map(|s| {
                let d = 1usize << s;
                (d, peak * d as f64 / (d as f64 + d_half))
            })
            .collect();
        Self::new(points)
    }

    /// Interpolated bandwidth at list length `d` (clamped to the measured
    /// range).
    pub fn eval(&self, d: usize) -> f64 {
        let d = d.max(1);
        let first = self.points[0];
        let last = *self.points.last().expect("non-empty");
        if d <= first.0 {
            return first.1;
        }
        if d >= last.0 {
            return last.1;
        }
        let idx = self.points.partition_point(|&(len, _)| len <= d);
        let (x0, y0) = self.points[idx - 1];
        let (x1, y1) = self.points[idx];
        let t =
            ((d as f64).log2() - (x0 as f64).log2()) / ((x1 as f64).log2() - (x0 as f64).log2());
        y0 + t * (y1 - y0)
    }

    /// The measured points.
    pub fn points(&self) -> &[(usize, f64)] {
        &self.points
    }
}

/// Everything A-order needs: the intensity functions and λ.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelParams {
    /// Compute-to-memory conversion factor (the paper measured 9.682 on
    /// its Titan Xp; ours comes from [`crate::model::calibrate`]).
    pub lambda: f64,
    /// Measured (or analytic fallback) bandwidth curve.
    pub bw_curve: BwCurve,
}

impl ModelParams {
    /// Computing intensity `F_c(d̃) = √(1/d̃)` (Equation 22). `d = 0` is
    /// treated as 1 (an empty list still pays its fixed overhead).
    pub fn f_c(&self, d: usize) -> f64 {
        (1.0 / d.max(1) as f64).sqrt()
    }

    /// Memory intensity `F_m(d̃) = √(BW(d̃))` (Equation 22).
    pub fn f_m(&self, d: usize) -> f64 {
        self.bw_curve.eval(d).sqrt()
    }

    /// The paper's *memory superiority* `F_m(d̃) − λ·F_c(d̃)` (Algorithm 2,
    /// line 8): positive for memory-dominated vertices.
    pub fn memory_superiority(&self, d: usize) -> f64 {
        self.f_m(d) - self.lambda * self.f_c(d)
    }

    /// [`ModelParams::memory_superiority`] of every degree `0..=max_d`,
    /// indexed by degree. A-order looks each item up here instead of
    /// evaluating the model (3 `log2`, 2 `sqrt` and a search) per item.
    pub(crate) fn memory_superiority_table(&self, max_d: usize) -> Vec<f64> {
        (0..=max_d).map(|d| self.memory_superiority(d)).collect()
    }

    /// Whether a vertex of out-degree `d` is memory-dominated.
    pub fn is_memory_dominated(&self, d: usize) -> bool {
        self.memory_superiority(d) > 0.0
    }

    /// Uncalibrated fallback parameters with the Figure 8 shape. Fine for
    /// unit tests and quick starts; experiments calibrate against the
    /// simulator instead.
    pub fn default_analytic() -> Self {
        Self {
            lambda: 2.0,
            bw_curve: BwCurve::analytic(32.0, 64.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_interpolates_monotonically() {
        let c = BwCurve::analytic(32.0, 64.0);
        let mut prev = 0.0;
        for s in 0..=14 {
            let v = c.eval(1 << s);
            assert!(v >= prev, "BW must be non-decreasing");
            prev = v;
        }
    }

    #[test]
    fn curve_clamps_outside_range() {
        let c = BwCurve::new(vec![(2, 1.0), (1024, 10.0)]);
        assert_eq!(c.eval(1), 1.0);
        assert_eq!(c.eval(1 << 20), 10.0);
    }

    #[test]
    fn curve_hits_its_knots() {
        let c = BwCurve::new(vec![(2, 1.0), (8, 3.0), (32, 5.0)]);
        assert!((c.eval(8) - 3.0).abs() < 1e-12);
        // Log-midpoint of 8 and 32 is 16.
        assert!((c.eval(16) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_points_rejected() {
        let _ = BwCurve::new(vec![(8, 1.0), (2, 2.0)]);
    }

    #[test]
    fn f_c_decreases_f_m_increases() {
        let p = ModelParams::default_analytic();
        assert!(p.f_c(1) > p.f_c(100));
        assert!(p.f_m(1) < p.f_m(1000));
        assert_eq!(p.f_c(0), p.f_c(1), "degree 0 treated as 1");
    }

    #[test]
    fn long_lists_are_memory_dominated_short_are_not() {
        let p = ModelParams::default_analytic();
        assert!(p.is_memory_dominated(4096));
        assert!(!p.is_memory_dominated(1));
    }

    #[test]
    fn superiority_is_monotone_in_degree() {
        let p = ModelParams::default_analytic();
        let mut prev = f64::NEG_INFINITY;
        for s in 0..=13 {
            let v = p.memory_superiority(1 << s);
            assert!(v >= prev, "memory superiority must grow with degree");
            prev = v;
        }
    }
}
