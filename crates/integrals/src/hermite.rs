//! Hermite Gaussian expansion coefficients (McMurchie–Davidson `E_t^{ij}`).
//!
//! For a 1-D product of two primitive cartesian Gaussians with powers `i`
//! (at A, exponent a) and `j` (at B, exponent b),
//!
//! ```text
//! x_A^i x_B^j exp(-a x_A^2) exp(-b x_B^2)
//!     = sum_t E_t^{ij} Lambda_t(x_P; p)
//! ```
//!
//! where `Lambda_t` are Hermite Gaussians at the product center P with
//! exponent `p = a + b`. The `E` coefficients obey two-term transfer
//! recurrences in `i` and `j`; `E_0^{00}` carries the Gaussian-product
//! prefactor `exp(-mu X_AB^2)`, `mu = a b / p`.

/// Table of `E_t^{ij}` for one direction: `0 <= i <= imax`,
/// `0 <= j <= jmax`, `0 <= t <= i + j`.
#[derive(Clone, Debug)]
pub struct ETable {
    imax: usize,
    jmax: usize,
    /// Flat storage `[i][j][t]` with strides `(jmax+1)*(tdim)`, `tdim`.
    data: Vec<f64>,
    tdim: usize,
}

impl ETable {
    /// Build the full table for a primitive pair in one direction.
    ///
    /// * `a`, `b` — exponents; `xa`, `xb` — center coordinates.
    pub fn build(imax: usize, jmax: usize, a: f64, b: f64, xa: f64, xb: f64) -> ETable {
        let p = a + b;
        let mu = a * b / p;
        let xab = xa - xb;
        let xp = (a * xa + b * xb) / p;
        let xpa = xp - xa;
        let xpb = xp - xb;
        let one_over_2p = 0.5 / p;
        let tdim = imax + jmax + 1;
        let mut tab = ETable { imax, jmax, data: vec![0.0; (imax + 1) * (jmax + 1) * tdim], tdim };

        tab.set(0, 0, 0, (-mu * xab * xab).exp());
        // Raise i: E_t^{i+1,0} from E^{i,0}.
        for i in 0..imax {
            for t in 0..=(i + 1) {
                let mut v = xpa * tab.get(i, 0, t);
                if t > 0 {
                    v += one_over_2p * tab.get(i, 0, t - 1);
                }
                v += (t + 1) as f64 * tab.get(i, 0, t + 1);
                tab.set(i + 1, 0, t, v);
            }
        }
        // Raise j: E_t^{i,j+1} from E^{i,j}, for every i.
        for i in 0..=imax {
            for j in 0..jmax {
                for t in 0..=(i + j + 1) {
                    let mut v = xpb * tab.get(i, j, t);
                    if t > 0 {
                        v += one_over_2p * tab.get(i, j, t - 1);
                    }
                    v += (t + 1) as f64 * tab.get(i, j, t + 1);
                    tab.set(i, j + 1, t, v);
                }
            }
        }
        tab
    }

    /// Heap bytes held by the table (for memory accounting of persistent
    /// pair data).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// `E_t^{ij}`; zero outside `0 <= t <= i + j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, t: usize) -> f64 {
        debug_assert!(i <= self.imax && j <= self.jmax);
        if t > i + j {
            return 0.0;
        }
        self.data[(i * (self.jmax + 1) + j) * self.tdim + t]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, t: usize, v: f64) {
        self.data[(i * (self.jmax + 1) + j) * self.tdim + t] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI: f64 = std::f64::consts::PI;

    #[test]
    fn e000_is_gaussian_product_prefactor() {
        let (a, b, xa, xb) = (0.9, 1.3, 0.2, -0.5);
        let tab = ETable::build(2, 2, a, b, xa, xb);
        let mu = a * b / (a + b);
        let want = (-mu * (xa - xb) * (xa - xb)).exp();
        assert!((tab.get(0, 0, 0) - want).abs() < 1e-15);
    }

    #[test]
    fn overlap_via_e0_matches_analytic_s_s() {
        // <s_a | s_b> (unnormalized) = (pi/p)^(1/2) * E_0^{00} in 1D.
        let (a, b, xa, xb) = (0.7, 0.4, 0.0, 1.1);
        let tab = ETable::build(0, 0, a, b, xa, xb);
        let p = a + b;
        let s = (PI / p).sqrt() * tab.get(0, 0, 0);
        let mu = a * b / p;
        let want = (PI / p).sqrt() * (-mu * (xa - xb) * (xa - xb)).exp();
        assert!((s - want).abs() < 1e-14);
    }

    /// 1-D numerical overlap of x_A^i x_B^j gaussian product, by quadrature.
    fn numeric_overlap_1d(i: usize, j: usize, a: f64, b: f64, xa: f64, xb: f64) -> f64 {
        let n = 400_000;
        let lo = -12.0;
        let hi = 12.0;
        let h = (hi - lo) / n as f64;
        let mut s = 0.0;
        for k in 0..=n {
            let x = lo + k as f64 * h;
            let f = (x - xa).powi(i as i32)
                * (x - xb).powi(j as i32)
                * (-a * (x - xa) * (x - xa)).exp()
                * (-b * (x - xb) * (x - xb)).exp();
            s += f * if k == 0 || k == n { 0.5 } else { 1.0 };
        }
        s * h
    }

    #[test]
    fn e0_reproduces_numeric_overlaps_up_to_d() {
        let (a, b, xa, xb) = (0.8, 0.5, 0.3, -0.4);
        let tab = ETable::build(2, 2, a, b, xa, xb);
        let p = a + b;
        for i in 0..=2 {
            for j in 0..=2 {
                let analytic = (PI / p).sqrt() * tab.get(i, j, 0);
                let numeric = numeric_overlap_1d(i, j, a, b, xa, xb);
                assert!(
                    (analytic - numeric).abs() < 1e-8,
                    "overlap({i},{j}): {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_t_is_zero() {
        let tab = ETable::build(1, 1, 1.0, 1.0, 0.0, 0.0);
        assert_eq!(tab.get(1, 1, 3), 0.0);
        assert_eq!(tab.get(0, 0, 1), 0.0);
    }

    #[test]
    fn same_center_odd_moments_vanish() {
        // With A = B the product is a single even Gaussian; E_0^{10} = 0
        // because <x> over an even Gaussian vanishes.
        let tab = ETable::build(1, 1, 0.6, 0.9, 0.25, 0.25);
        assert!(tab.get(1, 0, 0).abs() < 1e-16);
        assert!(tab.get(0, 1, 0).abs() < 1e-16);
    }
}
