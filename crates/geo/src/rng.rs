//! Seeded randomness and Gaussian sampling helpers.
//!
//! The reproduction must be deterministic end-to-end so that experiment runs
//! are comparable; every stochastic component takes an explicit [`Rng`] and
//! top-level harnesses derive per-user / per-trial RNGs from a master seed
//! with [`derive_seed`]. The allowed dependency set has no `rand_distr`, so
//! normal deviates are produced locally with the Marsaglia polar method.

use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Point;

/// Constructs a deterministic [`StdRng`] from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use privlocad_geo::rng::seeded;
/// use rand::Rng;
///
/// let a: u32 = seeded(9).gen();
/// let b: u32 = seeded(9).gen();
/// assert_eq!(a, b);
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a master seed and a stream index.
///
/// Uses the SplitMix64 finalizer so adjacent indices yield statistically
/// independent streams; used to give every synthetic user, Monte-Carlo
/// trial, and parallel worker its own reproducible RNG.
///
/// ```
/// use privlocad_geo::rng::derive_seed;
/// assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
/// assert_eq!(derive_seed(1, 7), derive_seed(1, 7));
/// ```
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a 64-bit offset basis: the state [`fnv1a64_extend`] starts from.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit hash over `bytes`, so a digest can be built
/// from several pieces without concatenating them first.
///
/// ```
/// use privlocad_geo::rng::{fnv1a64, fnv1a64_extend, FNV1A64_OFFSET};
/// let split = fnv1a64_extend(fnv1a64_extend(FNV1A64_OFFSET, b"ab"), b"c");
/// assert_eq!(split, fnv1a64(b"abc"));
/// ```
#[inline]
#[must_use]
pub fn fnv1a64_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a 64-bit hash: the workspace's one content digest (wire request
/// ids, exchange-log and checkpoint digests, bench output digests).
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// Draws one standard-normal deviate using the Marsaglia polar method.
///
/// The second deviate of each accepted pair is intentionally discarded to
/// keep the function stateless; mechanisms that need 2-D noise use
/// [`gaussian_2d`], which consumes the whole pair.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws a normal deviate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics in debug builds if `sigma` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    debug_assert!(sigma >= 0.0, "sigma must be non-negative");
    mean + sigma * standard_normal(rng)
}

/// Draws an isotropic 2-D Gaussian offset with per-axis deviation `sigma`.
///
/// Sampled in polar form — radius from the Rayleigh distribution, angle
/// uniform — exactly as Algorithm 3 of the paper prescribes for the n-fold
/// Gaussian mechanism. The resulting `x`/`y` components are i.i.d.
/// `N(0, sigma²)`.
///
/// ```
/// use privlocad_geo::rng::{gaussian_2d, seeded};
///
/// let mut rng = seeded(1);
/// let p = gaussian_2d(&mut rng, 100.0);
/// assert!(p.is_finite());
/// ```
pub fn gaussian_2d<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> Point {
    debug_assert!(sigma >= 0.0, "sigma must be non-negative");
    let theta = rng.gen::<f64>() * 2.0 * PI;
    let r = rayleigh(rng, sigma);
    Point::new(r * theta.cos(), r * theta.sin())
}

/// Draws from the Rayleigh distribution with scale `sigma`.
///
/// This is the radial law of an isotropic 2-D Gaussian: Equation 15 of the
/// paper gives the radial CDF `F_R(r) = 1 − exp(−r²/2σ²)`, inverted here as
/// `r = σ·sqrt(−2·ln(1 − s))` for uniform `s`.
pub fn rayleigh<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    let s: f64 = rng.gen();
    sigma * (-2.0 * (1.0 - s).ln()).sqrt()
}

/// Draws a uniform angle in `[0, 2π)`.
pub fn uniform_angle<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.gen::<f64>() * 2.0 * PI
}

/// Fills `out` with uniform variates in `[0, 1)`, one block of draws from a
/// single pass over the generator.
///
/// This is the batched counterpart of calling `rng.gen::<f64>()` once per
/// value: the `i`-th slot receives exactly the `i`-th draw of the stream, so
/// a block fill followed by a vectorized transform stays bit-for-bit
/// identical to the scalar draw-transform-draw loop it replaces. The win is
/// amortization — one tight fill loop the optimizer can keep in registers,
/// instead of interleaving generator stepping with downstream math at every
/// draw site.
///
/// ```
/// use privlocad_geo::rng::{fill_uniform, seeded};
/// use rand::Rng;
///
/// let mut block = [0.0_f64; 8];
/// fill_uniform(&mut seeded(3), &mut block);
/// let mut scalar = seeded(3);
/// for (i, &v) in block.iter().enumerate() {
///     assert_eq!(v, scalar.gen::<f64>(), "draw {i}");
/// }
/// ```
pub fn fill_uniform<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    for slot in out.iter_mut() {
        *slot = rng.gen();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn seeded_is_reproducible() {
        let a: Vec<u64> = (0..10).map(|_| seeded(5).gen()).collect();
        let b: Vec<u64> = (0..10).map(|_| seeded(5).gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn derive_seed_streams_differ() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(17);
        let xs: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = mean_and_var(&xs);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = seeded(23);
        let xs: Vec<f64> = (0..50_000).map(|_| normal(&mut rng, 10.0, 3.0)).collect();
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn gaussian_2d_components_match_sigma() {
        let mut rng = seeded(31);
        let sigma = 250.0;
        let pts: Vec<Point> = (0..50_000).map(|_| gaussian_2d(&mut rng, sigma)).collect();
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let (mx, vx) = mean_and_var(&xs);
        let (my, vy) = mean_and_var(&ys);
        assert!(mx.abs() < 5.0 && my.abs() < 5.0, "means {mx} {my}");
        assert!((vx.sqrt() - sigma).abs() < 5.0, "sd_x {}", vx.sqrt());
        assert!((vy.sqrt() - sigma).abs() < 5.0, "sd_y {}", vy.sqrt());
    }

    #[test]
    fn gaussian_2d_x_y_uncorrelated() {
        let mut rng = seeded(37);
        let pts: Vec<Point> = (0..50_000).map(|_| gaussian_2d(&mut rng, 1.0)).collect();
        let cov = pts.iter().map(|p| p.x * p.y).sum::<f64>() / pts.len() as f64;
        assert!(cov.abs() < 0.02, "cov {cov}");
    }

    #[test]
    fn rayleigh_median_matches_theory() {
        // Median of Rayleigh(σ) is σ·sqrt(2 ln 2).
        let mut rng = seeded(41);
        let sigma = 100.0;
        let mut xs: Vec<f64> = (0..50_001).map(|_| rayleigh(&mut rng, sigma)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        let expected = sigma * (2.0 * 2.0_f64.ln()).sqrt();
        assert!((median - expected).abs() < 3.0, "median {median} vs {expected}");
    }

    #[test]
    fn rayleigh_cdf_quantile_check() {
        // P(R <= σ) = 1 − e^{−1/2} ≈ 0.3935.
        let mut rng = seeded(43);
        let n = 50_000;
        let hits = (0..n).filter(|_| rayleigh(&mut rng, 50.0) <= 50.0).count() as f64;
        let frac = hits / n as f64;
        assert!((frac - 0.3935).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn fill_uniform_matches_per_call_draws() {
        let mut block = vec![0.0; 257];
        fill_uniform(&mut seeded(91), &mut block);
        let mut scalar = seeded(91);
        for (i, &v) in block.iter().enumerate() {
            assert_eq!(v, scalar.gen::<f64>(), "draw {i} diverged");
        }
        assert!(block.iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn fill_uniform_advances_the_stream() {
        // Two consecutive fills must consume disjoint stretches of the
        // stream, exactly like two stretches of scalar draws.
        let mut rng = seeded(92);
        let mut first = [0.0; 16];
        let mut second = [0.0; 16];
        fill_uniform(&mut rng, &mut first);
        fill_uniform(&mut rng, &mut second);
        let mut scalar = seeded(92);
        let expected: Vec<f64> = (0..32).map(|_| scalar.gen::<f64>()).collect();
        assert_eq!(&first[..], &expected[..16]);
        assert_eq!(&second[..], &expected[16..]);
    }

    #[test]
    fn fill_uniform_empty_slice_is_a_no_op() {
        let mut rng = seeded(93);
        fill_uniform(&mut rng, &mut []);
        let next: f64 = rng.gen();
        assert_eq!(next, seeded(93).gen::<f64>());
    }

    #[test]
    fn uniform_angle_in_range() {
        let mut rng = seeded(47);
        for _ in 0..1000 {
            let a = uniform_angle(&mut rng);
            assert!((0.0..2.0 * PI).contains(&a));
        }
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
