//! Deterministic random-number helpers.
//!
//! All stochastic components (initial velocities, Langevin noise, unfolded
//! conformation generation) draw from a seeded ChaCha8 stream so every
//! Copernicus command is exactly reproducible from `(seed, step)` — the
//! property that lets a worker resume another worker's checkpoint, as §2.3
//! of the paper requires.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The engine's RNG type.
pub type SimRng = ChaCha8Rng;

/// Create a deterministic RNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> SimRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derive a stream-separated RNG for a substream (e.g. one trajectory of a
/// project): mixes `seed` and `stream` through SplitMix64 so nearby stream
/// ids give statistically independent sequences.
pub fn rng_for_stream(seed: u64, stream: u64) -> SimRng {
    ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(stream)))
}

/// SplitMix64 finalizer — a cheap, well-mixed 64-bit hash.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One Box-Muller point as `(r, u)`: radius `r = √(-2 ln u1)` and angle
/// `2πu`, so that `(r cos 2πu, r sin 2πu)` are two independent standard
/// normals.
#[inline]
fn box_muller_point<R: Rng>(rng: &mut R) -> (f64, f64) {
    // Reject u1 == 0 so ln(u1) is finite.
    let mut u1: f64 = rng.random();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.random();
    }
    ((-2.0 * u1.ln()).sqrt(), rng.random())
}

/// Sample a standard normal deviate via the Box-Muller transform.
#[inline]
pub fn sample_normal<R: Rng>(rng: &mut R) -> f64 {
    let (r, u) = box_muller_point(rng);
    r * (std::f64::consts::TAU * u).cos()
}

/// `(cos 2πu, sin 2πu)` for `u` in `[0, 1)`. The angle is split into a
/// whole number of quarter turns, applied as an exact rotation, and a
/// remainder in `[-π/4, π/4]`, where libm needs no range reduction: handed
/// an angle uniform over the full turn, its reduction branches mispredict
/// and the pair of calls costs about twice as much.
#[inline]
fn cos_sin_turn(u: f64) -> (f64, f64) {
    const QUARTER_TURNS: [(f64, f64); 4] = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)];
    let t = 4.0 * u;
    let q = t.round();
    let (sin, cos) = ((t - q) * std::f64::consts::FRAC_PI_2).sin_cos();
    let (cos_q, sin_q) = QUARTER_TURNS[q as usize & 3];
    (cos * cos_q - sin * sin_q, sin * cos_q + cos * sin_q)
}

/// Fill `out` with independent standard normals, keeping both outputs of
/// every Box-Muller point (half the uniforms and logarithms per deviate of
/// [`sample_normal`]). An odd-length `out` discards the last point's sine
/// half, so the stream position after the call depends only on
/// `out.len()` — nothing is carried to the next call.
pub fn fill_normals<R: Rng>(rng: &mut R, out: &mut [f64]) {
    let mut pairs = out.chunks_exact_mut(2);
    for pair in &mut pairs {
        let (r, u) = box_muller_point(rng);
        let (cos, sin) = cos_sin_turn(u);
        pair[0] = r * cos;
        pair[1] = r * sin;
    }
    if let [last] = pairs.into_remainder() {
        *last = sample_normal(rng);
    }
}

/// Sample a normal deviate with the given mean and standard deviation.
#[inline]
pub fn sample_gaussian<R: Rng>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * sample_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = rng_from_seed(7);
        let mut b = rng_from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn streams_differ() {
        let mut a = rng_for_stream(7, 0);
        let mut b = rng_for_stream(7, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn normal_moments() {
        let mut rng = rng_from_seed(123);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    /// Mean of the products of paired values, each pair taken once.
    fn mean_product(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
        let (sum, n) = pairs.fold((0.0, 0u64), |(s, n), (a, b)| (s + a * b, n + 1));
        sum / n as f64
    }

    #[test]
    fn fill_normals_moments() {
        // The Langevin shape: one call per step, 3N deviates per call, with
        // N odd (HP35: 105, the last point's sine half dropped) and even.
        for per_call in [105usize, 106] {
            let mut rng = rng_from_seed(0xb0c5 + per_call as u64);
            let mut xs = vec![0.0; per_call * 9_600];
            for call in xs.chunks_exact_mut(per_call) {
                fill_normals(&mut rng, call);
            }
            let n = xs.len() as f64;
            assert!(n >= 1e6);
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            let kurtosis = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
            // Standard errors at n = 10⁶: 0.001, 0.0014, 0.005, 0.001.
            assert!(mean.abs() < 0.005, "{per_call}: mean = {mean}");
            assert!((var - 1.0).abs() < 0.007, "{per_call}: var = {var}");
            assert!(
                (kurtosis - 3.0).abs() < 0.025,
                "{per_call}: kurtosis = {kurtosis}"
            );
            let lag1 = mean_product(xs.windows(2).map(|w| (w[0], w[1])));
            assert!(lag1.abs() < 0.005, "{per_call}: lag-1 correlation = {lag1}");

            // The cosine and sine halves of one point share a radius and
            // an angle: they must still be uncorrelated, and so must their
            // squares (var of z² is 2).
            let halves = || {
                xs.chunks_exact(per_call)
                    .flat_map(|call| call.chunks_exact(2).map(|p| (p[0], p[1])))
            };
            let within = mean_product(halves());
            let squares = mean_product(halves().map(|(c, s)| (c * c - 1.0, s * s - 1.0))) / 2.0;
            assert!(
                within.abs() < 0.007,
                "{per_call}: cos/sin correlation = {within}"
            );
            assert!(
                squares.abs() < 0.007,
                "{per_call}: cos²/sin² correlation = {squares}"
            );
        }
    }

    #[test]
    fn fill_normals_carries_nothing_between_calls() {
        // An odd fill draws the same points as the next even one and drops
        // the spare, so both leave the stream at the same position.
        let mut odd_rng = rng_from_seed(77);
        let mut even_rng = rng_from_seed(77);
        let mut odd = [0.0; 105];
        let mut even = [0.0; 106];
        fill_normals(&mut odd_rng, &mut odd);
        fill_normals(&mut even_rng, &mut even);
        assert_eq!(odd[..104], even[..104]);
        assert!((odd[104] - even[104]).abs() < 1e-14);
        assert_eq!(odd_rng.random::<u64>(), even_rng.random::<u64>());

        // The same deviates whatever the buffer held before.
        let mut again = [f64::NAN; 105];
        fill_normals(&mut rng_from_seed(77), &mut again);
        assert_eq!(odd, again);
    }

    #[test]
    fn gaussian_shifts_and_scales() {
        let mut rng = rng_from_seed(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| sample_gaussian(&mut rng, 3.0, 2.0))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn splitmix_avalanche() {
        // Adjacent inputs produce very different outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10);
    }
}
