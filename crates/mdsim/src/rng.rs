//! Deterministic random-number helpers.
//!
//! All stochastic components (initial velocities, Langevin noise, unfolded
//! conformation generation) draw from a seeded ChaCha8 stream so every
//! Copernicus command is exactly reproducible from `(seed, step)` — the
//! property that lets a worker resume another worker's checkpoint, as §2.3
//! of the paper requires.
//!
//! The generator is in-repo and std-only. Its stream is the one
//! `rand_chacha::ChaCha8Rng::seed_from_u64` defines (PCG32 seed expansion,
//! little-endian word stream, 53-bit floats), pinned by the known-answer
//! tests below: recorded seeds and checkpoints keep their meaning.

const ROUNDS: usize = 8;
const WORDS: usize = 16;

/// The engine's RNG: the ChaCha stream cipher at 8 rounds with a 64-bit
/// block counter and a zero stream id, read as a little-endian `u32` word
/// stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    key: [u32; 8],
    counter: u64,
    block: [u32; WORDS],
    /// Next unread word of `block`; `WORDS` means "refill first".
    index: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl SimRng {
    /// Key the cipher with 32 little-endian seed bytes.
    fn from_seed(seed: [u8; 32]) -> SimRng {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        SimRng {
            key,
            counter: 0,
            block: [0; WORDS],
            index: WORDS,
        }
    }

    /// Expand a `u64` into a full key with PCG32, so that seeds of low
    /// Hamming weight still give well-mixed key material.
    fn seed_from_u64(mut state: u64) -> SimRng {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let word = xorshifted.rotate_right((state >> 59) as u32);
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        SimRng::from_seed(seed)
    }

    fn refill(&mut self) {
        let mut input = [0u32; WORDS];
        // "expand 32-byte k"
        input[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        input[4..12].copy_from_slice(&self.key);
        input[12] = self.counter as u32;
        input[13] = (self.counter >> 32) as u32;
        let mut s = input;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (out, inp) in s.iter_mut().zip(input) {
            *out = out.wrapping_add(inp);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    fn next_u32(&mut self) -> u32 {
        if self.index == WORDS {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }

    /// Two consecutive words of the stream, low word first.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Unbiased draw in `[0, n)`: widening multiply, rejecting the low
    /// products that would over-represent some outputs.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from an empty range");
        let span = n as u64;
        let threshold = span.wrapping_neg() % span;
        loop {
            let product = u128::from(self.next_u64()) * u128::from(span);
            if product as u64 >= threshold {
                return (product >> 64) as usize;
            }
        }
    }
}

/// Create a deterministic RNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// Derive a stream-separated RNG for a substream (e.g. one trajectory of a
/// project): mixes `seed` and `stream` through SplitMix64 so nearby stream
/// ids give statistically independent sequences.
pub fn rng_for_stream(seed: u64, stream: u64) -> SimRng {
    SimRng::seed_from_u64(splitmix64(seed ^ splitmix64(stream)))
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
fn box_muller_point(rng: &mut SimRng) -> (f64, f64) {
    // Reject u1 == 0 so ln(u1) is finite.
    let mut u1 = rng.next_f64();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.next_f64();
    }
    ((-2.0 * u1.ln()).sqrt(), rng.next_f64())
}

/// Sample a standard normal deviate via the Box-Muller transform.
#[inline]
pub fn sample_normal(rng: &mut SimRng) -> f64 {
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
pub fn fill_normals(rng: &mut SimRng, out: &mut [f64]) {
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
pub fn sample_gaussian(rng: &mut SimRng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * sample_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_key_first_block_matches_chacha8_reference() {
        // ChaCha8, all-zero key and nonce, block 0 (Strombergson's
        // draft-strombergson-chacha-test-vectors TC1): 3e 00 ef 2f ...
        let mut rng = SimRng::from_seed([0; 32]);
        assert_eq!(rng.next_u32().to_le_bytes(), [0x3e, 0x00, 0xef, 0x2f]);
        assert_eq!(rng.next_u32().to_le_bytes(), [0x89, 0x5f, 0x40, 0xd6]);
    }

    /// The streams below were recorded from the build every benchmark
    /// number before this generator moved in-repo was taken with
    /// (`rand_chacha::ChaCha8Rng::seed_from_u64` semantics). A change
    /// here re-labels every recorded seed and checkpoint.
    #[test]
    fn streams_match_recorded_known_answers() {
        type Make = fn() -> SimRng;
        let cases: [(Make, [u64; 8], [u64; 8]); 2] = [
            (
                || rng_from_seed(7),
                [
                    0x2865533423d743bb,
                    0x2b0159d32e9b293a,
                    0xb44b70b945249531,
                    0xba0bb7b6093e3ae3,
                    0x99ec1c5f1237db88,
                    0x5bff4da3cf99fe26,
                    0x1543639f3df5b89b,
                    0xd96b0f63416f0a7e,
                ],
                [
                    0x3fc432a99a11eba0,
                    0x3fc580ace9974d94,
                    0x3fe6896e1728a492,
                    0x3fe74176f6c127c7,
                    0x3fe33d838be246fb,
                    0x3fd6ffd368f3e67e,
                    0x3fb543639f3df5b8,
                    0x3feb2d61ec682de1,
                ],
            ),
            (
                || rng_for_stream(7, 3),
                [
                    0x15166aeb71acc445,
                    0x2cc3a5837f5d4b62,
                    0x4b538fe1364b39c3,
                    0x949e3c632ee1df61,
                    0xbdbffeeeaa75c3ee,
                    0xf63241e4b54b5738,
                    0xd0a290ef7300975f,
                    0x69460bb7b58886f8,
                ],
                [
                    0x3fb5166aeb71acc0,
                    0x3fc661d2c1bfaea4,
                    0x3fd2d4e3f84d92ce,
                    0x3fe293c78c65dc3b,
                    0x3fe7b7ffddd54eb8,
                    0x3feec6483c96a96a,
                    0x3fea14521dee6012,
                    0x3fda5182eded6220,
                ],
            ),
        ];
        for (make, words, float_bits) in cases {
            let mut rng = make();
            assert_eq!(std::array::from_fn(|_| rng.next_u64()), words);
            let mut rng = make();
            assert_eq!(
                std::array::from_fn(|_| rng.next_f64().to_bits()),
                float_bits
            );
        }
        let mut rng = rng_from_seed(7);
        let drawn: [usize; 8] = std::array::from_fn(|_| rng.below(1000));
        assert_eq!(drawn, [157, 167, 704, 726, 601, 359, 83, 849]);
    }

    /// Same seed ⇒ bitwise the same MD trajectory as the recorded build:
    /// FNV-1a over every coordinate of 101 frames of a 1 000-step HP35
    /// Langevin run. (The noise path also goes through libm's `ln` and
    /// `sin_cos`; a platform whose libm rounds differently fails here
    /// with the word streams above still green.)
    #[test]
    fn hp35_langevin_trajectory_matches_recorded_hash() {
        let model = crate::VillinModel::hp35();
        let mut sim = model.simulation(model.unfolded_start(11), 300.0, 42);
        let trajectory = sim.run_recording(1000, 10);
        assert_eq!(trajectory.len(), 101);
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for p in trajectory.frames().iter().flatten() {
            for byte in [p.x, p.y, p.z].into_iter().flat_map(f64::to_le_bytes) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0x9aca_35fb_ad43_a7bb);
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = rng_from_seed(7);
        let mut b = rng_from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ() {
        let mut a = rng_for_stream(7, 0);
        let mut b = rng_for_stream(7, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
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
        assert_eq!(odd_rng.next_u64(), even_rng.next_u64());

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
