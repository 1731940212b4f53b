//! Deterministic randomness for reproducible experiments.
//!
//! Every stochastic component in the suite (occupant schedules, meter noise,
//! cloud fields, network jitter) draws from a [`rand_chacha::ChaCha8Rng`]
//! seeded through these helpers, so a whole experiment is a pure function of
//! its root seed.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A reproducible RNG type used across the workspace.
pub type SeededRng = ChaCha8Rng;

/// Creates a reproducible RNG from a root seed.
pub fn seeded_rng(seed: u64) -> SeededRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives an independent child seed from a root seed and a stream label.
///
/// Different labels give statistically independent streams, so subsystems
/// (e.g. "occupancy" vs "meter-noise") can be reseeded independently without
/// correlation. Uses the SplitMix64 finalizer, which is a bijection on
/// `u64`, so distinct `(seed, label)` pairs never collide by construction of
/// the pre-mix alone.
pub fn derive_seed(root: u64, label: &str) -> u64 {
    derive_seed_bytes(root, label.as_bytes())
}

/// [`derive_seed`] over a label given as bytes.
fn derive_seed_bytes(root: u64, label: &[u8]) -> u64 {
    // FNV-1a over the label, mixed into the root.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in label {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(root ^ h)
}

/// The seed of home `index` under `root`: bit-identical to
/// `derive_seed(root, &format!("home:{index}"))`, the per-home scheme of
/// the fleet engines, but the label is written into a stack buffer, so
/// deriving a seed per home per round allocates nothing.
pub fn home_seed(root: u64, index: usize) -> u64 {
    const PREFIX: &[u8] = b"home:";
    const DIGITS: usize = usize::MAX.ilog10() as usize + 1;
    let mut buf = [0u8; PREFIX.len() + DIGITS];
    // Decimal digits right-aligned at the end of the buffer, then the
    // prefix in front of the first one.
    let mut at = buf.len();
    let mut n = index;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    at -= PREFIX.len();
    buf[at..at + PREFIX.len()].copy_from_slice(PREFIX);
    derive_seed_bytes(root, &buf[at..])
}

/// Derives the seed for one `(round, item)` cell of a per-round training
/// schedule.
///
/// Adaptive attackers (`tournament::AdaptiveTuned`, `netsim`'s strong
/// fingerprinter) regenerate their training traces round by round; using this
/// shared helper guarantees that round `r`'s traces depend only on
/// `(seed, r, item)` — never on how many later rounds run — which is what
/// makes their per-round audit trails prefix-stable.
pub fn round_seed(root: u64, round: usize, item: usize) -> u64 {
    derive_seed(root, &format!("round:{round}:home:{item}"))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws one standard-normal sample using Box–Muller.
///
/// `rand_distr` is not in the sanctioned dependency set, so the suite uses
/// this small exact transform instead.
pub fn standard_normal(rng: &mut impl rand::Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue; // avoid ln(0)
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Draws a normal sample with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev` is negative or non-finite.
pub fn normal(rng: &mut impl rand::Rng, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "std_dev must be non-negative"
    );
    mean + std_dev * standard_normal(rng)
}

/// Draws a Laplace sample with the given location and scale, via inverse CDF.
/// Used by the differential-privacy mechanism.
///
/// # Panics
///
/// Panics if `scale` is not finite and positive.
pub fn laplace(rng: &mut impl rand::Rng, location: f64, scale: f64) -> f64 {
    assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
    let u: f64 = rng.gen::<f64>() - 0.5;
    location - scale * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln()
}

/// Draws an exponential sample with the given rate (events per unit time).
///
/// # Panics
///
/// Panics if `rate` is not finite and positive.
pub fn exponential(rng: &mut impl rand::Rng, rate: f64) -> f64 {
    assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(rand::Rng::gen::<u64>(&mut a), rand::Rng::gen::<u64>(&mut b));
        }
    }

    #[test]
    fn different_labels_different_seeds() {
        let s1 = derive_seed(7, "occupancy");
        let s2 = derive_seed(7, "meter-noise");
        let s3 = derive_seed(8, "occupancy");
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        // Deterministic.
        assert_eq!(s1, derive_seed(7, "occupancy"));
    }

    #[test]
    fn round_seed_matches_label_form() {
        // The helper is a thin wrapper over derive_seed; pinning the label
        // format keeps pre-existing per-round streams byte-identical.
        assert_eq!(round_seed(7, 2, 3), derive_seed(7, "round:2:home:3"));
        assert_ne!(round_seed(7, 2, 3), round_seed(7, 3, 2));
    }

    #[test]
    fn home_seed_matches_label_form() {
        for index in [0, 9, 10, 99, 100, 65_535, 1_000_000, usize::MAX] {
            for root in [0, 7, u64::MAX] {
                assert_eq!(
                    home_seed(root, index),
                    derive_seed(root, &format!("home:{index}")),
                    "root {root} index {index}"
                );
            }
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded_rng(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn laplace_moments() {
        let mut rng = seeded_rng(2);
        let n = 40_000;
        let scale = 3.0;
        let samples: Vec<f64> = (0..n).map(|_| laplace(&mut rng, 0.0, scale)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        // Laplace variance = 2 * scale^2 = 18.
        assert!((var - 18.0).abs() < 1.5, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = seeded_rng(3);
        let n = 40_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn laplace_rejects_zero_scale() {
        laplace(&mut seeded_rng(0), 0.0, 0.0);
    }
}
