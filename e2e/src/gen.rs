//! The load generator's inputs: everything random comes from `--seed`.
//!
//! Each client draws from its own stream, derived from the seed and the
//! client's index, so a run's inputs do not depend on how threads interleave.

/// SplitMix64: small, fast, and good enough to pick keys.
pub struct Rng(u64);

impl Rng {
    /// The stream of client `client` under `--seed seed`.
    pub fn for_client(seed: u64, client: usize) -> Rng {
        let mut r = Rng(seed
            ^ (client as u64)
                .wrapping_add(1)
                .wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The multiply-shift bias is
    /// below 2^-40 for the object counts used here.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// How a workload picks its two objects.
#[derive(Clone)]
pub enum Keys {
    /// `a` and `b` independent and uniform over `n` objects (may coincide).
    Uniform(usize),
    /// Zipf over few objects with `a != b`: cumulative weights, rank 0 hottest.
    Zipf(Vec<f64>),
}

impl Keys {
    /// Zipf with exponent `theta` over `n` objects.
    pub fn zipf(n: usize, theta: f64) -> Keys {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
        let sum: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Keys::Zipf(
            weights
                .iter()
                .map(|w| {
                    acc += w / sum;
                    acc
                })
                .collect(),
        )
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        match self {
            Keys::Uniform(n) => rng.below(*n),
            Keys::Zipf(cdf) => {
                let u = rng.unit();
                cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
            }
        }
    }
}

/// One `N1` transaction, as the generator decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Object the child reads.
    pub a: usize,
    /// Object the child increments.
    pub b: usize,
    /// The first child aborts after its two accesses and a second child
    /// repeats them: the paper's partial-abort path, one transaction in 16.
    pub abort_first: bool,
}

impl Plan {
    /// Draw the next transaction of a client.
    #[inline]
    pub fn draw(keys: &Keys, rng: &mut Rng) -> Plan {
        let a = keys.draw(rng);
        let mut b = keys.draw(rng);
        if matches!(keys, Keys::Zipf(_)) {
            while b == a {
                b = keys.draw(rng);
            }
        }
        Plan {
            a,
            b,
            abort_first: rng.next_u64() & 15 == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plans_and_clients_differ() {
        let keys = Keys::Uniform(4096);
        let draw = |seed, client| {
            let mut rng = Rng::for_client(seed, client);
            (0..64)
                .map(|_| Plan::draw(&keys, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9, 0), draw(9, 0));
        assert_ne!(draw(9, 0), draw(9, 1));
        assert_ne!(draw(9, 0), draw(10, 0));
    }

    #[test]
    fn zipf_is_skewed_and_keeps_a_and_b_apart() {
        let keys = Keys::zipf(16, 0.99);
        let mut rng = Rng::for_client(3, 0);
        let mut hits = [0usize; 16];
        let mut aborts = 0;
        for _ in 0..160_000 {
            let p = Plan::draw(&keys, &mut rng);
            assert_ne!(p.a, p.b);
            hits[p.a] += 1;
            aborts += usize::from(p.abort_first);
        }
        assert!(hits[0] > 4 * hits[15], "rank 0 is the hot one: {hits:?}");
        assert!((9_000..11_000).contains(&aborts), "1 in 16: {aborts}");
    }
}
