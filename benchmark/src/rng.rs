//! Seeded input generation: everything a workload feeds the system is a
//! function of `--seed`, so the same seed replays the same inputs.

/// SplitMix64: the stream every other generator here is seeded from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one purpose (`keys`, `arrivals`, …), so adding
    /// a consumer does not shift the values another consumer sees.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Self(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The blob published under key number `index`: a keyed PRG of the key, so a
/// client can check any answer without holding a copy of the database.
pub fn blob_for(seed: u64, index: u64, out: &mut [u8]) {
    let mut r = Rng(seed ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0x626c_6f62);
    for chunk in out.chunks_mut(8) {
        let w = r.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    // The all-zero blob means "absent"; a published blob never is.
    out[0] |= 1;
}

/// Zipf(s = 1.0) over `0..n` by inverse CDF, with ranks mapped to items by a
/// seeded permutation so the hot items differ from seed to seed.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0 && n <= u32::MAX as usize);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut r = Rng::stream(seed, "zipf-perm");
        for i in (1..n).rev() {
            perm.swap(i, r.below(i as u64 + 1) as usize);
        }
        Self { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank] as usize
    }
}

/// Intended send times (ns from the window start) of a Poisson process of
/// `rate_per_s` over `window_ns`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, window_ns: u64) -> Vec<u64> {
    let mut r = Rng::stream(seed, "arrivals");
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * window_ns as f64 / 1e9) as usize + 16);
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - r.next_f64()).ln() / rate_per_s * 1e9;
        if t >= window_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}
