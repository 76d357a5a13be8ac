//! Seeded input generators. Every query, key and schedule the workloads
//! send is a pure function of the `--seed` argument and the caller
//! index, so the same seed always produces the same request sequence.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed. Distinct `stream` values
    /// give unrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
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

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// A seeded Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`, sampled by
/// binary search over the cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One portal query and whether the schedule meant it to repeat a warmed
/// hot query (a hit) or to be seen for the first time (a miss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortalQuery {
    pub text: String,
    pub hot: bool,
}

/// The hot query set of a seed: short URL-safe strings that vary with
/// the seed, so different seeds exercise different corpus pages.
pub fn hot_queries(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x407);
    (0..count)
        .map(|i| format!("hot-{:x}-{i}", rng.next_u64() >> 40))
        .collect()
}

/// A query no other request of the run sends: `tag` separates callers
/// and the warm-up phase, `n` counts within one of them.
pub fn unique_query(seed: u64, tag: &str, n: u64) -> String {
    format!("u-{seed:x}-{tag}-{n}")
}

/// One caller's query sequence. The paper's deterministic accumulator
/// picks the outcome: request `i` repeats a hot query when
/// `floor((i + 1) * hit_ratio)` advances past `floor(i * hit_ratio)`,
/// and sends a query nobody has sent otherwise. Hot requests walk a
/// seeded permutation of the hot set round-robin, so every hot query
/// recurs after a bounded number of requests and stays resident in an
/// LRU cache sized above the hot set.
#[derive(Debug, Clone)]
pub struct PortalSchedule {
    seed: u64,
    tag: String,
    hit_ratio: f64,
    hot: Vec<String>,
    order: Vec<usize>,
    issued: u64,
    hot_issued: usize,
    unique_issued: u64,
}

impl PortalSchedule {
    pub fn new(seed: u64, caller: usize, hit_ratio: f64, hot: &[String]) -> PortalSchedule {
        PortalSchedule {
            seed,
            tag: format!("c{caller}"),
            hit_ratio,
            hot: hot.to_vec(),
            order: Rng::new(seed, 0x5c4ed + caller as u64).permutation(hot.len()),
            issued: 0,
            hot_issued: caller * hot.len() / 2,
            unique_issued: 0,
        }
    }
}

impl Iterator for PortalSchedule {
    type Item = PortalQuery;

    fn next(&mut self) -> Option<PortalQuery> {
        let i = self.issued as f64;
        self.issued += 1;
        let hot = ((i + 1.0) * self.hit_ratio) as u64 > (i * self.hit_ratio) as u64;
        let text = if hot {
            self.hot_issued += 1;
            self.hot[self.order[self.hot_issued % self.order.len()]].clone()
        } else {
            self.unique_issued += 1;
            unique_query(self.seed, &self.tag, self.unique_issued)
        };
        Some(PortalQuery { text, hot })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_portal_sequence() {
        let hot = hot_queries(7, 16);
        assert_eq!(hot, hot_queries(7, 16));
        assert_ne!(hot, hot_queries(8, 16));
        for ratio in [0.95, 0.5] {
            let a: Vec<_> = PortalSchedule::new(7, 1, ratio, &hot).take(500).collect();
            let b: Vec<_> = PortalSchedule::new(7, 1, ratio, &hot).take(500).collect();
            assert_eq!(a, b);
            let other: Vec<_> = PortalSchedule::new(9, 1, ratio, &hot_queries(9, 16))
                .take(500)
                .collect();
            assert_ne!(a, other);
        }
    }

    #[test]
    fn the_schedule_hits_the_ratio_exactly() {
        let hot = hot_queries(1, 8);
        for (ratio, hits) in [(0.5, 5_000), (0.95, 9_500)] {
            let n = PortalSchedule::new(1, 0, ratio, &hot)
                .take(10_000)
                .filter(|q| q.hot)
                .count();
            assert_eq!(n, hits);
        }
    }

    #[test]
    fn unique_queries_never_repeat_and_hot_ones_recur() {
        let hot = hot_queries(3, 8);
        let mut seen = std::collections::HashSet::new();
        for caller in 0..2 {
            for q in PortalSchedule::new(3, caller, 0.5, &hot).take(2_000) {
                if q.hot {
                    assert!(hot.contains(&q.text));
                } else {
                    assert!(seen.insert(q.text), "unique query repeated");
                }
            }
        }
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(1_000, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 1);
            (0..5_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let ranks = draw(5);
        let top = ranks.iter().filter(|&&r| r < 10).count();
        let tail = ranks.iter().filter(|&&r| (990..1_000).contains(&r)).count();
        assert!(top > 20 * tail.max(1), "top {top} tail {tail}");
        assert!(ranks.iter().all(|&r| r < 1_000));
    }
}
