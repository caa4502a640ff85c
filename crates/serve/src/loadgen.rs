//! Deterministic closed-loop load generator for the planning service.
//!
//! Four synthetic tenants share one [`Server`]. Each tenant draws targets
//! from the same catalog of (model, topology) configurations but
//! ranks them by its own seeded permutation, and ranks are sampled from a
//! zipfian popularity law — a few configurations dominate, a long tail
//! recurs rarely, which is exactly the regime a plan cache amortizes.
//! Closed loop means one outstanding request: a tenant's next request is
//! issued only after the previous response, so the simulated service clock
//! advances request by request and the whole run is byte-deterministic for
//! a given seed.

use mobius_ckpt::fnv64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::server::{ServeConfig, ServeError, Server};
use crate::ServeStats;
use mobius_obs::Obs;

/// Synthetic tenants sharing the service.
const TENANTS: usize = 4;
/// Total requests to issue (round-robin across tenants).
const REQUESTS: usize = 256;
/// Plan-cache capacity. Smaller than the catalog forces evictions.
const CAPACITY: usize = 6;
/// Zipf exponent of the popularity law (larger = more skewed).
const ZIPF_S: f64 = 1.2;
/// Every `INVALIDATE_EVERY`-th request is an `invalidate` of the issuing
/// tenant's favourite configuration.
const INVALIDATE_EVERY: usize = 64;

/// The topologies every tenant plans GPT-2 small on: the commodity
/// topologies the paper evaluates. Its 14 layers keep every solve inside
/// the planner's node budget, so each miss is proved optimal, not cut off.
const CATALOG: [&str; 8] = ["2+2", "4", "1+3", "2+1", "3", "1+2", "1+1+1", "1+1"];

/// What one load run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Final service counters.
    pub stats: ServeStats,
    /// Entries cached when the run ended.
    pub entries: usize,
    /// Median simulated service latency (µs).
    pub p50_us: f64,
    /// 99th-percentile simulated service latency (µs).
    pub p99_us: f64,
    /// 99.9th-percentile simulated service latency (µs).
    pub p999_us: f64,
    /// FNV-1a 64 checksum over every response line (`\n`-framed) — two
    /// runs of the same seed agree on this iff they agree on every byte.
    pub response_fnv: u64,
}

/// Runs the closed loop with every random choice drawn from `seed`, and
/// reports counters, latency percentiles, and the response-stream checksum.
///
/// # Errors
///
/// Propagates any [`ServeError`] — with a well-formed catalog that means a
/// planner rejection, which would be a bug in the catalog.
pub fn run_load(seed: u64) -> Result<LoadReport, ServeError> {
    let obs = Obs::new();
    let mut server = Server::new(ServeConfig {
        capacity: CAPACITY,
        warm_seed: true,
        obs: Some(obs.clone()),
    });
    let mut rng = StdRng::seed_from_u64(seed);

    // Tenant preference: a seeded Fisher-Yates permutation of the catalog,
    // so tenants agree on *how skewed* popularity is but not on *what* is
    // popular.
    let perms: Vec<Vec<usize>> = (0..TENANTS)
        .map(|_| {
            let mut p: Vec<usize> = (0..CATALOG.len()).collect();
            for i in (1..p.len()).rev() {
                let j = rng.gen_range(0..(i + 1));
                p.swap(i, j);
            }
            p
        })
        .collect();
    let zipf = ZipfTable::new(CATALOG.len(), ZIPF_S);

    let mut hasher_buf = String::new();
    for i in 0..REQUESTS {
        let tenant = i % TENANTS;
        let line = if (i + 1) % INVALIDATE_EVERY == 0 {
            // Tenants occasionally redeploy their favourite config.
            let topo = CATALOG[perms[tenant][0]];
            format!("invalidate model=gpt2 topo={topo}")
        } else {
            let rank = zipf.sample(&mut rng);
            let topo = CATALOG[perms[tenant][rank]];
            let verb = if rng.gen_range(0..4u32) == 0 {
                "estimate"
            } else {
                "plan"
            };
            format!("{verb} model=gpt2 topo={topo}")
        };
        let resp = server
            .handle(&line)?
            .expect("load generator issues no blank lines");
        hasher_buf.push_str(&resp);
        hasher_buf.push('\n');
    }

    let stats = server.stats();
    let (p50_us, p99_us, p999_us) = obs.with_metrics(|m| {
        m.histograms()
            .get("serve.latency_us")
            .map(|h| (h.p50(), h.p99(), h.p999()))
            .unwrap_or((0.0, 0.0, 0.0))
    });
    Ok(LoadReport {
        stats,
        entries: server.cache_len(),
        p50_us,
        p99_us,
        p999_us,
        response_fnv: fnv64(hasher_buf.as_bytes()),
    })
}

/// Integer-arithmetic zipfian sampler: cumulative weights scaled to `u64`
/// so sampling never compares accumulated floats (identical across
/// platforms with identical RNG draws).
struct ZipfTable {
    cum: Vec<u64>,
}

impl ZipfTable {
    fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        const SCALE: f64 = 1e9;
        let mut cum = Vec::with_capacity(n);
        let mut total = 0u64;
        for r in 0..n {
            let w = ((r as f64 + 1.0).powf(-s) * SCALE).round() as u64;
            total += w.max(1);
            cum.push(total);
        }
        ZipfTable { cum }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cum.last().expect("non-empty table");
        let x = rng.gen_range(0..total);
        self.cum.partition_point(|&c| c <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_table_is_skewed_and_in_range() {
        let t = ZipfTable::new(8, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 8];
        for _ in 0..4_000 {
            let r = t.sample(&mut rng);
            assert!(r < 8);
            counts[r] += 1;
        }
        // Rank 0 dominates and the tail is non-empty.
        assert!(counts[0] > counts[7] * 4);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zipf_sampling_is_seed_deterministic() {
        let t = ZipfTable::new(8, 1.2);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| t.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
