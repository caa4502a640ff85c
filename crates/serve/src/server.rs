//! The planning service: a deterministic request loop over the plan cache.
//!
//! Requests are a line-delimited `key=value` protocol over any
//! `BufRead`/`Write` pair (a script file, an in-memory buffer, or — once a
//! socket shim exists — a network stream):
//!
//! ```text
//! plan model=gpt2 topo=2+2
//! estimate model=gpt2 topo=1+3
//! invalidate model=gpt2
//! stats
//! ```
//!
//! Every `plan`/`estimate` is addressed by the (model, topology)
//! fingerprint pair from [`mobius::fingerprint`] — the only inputs a solve
//! reads. A hit replays the cached payload bytes and runs no solver at
//! all, a miss solves a Mobius plan with the planner's MIP under its fixed
//! node budget ([`PLAN_NODE_BUDGET`], so the work per miss is bounded and
//! byte-deterministic), seeded from the most recent same-model entry when
//! one exists (the warm-start path).
//!
//! Service latency is *simulated*: a hit costs a fixed dispatch constant,
//! a miss costs a setup constant plus a per-evaluated-leaf charge taken
//! from the solver's own [`SearchStats`]. No wall clock is read anywhere,
//! which is what makes two runs of the same script byte-identical.
//!
//! [`SearchStats`]: mobius::pipeline::SearchStats
//! [`PLAN_NODE_BUDGET`]: mobius::pipeline::PLAN_NODE_BUDGET

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};

use mobius::fingerprint::{model_fingerprint, topology_fingerprint};
use mobius::{pricing, FineTuner, TopoSpecError};
use mobius_model::Model;
use mobius_obs::{AttrValue, Lane, Obs};
use mobius_sim::units::{secs_to_us, NS_PER_US_U64};
use mobius_topology::Topology;

use crate::cache::{Entry, PlanCache};

/// Simulated dispatch cost of serving a request from the cache.
pub const HIT_SERVICE_US: u64 = 50;
/// Simulated fixed cost of a cold solve (profile + setup), before leaves.
pub const MISS_BASE_US: u64 = 1_000;
/// Simulated cost per evaluated branch-and-bound leaf.
pub const LEAF_COST_US: u64 = 2;

/// Bucket bounds (µs) for the `serve.latency_us` histogram: dense around
/// the hit constant, stretching far enough to resolve large cold solves.
pub const LATENCY_US_BUCKETS: [f64; 12] = [
    25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
    100_000.0,
];

/// A failure inside the request loop. The CLI maps any of these to its
/// dedicated serve exit code.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Malformed request line (unknown command, missing or bad key).
    Protocol(String),
    /// The planner rejected the configuration (e.g. no feasible partition).
    Plan(String),
    /// The injected reader or writer failed.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Plan(m) => write!(f, "plan error: {m}"),
            ServeError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Plan-cache capacity in entries.
    pub capacity: usize,
    /// Whether near-miss solves are seeded from the most recent same-model
    /// entry (PR 6 warm start). On by default; off isolates the cold path.
    pub warm_seed: bool,
    /// Observer for counters, the latency histogram, and request spans.
    /// Passive: responses are byte-identical with or without it.
    pub obs: Option<Obs>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            capacity: 64,
            warm_seed: true,
            obs: None,
        }
    }
}

/// Monotonic service counters, mirrored into the attached [`Obs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests handled (including `invalidate` and `stats`).
    pub requests: u64,
    /// Cache hits across `plan` and `estimate`.
    pub hits: u64,
    /// Cache misses (each one ran a solve).
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries removed by `invalidate` requests.
    pub invalidations: u64,
    /// Misses whose solve was warm-started from a cached near miss.
    pub warm_seeded: u64,
}

impl ServeStats {
    /// Hits over lookups; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A request's `key=value` pairs, borrowed from the line. Sorted, so an
/// unknown-key error always names the same key.
type Kv<'a> = BTreeMap<&'a str, &'a str>;

/// A parsed `plan`/`estimate` target.
struct Target<'a> {
    model: Model,
    /// As written in the request; a miss lowercases it into the payload.
    model_name: &'a str,
    topo: Topology,
}

/// The planning service. Drive it line by line with [`Server::handle`] or
/// loop a whole stream through [`Server::run`].
pub struct Server {
    cfg: ServeConfig,
    cache: PlanCache,
    stats: ServeStats,
    /// Simulated service clock (µs); stamps request spans.
    clock_us: u64,
}

impl Server {
    /// Creates a service with an empty cache.
    pub fn new(cfg: ServeConfig) -> Self {
        let cache = PlanCache::new(cfg.capacity);
        Server {
            cfg,
            cache,
            stats: ServeStats::default(),
            clock_us: 0,
        }
    }

    /// The service counters so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Handles one request line. Returns `None` for blank lines and `#`
    /// comments, otherwise exactly one response line (no terminator).
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on a malformed request,
    /// [`ServeError::Plan`] when the planner rejects the configuration.
    pub fn handle(&mut self, line: &str) -> Result<Option<String>, ServeError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut words = line.split_whitespace();
        let cmd = words.next().expect("non-empty line has a first word");
        let kv = parse_kv(words)?;
        self.stats.requests += 1;
        self.counter_add("serve.requests", 1.0);
        let response = match cmd {
            "plan" => self.plan_or_estimate(&kv, true)?,
            "estimate" => self.plan_or_estimate(&kv, false)?,
            "invalidate" => self.invalidate(&kv)?,
            "stats" => self.render_stats(&kv)?,
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown command `{other}` (try plan/estimate/invalidate/stats)"
                )))
            }
        };
        Ok(Some(response))
    }

    /// Runs the whole request loop: reads lines from `input`, writes one
    /// `\n`-terminated response line per request to `out`.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] from a request aborts the loop — the protocol is
    /// a script, not a shell, and a bad line means the script is wrong.
    pub fn run(&mut self, input: impl BufRead, mut out: impl Write) -> Result<(), ServeError> {
        for line in input.lines() {
            let line = line.map_err(|e| ServeError::Io(e.to_string()))?;
            if let Some(resp) = self.handle(&line)? {
                writeln!(out, "{resp}").map_err(|e| ServeError::Io(e.to_string()))?;
            }
        }
        Ok(())
    }

    fn plan_or_estimate(&mut self, kv: &Kv<'_>, want_plan: bool) -> Result<String, ServeError> {
        let verb = if want_plan { "plan" } else { "estimate" };
        let target = parse_target(kv, verb)?;
        let key = (
            model_fingerprint(&target.model),
            topology_fingerprint(&target.topo),
        );

        if let Some(entry) = self.cache.lookup(key) {
            let payload = if want_plan {
                &entry.plan_payload
            } else {
                &entry.estimate_payload
            };
            // `ok <verb> cache=hit latency_us=<u64> | <payload>`, written once.
            let mut response = String::with_capacity(verb.len() + payload.len() + 50);
            response.push_str("ok ");
            response.push_str(verb);
            response.push_str(" cache=hit latency_us=");
            let _ = write!(response, "{HIT_SERVICE_US}");
            response.push_str(" | ");
            response.push_str(payload);
            self.stats.hits += 1;
            self.counter_add("serve.cache.hit", 1.0);
            self.finish_request(verb, "hit", HIT_SERVICE_US);
            return Ok(response);
        }

        // Miss: solve, seeded from the nearest cached relative if allowed.
        let warm = if self.cfg.warm_seed {
            self.cache.warm_hint(key.0)
        } else {
            None
        };
        let (entry, evaluated, warm_started) = self.solve(&target, warm)?;
        let payload = if want_plan {
            entry.plan_payload.clone()
        } else {
            entry.estimate_payload.clone()
        };
        if self.cache.insert(key, entry).is_some() {
            self.stats.evictions += 1;
            self.counter_add("serve.cache.eviction", 1.0);
        }
        self.stats.misses += 1;
        self.counter_add("serve.cache.miss", 1.0);
        let cache_tag = if warm_started {
            self.stats.warm_seeded += 1;
            self.counter_add("serve.warm_seeded", 1.0);
            "warm"
        } else {
            "miss"
        };
        let latency = self.finish_request(verb, cache_tag, MISS_BASE_US + LEAF_COST_US * evaluated);
        Ok(format!(
            "ok {verb} cache={cache_tag} latency_us={latency} | {payload}"
        ))
    }

    fn solve(
        &self,
        target: &Target,
        warm: Option<Vec<usize>>,
    ) -> Result<(Entry, u64, bool), ServeError> {
        let mut tuner = FineTuner::from_model(target.model.clone()).topology(target.topo.clone());
        if let Some(sizes) = warm {
            tuner = tuner.warm_start(sizes);
        }
        if let Some(obs) = &self.cfg.obs {
            tuner = tuner.observe(obs.clone());
        }
        let plan = tuner.plan().map_err(|e| ServeError::Plan(e.to_string()))?;

        let sizes = plan.partition.sizes().to_vec();
        let map: Vec<usize> = (0..plan.mapping.num_stages())
            .map(|s| plan.mapping.gpu_of(s))
            .collect();
        let step_us = secs_to_us(plan.predicted_step.as_secs_f64());
        let model_name = target.model_name.to_ascii_lowercase();
        let plan_payload = format!(
            "model={} topo={} stages={:?} map={:?} predicted_step_us={:.3} contention={:.3}",
            model_name,
            target.topo.name(),
            sizes,
            map,
            step_us,
            plan.contention_degree,
        );
        let price = pricing::step_price_usd(&target.topo, plan.predicted_step);
        let estimate_payload = format!(
            "model={} topo={} predicted_step_us={:.3} price_usd_per_step={:.6} stages={}",
            model_name,
            target.topo.name(),
            step_us,
            price,
            sizes.len(),
        );
        let (evaluated, warm_started) = plan
            .search
            .map(|s| (s.evaluated as u64, s.warm_started))
            .unwrap_or((0, false));
        Ok((
            Entry::new(plan_payload, estimate_payload, sizes),
            evaluated,
            warm_started,
        ))
    }

    fn invalidate(&mut self, kv: &Kv<'_>) -> Result<String, ServeError> {
        reject_unknown_keys(kv, &["model", "topo"], "invalidate")?;
        let model_fp = kv
            .get("model")
            .map(|m| Ok::<u64, ServeError>(model_fingerprint(&parse_model(m)?)))
            .transpose()?;
        let topo_fp = kv
            .get("topo")
            .map(|t| Ok::<u64, ServeError>(topology_fingerprint(&parse_topo(t)?)))
            .transpose()?;
        let removed = self.cache.invalidate_where(|&(m, t)| {
            model_fp.is_none_or(|fp| m == fp) && topo_fp.is_none_or(|fp| t == fp)
        }) as u64;
        self.stats.invalidations += removed;
        self.counter_add("serve.cache.invalidate", removed as f64);
        let latency = self.finish_request("invalidate", "n/a", HIT_SERVICE_US);
        Ok(format!(
            "ok invalidated entries={removed} latency_us={latency}"
        ))
    }

    fn render_stats(&mut self, kv: &Kv<'_>) -> Result<String, ServeError> {
        reject_unknown_keys(kv, &[], "stats")?;
        let latency = self.finish_request("stats", "n/a", HIT_SERVICE_US);
        let s = self.stats;
        Ok(format!(
            "ok stats requests={} hits={} misses={} evictions={} invalidations={} \
             warm_seeded={} entries={} hit_rate={:.3} latency_us={latency}",
            s.requests,
            s.hits,
            s.misses,
            s.evictions,
            s.invalidations,
            s.warm_seeded,
            self.cache.len(),
            s.hit_rate(),
        ))
    }

    /// Records the request span and latency histogram, advances the
    /// simulated clock, and returns the latency charged.
    fn finish_request(&mut self, verb: &str, cache_tag: &str, latency_us: u64) -> u64 {
        if let Some(obs) = &self.cfg.obs {
            let start_ns = self.clock_us * NS_PER_US_U64;
            obs.span(
                Lane::Serve,
                "serve",
                verb.to_string(),
                start_ns,
                start_ns + latency_us * NS_PER_US_U64,
                vec![("cache", AttrValue::Str(cache_tag.to_string()))],
            );
            obs.histogram_record("serve.latency_us", &LATENCY_US_BUCKETS, latency_us as f64);
        }
        self.clock_us += latency_us;
        latency_us
    }

    fn counter_add(&self, name: &str, delta: f64) {
        if let Some(obs) = &self.cfg.obs {
            obs.counter_add(name, delta);
        }
    }
}

fn parse_kv<'a>(words: impl Iterator<Item = &'a str>) -> Result<Kv<'a>, ServeError> {
    let mut kv = Kv::new();
    for w in words {
        let (k, v) = w
            .split_once('=')
            .ok_or_else(|| ServeError::Protocol(format!("expected key=value, got `{w}`")))?;
        if kv.insert(k, v).is_some() {
            return Err(ServeError::Protocol(format!("duplicate key `{k}`")));
        }
    }
    Ok(kv)
}

fn reject_unknown_keys(kv: &Kv<'_>, allowed: &[&str], cmd: &str) -> Result<(), ServeError> {
    for k in kv.keys() {
        if !allowed.contains(k) {
            return Err(ServeError::Protocol(format!(
                "unknown key `{k}` for `{cmd}`"
            )));
        }
    }
    Ok(())
}

fn parse_target<'a>(kv: &Kv<'a>, verb: &str) -> Result<Target<'a>, ServeError> {
    reject_unknown_keys(kv, &["model", "topo"], verb)?;
    let model_name = *kv
        .get("model")
        .ok_or_else(|| ServeError::Protocol(format!("`{verb}` requires model=")))?;
    let model = parse_model(model_name)?;
    let topo = parse_topo(
        kv.get("topo")
            .ok_or_else(|| ServeError::Protocol(format!("`{verb}` requires topo=")))?,
    )?;
    Ok(Target {
        model,
        model_name,
        topo,
    })
}

/// Parses a model preset name with [`mobius::parse_model`].
fn parse_model(s: &str) -> Result<Model, ServeError> {
    mobius::parse_model(s)
        .ok_or_else(|| ServeError::Protocol(format!("unknown model `{}`", s.to_ascii_lowercase())))
}

/// Parses a topology spec with [`mobius::parse_topology`]: `dc` or
/// `+`-separated root-complex group sizes, at most
/// [`mobius::MAX_SERVER_GPUS`] GPUs.
fn parse_topo(s: &str) -> Result<Topology, ServeError> {
    mobius::parse_topology(s).map_err(|e| {
        ServeError::Protocol(match e {
            TopoSpecError::Malformed => format!("bad topology `{s}`"),
            TopoSpecError::TooManyGpus => format!("bad topology `{s}`: {e}"),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServeConfig {
            capacity: 4,
            warm_seed: true,
            obs: Some(Obs::new()),
        })
    }

    #[test]
    fn blank_lines_and_comments_produce_no_response() {
        let mut s = server();
        assert_eq!(s.handle("").unwrap(), None);
        assert_eq!(s.handle("   ").unwrap(), None);
        assert_eq!(s.handle("# a comment").unwrap(), None);
        assert_eq!(s.stats().requests, 0);
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        let mut s = server();
        assert!(matches!(
            s.handle("frobnicate model=gpt2"),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            s.handle("plan topo=2+2"),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            s.handle("plan model=gpt2 topo=2+2 model=gpt2"),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            s.handle("plan model=gpt2 topo=2+2 color=red"),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            s.handle("plan model=gpt2 topo=2+2 system=gpipe"),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            s.handle("stats now"),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn run_writes_one_line_per_request_and_stops_on_error() {
        let mut s = server();
        let script = "# warm-up\nstats\nstats\n";
        let mut out = Vec::new();
        s.run(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with("ok stats ")));

        let mut s = server();
        let mut out = Vec::new();
        let err = s.run("stats\nbogus\nstats\n".as_bytes(), &mut out);
        assert!(matches!(err, Err(ServeError::Protocol(_))));
        // The first response was already written; the loop stopped there.
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 1);
    }

    #[test]
    fn invalidate_on_an_empty_cache_is_a_no_op() {
        let mut s = server();
        let resp = s.handle("invalidate model=gpt2").unwrap().unwrap();
        assert!(resp.starts_with("ok invalidated entries=0"));
        assert_eq!(s.stats().invalidations, 0);
    }
}
