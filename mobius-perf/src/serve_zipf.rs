//! `serve-zipf`: one op is one `Server::handle` line of a zipfian request
//! stream, generated like `mobius_serve::loadgen`: 4 tenants round-robin,
//! zipf `s = 1.2` over an 8-entry GPT-2 catalog, cache capacity 6, and an
//! `invalidate` of the issuing tenant's favourite every 64th line. The
//! first 300 lines warm the cache untimed.
//!
//! Hits (microseconds) exercise fingerprinting and the LRU cache and set
//! the median; misses (warm-seeded exact solves, milliseconds) set the
//! tail and the throughput; invalidations are writes beside the reads.
//!
//! The popularity structure (tenant preferences, zipf ranks) comes from a
//! fixed stream, and the seed relabels which catalog entries those ranks
//! name and picks each request's verb. Every seed therefore sees the same
//! hit/miss sequence over different configurations, so runs of different
//! seeds compare. For that, the catalog's eight topologies are distinct
//! (loadgen's second, budgeted 2+2 entry would share an invalidation
//! target with the first), and the relabelling only swaps topologies with
//! the same GPU count, whose hits and solves cost about the same.

use mobius::obs::Obs;
use mobius_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{absorb_counters, shuffled, ObsBaseline};
use crate::reference::{digest, Observed};
use crate::runner::Workload;
use crate::tracer::Tracer;

const CATALOG: [&str; 8] = ["2+2", "4", "1+3", "2+1", "3", "1+2", "1+1+1", "1+1"];
/// Catalog index ranges of equal GPU count, within which the seed
/// relabels.
const SAME_GPUS: [std::ops::Range<usize>; 3] = [0..3, 3..7, 7..8];
const TENANTS: usize = 4;
const CAPACITY: usize = 6;
const ZIPF_S: f64 = 1.2;
const INVALIDATE_EVERY: usize = 64;
const WARM_UP_LINES: usize = 300;
/// Lines per round: a traced run's 30 rounds are lines 300..3000.
const ROUND_LINES: usize = 90;
/// Seed of the popularity structure every run shares.
const STRUCTURE_SEED: u64 = 0x6d6f_6269_7573;

const INVALIDATE_KEY: &str = "serve-zipf/invalidate";
const INVALIDATE_VALUE: &str = "ok invalidated";

struct Line {
    text: String,
    key: String,
}

/// The request stream: lines are generated on demand, in order.
struct Stream {
    structure: StdRng,
    verbs: StdRng,
    relabel: Vec<usize>,
    prefs: Vec<Vec<usize>>,
    zipf_cum: Vec<u64>,
    lines: Vec<Line>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let mut structure = StdRng::seed_from_u64(STRUCTURE_SEED);
        let prefs = (0..TENANTS)
            .map(|_| shuffled(CATALOG.len(), &mut structure))
            .collect();
        let mut verbs = StdRng::seed_from_u64(seed);
        let mut relabel: Vec<usize> = (0..CATALOG.len()).collect();
        for class in SAME_GPUS {
            let perm = shuffled(class.len(), &mut verbs);
            for (k, p) in perm.into_iter().enumerate() {
                relabel[class.start + k] = class.start + p;
            }
        }
        // Integer cumulative weights, as loadgen's sampler scales them.
        let mut total = 0u64;
        let zipf_cum = (0..CATALOG.len())
            .map(|r| {
                total += (((r as f64 + 1.0).powf(-ZIPF_S) * 1e9).round() as u64).max(1);
                total
            })
            .collect();
        Stream {
            structure,
            verbs,
            relabel,
            prefs,
            zipf_cum,
            lines: Vec::new(),
        }
    }

    /// Generates lines up to (excluding) `end`.
    fn extend_to(&mut self, end: usize) {
        while self.lines.len() < end {
            let i = self.lines.len();
            let tenant = i % TENANTS;
            let line = if (i + 1).is_multiple_of(INVALIDATE_EVERY) {
                let topo = CATALOG[self.relabel[self.prefs[tenant][0]]];
                Line {
                    text: format!("invalidate model=gpt2 topo={topo}"),
                    key: INVALIDATE_KEY.into(),
                }
            } else {
                let total = self.zipf_cum[CATALOG.len() - 1];
                let x = self.structure.gen_range(0..total);
                let rank = self.zipf_cum.partition_point(|&c| c <= x);
                let topo = CATALOG[self.relabel[self.prefs[tenant][rank]]];
                let verb = if self.verbs.gen_range(0..4u32) == 0 {
                    "estimate"
                } else {
                    "plan"
                };
                Line {
                    text: format!("{verb} model=gpt2 topo={topo}"),
                    key: payload_key(topo, verb),
                }
            };
            self.lines.push(line);
        }
    }
}

fn payload_key(topo: &str, verb: &str) -> String {
    format!("serve-zipf/gpt2@{topo}/{verb}")
}

fn new_server(obs: Option<Obs>) -> Server {
    Server::new(ServeConfig {
        capacity: CAPACITY,
        warm_seed: true,
        obs,
    })
}

/// The `serve-zipf` workload.
pub struct ServeZipf {
    server: Server,
    stream: Stream,
    next_line: usize,
    obs: Option<Obs>,
    seen: ObsBaseline,
}

impl Workload for ServeZipf {
    const NAME: &'static str = "serve-zipf";
    const TRACE_ROUNDS: usize = 30;
    type Out = String;

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let obs = traced.then(Obs::new);
        Ok(ServeZipf {
            server: new_server(obs.clone()),
            stream: Stream::new(seed),
            next_line: 0,
            obs,
            seen: ObsBaseline::default(),
        })
    }

    fn warm_up_ops(&mut self, smoke: bool) -> Vec<usize> {
        let n = if smoke { 2 } else { WARM_UP_LINES };
        self.stream.extend_to(n);
        self.next_line = n;
        (0..n).collect()
    }

    fn label(&self, op: usize) -> String {
        self.stream.lines[op].text.clone()
    }

    fn next_round(&mut self) -> Vec<usize> {
        // Only the measured lines count: warm-up work stays out.
        if let Some(obs) = &self.obs {
            self.seen = ObsBaseline::of(obs);
        }
        let start = self.next_line;
        self.next_line += ROUND_LINES;
        self.stream.extend_to(self.next_line);
        (start..self.next_line).collect()
    }

    fn run(&mut self, op: usize) -> Result<String, String> {
        self.server
            .handle(&self.stream.lines[op].text)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "no response".to_string())
    }

    fn run_traced(&mut self, op: usize, t: &mut Tracer) -> Result<String, String> {
        let (server, line) = (&mut self.server, &self.stream.lines[op].text);
        let resp = t.span("serve.handle", |_| server.handle(line));
        let resp = resp.map_err(|e| e.to_string())?.ok_or("no response")?;
        let tag = if resp.contains(" cache=hit ") {
            "hit"
        } else if resp.starts_with("ok invalidated") {
            "invalidate"
        } else {
            t.count("mip.solves", 1.0);
            "miss"
        };
        t.tag_last(tag);
        if let Some(obs) = &self.obs {
            absorb_counters(t, obs, &mut self.seen);
        }
        Ok(resp)
    }

    fn observe(&mut self, op: usize, resp: String) -> Result<Observed, String> {
        let key = &self.stream.lines[op].key;
        if key == INVALIDATE_KEY {
            let head = resp.split(" entries=").next().unwrap_or_default();
            return Ok(Observed::new(key, head));
        }
        let (head, payload) = resp
            .split_once(" | ")
            .ok_or_else(|| format!("malformed response `{resp}`"))?;
        if !head.starts_with("ok ") {
            return Err(format!("error response `{head}`"));
        }
        Ok(Observed::new(key, digest(payload.as_bytes())))
    }

    /// Each catalog entry and verb, solved cold on a fresh server: hits
    /// and warm-seeded solves must answer the same bytes.
    fn bless(&mut self) -> Result<Vec<Observed>, String> {
        let mut out = vec![Observed::new(INVALIDATE_KEY, INVALIDATE_VALUE)];
        for topo in CATALOG {
            for verb in ["plan", "estimate"] {
                let resp = new_server(None)
                    .handle(&format!("{verb} model=gpt2 topo={topo}"))
                    .map_err(|e| e.to_string())?
                    .ok_or("no response")?;
                let payload = resp.split_once(" | ").ok_or("malformed response")?.1;
                out.push(Observed::new(
                    payload_key(topo, verb),
                    digest(payload.as_bytes()),
                ));
            }
        }
        Ok(out)
    }
}
