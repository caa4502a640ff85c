//! Criterion micro-benchmarks for the planning service's cache-hit path:
//! one warmed `Server`, then `handle` on a `plan` and an `estimate` line
//! whose solve is already cached. A hit parses the line, fingerprints the
//! model and topology, looks up the key and writes the response — no
//! solver runs.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use mobius_serve::{ServeConfig, Server};

const PLAN: &str = "plan model=gpt2 topo=2+2";
const ESTIMATE: &str = "estimate model=gpt2 topo=2+2";

fn bench_cache_hits(c: &mut Criterion) {
    let mut server = Server::new(ServeConfig::default());
    let miss = server.handle(PLAN).unwrap().unwrap();
    assert!(miss.contains(" cache=miss "), "{miss}");
    for (name, line) in [("serve_hit_plan", PLAN), ("serve_hit_estimate", ESTIMATE)] {
        let hit = server.handle(line).unwrap().unwrap();
        assert!(hit.contains(" cache=hit "), "{hit}");
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(server.handle(std::hint::black_box(line))))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(2));
    targets = bench_cache_hits
}
criterion_main!(benches);
