//! Microbenchmarks of the simulation kernel: event queue, shared
//! bandwidth engine, RNG streams, distributions, and histograms.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use cpsim_des::{Dist, EventQueue, SharedBandwidth, SimDuration, SimTime, Streams};
use cpsim_metrics::Histogram;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event-queue");
    for &n in &[1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_function(format!("push-pop-{n}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::new();
                // Interleaved ordering stresses the heap.
                for i in 0..n {
                    let t = (i * 2_654_435_761) % 1_000_000;
                    q.schedule(SimTime::from_micros(t), i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            });
        });
    }
    let n = 100_000u64;
    g.throughput(Throughput::Elements(n));
    // The run_until pattern: drain in horizon slices with the fused
    // peek+pop, re-scheduling a fraction (events beget events).
    g.bench_function("pop-if-before-sliced-drain", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_micros((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut processed = 0u64;
            let mut horizon_us = 0u64;
            while !q.is_empty() {
                horizon_us += 50_000;
                let horizon = SimTime::from_micros(horizon_us);
                while let Some((t, e)) = q.pop_if_before(horizon) {
                    processed += 1;
                    // Every 16th event schedules a short follow-up, as
                    // management ops do.
                    if e % 16 == 0 && processed < 2 * n {
                        q.schedule(t + SimDuration::from_micros(100), e + 1);
                    }
                }
            }
            black_box(processed)
        });
    });
    g.finish();
}

fn bench_shared_bandwidth(c: &mut Criterion) {
    c.bench_function("shared-bandwidth/churn-64-flows", |b| {
        b.iter(|| {
            let mut bw: SharedBandwidth<u32> = SharedBandwidth::new(1e8);
            let mut plan = None;
            for i in 0..64u32 {
                plan = bw.start(
                    SimTime::from_micros(u64::from(i) * 10),
                    i,
                    1e6 * f64::from(i % 7 + 1),
                );
            }
            let mut done = 0;
            while let Some(p) = plan {
                if let Some(d) = bw.on_tick(p.next_completion, p.epoch) {
                    done += d.finished.len();
                    plan = d.plan;
                } else {
                    break;
                }
            }
            black_box(done)
        });
    });
}

fn bench_distributions(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist-sample");
    let dists = [
        ("exponential", Dist::exponential(1.0).unwrap()),
        ("log-normal", Dist::log_normal(1.0, 0.5).unwrap()),
        ("pareto", Dist::pareto(1.0, 2.0).unwrap()),
        (
            "empirical-1k",
            Dist::empirical((0..1000).map(f64::from).collect()).unwrap(),
        ),
    ];
    for (name, d) in dists {
        g.bench_function(name, |b| {
            let mut rng = Streams::new(1).rng(0);
            b.iter(|| black_box(d.sample(&mut rng)));
        });
    }
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record-100k", |b| {
        let values: Vec<f64> = (1..=100_000).map(|i| i as f64 * 0.001).collect();
        b.iter_batched(
            Histogram::new,
            |mut h| {
                for &v in &values {
                    h.record(v);
                }
                black_box(h.quantile(0.99))
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_shared_bandwidth,
    bench_distributions,
    bench_histogram
);
criterion_main!(benches);
