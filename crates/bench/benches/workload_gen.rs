//! Workload-generation throughput: trace synthesis and Poisson job
//! streams (the front of every experiment pipeline).

use std::hint::black_box;
use tts_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tts_workload::{weekly_trace, GoogleTrace, JobStream, JobType, WeeklyTraceConfig};

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation");
    group.bench_function("google_two_day", |b| {
        b.iter(|| black_box(GoogleTrace::default_two_day()))
    });
    group.bench_function("weekly_seven_day", |b| {
        b.iter(|| black_box(weekly_trace(&WeeklyTraceConfig::default())))
    });
    group.finish();
}

fn bench_job_stream(c: &mut Criterion) {
    let trace = GoogleTrace::default_two_day();
    let mut group = c.benchmark_group("job_stream");
    // MapReduce on 50 servers over two days: ~10^5 jobs.
    let count = JobStream::new(trace.total().clone(), JobType::MapReduce, 50, 1)
        .collect_all()
        .len() as u64;
    group.throughput(Throughput::Elements(count));
    group.bench_function("mapreduce_50_servers_two_days", |b| {
        b.iter(|| {
            black_box(
                JobStream::new(trace.total().clone(), JobType::MapReduce, 50, 1).collect_all(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_trace_generation, bench_job_stream);
criterion_main!(benches);
