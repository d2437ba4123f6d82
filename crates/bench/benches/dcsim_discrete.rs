//! Event throughput of the discrete cluster simulator.

use std::hint::black_box;
use tts_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tts_dcsim::balancer::RoundRobin;
use tts_dcsim::discrete::ClusterConfig;
use tts_units::Seconds;
use tts_workload::series::TimeSeries;
use tts_workload::{Job, JobStream, JobType};

fn jobs_for(servers: usize, minutes: usize) -> Vec<Job> {
    let trace = TimeSeries::new(Seconds::new(60.0), vec![0.7; minutes]);
    JobStream::new(trace, JobType::SocialNetworking, servers, 42).collect_all()
}

fn bench_discrete(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcsim_discrete");
    group.sample_size(10);
    for servers in [16usize, 64] {
        let jobs = jobs_for(servers, 30);
        group.throughput(Throughput::Elements(jobs.len() as u64));
        group.bench_function(format!("round_robin_{servers}_servers"), |b| {
            b.iter_batched(
                || {
                    ClusterConfig::new(servers)
                        .cores_per_server(4)
                        .rack_size(8)
                        .build(RoundRobin::new())
                },
                |mut sim| black_box(sim.run(&jobs, Seconds::new(3600.0))),
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_discrete);
criterion_main!(benches);
