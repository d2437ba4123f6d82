//! The fully event-driven variant of the Figure 11 pipeline: discrete jobs
//! → measured per-interval utilization → wax/cooling simulation — the
//! end-to-end path the paper attributes to DCSim, without the fluid
//! shortcut.

use tts_dcsim::balancer::RoundRobin;
use tts_dcsim::cluster::{run_cooling_load, ClusterConfig};
use tts_dcsim::discrete::ClusterConfig as DiscreteConfig;
use tts_obs::MetricsSink;
use tts_pcm::PcmMaterial;
use tts_server::{ServerClass, ServerWaxCharacteristics};
use tts_units::{Celsius, Seconds};
use tts_workload::{GoogleTrace, JobStream, JobType};

#[test]
fn job_level_and_fluid_cooling_loads_agree() {
    // 48 h of MapReduce-class jobs offered to a 50-server core-granular
    // cluster following the Google trace.
    let trace = GoogleTrace::default_two_day();
    let servers = 50;
    let jobs = JobStream::new(trace.total().clone(), JobType::MapReduce, servers, 17).collect_all();
    assert!(jobs.len() > 10_000, "expected a substantial job stream");

    let mut sim = DiscreteConfig::new(servers)
        .rack_size(10)
        .record_utilization(Seconds::from_minutes(5.0))
        .build(RoundRobin::new());
    let metrics = sim.run(&jobs, trace.total().duration());
    let measured = sim.utilization_trace().expect("recording enabled");

    // The measured utilization reproduces the offered trace.
    assert!(
        (measured.mean() - trace.total().mean()).abs() < 0.05,
        "measured mean {} vs offered {}",
        measured.mean(),
        trace.total().mean()
    );
    assert!(metrics.completed > 0);

    // Drive the wax/cooling model with both traces and compare.
    let spec = ServerClass::LowPower1U.spec();
    let chars = ServerWaxCharacteristics::extract(
        &spec,
        &PcmMaterial::commercial_paraffin(Celsius::new(48.0)),
    );
    let config = ClusterConfig::paper_cluster(spec, chars);
    let fluid = run_cooling_load(&config, trace.total(), &MetricsSink::disabled());
    let job_level = run_cooling_load(&config, &measured, &MetricsSink::disabled());

    let fluid_red = fluid.peak_reduction.value();
    let job_red = job_level.peak_reduction.value();
    assert!(job_red > 0.0, "job-level run must still shave the peak");
    assert!(
        (fluid_red - job_red).abs() < 0.6 * fluid_red.max(job_red),
        "fluid {fluid_red} vs job-level {job_red} peak reduction"
    );

    // Peak magnitudes agree (queueing adds noise; 15 % tolerance).
    assert!(
        (fluid.peak_no_wax.value() - job_level.peak_no_wax.value()).abs()
            < 0.15 * fluid.peak_no_wax.value(),
        "fluid peak {} vs job-level peak {}",
        fluid.peak_no_wax.value(),
        job_level.peak_no_wax.value()
    );
}

#[test]
fn mixed_job_types_fill_the_cluster_proportionally() {
    // All three job types, offered by their Figure 10 components, land on
    // one cluster; measured utilization ≈ the total trace.
    let trace = GoogleTrace::default_two_day();
    let servers = 30;
    // One day only, for runtime.
    let day: Vec<f64> = trace.total().values()[..288].to_vec();
    let sub = tts_workload::TimeSeries::new(Seconds::from_minutes(5.0), day);

    let mut all_jobs = Vec::new();
    for (i, jt) in JobType::ALL.iter().enumerate() {
        // Each type offers a third of the load.
        let third = sub.map(|v| v / 3.0);
        let stream = JobStream::new(third, *jt, servers, 100 + i as u64);
        all_jobs.extend(stream.collect_all());
    }
    all_jobs.sort_by(|a, b| a.arrival.value().total_cmp(&b.arrival.value()));
    // Re-id to satisfy the simulator's ordering assertion (ids are
    // informational here).
    let mut sim = DiscreteConfig::new(servers)
        .rack_size(10)
        .record_utilization(Seconds::from_minutes(10.0))
        .build(RoundRobin::new());
    sim.run(&all_jobs, sub.duration());
    let measured = sim.utilization_trace().expect("recorded");
    assert!(
        (measured.mean() - sub.mean()).abs() < 0.06,
        "measured {} vs offered {}",
        measured.mean(),
        sub.mean()
    );
}
