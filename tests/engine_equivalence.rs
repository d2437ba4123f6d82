//! The engine-equivalence lockdown: the rebuilt discrete engine
//! (struct-of-arrays state + calendar queue) must produce *byte-identical*
//! metrics and utilization traces to the frozen legacy heap engine
//! (`tts_dcsim_oracle::LegacySim`) on every seeded (workload,
//! cluster-size, fault-plan) combination, at every thread count.

use tts_chaos::{Fault, FaultPlan, PlanConfig, PlanFaultHook};
use tts_dcsim::balancer::{Balancer, LeastLoaded, RandomBalancer, RoundRobin};
use tts_dcsim::discrete::ClusterConfig;
use tts_dcsim_oracle::LegacySim;
use tts_units::Seconds;
use tts_workload::series::TimeSeries;
use tts_workload::{Job, JobStream, JobType};

/// One seeded combination of the spaces the two engines must agree on.
struct Combo {
    label: &'static str,
    servers: usize,
    cores: usize,
    rack_size: usize,
    seed: u64,
    util: f64,
    /// One stream per type, merged by arrival time.
    job_types: &'static [JobType],
    faults: Faults,
}

/// Where a combo's kill/revive schedule comes from.
enum Faults {
    /// `FaultPlan::sample` with at most this many faults.
    Sampled(usize),
    /// A fixed schedule, sorted by onset.
    Scheduled(&'static [Fault]),
}

fn jobs_for(c: &Combo) -> Vec<Job> {
    let trace = TimeSeries::new(Seconds::new(60.0), vec![c.util; 60]);
    let mut jobs: Vec<Job> = c
        .job_types
        .iter()
        .flat_map(|&t| JobStream::new(trace.clone(), t, c.servers, c.seed))
        .collect();
    jobs.sort_by(|a, b| a.arrival.value().total_cmp(&b.arrival.value()));
    jobs
}

fn plan_for(c: &Combo) -> FaultPlan {
    match c.faults {
        Faults::Sampled(max_faults) => FaultPlan::sample(
            c.seed ^ 0xfa17,
            &PlanConfig {
                window_s: 3_600.0,
                servers: c.servers,
                max_faults,
            },
        ),
        Faults::Scheduled(faults) => FaultPlan {
            faults: faults.to_vec(),
        },
    }
}

/// Runs the combo through both engines with identical inputs and asserts
/// byte-level agreement of the metrics and the utilization traces.
fn assert_engines_agree<B: Balancer + 'static>(c: &Combo, mk_balancer: impl Fn() -> B) {
    let jobs = jobs_for(c);
    let plan = plan_for(c);
    let horizon = Seconds::new(3_600.0);
    let cadence = Seconds::new(300.0);

    let mut legacy = LegacySim::new(c.servers, c.cores, c.rack_size, mk_balancer());
    legacy.set_fault_hook(Box::new(PlanFaultHook::from_plan(&plan)));
    legacy.record_utilization(cadence);
    let legacy_m = legacy.run(&jobs, horizon);

    let mut sim = ClusterConfig::new(c.servers)
        .cores_per_server(c.cores)
        .rack_size(c.rack_size)
        .record_utilization(cadence)
        .build(mk_balancer());
    sim.set_fault_hook(Box::new(PlanFaultHook::from_plan(&plan)));
    let new_m = sim.run(&jobs, horizon);

    // PartialEq first (clear diff on failure), then the Debug rendering,
    // which pins every f64 bit pattern — `assert_eq!` on floats admits
    // -0.0 == 0.0, the Debug string does not.
    assert_eq!(new_m, legacy_m, "{}: metrics diverged", c.label);
    assert_eq!(
        format!("{new_m:?}"),
        format!("{legacy_m:?}"),
        "{}: metrics bit patterns diverged",
        c.label
    );
    assert_eq!(
        format!("{:?}", sim.utilization_trace()),
        format!("{:?}", legacy.utilization_trace()),
        "{}: utilization traces diverged",
        c.label
    );
    assert_eq!(
        sim.servers_down(),
        legacy.servers_down(),
        "{}: down-server counts diverged",
        c.label
    );

    // The engine also reads a single-type stream directly, as the `dcsim`
    // experiment does; that run must match the slice run bit for bit.
    if let [job_type] = c.job_types {
        let trace = TimeSeries::new(Seconds::new(60.0), vec![c.util; 60]);
        let mut streamed = ClusterConfig::new(c.servers)
            .cores_per_server(c.cores)
            .rack_size(c.rack_size)
            .build(mk_balancer());
        streamed.set_fault_hook(Box::new(PlanFaultHook::from_plan(&plan)));
        let stream = JobStream::new(trace, *job_type, c.servers, c.seed);
        assert_eq!(
            format!("{:?}", streamed.run(stream, horizon)),
            format!("{new_m:?}"),
            "{}: streamed run diverged",
            c.label
        );
    }
}

/// ONE test on purpose — see the module docs. Twelve combos × two thread
/// counts, all three balancer families, sampled and scheduled fault
/// plans.
#[test]
fn rebuilt_engine_matches_legacy_heap_engine_bytewise() {
    let combos = [
        Combo {
            label: "tiny-underloaded",
            servers: 3,
            cores: 1,
            rack_size: 1,
            seed: 1,
            util: 0.3,
            job_types: &[JobType::WebSearch],
            faults: Faults::Sampled(0),
        },
        Combo {
            label: "small-faulted",
            servers: 4,
            cores: 2,
            rack_size: 2,
            seed: 2,
            util: 0.55,
            job_types: &[JobType::SocialNetworking],
            faults: Faults::Sampled(10),
        },
        Combo {
            label: "rack-misaligned",
            servers: 10,
            cores: 2,
            rack_size: 3,
            seed: 3,
            util: 0.6,
            job_types: &[JobType::SocialNetworking],
            faults: Faults::Sampled(6),
        },
        Combo {
            label: "mapreduce-heavy",
            servers: 8,
            cores: 4,
            rack_size: 4,
            seed: 4,
            util: 0.8,
            job_types: &[JobType::MapReduce],
            faults: Faults::Sampled(4),
        },
        Combo {
            label: "overloaded",
            servers: 6,
            cores: 1,
            rack_size: 2,
            seed: 5,
            util: 0.95,
            job_types: &[JobType::WebSearch],
            faults: Faults::Sampled(8),
        },
        Combo {
            label: "mid-cluster",
            servers: 16,
            cores: 2,
            rack_size: 8,
            seed: 6,
            util: 0.5,
            job_types: &[JobType::SocialNetworking],
            faults: Faults::Sampled(10),
        },
        Combo {
            label: "wide-cluster",
            servers: 32,
            cores: 2,
            rack_size: 8,
            seed: 7,
            util: 0.45,
            job_types: &[JobType::WebSearch],
            faults: Faults::Sampled(12),
        },
        Combo {
            label: "single-server",
            servers: 1,
            cores: 2,
            rack_size: 1,
            seed: 8,
            util: 0.7,
            job_types: &[JobType::MapReduce],
            faults: Faults::Sampled(3),
        },
        Combo {
            label: "idle-trickle",
            servers: 12,
            cores: 2,
            rack_size: 6,
            seed: 9,
            util: 0.05,
            job_types: &[JobType::WebSearch],
            faults: Faults::Sampled(10),
        },
        Combo {
            label: "kill-happy",
            servers: 5,
            cores: 2,
            rack_size: 5,
            seed: 10,
            util: 0.65,
            job_types: &[JobType::SocialNetworking],
            faults: Faults::Sampled(16),
        },
        // A fixed schedule beside the sampled ones: two kills, then the
        // first server revives while the second stays down.
        Combo {
            label: "scheduled-kill-kill-revive",
            servers: 8,
            cores: 2,
            rack_size: 4,
            seed: 23,
            util: 0.6,
            job_types: &[JobType::SocialNetworking],
            faults: Faults::Scheduled(&[
                Fault::ServerKill {
                    at_s: 500.0,
                    server: 2,
                },
                Fault::ServerKill {
                    at_s: 700.0,
                    server: 5,
                },
                Fault::ServerRevive {
                    at_s: 1500.0,
                    server: 2,
                },
            ]),
        },
        // Short and long jobs in one run: the cluster-wide mean and p95
        // come from the per-type logs merged, the oracle's from one log.
        Combo {
            label: "mixed-search-mapreduce",
            servers: 10,
            cores: 2,
            rack_size: 5,
            seed: 31,
            util: 0.3,
            job_types: &[JobType::WebSearch, JobType::MapReduce],
            faults: Faults::Sampled(4),
        },
    ];

    for threads in [1usize, 4] {
        tts_exec::with_thread_budget(threads, || {
            for c in &combos {
                assert_engines_agree(c, LeastLoaded::new);
                assert_engines_agree(c, RoundRobin::new);
                assert_engines_agree(c, || RandomBalancer::new(c.seed ^ 0xb0b));
            }
        });
    }
}
