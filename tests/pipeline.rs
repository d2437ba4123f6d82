//! Cross-crate pipeline coherence: each substrate's outputs feed the next
//! stage with consistent physics.

use tts_obs::MetricsSink;
use tts_pcm::{PcmMaterial, PcmState};
use tts_server::{ServerClass, ServerThermalModel, ServerWaxCharacteristics};
use tts_units::{Celsius, Fraction, Seconds, Watts};
use tts_workload::GoogleTrace;

/// The aggregate characteristics must reproduce the full thermal model's
/// steady-state wax-zone temperatures (that is their whole job).
#[test]
fn characteristics_match_the_full_model() {
    for class in ServerClass::ALL {
        let spec = class.spec();
        let material = PcmMaterial::commercial_paraffin(Celsius::new(45.0));
        let chars = ServerWaxCharacteristics::extract(&spec, &material);

        let mut placebo = ServerThermalModel::with_placebo(spec.clone());
        for u in [0.3, 0.65, 0.9] {
            placebo.set_load(Fraction::new(u), Fraction::ONE);
            placebo
                .run_to_steady_state(Seconds::new(30.0), 1e-5, Seconds::new(1e6))
                .expect("steady state");
            let full_model = placebo.wax_air_temp().value();
            let aggregate = chars
                .air_temp_model
                .at(spec.wall_power(Fraction::new(u), Fraction::ONE))
                .value();
            assert!(
                (full_model - aggregate).abs() < 2.5,
                "{class} at u={u}: full model {full_model:.1} °C vs aggregate {aggregate:.1} °C"
            );
        }
    }
}

/// The aggregate wax state and the in-network PCM element agree on melt
/// behaviour under the same forcing.
#[test]
fn aggregate_and_network_wax_agree_qualitatively() {
    let spec = ServerClass::LowPower1U.spec();
    let material = PcmMaterial::validation_wax();
    let chars = ServerWaxCharacteristics::extract(&spec, &material);

    // Full network, full load, two hours.
    let mut model = ServerThermalModel::with_wax(spec.clone(), &material);
    model.set_load(Fraction::ZERO, Fraction::ONE);
    model
        .run_to_steady_state(Seconds::new(30.0), 1e-5, Seconds::new(1e6))
        .expect("idle steady state");
    model.set_load(Fraction::ONE, Fraction::ONE);
    for _ in 0..240 {
        model.step(Seconds::new(30.0));
    }
    let network_melt = model.melt_fraction().value();

    // Aggregate model under the same story.
    let mut agg = PcmState::new(&chars.material, chars.mass, chars.idle_air_temp);
    let t_air = chars
        .air_temp_model
        .at(spec.wall_power(Fraction::ONE, Fraction::ONE));
    for _ in 0..240 {
        agg.step(t_air, chars.effective_coupling(), Seconds::new(30.0));
    }
    let aggregate_melt = agg.melt_fraction().value();

    assert!(
        network_melt > 0.02 && aggregate_melt > 0.02,
        "both models must start melting: network {network_melt}, aggregate {aggregate_melt}"
    );
    assert!(
        (network_melt - aggregate_melt).abs() < 0.45,
        "melt fractions diverge: network {network_melt} vs aggregate {aggregate_melt}"
    );
}

/// Cluster cooling-load energy bookkeeping: what the wax absorbs at peak
/// equals what it returns off-peak (within the end-state residual).
#[test]
fn cluster_energy_shift_balances() {
    let spec = ServerClass::HighThroughput2U.spec();
    let chars = ServerWaxCharacteristics::extract(
        &spec,
        &PcmMaterial::commercial_paraffin(Celsius::new(48.0)),
    );
    let config = tts_dcsim::cluster::ClusterConfig::paper_cluster(spec, chars);
    let trace = GoogleTrace::default_two_day();
    let run =
        tts_dcsim::cluster::run_cooling_load(&config, trace.total(), &MetricsSink::disabled());

    let dt = trace.total().dt().value();
    let absorbed: f64 = run
        .load_no_wax_kw
        .iter()
        .zip(&run.load_with_wax_kw)
        .map(|(nw, w)| (nw - w).max(0.0) * 1e3 * dt)
        .sum();
    let released: f64 = run
        .load_no_wax_kw
        .iter()
        .zip(&run.load_with_wax_kw)
        .map(|(nw, w)| (w - nw).max(0.0) * 1e3 * dt)
        .sum();
    assert!(absorbed > 0.0 && released > 0.0);
    let imbalance = (absorbed - released).abs() / absorbed;
    assert!(
        imbalance < 0.30,
        "absorbed {absorbed:.2e} J vs released {released:.2e} J"
    );
}

/// The workload stream drives the discrete simulator to the trace's mean
/// utilization — job-level and fluid views agree.
#[test]
fn discrete_and_fluid_utilization_agree() {
    use tts_dcsim::balancer::RoundRobin;
    use tts_dcsim::discrete::ClusterConfig;
    use tts_workload::{JobStream, JobType};

    let trace = GoogleTrace::default_two_day();
    // Six simulated hours at 1-core granularity on a small cluster.
    let six_hours: Vec<f64> = trace.total().values()[..72].to_vec();
    let sub_trace = tts_workload::TimeSeries::new(Seconds::new(300.0), six_hours.clone());
    let mean_offered = sub_trace.mean();
    let jobs = JobStream::new(sub_trace, JobType::SocialNetworking, 24, 11).collect_all();
    let mut sim = ClusterConfig::new(24)
        .rack_size(12)
        .build(RoundRobin::new());
    let m = sim.run(&jobs, Seconds::new(6.0 * 3600.0));
    assert!(
        (m.cluster_utilization - mean_offered).abs() < 0.08,
        "discrete {} vs offered {}",
        m.cluster_utilization,
        mean_offered
    );
}

/// Wax cost from the pcm crate lands inside Table 2's WaxCapEx band.
#[test]
fn wax_capex_crosses_crates_consistently() {
    use tts_pcm::cost::WaxCapEx;
    use tts_tco::Table2;

    let table = Table2::paper();
    for class in ServerClass::ALL {
        let spec = class.spec();
        let bank = spec.default_wax().bank();
        let capex = WaxCapEx::price(&bank, &PcmMaterial::commercial_paraffin(Celsius::new(48.0)));
        let monthly = capex.per_month().value();
        assert!(
            monthly > 0.03 && monthly < 0.35,
            "{class}: wax {monthly} $/server/month vs Table 2 {}",
            table.wax_capex_per_server
        );
    }
}

/// Sanity: a zero-utilization cluster presents its idle power as cooling
/// load and nothing melts.
#[test]
fn idle_cluster_is_thermally_quiet() {
    let spec = ServerClass::LowPower1U.spec();
    let chars = ServerWaxCharacteristics::extract(
        &spec,
        &PcmMaterial::commercial_paraffin(Celsius::new(48.0)),
    );
    let config = tts_dcsim::cluster::ClusterConfig::paper_cluster(spec.clone(), chars);
    let flat = tts_workload::TimeSeries::new(Seconds::new(300.0), vec![0.0; 288]);
    let run = tts_dcsim::cluster::run_cooling_load(&config, &flat, &MetricsSink::disabled());
    let idle_kw = spec.wall_power(Fraction::ZERO, Fraction::ONE).value() * 1008.0 / 1e3;
    assert!((run.peak_no_wax.value() - idle_kw).abs() < 0.5);
    assert!(run.melt_fraction.iter().all(|&m| m < 0.05));
    // Tiny sensible exchange from the linear fit's residual is allowed;
    // on average the idle cluster moves < 0.1 W per server into the wax.
    let mean_abs_kw: f64 = run
        .load_no_wax_kw
        .iter()
        .zip(&run.load_with_wax_kw)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / run.load_no_wax_kw.len() as f64;
    assert!(
        mean_abs_kw < 0.1,
        "idle cluster should exchange ~nothing with the wax: {mean_abs_kw} kW mean"
    );
    let _ = Watts::ZERO;
}
