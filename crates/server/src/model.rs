//! Assembly of a thermal network for one server — the per-server "Icepak
//! model".
//!
//! Topology (front-to-rear air path, matching §3's description of the
//! RD330 model and §4.1's 2U/Open Compute layouts):
//!
//! ```text
//! inlet ─▶ front ─▶ hot[0] ─▶ … ─▶ hot[S−1] ─▶ waxzone ─▶ merge ─▶ outlet
//!            │                                              ▲
//!            └────────────────▶ bypass ────────────────────┘
//! ```
//!
//! * `front` receives distributed heat (DRAM, lumped motherboard/IO, and
//!   front-mounted drives);
//! * the **hot lane** carries `hot_lane_fraction` of the flow over the CPU
//!   heat sinks, one air segment per socket (downstream sockets run
//!   hotter, as in Figure 7 b);
//! * the **wax zone** sits directly downwind of the sockets — the paper's
//!   chosen placement — and carries the PCM elements and any grille/box
//!   blockage;
//! * `merge` recombines the lanes and receives PSU loss (and rear-mounted
//!   drives, e.g. the Open Compute blade's PCIe SSDs).

use crate::spec::{ServerSpec, WaxPlacement};
use tts_pcm::{ContainerBank, PcmMaterial, PcmState};
use tts_thermal::airflow::{FanCurve, FlowPath, OperatingPoint};
use tts_thermal::convection::{film_coefficient, sink_conductance_scale};
use tts_thermal::network::{AdvectionId, EdgeId, NodeId, PcmId, ThermalNetwork};
use tts_units::{
    air_heat_capacity_flow, Celsius, Fraction, Joules, JoulesPerKelvin, MetersPerSecond, Seconds,
    Watts, WattsPerKelvin,
};

/// Thermal capacitances for the lumped solids, J/K.
mod capacitance {
    /// One CPU package + heat sink.
    pub const CPU_SOCKET: f64 = 650.0;
    /// The DRAM array.
    pub const DRAM: f64 = 250.0;
    /// Drive bay (HDDs are massive).
    pub const DRIVES: f64 = 900.0;
    /// Power supply.
    pub const PSU: f64 = 700.0;
    /// Chassis sheet metal coupled to the front air volume.
    pub const CHASSIS: f64 = 2500.0;
}

/// What occupies the wax bay.
#[derive(Debug, Clone)]
enum Bay {
    /// Nothing installed (production configuration, no blockage).
    Empty,
    /// Empty aluminum boxes: the §3 *placebo* — blockage without latent
    /// storage.
    Placebo { blockage: Fraction },
    /// Wax-filled boxes.
    Wax {
        bank: ContainerBank,
        material: PcmMaterial,
        blockage: Fraction,
    },
    /// A uniform test grille (the Figure 7 sweeps).
    Grille { blockage: Fraction },
}

impl Bay {
    fn blockage(&self) -> Fraction {
        match self {
            Bay::Empty => Fraction::ZERO,
            Bay::Placebo { blockage } | Bay::Wax { blockage, .. } | Bay::Grille { blockage } => {
                *blockage
            }
        }
    }
}

/// A transient thermal model of one server.
#[derive(Debug)]
pub struct ServerThermalModel {
    spec: ServerSpec,
    net: ThermalNetwork,
    bay: Bay,
    flow_path: FlowPath,

    // Node handles.
    inlet: NodeId,
    front: NodeId,
    waxzone: NodeId,
    merge: NodeId,
    cpu_nodes: Vec<NodeId>,
    dram: NodeId,
    drives: NodeId,
    psu: NodeId,

    // Runtime-adjustable couplings.
    adv_inlet_front: AdvectionId,
    adv_hot: Vec<AdvectionId>,
    adv_bypass: Vec<AdvectionId>,
    adv_out: AdvectionId,
    cpu_sink_edges: Vec<EdgeId>,
    pcm: Option<PcmId>,

    /// Loaded, unblocked duct velocity — the reference point for sink
    /// conductance scaling.
    ref_velocity: MetersPerSecond,
    utilization: Fraction,
    freq: Fraction,
}

impl ServerThermalModel {
    /// The bare server: no wax, no blockage.
    pub fn new(spec: ServerSpec) -> Self {
        Self::build(spec, Bay::Empty)
    }

    /// The server with its default (paper-chosen) wax placement filled with
    /// `material`.
    pub fn with_wax(spec: ServerSpec, material: &PcmMaterial) -> Self {
        let placement = spec.default_wax().clone();
        Self::with_wax_placement(spec, material, &placement)
    }

    /// The server with a specific wax placement.
    pub fn with_wax_placement(
        spec: ServerSpec,
        material: &PcmMaterial,
        placement: &WaxPlacement,
    ) -> Self {
        let bay = Bay::Wax {
            bank: placement.bank(),
            material: material.clone(),
            blockage: placement.added_blockage,
        };
        Self::build(spec, bay)
    }

    /// The §3 placebo: the default placement's boxes, empty of wax.
    pub fn with_placebo(spec: ServerSpec) -> Self {
        let blockage = spec.default_wax().added_blockage;
        Self::build(spec, Bay::Placebo { blockage })
    }

    /// The §3 placebo for an explicit placement.
    pub fn with_placebo_placement(spec: ServerSpec, placement: &WaxPlacement) -> Self {
        Self::build(
            spec,
            Bay::Placebo {
                blockage: placement.added_blockage,
            },
        )
    }

    /// A uniform grille of the given blockage (the Figure 7 sweeps).
    pub fn with_grille(spec: ServerSpec, blockage: Fraction) -> Self {
        Self::build(spec, Bay::Grille { blockage })
    }

    fn build(spec: ServerSpec, bay: Bay) -> Self {
        let fan = FanCurve::new(spec.fan_stall_pressure, spec.fan_free_flow);
        let flow_path = FlowPath::new(fan, spec.fans.count, spec.base_impedance, spec.duct_area)
            .with_orifice_zeta(spec.orifice_zeta);

        let t0 = spec.inlet_temp;
        let mut net = ThermalNetwork::new();
        let inlet = net.add_boundary("inlet", t0);
        let front = net.add_air("front air", t0);
        let bypass = net.add_air("bypass air", t0);
        let merge = net.add_air("merge air", t0);
        let outlet = net.add_boundary("outlet", t0);
        let waxzone = net.add_air("wax zone air", t0);

        let sockets = spec.cpu.sockets;
        let mut hot = Vec::with_capacity(sockets);
        let mut cpu_nodes = Vec::with_capacity(sockets);
        let mut cpu_sink_edges = Vec::with_capacity(sockets);
        for s in 0..sockets {
            let air = net.add_air(format!("hot lane {s}"), t0);
            let cpu = net.add_capacitive(
                format!("socket {}", s + 1),
                JoulesPerKelvin::new(capacitance::CPU_SOCKET),
                t0,
            );
            let edge = net.connect(cpu, air, WattsPerKelvin::new(spec.cpu_sink_conductance));
            hot.push(air);
            cpu_nodes.push(cpu);
            cpu_sink_edges.push(edge);
        }

        let dram = net.add_capacitive("dram", JoulesPerKelvin::new(capacitance::DRAM), t0);
        net.connect(dram, front, WattsPerKelvin::new(3.0));
        let drives = net.add_capacitive("drives", JoulesPerKelvin::new(capacitance::DRIVES), t0);
        let drives_air = if spec.drives_downstream { merge } else { front };
        net.connect(drives, drives_air, WattsPerKelvin::new(3.0));
        let psu = net.add_capacitive("psu", JoulesPerKelvin::new(capacitance::PSU), t0);
        net.connect(psu, merge, WattsPerKelvin::new(4.0));
        let chassis = net.add_capacitive("chassis", JoulesPerKelvin::new(capacitance::CHASSIS), t0);
        net.connect(chassis, front, WattsPerKelvin::new(6.0));

        // Air path; flows are placeholders until the first set_load.
        let unit = WattsPerKelvin::new(1.0);
        let adv_inlet_front = net.advect(inlet, front, unit);
        let mut adv_hot = Vec::new();
        let mut prev = front;
        for &h in &hot {
            adv_hot.push(net.advect(prev, h, unit));
            prev = h;
        }
        adv_hot.push(net.advect(prev, waxzone, unit));
        adv_hot.push(net.advect(waxzone, merge, unit));
        let adv_bypass = vec![
            net.advect(front, bypass, unit),
            net.advect(bypass, merge, unit),
        ];
        let adv_out = net.advect(merge, outlet, unit);

        let pcm = match &bay {
            Bay::Wax { bank, material, .. } => {
                let state = PcmState::new(material, bank.total_wax_mass(material), t0);
                Some(net.attach_pcm(waxzone, state, unit))
            }
            _ => None,
        };

        let mut model = Self {
            spec,
            net,
            bay,
            flow_path,
            inlet,
            front,
            waxzone,
            merge,
            cpu_nodes,
            dram,
            drives,
            psu,
            adv_inlet_front,
            adv_hot,
            adv_bypass,
            adv_out,
            cpu_sink_edges,
            pcm,
            ref_velocity: MetersPerSecond::ZERO,
            utilization: Fraction::ZERO,
            freq: Fraction::ONE,
        };
        // Reference velocity: loaded, unblocked operating point.
        let ref_op = model
            .flow_path
            .operating_point(Fraction::ZERO, model.spec.fans.speed(Fraction::ONE));
        model.ref_velocity = ref_op.duct_velocity;
        model.set_load(Fraction::ZERO, Fraction::ONE);
        model
    }

    /// The current airflow operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        self.flow_path
            .operating_point(self.bay.blockage(), self.spec.fans.speed(self.utilization))
    }

    /// Sets the server's utilization and frequency (fraction of nominal),
    /// updating every power source, fan flow, and flow-dependent coupling.
    pub fn set_load(&mut self, utilization: Fraction, freq: Fraction) {
        self.utilization = utilization;
        self.freq = freq;
        let spec = &self.spec;
        let op = self
            .flow_path
            .operating_point(self.bay.blockage(), spec.fans.speed(utilization));

        // --- Flows ---
        let mcp_total = air_heat_capacity_flow(op.flow);
        let phi = spec.hot_lane_fraction.value();
        let mcp_hot = mcp_total * phi;
        let mcp_bypass = mcp_total * (1.0 - phi);
        self.net.set_advection_flow(self.adv_inlet_front, mcp_total);
        for id in &self.adv_hot {
            self.net.set_advection_flow(*id, mcp_hot);
        }
        for id in &self.adv_bypass {
            self.net.set_advection_flow(*id, mcp_bypass);
        }
        self.net.set_advection_flow(self.adv_out, mcp_total);

        // --- Powers ---
        let cpu_total = spec.cpu.power(utilization, freq);
        let per_socket = cpu_total / spec.cpu.sockets as f64;
        for &node in &self.cpu_nodes {
            self.net.set_power(node, per_socket);
        }
        self.net
            .set_power(self.dram, spec.memory.power(utilization));
        self.net
            .set_power(self.drives, spec.drives.power(utilization));
        // Lumped "other" (motherboard/IO) and fan heat dissipate into the
        // front air volume.
        let internal = spec.internal_power(utilization, freq);
        let explicit = cpu_total + spec.memory.power(utilization) + spec.drives.power(utilization);
        self.net.set_power(self.front, internal - explicit);
        // PSU conversion loss.
        self.net
            .set_power(self.psu, spec.psu.loss(internal, utilization));

        // --- Flow-dependent couplings ---
        let scale = sink_conductance_scale(op.duct_velocity, self.ref_velocity);
        for edge in &self.cpu_sink_edges {
            self.net.set_conductance(
                *edge,
                WattsPerKelvin::new(spec.cpu_sink_conductance * scale),
            );
        }
        if let (Some(pcm), Bay::Wax { bank, .. }) = (self.pcm, &self.bay) {
            let film = film_coefficient(op.gap_velocity);
            self.net.set_pcm_coupling(pcm, bank.total_conductance(film));
        }
    }

    /// Advances the model by `dt`.
    pub fn step(&mut self, dt: Seconds) {
        self.net.step(dt);
    }

    /// Runs to steady state (see [`ThermalNetwork::run_to_steady_state`]).
    pub fn run_to_steady_state(
        &mut self,
        dt: Seconds,
        tol_k: f64,
        max: Seconds,
    ) -> Option<Seconds> {
        self.net.run_to_steady_state(dt, tol_k, max)
    }

    /// Mixed outlet air temperature (after the PSU).
    pub fn outlet_temp(&self) -> Celsius {
        self.net.temperature(self.merge)
    }

    /// Air temperature in the wax zone (the paper's "near the box" TEMPer1
    /// sensors).
    pub fn wax_air_temp(&self) -> Celsius {
        self.net.temperature(self.waxzone)
    }

    /// Front air volume temperature.
    pub fn front_air_temp(&self) -> Celsius {
        self.net.temperature(self.front)
    }

    /// CPU package temperature of socket `s` (0-based).
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn cpu_temp(&self, s: usize) -> Celsius {
        self.net.temperature(self.cpu_nodes[s])
    }

    /// Hottest socket temperature.
    pub fn max_cpu_temp(&self) -> Celsius {
        (0..self.spec.cpu.sockets)
            .map(|s| self.cpu_temp(s))
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Wax melt fraction (zero when no wax installed).
    pub fn melt_fraction(&self) -> Fraction {
        self.pcm
            .map(|id| self.net.pcm(id).melt_fraction())
            .unwrap_or(Fraction::ZERO)
    }

    /// Heat currently absorbed by the wax (negative while releasing; zero
    /// when no wax installed).
    pub fn wax_heat_flow(&self) -> Watts {
        self.pcm
            .map(|id| self.net.pcm_heat_flow(id))
            .unwrap_or(Watts::ZERO)
    }

    /// Latent capacity of the installed wax.
    pub fn wax_latent_capacity(&self) -> Joules {
        self.pcm
            .map(|id| self.net.pcm(id).latent_capacity())
            .unwrap_or(Joules::ZERO)
    }

    /// The wax state, if installed.
    pub fn pcm_state(&self) -> Option<&PcmState> {
        self.pcm.map(|id| self.net.pcm(id))
    }

    /// Current air-to-wax coupling conductance at this operating point.
    pub fn wax_coupling(&self) -> WattsPerKelvin {
        match &self.bay {
            Bay::Wax { bank, .. } => {
                let op = self.operating_point();
                bank.total_conductance(film_coefficient(op.gap_velocity))
            }
            _ => WattsPerKelvin::ZERO,
        }
    }

    /// Wall power at the current load.
    pub fn wall_power(&self) -> Watts {
        self.spec.wall_power(self.utilization, self.freq)
    }

    /// Heat leaving through the exhaust relative to the inlet (cooling
    /// load contribution of this server).
    pub fn exhaust_heat(&self) -> Watts {
        self.net.exhaust_heat(self.inlet)
    }

    /// Current utilization.
    pub fn utilization(&self) -> Fraction {
        self.utilization
    }

    /// Current frequency fraction.
    pub fn freq(&self) -> Fraction {
        self.freq
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Direct access to probe arbitrary nodes (validation/reference use).
    pub fn network(&self) -> &ThermalNetwork {
        &self.net
    }

    /// Routes the underlying network's hot-path telemetry (steps, cache
    /// rebuilds, settle iterations) to `sink`; see
    /// [`ThermalNetwork::set_metrics`].
    pub fn set_metrics(&mut self, sink: &tts_obs::MetricsSink) {
        self.net.set_metrics(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ServerClass, ServerSpec};

    fn settle(m: &mut ServerThermalModel) {
        m.run_to_steady_state(Seconds::new(20.0), 1e-5, Seconds::new(5e5))
            .expect("steady state must be reached");
    }

    #[test]
    fn rd330_idle_and_loaded_temperatures_are_sane() {
        let mut m = ServerThermalModel::new(ServerSpec::rd330_1u());
        m.set_load(Fraction::ZERO, Fraction::ONE);
        settle(&mut m);
        let idle_wax_air = m.wax_air_temp().value();
        assert!(
            (26.0..36.0).contains(&idle_wax_air),
            "idle wax-zone air {idle_wax_air}"
        );

        m.set_load(Fraction::ONE, Fraction::ONE);
        settle(&mut m);
        let loaded_wax_air = m.wax_air_temp().value();
        let cpu = m.max_cpu_temp().value();
        assert!(
            (40.0..55.0).contains(&loaded_wax_air),
            "loaded wax-zone air {loaded_wax_air}"
        );
        assert!((65.0..95.0).contains(&cpu), "loaded CPU {cpu}");
        // The §3 temperature swing brackets the 39 °C retail wax.
        assert!(idle_wax_air < 39.0 && loaded_wax_air > 39.0);
    }

    #[test]
    fn open_compute_runs_hot() {
        let mut m = ServerThermalModel::new(ServerSpec::open_compute_blade());
        m.set_load(Fraction::ONE, Fraction::ONE);
        settle(&mut m);
        // §4.1: air behind socket 2 measured at 68 °C.
        let outlet = m.outlet_temp().value();
        let behind_sockets = m.wax_air_temp().value();
        assert!((60.0..80.0).contains(&outlet), "outlet {outlet}");
        assert!(
            (60.0..85.0).contains(&behind_sockets),
            "behind sockets {behind_sockets}"
        );
    }

    #[test]
    fn downstream_sockets_run_hotter() {
        let mut m = ServerThermalModel::new(ServerSpec::x4470_2u());
        m.set_load(Fraction::ONE, Fraction::ONE);
        settle(&mut m);
        let t1 = m.cpu_temp(0).value();
        let t4 = m.cpu_temp(3).value();
        assert!(t4 > t1 + 1.0, "socket 4 {t4} vs socket 1 {t1}");
    }

    #[test]
    fn wax_depresses_heatup_and_melts_under_load() {
        let spec = ServerSpec::rd330_1u();
        let wax_mat = tts_pcm::PcmMaterial::validation_wax();
        let mut with_wax = ServerThermalModel::with_wax(spec.clone(), &wax_mat);
        let mut placebo = ServerThermalModel::with_placebo(spec);

        // Settle both at idle, then load and compare the first hour.
        for m in [&mut with_wax, &mut placebo] {
            m.set_load(Fraction::ZERO, Fraction::ONE);
            settle(m);
            m.set_load(Fraction::ONE, Fraction::ONE);
        }
        let mut depressed = 0;
        let mut total = 0;
        for _ in 0..360 {
            with_wax.step(Seconds::new(30.0));
            placebo.step(Seconds::new(30.0));
            total += 1;
            if with_wax.wax_air_temp() < placebo.wax_air_temp() {
                depressed += 1;
            }
        }
        assert!(
            depressed > total / 2,
            "wax should depress heat-up temperatures ({depressed}/{total})"
        );
        assert!(
            with_wax.melt_fraction().value() > 0.05,
            "wax should begin melting"
        );
        assert_eq!(placebo.melt_fraction(), Fraction::ZERO);
    }

    #[test]
    fn wax_fully_melts_within_hours_at_full_load() {
        let wax_mat = tts_pcm::PcmMaterial::validation_wax();
        let mut m = ServerThermalModel::with_wax(ServerSpec::rd330_1u(), &wax_mat);
        m.set_load(Fraction::ZERO, Fraction::ONE);
        settle(&mut m);
        m.set_load(Fraction::ONE, Fraction::ONE);
        let mut hours_to_melt = None;
        for i in 0..(16 * 60) {
            m.step(Seconds::new(60.0));
            if m.melt_fraction().value() > 0.99 {
                hours_to_melt = Some(i as f64 / 60.0);
                break;
            }
        }
        let h = hours_to_melt.expect("1.2 L of wax must fully melt within 16 h at full load");
        assert!(h > 0.5, "melting should take macroscopic time, got {h} h");
    }

    #[test]
    fn placebo_blockage_raises_temperatures() {
        let spec = ServerSpec::rd330_1u();
        let mut bare = ServerThermalModel::new(spec.clone());
        let mut placebo = ServerThermalModel::with_placebo(spec);
        for m in [&mut bare, &mut placebo] {
            m.set_load(Fraction::ONE, Fraction::ONE);
            settle(m);
        }
        assert!(
            placebo.wax_air_temp().value() > bare.wax_air_temp().value() + 0.5,
            "70 % blockage must raise the wax-zone temperature: {} vs {}",
            placebo.wax_air_temp().value(),
            bare.wax_air_temp().value()
        );
    }

    #[test]
    fn fan_speed_rises_with_load() {
        let m_idle = {
            let mut m = ServerThermalModel::new(ServerSpec::rd330_1u());
            m.set_load(Fraction::ZERO, Fraction::ONE);
            m.operating_point().flow
        };
        let m_load = {
            let mut m = ServerThermalModel::new(ServerSpec::rd330_1u());
            m.set_load(Fraction::ONE, Fraction::ONE);
            m.operating_point().flow
        };
        assert!(m_load.value() > m_idle.value());
    }

    #[test]
    fn throttled_server_runs_cooler() {
        let spec = ServerSpec::x4470_2u();
        let mut full = ServerThermalModel::new(spec.clone());
        full.set_load(Fraction::ONE, Fraction::ONE);
        settle(&mut full);
        let mut throttled = ServerThermalModel::new(spec.clone());
        throttled.set_load(Fraction::ONE, spec.cpu.throttle_ratio());
        settle(&mut throttled);
        assert!(
            throttled.max_cpu_temp().value() < full.max_cpu_temp().value() - 5.0,
            "downclocking must cool the CPUs substantially"
        );
    }

    #[test]
    fn exhaust_heat_matches_wall_power_at_steady_state() {
        for class in ServerClass::ALL {
            let mut m = ServerThermalModel::new(class.spec());
            m.set_load(Fraction::new(0.7), Fraction::ONE);
            settle(&mut m);
            let wall = m.wall_power().value();
            let exhaust = m.exhaust_heat().value();
            let internal = m
                .spec()
                .internal_power(Fraction::new(0.7), Fraction::ONE)
                .value();
            let psu_loss = wall - internal;
            // Everything dissipated inside (internal + PSU loss = wall)
            // leaves through the exhaust at steady state.
            assert!(
                (exhaust - (internal + psu_loss)).abs() < 0.5,
                "{class}: exhaust {exhaust} vs wall {wall}"
            );
        }
    }

    #[test]
    fn every_server_model_passes_the_structural_audit() {
        // Flow continuity and boundary anchoring for all classes and all
        // bay configurations — the audit would catch a miswired air path.
        let wax_mat = tts_pcm::PcmMaterial::validation_wax();
        for class in ServerClass::ALL {
            let spec = class.spec();
            let models = [
                ServerThermalModel::new(spec.clone()),
                ServerThermalModel::with_placebo(spec.clone()),
                ServerThermalModel::with_wax(spec.clone(), &wax_mat),
                ServerThermalModel::with_grille(spec, Fraction::new(0.5)),
            ];
            for m in &models {
                let findings = tts_thermal::audit(m.network());
                assert!(findings.is_empty(), "{class}: {findings:?}");
            }
        }
    }

    #[test]
    fn wax_coupling_is_positive_only_with_wax() {
        let wax_mat = tts_pcm::PcmMaterial::validation_wax();
        let with_wax = ServerThermalModel::with_wax(ServerSpec::rd330_1u(), &wax_mat);
        let bare = ServerThermalModel::new(ServerSpec::rd330_1u());
        assert!(with_wax.wax_coupling().value() > 1.0);
        assert_eq!(bare.wax_coupling(), WattsPerKelvin::ZERO);
        assert_eq!(bare.wax_heat_flow(), Watts::ZERO);
        assert_eq!(bare.wax_latent_capacity(), Joules::ZERO);
        assert!(bare.pcm_state().is_none());
    }
}
