//! Direct steady-state solution of a thermal network.
//!
//! Transient settling (`run_to_steady_state`) costs thousands of steps;
//! the steady state itself is just the solution of one linear system — at
//! equilibrium every node's heat balance is zero, so capacitances drop out
//! and solids become algebraic like the air nodes. This module solves that
//! system directly. Its one production caller is [`crate::audit()`];
//! characteristics extraction and the Figure 7 blockage sweep settle
//! transiently. The bench suite ablates it against transient settling.
//!
//! PCM elements are excluded by construction: a network with latent
//! storage has no unique steady state while the wax is mid-transition, so
//! [`solve_steady_state`] treats attached PCM as absent (its long-run
//! equilibrium contribution is zero once the wax saturates at the local
//! air temperature).

use crate::linalg::Matrix;
use crate::network::{NodeId, ThermalNetwork};
use tts_units::Celsius;

/// The solved equilibrium temperatures, indexed like the network's nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    temps: Vec<f64>,
}

impl SteadyState {
    /// Temperature of a node at equilibrium.
    pub fn temperature(&self, node: NodeId) -> Celsius {
        Celsius::new(self.temps[node.index()])
    }
}

/// Solves the network's steady state directly.
///
/// Returns `None` when the system is singular — some node has no path to
/// any boundary, so its equilibrium is undefined.
#[must_use = "solving has no effect besides the returned equilibrium"]
pub fn solve_steady_state(net: &ThermalNetwork) -> Option<SteadyState> {
    let n = net.node_count();
    // Unknowns: every non-boundary node.
    let unknowns: Vec<usize> = (0..n).filter(|&i| !net.is_boundary_index(i)).collect();
    let col_of: std::collections::HashMap<usize, usize> =
        unknowns.iter().enumerate().map(|(c, &i)| (i, c)).collect();
    let m = unknowns.len();
    if m == 0 {
        return Some(SteadyState {
            temps: (0..n).map(|i| net.temperature_index(i)).collect(),
        });
    }
    let mut a = Matrix::zeros(m);
    let mut rhs = vec![0.0; m];

    for (r, &i) in unknowns.iter().enumerate() {
        let mut diag = 0.0;
        rhs[r] += net.power_index(i);
        for (other, g) in net.conductance_neighbors(i) {
            diag += g;
            if let Some(&c) = col_of.get(&other) {
                a.add(r, c, -g);
            } else {
                rhs[r] += g * net.temperature_index(other);
            }
        }
        for (upstream, mcp) in net.advection_inflows(i) {
            diag += mcp;
            if let Some(&c) = col_of.get(&upstream) {
                a.add(r, c, -mcp);
            } else {
                rhs[r] += mcp * net.temperature_index(upstream);
            }
        }
        if diag == 0.0 {
            return None;
        }
        a.add(r, r, diag);
    }

    if !a.solve_in_place(&mut rhs) {
        return None;
    }
    let mut temps: Vec<f64> = (0..n).map(|i| net.temperature_index(i)).collect();
    for (r, &i) in unknowns.iter().enumerate() {
        temps[i] = rhs[r];
    }
    Some(SteadyState { temps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_units::{
        air_heat_capacity_flow, CubicMetersPerSecond, JoulesPerKelvin, Seconds, Watts,
        WattsPerKelvin,
    };

    fn rig() -> (ThermalNetwork, NodeId, NodeId) {
        let mut net = ThermalNetwork::new();
        let inlet = net.add_boundary("inlet", Celsius::new(25.0));
        let air = net.add_air("air", Celsius::new(25.0));
        let outlet = net.add_boundary("outlet", Celsius::new(25.0));
        let cpu = net.add_capacitive("cpu", JoulesPerKelvin::new(500.0), Celsius::new(25.0));
        let mcp = air_heat_capacity_flow(CubicMetersPerSecond::new(0.02));
        net.advect(inlet, air, mcp);
        net.advect(air, outlet, mcp);
        net.connect(cpu, air, WattsPerKelvin::new(2.0));
        net.set_power(cpu, Watts::new(46.0));
        (net, air, cpu)
    }

    #[test]
    fn direct_solution_matches_transient_settling() {
        let (mut net, air, cpu) = rig();
        let direct = solve_steady_state(&net).expect("solvable");
        net.run_to_steady_state(Seconds::new(5.0), 1e-7, Seconds::new(1e7))
            .expect("settles");
        assert!(
            (direct.temperature(air).value() - net.temperature(air).value()).abs() < 1e-3,
            "air: direct {} vs settled {}",
            direct.temperature(air),
            net.temperature(air)
        );
        assert!(
            (direct.temperature(cpu).value() - net.temperature(cpu).value()).abs() < 1e-3,
            "cpu: direct {} vs settled {}",
            direct.temperature(cpu),
            net.temperature(cpu)
        );
    }

    #[test]
    fn matches_hand_computed_equilibrium() {
        let (net, air, cpu) = rig();
        let s = solve_steady_state(&net).unwrap();
        let mcp = air_heat_capacity_flow(CubicMetersPerSecond::new(0.02)).value();
        assert!((s.temperature(air).value() - (25.0 + 46.0 / mcp)).abs() < 1e-9);
        assert!((s.temperature(cpu).value() - (25.0 + 46.0 / mcp + 23.0)).abs() < 1e-9);
    }

    #[test]
    fn isolated_node_is_singular() {
        let mut net = ThermalNetwork::new();
        net.add_boundary("amb", Celsius::new(20.0));
        net.add_capacitive("floating", JoulesPerKelvin::new(10.0), Celsius::new(50.0));
        assert!(solve_steady_state(&net).is_none());
    }

    #[test]
    fn boundary_only_network_is_trivial() {
        let mut net = ThermalNetwork::new();
        let b = net.add_boundary("amb", Celsius::new(21.0));
        let s = solve_steady_state(&net).unwrap();
        assert_eq!(s.temperature(b), Celsius::new(21.0));
    }
}
