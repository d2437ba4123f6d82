//! The RC thermal network with quasi-steady air nodes and PCM elements.

use crate::linalg::Matrix;
use tts_obs::{Counter, Histogram, MetricsSink};
use tts_pcm::PcmState;
use tts_units::{Celsius, JoulesPerKelvin, Seconds, Watts, WattsPerKelvin};

/// Sentinel for "this node has no column in the dense air/solid maps".
const NO_COL: usize = usize::MAX;

/// Bucket edges for the settle-iteration histogram: decade-ish spacing
/// covering "converged immediately" through "hit max_time".
const SETTLE_EDGES: [f64; 10] = [
    10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0, 100_000.0, 300_000.0,
];

/// Resolved metric handles for the network hot paths (disabled no-ops by
/// default). All three are thread-invariant totals, so they register as
/// [`tts_obs::Determinism::Deterministic`]: step and rebuild counts are
/// relaxed-add totals that commute, and each settle-iteration observation
/// is a per-call value independent of how sweeps are partitioned.
#[derive(Debug, Clone, Default)]
struct NetObs {
    steps: Counter,
    rebuilds: Counter,
    settle_iterations: Histogram,
}

/// Handle to a node in a [`ThermalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw node index (for crate-internal solvers/audits).
    pub(crate) fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index (crate-internal).
    pub(crate) fn from_index(i: usize) -> Self {
        NodeId(i)
    }
}

/// Handle to a PCM element attached to a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcmId(usize);

/// Handle to an advection (air-stream) edge, used to change flow at runtime
/// (fan speed steps, blockage changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdvectionId(usize);

/// Handle to a conductance edge, used to change coupling at runtime
/// (heat-sink conductance degrading as airflow drops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

#[derive(Debug, Clone, Copy, PartialEq)]
enum NodeKind {
    /// A solid with thermal mass (J/K). Integrated in time.
    Capacitive { capacitance: f64 },
    /// An air volume, solved quasi-steadily each step.
    Air,
    /// A fixed-temperature boundary (inlet air, ambient, exhaust sink).
    Boundary,
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
    temp: f64,
    power: f64,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    a: usize,
    b: usize,
    g: f64,
}

#[derive(Debug, Clone, Copy)]
struct Advection {
    from: usize,
    to: usize,
    mcp: f64,
}

#[derive(Debug, Clone)]
struct PcmElement {
    node: usize,
    state: PcmState,
    coupling: f64,
    last_heat: f64,
}

/// Cached solver structure and scratch buffers, rebuilt lazily whenever
/// the network topology changes (`adjacency_dirty`).
///
/// The structure half (node classification, dense column maps, per-node
/// incidence lists) turns the per-step `solve_air` from O(edges ×
/// air_nodes) full scans with a fresh `HashMap` into direct indexed
/// walks. The scratch half (matrix, RHS, solid buffer) is what
/// makes a warm stepping loop allocation-free: every buffer is grown once
/// at rebuild and recycled thereafter.
///
/// Incidence lists are built in ascending edge/advection/PCM index order
/// so per-row floating-point accumulation happens in exactly the order
/// the original full scans used — the golden-figure tests pin results to
/// the last ulp.
#[derive(Debug, Clone, Default)]
struct SolverCache {
    /// Indices of air nodes, ascending.
    air_nodes: Vec<usize>,
    /// node index → air-matrix column, [`NO_COL`] for non-air nodes.
    col_of: Vec<usize>,
    /// air column → incident edge indices, ascending.
    air_edges: Vec<Vec<usize>>,
    /// air column → advection indices flowing *into* the node, ascending.
    air_advections: Vec<Vec<usize>>,
    /// node index → attached PCM element indices, ascending.
    node_pcm: Vec<Vec<usize>>,
    /// Indices of capacitive nodes, ascending.
    solid_ids: Vec<usize>,
    /// Capacitance per solid, aligned with `solid_ids`.
    solid_caps: Vec<f64>,
    /// Air-balance matrix, refilled in place each step.
    matrix: Matrix,
    /// Air-balance RHS; holds the solved temperatures after the solve.
    rhs: Vec<f64>,
    /// Per-solid scratch: the step's new temperatures.
    solid_scratch: Vec<f64>,
    /// Previous temperatures for the steady-state convergence check.
    settle_prev: Vec<f64>,
}

/// A lumped thermal network: the Icepak substitute.
///
/// Three node kinds (capacitive solids, quasi-steady air, fixed boundaries),
/// conductance edges between any nodes, directional ṁ·cp advection edges
/// along the air path, and PCM elements attached to nodes. See the crate
/// docs for a worked example.
#[derive(Debug, Clone)]
pub struct ThermalNetwork {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    advections: Vec<Advection>,
    pcm: Vec<PcmElement>,
    time: f64,
    /// node index → adjacent (edge index) list, rebuilt lazily.
    adjacency: Vec<Vec<usize>>,
    adjacency_dirty: bool,
    /// Cached solver structure + scratch, rebuilt with `adjacency`.
    cache: SolverCache,
    /// Metric handles (no-ops until [`Self::set_metrics`]). Clones of the
    /// network share the underlying cells.
    obs: NetObs,
}

impl Default for ThermalNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl ThermalNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
            advections: Vec::new(),
            pcm: Vec::new(),
            time: 0.0,
            adjacency: Vec::new(),
            adjacency_dirty: true,
            cache: SolverCache::default(),
            obs: NetObs::default(),
        }
    }

    /// Points the network's hot-path telemetry at `sink`: `thermal.steps`
    /// and `thermal.cache_rebuilds` counters plus a
    /// `thermal.settle_iterations` histogram (steps taken per
    /// [`Self::run_to_steady_state`] call). A disabled sink (the default)
    /// detaches — every record becomes a no-op branch.
    pub fn set_metrics(&mut self, sink: &MetricsSink) {
        self.obs = NetObs {
            steps: sink.counter("thermal.steps"),
            rebuilds: sink.counter("thermal.cache_rebuilds"),
            settle_iterations: sink.histogram("thermal.settle_iterations", &SETTLE_EDGES),
        };
    }

    /// Adds a solid node with heat capacity `capacitance` at `initial`.
    ///
    /// # Panics
    /// Panics if the capacitance is not positive.
    pub fn add_capacitive(
        &mut self,
        name: impl Into<String>,
        capacitance: JoulesPerKelvin,
        initial: Celsius,
    ) -> NodeId {
        assert!(
            capacitance.value() > 0.0,
            "capacitance must be positive; use add_air for massless volumes"
        );
        self.push_node(
            name.into(),
            NodeKind::Capacitive {
                capacitance: capacitance.value(),
            },
            initial,
        )
    }

    /// Adds a quasi-steady air node.
    pub fn add_air(&mut self, name: impl Into<String>, initial: Celsius) -> NodeId {
        self.push_node(name.into(), NodeKind::Air, initial)
    }

    /// Adds a fixed-temperature boundary node.
    pub fn add_boundary(&mut self, name: impl Into<String>, temperature: Celsius) -> NodeId {
        self.push_node(name.into(), NodeKind::Boundary, temperature)
    }

    fn push_node(&mut self, name: String, kind: NodeKind, initial: Celsius) -> NodeId {
        self.nodes.push(Node {
            name,
            kind,
            temp: initial.value(),
            power: 0.0,
        });
        self.adjacency_dirty = true;
        NodeId(self.nodes.len() - 1)
    }

    /// Connects two nodes with a thermal conductance. Returns a handle for
    /// later adjustment via [`Self::set_conductance`].
    ///
    /// # Panics
    /// Panics on a negative conductance or a self-loop.
    pub fn connect(&mut self, a: NodeId, b: NodeId, g: WattsPerKelvin) -> EdgeId {
        assert!(g.value() >= 0.0, "conductance must be non-negative");
        assert_ne!(a, b, "self-loop conductance is meaningless");
        self.edges.push(Edge {
            a: a.0,
            b: b.0,
            g: g.value(),
        });
        self.adjacency_dirty = true;
        EdgeId(self.edges.len() - 1)
    }

    /// Updates an edge's conductance (e.g. a heat sink losing effectiveness
    /// as airflow drops).
    pub fn set_conductance(&mut self, id: EdgeId, g: WattsPerKelvin) {
        assert!(g.value() >= 0.0, "conductance must be non-negative");
        self.edges[id.0].g = g.value();
    }

    /// Adds a directional air stream carrying `mcp` (W/K) of heat-capacity
    /// flow from `from` to `to`.
    ///
    /// # Panics
    /// Panics if either endpoint is a capacitive node — advection models
    /// bulk air motion, which only makes sense between air/boundary nodes.
    pub fn advect(&mut self, from: NodeId, to: NodeId, mcp: WattsPerKelvin) -> AdvectionId {
        for (label, id) in [("from", from), ("to", to)] {
            assert!(
                !matches!(self.nodes[id.0].kind, NodeKind::Capacitive { .. }),
                "advection {label}-endpoint {:?} is a solid node",
                self.nodes[id.0].name
            );
        }
        assert!(mcp.value() >= 0.0, "advective flow must be non-negative");
        self.advections.push(Advection {
            from: from.0,
            to: to.0,
            mcp: mcp.value(),
        });
        self.adjacency_dirty = true;
        AdvectionId(self.advections.len() - 1)
    }

    /// Attaches a PCM element to a node through the given lumped air-to-wax
    /// conductance. Returns a handle for querying the wax state.
    pub fn attach_pcm(&mut self, node: NodeId, state: PcmState, coupling: WattsPerKelvin) -> PcmId {
        assert!(coupling.value() >= 0.0, "PCM coupling must be non-negative");
        self.pcm.push(PcmElement {
            node: node.0,
            state,
            coupling: coupling.value(),
            last_heat: 0.0,
        });
        self.adjacency_dirty = true;
        PcmId(self.pcm.len() - 1)
    }

    /// Sets the heat dissipated into a node (CPU power, drive power, ...).
    pub fn set_power(&mut self, node: NodeId, power: Watts) {
        self.nodes[node.0].power = power.value();
    }

    /// Current heat dissipated into a node.
    pub fn power(&self, node: NodeId) -> Watts {
        Watts::new(self.nodes[node.0].power)
    }

    /// Updates a boundary node's fixed temperature.
    ///
    /// # Panics
    /// Panics if the node is not a boundary.
    pub fn set_boundary_temp(&mut self, node: NodeId, temperature: Celsius) {
        assert!(
            matches!(self.nodes[node.0].kind, NodeKind::Boundary),
            "set_boundary_temp on non-boundary node {:?}",
            self.nodes[node.0].name
        );
        self.nodes[node.0].temp = temperature.value();
    }

    /// Updates the heat-capacity flow on an advection edge (fan steps,
    /// blockage changes).
    pub fn set_advection_flow(&mut self, id: AdvectionId, mcp: WattsPerKelvin) {
        assert!(mcp.value() >= 0.0, "advective flow must be non-negative");
        self.advections[id.0].mcp = mcp.value();
    }

    /// Updates a PCM element's air-to-wax coupling (convection changes with
    /// airflow).
    pub fn set_pcm_coupling(&mut self, id: PcmId, coupling: WattsPerKelvin) {
        assert!(coupling.value() >= 0.0, "PCM coupling must be non-negative");
        self.pcm[id.0].coupling = coupling.value();
    }

    /// Current temperature of a node.
    pub fn temperature(&self, node: NodeId) -> Celsius {
        Celsius::new(self.nodes[node.0].temp)
    }

    /// Node name (for reporting).
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The attached PCM state.
    pub fn pcm(&self, id: PcmId) -> &PcmState {
        &self.pcm[id.0].state
    }

    /// Heat absorbed by a PCM element during the last step (positive =
    /// melting/absorbing).
    pub fn pcm_heat_flow(&self, id: PcmId) -> Watts {
        Watts::new(self.pcm[id.0].last_heat)
    }

    /// Simulation time.
    pub fn time(&self) -> Seconds {
        Seconds::new(self.time)
    }

    fn rebuild_caches(&mut self) {
        if !self.adjacency_dirty {
            return;
        }
        // Past the early return: this counts *real* rebuilds only, not the
        // cheap dirty-flag checks every step performs.
        self.obs.rebuilds.incr();
        let n_nodes = self.nodes.len();
        self.adjacency = vec![Vec::new(); n_nodes];
        for (ei, e) in self.edges.iter().enumerate() {
            self.adjacency[e.a].push(ei);
            self.adjacency[e.b].push(ei);
        }

        let c = &mut self.cache;
        c.air_nodes.clear();
        c.solid_ids.clear();
        c.solid_caps.clear();
        c.col_of.clear();
        c.col_of.resize(n_nodes, NO_COL);
        for (i, node) in self.nodes.iter().enumerate() {
            match node.kind {
                NodeKind::Air => {
                    c.col_of[i] = c.air_nodes.len();
                    c.air_nodes.push(i);
                }
                NodeKind::Capacitive { capacitance } => {
                    c.solid_ids.push(i);
                    c.solid_caps.push(capacitance);
                }
                NodeKind::Boundary => {}
            }
        }

        let n_air = c.air_nodes.len();
        c.air_edges = vec![Vec::new(); n_air];
        for (ei, e) in self.edges.iter().enumerate() {
            for node in [e.a, e.b] {
                let col = c.col_of[node];
                if col != NO_COL {
                    c.air_edges[col].push(ei);
                }
            }
        }
        c.air_advections = vec![Vec::new(); n_air];
        for (ai, adv) in self.advections.iter().enumerate() {
            let col = c.col_of[adv.to];
            if col != NO_COL {
                c.air_advections[col].push(ai);
            }
        }
        c.node_pcm = vec![Vec::new(); n_nodes];
        for (pi, p) in self.pcm.iter().enumerate() {
            c.node_pcm[p.node].push(pi);
        }

        // Pre-size every scratch buffer so the first clean step — and all
        // later ones — touch the allocator not at all.
        c.matrix.reset_zeros(n_air);
        c.rhs.clear();
        c.rhs.resize(n_air, 0.0);
        c.solid_scratch.clear();
        c.solid_scratch.reserve(c.solid_ids.len());
        c.settle_prev.clear();
        c.settle_prev.reserve(n_nodes);

        self.adjacency_dirty = false;
    }

    /// Solves the quasi-steady air balance given current solid/boundary
    /// temperatures and PCM states, writing the solved temperatures back
    /// into the air nodes. Uses the structure and buffers in `cache`
    /// (moved out of `self` by [`Self::step`]).
    ///
    /// # Panics
    /// Panics if the air system is singular — an air node with no thermal
    /// connection at all, which is a model-construction bug.
    fn solve_air(&mut self, cache: &mut SolverCache) {
        let n = cache.air_nodes.len();
        if n == 0 {
            return;
        }
        cache.matrix.reset_zeros(n);
        cache.rhs.clear();
        cache.rhs.resize(n, 0.0);

        for r in 0..n {
            let i = cache.air_nodes[r];
            let mut diag = 0.0;
            let mut rhs_r = self.nodes[i].power;
            for &ei in &cache.air_edges[r] {
                let e = self.edges[ei];
                let other = if e.a == i { e.b } else { e.a };
                diag += e.g;
                let col = cache.col_of[other];
                if col != NO_COL {
                    cache.matrix.add(r, col, -e.g);
                } else {
                    rhs_r += e.g * self.nodes[other].temp;
                }
            }
            for &ai in &cache.air_advections[r] {
                let adv = self.advections[ai];
                diag += adv.mcp;
                let col = cache.col_of[adv.from];
                if col != NO_COL {
                    cache.matrix.add(r, col, -adv.mcp);
                } else {
                    rhs_r += adv.mcp * self.nodes[adv.from].temp;
                }
            }
            for &pi in &cache.node_pcm[i] {
                let p = &self.pcm[pi];
                diag += p.coupling;
                rhs_r += p.coupling * p.state.temperature().value();
            }
            // Each RHS entry is written exactly once: either the held
            // temperature (isolated node — accumulated power must not
            // leak in) or the accumulated source terms.
            if diag == 0.0 {
                cache.matrix.set(r, r, 1.0);
                cache.rhs[r] = self.nodes[i].temp;
            } else {
                cache.matrix.add(r, r, diag);
                cache.rhs[r] = rhs_r;
            }
        }

        assert!(
            cache.matrix.solve_in_place(&mut cache.rhs),
            "air balance singular: an air node lacks thermal connections"
        );
        for (r, &i) in cache.air_nodes.iter().enumerate() {
            self.nodes[i].temp = cache.rhs[r];
        }
    }

    /// Advances the network by `dt`.
    ///
    /// Sequence: (1) solve air quasi-steadily, (2) integrate solid nodes,
    /// (3) step PCM elements against their node's solved temperature.
    ///
    /// Solids advance by exponential Euler: each relaxes toward its local
    /// equilibrium temperature with the other nodes held at their values
    /// from step (1). That is exact for an isolated RC node and stable
    /// at any `dt`.
    pub fn step(&mut self, dt: Seconds) {
        let dt_s = dt.value();
        assert!(dt_s > 0.0, "step requires a positive dt");
        self.obs.steps.incr();
        self.rebuild_caches();
        // Move the cache out so its buffers can be borrowed mutably while
        // `self` is read. Should a solver panic unwind past us before the
        // restore below, the re-set dirty flag forces a clean rebuild.
        let mut cache = std::mem::take(&mut self.cache);
        self.adjacency_dirty = true;
        self.solve_air(&mut cache);

        cache.solid_scratch.clear();
        for (k, &i) in cache.solid_ids.iter().enumerate() {
            let cap = cache.solid_caps[k];
            let mut g_tot = 0.0;
            let mut g_t_sum = 0.0;
            for &ei in &self.adjacency[i] {
                let e = self.edges[ei];
                let other = if e.a == i { e.b } else { e.a };
                g_tot += e.g;
                g_t_sum += e.g * self.nodes[other].temp;
            }
            for &pi in &cache.node_pcm[i] {
                let p = &self.pcm[pi];
                g_tot += p.coupling;
                g_t_sum += p.coupling * p.state.temperature().value();
            }
            let t = self.nodes[i].temp;
            let t_new = if g_tot <= 0.0 {
                t + self.nodes[i].power * dt_s / cap
            } else {
                let t_eq = (g_t_sum + self.nodes[i].power) / g_tot;
                t_eq + (t - t_eq) * (-g_tot * dt_s / cap).exp()
            };
            cache.solid_scratch.push(t_new);
        }
        for (k, &i) in cache.solid_ids.iter().enumerate() {
            self.nodes[i].temp = cache.solid_scratch[k];
        }

        self.cache = cache;
        self.adjacency_dirty = false;

        // PCM elements relax against their node's solved temperature.
        for p in &mut self.pcm {
            let t_node = Celsius::new(self.nodes[p.node].temp);
            let q = p.state.step(t_node, WattsPerKelvin::new(p.coupling), dt);
            p.last_heat = q.value();
        }

        self.time += dt_s;
    }

    /// Runs the network until solid temperatures change by less than
    /// `tol_k` per step (steady state), up to `max_time`. Returns the time
    /// taken to converge, or `None` if `max_time` elapsed first.
    pub fn run_to_steady_state(
        &mut self,
        dt: Seconds,
        tol_k: f64,
        max_time: Seconds,
    ) -> Option<Seconds> {
        let start = self.time;
        // Reuse one buffer for the convergence check across all steps
        // (moved out because `step` itself takes the cache).
        let mut before = std::mem::take(&mut self.cache.settle_prev);
        let mut iterations: u64 = 0;
        let result = loop {
            before.clear();
            before.extend(self.nodes.iter().map(|n| n.temp));
            self.step(dt);
            iterations += 1;
            let max_delta = self
                .nodes
                .iter()
                .zip(&before)
                .map(|(n, &b)| (n.temp - b).abs())
                .fold(0.0, f64::max);
            if max_delta < tol_k {
                break Some(Seconds::new(self.time - start));
            }
            if self.time - start >= max_time.value() {
                break None;
            }
        };
        self.cache.settle_prev = before;
        self.obs.settle_iterations.record(iterations as f64);
        result
    }

    /// Heat carried out of the system by air streams terminating at
    /// boundary nodes, measured relative to `inlet`'s temperature — the
    /// quantity a datacenter cooling system must remove.
    pub fn exhaust_heat(&self, inlet: NodeId) -> Watts {
        let t_in = self.nodes[inlet.0].temp;
        let q: f64 = self
            .advections
            .iter()
            .filter(|adv| matches!(self.nodes[adv.to].kind, NodeKind::Boundary))
            .map(|adv| adv.mcp * (self.nodes[adv.from].temp - t_in))
            .sum();
        Watts::new(q)
    }

    /// Total power currently injected into the network.
    pub fn total_power(&self) -> Watts {
        Watts::new(self.nodes.iter().map(|n| n.power).sum())
    }

    // --- Raw-index introspection (used by the direct steady-state solver
    //     and the topology audit) ---

    /// Whether node `i` is a fixed-temperature boundary.
    pub(crate) fn is_boundary_index(&self, i: usize) -> bool {
        matches!(self.nodes[i].kind, NodeKind::Boundary)
    }

    /// Whether node `i` is an air node.
    pub(crate) fn is_air_index(&self, i: usize) -> bool {
        matches!(self.nodes[i].kind, NodeKind::Air)
    }

    /// Raw temperature of node `i`.
    pub(crate) fn temperature_index(&self, i: usize) -> f64 {
        self.nodes[i].temp
    }

    /// Raw power of node `i`.
    pub(crate) fn power_index(&self, i: usize) -> f64 {
        self.nodes[i].power
    }

    /// `(neighbor, conductance)` pairs for node `i`.
    pub(crate) fn conductance_neighbors(&self, i: usize) -> Vec<(usize, f64)> {
        self.edges
            .iter()
            .filter_map(|e| {
                if e.a == i {
                    Some((e.b, e.g))
                } else if e.b == i {
                    Some((e.a, e.g))
                } else {
                    None
                }
            })
            .collect()
    }

    /// `(upstream, mcp)` pairs of air streams entering node `i`.
    pub(crate) fn advection_inflows(&self, i: usize) -> Vec<(usize, f64)> {
        self.advections
            .iter()
            .filter(|adv| adv.to == i)
            .map(|adv| (adv.from, adv.mcp))
            .collect()
    }

    /// Name of node `i` (raw-index variant for audits).
    pub(crate) fn node_name_index(&self, i: usize) -> &str {
        &self.nodes[i].name
    }

    /// `(downstream, mcp)` pairs of air streams leaving node `i`.
    pub(crate) fn advection_outflows(&self, i: usize) -> Vec<(usize, f64)> {
        self.advections
            .iter()
            .filter(|adv| adv.from == i)
            .map(|adv| (adv.to, adv.mcp))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_pcm::PcmMaterial;
    use tts_units::{air_heat_capacity_flow, CubicMetersPerSecond, Grams};

    /// inlet → air → outlet with a powered solid hanging off the air node.
    fn heater_rig(power: f64, flow: f64) -> (ThermalNetwork, NodeId, NodeId, NodeId) {
        let mut net = ThermalNetwork::new();
        let inlet = net.add_boundary("inlet", Celsius::new(25.0));
        let air = net.add_air("air", Celsius::new(25.0));
        let outlet = net.add_boundary("outlet", Celsius::new(25.0));
        let cpu = net.add_capacitive("cpu", JoulesPerKelvin::new(400.0), Celsius::new(25.0));
        let mcp = air_heat_capacity_flow(CubicMetersPerSecond::new(flow));
        net.advect(inlet, air, mcp);
        net.advect(air, outlet, mcp);
        net.connect(cpu, air, WattsPerKelvin::new(2.0));
        net.set_power(cpu, Watts::new(power));
        (net, inlet, air, cpu)
    }

    #[test]
    fn steady_state_matches_energy_balance() {
        let (mut net, inlet, air, cpu) = heater_rig(46.0, 0.02);
        net.run_to_steady_state(Seconds::new(5.0), 1e-6, Seconds::new(1e6))
            .expect("must converge");
        let mcp = air_heat_capacity_flow(CubicMetersPerSecond::new(0.02)).value();
        let t_air_expected = 25.0 + 46.0 / mcp;
        assert!((net.temperature(air).value() - t_air_expected).abs() < 1e-3);
        assert!((net.temperature(cpu).value() - (t_air_expected + 23.0)).abs() < 1e-3);
        // All injected heat leaves through the exhaust.
        assert!((net.exhaust_heat(inlet).value() - 46.0).abs() < 1e-3);
    }

    #[test]
    fn metrics_count_steps_rebuilds_and_settles() {
        let (mut net, _, _, cpu) = heater_rig(46.0, 0.02);
        let sink = MetricsSink::fresh();
        net.set_metrics(&sink);
        net.step(Seconds::new(1.0));
        net.step(Seconds::new(1.0));
        assert_eq!(sink.counter("thermal.steps").value(), 2);
        // The first step rebuilt; the second hit the warm cache.
        assert_eq!(sink.counter("thermal.cache_rebuilds").value(), 1);
        // A topology change dirties the cache; the next step rebuilds.
        let amb = net.add_boundary("leak", Celsius::new(25.0));
        net.connect(cpu, amb, WattsPerKelvin::new(0.5));
        net.step(Seconds::new(1.0));
        assert_eq!(sink.counter("thermal.cache_rebuilds").value(), 2);
        // Settling records one histogram observation.
        net.run_to_steady_state(Seconds::new(5.0), 1e-6, Seconds::new(1e6))
            .expect("must converge");
        let snap = sink.snapshot(None, None).expect("enabled");
        let hist = snap
            .get("histograms")
            .and_then(|h| h.get("thermal.settle_iterations"))
            .expect("settle histogram present");
        assert_eq!(hist.get("total").and_then(|t| t.as_f64()), Some(1.0));
    }

    #[test]
    fn transient_follows_rc_time_constant() {
        // A single solid against a boundary: T(t) = T_eq + (T0-T_eq)e^(-t/RC).
        let mut net = ThermalNetwork::new();
        let amb = net.add_boundary("ambient", Celsius::new(20.0));
        let block = net.add_capacitive("block", JoulesPerKelvin::new(1000.0), Celsius::new(80.0));
        net.connect(block, amb, WattsPerKelvin::new(2.0));
        // tau = C/G = 500 s. After one tau the excess decays to 1/e.
        for _ in 0..100 {
            net.step(Seconds::new(5.0));
        }
        let expected = 20.0 + 60.0 * (-1.0f64).exp();
        assert!(
            (net.temperature(block).value() - expected).abs() < 0.1,
            "{} vs {}",
            net.temperature(block).value(),
            expected
        );
    }

    #[test]
    fn chained_air_nodes_accumulate_heat_downstream() {
        // inlet → a1 → a2 → outlet, heaters on both: downstream is hotter.
        let mut net = ThermalNetwork::new();
        let inlet = net.add_boundary("inlet", Celsius::new(25.0));
        let a1 = net.add_air("a1", Celsius::new(25.0));
        let a2 = net.add_air("a2", Celsius::new(25.0));
        let outlet = net.add_boundary("outlet", Celsius::new(25.0));
        let mcp = WattsPerKelvin::new(10.0);
        net.advect(inlet, a1, mcp);
        net.advect(a1, a2, mcp);
        net.advect(a2, outlet, mcp);
        net.set_power(a1, Watts::new(50.0));
        net.set_power(a2, Watts::new(50.0));
        net.step(Seconds::new(1.0));
        let t1 = net.temperature(a1).value();
        let t2 = net.temperature(a2).value();
        assert!((t1 - 30.0).abs() < 1e-9, "t1={t1}");
        assert!((t2 - 35.0).abs() < 1e-9, "t2={t2}");
    }

    #[test]
    fn pcm_on_air_node_flattens_downstream_temperature() {
        let mut with_wax = ThermalNetwork::new();
        let mut no_wax = ThermalNetwork::new();
        let build = |net: &mut ThermalNetwork| {
            let inlet = net.add_boundary("inlet", Celsius::new(25.0));
            let air = net.add_air("air", Celsius::new(25.0));
            let outlet = net.add_boundary("outlet", Celsius::new(25.0));
            let mcp = WattsPerKelvin::new(5.0);
            net.advect(inlet, air, mcp);
            net.advect(air, outlet, mcp);
            net.set_power(air, Watts::new(150.0)); // drives air to 55 °C
            air
        };
        let air_w = build(&mut with_wax);
        let air_n = build(&mut no_wax);
        let wax = PcmState::new(
            &PcmMaterial::validation_wax(),
            Grams::new(800.0),
            Celsius::new(25.0),
        );
        let id = with_wax.attach_pcm(air_w, wax, WattsPerKelvin::new(6.0));

        // During the first hour the melting wax keeps the air cooler.
        for _ in 0..720 {
            with_wax.step(Seconds::new(5.0));
            no_wax.step(Seconds::new(5.0));
        }
        let t_w = with_wax.temperature(air_w).value();
        let t_n = no_wax.temperature(air_n).value();
        assert!(
            t_w < t_n - 2.0,
            "wax should depress air temperature: {t_w} vs {t_n}"
        );
        assert!(with_wax.pcm(id).melt_fraction().value() > 0.0);
        assert!(with_wax.pcm_heat_flow(id).value() > 0.0);
    }

    #[test]
    fn pcm_heat_releases_after_load_drops() {
        let mut net = ThermalNetwork::new();
        let inlet = net.add_boundary("inlet", Celsius::new(25.0));
        let air = net.add_air("air", Celsius::new(25.0));
        let outlet = net.add_boundary("outlet", Celsius::new(25.0));
        let mcp = WattsPerKelvin::new(5.0);
        net.advect(inlet, air, mcp);
        net.advect(air, outlet, mcp);
        net.set_power(air, Watts::new(150.0));
        let wax = PcmState::new(
            &PcmMaterial::validation_wax(),
            Grams::new(800.0),
            Celsius::new(25.0),
        );
        let id = net.attach_pcm(air, wax, WattsPerKelvin::new(6.0));
        for _ in 0..2000 {
            net.step(Seconds::new(10.0));
        }
        assert!(
            net.pcm(id).melt_fraction().value() > 0.9,
            "wax should melt under load"
        );
        // Load drops: the wax releases heat (negative absorption) and the
        // outlet stays warmer than the no-wax equilibrium for a while.
        net.set_power(air, Watts::new(0.0));
        net.step(Seconds::new(10.0));
        assert!(net.pcm_heat_flow(id).value() < 0.0, "wax must release heat");
        let t_air = net.temperature(air).value();
        assert!(t_air > 25.5, "released heat must warm the air: {t_air}");
    }

    #[test]
    fn exhaust_heat_counts_all_injected_power_at_steady_state() {
        let mut net = ThermalNetwork::new();
        let inlet = net.add_boundary("inlet", Celsius::new(25.0));
        let a1 = net.add_air("a1", Celsius::new(25.0));
        let outlet = net.add_boundary("outlet", Celsius::new(25.0));
        let mcp = WattsPerKelvin::new(8.0);
        net.advect(inlet, a1, mcp);
        net.advect(a1, outlet, mcp);
        let hdd = net.add_capacitive("hdd", JoulesPerKelvin::new(200.0), Celsius::new(25.0));
        net.connect(hdd, a1, WattsPerKelvin::new(1.0));
        net.set_power(hdd, Watts::new(10.0));
        net.set_power(a1, Watts::new(30.0));
        net.run_to_steady_state(Seconds::new(5.0), 1e-7, Seconds::new(1e6))
            .unwrap();
        assert!((net.exhaust_heat(inlet).value() - 40.0).abs() < 1e-3);
        assert_eq!(net.total_power(), Watts::new(40.0));
    }

    #[test]
    fn set_advection_flow_changes_operating_point() {
        let (mut net, _inlet, air, _cpu) = heater_rig(46.0, 0.02);
        net.run_to_steady_state(Seconds::new(5.0), 1e-6, Seconds::new(1e6))
            .unwrap();
        let t_before = net.temperature(air).value();
        // Re-plumb with half the flow: air must run hotter. (Both edges.)
        net.set_advection_flow(
            AdvectionId(0),
            air_heat_capacity_flow(CubicMetersPerSecond::new(0.01)),
        );
        net.set_advection_flow(
            AdvectionId(1),
            air_heat_capacity_flow(CubicMetersPerSecond::new(0.01)),
        );
        net.run_to_steady_state(Seconds::new(5.0), 1e-6, Seconds::new(1e6))
            .unwrap();
        // Halving mcp doubles the air temperature rise above the inlet
        // (from ~2 K to ~4 K for 46 W).
        assert!(net.temperature(air).value() > t_before + 1.5);
    }

    #[test]
    #[should_panic(expected = "solid node")]
    fn advection_to_solid_panics() {
        let mut net = ThermalNetwork::new();
        let air = net.add_air("air", Celsius::new(25.0));
        let solid = net.add_capacitive("s", JoulesPerKelvin::new(1.0), Celsius::new(25.0));
        net.advect(air, solid, WattsPerKelvin::new(1.0));
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn zero_capacitance_panics() {
        let mut net = ThermalNetwork::new();
        net.add_capacitive("bad", JoulesPerKelvin::ZERO, Celsius::new(25.0));
    }

    #[test]
    fn isolated_air_node_holds_temperature() {
        let mut net = ThermalNetwork::new();
        let lonely = net.add_air("lonely", Celsius::new(33.0));
        net.step(Seconds::new(10.0));
        assert_eq!(net.temperature(lonely), Celsius::new(33.0));
    }

    #[test]
    fn isolated_air_node_with_power_holds_temperature() {
        // Regression: the isolated-node branch writes the RHS exactly
        // once — power accumulated before the isolation check must not
        // leak into the held temperature.
        let mut net = ThermalNetwork::new();
        let lonely = net.add_air("lonely", Celsius::new(33.0));
        net.set_power(lonely, Watts::new(75.0));
        for _ in 0..3 {
            net.step(Seconds::new(10.0));
        }
        assert_eq!(net.temperature(lonely), Celsius::new(33.0));
    }

    #[test]
    fn attaching_pcm_mid_run_invalidates_the_solver_cache() {
        // attach_pcm after stepping must rebuild the cached incidence
        // lists, or the new element would be invisible to the air solve.
        let (mut net, _inlet, air, _cpu) = heater_rig(46.0, 0.02);
        net.run_to_steady_state(Seconds::new(5.0), 1e-6, Seconds::new(1e6))
            .unwrap();
        let t_hot = net.temperature(air).value();
        let wax = PcmState::new(
            &PcmMaterial::validation_wax(),
            Grams::new(500.0),
            Celsius::new(25.0),
        );
        let id = net.attach_pcm(air, wax, WattsPerKelvin::new(6.0));
        net.step(Seconds::new(5.0));
        assert!(
            net.pcm_heat_flow(id).value() > 0.0,
            "cold wax on hot air must absorb heat immediately"
        );
        assert!(net.temperature(air).value() < t_hot);
    }

    #[test]
    fn adding_advection_mid_run_invalidates_the_solver_cache() {
        // advect after stepping must rebuild the cache: the extra
        // bypass stream doubles the flow and halves the temperature rise.
        let (mut net, inlet, air, _cpu) = heater_rig(46.0, 0.02);
        net.run_to_steady_state(Seconds::new(5.0), 1e-6, Seconds::new(1e6))
            .unwrap();
        let t_hot = net.temperature(air).value();
        let mcp = air_heat_capacity_flow(CubicMetersPerSecond::new(0.02));
        net.advect(inlet, air, mcp);
        net.run_to_steady_state(Seconds::new(5.0), 1e-6, Seconds::new(1e6))
            .unwrap();
        assert!(
            net.temperature(air).value() < t_hot - 0.5,
            "extra inlet flow must cool the air node"
        );
    }

    #[test]
    fn node_names_are_preserved() {
        let mut net = ThermalNetwork::new();
        let n = net.add_air("behind socket 2", Celsius::new(25.0));
        assert_eq!(net.node_name(n), "behind socket 2");
        assert_eq!(net.node_count(), 1);
    }
}
