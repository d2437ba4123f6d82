//! Verifies the steady-state stepping loop allocates nothing after warmup.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm-up step (which builds the solver cache and sizes every scratch
//! buffer) further stepping must not touch the allocator at all. This is
//! its own integration-test binary so the global allocator does not leak
//! into other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tts_thermal::network::ThermalNetwork;
use tts_units::{
    air_heat_capacity_flow, Celsius, CubicMetersPerSecond, Grams, JoulesPerKelvin, Seconds, Watts,
    WattsPerKelvin,
};

struct CountingAlloc;

thread_local! {
    /// Per-thread so concurrently running tests only count their own
    /// allocations, not each other's warmup traffic.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// True while this thread's test section is being measured.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Bumps this thread's allocation count while it is measuring.
/// `try_with` tolerates allocator calls during TLS teardown.
fn note_allocation() {
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed by this thread while `f` runs.
fn count_allocations(f: impl FnOnce()) -> u64 {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    f();
    let after = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(false));
    after - before
}

/// inlet → air → outlet with a powered CPU and a wax element on the air
/// node: exercises the air solve, solid integration and PCM stepping.
/// Returns the network and the CPU node handle.
fn rig() -> (ThermalNetwork, tts_thermal::network::NodeId) {
    let mut net = ThermalNetwork::new();
    let inlet = net.add_boundary("inlet", Celsius::new(25.0));
    let air = net.add_air("air", Celsius::new(25.0));
    let plenum = net.add_air("plenum", Celsius::new(25.0));
    let outlet = net.add_boundary("outlet", Celsius::new(25.0));
    let cpu = net.add_capacitive("cpu", JoulesPerKelvin::new(400.0), Celsius::new(25.0));
    let hdd = net.add_capacitive("hdd", JoulesPerKelvin::new(200.0), Celsius::new(25.0));
    let mcp = air_heat_capacity_flow(CubicMetersPerSecond::new(0.02));
    net.advect(inlet, air, mcp);
    net.advect(air, plenum, mcp);
    net.advect(plenum, outlet, mcp);
    net.connect(cpu, air, WattsPerKelvin::new(2.0));
    net.connect(hdd, plenum, WattsPerKelvin::new(1.0));
    net.set_power(cpu, Watts::new(46.0));
    net.set_power(hdd, Watts::new(10.0));
    let wax = tts_pcm::PcmState::new(
        &tts_pcm::PcmMaterial::validation_wax(),
        Grams::new(500.0),
        Celsius::new(25.0),
    );
    net.attach_pcm(air, wax, WattsPerKelvin::new(6.0));
    (net, cpu)
}

#[test]
fn warm_stepping_loop_is_allocation_free() {
    let (mut net, _cpu) = rig();
    // Warmup: builds the solver cache and sizes all scratch buffers.
    net.step(Seconds::new(1.0));
    let allocs = count_allocations(|| {
        for _ in 0..500 {
            net.step(Seconds::new(1.0));
        }
    });
    assert_eq!(allocs, 0, "warm step loop must not touch the allocator");
}

#[test]
fn warm_run_to_steady_state_is_allocation_free() {
    let (mut net, cpu) = rig();
    // Warmup: one settle pass sizes the convergence buffer too.
    net.run_to_steady_state(Seconds::new(5.0), 1e-4, Seconds::new(1e6))
        .expect("must converge");
    // Perturb the load and re-settle with the allocator watched: the
    // whole convergence loop must run on recycled buffers.
    net.set_power(cpu, Watts::new(80.0));
    let allocs = count_allocations(|| {
        net.run_to_steady_state(Seconds::new(5.0), 1e-4, Seconds::new(1e6))
            .expect("must converge");
    });
    assert_eq!(allocs, 0, "warm settle loop must not touch the allocator");
}
