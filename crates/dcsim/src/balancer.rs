//! Load-balancing policies.
//!
//! The paper "use\[s\] a round robin load balancing scheme" (§4.2); the
//! alternatives here feed the load-balancing ablation bench.

use tts_rng::{Rng, SeedableRng, Xoshiro256pp};

/// A load balancer picks the target server for each arriving job given the
/// servers' current occupancy (running + queued job counts).
pub trait Balancer: std::fmt::Debug {
    /// Chooses a server index in `0..occupancy.len()`.
    fn pick(&mut self, occupancy: &[usize]) -> usize;

    /// Policy name for reporting.
    fn name(&self) -> &'static str;
}

/// The paper's round-robin policy.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Starts at server 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Balancer for RoundRobin {
    fn pick(&mut self, occupancy: &[usize]) -> usize {
        let i = self.next % occupancy.len();
        self.next = self.next.wrapping_add(1);
        i
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Join-shortest-queue: picks the server with the fewest jobs (first on
/// ties).
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// A stateless least-loaded balancer.
    pub fn new() -> Self {
        Self
    }
}

impl Balancer for LeastLoaded {
    fn pick(&mut self, occupancy: &[usize]) -> usize {
        occupancy
            .iter()
            .enumerate()
            .min_by_key(|(_, &o)| o)
            .map(|(i, _)| i)
            .expect("cluster has at least one server")
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Uniform random placement (seeded).
#[derive(Debug)]
pub struct RandomBalancer {
    rng: Xoshiro256pp,
}

impl RandomBalancer {
    /// A seeded random balancer.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }
}

impl Balancer for RandomBalancer {
    fn pick(&mut self, occupancy: &[usize]) -> usize {
        self.rng.gen_range(0..occupancy.len())
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let occ = vec![0; 3];
        assert_eq!(rr.pick(&occ), 0);
        assert_eq!(rr.pick(&occ), 1);
        assert_eq!(rr.pick(&occ), 2);
        assert_eq!(rr.pick(&occ), 0);
    }

    #[test]
    fn least_loaded_finds_minimum() {
        let mut ll = LeastLoaded::new();
        assert_eq!(ll.pick(&[3, 1, 2]), 1);
        assert_eq!(ll.pick(&[0, 0, 0]), 0); // first on ties
    }

    #[test]
    fn random_is_in_range_and_deterministic() {
        let occ = vec![0; 10];
        let picks_a: Vec<usize> = {
            let mut r = RandomBalancer::new(7);
            (0..100).map(|_| r.pick(&occ)).collect()
        };
        let picks_b: Vec<usize> = {
            let mut r = RandomBalancer::new(7);
            (0..100).map(|_| r.pick(&occ)).collect()
        };
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|&i| i < 10));
        // Not degenerate: hits several distinct servers.
        let distinct: std::collections::HashSet<_> = picks_a.iter().collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn names() {
        assert_eq!(RoundRobin::new().name(), "round-robin");
        assert_eq!(LeastLoaded::new().name(), "least-loaded");
        assert_eq!(RandomBalancer::new(0).name(), "random");
    }
}
