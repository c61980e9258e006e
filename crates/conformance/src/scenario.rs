//! Seed-replayable scenarios: each [`ScenarioSpec`] is a pure function of
//! a `u64` seed ([`ScenarioSpec::from_seed`]), yet fully self-describing,
//! so a *shrunk* variant (smaller `n`, faults removed, …) can still be
//! serialized and replayed even though it no longer equals any
//! `from_seed` image.
//!
//! The generation chain is a SplitMix64 stream over the seed — no
//! dependence on ambient RNG state, hash ordering, or time — which is the
//! whole replay contract: `wdr-conform replay --seed S` rebuilds the exact
//! scenario any past run saw for `S`.

use congest_graph::WeightedGraph;
use congest_sim::{FaultPlan, Parallelism, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Graph family of a scenario, mirroring [`congest_graph::generators`].
///
/// The family doubles as the scenario's (unweighted-)diameter regime:
/// `Star` is `D = 2`, `ErdosRenyi`/`ClusterRing` are low-`D`, `Grid` and
/// `BinaryTree` mid-`D`, and `Path`/`Cycle` are `D = Θ(n)`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Family {
    /// `path(n, w)` — `D = n − 1`.
    Path,
    /// `cycle(n, w)` — `D = ⌊n/2⌋`.
    Cycle,
    /// `star(n, w)` — `D = 2`.
    Star,
    /// `grid(r, c, w)` with `r·c ≈ n` — `D = Θ(√n)`.
    Grid,
    /// `binary_tree(h, w)` with `2^{h+1}−1 ≤ n` — `D = Θ(log n)`.
    BinaryTree,
    /// `erdos_renyi_connected(n, p, w, rng)` — low `D`.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
    },
    /// `cluster_ring(n, hubs, w, rng)` — `D = Θ(hubs)`.
    ClusterRing {
        /// Number of clique clusters on the ring.
        hubs: usize,
    },
}

/// The fault plan of a scenario, in replayable form.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum FaultSpec {
    /// Lossless synchronous network.
    NoFaults,
    /// Uniform random message drops.
    Drops {
        /// Per-message drop probability.
        rate: f64,
    },
    /// One transient crash window: node `node % n` is down for rounds
    /// `[from, from + len)`.
    Crash {
        /// Node pick (reduced modulo `n` at run time, so it survives
        /// shrinking `n`).
        node: usize,
        /// First crashed round (1-based).
        from: usize,
        /// Window length in rounds.
        len: usize,
    },
}

/// Round-engine execution mode of a scenario.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ParMode {
    /// Sequential round engine.
    Sequential,
    /// Parallel round engine (falls back to sequential without the
    /// `parallel` cargo feature — the scenario is still valid and the
    /// determinism oracle covers the fallback).
    Parallel,
}

/// What the scenario executes and which oracles apply to it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Classical exact baselines ([`congest_algos::baselines`]) checked
    /// for exact agreement with the centralized sweep kernels. Always
    /// fault-free (the baselines carry no degradation contract).
    BaselineExact,
    /// [`congest_wdr::algorithm::quantum_weighted`] on the diameter,
    /// checked against the `(1+o(1))` sandwich.
    QuantumDiameter,
    /// Same, on the radius (sandwich direction flips).
    QuantumRadius,
    /// The convergecast primitive under faults: `Ok` implies the exact
    /// aggregate, anything else must be a *typed* error, never a panic.
    PrimitiveAggregate,
}

/// One fully-described, replayable scenario.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ScenarioSpec {
    /// The seed this spec was generated from (also salts the graph
    /// weights and the algorithm RNG at run time).
    pub seed: u64,
    /// Graph family.
    pub family: Family,
    /// Requested node count (the family may round it: grids to `r·c`,
    /// trees to `2^{h+1}−1`).
    pub n: usize,
    /// Maximum edge weight (`1` = effectively unweighted).
    pub max_weight: u64,
    /// Fault plan.
    pub faults: FaultSpec,
    /// Round-engine mode.
    pub parallelism: ParMode,
    /// Workload and oracle set.
    pub workload: Workload,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, m: u64) -> u64 {
    splitmix64(state) % m
}

impl ScenarioSpec {
    /// The pure seed → scenario map. Calling this twice with the same
    /// seed yields identical specs (the replay invariant; property-tested
    /// in `tests/conformance.rs`).
    pub fn from_seed(seed: u64) -> ScenarioSpec {
        let mut st = seed;
        let workload = match pick(&mut st, 8) {
            0 | 1 => Workload::BaselineExact,
            2..=4 => Workload::QuantumDiameter,
            5 | 6 => Workload::QuantumRadius,
            _ => Workload::PrimitiveAggregate,
        };
        let family = match pick(&mut st, 7) {
            0 => Family::Path,
            1 => Family::Cycle,
            2 => Family::Star,
            3 => Family::Grid,
            4 => Family::BinaryTree,
            5 => Family::ErdosRenyi {
                p: 0.2 + 0.05 * pick(&mut st, 5) as f64,
            },
            _ => Family::ClusterRing {
                hubs: 2 + pick(&mut st, 3) as usize,
            },
        };
        let (lo, hi) = match workload {
            // Quantum runs simulate every measured phase; keep n modest.
            Workload::QuantumDiameter | Workload::QuantumRadius => (8, 20),
            Workload::BaselineExact => (8, 48),
            Workload::PrimitiveAggregate => (8, 40),
        };
        let n = lo + pick(&mut st, (hi - lo + 1) as u64) as usize;
        let max_weight = match pick(&mut st, 3) {
            0 => 1,
            1 => 8,
            _ => 4096,
        };
        let faults = if workload == Workload::BaselineExact {
            FaultSpec::NoFaults
        } else {
            match pick(&mut st, 8) {
                // Clean runs dominate: they feed the approximation and
                // envelope oracles.
                0..=4 => FaultSpec::NoFaults,
                5 => FaultSpec::Drops {
                    rate: 0.02 + 0.02 * pick(&mut st, 5) as f64,
                },
                _ => FaultSpec::Crash {
                    node: pick(&mut st, 64) as usize,
                    from: 1 + pick(&mut st, 6) as usize,
                    len: 1 + pick(&mut st, 8) as usize,
                },
            }
        };
        let parallelism = if pick(&mut st, 4) == 0 {
            ParMode::Parallel
        } else {
            ParMode::Sequential
        };
        ScenarioSpec {
            seed,
            family,
            n,
            max_weight,
            faults,
            parallelism,
            workload,
        }
        .normalized()
    }

    /// Clamps the spec onto the valid envelope: family minimum sizes,
    /// weight ≥ 1, crash windows inside the run. Idempotent; applied both
    /// after generation and after shrinking.
    pub fn normalized(mut self) -> ScenarioSpec {
        let min_n = match self.family {
            Family::Path | Family::Star => 2,
            Family::Cycle | Family::BinaryTree => 3,
            Family::Grid => 2,
            Family::ErdosRenyi { .. } => 4,
            Family::ClusterRing { hubs } => 2 * hubs.max(1),
        };
        // The quantum pipeline needs a non-trivial graph.
        let min_n = match self.workload {
            Workload::QuantumDiameter | Workload::QuantumRadius => min_n.max(6),
            _ => min_n,
        };
        self.n = self.n.max(min_n);
        self.max_weight = self.max_weight.max(1);
        if let Family::ClusterRing { hubs } = &mut self.family {
            *hubs = (*hubs).max(1);
        }
        if let FaultSpec::Crash { from, len, .. } = &mut self.faults {
            *from = (*from).max(1);
            *len = (*len).max(1);
        }
        if self.workload == Workload::BaselineExact {
            self.faults = FaultSpec::NoFaults;
        }
        self
    }

    /// Builds the scenario's graph. Deterministic in the spec: random
    /// families draw from a ChaCha stream seeded by `seed`.
    pub fn build_graph(&self) -> WeightedGraph {
        use congest_graph::generators as gen;
        let w = self.max_weight;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x6772_6170_685f_7631); // "graph_v1"
        match self.family {
            Family::Path => gen::path(self.n, w),
            Family::Cycle => gen::cycle(self.n.max(3), w),
            Family::Star => gen::star(self.n, w),
            Family::Grid => {
                let rows = (self.n as f64).sqrt().floor().max(1.0) as usize;
                let cols = self.n.div_ceil(rows);
                gen::grid(rows, cols, w)
            }
            Family::BinaryTree => {
                let mut h = 1u32;
                while (1usize << (h + 2)) - 1 <= self.n {
                    h += 1;
                }
                gen::binary_tree(h, w)
            }
            Family::ErdosRenyi { p } => gen::erdos_renyi_connected(self.n, p, w, &mut rng),
            Family::ClusterRing { hubs } => gen::cluster_ring(self.n, hubs, w, &mut rng),
        }
    }

    /// The simulator configuration for this scenario: standard bandwidth,
    /// the fault plan from [`FaultSpec`], and a round cap. A faulted phase
    /// that can make no further progress is ended by the simulator's stall
    /// detection (`SimError::Stalled`) as soon as every node is left
    /// waiting; the 300,000-round cap on faulted runs is only the backstop
    /// for programs that never report `Status::Waiting`.
    pub fn build_config(&self, g: &WeightedGraph) -> SimConfig {
        let max_rounds = match self.faults {
            FaultSpec::NoFaults => 100_000_000,
            _ => 300_000,
        };
        let mut cfg = SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(max_rounds);
        match self.faults {
            FaultSpec::NoFaults => {}
            FaultSpec::Drops { rate } => {
                cfg = cfg.with_faults(FaultPlan::new(self.seed).with_drop_rate(rate));
            }
            FaultSpec::Crash { node, from, len } => {
                let node = node % g.n();
                cfg = cfg.with_faults(FaultPlan::new(self.seed).with_crash(
                    node,
                    from,
                    Some(from + len),
                ));
            }
        }
        cfg = cfg.with_parallelism(match self.parallelism {
            ParMode::Sequential => Parallelism::Sequential,
            ParMode::Parallel => Parallelism::Parallel,
        });
        cfg
    }

    /// `true` when the scenario runs on the lossless network, i.e. the
    /// full paper guarantees (exactness / the `(1+ε)²` sandwich) apply.
    pub fn is_clean(&self) -> bool {
        self.faults == FaultSpec::NoFaults
    }

    /// A coarse size measure that every shrink candidate strictly
    /// decreases, so shrinking always terminates.
    pub fn size_measure(&self) -> u64 {
        let fault_cost = match self.faults {
            FaultSpec::NoFaults => 0,
            _ => 1,
        };
        let par_cost = match self.parallelism {
            ParMode::Sequential => 0,
            ParMode::Parallel => 1,
        };
        let weight_cost = if self.max_weight > 1 { 1 } else { 0 };
        (self.n as u64) * 8 + fault_cost + par_cost + weight_cost
    }

    /// The shrink candidates for this spec, each strictly smaller under
    /// [`ScenarioSpec::size_measure`], ordered most-aggressive first:
    /// halve `n`, drop the fault plan, force sequential, collapse weights
    /// to 1. The replayer keeps shrinking while a candidate still fails.
    pub fn shrink_candidates(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::new();
        let halved = ScenarioSpec {
            n: self.n / 2,
            ..*self
        }
        .normalized();
        if halved.n < self.n {
            out.push(halved);
        }
        if self.faults != FaultSpec::NoFaults {
            out.push(ScenarioSpec {
                faults: FaultSpec::NoFaults,
                ..*self
            });
        }
        if self.parallelism == ParMode::Parallel {
            out.push(ScenarioSpec {
                parallelism: ParMode::Sequential,
                ..*self
            });
        }
        if self.max_weight > 1 {
            out.push(ScenarioSpec {
                max_weight: 1,
                ..*self
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        for seed in 0..200 {
            assert_eq!(ScenarioSpec::from_seed(seed), ScenarioSpec::from_seed(seed));
        }
    }

    #[test]
    fn generated_graphs_build_and_connect() {
        for seed in 0..64 {
            let spec = ScenarioSpec::from_seed(seed);
            let g = spec.build_graph();
            assert!(g.n() >= 2, "seed {seed}: graph too small");
            assert!(g.is_connected(), "seed {seed}: disconnected graph");
            let _ = spec.build_config(&g);
        }
    }

    #[test]
    fn baseline_scenarios_are_fault_free() {
        for seed in 0..256 {
            let spec = ScenarioSpec::from_seed(seed);
            if spec.workload == Workload::BaselineExact {
                assert_eq!(spec.faults, FaultSpec::NoFaults, "seed {seed}");
            }
        }
    }

    #[test]
    fn shrinking_terminates_by_measure() {
        for seed in 0..64 {
            let spec = ScenarioSpec::from_seed(seed);
            for cand in spec.shrink_candidates() {
                assert!(
                    cand.size_measure() < spec.size_measure(),
                    "seed {seed}: candidate {cand:?} does not shrink {spec:?}"
                );
            }
        }
    }

    #[test]
    fn graph_rebuild_is_bit_identical() {
        let spec = ScenarioSpec::from_seed(9217);
        let a = spec.build_graph();
        let b = spec.build_graph();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
