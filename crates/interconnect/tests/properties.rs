#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Property-based tests for the interconnect models.

use mcpat_interconnect::noc::{NocConfig, NocStats, Topology};
use mcpat_interconnect::router::{Router, RouterConfig};
use mcpat_tech::{DeviceType, TechNode, TechParams};
use proptest::prelude::*;

fn tech() -> TechParams {
    TechParams::new(TechNode::N32, DeviceType::Hp, 360.0)
}

fn any_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (1u32..8, 1u32..8).prop_map(|(x, y)| Topology::Mesh { x, y }),
        (2u32..32).prop_map(|n| Topology::Ring { n }),
        (2u32..24).prop_map(|n| Topology::Bus { n }),
        (2u32..24).prop_map(|n| Topology::Crossbar { n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_topology_builds_with_positive_costs(
        topology in any_topology(),
        flit_bits in 16u32..512,
        link_mm in 0.2..5.0f64,
    ) {
        let cfg = NocConfig {
            topology,
            flit_bits,
            vcs_per_port: 2,
            buffers_per_vc: 2,
            link_length: link_mm * 1e-3,
            clock_hz: 2e9,
        };
        let noc = cfg.build(&tech()).unwrap();
        prop_assert!(noc.energy_per_flit_hop() > 0.0);
        prop_assert!(noc.energy_per_flit_hop().is_finite());
        prop_assert!(noc.area() > 0.0);
        prop_assert!(noc.leakage().total() > 0.0);
    }

    #[test]
    fn mesh_link_and_router_counts_are_consistent(x in 1u32..16, y in 1u32..16) {
        let t = Topology::Mesh { x, y };
        prop_assert_eq!(t.router_count(), x * y);
        // Every router has at most 4 outbound mesh links.
        prop_assert!(t.link_count() <= 4 * t.router_count());
        // Handshake lemma: total links = 2 × edges.
        prop_assert_eq!(t.link_count() % 2, 0);
    }

    #[test]
    fn dynamic_power_is_linear_in_flits(
        topology in any_topology(),
        flits in 1u64..1_000_000u64,
        k in 2u64..10,
    ) {
        let cfg = NocConfig {
            topology,
            flit_bits: 128,
            vcs_per_port: 2,
            buffers_per_vc: 2,
            link_length: 1e-3,
            clock_hz: 2e9,
        };
        let noc = cfg.build(&tech()).unwrap();
        let s1 = NocStats { interval_s: 1e-3, flits, avg_hops: 0.0 };
        let s2 = NocStats { interval_s: 1e-3, flits: flits * k, avg_hops: 0.0 };
        let p1 = noc.dynamic_power(&s1);
        let p2 = noc.dynamic_power(&s2);
        prop_assert!((p2 / p1 - k as f64).abs() < 1e-6);
    }

    #[test]
    fn router_cost_grows_with_4x_buffers(
        buffers in 1u32..16,
        flit_bits in 32u32..256,
    ) {
        // Tiny buffer arrays are periphery-dominated, so small buffer
        // deltas can reshuffle the partition; a 4× capacity step must
        // dominate that noise.
        let t = tech();
        let small = Router::build(&t, &RouterConfig {
            ports: 5, vcs_per_port: 2, buffers_per_vc: buffers, flit_bits,
        }).unwrap();
        let big = Router::build(&t, &RouterConfig {
            ports: 5, vcs_per_port: 2, buffers_per_vc: buffers * 4, flit_bits,
        }).unwrap();
        prop_assert!(big.leakage().total() > small.leakage().total());
        prop_assert!(big.area() > small.area());
    }

    #[test]
    fn average_hops_grow_with_network_size(n in 2u32..10) {
        let small = Topology::Mesh { x: n, y: n }.average_hops();
        let big = Topology::Mesh { x: 2 * n, y: 2 * n }.average_hops();
        prop_assert!(big > small);
    }
}
