#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Property-based tests for the circuit primitives.

use mcpat_circuit::arbiter::MatrixArbiter;
use mcpat_circuit::comparator::TagComparator;
use mcpat_circuit::crossbar::Crossbar;
use mcpat_circuit::decoder::RowDecoder;
use mcpat_circuit::gate::{BufferChain, GateKind, LogicGate};
use mcpat_circuit::repeater::RepeatedWire;
use mcpat_tech::{DeviceType, TechNode, TechParams, WireType};
use proptest::prelude::*;

fn tech() -> TechParams {
    TechParams::new(TechNode::N45, DeviceType::Hp, 360.0)
}

fn any_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(TechNode::ALL.to_vec())
}

proptest! {
    #[test]
    fn gate_delay_is_monotone_in_load(
        size in 1.0..32.0f64,
        c1 in 1e-16..1e-13f64,
        k in 1.1..20.0f64,
    ) {
        let t = tech();
        let g = LogicGate::new(&t, GateKind::Inverter, size);
        prop_assert!(g.delay(c1 * k) > g.delay(c1));
    }

    #[test]
    fn gate_energy_is_monotone_in_load(
        size in 1.0..32.0f64,
        c1 in 1e-16..1e-13f64,
        k in 1.1..20.0f64,
    ) {
        let t = tech();
        let g = LogicGate::new(&t, GateKind::Nand(2), size);
        prop_assert!(g.switch_energy(c1 * k) > g.switch_energy(c1));
    }

    #[test]
    fn buffer_chain_input_cap_is_minimum_size(
        c_load in 1e-15..1e-11f64,
    ) {
        let t = tech();
        let chain = BufferChain::for_load(&t, c_load);
        let min_inv = LogicGate::new(&t, GateKind::Inverter, 1.0);
        prop_assert!((chain.input_cap() - min_inv.input_cap()).abs() < 1e-18);
    }

    #[test]
    fn repeated_wire_outputs_are_finite_for_all_nodes(
        node in any_node(),
        len in 1e-5..2e-2f64,
    ) {
        let t = TechParams::new(node, DeviceType::Hp, 360.0);
        let w = RepeatedWire::delay_optimal(&t, WireType::Global, len);
        prop_assert!(w.metrics.delay.is_finite() && w.metrics.delay > 0.0);
        prop_assert!(w.metrics.energy_per_op.is_finite() && w.metrics.energy_per_op > 0.0);
        prop_assert!(w.num_repeaters >= 1);
    }

    #[test]
    fn derated_wire_never_beats_optimal_delay(
        len in 1e-4..1e-2f64,
        tol in 1.0..2.0f64,
    ) {
        let t = tech();
        let opt = RepeatedWire::delay_optimal(&t, WireType::Global, len);
        let der = RepeatedWire::energy_derated(&t, WireType::Global, len, tol);
        prop_assert!(der.metrics.delay >= opt.metrics.delay * 0.999);
        prop_assert!(der.metrics.delay <= opt.metrics.delay * tol * (1.0 + 1e-9));
        prop_assert!(der.metrics.energy_per_op <= opt.metrics.energy_per_op * (1.0 + 1e-9));
    }

    #[test]
    fn decoder_cost_is_monotone_in_rows(
        rows in 2usize..2_000,
    ) {
        let t = tech();
        let small = RowDecoder::new(&t, rows, 20e-15).metrics();
        let big = RowDecoder::new(&t, rows * 4, 20e-15).metrics();
        prop_assert!(big.area > small.area);
        prop_assert!(big.leakage.total() > small.leakage.total());
    }

    #[test]
    fn comparator_energy_monotone_in_width(width in 1u32..256) {
        let t = tech();
        let narrow = TagComparator::new(&t, width).metrics();
        let wide = TagComparator::new(&t, width * 2).metrics();
        prop_assert!(wide.energy_per_op > narrow.energy_per_op);
    }

    #[test]
    fn crossbar_energy_monotone_in_everything(
        ports in 2usize..12,
        width in 8usize..256,
    ) {
        let t = tech();
        let base = Crossbar::new(&t, ports, ports, width).metrics_per_traversal();
        let more_ports = Crossbar::new(&t, ports + 2, ports + 2, width).metrics_per_traversal();
        let wider = Crossbar::new(&t, ports, ports, width * 2).metrics_per_traversal();
        prop_assert!(more_ports.energy_per_op > base.energy_per_op);
        prop_assert!(wider.energy_per_op > base.energy_per_op);
        prop_assert!(more_ports.area > base.area);
    }

    #[test]
    fn arbiter_scales_with_requesters(r in 1usize..32) {
        let t = tech();
        let small = MatrixArbiter::new(&t, r).metrics();
        let big = MatrixArbiter::new(&t, r + 4).metrics();
        prop_assert!(big.area > small.area);
        prop_assert!(big.energy_per_op > small.energy_per_op);
    }

}
