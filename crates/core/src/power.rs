//! Chip-level power breakdowns.

use mcpat_circuit::metrics::StaticPower;
use mcpat_mcore::core::CorePower;

/// One top-level component of the chip power breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipPowerItem {
    /// Component name (`cores`, `l2`, `l3`, `noc`, `mc`, `io`, `clock`,
    /// `shared-fpu`).
    pub name: &'static str,
    /// Dynamic power, W.
    pub dynamic: f64,
    /// Static power, W.
    pub leakage: StaticPower,
}

impl ChipPowerItem {
    /// Total power of the item, W.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage.total()
    }
}

/// A whole-chip power result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPower {
    /// Top-level components.
    pub items: Vec<ChipPowerItem>,
    /// The per-unit breakdown of one core (all cores are identical).
    pub core_detail: CorePower,
}

/// Total dynamic power of `items`, W: the one fold behind
/// [`ChipPower::dynamic`] and the allocation-free roll-ups
/// (`Processor::peak_power_total`), so the two forms agree to the bit.
pub(crate) fn dynamic_of<'a>(items: impl Iterator<Item = &'a ChipPowerItem>) -> f64 {
    items.map(|i| i.dynamic).sum()
}

/// Total leakage of `items`, W; see [`dynamic_of`].
pub(crate) fn leakage_of<'a>(items: impl Iterator<Item = &'a ChipPowerItem>) -> StaticPower {
    items.map(|i| i.leakage).sum()
}

/// Total power of `items`, W; see [`dynamic_of`].
pub(crate) fn total_of<'a>(items: impl Iterator<Item = &'a ChipPowerItem> + Clone) -> f64 {
    dynamic_of(items.clone()) + leakage_of(items).total()
}

impl ChipPower {
    /// Total dynamic power, W.
    #[must_use]
    pub fn dynamic(&self) -> f64 {
        dynamic_of(self.items.iter())
    }

    /// Total leakage, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        leakage_of(self.items.iter())
    }

    /// Total chip power, W.
    #[must_use]
    pub fn total(&self) -> f64 {
        total_of(self.items.iter())
    }

    /// Looks up a top-level item by name.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&ChipPowerItem> {
        self.items.iter().find(|i| i.name == name)
    }

    /// The fraction of total power a component contributes.
    #[must_use]
    pub fn share(&self, name: &str) -> f64 {
        match self.component(name) {
            Some(item) if self.total() > 0.0 => item.total() / self.total(),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn item(name: &'static str, d: f64, l: f64) -> ChipPowerItem {
        ChipPowerItem {
            name,
            dynamic: d,
            leakage: StaticPower::new(l, 0.0),
        }
    }

    #[test]
    fn totals_and_shares() {
        let p = ChipPower {
            items: vec![item("cores", 30.0, 10.0), item("l2", 5.0, 5.0)],
            core_detail: CorePower { items: vec![] },
        };
        assert!((p.total() - 50.0).abs() < 1e-12);
        assert!((p.share("cores") - 0.8).abs() < 1e-12);
        assert_eq!(p.share("nothing"), 0.0);
    }
}
