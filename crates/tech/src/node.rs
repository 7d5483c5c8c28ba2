//! Process technology nodes supported by the framework.

use std::fmt;
use std::str::FromStr;

/// A CMOS process technology node.
///
/// McPAT (MICRO 2009) supports the 90–22 nm ITRS nodes and, for validating
/// against the Alpha 21364, the 180 nm node. The node determines every
/// downstream device, wire, and cell parameter.
///
/// # Examples
///
/// ```
/// use mcpat_tech::TechNode;
///
/// let node = TechNode::N45;
/// assert_eq!(node.feature_nm(), 45.0);
/// assert!(node.feature_m() < TechNode::N90.feature_m());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum TechNode {
    /// 180 nm (Alpha 21364 era; validation only).
    N180,
    /// 90 nm (Sun Niagara).
    N90,
    /// 65 nm (Sun Niagara2, Intel Xeon Tulsa).
    N65,
    /// 45 nm.
    N45,
    /// 32 nm.
    N32,
    /// 22 nm (deepest ITRS projection in the original study).
    N22,
}

impl TechNode {
    /// All nodes, largest feature size first.
    pub const ALL: [TechNode; 6] = [
        TechNode::N180,
        TechNode::N90,
        TechNode::N65,
        TechNode::N45,
        TechNode::N32,
        TechNode::N22,
    ];

    /// The nodes used by the manycore technology-scaling case study
    /// (the 180 nm node is validation-only).
    pub const SCALING_STUDY: [TechNode; 5] = [
        TechNode::N90,
        TechNode::N65,
        TechNode::N45,
        TechNode::N32,
        TechNode::N22,
    ];

    /// Drawn feature size in nanometers.
    #[must_use]
    pub fn feature_nm(self) -> f64 {
        match self {
            TechNode::N180 => 180.0,
            TechNode::N90 => 90.0,
            TechNode::N65 => 65.0,
            TechNode::N45 => 45.0,
            TechNode::N32 => 32.0,
            TechNode::N22 => 22.0,
        }
    }

    /// Drawn feature size in meters.
    #[must_use]
    pub fn feature_m(self) -> f64 {
        self.feature_nm() * 1e-9
    }

    /// Linear shrink factor of this node relative to 90 nm.
    ///
    /// Used by empirical models that were calibrated at 90 nm and scale
    /// linearly (delay, pitch) or quadratically (area) with feature size.
    #[must_use]
    pub fn scale_from_90nm(self) -> f64 {
        self.feature_nm() / 90.0
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.feature_nm() as u32)
    }
}

/// Error returned when parsing a [`TechNode`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechNodeError(String);

impl fmt::Display for ParseTechNodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown technology node `{}` (expected one of 180, 90, 65, 45, 32, 22, with optional `nm` suffix)",
            self.0
        )
    }
}

impl std::error::Error for ParseTechNodeError {}

impl FromStr for TechNode {
    type Err = ParseTechNodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim().trim_end_matches("nm").trim();
        match trimmed {
            "180" => Ok(TechNode::N180),
            "90" => Ok(TechNode::N90),
            "65" => Ok(TechNode::N65),
            "45" => Ok(TechNode::N45),
            "32" => Ok(TechNode::N32),
            "22" => Ok(TechNode::N22),
            _ => Err(ParseTechNodeError(s.to_owned())),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn feature_sizes_strictly_decrease() {
        for pair in TechNode::ALL.windows(2) {
            assert!(pair[0].feature_nm() > pair[1].feature_nm());
        }
    }

    #[test]
    fn parse_round_trips() {
        for node in TechNode::ALL {
            let s = node.to_string();
            assert_eq!(s.parse::<TechNode>().unwrap(), node);
        }
        assert_eq!("45".parse::<TechNode>().unwrap(), TechNode::N45);
        assert!("14nm".parse::<TechNode>().is_err());
    }

    #[test]
    fn scale_from_90nm_is_one_at_90nm() {
        assert!((TechNode::N90.scale_from_90nm() - 1.0).abs() < 1e-12);
        assert!(TechNode::N22.scale_from_90nm() < 0.25);
    }
}
