//! Error type for MST computations.

use std::fmt;

/// Errors produced by the distributed MST algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MstError {
    /// The input graph failed a structural requirement.
    Graph(amt_graphs::GraphError),
    /// The underlying permutation router failed.
    Route(amt_routing::RouteError),
    /// The CONGEST simulator reported a model violation.
    Congest(amt_congest::CongestError),
    /// The algorithm exceeded its iteration budget without connecting the
    /// forest (indicates a bug or an adversarial coin sequence beyond the
    /// budget; practically unreachable).
    TooManyIterations {
        /// The configured iteration cap.
        cap: u32,
    },
    /// An edge weight does not fit the driver's candidate encoding (a
    /// weight and an edge id packed into one CONGEST message).
    WeightTooLarge {
        /// The largest weight of the input.
        weight: u64,
        /// The largest weight the encoding can carry for this graph.
        limit: u64,
    },
}

impl fmt::Display for MstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MstError::Graph(e) => write!(f, "input graph unsuitable: {e}"),
            MstError::Route(e) => write!(f, "routing failed: {e}"),
            MstError::Congest(e) => write!(f, "CONGEST execution failed: {e}"),
            MstError::TooManyIterations { cap } => {
                write!(f, "forest not connected after {cap} Boruvka iterations")
            }
            MstError::WeightTooLarge { weight, limit } => write!(
                f,
                "edge weight {weight} exceeds the candidate encoding's limit {limit}"
            ),
        }
    }
}

impl std::error::Error for MstError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MstError::Graph(e) => Some(e),
            MstError::Route(e) => Some(e),
            MstError::Congest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<amt_graphs::GraphError> for MstError {
    fn from(e: amt_graphs::GraphError) -> Self {
        MstError::Graph(e)
    }
}

impl From<amt_routing::RouteError> for MstError {
    fn from(e: amt_routing::RouteError) -> Self {
        MstError::Route(e)
    }
}

impl From<amt_congest::CongestError> for MstError {
    fn from(e: amt_congest::CongestError) -> Self {
        MstError::Congest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: MstError = amt_graphs::GraphError::Disconnected.into();
        assert!(e.to_string().contains("not connected"));
        assert!(std::error::Error::source(&e).is_some());
        let e = MstError::TooManyIterations { cap: 64 };
        assert!(e.to_string().contains("64"));
        let e = MstError::WeightTooLarge {
            weight: 1 << 62,
            limit: 15,
        };
        assert!(e.to_string().contains("4611686018427387904"));
        assert!(e.to_string().contains("15"));
    }
}
