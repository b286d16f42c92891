//! Error type for pool persistence, provenance validation and planning.

use std::fmt;
use tim_core::math::SampleCountError;

/// Errors raised while loading, saving, or validating RR-set pools, or
/// while planning a query whose ε/ℓ no pool can serve.
#[derive(Debug)]
pub enum EngineError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A pool file was malformed, truncated, version-mismatched, or failed
    /// its checksum.
    Format(String),
    /// A structurally valid pool does not match the graph or configuration
    /// it is being attached to (wrong graph checksum, model, seed, …).
    Mismatch(String),
    /// The query's ε/ℓ ask for more RR sets than a pool can hold.
    SampleCount(SampleCountError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "i/o error: {e}"),
            EngineError::Format(m) => write!(f, "pool format error: {m}"),
            EngineError::Mismatch(m) => write!(f, "pool provenance mismatch: {m}"),
            EngineError::SampleCount(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SampleCountError> for EngineError {
    fn from(e: SampleCountError) -> Self {
        EngineError::SampleCount(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e: EngineError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("i/o"));
        assert!(e.source().is_some());
        assert!(EngineError::Format("bad".into())
            .to_string()
            .contains("bad"));
        assert!(EngineError::Mismatch("x".into()).source().is_none());
    }
}
