//! Error types for the batched-inference runtime.

use std::error::Error;
use std::fmt;

/// Errors produced by the runtime subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// A request cannot fit the configured tile capacity even alone.
    CapacityExceeded(String),
    /// An internal engine invariant was violated. This is a bug in the
    /// runtime, never a user error; it exists so library code can surface
    /// broken invariants as typed errors instead of panicking (the
    /// serving crates are panic-free by policy — lint rule E1).
    Internal(String),
    /// An error bubbled up from the accelerator model.
    Pim(hyflex_pim::PimError),
    /// An error bubbled up from the transformer substrate.
    Model(hyflex_transformer::ModelError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RuntimeError::CapacityExceeded(msg) => write!(f, "capacity exceeded: {msg}"),
            RuntimeError::Internal(msg) => {
                write!(f, "internal runtime invariant violated (bug): {msg}")
            }
            RuntimeError::Pim(e) => write!(f, "accelerator model error: {e}"),
            RuntimeError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Pim(e) => Some(e),
            RuntimeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

/// [`RuntimeError::InvalidConfig`] with the message when `invalid` holds,
/// else `Ok(())`: the one shape of the simulators' constructor checks.
pub(crate) fn invalid_if(
    invalid: bool,
    message: impl FnOnce() -> String,
) -> Result<(), RuntimeError> {
    if invalid {
        Err(RuntimeError::InvalidConfig(message()))
    } else {
        Ok(())
    }
}

impl From<hyflex_pim::PimError> for RuntimeError {
    fn from(e: hyflex_pim::PimError) -> Self {
        RuntimeError::Pim(e)
    }
}

impl From<hyflex_transformer::ModelError> for RuntimeError {
    fn from(e: hyflex_transformer::ModelError) -> Self {
        RuntimeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = RuntimeError::InvalidConfig("qps".into());
        assert!(e.to_string().contains("qps"));
        assert!(Error::source(&e).is_none());
        let e: RuntimeError = hyflex_pim::PimError::CapacityExceeded("x".into()).into();
        assert!(Error::source(&e).is_some());
        let e: RuntimeError = hyflex_transformer::ModelError::InvalidInput("y".into()).into();
        assert!(e.to_string().contains("model error"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }
}
