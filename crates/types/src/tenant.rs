//! Tenant identity for multi-detector deployments.
//!
//! The fleet runtime (`spot-runtime`) hosts many independently
//! configured detectors — one per tenant/sensor/model — in one registry.
//! [`TenantId`] is the registry key: a small, validated,
//! cheaply-cloneable name that survives checkpoints (it is serialized into
//! fleet checkpoints as a plain string).

use crate::error::{Result, SpotError};
use std::fmt;
use std::sync::Arc;

/// Maximum length of a tenant id, in bytes. Generous for any reasonable
/// naming scheme while keeping checkpoint headers and error messages sane.
pub const MAX_TENANT_ID_LEN: usize = 256;

/// A validated tenant name: non-empty, at most [`MAX_TENANT_ID_LEN`] bytes,
/// no control characters (ids appear verbatim in logs, error messages and
/// JSON checkpoints).
///
/// Backed by an `Arc<str>`, so clones are pointer bumps — the id is cloned
/// on every registry operation and into every error it decorates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Validates and interns a tenant name.
    pub fn new(name: impl AsRef<str>) -> Result<Self> {
        let name = name.as_ref();
        if name.is_empty() {
            return Err(SpotError::InvalidConfig(
                "tenant id must not be empty".to_string(),
            ));
        }
        if name.len() > MAX_TENANT_ID_LEN {
            return Err(SpotError::InvalidConfig(format!(
                "tenant id exceeds {MAX_TENANT_ID_LEN} bytes ({} given)",
                name.len()
            )));
        }
        if name.chars().any(char::is_control) {
            return Err(SpotError::InvalidConfig(format!(
                "tenant id {name:?} contains control characters"
            )));
        }
        Ok(TenantId(Arc::from(name)))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for TenantId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Ids hash and compare as their text, so maps keyed by `TenantId` can
/// be probed with a borrowed `&str` (the WAL scanner's decoded frames).
impl std::borrow::Borrow<str> for TenantId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl TryFrom<&str> for TenantId {
    type Error = SpotError;

    fn try_from(name: &str) -> Result<Self> {
        TenantId::new(name)
    }
}

impl TryFrom<String> for TenantId {
    type Error = SpotError;

    fn try_from(name: String) -> Result<Self> {
        TenantId::new(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_ids_roundtrip() {
        let id = TenantId::new("sensor-7/zone_3").unwrap();
        assert_eq!(id.as_str(), "sensor-7/zone_3");
        assert_eq!(id.to_string(), "sensor-7/zone_3");
        assert_eq!(id, TenantId::try_from("sensor-7/zone_3").unwrap());
        // Clones are cheap and equal.
        let c = id.clone();
        assert_eq!(c, id);
    }

    #[test]
    fn invalid_ids_rejected() {
        assert!(TenantId::new("").is_err());
        assert!(TenantId::new("a\nb").is_err());
        assert!(TenantId::new("\u{7}bell").is_err());
        assert!(TenantId::new("x".repeat(MAX_TENANT_ID_LEN)).is_ok());
        assert!(TenantId::new("x".repeat(MAX_TENANT_ID_LEN + 1)).is_err());
    }

    #[test]
    fn ids_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TenantId::new("a").unwrap());
        set.insert(TenantId::new("b").unwrap());
        set.insert(TenantId::new("a").unwrap());
        assert_eq!(set.len(), 2);
        assert!(TenantId::new("a").unwrap() < TenantId::new("b").unwrap());
    }
}
