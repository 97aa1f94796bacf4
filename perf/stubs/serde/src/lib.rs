//! Offline stand-in for `serde`: marker traits and name-only derives. The
//! measured workspace derives `Serialize`/`Deserialize` on a few config
//! and telemetry types but never serializes anything in-tree, so the
//! traits carry no methods.

/// Marker for types the published crate could serialize.
pub trait Serialize {}

/// Marker for types the published crate could deserialize.
pub trait Deserialize<'de>: Sized {}

pub use serde_derive::{Deserialize, Serialize};
