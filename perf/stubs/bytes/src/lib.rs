//! Offline stand-in for `bytes`: the measured workspace declares the dependency but uses no item of it.
