//! # seedb-util
//!
//! Small dependency-free utilities shared across the workspace. The
//! registry is unreachable in this build environment, so anything several
//! crates need — most importantly a JSON value type with a parser and a
//! writer — lives here instead of being pulled in as an external crate.

#![forbid(unsafe_code)]

pub mod json;
pub mod plock;

pub use json::Json;
pub use plock::{PLock, PLockGuard};
