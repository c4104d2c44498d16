//! Shared code for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`. This library crate holds what
//! several of them reuse: small utilities (scaled-down trace profiles,
//! scheduler line-ups) in [`helpers`], and the frozen reference
//! implementations the optimized code is pinned against in [`oracles`].

pub mod helpers;
pub mod oracles;
