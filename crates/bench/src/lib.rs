//! Benchmark crate: the [`alloc_counter`] instrumentation used by the
//! scheduler microbenchmark (`src/bin/sched_bench.rs`) and the
//! allocation regression test: a counting [`std::alloc::GlobalAlloc`]
//! wrapper around the system allocator. That wrapper is the one place in
//! the workspace that needs `unsafe` (the `GlobalAlloc` trait itself is
//! unsafe), so this crate does not carry `#![forbid(unsafe_code)]`; the
//! module below re-establishes `#![deny(unsafe_code)]` everywhere except
//! the two-line trait impl.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod alloc_counter;
