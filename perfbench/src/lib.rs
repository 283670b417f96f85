//! The repository benchmark's library half: the per-role timing
//! decorator and the traced twins of the fleet and testbed worlds. The
//! `perfbench` binary drives them; `tests/` checks the twins against
//! the originals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timed;
pub mod worlds;
