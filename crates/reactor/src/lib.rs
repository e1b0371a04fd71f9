//! Std-only nonblocking readiness primitives for `archdse-serve`.
//!
//! The serve crate forbids `unsafe` outright, so the thin syscall layer the
//! reactor needs lives here instead: a [`Poller`] over epoll (Linux) or
//! `poll(2)` (portable fallback), a socketpair-based [`Waker`] for
//! cross-thread wakeups, and a hashed [`TimerWheel`] for per-connection
//! deadlines. No external crates, no `libc` dependency — `std` already links
//! the platform C library, so the four syscalls are declared directly in
//! private `sys`-module wrappers with safe signatures.
//!
//! Design constraints that shaped this crate:
//!
//! - **Level-triggered only.** The serve reactor parks connections by
//!   dropping their interest mask to [`Interest::None`] while a request is in
//!   flight, so level-triggered semantics never busy-loop and edge-trigger
//!   starvation bugs are impossible by construction.
//! - **One registration per fd.** Matches both epoll's natural model and the
//!   rebuilt-array `poll` fallback.
//! - **One timer entry per owner.** Each connection keeps its current
//!   deadline and the generation it guards in a [`Deadline`] beside it.
//!   Re-arming later rewrites that record and never touches the wheel; a
//!   fired entry is re-queued, dropped as stale or reported due by
//!   [`TimerWheel::settle`]. Cancelling is a generation bump, never a
//!   search, and [`TimerWheel::next_deadline`] reads a slot bitmap, never
//!   the entries.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod poller;
mod sys;
mod timer;

pub use poller::{waker_pair, Backend, Event, Interest, Poller, WakeRx, Waker, WAKE_TOKEN};
pub use timer::{Deadline, Fired, TimerWheel};
