//! Typed simulation failures.
//!
//! A simulation that cannot make progress used to `panic!` from deep inside
//! the kernel or the maestro loop. Both conditions are now surfaced as a
//! [`SimError`] through [`crate::world::World::try_run`], so harnesses (and
//! tests) can distinguish a modelling bug from an infrastructure crash and
//! report *which* actions or ranks are stuck.
//!
//! Both variants carry a [`Postmortem`] snapshot from the always-on flight
//! recorder: each blocked rank's last ops, its pending request specs, and
//! the nearest matching counterpart — so `Display` prints an actionable
//! diagnosis ("rank 1 is waiting on tag 9 but rank 0 sent tag 7") instead
//! of a bare rank count. A streaming capture that cannot create or write
//! its file is a [`SimError::Capture`] too, with an empty postmortem: no
//! rank is to blame.

use std::fmt;

use crate::flight::Postmortem;

pub(crate) use surf_sim::StallError;

/// A simulation failed to make progress.
#[derive(Debug)]
pub enum SimError {
    /// The transport kernel has running actions but none of them can ever
    /// complete (for example a flow whose model bound is 0 bytes/s). The
    /// payload names every stuck action with its remaining work, rate and
    /// route.
    Stall {
        /// Kernel-level detail: every stuck action with its remaining
        /// work, rate and route.
        error: StallError,
        /// MPI-level context for the stuck work (empty when the stall
        /// surfaced outside the maestro loop).
        postmortem: Box<Postmortem>,
    },
    /// Every remaining rank is blocked on a request while nothing is in
    /// flight on the fabric — the MPI-level analogue of a stall, typically
    /// an unmatched send/recv pair.
    Deadlock {
        /// World ranks still blocked, ascending.
        blocked: Vec<u32>,
        /// Flight-recorder snapshot of every blocked rank.
        postmortem: Box<Postmortem>,
    },
    /// The runtime's protocol state machine was handed an event that
    /// references a request or message it no longer (or never) knew about —
    /// a fabric completion for an unknown token, a receive binding to a
    /// vanished request, a completion for a dropped message. Typically a
    /// malformed or truncated `.tit` replay trace whose operation stream
    /// violates MPI matching semantics; previously these paths panicked and
    /// poisoned the maestro thread.
    Protocol {
        /// What was being completed and which id was missing.
        detail: String,
        /// Flight-recorder snapshot at the point of failure.
        postmortem: Box<Postmortem>,
    },
    /// A streaming capture ([`World::capture_to`](crate::World::capture_to))
    /// could not create or write its `TITRACE2` file.
    Capture {
        /// What failed: `cannot create capture file <path>` or
        /// `streaming capture write failed`.
        context: String,
        /// The I/O error behind it.
        error: std::io::Error,
    },
}

/// The postmortem of a failure no rank is blocked in.
static NO_POSTMORTEM: Postmortem = Postmortem { ranks: Vec::new() };

impl SimError {
    /// The flight-recorder snapshot attached to the failure.
    pub fn postmortem(&self) -> &Postmortem {
        match self {
            SimError::Stall { postmortem, .. }
            | SimError::Deadlock { postmortem, .. }
            | SimError::Protocol { postmortem, .. } => postmortem,
            SimError::Capture { .. } => &NO_POSTMORTEM,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stall { error, postmortem } => {
                write!(f, "{error}")?;
                if !postmortem.ranks.is_empty() {
                    write!(f, "\n{}", postmortem.render())?;
                }
                Ok(())
            }
            SimError::Deadlock {
                blocked,
                postmortem,
            } => {
                write!(
                    f,
                    "deadlock: {} rank(s) blocked with no event in flight \
                     (unmatched send/recv?)",
                    blocked.len()
                )?;
                if !postmortem.ranks.is_empty() {
                    write!(f, "\n{}", postmortem.render())?;
                }
                Ok(())
            }
            SimError::Protocol { detail, postmortem } => {
                write!(
                    f,
                    "protocol error: {detail} (malformed or truncated trace?)"
                )?;
                if !postmortem.ranks.is_empty() {
                    write!(f, "\n{}", postmortem.render())?;
                }
                Ok(())
            }
            SimError::Capture { context, error } => write!(f, "{context}: {error}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Stall { error, .. } => Some(error),
            SimError::Capture { error, .. } => Some(error),
            SimError::Deadlock { .. } | SimError::Protocol { .. } => None,
        }
    }
}

impl From<StallError> for SimError {
    fn from(error: StallError) -> Self {
        // The kernel knows nothing about ranks; the maestro attaches the
        // real postmortem when the stall crosses the drive loop.
        SimError::Stall {
            error,
            postmortem: Box::default(),
        }
    }
}
