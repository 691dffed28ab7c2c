//! The daemon's typed request surface — and the wire format's data
//! model — as one enum pair:
//!
//! * [`Request`] — everything a client can ask, tagged with a caller
//!   chosen correlation id. The same type is submitted in-process
//!   ([`Daemon::submit`](crate::Daemon::submit)) and encoded on the
//!   TCP socket ([`wire`](crate::wire)) — there is exactly one request
//!   vocabulary, so the network path cannot drift from the in-process
//!   path.
//! * [`Response`] — what comes back: an [`Answer`], an acceptance ack
//!   for an update, or a typed [`RejectReason`]. Rejections are
//!   first-class data, never silent drops: admission control *sheds*
//!   by answering [`RejectReason::Overloaded`].
//! * [`SubmitError`] — the in-process flavour of a rejection, carrying
//!   the request back by value so a driver can retry, reroute, or
//!   count the shed.

use bcc_query::{Answer, EdgeUpdate, Query};

/// One operation a client asks of the daemon, with a caller-chosen
/// correlation `id` (echoed verbatim in the [`Response`]; in-process
/// callers that do not correlate may pass 0).
///
/// This type is *also* the wire format's data model: every variant has
/// a stable binary encoding in [`wire`](crate::wire).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Answer a biconnectivity query from the routed shard's current
    /// snapshot.
    Query {
        /// Correlation id, echoed in the response.
        id: u64,
        /// The query to answer.
        query: Query,
    },
    /// Apply an edge update through the (per-shard) writer path.
    Update {
        /// Correlation id, echoed in the acceptance or rejection.
        id: u64,
        /// The update to apply.
        update: EdgeUpdate,
    },
}

impl Request {
    /// The correlation id of either variant.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Query { id, .. } | Request::Update { id, .. } => id,
        }
    }
}

/// What the daemon says back for one [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A query's answer, served from an epoch snapshot.
    Answer {
        /// The request's correlation id.
        id: u64,
        /// The answer.
        answer: Answer,
    },
    /// An update was admitted to its writer queue. (Commit durability
    /// is batched: acceptance means the update *will* be applied by
    /// the group-commit writer unless the daemon dies first.)
    Accepted {
        /// The request's correlation id.
        id: u64,
    },
    /// The request was refused — see the reason. Rejections replace
    /// silent dropping everywhere in the serving layer.
    Rejected {
        /// The request's correlation id.
        id: u64,
        /// Why it was refused.
        reason: RejectReason,
    },
}

impl Response {
    /// The correlation id of any variant.
    pub fn id(&self) -> u64 {
        match *self {
            Response::Answer { id, .. }
            | Response::Accepted { id }
            | Response::Rejected { id, .. } => id,
        }
    }
}

/// Why a request was refused. Ordered roughly by "how transient":
/// a full queue clears in microseconds, overload clears when the
/// writer catches up, shutdown never clears, and an invalid request
/// never becomes valid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The target bounded queue was at capacity right now. Retry, or
    /// submit with blocking backpressure.
    QueueFull,
    /// Admission control shed this update: a watermark (queue depth or
    /// uncommitted-update backlog) says the writers are behind and
    /// accepting more would blow the read tail. Sheds are counted in
    /// `ServeReport::shed_updates` and the telemetry sink.
    Overloaded,
    /// The daemon began shutdown; no submission will ever succeed.
    ShuttingDown,
    /// The request names a vertex outside the store's fixed universe
    /// (or arrived malformed on the wire).
    Invalid,
}

impl RejectReason {
    /// Stable display name (also used in logs and the client driver).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::Overloaded => "overloaded",
            RejectReason::ShuttingDown => "shutting-down",
            RejectReason::Invalid => "invalid",
        }
    }
}

/// Why [`Daemon::submit`](crate::Daemon::submit) refused a request,
/// carrying the request back by value (mirroring
/// [`TryPushError`](bcc_smp::TryPushError)) so the caller can retry
/// without cloning.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// An update's writer queue was full (transient — retry).
    QueueFull(Request),
    /// Admission control shed the update (writers behind — back off).
    Overloaded(Request),
    /// The daemon is shutting down (final — give up).
    ShuttingDown(Request),
    /// The request names a vertex outside the store's universe (final —
    /// it can never be routed). A refused query still counts in
    /// `ServeReport::query_errors`, and a reply sink receives its
    /// [`RejectReason::Invalid`] response.
    Invalid(Request),
}

impl SubmitError {
    /// The refused request, whichever way it was refused.
    pub fn into_request(self) -> Request {
        match self {
            SubmitError::QueueFull(r)
            | SubmitError::Overloaded(r)
            | SubmitError::ShuttingDown(r)
            | SubmitError::Invalid(r) => r,
        }
    }

    /// The wire-level reason this refusal maps to.
    pub fn reason(&self) -> RejectReason {
        match self {
            SubmitError::QueueFull(_) => RejectReason::QueueFull,
            SubmitError::Overloaded(_) => RejectReason::Overloaded,
            SubmitError::ShuttingDown(_) => RejectReason::ShuttingDown,
            SubmitError::Invalid(_) => RejectReason::Invalid,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request refused: {}", self.reason().name())
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_echo_through_both_enums() {
        let q = Request::Query {
            id: 7,
            query: Query::Connected(1, 2),
        };
        let u = Request::Update {
            id: 9,
            update: EdgeUpdate::Insert(3, 4),
        };
        assert_eq!(q.id(), 7);
        assert_eq!(u.id(), 9);
        assert_eq!(
            Response::Answer {
                id: 7,
                answer: Answer::Bool(true)
            }
            .id(),
            7
        );
        assert_eq!(Response::Accepted { id: 9 }.id(), 9);
        assert_eq!(
            Response::Rejected {
                id: 9,
                reason: RejectReason::Overloaded
            }
            .id(),
            9
        );
    }

    #[test]
    fn submit_error_round_trips_the_request() {
        let r = Request::Update {
            id: 1,
            update: EdgeUpdate::Remove(0, 1),
        };
        let e = SubmitError::Overloaded(r);
        assert_eq!(e.reason(), RejectReason::Overloaded);
        assert_eq!(e.to_string(), "request refused: overloaded");
        assert_eq!(e.into_request(), r);
    }
}
