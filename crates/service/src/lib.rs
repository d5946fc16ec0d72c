//! # metaform-service
//!
//! `metaformd`: a work-queue extraction service over the
//! compile-once batch engine, speaking HTTP/1.1 over `std::net` with
//! zero dependencies beyond the workspace.
//!
//! Clients `POST` a batch of HTML query-interface pages, poll the
//! job, and fetch per-page capability reports plus the engine's
//! failure telemetry — the serving-path counterpart of
//! [`metaform_extractor::FormExtractor::extract_batch_adaptive`]. The
//! HTTP layer adds transport and scheduling, never semantics: the
//! reports a client fetches over the wire are byte-identical to an
//! in-process run on the same pages (the differential test in
//! `tests/service_http.rs` holds the service to exactly that).
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `POST /v1/batches` | Submit pages; answers `202` with a job id |
//! | `GET /v1/batches/{id}` | Phase + [`metaform_extractor::BatchStats`] |
//! | `GET /v1/batches/{id}/results` | Per-page reports + failure records |
//! | `DELETE /v1/batches/{id}` | Fire an unfinished job's cancel token; remove a finished job |
//! | `GET /v1/budgets` | The control plane's live budgets + refit state |
//! | `POST /v1/budgets` | Manually override budgets for subsequent jobs |
//! | `GET /healthz` | Liveness |
//! | `GET /metrics` | Text counters |
//! | `POST /v1/shutdown` | Graceful drain-and-exit |
//!
//! Connections are persistent: HTTP/1.1 requests on one connection
//! are served sequentially with keep-alive, each connection on its own
//! handler thread, and the job store/queue behind the handlers are one
//! lock each, with a push waking a parked worker directly — see
//! `DESIGN.md` §5.9. A Unix-socket
//! line-delimited-JSON daemon mode ([`daemon`]) serves co-located
//! callers over the same routing table.
//!
//! Module map: [`http`] (hand-rolled wire parsing with hard limits and
//! keep-alive), [`json`] (request-body shapes over the workspace's one
//! JSON codec, `metaform_extractor::json`), [`jobs`] (the
//! `Queued → Running → Done | Cancelled` state machine and the bounded
//! queue), [`server`] (routing, worker pool, accept
//! loop), [`daemon`] (the Unix-socket listener), [`error`] (the
//! per-page `ExtractError → HTTP status` mapping), [`metrics`] (the
//! striped counter block).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod error;
pub mod http;
pub mod jobs;
pub mod json;
pub mod metrics;
pub mod server;

pub use error::status_for;
pub use http::{read_request, Request, RequestError, RequestReader, Response, MAX_HEAD_BYTES};
pub use jobs::{Job, JobPhase, JobQueue, JobStore};
pub use json::{
    parse_batch_request, parse_budget_update, push_json_str, BatchRequest, BudgetUpdate, JsonValue,
};
pub use metrics::{Counter, Gauge, Metrics};
pub use server::{
    handle_connection, route, BudgetControl, Server, ServerHandle, ServiceConfig, ServiceState,
};
