//! Incremental, checkpointable streaming layer over the batch pipelines.
//!
//! Every attack and defense in this workspace is batch-first: a detector
//! sees the whole trace at once. Live deployments (the paper's smart
//! gateway, a utility's NILM backend) instead receive meter samples and
//! traffic flows in chunks. This crate wraps each batch pipeline in a
//! [`StreamState`]: [`feed`](StreamState::feed) chunks of [`Sample`]s or
//! [`FlowRecord`](netsim::FlowRecord)s as they arrive,
//! [`checkpoint`](StreamState::checkpoint) mid-trace, and
//! [`finalize`](StreamState::finalize) for the pipeline's output.
//!
//! # The batch-equivalence contract
//!
//! The load-bearing guarantee, enforced by `tests/stream_equivalence.rs`
//! and the `stream.*` conformance claims: **for any chunking of the same
//! input — including single-sample chunks and fault-injected traces with
//! gaps — the finalized streaming output is byte-identical to the batch
//! pipeline run on the whole input.** Streaming never trades accuracy for
//! incrementality; it only re-schedules the identical floating-point
//! operations (or, where an algorithm is inherently global, defers them to
//! `finalize`). See `docs/STREAMING.md` for which pipelines are genuinely
//! incremental and which buffer-and-replay.
//!
//! # State classes
//!
//! * **Incremental** — the NIOM detectors fold samples into per-window
//!   records as they arrive ([`ThresholdStream`], [`HmmStream`],
//!   [`LogisticStream`], each keeping only the fields its detector
//!   reads); the exact-FHMM decoder advances its Viterbi forward pass
//!   per sample ([`FhmmStream`] via [`nilm::FhmmFilter`]). Non-output
//!   state is sublinear in the trace (one record per window; two
//!   joint-width scratch rows).
//! * **Buffer-and-replay** — globally coupled algorithms (PowerPlay's
//!   model validation, CHPr's day-indexed draw schedule, the battery's
//!   mean-initialized target, FHMM-ICM, per-window flow features) retain
//!   the raw chunk payload and run the batch code at `finalize`; that is
//!   the only way to stay byte-identical.
//!
//! Gap-marked samples (from [`faults::FaultyTrace`]) are resolved on
//! ingestion by a causal [`StreamFill`] policy matching the batch
//! [`faults::GapFill`] semantics.

#![warn(missing_docs)]

mod chunk;
mod defense_stream;
mod ingest;
mod netsim_stream;
mod nilm_stream;
mod niom_stream;

use timeseries::PipelineError;

pub use chunk::{dense_samples, faulty_samples, FillCheckpoint, Sample, StreamFill, StreamSpec};
pub use defense_stream::{BatteryStream, ChprStream, DefenseStream};
pub use ingest::WindowCheckpoint;
pub use netsim_stream::{pair_accuracy, FingerprintStream, GatewayStream};
pub use nilm_stream::{FhmmStream, PowerPlayStream};
pub use niom_stream::{HmmStream, LogisticStream, NiomStream, ThresholdStream};

/// Per-chunk ingestion receipt: what [`StreamState::feed`] accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedReport {
    /// Items (samples or flows) ingested from the chunk.
    pub items: usize,
    /// Items that were gap-marked (or non-finite) and went through the
    /// stream's gap-fill policy instead of being used verbatim.
    pub gaps: usize,
}

impl FeedReport {
    /// Combines two receipts (e.g. across consecutive chunks).
    pub fn merge(self, other: FeedReport) -> FeedReport {
        FeedReport {
            items: self.items + other.items,
            gaps: self.gaps + other.gaps,
        }
    }
}

/// An incremental pipeline state: feed chunks, checkpoint anywhere, and
/// finalize into exactly what the batch pipeline would have produced.
///
/// `finalize` takes `&self` and is callable at any point — it reports what
/// the batch pipeline would say about the prefix ingested so far, without
/// disturbing the stream (feeding may continue afterwards).
///
/// `checkpoint`/`restore` default to a value snapshot: every stream state
/// in this crate is `Clone`, and restoring a snapshot (including a
/// zero-length one taken before any `feed`) resumes to byte-identical
/// output. Snapshots only make sense on the state they were taken from (or
/// an identically constructed one); restoring across differently
/// configured streams is a logic error, not UB.
pub trait StreamState: Clone {
    /// Unit of ingestion: a meter [`Sample`] or a
    /// [`FlowRecord`](netsim::FlowRecord).
    type Item;
    /// What the pipeline produces once ingestion ends.
    type Output;

    /// Ingests one chunk of items, in trace order.
    fn feed(&mut self, chunk: &[Self::Item]) -> FeedReport;

    /// Items ingested so far, including samples withheld by an open
    /// leading-gap run under [`StreamFill::Hold`].
    fn items(&self) -> usize;

    /// Runs the pipeline over everything ingested so far — byte-identical
    /// to the batch path on the same prefix.
    fn finalize(&self) -> Self::Output;

    /// Checked finalize for possibly-degraded streams: zero-item streams
    /// (nothing fed, or only empty chunks) become a typed error, and
    /// implementations whose batch pipeline has a `try_*` entry point
    /// route through it, so invalid resolved input surfaces as a
    /// [`PipelineError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyInput`] (stage `"stream.finalize"`) when no
    /// item was ingested; implementation-specific errors from the
    /// underlying batch `try_*` entry point otherwise.
    fn try_finalize(&self) -> Result<Self::Output, PipelineError> {
        if self.items() == 0 {
            return Err(PipelineError::EmptyInput {
                stage: "stream.finalize",
            });
        }
        Ok(self.finalize())
    }

    /// Resident bytes this state currently holds: the struct itself plus
    /// the heap buffers it directly owns (vector capacities, not lengths —
    /// this is an allocation measure, not an information measure).
    ///
    /// The default accounts only for `size_of::<Self>()`; states that
    /// buffer samples or window summaries override it to include their
    /// heap. Implementations holding opaque sub-state may under-report;
    /// the value is a lower bound meant for fleet memory accounting
    /// (`bytes/home` in `docs/FLEET.md`), not an allocator audit.
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Snapshots the stream for mid-trace resume.
    fn checkpoint(&self) -> Self {
        self.clone()
    }

    /// Rewinds the stream to a snapshot taken by
    /// [`checkpoint`](Self::checkpoint).
    fn restore(&mut self, snapshot: &Self) {
        *self = snapshot.clone();
    }
}

/// Feeds `items` through `state` in consecutive chunks of `chunk_len`
/// (trailing partial chunk included) and returns the merged receipt.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn feed_chunked<S: StreamState>(
    state: &mut S,
    items: &[S::Item],
    chunk_len: usize,
) -> FeedReport {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let mut report = FeedReport::default();
    for chunk in items.chunks(chunk_len) {
        report = report.merge(state.feed(chunk));
    }
    report
}

/// Feeds `items` through `state` split at the given chunk lengths, in
/// order; any remainder past `sum(partition)` is fed as one final chunk.
/// Zero-length entries feed empty chunks (which must be no-ops — the
/// equivalence proptests rely on this).
pub fn feed_partitioned<S: StreamState>(
    state: &mut S,
    items: &[S::Item],
    partition: &[usize],
) -> FeedReport {
    let mut report = FeedReport::default();
    let mut at = 0;
    for &len in partition {
        let end = (at + len).min(items.len());
        report = report.merge(state.feed(&items[at..end]));
        at = end;
    }
    if at < items.len() {
        report = report.merge(state.feed(&items[at..]));
    }
    report
}
