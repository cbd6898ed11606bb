//! Engine-wide tracing spans.
//!
//! The span recorder itself lives in [`spade_gpu::trace`] (the dependency
//! arrow points core → gpu, and the pipeline's own passes emit spans too);
//! this module re-exports it under the engine's namespace and documents
//! the span vocabulary the engine emits.
//!
//! Recording is process-global and armed with [`set_enabled`]. Disabled —
//! the default — every span site costs one relaxed atomic load.
//!
//! ## Span names
//!
//! | name | emitted by | attrs |
//! |------|-----------|-------|
//! | `query.select` / `query.contained` | selections (a range is a select) | `cells`, `results` |
//! | `query.distance` | distance selections | `cells`, `results` |
//! | `query.knn` | kNN selections | `k`, `cells`, `results` |
//! | `query.join` | joins | `cells`, `pairs` |
//! | `query.distance_join` | distance joins | `cells`, `pairs` |
//! | `query.knn_join` | kNN joins | `k`, `cells`, `results` |
//! | `query.aggregate` | count-points aggregation | `cells`, `polygons` |
//! | `prefetch.load` | background producer thread | `source`, `cell`, `bytes`, `cache_hit` |
//! | `prefetch.wait` | consumer stalls on the channel | — |
//! | `gpu.draw` / `gpu.count_pass` / `gpu.map` | every pipeline pass — one span per pass `QueryStats::passes` counts | `primitives`, `visible`, `fragments` |

pub use spade_gpu::trace::{
    drain, dropped, enabled, set_enabled, snapshot, span, Span, SpanGuard, CAPACITY, MAX_ATTRS,
};
