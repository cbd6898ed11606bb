//! Engine-wide tracing spans.
//!
//! The span recorder itself lives in [`spade_gpu::trace`] (the dependency
//! arrow points core → gpu, and the pipeline's own passes emit spans too);
//! this module re-exports it under the engine's namespace and documents
//! the span vocabulary the engine emits.
//!
//! Arm recording with [`crate::EngineConfig::tracing`] (checked once at
//! [`crate::Spade::new`]) or directly with [`set_enabled`]. Disabled —
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

#[cfg(test)]
mod tests {
    use crate::config::EngineConfig;
    use crate::engine::Spade;

    #[test]
    fn engine_config_arms_tracing() {
        // Arming is one-way (another engine with tracing off must not
        // silence a traced engine sharing the process), so restore state.
        let was = super::enabled();
        let _spade = Spade::new(EngineConfig {
            tracing: true,
            ..EngineConfig::test_small()
        });
        assert!(super::enabled());
        // An untraced engine leaves the global flag alone.
        super::set_enabled(false);
        let _quiet = Spade::new(EngineConfig::test_small());
        assert!(!super::enabled());
        super::set_enabled(was);
    }
}
