//! Acceptance gate for the ingest path: group commit must amortize fsync.
//!
//! `WalSync::Always` pays one fsync per record; `WalSync::GroupCommit`
//! pays one per [`GROUP_COMMIT_WINDOW`] records. On any real filesystem
//! that difference is an order of magnitude; the gate requires a
//! conservative ≥3× so it holds even on fast NVMe or an fsync-cheap tmpfs.
//! Release-only: `cargo test --release` runs it (the CI `release` job).

use spade_geometry::{Geometry, Point};
use spade_storage::wal::{Wal, WalOp, WalSync};
use std::time::{Duration, Instant};

const APPENDS: u32 = 4_000;

/// Time `APPENDS` appends through a fresh WAL; best of three runs, so a
/// one-off scheduler hiccup can't fail the gate.
fn best_of_three(sync: WalSync, tag: &str) -> Duration {
    (0..3)
        .map(|round| {
            let dir = std::env::temp_dir().join(format!(
                "spade-ingest-gate-{tag}-{round}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let (mut wal, _) = Wal::open(&dir, sync).expect("open wal");
            let t0 = Instant::now();
            for i in 0..APPENDS {
                wal.append(
                    "gate",
                    WalOp::Insert {
                        id: i,
                        geom: Geometry::Point(Point::new((i % 100) as f64, (i % 97) as f64)),
                    },
                )
                .expect("append");
            }
            let dt = t0.elapsed();
            drop(wal);
            std::fs::remove_dir_all(&dir).ok();
            dt
        })
        .min()
        .unwrap()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn group_commit_beats_always_by_3x() {
    let always = best_of_three(WalSync::Always, "always");
    let group = best_of_three(WalSync::GroupCommit, "group");
    let speedup = always.as_secs_f64() / group.as_secs_f64();
    assert!(
        speedup >= 3.0,
        "expected group commit >= 3x the Always policy, got {speedup:.2}x \
         (always {always:?}, group commit {group:?})"
    );
}
