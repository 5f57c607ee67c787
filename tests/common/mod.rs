//! The suite's one way to prove two runs are the same.
//!
//! * [`same`] asserts that two values have the same derived `Debug`
//!   rendering. The rendering covers every field, and an `f64` prints in
//!   its shortest exact round-trip form, so equal text means equal bits.
//!   Metrics, point outcomes and result frames all compare through it.
//! * [`lockstep`] drives two instances — the path under test and its
//!   reference — through one script, and asserts with [`same`] that an
//!   observation of each agrees after every step.
//!
//! A new fast path registers its twin here: build it beside its reference,
//! drive both through [`lockstep`], and observe whole state, not a chosen
//! handful of counters.
//!
//! Every integration test that compares runs includes this module
//! (`mod common;`); each uses a subset of it.
#![allow(dead_code)]

use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;
use std::fmt::{Debug, Display};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Asserts that `a` and `b` have the same derived `Debug` rendering. On a
/// mismatch the panic quotes the two renderings around the first
/// character where they part, not both in full.
#[track_caller]
pub fn same<T: Debug + ?Sized>(a: &T, b: &T, ctx: impl Display) {
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    if a == b {
        return;
    }
    let at = a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count();
    let around = |s: &str| -> String { s.chars().skip(at.saturating_sub(100)).take(200).collect() };
    panic!(
        "{ctx}: the renderings part at character {at}\n  left:  …{}…\n  right: …{}…",
        around(&a),
        around(&b)
    );
}

/// Drives `twins` — `[path under test, reference]` — through `script` in
/// lockstep. For each item, `step(twin, k, item)` runs on twin `k = 0`
/// and then on twin `k = 1`; `observe` must then read the [`same`] from
/// both. Returns the twins for the caller's own checks.
#[track_caller]
pub fn lockstep<T, S: Debug, O: Debug>(
    mut twins: [T; 2],
    script: impl IntoIterator<Item = S>,
    mut step: impl FnMut(&mut T, usize, &S),
    mut observe: impl FnMut(&mut T) -> O,
    ctx: impl Display,
) -> [T; 2] {
    for (i, item) in script.into_iter().enumerate() {
        for (k, twin) in twins.iter_mut().enumerate() {
            step(twin, k, &item);
        }
        let [a, b] = &mut twins;
        same(
            &observe(a),
            &observe(b),
            format_args!("{ctx}, step {i} ({item:?})"),
        );
    }
    twins
}

/// The batch's metrics, every point required to succeed: two batches
/// that failed alike would otherwise compare equal.
pub fn run_batch(runner: &BatchRunner, specs: &[RunSpec]) -> Vec<SystemMetrics> {
    runner
        .run_batch_outcomes(specs)
        .into_iter()
        .map(|o| o.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// A fresh, empty scratch directory under the system temp directory,
/// removed (with whatever was written into it) when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "nocout-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
