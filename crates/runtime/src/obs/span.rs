//! RAII wall-clock spans and the thread-local parent stack that turns
//! them into per-window trace trees.

use super::internal;
use std::cell::{Cell, RefCell};
use std::time::Instant;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    /// A span captures its depth on start and truncates back to it on
    /// drop, so early/out-of-order drops cannot corrupt ancestry.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Non-zero while trace recording is suppressed on this thread (used
    /// by `parallel_map`'s inline fallback so spans inside worker
    /// closures stay out of the tree at every worker count alike).
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// A running span; records its elapsed wall-clock time under its name
/// when dropped. Created by [`super::span()`].
///
/// Guards nest naturally (each records independently) and may be dropped
/// from any thread — worker threads inside `parallel_map` report into the
/// same registry as the driver. While a telemetry window is open
/// (see [`super::window_begin`]), spans dropped on the window-opening
/// thread additionally contribute a node to the window's trace tree at
/// the path given by their enclosing spans.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    /// `None` while collection is disabled: starting a span then costs no
    /// clock read and dropping it is free.
    start: Option<Instant>,
    /// This span's index in the thread-local stack while running.
    depth: usize,
}

impl Span {
    pub(super) fn start(name: &'static str) -> Self {
        let start = super::enabled().then(Instant::now);
        let depth = if start.is_some() {
            STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                stack.push(name);
                stack.len() - 1
            })
        } else {
            0
        };
        Self { name, start, depth }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let path: Option<Vec<&'static str>> = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = (!suppressed()).then(|| stack[..self.depth.min(stack.len())].to_vec());
            stack.truncate(self.depth);
            path
        });
        let me = std::thread::current().id();
        internal::with(|s| {
            s.spans.entry(self.name).or_default().record(elapsed_ns);
            if let (Some(path), Some(open)) = (&path, s.window.open.as_mut()) {
                if open.opener == me {
                    let mut node = &mut open.trace;
                    for &ancestor in path {
                        node = node.children.entry(ancestor).or_default();
                    }
                    let node = node.children.entry(self.name).or_default();
                    node.count += 1;
                    node.total_ns += elapsed_ns;
                }
            }
        });
    }
}

/// Returns `true` while trace recording is suppressed on this thread.
pub(super) fn suppressed() -> bool {
    SUPPRESS.with(|s| s.get() > 0)
}

/// Suppresses trace-tree recording on the current thread until dropped.
///
/// `parallel_map` wraps its single-threaded inline fallback in this guard
/// so spans opened inside item closures are excluded from trace trees
/// exactly as they are when the closures run on worker threads — keeping
/// tree structure and counts identical at 1 and N workers. Flat span
/// aggregates are unaffected.
#[derive(Debug)]
pub struct TraceSuppressGuard(());

impl TraceSuppressGuard {
    pub(super) fn new() -> Self {
        SUPPRESS.with(|s| s.set(s.get() + 1));
        Self(())
    }
}

impl Drop for TraceSuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(s.get().saturating_sub(1)));
    }
}
