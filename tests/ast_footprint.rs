//! The memory the `aji serve` parse layer keeps alive.
//!
//! The daemon holds every project's parse so an edit re-parses only the
//! edited files. This binary counts the bytes requested from the
//! allocator and parses the whole corpus population through the daemon's
//! parse layer ([`HintStore::parse`]); the bytes the store still holds
//! afterwards are the parse layer's footprint. A fat AST node layout or
//! list capacity left unused shows here first.
//!
//! It is its own test binary because the counting `#[global_allocator]`
//! sees every allocation of the process. Run it with `--nocapture` to see
//! the figure.

use aji_serve::HintStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most the parse layer may retain for the whole population. The
/// layout of PR-era `Vec` lists and 240-byte statements retained 62.3 MB.
const BUDGET_BYTES: usize = 24_000_000;

#[test]
fn the_parse_layer_of_the_population_stays_within_budget() {
    let projects = aji_corpus::full_population();
    let cold_nodes: usize = projects
        .iter()
        .map(|p| aji_parser::parse_project(p).expect("parses").ids.count())
        .sum();

    let before = LIVE.load(Ordering::SeqCst);
    let mut store = HintStore::new(0);
    let mut nodes = 0;
    for p in &projects {
        nodes += store.parse(p).expect("parses").ids.count();
    }
    let retained = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    println!(
        "parse layer: {} projects, {nodes} nodes, {:.1} MB retained (budget {:.1} MB)",
        projects.len(),
        retained as f64 / 1e6,
        BUDGET_BYTES as f64 / 1e6,
    );

    assert_eq!(nodes, cold_nodes, "the store parses what a cold parse does");
    assert!(
        retained <= BUDGET_BYTES,
        "the parse layer retains {retained} bytes, over the {BUDGET_BYTES}-byte budget"
    );
    drop(store);
}
