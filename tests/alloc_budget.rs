//! What a packet-in costs the allocator, pinned: heap allocations per
//! packet-in of the Q1 stream, counted by a counting global allocator. A
//! count, not a timing, so it cannot flake — and a binary of its own, so
//! the allocator counts nothing but this.
//!
//! One packet-in of the stream is one event and, on average, one rule
//! firing. Before rules compiled to slot frames it made 39.9 allocations
//! (a `String` per variable binding, an `Env`, `Vec<bool>` and id list
//! cloned per join candidate, a deep clone of each assignment and of the
//! head atom per firing, a `Schema` per store call); what is left is the
//! event tuple and its copy in the step result, the values bound into the
//! frame, the head tuple, and the store's key.

// The one `unsafe` in the workspace: `GlobalAlloc` cannot be implemented
// without it.
#![allow(unsafe_code)]

mod common;

use sdn_meta_repair::sdn::controller::{Controller, PacketInMsg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic
// (`Relaxed`, publishes nothing) and touches no memory the allocator
// manages. `realloc` and `alloc_zeroed` keep their default implementations,
// which call `alloc`, so each is counted once.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 1_000;
const MEASURED: usize = 10_000;

/// Allocations per packet-in over `MEASURED` packet-ins, after `WARM_UP`
/// have sized the engine's buffers and installed the stream's flow
/// entries. `reroute` edits each message first (outside the count).
fn allocations_per_packet_in(record_events: bool, reroute: impl Fn(&mut PacketInMsg)) -> f64 {
    let mut ctrl = common::q1_controller(record_events);
    let mut msgs = common::q1_packet_ins(WARM_UP + MEASURED);
    msgs.iter_mut().for_each(reroute);
    let mut replies = Vec::new();
    let mut feed = |msgs: &[PacketInMsg]| {
        for msg in msgs {
            replies.clear();
            ctrl.on_packet_in(msg, &mut replies);
        }
    };
    feed(&msgs[..WARM_UP]);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    feed(&msgs[WARM_UP..]);
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / MEASURED as f64
}

// One test, so no other thread of this binary allocates while it counts.
#[test]
fn a_packet_in_stays_within_its_allocation_budget() {
    for record_events in [true, false] {
        let fired = allocations_per_packet_in(record_events, |_| {});
        assert!(fired <= 14.0, "{fired} allocations per packet-in, recording {record_events}");
        // A switch no rule names: the event, its copy in the step result,
        // the queue — and no firing.
        let unmatched = allocations_per_packet_in(record_events, |msg| msg.switch = 9);
        assert!(unmatched <= 7.5, "{unmatched} per unmatched packet-in, recording {record_events}");
        eprintln!("recording {record_events}: {fired} per packet-in, {unmatched} unmatched");
    }
}
