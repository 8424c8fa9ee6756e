//! Allocation guard for the streaming XML reader.
//!
//! This binary installs a counting global allocator, so it holds exactly
//! one test: nothing else may allocate while the count is taken. Draining
//! `XmlStreamReader` over a 37k-node hospital document must cost a bounded
//! handful of heap allocations (the input buffer, the name arena, the open
//! stack and the reused text buffer as they grow), not a few per event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smoqe_toxgene::{domain, DocShape};
use smoqe_xml::{to_xml_string, EventSource, XmlStreamReader};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn draining_the_reader_allocates_a_bounded_handful() {
    let hospital = domain("hospital").expect("hospital domain");
    let doc = hospital.generate(DocShape::Standard, 8, 7);
    assert_eq!(doc.len(), 37_074, "the scale-8 hospital document changed");
    let xml = to_xml_string(&doc);
    drop(doc);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut reader = XmlStreamReader::new(xml.as_bytes());
    let mut events = 0usize;
    while let Some(event) = reader.next_event().expect("the document streams") {
        std::hint::black_box(&event);
        events += 1;
    }
    drop(reader);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(events > 90_000, "only {events} events");
    assert!(
        allocations < 100,
        "draining {events} events made {allocations} heap allocations"
    );
}
