//! Steady-state allocation guard for the request paths.
//!
//! The cache-conscious refactor's contract is that a *warm* engine serves
//! region-reuse requests without touching the heap: the sharded path fills a
//! per-worker scratch (`lookup_into` + thread-local buffers) instead of
//! cloning member lists, and the serial path reads the registry in place.
//! This harness swaps in a counting [`GlobalAlloc`] and pins that contract —
//! a regression reintroducing a per-request `clone()`/`collect()` fails here
//! long before it shows up in a benchmark.
//!
//! The counter is process-global, so everything runs inside ONE `#[test]`
//! (the default harness would interleave allocations from sibling tests).

use nela::geo::UserId;
use nela::netsim::NetworkConfig;
use nela::{BoundingAlgo, CloakingEngine, ClusteringAlgo, Params, System};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the std system allocator unchanged;
// the counter is a relaxed atomic side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_request_paths_do_not_allocate() {
    let system = System::build(&Params {
        k: 5,
        ..Params::scaled(2_000)
    });
    let hosts = system.host_sequence(200, 3);

    // --- Serial path: request_many(threads = 1) -------------------------
    let mut engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let warm = engine.request_many(&hosts, 1);
    // Hosts in underfilled components fail (and re-cluster) every time;
    // the steady-state contract only covers servable hosts.
    let steady: Vec<UserId> = hosts
        .iter()
        .zip(&warm)
        .filter(|(_, r)| r.is_ok())
        .map(|(&h, _)| h)
        .collect();
    assert!(
        steady.len() >= 50,
        "need a meaningful steady set, got {}",
        steady.len()
    );
    let repeat = engine.request_many(&steady, 1);
    assert!(repeat.iter().all(|r| r.as_ref().is_ok_and(|c| c.reused)));

    let before = allocs();
    let results = engine.request_many(&steady, 1);
    let batch_allocs = allocs() - before;
    assert!(results.iter().all(|r| r.as_ref().is_ok_and(|c| c.reused)));
    drop(results);
    // The whole batch may allocate its result Vec (exact-size collect) and
    // nothing else — i.e. zero allocations *per request*.
    assert!(
        batch_allocs <= 2,
        "serial warm batch of {} requests performed {batch_allocs} allocations \
         (expected at most the result Vec)",
        steady.len()
    );

    // --- Sharded path: EngineSession::request ---------------------------
    let engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let session = engine.into_session(2);
    // Warm-up claims every cluster, publishes its region, and grows this
    // thread's scratch to the largest member list.
    for &h in &steady {
        let r = session.request(h);
        assert!(r.is_ok(), "warm-up request failed for host {h}");
    }
    let before = allocs();
    let mut all_reused = true;
    for &h in &steady {
        match session.request(h) {
            Ok(c) => all_reused &= c.reused,
            Err(_) => all_reused = false,
        }
    }
    let session_allocs = allocs() - before;
    assert!(all_reused, "a warm session request missed the reuse path");
    assert_eq!(
        session_allocs,
        0,
        "warm EngineSession served {} requests with {session_allocs} allocations \
         (contract: zero per request)",
        steady.len()
    );

    // --- Netsim session: EngineSession::with_network ---------------------
    // Region reuse never touches the radio, so a warm netsim session must
    // serve it without building a network (or allocating anything else).
    let session = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    )
    .into_session(2)
    .with_network(NetworkConfig {
        loss: 0.05,
        ..NetworkConfig::default()
    })
    .expect("valid network config");
    // Loss can exhaust a request's retries; only hosts served during the
    // warm-up have a published region to reuse.
    let warm: Vec<UserId> = steady
        .iter()
        .copied()
        .filter(|&h| session.request(h).is_ok())
        .collect();
    assert!(
        warm.len() >= 50,
        "need a meaningful warm netsim set, got {}",
        warm.len()
    );
    let before = allocs();
    let mut all_reused = true;
    for &h in &warm {
        match session.request(h) {
            Ok(c) => all_reused &= c.reused,
            Err(_) => all_reused = false,
        }
    }
    let net_allocs = allocs() - before;
    assert!(all_reused, "a warm netsim request missed the reuse path");
    assert_eq!(
        net_allocs,
        0,
        "warm netsim EngineSession served {} requests with {net_allocs} allocations \
         (contract: zero per request)",
        warm.len()
    );
}
