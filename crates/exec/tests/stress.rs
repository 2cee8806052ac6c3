//! Stress tests: many external submitters hammering one shared pool,
//! nesting, and shutdown-while-busy.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use swag_exec::{ExecConfig, Executor};

/// Several OS threads share one executor and issue overlapping par_maps.
#[test]
fn concurrent_external_par_maps() {
    let exec = Executor::new(ExecConfig::with_threads(4));
    let total = Arc::new(AtomicUsize::new(0));
    crossbeam::thread::scope(|s| {
        for t in 0..6 {
            let exec = exec.clone();
            let total = Arc::clone(&total);
            s.spawn(move |_| {
                for round in 0..20 {
                    let items: Vec<usize> = (0..64).map(|i| i + t * 1000 + round).collect();
                    let out = exec.par_map(&items, |&x| x * 2);
                    assert_eq!(out.len(), items.len());
                    for (o, i) in out.iter().zip(&items) {
                        assert_eq!(*o, i * 2);
                    }
                    total.fetch_add(out.len(), Ordering::Relaxed);
                }
            });
        }
    })
    .unwrap();
    assert_eq!(total.load(Ordering::Relaxed), 6 * 20 * 64);
}

/// Deep nesting (par_map inside par_map inside join) on a tiny pool —
/// exercises the help-while-waiting path that prevents deadlock.
#[test]
fn deeply_nested_on_small_pool() {
    let exec = Executor::new(ExecConfig::with_threads(2));
    let outer: Vec<usize> = (0..6).collect();
    let out = exec.par_map(&outer, |&i| {
        let (left, right) = exec.join(
            || {
                let inner: Vec<usize> = (0..8).collect();
                exec.par_map(&inner, |&j| i * 10 + j).iter().sum::<usize>()
            },
            || i * 1000,
        );
        left + right
    });
    let expected: Vec<usize> = (0..6)
        .map(|i| (0..8).map(|j| i * 10 + j).sum::<usize>() + i * 1000)
        .collect();
    assert_eq!(out, expected);
}

/// Spawning a storm of scope tasks from multiple submitters.
#[test]
fn scope_storm() {
    let exec = Executor::new(ExecConfig::with_threads(3));
    let counter = Arc::new(AtomicUsize::new(0));
    crossbeam::thread::scope(|s| {
        for _ in 0..4 {
            let exec = exec.clone();
            let counter = Arc::clone(&counter);
            s.spawn(move |_| {
                for _ in 0..10 {
                    exec.scope(|scope| {
                        for _ in 0..50 {
                            let counter = &counter;
                            scope.spawn(move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
        }
    })
    .unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 4 * 10 * 50);
}

/// Dropping the last executor clone joins the workers without hanging.
#[test]
fn drop_shuts_down_cleanly() {
    for _ in 0..10 {
        let exec = Executor::new(ExecConfig::with_threads(4));
        let items: Vec<usize> = (0..256).collect();
        let out = exec.par_map(&items, |&x| x + 1);
        assert_eq!(out.len(), 256);
        drop(exec);
    }
}

/// A panicking task does not poison the pool for subsequent work.
#[test]
fn pool_survives_repeated_panics() {
    let exec = Executor::new(ExecConfig::with_threads(2));
    for round in 0..5 {
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.par_map(&items, |&i| {
                if i == round * 3 {
                    panic!("round {round}");
                }
                i
            })
        }));
        assert!(result.is_err());
        let ok = exec.par_map(&items, |&i| i + round);
        assert_eq!(ok.len(), 32);
    }
}

/// Queue-wait instrumentation: once observability is attached, every
/// task that crosses a queue records its submit-to-dequeue latency, and
/// stolen tasks additionally land in the steal-wait histogram.
#[test]
fn queue_wait_metrics_record_per_task_latency() {
    let reg = swag_obs::Registry::new();
    let exec = Executor::new(ExecConfig::with_threads(3));
    exec.attach_observability(&reg);
    let items: Vec<usize> = (0..512).collect();
    for _ in 0..4 {
        let out = exec.par_map(&items, |&x| x.wrapping_mul(3));
        assert_eq!(out.len(), 512);
    }
    let wait = reg.histogram("swag_exec_queue_wait_micros").snapshot();
    assert!(wait.count > 0, "no queue waits recorded");
    // Every stolen task's wait is also a queue wait.
    let steal = reg.histogram("swag_exec_steal_wait_micros").snapshot();
    assert!(steal.count <= wait.count);
    assert_eq!(steal.count, reg.counter("swag_exec_steals_total").get());
}

/// The serial executor records no queue metrics: nothing is enqueued.
#[test]
fn serial_executor_records_no_queue_waits() {
    let reg = swag_obs::Registry::new();
    let exec = Executor::serial();
    exec.attach_observability(&reg);
    let items: Vec<usize> = (0..64).collect();
    exec.par_map(&items, |&x| x + 1);
    assert!(reg.get("swag_exec_queue_wait_micros").is_none());
}

/// Hundreds of thousands of tiny fork-joins on a 2-thread pool. A
/// coordinator frees its stack-allocated job (latch included) as soon as
/// the latch reads zero, and the next call reuses that stack slot, so a
/// worker that still touches the latch after its final decrement writes
/// into a dead frame — seen as a crash, a hang or a wrong sum.
#[test]
fn tiny_fork_joins_never_touch_a_released_latch() {
    let exec = Executor::new(ExecConfig::with_threads(2));
    let items = [1u64, 2, 3];
    let rounds = 150_000u64;
    let mut sum = 0u64;
    for i in 0..rounds {
        sum += exec.par_map(&items, |&x| x + i).iter().sum::<u64>();
        let (a, b) = exec.join(|| i, || 1);
        sum += a + b;
    }
    // Per round: (6 + 3i) from par_map, (i + 1) from join.
    assert_eq!(sum, 7 * rounds + 4 * (rounds * (rounds - 1) / 2));
}
