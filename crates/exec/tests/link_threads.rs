//! How many OS threads a framed link holds: one per endpoint, the reader
//! that drains its socket. Every frame is written by the task that sends
//! it, so a `RemoteQueue` (both ends of one link in one process) holds two
//! and a `LinkSender` / `LinkReceiver` pair one each.
//!
//! Threads are counted by name (`/proc/self/task/*/comm`, cut to 15 bytes)
//! across the whole process, so this file is a test binary of its own and
//! its tests take turns: no other test spawns links while one counts.
#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ewh_core::ColumnBatch;
use ewh_exec::engine::CancelToken;
use ewh_exec::{LinkReceiver, LinkSender, PortPop, RemoteQueue, TransportConfig};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// This process's threads whose name starts with `ewh-link`.
fn link_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("ewh-link"))
        .count()
}

/// The count once it has held still for 200 ms: a thread names itself as
/// it starts, and a joined one leaves the task list shortly after.
fn settled_link_threads() -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut last, mut since) = (link_threads(), Instant::now());
    while since.elapsed() < Duration::from_millis(200) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        let now = link_threads();
        if now != last {
            (last, since) = (now, Instant::now());
        }
    }
    last
}

#[test]
fn a_remote_queue_holds_two_io_threads_until_it_drops() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(settled_link_threads(), 0);
    let q =
        RemoteQueue::spawn(&TransportConfig::tcp(), 1 << 10, 4, CancelToken::new()).expect("link");
    assert_eq!(settled_link_threads(), 2, "one reader per endpoint");
    drop(q);
    assert_eq!(settled_link_threads(), 0, "dropping the queue joins both");
}

#[test]
fn a_sender_and_a_receiver_hold_one_io_thread_each() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(settled_link_threads(), 0);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let tx = LinkSender::<ColumnBatch>::connect(&addr, 1 << 10).expect("connect");
    assert_eq!(settled_link_threads(), 1, "the sender's credit reader");
    let rx = LinkReceiver::<ColumnBatch>::accept(&listener).expect("accept");
    assert_eq!(settled_link_threads(), 2, "and the receiver's frame reader");
    let mut batch = ColumnBatch::new();
    batch.push(7, 1);
    assert!(tx.offer(batch, None).is_ok());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !matches!(rx.take(None), PortPop::Item(_)) {
        assert!(Instant::now() < deadline, "the batch never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(settled_link_threads(), 2, "no thread writes the frames");
    // The sender's `finish` waits for the receiver's credit `CLOSE`.
    std::thread::scope(|s| {
        let sent = s.spawn(|| tx.finish());
        rx.join().expect("clean close");
        sent.join().expect("sender").expect("clean finish");
    });
    assert_eq!(settled_link_threads(), 0, "finish and join end both");
}
