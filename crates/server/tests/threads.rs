//! The threads a WAL-backed server starts. This binary holds one test,
//! so no other test's server shares the process while it counts.
#![cfg(target_os = "linux")]

use ode_db::{Database, SharedDatabase};
use ode_server::Server;

/// The names of this process's threads (Linux: `/proc/self/task`).
fn thread_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    names.sort();
    names
}

/// `after` minus one occurrence of each name in `before`.
fn started(before: &[String], after: &[String]) -> Vec<String> {
    let mut left = after.to_vec();
    for name in before {
        if let Some(i) = left.iter().position(|n| n == name) {
            left.remove(i);
        }
    }
    left
}

#[test]
fn bulk_work_runs_on_one_background_thread_at_any_shard_count() {
    for shards in [1usize, 4] {
        let dir = std::env::temp_dir().join(format!("ode-threads-{shards}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let before = thread_names();
        let mut server = Server::builder(SharedDatabase::new(Database::new()))
            .shards(shards)
            .wal_dir(&dir)
            .wal_archive(true)
            .history(true)
            .start()
            .expect("start");
        let mut want: Vec<String> = vec!["ode-background".to_string()];
        for _ in 0..shards {
            want.push("hist-indexer".to_string());
            want.push("wal-flusher".to_string());
        }
        want.sort();
        // A new thread names itself once it runs; give each a moment.
        let mut got = started(&before, &thread_names());
        for _ in 0..200 {
            if got == want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            got = started(&before, &thread_names());
        }
        assert_eq!(
            got, want,
            "{shards} shard(s): one flusher and one indexer per shard, one background thread"
        );
        server.shutdown();
        assert!(
            !thread_names().iter().any(|n| n == "ode-background"),
            "{shards} shard(s): shutdown joins the background thread"
        );
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
