//! `siri-server` — serve a POS-Tree Forkbase over TCP.
//!
//! ```text
//! siri-server --mem --listen 127.0.0.1:4733
//! siri-server --db ./data.siri --fsync commit --listen 0.0.0.0:4733
//! ```
//!
//! With `--db` the engine is durable: commits flush per the fsync policy
//! and every head digest is appended to the `<db>.head` sidecar, so a
//! restarted server re-attaches `master` where it left off (the same
//! sidecar format the `siri` CLI uses — the two tools are
//! interchangeable over one database directory). `--allow-shutdown`
//! enables the wire `shutdown` verb (used by CI's smoke job to assert a
//! clean exit).

use std::sync::Arc;

use siri_forkbase::{Forkbase, PosFactory};
use siri_pos_tree::PosParams;
use siri_server::{serve_addr, CommitHook, ServerOptions};
use siri_store::{FileStoreOptions, FsyncPolicy};

fn usage() -> ! {
    eprintln!(
        "usage: siri-server [--listen ADDR] [--db PATH | --mem] [--fsync never|commit|every=N|group=MS]\n\
         \x20                  [--max-conns N] [--timeout-ms MS] [--allow-shutdown]\n\
         serves the SIRI wire protocol (see DESIGN.md §11); --db persists pages and\n\
         branch heads under PATH / PATH.head, --mem serves an ephemeral store"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("siri-server: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = String::from("127.0.0.1:4733");
    let mut db: Option<String> = None;
    let mut fsync = FsyncPolicy::OnCommit;
    let mut opts = ServerOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                listen = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--db" => {
                i += 1;
                db = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--mem" => db = None,
            "--fsync" => {
                i += 1;
                fsync = args.get(i).and_then(|s| FsyncPolicy::parse(s)).unwrap_or_else(|| usage());
            }
            "--max-conns" => {
                i += 1;
                opts.max_connections = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--timeout-ms" => {
                i += 1;
                let ms: u64 = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                let t = Some(std::time::Duration::from_millis(ms));
                opts.read_timeout = t;
                opts.write_timeout = t;
            }
            "--allow-shutdown" => opts.allow_remote_shutdown = true,
            _ => usage(),
        }
        i += 1;
    }

    let factory = PosFactory(PosParams::default());
    let (engine, on_commit): (Arc<Forkbase<PosFactory>>, Option<CommitHook>) = match db {
        Some(path) => {
            let store_opts = FileStoreOptions { fsync, ..FileStoreOptions::default() };
            let engine = match Forkbase::new_durable(factory, &path, store_opts) {
                Ok(e) => Arc::new(e),
                Err(e) => fail(format_args!("cannot open database at {path}: {e}")),
            };
            let head_file = format!("{path}.head");
            // Re-attach master from the sidecar (same format as the CLI).
            let history: Vec<siri_crypto::Hash> = std::fs::read_to_string(&head_file)
                .unwrap_or_default()
                .lines()
                .filter_map(siri_crypto::Hash::from_hex)
                .collect();
            if let Some(head) = history.last() {
                engine.open_branch("master", *head);
            }
            let hook: CommitHook = Box::new(move |branch: &str, root: siri_crypto::Hash| {
                // Only master's history lives in the sidecar; other
                // branches are in-memory (fork them again after restart).
                if branch != "master" {
                    return;
                }
                use std::io::Write;
                let appended = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(&head_file)
                    .and_then(|mut f| writeln!(f, "{root}").and_then(|()| f.sync_data()));
                if let Err(e) = appended {
                    eprintln!("siri-server: cannot record version in {head_file}: {e}");
                }
            });
            (engine, Some(hook))
        }
        None => (Arc::new(Forkbase::with_store(factory, siri_store::MemStore::new_shared())), None),
    };

    match serve_addr(engine, &listen, opts, on_commit) {
        Ok(handle) => {
            println!("listening on {}", handle.addr());
            handle.wait();
        }
        Err(e) => fail(format_args!("cannot bind {listen}: {e}")),
    }
}
