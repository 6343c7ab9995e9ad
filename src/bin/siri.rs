//! `siri` — a small CLI over a persistent POS-Tree store.
//!
//! A versioned, tamper-evident key-value database in one directory:
//!
//! ```text
//! siri --db ./data.siri put <key> <value>     # new version per write
//! siri --db ./data.siri get <key> [--root H]  # read head or any version
//! siri --db ./data.siri scan [prefix]
//! siri --db ./data.siri log                   # version history (digests)
//! siri --db ./data.siri prove <key>           # emit a proof (hex pages)
//! siri --db ./data.siri diff <rootA> <rootB>
//! siri --db ./data.siri gc [--keep N]         # retire old versions, compact disk
//! siri --db ./data.siri compact               # drop orphan pages, keep all versions
//! siri --db ./data.siri stats
//! ```
//!
//! The head pointer and history live in a sidecar file `<db>.head` (the
//! segmented page store is content-addressed and append-only, so the
//! sidecar is the only mutable state). Every command runs against one
//! engine opened at the sidecar's newest version; the reads and writes a
//! remote server also answers go through the same [`Session`] code path
//! as `connect`. Mutating commands fsync before they acknowledge —
//! `--fsync never|commit|every=N|group=MS` tunes that (`group` batches
//! concurrent committers into one fsync per MS-long tick).

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use siri::{
    gc, Bytes, Entry, Forkbase, Hash, NodeStore, PageSet, PosFactory, PosParams, PosTree, Session,
    SharedStore, SiriIndex, WriteBatch, MAX_SHARDS,
};
use siri_store::{FileStore, FileStoreOptions, FsyncPolicy};

fn usage() -> ! {
    eprintln!(
        "usage: siri --db <path> [--fsync never|commit|every=N|group=MS] [--shards N] <command>\n\
         commands:\n\
         \x20 put <key> <value>      write one record (creates a version)\n\
         \x20 del <key>              delete one record (creates a version)\n\
         \x20 get <key> [--root H]   read from head or a specific version\n\
         \x20 scan [prefix]          list records (optionally by prefix)\n\
         \x20 load <file>            bulk-load key<TAB>value lines as one version\n\
         \x20                        (the engine's bulk load); with --shards N the tree\n\
         \x20                        is cut into N key ranges built on N threads and\n\
         \x20                        the version digest is the shard-manifest page\n\
         \x20                        (reads stay transparent)\n\
         \x20 log                    list version digests, newest first\n\
         \x20 prove <key>            print an anchored Merkle proof for the key\n\
         \x20 prove --range <start> [<end>]  completeness proof for [start, end)\n\
         \x20 prove --batch <key>...  one deduplicated proof for several keys\n\
         \x20                        (all three anchor at the head digest and work\n\
         \x20                        on sharded heads; output is root + proof hex)\n\
         \x20 verify <key> <root> <proof-hex...>  check a membership proof offline\n\
         \x20 verify --range <start> <end|-> <root> <proof-hex...>  check a range\n\
         \x20                        proof offline and print the proven entries\n\
         \x20 diff <rootA> <rootB>   compare two versions\n\
         \x20 gc [--keep N]          retire all but the last N versions (default 1)\n\
         \x20                        and compact the store on disk\n\
         \x20 compact                rewrite segments keeping every version's pages\n\
         \x20 stats                  storage statistics\n\
         \x20 serve [--listen ADDR]  serve this database over the SIRI wire protocol\n\
         \x20                        (default 127.0.0.1:4733; commits land in <db>.head;\n\
         \x20                        --allow-shutdown lets clients stop the server)\n\
         \x20 connect <ADDR> <cmd>   run a command against a remote server; cmd is one of\n\
         \x20                        put/del/get/scan/branches/digest/prove/stats/shutdown\n\
         \x20                        (--branch B targets a branch; default master; stats\n\
         \x20                        prints server totals and per-connection counters;\n\
         \x20                        prove re-verifies the server's proof locally against\n\
         \x20                        the branch digest and also takes --range/--batch)\n\
         \x20 sync <ADDR>            anti-entropy pull: fetch the remote head's missing\n\
         \x20                        pages into this database and record the version\n\
         options:\n\
         \x20 --shards N             shard count for `load` (default 1; max {MAX_SHARDS},\n\
         \x20                        the engine's cap). Sharded heads answer\n\
         \x20                        get/scan/stats/gc/prove like any other version\n\
         \x20                        (proofs anchor at the manifest digest); only diff\n\
         \x20                        needs unsharded roots."
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("siri: {msg}");
    std::process::exit(1);
}

/// Proof bytes from CLI args: a single argument is tried as a
/// [`siri::Proof::encode`] artifact first; otherwise every argument is one
/// hex page, in order (the page-per-line form older scripts pipe around).
fn decode_proof_args(args: &[String]) -> siri::Proof {
    if args.len() == 1 {
        if let Some(raw) = siri::crypto::hex::decode(&args[0]) {
            if let Ok(p) = siri::Proof::decode(&raw) {
                return p;
            }
        }
    }
    let pages = args
        .iter()
        .map(|h| {
            Bytes::from(
                siri::crypto::hex::decode(h).unwrap_or_else(|| fail("bad hex page in proof")),
            )
        })
        .collect();
    siri::Proof::new(pages)
}

fn load_history(path: &str) -> Vec<Hash> {
    std::fs::read_to_string(path).unwrap_or_default().lines().filter_map(Hash::from_hex).collect()
}

fn append_history(path: &str, root: Hash) {
    use std::io::Write;
    let mut f = match std::fs::OpenOptions::new().append(true).create(true).open(path) {
        Ok(f) => f,
        Err(e) => fail(format_args!("cannot open history file {path}: {e}")),
    };
    // The head pointer is part of the acknowledged state: fsync it like
    // the pages it points at, or a version could vanish on power loss.
    if let Err(e) = writeln!(f, "{root}").and_then(|()| f.sync_data()) {
        fail(format_args!("cannot record version in {path}: {e}"));
    }
}

fn write_history(path: &str, roots: &[Hash]) {
    use std::io::Write;
    let text: String = roots.iter().map(|h| format!("{h}\n")).collect();
    let write = std::fs::File::create(path)
        .and_then(|mut f| f.write_all(text.as_bytes()).and_then(|()| f.sync_data()));
    if let Err(e) = write {
        fail(format_args!("cannot rewrite history file {path}: {e}"));
    }
}

/// Record a version the engine has written: the page log is flushed per
/// the fsync policy, *then* the head pointer moves — durability before
/// acknowledgement.
fn record_version(fs: &FileStore, head_file: &str, digest: Hash) {
    if let Err(e) = fs.note_commit() {
        fail(format_args!("fsync failed, version not recorded: {e}"));
    }
    append_history(head_file, digest);
}

/// The tree roots version `root` names: itself, or the per-range sub-roots
/// of the shard manifest it names. A root the store cannot resolve is
/// taken as a plain tree root, as the engine takes it.
fn sub_roots(store: &SharedStore, root: Hash) -> Vec<Hash> {
    siri::open_head(store.as_ref(), root).map_or_else(|_| vec![root], |(_, roots)| roots)
}

/// Union of the page sets reachable from `roots` (the GC mark phase). A
/// sharded version keeps its manifest page live alongside every
/// sub-tree's pages — retiring it must reclaim all of them together.
fn mark_live(store: &SharedStore, params: PosParams, roots: &[Hash]) -> Vec<PageSet> {
    roots
        .iter()
        .map(|&r| {
            let mut set = PageSet::new();
            let trees = sub_roots(store, r);
            if trees != [r] {
                if let Ok(Some(manifest)) = store.try_get(&r) {
                    set.insert(r, manifest.len() as u64);
                }
            }
            for t in trees {
                set.union_with(&PosTree::open(store.clone(), params, t).page_set());
            }
            set
        })
        .collect()
}

/// Run one of the commands a local database and a remote server both
/// answer — `put`, `del`, `get`, `scan` and `prove` — on `branch` of
/// `session`. A write returns the digest it committed, for the caller to
/// make durable and print; a read prints its answer and returns `None`.
fn run_session(session: &dyn Session, branch: &str, cmd: &str, args: &[String]) -> Option<Hash> {
    let commit = |batch: WriteBatch, what: &str| match session.commit(branch, batch) {
        Ok(info) => Some(info.root),
        Err(e) => fail(format_args!("{what} failed: {e}")),
    };
    match cmd {
        "put" => {
            let (key, value) = match (args.first(), args.get(1)) {
                (Some(k), Some(v)) => (k, v),
                _ => usage(),
            };
            let mut batch = WriteBatch::new();
            batch.put(key.as_bytes().to_vec(), value.as_bytes().to_vec());
            commit(batch, "write")
        }
        "del" => {
            let key = args.first().unwrap_or_else(|| usage());
            let mut batch = WriteBatch::new();
            batch.delete(key.as_bytes().to_vec());
            commit(batch, "delete")
        }
        "get" => {
            let key = args.first().unwrap_or_else(|| usage());
            match session.get(branch, key.as_bytes()) {
                Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
                Ok(None) => {
                    eprintln!("(not found)");
                    std::process::exit(1);
                }
                Err(e) => fail(format_args!("read failed: {e}")),
            }
            None
        }
        "scan" => {
            // Stream through the cursor — constant memory, even for a
            // full-database scan. A sharded head chains its per-range
            // cursors in partition order.
            let cursor = match args.first() {
                Some(prefix) => session.scan_prefix(branch, prefix.as_bytes()),
                None => session.range(branch, Bound::Unbounded, Bound::Unbounded),
            };
            let cursor = cursor.unwrap_or_else(|e| fail(format_args!("scan failed: {e}")));
            for e in cursor {
                let e = e.unwrap_or_else(|e| fail(format_args!("scan failed: {e}")));
                println!(
                    "{}\t{}",
                    String::from_utf8_lossy(&e.key),
                    String::from_utf8_lossy(&e.value)
                );
            }
            None
        }
        "prove" => {
            // Anchored proofs: on a sharded head the shard-manifest page is
            // the first proof page, so the whole proof verifies against the
            // version digest alone. A remote session re-verifies the
            // server's proof against the branch digest before returning
            // it, so a lying server fails here. The proof prints as one hex
            // artifact (`siri::Proof::encode`) after the anchoring root.
            let proved = match args.first().map(String::as_str) {
                Some("--range") => {
                    let start = args.get(1).unwrap_or_else(|| usage());
                    let end = match args.get(2).filter(|e| e.as_str() != "-") {
                        Some(e) => Bound::Excluded(e.as_bytes()),
                        None => Bound::Unbounded,
                    };
                    session.prove_range(branch, Bound::Included(start.as_bytes()), end)
                }
                Some("--batch") => {
                    let keys: Vec<Bytes> =
                        args[1..].iter().map(|k| Bytes::copy_from_slice(k.as_bytes())).collect();
                    if keys.is_empty() {
                        usage();
                    }
                    session.prove_batch(branch, &keys)
                }
                Some(key) => session.prove(branch, key.as_bytes()),
                None => usage(),
            };
            let (root, proof) = proved.unwrap_or_else(|e| fail(format_args!("prove failed: {e}")));
            println!("root\t{root}");
            println!("{}", siri::crypto::hex::encode(&proof.encode()));
            None
        }
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut db = String::from("./siri.db");
    let mut fsync = FsyncPolicy::OnCommit;
    let mut shards: usize = 1;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--db" => {
                i += 1;
                db = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--fsync" => {
                i += 1;
                fsync = args.get(i).and_then(|s| FsyncPolicy::parse(s)).unwrap_or_else(|| usage());
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| (1..=MAX_SHARDS).contains(&n))
                    .unwrap_or_else(|| usage());
            }
            _ => rest.push(args[i].clone()),
        }
        i += 1;
    }
    if rest.is_empty() {
        usage();
    }

    // `connect` talks to a remote server; it neither needs nor creates a
    // local database, so handle it before the store opens.
    if rest[0] == "connect" {
        run_connect(&rest[1..]);
        return;
    }

    let head_file = format!("{db}.head");
    let opts = FileStoreOptions { fsync, ..FileStoreOptions::default() };
    let fs = match FileStore::open_with(&db, opts) {
        Ok((fs, _)) => Arc::new(fs),
        Err(e) => fail(format_args!("cannot open database at {db}: {e}")),
    };
    let store: SharedStore = fs.clone();
    let history = load_history(&head_file);
    let head_root = history.last().copied().unwrap_or(Hash::ZERO);
    let params = PosParams::default();
    // One engine answers every command, its `master` at the newest version
    // (`get --root H` reads version H instead). The head may be a plain
    // tree root or a shard-manifest digest from `load --shards N`; the
    // engine routes both the same way.
    let at = match rest.iter().position(|a| a == "--root") {
        Some(p) if rest[0] == "get" => {
            rest.get(p + 1).and_then(|s| Hash::from_hex(s)).unwrap_or_else(|| usage())
        }
        _ => head_root,
    };
    let engine = Arc::new(Forkbase::with_store(PosFactory(params), store.clone()));
    engine.open_branch("master", at);

    match rest[0].as_str() {
        "load" => {
            let path = rest.get(1).unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
            // A key's last line wins, as in any write batch.
            let data: BTreeMap<&str, &str> = text
                .lines()
                .filter(|l| !l.is_empty())
                .map(|line| line.split_once('\t').unwrap_or((line, "")))
                .collect();
            let count = data.len();
            let entries = data
                .into_iter()
                .map(|(k, v)| Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                .collect();
            let digest = engine
                .bulk_load("master", entries, shards)
                .unwrap_or_else(|e| fail(format_args!("load failed: {e}")));
            record_version(&fs, &head_file, digest);
            let built = engine.shard_count("master").unwrap_or(1);
            println!("loaded {count} record(s) into {built} shard(s)\n{digest}");
        }
        "log" => {
            for (n, h) in history.iter().enumerate().rev() {
                println!("v{n}\t{h}");
            }
        }
        "verify" => {
            let ranged = rest.get(1).map(String::as_str) == Some("--range");
            // Positional layout: `verify <key> <root> <proof-hex...>` or
            // `verify --range <start> <end|-> <root> <proof-hex...>`.
            let args = if ranged { &rest[2..] } else { &rest[1..] };
            let (root_at, hex_from) = if ranged { (2, 3) } else { (1, 2) };
            let root = args.get(root_at).and_then(|s| Hash::from_hex(s)).unwrap_or_else(|| usage());
            let proof = decode_proof_args(&args[hex_from.min(args.len())..]);
            if ranged {
                let start = args.first().unwrap_or_else(|| usage());
                let end = args.get(1).unwrap_or_else(|| usage());
                let eb = if end.as_str() == "-" {
                    Bound::Unbounded
                } else {
                    Bound::Excluded(end.as_bytes())
                };
                match siri::verify_anchored_range(
                    &siri::PosProofScheme,
                    root,
                    Bound::Included(start.as_bytes()),
                    eb,
                    &proof,
                ) {
                    siri::RangeVerdict::Complete(entries) => {
                        println!("COMPLETE\t{} entr(ies)", entries.len());
                        for e in entries {
                            println!(
                                "{}\t{}",
                                String::from_utf8_lossy(&e.key),
                                String::from_utf8_lossy(&e.value)
                            );
                        }
                    }
                    siri::RangeVerdict::Invalid(why) => {
                        println!("INVALID\t{why}");
                        std::process::exit(1);
                    }
                }
            } else {
                let key = args.first().unwrap_or_else(|| usage());
                match siri::verify_anchored_membership(
                    &siri::PosProofScheme,
                    root,
                    key.as_bytes(),
                    &proof,
                ) {
                    siri::ProofVerdict::Present(v) => {
                        println!("PRESENT\t{}", String::from_utf8_lossy(&v))
                    }
                    siri::ProofVerdict::Absent => println!("ABSENT"),
                    siri::ProofVerdict::Invalid(why) => {
                        println!("INVALID\t{why}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "diff" => {
            let a = rest.get(1).and_then(|s| Hash::from_hex(s)).unwrap_or_else(|| usage());
            let b = rest.get(2).and_then(|s| Hash::from_hex(s)).unwrap_or_else(|| usage());
            for h in [a, b] {
                if sub_roots(&store, h) != [h] {
                    fail(format_args!(
                        "{h} is a shard-manifest digest; diff wants plain tree roots \
                         (use the sub-roots it lists)"
                    ));
                }
            }
            let va = PosTree::open(store.clone(), params, a);
            let vb = PosTree::open(store.clone(), params, b);
            let diff = va.diff(&vb).unwrap_or_else(|e| fail(format_args!("diff failed: {e}")));
            for d in diff {
                let tag = match d.side() {
                    siri::DiffSide::LeftOnly => "-",
                    siri::DiffSide::RightOnly => "+",
                    siri::DiffSide::Changed => "~",
                };
                println!("{tag} {}", String::from_utf8_lossy(&d.key));
            }
        }
        "gc" => {
            // Retire all versions but the newest `--keep N`: mark their
            // reachable pages, compact everything else away, and truncate
            // the history sidecar to match.
            let keep = match rest.iter().position(|a| a == "--keep") {
                Some(p) => rest
                    .get(p + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage()),
                None => 1,
            };
            if history.is_empty() {
                println!("nothing to collect (no versions)");
                return;
            }
            let kept: Vec<Hash> = history[history.len().saturating_sub(keep)..].to_vec();
            let live = mark_live(&store, params, &kept);
            let disk_before = fs.disk_bytes();
            // Truncate the sidecar *before* sweeping: a crash in between
            // leaves harmless orphan pages (a later gc/compact reclaims
            // them), while the reverse order would leave history naming
            // versions whose pages are gone.
            write_history(&head_file, &kept);
            match gc::sweep_unreachable(fs.as_ref(), &live) {
                Ok((pages, bytes)) => {
                    println!(
                        "retired {} version(s); reclaimed {pages} page(s), {bytes} B \
                         (disk {disk_before} B -> {} B)",
                        history.len() - kept.len(),
                        fs.disk_bytes()
                    );
                }
                Err(e) => fail(format_args!("gc failed (store unchanged): {e}")),
            }
        }
        "compact" => {
            // Keep every version reachable; drop only orphan pages (e.g.
            // from commits whose version was never recorded) and rewrite
            // the segments contiguously.
            let live = mark_live(&store, params, &history);
            let disk_before = fs.disk_bytes();
            match gc::sweep_unreachable(fs.as_ref(), &live) {
                Ok((pages, bytes)) => println!(
                    "compacted: reclaimed {pages} orphan page(s), {bytes} B \
                     (disk {disk_before} B -> {} B, {} segment(s))",
                    fs.disk_bytes(),
                    fs.segment_count()
                ),
                Err(e) => fail(format_args!("compaction failed (store unchanged): {e}")),
            }
        }
        "serve" => {
            let listen = match rest.iter().position(|a| a == "--listen") {
                Some(p) => rest.get(p + 1).cloned().unwrap_or_else(|| usage()),
                None => String::from("127.0.0.1:4733"),
            };
            let allow_shutdown = rest.iter().any(|a| a == "--allow-shutdown");
            // The served engine records its commits the way local writes
            // do.
            let hook_fs = fs.clone();
            let hook_head = head_file.clone();
            let hook: siri::server::CommitHook = Box::new(move |branch, root| {
                if branch == "master" {
                    record_version(&hook_fs, &hook_head, root);
                }
            });
            let opts =
                siri::ServerOptions { allow_remote_shutdown: allow_shutdown, ..Default::default() };
            match siri::serve_addr(engine, &listen, opts, Some(hook)) {
                Ok(handle) => {
                    println!("listening on {}", handle.addr());
                    handle.wait();
                }
                Err(e) => fail(format_args!("cannot bind {listen}: {e}")),
            }
        }
        "sync" => {
            let addr = rest.get(1).unwrap_or_else(|| usage());
            let branch = match rest.iter().position(|a| a == "--branch") {
                Some(p) => rest.get(p + 1).cloned().unwrap_or_else(|| usage()),
                None => String::from("master"),
            };
            let session = match siri::RemoteSession::connect(addr.as_str()) {
                Ok(s) => s,
                Err(e) => fail(format_args!("cannot connect to {addr}: {e}")),
            };
            let sync = session.sync_branch(
                &branch,
                store.as_ref(),
                siri::pos_tree::Node::children_of_page,
                &siri::SyncOptions::default(),
            );
            match sync {
                Ok((digest, report)) => {
                    if let Err(e) = fs.note_commit() {
                        fail(format_args!("fsync failed, version not recorded: {e}"));
                    }
                    if history.last() != Some(&digest) {
                        append_history(&head_file, digest);
                    }
                    println!(
                        "synced {branch} to {digest}\n\
                         fetched {} page(s), {} B in {} round trip(s); \
                         {} subtree(s) already present",
                        report.pages_fetched,
                        report.bytes_fetched,
                        report.round_trips,
                        report.subtrees_skipped
                    );
                    if report.missing > 0 {
                        fail(format_args!("{} page(s) missing at the source", report.missing));
                    }
                }
                Err(e) => fail(format_args!("sync failed: {e}")),
            }
        }
        "stats" => {
            let s = store.stats();
            println!("versions       {}", history.len());
            println!("unique pages   {}", s.unique_pages);
            println!("unique bytes   {}", s.unique_bytes);
            println!("logical bytes  {}", s.logical_bytes);
            println!("dedup savings  {:.1}%", s.dedup_savings() * 100.0);
            println!("disk bytes     {}", fs.disk_bytes());
            println!("segments       {}", fs.segment_count());
            println!("commits        {}", s.commits);
            println!("fsyncs         {}", s.fsyncs);
            if !head_root.is_zero() {
                let trees = sub_roots(&store, head_root);
                let mut records = 0u64;
                for &t in &trees {
                    match PosTree::open(store.clone(), params, t).len() {
                        Ok(n) => records += n as u64,
                        Err(e) => fail(format_args!("cannot read head version: {e}")),
                    }
                }
                println!("records        {records}");
                if trees.len() > 1 {
                    println!("head shards    {}", trees.len());
                }
            }
        }
        cmd => {
            if let Some(digest) = run_session(engine.as_ref(), "master", cmd, &rest[1..]) {
                record_version(&fs, &head_file, digest);
                println!("{digest}");
            }
        }
    }
}

/// `siri connect <ADDR> <cmd>` — run one command against a remote server:
/// the local session commands (`put`/`del`/`get`/`scan`/`prove`, through
/// the same code as a local database), plus the server-only verbs
/// (`branches`, `digest`, `stats`, `shutdown`).
fn run_connect(rest: &[String]) {
    let mut branch = String::from("master");
    let mut pos: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        if rest[i] == "--branch" {
            i += 1;
            branch = rest.get(i).cloned().unwrap_or_else(|| usage());
        } else {
            pos.push(rest[i].clone());
        }
        i += 1;
    }
    let (addr, cmd) = match (pos.first(), pos.get(1)) {
        (Some(a), Some(c)) => (a.as_str(), c.as_str()),
        _ => usage(),
    };
    let session = match siri::RemoteSession::connect(addr) {
        Ok(s) => s,
        Err(e) => fail(format_args!("cannot connect to {addr}: {e}")),
    };
    match cmd {
        "branches" => match session.branches() {
            Ok(names) => {
                for name in names {
                    println!("{name}");
                }
            }
            Err(e) => fail(format_args!("cannot list branches: {e}")),
        },
        "digest" => match session.branch_digest(&branch) {
            Ok(h) => println!("{h}"),
            Err(e) => fail(format_args!("cannot read branch digest: {e}")),
        },
        "stats" => match session.server_stats() {
            Ok(s) => {
                println!("accepted       {}", s.accepted);
                println!("active        {}", s.active);
                println!("rejected      {}", s.rejected);
                println!("requests      {}", s.total_requests);
                println!("bytes in      {}", s.total_bytes_in);
                println!("bytes out     {}", s.total_bytes_out);
                for c in &s.conns {
                    println!(
                        "conn {}\t{}\treq {}\tin {} B\tout {} B\tcommits {}\treads {}\t\
                         scan-pages {}\tsync-pages {}",
                        c.id,
                        c.peer,
                        c.requests,
                        c.bytes_in,
                        c.bytes_out,
                        c.commits,
                        c.reads,
                        c.scan_pages,
                        c.sync_pages
                    );
                }
            }
            Err(e) => fail(format_args!("cannot read server stats: {e}")),
        },
        "shutdown" => match session.shutdown_server() {
            Ok(()) => println!("server stopping"),
            Err(e) => fail(format_args!("shutdown refused: {e}")),
        },
        _ => {
            if let Some(digest) = run_session(&session, &branch, cmd, &pos[2..]) {
                println!("{digest}");
            }
        }
    }
}
