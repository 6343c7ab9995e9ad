//! The `siri` binary, driven end to end on throwaway databases: the local
//! commands, a sharded `load` pinned to the engine's own bulk loader,
//! proofs on that sharded head, and the remote commands against a running
//! `siri serve`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

use siri::{Entry, Forkbase, PosFactory, PosParams};

/// A scratch directory holding one database, removed on drop.
struct TempDb {
    dir: PathBuf,
}

impl TempDb {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir()
            .join("siri-cli-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDb { dir }
    }

    fn db(&self) -> String {
        self.dir.join("t.siri").display().to_string()
    }

    fn file(&self, name: &str, text: &str) -> String {
        let path = self.dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn siri(db: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_siri"));
    cmd.arg("--db").arg(db);
    cmd
}

fn run(db: &str, args: &[&str]) -> Output {
    siri(db).args(args).output().expect("cannot run the siri binary")
}

/// Run a command that must succeed and return its stdout.
fn ok(db: &str, args: &[&str]) -> String {
    let out = run(db, args);
    assert!(
        out.status.success(),
        "siri {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A `prove` printout: the anchoring root and the proof hex.
fn root_and_proof(printed: &str) -> (String, String) {
    let mut lines = printed.lines();
    let root = lines.next().and_then(|l| l.strip_prefix("root\t")).expect("root line");
    let proof = lines.next().expect("proof line");
    (root.to_string(), proof.to_string())
}

#[test]
fn local_commands_round_trip() {
    let t = TempDb::new("local");
    let db = t.db();
    let db = db.as_str();

    let v1 = ok(db, &["put", "alice", "100"]);
    let v2 = ok(db, &["put", "bob", "75"]);
    assert_ne!(v1, v2);
    assert_eq!(ok(db, &["get", "alice"]), "100\n");
    assert_eq!(ok(db, &["get", "bob"]), "75\n");
    // Deleting restores the pre-insert digest (structural invariance).
    assert_eq!(ok(db, &["del", "bob"]), v1);
    let missing = run(db, &["get", "bob"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("(not found)"));
    // Time travel: the version that still holds the key.
    assert_eq!(ok(db, &["get", "bob", "--root", v2.trim()]), "75\n");

    let v4 = ok(db, &["put", "alan", "1"]);
    assert_eq!(ok(db, &["scan"]), "alan\t1\nalice\t100\n");
    assert_eq!(ok(db, &["scan", "ala"]), "alan\t1\n");
    assert_eq!(ok(db, &["scan", "zzz"]), "");

    let log = ok(db, &["log"]);
    let versions: Vec<&str> = log.lines().collect();
    assert_eq!(versions.len(), 4, "{log}");
    assert_eq!(versions[0], format!("v3\t{}", v4.trim()));
    assert_eq!(versions[3], format!("v0\t{}", v1.trim()));

    let stats = ok(db, &["stats"]);
    assert!(stats.contains("versions       4\n"), "{stats}");
    assert!(stats.contains("records        2\n"), "{stats}");
    assert!(!stats.contains("head shards"), "{stats}");

    let gc = ok(db, &["gc", "--keep", "1"]);
    assert!(gc.starts_with("retired 3 version(s)"), "{gc}");
    assert_eq!(ok(db, &["log"]), format!("v0\t{v4}"));
    let compact = ok(db, &["compact"]);
    assert!(compact.starts_with("compacted: reclaimed 0 orphan page(s)"), "{compact}");
    assert_eq!(ok(db, &["scan"]), "alan\t1\nalice\t100\n");

    // Bad usage prints the usage text and exits 2.
    assert_eq!(run(db, &[]).status.code(), Some(2));
    assert_eq!(run(db, &["put", "only-a-key"]).status.code(), Some(2));
}

#[test]
fn sharded_load_is_the_engine_bulk_load_and_proves() {
    let t = TempDb::new("load");
    let db = t.db();
    let db = db.as_str();
    // 1,000 distinct keys out of order, then one overwrite: last line wins.
    let mut text: String =
        (0..1000u32).map(|i| format!("key{:05}\tvalue-{i}\n", (i * 7919) % 1000)).collect();
    text.push_str("key00042\toverride\n");
    let path = t.file("data.tsv", &text);

    let out = ok(db, &["--shards", "4", "load", &path]);
    let mut lines = out.lines();
    assert_eq!(lines.next(), Some("loaded 1000 record(s) into 4 shard(s)"));
    let digest = lines.next().expect("digest line").to_string();

    let entries: Vec<Entry> = text
        .lines()
        .map(|l| l.split_once('\t').unwrap())
        .map(|(k, v)| Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec()))
        .collect();
    let engine = Forkbase::new(PosFactory(PosParams::default()));
    let expected = engine.bulk_load("master", entries, 4).unwrap();
    assert_eq!(digest, expected.to_string(), "the CLI load is the engine's bulk load");

    assert_eq!(ok(db, &["get", "key00042"]), "override\n");
    let stats = ok(db, &["stats"]);
    assert!(stats.contains("records        1000\n"), "{stats}");
    assert!(stats.contains("head shards    4\n"), "{stats}");

    // A point proof and a range proof, both anchored at the manifest.
    let (root, proof) = root_and_proof(&ok(db, &["prove", "key00042"]));
    assert_eq!(root, digest);
    assert_eq!(ok(db, &["verify", "key00042", &root, &proof]), "PRESENT\toverride\n");
    let (root, proof) = root_and_proof(&ok(db, &["prove", "--range", "key00100", "key00110"]));
    assert_eq!(root, digest);
    let verified = ok(db, &["verify", "--range", "key00100", "key00110", &root, &proof]);
    assert!(verified.starts_with("COMPLETE\t10 entr(ies)\nkey00100\t"), "{verified}");
    let (root, _) = root_and_proof(&ok(db, &["prove", "--batch", "key00001", "nope"]));
    assert_eq!(root, digest);

    // Writes keep going through the sharded head.
    let next = ok(db, &["put", "key00042", "again"]);
    assert_ne!(next.trim(), digest);
    assert_eq!(ok(db, &["get", "key00042"]), "again\n");
    assert_eq!(ok(db, &["get", "key00042", "--root", &digest]), "override\n");
    assert_eq!(ok(db, &["scan", "key0004"]).lines().count(), 10);

    // GC keeps the manifest page live with the sub-trees it names.
    assert!(ok(db, &["gc", "--keep", "1"]).starts_with("retired 1 version(s)"));
    assert!(ok(db, &["stats"]).contains("head shards    4\n"));
    assert_eq!(ok(db, &["scan"]).lines().count(), 1000);
}

#[test]
fn shard_count_above_the_engine_cap_is_a_usage_error() {
    let t = TempDb::new("cap");
    let db = t.db();
    let path = t.file("data.tsv", "a\t1\nb\t2\n");
    assert_eq!(run(&db, &["--shards", "65", "load", &path]).status.code(), Some(2));
    assert_eq!(run(&db, &["--shards", "0", "load", &path]).status.code(), Some(2));
    assert_eq!(run(&db, &["serve", "--max-conns", "0"]).status.code(), Some(2));
    assert!(ok(&db, &["--shards", "64", "load", &path]).starts_with("loaded 2 record(s)"));
}

/// A running `siri serve`, killed if the test fails before shutting it
/// down over the wire.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn remote_commands_sync_and_shutdown() {
    let served = TempDb::new("served");
    let local = TempDb::new("replica");
    let (a, b) = (served.db(), local.db());
    ok(&a, &["put", "seed", "one"]);

    let mut server = Server(
        siri(&a)
            .args(["serve", "--listen", "127.0.0.1:0", "--allow-shutdown"])
            .args(["--max-conns", "4", "--timeout-ms", "30000"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("cannot start siri serve"),
    );
    let mut line = String::new();
    BufReader::new(server.0.stdout.take().unwrap()).read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening on ").expect("listening line").to_string();
    let connect = |args: &[&str]| ok(&b, &[&["connect", addr.as_str()][..], args].concat());

    let digest = connect(&["put", "alice", "100"]);
    assert_eq!(connect(&["get", "alice"]), "100\n");
    assert_eq!(connect(&["get", "seed"]), "one\n");
    assert_eq!(connect(&["scan"]), "alice\t100\nseed\tone\n");
    assert_eq!(connect(&["scan", "se"]), "seed\tone\n");
    assert_eq!(connect(&["digest"]), digest);
    assert_eq!(connect(&["branches"]), "master\n");

    let (root, proof) = root_and_proof(&connect(&["prove", "alice"]));
    assert_eq!(format!("{root}\n"), digest);
    assert_eq!(ok(&b, &["verify", "alice", &root, &proof]), "PRESENT\t100\n");
    let (root, proof) = root_and_proof(&connect(&["prove", "--range", "a", "-"]));
    let verified = ok(&b, &["verify", "--range", "a", "-", &root, &proof]);
    assert_eq!(verified, "COMPLETE\t2 entr(ies)\nalice\t100\nseed\tone\n");

    let stats = connect(&["stats"]);
    assert!(stats.contains("requests"), "{stats}");

    let synced = ok(&b, &["sync", &addr]);
    assert!(synced.starts_with(&format!("synced master to {}", digest.trim())), "{synced}");
    assert_eq!(ok(&b, &["get", "alice"]), "100\n");
    assert_eq!(ok(&b, &["log"]), format!("v0\t{digest}"));

    assert_eq!(connect(&["shutdown"]), "server stopping\n");
    assert!(server.0.wait().unwrap().success());
    // The served commit was recorded in the served database's history.
    assert_eq!(ok(&a, &["get", "alice"]), "100\n");
    assert_eq!(ok(&a, &["log"]).lines().next(), Some(format!("v1\t{}", digest.trim()).as_str()));
}
