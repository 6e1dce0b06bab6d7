//! `digest_diff <old.json> <new.json>`: compares two `FleetDigest` JSON
//! files (for example a committed golden digest and a fresh sweep's)
//! with [`ehdl_fleet::diff_digests`].
//!
//! Prints one line per field that moved beyond its tolerance. Exits 0
//! when the digests agree, 1 when any field differs, and 2 on bad
//! arguments or a file that is not a fleet digest.

use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old, new] = &args[..] else {
        eprintln!("usage: digest_diff <old.json> <new.json>");
        exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("digest_diff: {path}: {e}");
            exit(2);
        })
    };
    match ehdl_fleet::diff_digests(&read(old), &read(new)) {
        Ok(diffs) => {
            for diff in &diffs {
                println!("{diff}");
            }
            if !diffs.is_empty() {
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("digest_diff: {e}");
            exit(2);
        }
    }
}
