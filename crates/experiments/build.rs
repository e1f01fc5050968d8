//! Embeds the committed goldens (`tests/goldens/*.txt`) in the crate:
//! writes `goldens.rs` into `OUT_DIR`, an `include_bytes!` table of
//! `(file name, bytes)` in name order. The run cache digests that table
//! into every key (`cache.rs`), so regenerating a golden moves every key.

use std::path::PathBuf;
use std::{env, fs};

fn main() {
    println!("cargo:rerun-if-changed=tests/goldens");
    let dir = PathBuf::from(env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"))
        .join("tests/goldens");
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable goldens directory").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".txt"))
        .collect();
    names.sort();
    let mut table = String::from("&[\n");
    for name in &names {
        let path = dir.join(name);
        table += &format!("    ({name:?}, include_bytes!({path:?})),\n");
    }
    table += "]\n";
    let out = PathBuf::from(env::var_os("OUT_DIR").expect("set by cargo")).join("goldens.rs");
    fs::write(&out, table).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
}
