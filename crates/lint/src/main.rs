#![forbid(unsafe_code)]

//! The `crh-lint` binary: lint the workspace, print diagnostics, exit
//! non-zero when invariants are violated.
//!
//! ```text
//! cargo run -p crh-lint                  # human-readable report
//! cargo run -p crh-lint -- --format json # machine-readable, for CI
//! cargo run -p crh-lint -- --root DIR    # lint a different tree
//! cargo run -p crh-lint -- --list        # print every lint id
//! cargo run -p crh-lint -- --explain ID  # one rule's description
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use crh_lint::{find_workspace_root, lint_workspace, lints, to_json, to_text, LINTS};

fn usage() -> &'static str {
    "usage: crh-lint [--format text|json] [--root DIR] [--list] [--explain LINT-ID]"
}

fn main() -> ExitCode {
    let mut format = String::from("text");
    let mut root: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                _ => {
                    eprintln!("--format takes `text` or `json`\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--root takes a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list" => {
                for (id, desc) in LINTS {
                    println!("{id:22} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let Some(id) = args.next() else {
                    eprintln!("--explain takes a lint id (see --list)\n{}", usage());
                    return ExitCode::from(2);
                };
                match lints::explain(&id) {
                    Some(text) => {
                        println!("{id}\n");
                        println!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!("unknown lint id `{id}`; see --list");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(|| {
        let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        find_workspace_root(&cwd)
    });

    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("crh-lint: failed to walk `{}`: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if format == "json" {
        print!("{}", to_json(&findings));
    } else {
        print!("{}", to_text(&findings));
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
